//! Runtime-selected vectorized scan kernels for the replay hot loops.
//!
//! The replay engine's inner loops spend much of their time in a handful
//! of dense scans: "does this store buffer hold line X?", "which ways are
//! NRU victim candidates?", "how many table entries are live this
//! epoch?". Each kernel here exists in two semantically identical
//! implementations:
//!
//! * a **scalar** twin (a plain loop), which is also the portable
//!   fallback on non-x86 targets, and
//! * an **AVX2** twin (`std::arch`, x86_64 only) selected at runtime via
//!   `is_x86_feature_detected!`.
//!
//! Selection happens once per process and can be overridden two ways so
//! the equivalence suite can pin either path:
//!
//! * the `PS_FORCE_SCALAR` environment variable (any value other than
//!   `0` or empty forces the scalar twins), read on first use;
//! * [`set_force_scalar`], which wins over the environment and is what
//!   the figures CLI's `--force-scalar` flag calls.
//!
//! Both twins of every kernel produce *identical* outputs (same order,
//! same counts) — byte-identical simulation results on either path are a
//! hard invariant, enforced by the unit tests here and by the
//! `simd_equivalence` integration suite in `crates/bench`.

use std::sync::atomic::{AtomicU8, Ordering};

/// Kernel selection: 0 = undecided, 1 = vectorized, 2 = scalar.
static MODE: AtomicU8 = AtomicU8::new(0);

const MODE_SIMD: u8 = 1;
const MODE_SCALAR: u8 = 2;

/// Force (or un-force) the scalar twins, overriding both the CPU-feature
/// probe and `PS_FORCE_SCALAR`. Takes effect for all subsequent kernel
/// calls process-wide.
pub fn set_force_scalar(force: bool) {
    let mode = if force { MODE_SCALAR } else { detect() };
    MODE.store(mode, Ordering::Relaxed);
}

/// Probe the CPU (and target) for the vectorized twins.
fn detect() -> u8 {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return MODE_SIMD;
        }
    }
    MODE_SCALAR
}

/// Whether the vectorized twins are active. First call resolves the mode
/// from `PS_FORCE_SCALAR` and the CPU-feature probe.
#[inline]
pub fn simd_active() -> bool {
    let m = MODE.load(Ordering::Relaxed);
    if m != 0 {
        return m == MODE_SIMD;
    }
    let forced = std::env::var("PS_FORCE_SCALAR")
        .map(|v| !v.is_empty() && v != "0")
        .unwrap_or(false);
    let mode = if forced { MODE_SCALAR } else { detect() };
    MODE.store(mode, Ordering::Relaxed);
    mode == MODE_SIMD
}

/// Whether the BMI2 bit-deposit path may be used: requires the
/// vectorized mode (so `PS_FORCE_SCALAR` pins the scalar twin here too)
/// plus a one-time BMI2 probe.
#[inline]
#[cfg(target_arch = "x86_64")]
fn bmi2_active() -> bool {
    // 0 = unprobed, 1 = present, 2 = absent.
    static BMI2: AtomicU8 = AtomicU8::new(0);
    match BMI2.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => {
            let has = std::arch::is_x86_feature_detected!("bmi2");
            BMI2.store(if has { 1 } else { 2 }, Ordering::Relaxed);
            has
        }
    }
}

/// Human-readable name of the active kernel set (for `--timing` logs).
pub fn active_kernels() -> &'static str {
    if simd_active() {
        "avx2"
    } else {
        "scalar"
    }
}

/// Index of the first occurrence of `needle` in `hay` (an equality scan
/// over `u64` keys — store-buffer line lookups, the Optane XPBuffer's
/// open-block search, the stream prefetcher's tracker table).
#[inline]
pub fn find_u64(hay: &[u64], needle: u64) -> Option<usize> {
    #[cfg(target_arch = "x86_64")]
    if hay.len() >= 4 && simd_active() {
        // SAFETY: `simd_active()` implies the AVX2 probe succeeded.
        return unsafe { find_u64_avx2(hay, needle) };
    }
    find_u64_scalar(hay, needle)
}

/// Whether `hay` contains `needle`.
#[inline]
pub fn contains_u64(hay: &[u64], needle: u64) -> bool {
    find_u64(hay, needle).is_some()
}

/// Position of the `k`-th set bit of `mask`, counting from bit 0 upward
/// (`k` is 0-based and must be below `mask.count_ones()`) — the random
/// victim draw over a candidate bitmask in NRU replacement.
#[inline]
pub fn kth_set_bit(mask: u64, k: u32) -> u32 {
    debug_assert!(k < mask.count_ones(), "k out of range for mask");
    #[cfg(target_arch = "x86_64")]
    if simd_active() && bmi2_active() {
        // SAFETY: `bmi2_active()` implies the BMI2 probe succeeded.
        return unsafe { kth_set_bit_bmi2(mask, k) };
    }
    kth_set_bit_scalar(mask, k)
}

#[inline]
fn kth_set_bit_scalar(mask: u64, k: u32) -> u32 {
    let mut m = mask;
    for _ in 0..k {
        m &= m - 1;
    }
    m.trailing_zeros()
}

/// BMI2 twin of [`kth_set_bit_scalar`]: deposit a single bit into the
/// `k`-th set position of `mask`, then locate it.
///
/// # Safety
///
/// Caller must ensure BMI2 is available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "bmi2")]
unsafe fn kth_set_bit_bmi2(mask: u64, k: u32) -> u32 {
    std::arch::x86_64::_pdep_u64(1u64 << k, mask).trailing_zeros()
}

#[inline]
fn find_u64_scalar(hay: &[u64], needle: u64) -> Option<usize> {
    hay.iter().position(|&v| v == needle)
}

/// AVX2 twin of [`find_u64_scalar`]: 4 lanes per compare.
///
/// # Safety
///
/// Caller must ensure AVX2 is available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn find_u64_avx2(hay: &[u64], needle: u64) -> Option<usize> {
    use std::arch::x86_64::*;
    let n = _mm256_set1_epi64x(needle as i64);
    let mut i = 0;
    while i + 4 <= hay.len() {
        let v = _mm256_loadu_si256(hay.as_ptr().add(i).cast());
        let eq = _mm256_cmpeq_epi64(v, n);
        let m = _mm256_movemask_pd(_mm256_castsi256_pd(eq)) as u32;
        if m != 0 {
            return Some(i + m.trailing_zeros() as usize);
        }
        i += 4;
    }
    hay[i..].iter().position(|&v| v == needle).map(|p| i + p)
}

/// Count the `[key, nonzero]` pairs in `pairs`: entries whose first lane
/// equals `key` and whose second lane is nonzero. This is the
/// epoch-validity sweep over the engine's flat line tables (`[epoch,
/// flags]` per line): how many lines carry live state this epoch.
#[inline]
pub fn count_live_pairs(pairs: &[[u32; 2]], key: u32) -> usize {
    #[cfg(target_arch = "x86_64")]
    if pairs.len() >= 4 && simd_active() {
        // SAFETY: `simd_active()` implies the AVX2 probe succeeded.
        return unsafe { count_live_pairs_avx2(pairs, key) };
    }
    count_live_pairs_scalar(pairs, key)
}

#[inline]
fn count_live_pairs_scalar(pairs: &[[u32; 2]], key: u32) -> usize {
    pairs.iter().filter(|p| p[0] == key && p[1] != 0).count()
}

/// AVX2 twin of [`count_live_pairs_scalar`]: 4 pairs per compare.
///
/// # Safety
///
/// Caller must ensure AVX2 is available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn count_live_pairs_avx2(pairs: &[[u32; 2]], key: u32) -> usize {
    use std::arch::x86_64::*;
    let k = _mm256_set1_epi32(key as i32);
    let zero = _mm256_setzero_si256();
    let mut n = 0usize;
    let mut i = 0;
    while i + 4 <= pairs.len() {
        let v = _mm256_loadu_si256(pairs.as_ptr().add(i).cast());
        // Per 32-bit lane: even lanes hold keys, odd lanes hold values.
        let keq = _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpeq_epi32(v, k))) as u32;
        let veq0 = _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpeq_epi32(v, zero))) as u32;
        // Pair p is live iff its key lane (bit 2p) matched and its value
        // lane (bit 2p+1) is nonzero.
        let live = keq & !(veq0 >> 1) & 0x55;
        n += live.count_ones() as usize;
        i += 4;
    }
    n + count_live_pairs_scalar(&pairs[i..], key)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Boundary-heavy lengths: empty, sub-vector, exact vectors, ragged.
    const LENS: [usize; 8] = [0, 1, 7, 31, 32, 33, 64, 257];

    #[test]
    fn find_u64_matches_position() {
        for len in LENS {
            let hay: Vec<u64> = (0..len as u64).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
            for needle in [0u64, 0x9E37_79B9, u64::MAX, (len as u64 / 2).wrapping_mul(0x9E37_79B9)]
            {
                assert_eq!(
                    find_u64(&hay, needle),
                    hay.iter().position(|&v| v == needle),
                    "len {len} needle {needle:#x}"
                );
                assert_eq!(contains_u64(&hay, needle), hay.contains(&needle));
            }
        }
    }

    #[test]
    fn kth_set_bit_matches_scalar_walk() {
        for mask in [1u64, 0b1010, 0xFF, 0xF0F0, u64::MAX, 1 << 63, 0x8000_0001] {
            for k in 0..mask.count_ones() {
                let want = kth_set_bit_scalar(mask, k);
                assert_eq!(kth_set_bit(mask, k), want, "mask {mask:#x} k {k}");
                assert_eq!(mask & (1 << want), 1 << want, "returned bit must be set");
            }
        }
    }

    #[test]
    fn count_live_pairs_matches_filter() {
        for len in LENS {
            let pairs: Vec<[u32; 2]> = (0..len as u32)
                .map(|i| [i % 3, if i % 5 == 0 { 0 } else { i }])
                .collect();
            for key in 0..4u32 {
                assert_eq!(
                    count_live_pairs(&pairs, key),
                    pairs.iter().filter(|p| p[0] == key && p[1] != 0).count(),
                    "len {len} key {key}"
                );
            }
        }
    }

    #[test]
    fn scalar_twins_match_active_kernels() {
        // Directly pit the scalar twins against whatever `simd_active()`
        // picked (on AVX2 hardware this is a real cross-implementation
        // check; elsewhere it is a self-check).
        let hay: Vec<u64> = (0..201u64).map(|i| i * 64).collect();
        for needle in [0, 64, 200 * 64, 13, u64::MAX] {
            assert_eq!(find_u64(&hay, needle), find_u64_scalar(&hay, needle));
        }
        let pairs: Vec<[u32; 2]> = (0..203u32).map(|i| [i & 7, i % 6]).collect();
        for key in 0..8 {
            assert_eq!(count_live_pairs(&pairs, key), count_live_pairs_scalar(&pairs, key));
        }
    }

    #[test]
    fn force_scalar_toggles_mode() {
        // Serialize against other tests touching the global mode.
        set_force_scalar(true);
        assert!(!simd_active());
        assert_eq!(active_kernels(), "scalar");
        let hay: Vec<u64> = (0..64u64).map(|i| i * 64).collect();
        let forced: Vec<_> = [0, 64 * 40, 7].map(|n| find_u64(&hay, n)).into();
        set_force_scalar(false);
        let auto: Vec<_> = [0, 64 * 40, 7].map(|n| find_u64(&hay, n)).into();
        assert_eq!(forced, auto, "both kernel sets find the same positions");
    }
}
