//! Deterministic pseudo-random number generation for the simulator.
//!
//! Every stochastic choice in the reproduction (cache random replacement,
//! workload key selection, YCSB distributions) flows from an explicitly
//! seeded [`SimRng`] so that runs are bit-for-bit reproducible. The
//! generator is SplitMix64: tiny state, excellent statistical quality for
//! simulation purposes, and no external dependency.

/// A seeded SplitMix64 generator.
///
/// # Examples
///
/// ```
/// let mut a = simcore::rng::SimRng::new(42);
/// let mut b = simcore::rng::SimRng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // deterministic
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    state: u64,
}

impl SimRng {
    /// Create a generator from `seed`.
    pub fn new(seed: u64) -> Self {
        Self { state: seed.wrapping_add(0x9E37_79B9_7F4A_7C15) }
    }

    /// Next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, n)`.
    ///
    /// Uses Lemire's multiply-shift reduction (slightly biased for huge
    /// `n`, irrelevant at simulation scales).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[inline]
    pub fn gen_range(&mut self, n: u64) -> u64 {
        assert!(n > 0, "gen_range upper bound must be positive");
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform float in `[0, 1)`.
    #[inline]
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial with probability `p`.
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// Fisher-Yates shuffle of `slice`.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.gen_range(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }

    /// Fork an independent generator (for per-thread streams).
    pub fn fork(&mut self) -> SimRng {
        SimRng::new(self.next_u64())
    }

    /// Derive the generator for stream `stream` of `seed`.
    ///
    /// Unlike [`SimRng::fork`], which depends on how many values were
    /// drawn before the fork, the result is a pure function of
    /// `(seed, stream)` — the closed-loop policy search uses this so a
    /// fixed `--seed` names the same random sequence regardless of how
    /// evaluation work is scheduled.
    ///
    /// # Examples
    ///
    /// ```
    /// use simcore::rng::SimRng;
    /// let mut a = SimRng::stream(42, 3);
    /// let mut b = SimRng::stream(42, 3);
    /// assert_eq!(a.next_u64(), b.next_u64());
    /// assert_ne!(SimRng::stream(42, 3).next_u64(), SimRng::stream(42, 4).next_u64());
    /// ```
    pub fn stream(seed: u64, stream: u64) -> SimRng {
        // Run seed and stream index each through a SplitMix64 step before
        // combining, so that nearby (seed, stream) pairs land on
        // decorrelated states.
        let a = SimRng::new(seed).next_u64();
        let b = SimRng::new(stream).next_u64();
        SimRng::new(a ^ b.rotate_left(32))
    }
}

/// Zipfian distribution over `[0, n)` with exponent `theta`, as used by
/// YCSB's request generator.
///
/// Uses the standard YCSB/Gray et al. rejection-free algorithm.
#[derive(Debug, Clone)]
pub struct Zipfian {
    n: u64,
    /// `uz` below this draws item 1: `1 + 0.5^theta`, computed once.
    one_cut: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    zeta2: f64,
}

impl Zipfian {
    /// Build a zipfian generator over `n` items (YCSB default theta 0.99).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "zipfian needs at least one item");
        let zetan = Self::zeta(n, theta);
        let zeta2 = Self::zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        let one_cut = 1.0 + 0.5f64.powf(theta);
        Self { n, one_cut, alpha, zetan, eta, zeta2 }
    }

    fn zeta(n: u64, theta: f64) -> f64 {
        // Exact sum for small n; Euler-Maclaurin style approximation above,
        // accurate to ~1e-6 for the item counts we simulate.
        if n <= 10_000 {
            (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
        } else {
            let head: f64 = (1..=10_000u64).map(|i| 1.0 / (i as f64).powf(theta)).sum();
            let a = 10_000f64;
            let b = n as f64;
            // Integral of x^-theta from a to b plus trapezoidal correction.
            head + ((b.powf(1.0 - theta) - a.powf(1.0 - theta)) / (1.0 - theta))
                + 0.5 * (1.0 / b.powf(theta) - 1.0 / a.powf(theta))
        }
    }

    /// Draw the next zipfian-distributed item index.
    pub fn sample(&self, rng: &mut SimRng) -> u64 {
        let u = rng.gen_f64();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < self.one_cut {
            return 1;
        }
        let idx = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        idx.min(self.n - 1)
    }

    /// The number of items.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Internal zeta(2) value (exposed for tests).
    #[doc(hidden)]
    pub fn zeta2(&self) -> f64 {
        self.zeta2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_streams() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SimRng::new(8);
        assert_ne!(SimRng::new(7).next_u64(), c.next_u64());
    }

    #[test]
    fn gen_range_in_bounds() {
        let mut r = SimRng::new(1);
        for n in [1u64, 2, 7, 1000, 1 << 40] {
            for _ in 0..200 {
                assert!(r.gen_range(n) < n);
            }
        }
    }

    #[test]
    fn gen_f64_in_unit_interval() {
        let mut r = SimRng::new(2);
        for _ in 0..1000 {
            let x = r.gen_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn gen_range_roughly_uniform() {
        let mut r = SimRng::new(3);
        let mut counts = [0usize; 10];
        for _ in 0..100_000 {
            counts[r.gen_range(10) as usize] += 1;
        }
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "count {c} not uniform");
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = SimRng::new(4);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, sorted, "shuffle of 100 elements left them sorted");
    }

    #[test]
    fn zipfian_skews_to_head() {
        let mut r = SimRng::new(5);
        let z = Zipfian::new(1000, 0.99);
        let mut head = 0usize;
        const DRAWS: usize = 50_000;
        for _ in 0..DRAWS {
            let x = z.sample(&mut r);
            assert!(x < 1000);
            if x < 10 {
                head += 1;
            }
        }
        // With theta=0.99 the top-1% of keys receive a large share.
        assert!(head as f64 / DRAWS as f64 > 0.3, "zipf head share {head}");
    }

    #[test]
    fn zipfian_large_n_zeta_approximation_sane() {
        // zeta(n, .99) must be monotone in n even across the exact/approx
        // boundary at n = 10_000.
        let below = Zipfian::new(9_999, 0.99).zetan;
        let at = Zipfian::new(10_000, 0.99).zetan;
        let above = Zipfian::new(10_001, 0.99).zetan;
        let big = Zipfian::new(1_000_000, 0.99).zetan;
        assert!(below < at && at < above && above < big);
        assert!((above - at) < 0.01);
    }

    #[test]
    fn fork_produces_distinct_streams() {
        let mut root = SimRng::new(9);
        let mut a = root.fork();
        let mut b = root.fork();
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn stream_is_a_pure_function_of_seed_and_index() {
        for seed in [0u64, 1, 42, u64::MAX] {
            for idx in [0u64, 1, 7, 1 << 40] {
                let mut a = SimRng::stream(seed, idx);
                let mut b = SimRng::stream(seed, idx);
                for _ in 0..32 {
                    assert_eq!(a.next_u64(), b.next_u64(), "seed {seed} stream {idx}");
                }
            }
        }
    }

    #[test]
    fn streams_are_pairwise_distinct() {
        let mut seen = std::collections::HashSet::new();
        for seed in 0..8u64 {
            for idx in 0..8u64 {
                assert!(
                    seen.insert(SimRng::stream(seed, idx).next_u64()),
                    "seed {seed} stream {idx} collided"
                );
            }
        }
    }
}
