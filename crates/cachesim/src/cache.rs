//! Set-associative, write-back, write-allocate cache model.

use crate::replacement::ReplacementKind;
use simcore::rng::SimRng;
use simcore::{align_down, Addr, LineId};

/// Static geometry of a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Line size in bytes (power of two).
    pub line_size: u64,
    /// Associativity.
    pub ways: usize,
    /// Number of sets (power of two).
    pub sets: usize,
    /// Replacement policy.
    pub replacement: ReplacementKind,
}

impl CacheConfig {
    /// Build a config from a total capacity in bytes.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not divide evenly or is not a power of
    /// two where required.
    pub fn from_capacity(
        capacity: u64,
        ways: usize,
        line_size: u64,
        replacement: ReplacementKind,
    ) -> Self {
        assert!(line_size.is_power_of_two(), "line size must be a power of two");
        let lines = capacity / line_size;
        assert_eq!(lines % ways as u64, 0, "capacity must divide into ways");
        let sets = (lines / ways as u64) as usize;
        assert!(sets.is_power_of_two(), "set count must be a power of two (got {sets})");
        Self { line_size, ways, sets, replacement }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.line_size * self.ways as u64 * self.sets as u64
    }
}

/// An evicted line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Victim {
    /// Line-aligned address of the evicted line.
    pub line: Addr,
    /// Whether the line was dirty (must be written back).
    pub dirty: bool,
    /// The dense id the line was filled with ([`Cache::access_id`] /
    /// [`Cache::insert_id`]; [`LineId::INVALID`] for the address-only
    /// operations).
    pub id: LineId,
}

/// Result of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Whether the line was already present.
    pub hit: bool,
    /// A line evicted to make room (misses in full sets only).
    pub victim: Option<Victim>,
}

/// Event counters of one cache instance.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Lines evicted (any state).
    pub evictions: u64,
    /// Dirty lines evicted (each becomes a device/next-level write).
    pub dirty_evictions: u64,
    /// Lines cleaned in place by `clean` pre-stores.
    pub cleans: u64,
}

impl CacheStats {
    /// Hit rate in `[0, 1]` (1.0 when there were no accesses).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One set's state, packed into a single record: which ways hold a line,
/// which of those are dirty, and the set's replacement word (see
/// [`ReplacementKind::touch`]). 24 bytes, so a probe touches one record
/// plus the set's tag block.
#[derive(Debug, Clone, Copy, Default)]
struct SetState {
    /// Bit `w`: way `w` holds a line.
    valid: u64,
    /// Bit `w`: way `w` holds a dirty line (a subset of `valid`).
    dirty: u64,
    /// Packed replacement state.
    repl: u64,
}

/// A set-associative, write-back, write-allocate cache.
///
/// Addresses are tracked at line granularity only; the cache stores no
/// data, just tags and dirty bits — the simulation is about *movement*, not
/// contents.
///
/// # Examples
///
/// ```
/// use cachesim::{Cache, CacheConfig, ReplacementKind};
///
/// let cfg = CacheConfig::from_capacity(4096, 4, 64, ReplacementKind::Lru);
/// let mut c = Cache::new(cfg, 1);
/// assert!(!c.access(0, true).hit);   // cold miss, allocated dirty
/// assert!(c.access(0, false).hit);   // now resident
/// assert!(c.is_dirty(0));
/// assert!(c.clean_line(0));          // writeback, stays resident
/// assert!(!c.is_dirty(0));
/// assert!(c.access(0, false).hit);
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    /// Per slot (`set * ways + way`): the resident line's address with bit
    /// 0 set, or 0 for an empty way. Line addresses are aligned to at
    /// least 2 bytes, so a probe key `line | 1` never matches an empty way
    /// and residency is one scan over the set's contiguous tags.
    tags: Vec<Addr>,
    /// Per slot: the dense id the resident line was filled with, reported
    /// back on its eviction. Meaningful only while the way is valid.
    ids: Vec<u32>,
    /// Per set: valid and dirty masks plus replacement state.
    sets: Vec<SetState>,
    /// Per slot LRU stamps (true-LRU caches only; empty otherwise).
    stamps: Vec<u32>,
    /// `log2(line_size)`, precomputed so the set-index path shifts instead
    /// of dividing.
    line_shift: u32,
    /// Mask of the `ways` low bits: the ways a set can fill.
    all_ways: u64,
    rng: SimRng,
    stats: CacheStats,
}

impl Cache {
    /// Create an empty cache with the given geometry and RNG seed (the seed
    /// drives random replacement decisions).
    ///
    /// # Panics
    ///
    /// Panics if the line size is not a power of two of at least 2 bytes,
    /// the set count is not a power of two, the associativity is not in
    /// `1..=64`, or the replacement policy rejects it (tree-PLRU needs a
    /// power of two).
    pub fn new(cfg: CacheConfig, seed: u64) -> Self {
        assert!(
            cfg.line_size.is_power_of_two() && cfg.line_size >= 2,
            "line size must be a power of two of at least 2 bytes"
        );
        assert!(cfg.sets.is_power_of_two(), "set count must be a power of two");
        assert!((1..=64).contains(&cfg.ways), "associativity must be 1..=64 ways");
        cfg.replacement.check_ways(cfg.ways);
        let n = cfg.sets * cfg.ways;
        Self {
            line_shift: cfg.line_size.trailing_zeros(),
            all_ways: u64::MAX >> (64 - cfg.ways),
            tags: vec![0; n],
            ids: vec![0; n],
            sets: vec![SetState::default(); cfg.sets],
            stamps: if cfg.replacement == ReplacementKind::Lru { vec![0; n] } else { Vec::new() },
            cfg,
            rng: SimRng::new(seed),
            stats: CacheStats::default(),
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Event counters so far.
    #[inline]
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Reset the event counters (contents are preserved).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Align `addr` to this cache's line size.
    #[inline]
    pub fn line_of(&self, addr: Addr) -> Addr {
        align_down(addr, self.cfg.line_size)
    }

    #[inline]
    fn set_of(&self, line: Addr) -> usize {
        ((line >> self.line_shift) as usize) & (self.cfg.sets - 1)
    }

    /// The `(set, way)` holding the line-aligned `line`, if resident: an
    /// inlined scan of the set's tags against the keyed probe `line | 1`
    /// (8 or 16 compares on every shipped geometry).
    #[inline]
    fn find(&self, line: Addr) -> Option<(usize, usize)> {
        debug_assert_eq!(line, self.line_of(line));
        let set = self.set_of(line);
        let ways = self.cfg.ways;
        let key = line | 1;
        self.tags[set * ways..(set + 1) * ways]
            .iter()
            .position(|&t| t == key)
            .map(|way| (set, way))
    }

    /// Record a hit or fill of `way` with the replacement policy.
    #[inline]
    fn touch(&mut self, set: usize, way: usize) {
        let ways = self.cfg.ways;
        let repl = &mut self.sets[set].repl;
        self.cfg.replacement.touch(repl, &mut self.stamps, set * ways, way, ways);
    }

    /// Whether `line` (line-aligned) is resident.
    #[inline]
    pub fn probe(&self, line: Addr) -> bool {
        self.find(self.line_of(line)).is_some()
    }

    /// Whether `line` is resident and dirty.
    pub fn is_dirty(&self, line: Addr) -> bool {
        self.find(self.line_of(line)).is_some_and(|(set, way)| self.sets[set].dirty >> way & 1 != 0)
    }

    /// Access the line containing `addr`, allocating on miss.
    ///
    /// `write` marks the line dirty. Returns whether it hit and any victim
    /// evicted to make room.
    #[inline]
    pub fn access(&mut self, addr: Addr, write: bool) -> AccessOutcome {
        let line = self.line_of(addr);
        self.access_id(line, LineId::INVALID, write)
    }

    /// [`Cache::access`] with a pre-aligned line and the dense id to record
    /// for it (reported back in its [`Victim`]).
    #[inline]
    pub fn access_id(&mut self, line: Addr, id: LineId, write: bool) -> AccessOutcome {
        if let Some((set, way)) = self.find(line) {
            self.stats.hits += 1;
            self.sets[set].dirty |= u64::from(write) << way;
            self.touch(set, way);
            return AccessOutcome { hit: true, victim: None };
        }
        self.stats.misses += 1;
        let victim = self.fill(line, id, write);
        AccessOutcome { hit: false, victim }
    }

    /// Fused probe-then-read of the pre-aligned `line`: on a hit, count it
    /// and touch the replacement state, exactly like `probe(line)` followed
    /// by `access(line, false)`; on a miss, mutate *nothing* (no miss is
    /// counted, no fill happens) and return `false` so the caller can take
    /// its miss path.
    #[inline]
    pub fn hit_read(&mut self, line: Addr) -> bool {
        match self.find(line) {
            Some((set, way)) => {
                self.stats.hits += 1;
                self.touch(set, way);
                true
            }
            None => false,
        }
    }

    /// Fused probe-then-write: like [`Cache::hit_read`] but also sets the
    /// dirty bit on a hit.
    #[inline]
    pub fn hit_write(&mut self, line: Addr) -> bool {
        match self.find(line) {
            Some((set, way)) => {
                self.stats.hits += 1;
                self.sets[set].dirty |= 1 << way;
                self.touch(set, way);
                true
            }
            None => false,
        }
    }

    /// Insert `line` (line-aligned) with the given dirty state, bypassing
    /// hit/miss accounting. Used when a lower level pushes a line up (e.g.
    /// an L1 dirty eviction allocating into the LLC).
    ///
    /// Returns any evicted victim. If the line is already resident, its
    /// dirty bit is OR-ed.
    pub fn insert(&mut self, line: Addr, dirty: bool) -> Option<Victim> {
        let line = self.line_of(line);
        self.insert_id(line, LineId::INVALID, dirty)
    }

    /// [`Cache::insert`] with a pre-aligned line and the dense id to record
    /// for it.
    #[inline]
    pub fn insert_id(&mut self, line: Addr, id: LineId, dirty: bool) -> Option<Victim> {
        if let Some((set, way)) = self.find(line) {
            self.sets[set].dirty |= u64::from(dirty) << way;
            self.touch(set, way);
            return None;
        }
        self.fill(line, id, dirty)
    }

    /// Allocate the absent `line` into its set — the lowest free way, else
    /// the replacement policy's victim — and return the victim, if any.
    fn fill(&mut self, line: Addr, id: LineId, dirty: bool) -> Option<Victim> {
        let set = self.set_of(line);
        let ways = self.cfg.ways;
        let free = !self.sets[set].valid & self.all_ways;
        let (way, victim) = if free != 0 {
            (free.trailing_zeros() as usize, None)
        } else {
            let repl = &mut self.sets[set].repl;
            let w =
                self.cfg.replacement.victim(repl, &self.stamps, set * ways, ways, &mut self.rng);
            let s = set * ways + w;
            let v = Victim {
                line: self.tags[s] & !1,
                dirty: self.sets[set].dirty >> w & 1 != 0,
                id: LineId(self.ids[s]),
            };
            self.stats.evictions += 1;
            if v.dirty {
                self.stats.dirty_evictions += 1;
            }
            (w, Some(v))
        };
        let s = set * ways + way;
        self.tags[s] = line | 1;
        self.ids[s] = id.0;
        let bit = 1u64 << way;
        let st = &mut self.sets[set];
        st.valid |= bit;
        st.dirty = (st.dirty & !bit) | (u64::from(dirty) << way);
        self.touch(set, way);
        victim
    }

    /// Clean the line containing `addr` in place (a `clean` pre-store /
    /// `clwb`): clears the dirty bit but keeps the line resident.
    ///
    /// Returns `true` when the line was resident and dirty (i.e. a
    /// writeback is actually produced).
    #[inline]
    pub fn clean_line(&mut self, addr: Addr) -> bool {
        let line = self.line_of(addr);
        // A set without dirty ways cannot produce a writeback: answer from
        // its record without loading the tags (the common case for an LLC
        // whose dirty data leaves through L1 evictions and cleans).
        if self.sets[self.set_of(line)].dirty == 0 {
            return false;
        }
        let Some((set, way)) = self.find(line) else {
            return false;
        };
        let bit = 1u64 << way;
        let st = &mut self.sets[set];
        if st.dirty & bit == 0 {
            return false;
        }
        st.dirty &= !bit;
        self.stats.cleans += 1;
        true
    }

    /// Remove the line containing `addr`, returning its dirty state if it
    /// was resident.
    #[inline]
    pub fn invalidate(&mut self, addr: Addr) -> Option<bool> {
        let (set, way) = self.find(self.line_of(addr))?;
        let bit = 1u64 << way;
        let st = &mut self.sets[set];
        let was_dirty = st.dirty & bit != 0;
        st.valid &= !bit;
        st.dirty &= !bit;
        self.tags[set * self.cfg.ways + way] = 0;
        Some(was_dirty)
    }

    /// Evict everything, returning all resident lines in set order.
    pub fn flush_all(&mut self) -> Vec<Victim> {
        let mut out = Vec::new();
        self.flush_all_into(&mut out);
        out
    }

    /// [`Cache::flush_all`] into a caller-provided buffer (appended, not
    /// cleared), so a replay loop can reuse one allocation across flushes.
    ///
    /// Victims are appended in ascending slot order — i.e. sorted by set
    /// index, ways in order within a set — which is what makes whole-cache
    /// flushes deterministic and their downstream device writes
    /// byte-reproducible across runs.
    pub fn flush_all_into(&mut self, out: &mut Vec<Victim>) {
        let ways = self.cfg.ways;
        for (set, st) in self.sets.iter_mut().enumerate() {
            let mut m = st.valid;
            while m != 0 {
                let way = m.trailing_zeros() as usize;
                m &= m - 1;
                let s = set * ways + way;
                out.push(Victim {
                    line: self.tags[s] & !1,
                    dirty: st.dirty >> way & 1 != 0,
                    id: LineId(self.ids[s]),
                });
                self.tags[s] = 0;
            }
            st.valid = 0;
            st.dirty = 0;
        }
    }

    /// Iterate over resident dirty lines in ascending slot order
    /// (diagnostics / end-of-run flush accounting).
    pub fn dirty_lines(&self) -> impl Iterator<Item = Addr> + '_ {
        let ways = self.cfg.ways;
        self.sets.iter().enumerate().flat_map(move |(set, st)| {
            let mut m = st.valid & st.dirty;
            std::iter::from_fn(move || {
                (m != 0).then(|| {
                    let way = m.trailing_zeros() as usize;
                    m &= m - 1;
                    self.tags[set * ways + way] & !1
                })
            })
        })
    }

    /// Append all resident dirty lines to `out` in ascending slot order
    /// (set-major), the same deterministic order as
    /// [`Cache::flush_all_into`].
    pub fn dirty_lines_into(&self, out: &mut Vec<Addr>) {
        out.extend(self.dirty_lines());
    }

    /// Number of resident lines.
    pub fn resident(&self) -> usize {
        self.sets.iter().map(|s| s.valid.count_ones() as usize).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(replacement: ReplacementKind) -> Cache {
        // 4 sets x 2 ways x 64B lines = 512B.
        Cache::new(CacheConfig::from_capacity(512, 2, 64, replacement), 42)
    }

    #[test]
    fn config_geometry() {
        let cfg = CacheConfig::from_capacity(32 * 1024, 8, 64, ReplacementKind::Lru);
        assert_eq!(cfg.sets, 64);
        assert_eq!(cfg.capacity(), 32 * 1024);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn config_rejects_bad_sets() {
        let _ = CacheConfig::from_capacity(3 * 64 * 2, 2, 64, ReplacementKind::Lru);
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = small(ReplacementKind::Lru);
        let out = c.access(100, false);
        assert!(!out.hit);
        assert!(out.victim.is_none());
        assert!(c.access(100, false).hit);
        assert!(c.access(64, false).hit, "same line as 100");
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn write_marks_dirty_eviction_reports_it() {
        let mut c = small(ReplacementKind::Lru);
        // Set 0 holds lines 0 and 1024 (4 sets * 64 stride = 256... line/64 % 4).
        c.access(0, true);
        c.access(256, true); // also set 0
        let out = c.access(512, false); // evicts LRU (line 0)
        assert!(!out.hit);
        let v = out.victim.expect("a full set must evict on fill");
        assert_eq!(v.line, 0);
        assert!(v.dirty);
        assert_eq!(c.stats().dirty_evictions, 1);
    }

    #[test]
    fn clean_keeps_resident() {
        let mut c = small(ReplacementKind::Lru);
        c.access(0, true);
        assert!(c.is_dirty(0));
        assert!(c.clean_line(0));
        assert!(!c.is_dirty(0));
        assert!(c.probe(0));
        // Cleaning again produces no writeback.
        assert!(!c.clean_line(0));
        // Cleaning an absent line produces nothing.
        assert!(!c.clean_line(4096));
        assert_eq!(c.stats().cleans, 1);
    }

    #[test]
    fn clean_evictions_are_not_dirty() {
        let mut c = small(ReplacementKind::Lru);
        c.access(0, true);
        c.clean_line(0);
        c.access(256, false);
        let out = c.access(512, false);
        let v = out.victim.expect("a full set must evict on fill");
        assert_eq!(v.line, 0);
        assert!(!v.dirty, "cleaned line must not be written back again");
    }

    #[test]
    fn invalidate_removes() {
        let mut c = small(ReplacementKind::Lru);
        c.access(0, true);
        assert_eq!(c.invalidate(0), Some(true));
        assert!(!c.probe(0));
        assert_eq!(c.invalidate(0), None);
    }

    #[test]
    fn insert_merges_dirty() {
        let mut c = small(ReplacementKind::Lru);
        c.access(0, false);
        assert!(!c.is_dirty(0));
        assert!(c.insert(0, true).is_none());
        assert!(c.is_dirty(0));
        // Inserting dirty=false must not clean an already-dirty line.
        assert!(c.insert(0, false).is_none());
        assert!(c.is_dirty(0));
    }

    #[test]
    fn flush_all_returns_everything() {
        let mut c = small(ReplacementKind::Lru);
        c.access(0, true);
        c.access(64, false);
        let flushed = c.flush_all();
        assert_eq!(flushed.len(), 2);
        assert_eq!(c.resident(), 0);
        assert_eq!(flushed.iter().filter(|v| v.dirty).count(), 1);
    }

    #[test]
    fn dirty_lines_iterator() {
        let mut c = small(ReplacementKind::Lru);
        c.access(0, true);
        c.access(64, false);
        c.access(128, true);
        let mut d: Vec<_> = c.dirty_lines().collect();
        d.sort_unstable();
        assert_eq!(d, vec![0, 128]);
    }

    #[test]
    fn lru_cache_preserves_sequential_eviction_order() {
        // With true LRU and a single sequential writer, evictions come out
        // in write order — the idealised behaviour §4.1 contrasts against.
        let mut c = Cache::new(
            CacheConfig::from_capacity(1024, 2, 64, ReplacementKind::Lru),
            1,
        );
        let mut evicted = Vec::new();
        for i in 0..64u64 {
            if let Some(v) = c.access(i * 64, true).victim {
                evicted.push(v.line);
            }
        }
        let mut sorted = evicted.clone();
        sorted.sort_unstable();
        assert_eq!(evicted, sorted, "LRU evictions of a sequential stream are sequential");
    }

    #[test]
    fn random_cache_scrambles_eviction_order() {
        // The same stream under random replacement comes out non-sequential:
        // this is the §4.1 effect that causes write amplification.
        let mut c = Cache::new(
            CacheConfig::from_capacity(1024, 8, 64, ReplacementKind::Random),
            7,
        );
        let mut evicted = Vec::new();
        for i in 0..256u64 {
            if let Some(v) = c.access(i * 64, true).victim {
                evicted.push(v.line);
            }
        }
        let sorted = {
            let mut s = evicted.clone();
            s.sort_unstable();
            s
        };
        assert_ne!(evicted, sorted, "random replacement must scramble evictions");
    }

    #[test]
    fn capacity_bounded() {
        let mut c = small(ReplacementKind::TreePlru);
        for i in 0..1000u64 {
            c.access(i * 64, true);
        }
        assert!(c.resident() <= 8);
    }

    #[test]
    fn fused_hit_ops_match_probe_then_access() {
        let mut c = small(ReplacementKind::Lru);
        // A fused miss mutates nothing — no miss counted, no fill.
        assert!(!c.hit_read(0));
        assert!(!c.hit_write(0));
        assert_eq!(c.stats().misses, 0);
        assert!(!c.probe(0));
        c.access(0, false);
        assert!(c.hit_read(0));
        assert!(!c.is_dirty(0));
        assert!(c.hit_write(0));
        assert!(c.is_dirty(0));
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn victims_carry_their_fill_ids() {
        // Same access sequence with and without ids (same seed): outcomes,
        // stats and flush order are identical, and every victim reports
        // the id its line was filled with.
        let cfg = CacheConfig::from_capacity(1024, 2, 64, ReplacementKind::NruRandom);
        let mut plain = Cache::new(cfg, 9);
        let mut with_ids = Cache::new(cfg, 9);
        let id_of = |line: Addr| LineId((line / 64) as u32 * 3 + 1);
        for i in 0..500u64 {
            let (line, write) = ((i.wrapping_mul(7) % 64) * 64, i % 3 == 0);
            let a = plain.access(line, write);
            let b = with_ids.access_id(line, id_of(line), write);
            assert_eq!(a.hit, b.hit);
            assert_eq!(
                a.victim.map(|v| (v.line, v.dirty)),
                b.victim.map(|v| (v.line, v.dirty))
            );
            if let Some(v) = a.victim {
                assert_eq!(v.id, LineId::INVALID, "address-only fills carry no id");
            }
            if let Some(v) = b.victim {
                assert_eq!(v.id, id_of(v.line), "victim carries its fill id");
            }
        }
        assert_eq!(plain.stats(), with_ids.stats());
        let pf: Vec<_> = plain.flush_all().iter().map(|v| (v.line, v.dirty)).collect();
        let mut buf = Vec::new();
        with_ids.flush_all_into(&mut buf);
        assert!(buf.iter().all(|v| v.id == id_of(v.line)));
        let inf: Vec<_> = buf.iter().map(|v| (v.line, v.dirty)).collect();
        assert_eq!(pf, inf, "flush order is slot order on both paths");
        assert_eq!(with_ids.resident(), 0);
    }

    #[test]
    fn empty_ways_never_match_line_zero() {
        // A fresh cache's tags are all zero; line 0 must still miss, and
        // an invalidated way must not keep answering for its old line.
        let mut c = small(ReplacementKind::TreePlru);
        assert!(!c.probe(0));
        assert!(!c.access(0, true).hit);
        assert_eq!(c.invalidate(0), Some(true));
        assert!(!c.probe(0));
        assert!(!c.hit_read(0));
        assert_eq!(c.resident(), 0);
    }

    #[test]
    fn all_policies_work_in_cache() {
        for kind in [
            ReplacementKind::Lru,
            ReplacementKind::TreePlru,
            ReplacementKind::Fifo,
            ReplacementKind::Random,
            ReplacementKind::NruRandom,
        ] {
            let mut c = Cache::new(CacheConfig::from_capacity(4096, 4, 64, kind), 3);
            let mut writebacks = 0;
            for i in 0..512u64 {
                if let Some(v) = c.access(i * 64, true).victim {
                    if v.dirty {
                        writebacks += 1;
                    }
                }
            }
            // Every line is written once and the cache holds 64 lines:
            // at least 512-64 dirty evictions must have happened.
            assert_eq!(writebacks, 512 - 64, "{kind:?}");
        }
    }
}
