//! Cache replacement policies.
//!
//! §4.1 of the paper: "Replacement in a bin is often modeled by simple LRU
//! policy, but modern caches rely on much more complex strategies. For
//! instance, Intel CPUs rely on a pseudo-LRU and 'random' evictions [...]
//! ARM CPUs implement a mix of LRU, FIFO, and random evictions."
//!
//! The policy choice is what makes evictions of sequentially-written data
//! non-sequential, which in turn causes write amplification on
//! large-granularity memories. True-LRU largely preserves write order in
//! the single-threaded case; tree-PLRU and random do not.

use simcore::rng::SimRng;

/// Which replacement policy a cache uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReplacementKind {
    /// True least-recently-used (an idealisation; preserves write order).
    Lru,
    /// Tree pseudo-LRU, as in Intel L1/L2 caches.
    TreePlru,
    /// Insertion-order FIFO, one of the modes of ARM's L2 controllers.
    Fifo,
    /// Uniform random victim selection, as in ARM's random mode and as an
    /// approximation of Intel LLC adaptive policies.
    Random,
    /// Not-recently-used with random tie-breaking: an approximation of the
    /// quad-age/SRRIP-style policies of modern Intel LLCs.
    NruRandom,
}

impl ReplacementKind {
    /// Panic unless a set of `ways` ways can use this policy.
    pub(crate) fn check_ways(self, ways: usize) {
        if self == ReplacementKind::TreePlru {
            assert!(ways.is_power_of_two(), "tree-PLRU requires power-of-two ways");
        }
    }

    /// Record a hit (or a fill) on `way` of a set of `ways` ways.
    ///
    /// `repl` is the set's packed replacement word: the LRU clock, the
    /// tree-PLRU node bits, the FIFO next-victim pointer, or the NRU
    /// reference bits (unused by random replacement). True LRU also keeps
    /// one stamp per way: the set's stamps are `stamps[base..base + ways]`
    /// (every other policy passes an empty slice and never indexes it).
    #[inline]
    pub(crate) fn touch(
        self,
        repl: &mut u64,
        stamps: &mut [u32],
        base: usize,
        way: usize,
        ways: usize,
    ) {
        match self {
            ReplacementKind::Lru => {
                let clock = (*repl as u32).wrapping_add(1);
                *repl = u64::from(clock);
                stamps[base + way] = clock;
            }
            ReplacementKind::TreePlru => {
                // Walk from the root, flipping each node to point away
                // from the accessed way. Branch-free: with the asserted
                // power-of-two geometry, each level's direction is simply
                // the next bit of `way` (1 = right half), so the halving
                // midpoint comparison of the textbook walk reduces to bit
                // arithmetic without an unpredictable branch per level.
                let levels = ways.trailing_zeros();
                let mut node = 0usize;
                for k in 0..levels {
                    let right = (way >> (levels - 1 - k)) & 1;
                    let bit = 1u64 << node;
                    // Went left: point the node right (set). Went right:
                    // point it left (clear).
                    *repl = (*repl | (bit * (1 - right as u64))) & !(bit * right as u64);
                    node = 2 * node + 1 + right;
                }
            }
            ReplacementKind::Fifo | ReplacementKind::Random => {}
            ReplacementKind::NruRandom => {
                *repl |= 1 << way;
                // All ways referenced: age everyone except the newcomer.
                if *repl == u64::MAX >> (64 - ways) {
                    *repl = 1 << way;
                }
            }
        }
    }

    /// Choose a victim way among `ways` (all assumed valid), with the same
    /// `repl` / `stamps` / `base` state as [`ReplacementKind::touch`].
    #[inline]
    pub(crate) fn victim(
        self,
        repl: &mut u64,
        stamps: &[u32],
        base: usize,
        ways: usize,
        rng: &mut SimRng,
    ) -> usize {
        match self {
            ReplacementKind::Lru => stamps[base..base + ways]
                .iter()
                .enumerate()
                .min_by_key(|(_, &s)| s)
                .map(|(i, _)| i)
                .unwrap_or(0),
            ReplacementKind::TreePlru => {
                // Follow the PLRU bits: 1 means "go right", 0 "go left".
                // Branch-free twin of the `touch` walk: accumulate the
                // direction bits straight into the way number.
                let levels = ways.trailing_zeros();
                let mut node = 0usize;
                let mut way = 0usize;
                for _ in 0..levels {
                    let right = ((*repl >> node) & 1) as usize;
                    way = 2 * way + right;
                    node = 2 * node + 1 + right;
                }
                way
            }
            ReplacementKind::Fifo => {
                let next = *repl as usize;
                *repl = ((next + 1) % ways) as u64;
                next % ways
            }
            ReplacementKind::Random => rng.gen_range(ways as u64) as usize,
            ReplacementKind::NruRandom => {
                // The clear bits of `repl` below `ways` are the
                // candidates; draw the k-th one straight from the mask —
                // same selection (ascending bit order) and same single RNG
                // draw as materializing the candidate list, without the
                // per-eviction allocation.
                let mask = !*repl & (u64::MAX >> (64 - ways));
                if mask == 0 {
                    rng.gen_range(ways as u64) as usize
                } else {
                    let k = rng.gen_range(u64::from(mask.count_ones())) as u32;
                    simcore::simd::kth_set_bit(mask, k) as usize
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::new(0xDEAD_BEEF)
    }

    /// One set's replacement state, as a cache keeps it.
    struct TestSet {
        kind: ReplacementKind,
        repl: u64,
        stamps: Vec<u32>,
    }

    impl TestSet {
        fn new(kind: ReplacementKind, ways: usize) -> Self {
            kind.check_ways(ways);
            let stamps = if kind == ReplacementKind::Lru { vec![0; ways] } else { Vec::new() };
            Self { kind, repl: 0, stamps }
        }

        fn on_access(&mut self, way: usize, ways: usize) {
            self.kind.touch(&mut self.repl, &mut self.stamps, 0, way, ways);
        }

        fn victim(&mut self, ways: usize, rng: &mut SimRng) -> usize {
            self.kind.victim(&mut self.repl, &self.stamps, 0, ways, rng)
        }
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut p = TestSet::new(ReplacementKind::Lru, 4);
        for w in 0..4 {
            p.on_access(w, 4);
        }
        p.on_access(0, 4); // 1 is now the oldest
        assert_eq!(p.victim(4, &mut rng()), 1);
    }

    #[test]
    fn tree_plru_never_evicts_most_recent() {
        let mut p = TestSet::new(ReplacementKind::TreePlru, 8);
        let mut r = rng();
        for round in 0..100u64 {
            let way = (round % 8) as usize;
            p.on_access(way, 8);
            let v = p.victim(8, &mut r);
            assert_ne!(v, way, "PLRU evicted the just-touched way");
        }
    }

    #[test]
    fn tree_plru_differs_from_lru_order() {
        // Touch ways 0..8 in order; true LRU would evict 0, tree-PLRU may
        // not — this "imperfection" is the §4.1 behaviour we rely on.
        let mut plru = TestSet::new(ReplacementKind::TreePlru, 8);
        for w in 0..8 {
            plru.on_access(w, 8);
        }
        let v = plru.victim(8, &mut rng());
        assert!(v < 8);
        assert_ne!(v, 7);
    }

    #[test]
    fn fifo_cycles_through_ways() {
        let mut p = TestSet::new(ReplacementKind::Fifo, 4);
        let mut r = rng();
        let seq: Vec<usize> = (0..8).map(|_| p.victim(4, &mut r)).collect();
        assert_eq!(seq, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn random_covers_all_ways() {
        let mut p = TestSet::new(ReplacementKind::Random, 4);
        let mut r = rng();
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[p.victim(4, &mut r)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn nru_prefers_unreferenced() {
        let mut p = TestSet::new(ReplacementKind::NruRandom, 4);
        let mut r = rng();
        p.on_access(0, 4);
        p.on_access(1, 4);
        p.on_access(2, 4);
        for _ in 0..50 {
            assert_eq!(p.victim(4, &mut r), 3);
        }
    }

    #[test]
    fn nru_reset_when_saturated() {
        let mut p = TestSet::new(ReplacementKind::NruRandom, 2);
        p.on_access(0, 2);
        p.on_access(1, 2); // saturates, resets to only way 1 referenced
        let mut r = rng();
        assert_eq!(p.victim(2, &mut r), 0);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn plru_rejects_non_power_of_two() {
        let _ = TestSet::new(ReplacementKind::TreePlru, 6);
    }

    #[test]
    fn victims_in_range_for_all_policies() {
        let mut r = rng();
        for kind in [
            ReplacementKind::Lru,
            ReplacementKind::TreePlru,
            ReplacementKind::Fifo,
            ReplacementKind::Random,
            ReplacementKind::NruRandom,
        ] {
            let mut p = TestSet::new(kind, 8);
            for i in 0..100u64 {
                p.on_access((i % 8) as usize, 8);
                let v = p.victim(8, &mut r);
                assert!(v < 8, "{kind:?} produced out-of-range victim {v}");
            }
        }
    }
}
