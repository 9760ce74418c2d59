//! Differential test of the packed `Cache` (one valid/dirty/replacement
//! record per set, keyed tags) against a naive per-set model: one record
//! per way, textbook replacement walks, candidate lists materialized.
//! Every operation must agree on hits, victims and their ids, dirty bits
//! and counters, for all five replacement policies, and the
//! `dirty_lines_into` / `flush_all_into` sweeps must list the same lines
//! in the same order.

use cachesim::{Cache, CacheConfig, CacheStats, ReplacementKind, Victim};
use proptest::prelude::*;
use simcore::rng::SimRng;
use simcore::LineId;

#[derive(Debug, Clone, Copy, Default)]
struct Way {
    line: u64,
    id: u32,
    valid: bool,
    dirty: bool,
}

enum Policy {
    Lru {
        stamps: Vec<u32>,
        clock: u32,
    },
    /// One node per inner vertex of the tree; `true` points right.
    TreePlru {
        nodes: Vec<bool>,
    },
    Fifo {
        next: usize,
    },
    Random,
    Nru {
        referenced: Vec<bool>,
    },
}

impl Policy {
    fn new(kind: ReplacementKind, ways: usize) -> Self {
        match kind {
            ReplacementKind::Lru => Policy::Lru { stamps: vec![0; ways], clock: 0 },
            ReplacementKind::TreePlru => Policy::TreePlru { nodes: vec![false; ways - 1] },
            ReplacementKind::Fifo => Policy::Fifo { next: 0 },
            ReplacementKind::Random => Policy::Random,
            ReplacementKind::NruRandom => Policy::Nru { referenced: vec![false; ways] },
        }
    }

    fn touch(&mut self, way: usize, ways: usize) {
        match self {
            Policy::Lru { stamps, clock } => {
                *clock = clock.wrapping_add(1);
                stamps[way] = *clock;
            }
            Policy::TreePlru { nodes } => {
                // Halve the way range from the root, pointing every node
                // on the path away from the accessed half.
                let (mut lo, mut hi, mut node) = (0, ways, 0);
                while hi - lo > 1 {
                    let mid = (lo + hi) / 2;
                    if way < mid {
                        nodes[node] = true;
                        node = 2 * node + 1;
                        hi = mid;
                    } else {
                        nodes[node] = false;
                        node = 2 * node + 2;
                        lo = mid;
                    }
                }
            }
            Policy::Fifo { .. } | Policy::Random => {}
            Policy::Nru { referenced } => {
                referenced[way] = true;
                if referenced.iter().all(|&r| r) {
                    referenced.iter_mut().for_each(|r| *r = false);
                    referenced[way] = true;
                }
            }
        }
    }

    fn victim(&mut self, ways: usize, rng: &mut SimRng) -> usize {
        match self {
            Policy::Lru { stamps, .. } => {
                let oldest = *stamps.iter().min().expect("ways > 0");
                stamps.iter().position(|&s| s == oldest).expect("minimum exists")
            }
            Policy::TreePlru { nodes } => {
                let (mut lo, mut hi, mut node) = (0, ways, 0);
                while hi - lo > 1 {
                    let mid = (lo + hi) / 2;
                    if nodes[node] {
                        node = 2 * node + 2;
                        lo = mid;
                    } else {
                        node = 2 * node + 1;
                        hi = mid;
                    }
                }
                lo
            }
            Policy::Fifo { next } => {
                let v = *next;
                *next = (*next + 1) % ways;
                v
            }
            Policy::Random => rng.gen_range(ways as u64) as usize,
            Policy::Nru { referenced } => {
                let candidates: Vec<usize> = (0..ways).filter(|&w| !referenced[w]).collect();
                if candidates.is_empty() {
                    rng.gen_range(ways as u64) as usize
                } else {
                    candidates[rng.gen_range(candidates.len() as u64) as usize]
                }
            }
        }
    }
}

/// The naive model, structured the way a textbook describes a cache.
struct NaiveCache {
    cfg: CacheConfig,
    sets: Vec<Vec<Way>>,
    policies: Vec<Policy>,
    rng: SimRng,
    stats: CacheStats,
}

impl NaiveCache {
    fn new(cfg: CacheConfig, seed: u64) -> Self {
        Self {
            cfg,
            sets: vec![vec![Way::default(); cfg.ways]; cfg.sets],
            policies: (0..cfg.sets).map(|_| Policy::new(cfg.replacement, cfg.ways)).collect(),
            rng: SimRng::new(seed),
            stats: CacheStats::default(),
        }
    }

    fn locate(&self, addr: u64) -> (u64, usize, Option<usize>) {
        let line = addr & !(self.cfg.line_size - 1);
        let set = (line / self.cfg.line_size) as usize % self.cfg.sets;
        let way = self.sets[set].iter().position(|w| w.valid && w.line == line);
        (line, set, way)
    }

    fn fill(&mut self, line: u64, set: usize, id: LineId, dirty: bool) -> Option<Victim> {
        let ways = self.cfg.ways;
        let (way, victim) = match self.sets[set].iter().position(|w| !w.valid) {
            Some(w) => (w, None),
            None => {
                let w = self.policies[set].victim(ways, &mut self.rng);
                let old = self.sets[set][w];
                self.stats.evictions += 1;
                self.stats.dirty_evictions += u64::from(old.dirty);
                (w, Some(Victim { line: old.line, dirty: old.dirty, id: LineId(old.id) }))
            }
        };
        self.sets[set][way] = Way { line, id: id.0, valid: true, dirty };
        self.policies[set].touch(way, ways);
        victim
    }

    fn access(&mut self, addr: u64, id: LineId, write: bool) -> (bool, Option<Victim>) {
        let (line, set, way) = self.locate(addr);
        if let Some(w) = way {
            self.stats.hits += 1;
            self.sets[set][w].dirty |= write;
            self.policies[set].touch(w, self.cfg.ways);
            return (true, None);
        }
        self.stats.misses += 1;
        (false, self.fill(line, set, id, write))
    }

    fn insert(&mut self, addr: u64, id: LineId, dirty: bool) -> Option<Victim> {
        let (line, set, way) = self.locate(addr);
        if let Some(w) = way {
            self.sets[set][w].dirty |= dirty;
            self.policies[set].touch(w, self.cfg.ways);
            return None;
        }
        self.fill(line, set, id, dirty)
    }

    fn hit(&mut self, addr: u64, write: bool) -> bool {
        let (_, set, way) = self.locate(addr);
        let Some(w) = way else { return false };
        self.stats.hits += 1;
        self.sets[set][w].dirty |= write;
        self.policies[set].touch(w, self.cfg.ways);
        true
    }

    fn clean(&mut self, addr: u64) -> bool {
        let (_, set, way) = self.locate(addr);
        match way {
            Some(w) if self.sets[set][w].dirty => {
                self.sets[set][w].dirty = false;
                self.stats.cleans += 1;
                true
            }
            _ => false,
        }
    }

    fn invalidate(&mut self, addr: u64) -> Option<bool> {
        let (_, set, way) = self.locate(addr);
        let w = way?;
        let dirty = self.sets[set][w].dirty;
        self.sets[set][w] = Way::default();
        Some(dirty)
    }

    fn dirty_lines(&self) -> Vec<u64> {
        self.sets.iter().flatten().filter(|w| w.valid && w.dirty).map(|w| w.line).collect()
    }

    fn flush(&mut self) -> Vec<Victim> {
        let mut out = Vec::new();
        for w in self.sets.iter_mut().flatten() {
            if w.valid {
                out.push(Victim { line: w.line, dirty: w.dirty, id: LineId(w.id) });
            }
            *w = Way::default();
        }
        out
    }
}

/// A dense id per line (distinct from the line number, so a victim that
/// reported the wrong slot's id would show).
fn id_for(line: u64) -> LineId {
    LineId((line >> 6) as u32 ^ 0x5A5)
}

fn any_policy() -> impl Strategy<Value = ReplacementKind> {
    prop_oneof![
        Just(ReplacementKind::Lru),
        Just(ReplacementKind::TreePlru),
        Just(ReplacementKind::Fifo),
        Just(ReplacementKind::Random),
        Just(ReplacementKind::NruRandom),
    ]
}

/// Geometries: (capacity, ways, line size). Six ways exercise a
/// non-power-of-two associativity (skipped for tree-PLRU).
const GEOMETRIES: [(u64, usize, u64); 5] =
    [(512, 2, 64), (4096, 4, 64), (8192, 8, 64), (1536, 6, 64), (32768, 16, 128)];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn packed_cache_matches_naive_model(
        policy in any_policy(),
        geometry in 0usize..GEOMETRIES.len(),
        seed in any::<u64>(),
        ops in proptest::collection::vec((0u8..8, 0u64..1 << 17, any::<bool>()), 1..1500),
    ) {
        let (capacity, ways, line_size) = GEOMETRIES[geometry];
        if policy == ReplacementKind::TreePlru && !ways.is_power_of_two() {
            return Ok(());
        }
        let cfg = CacheConfig::from_capacity(capacity, ways, line_size, policy);
        let mut packed = Cache::new(cfg, seed);
        let mut naive = NaiveCache::new(cfg, seed);
        // Addresses span 4x the capacity, so sets fill and evict.
        let span = capacity * 4;
        for (i, &(op, raw, flag)) in ops.iter().enumerate() {
            let addr = raw % span;
            let line = packed.line_of(addr);
            match op {
                0 | 1 => {
                    let out = packed.access_id(line, id_for(line), flag);
                    let (hit, victim) = naive.access(addr, id_for(line), flag);
                    prop_assert_eq!((out.hit, out.victim), (hit, victim), "op {} {:?}", i, policy);
                }
                2 => {
                    let out = packed.access(addr, flag);
                    let (hit, victim) = naive.access(addr, LineId::INVALID, flag);
                    prop_assert_eq!((out.hit, out.victim), (hit, victim), "op {} {:?}", i, policy);
                }
                3 => {
                    let got = packed.insert_id(line, id_for(line), flag);
                    prop_assert_eq!(got, naive.insert(addr, id_for(line), flag), "op {}", i);
                }
                4 => {
                    let got = if flag { packed.hit_write(line) } else { packed.hit_read(line) };
                    prop_assert_eq!(got, naive.hit(addr, flag), "op {}", i);
                }
                5 => prop_assert_eq!(packed.clean_line(addr), naive.clean(addr), "op {}", i),
                6 => prop_assert_eq!(packed.invalidate(addr), naive.invalidate(addr), "op {}", i),
                _ => {
                    prop_assert_eq!(packed.probe(addr), naive.locate(addr).2.is_some());
                    prop_assert_eq!(packed.is_dirty(addr), naive.locate(addr).2.is_some_and(
                        |w| naive.sets[naive.locate(addr).1][w].dirty
                    ));
                }
            }
            prop_assert_eq!(*packed.stats(), naive.stats, "op {} {:?}", i, policy);
        }
        let mut dirty = Vec::new();
        packed.dirty_lines_into(&mut dirty);
        prop_assert_eq!(&dirty, &naive.dirty_lines());
        prop_assert!(packed.dirty_lines().eq(dirty.iter().copied()));
        prop_assert_eq!(packed.resident(), naive.sets.iter().flatten().filter(|w| w.valid).count());
        let mut flushed = Vec::new();
        packed.flush_all_into(&mut flushed);
        prop_assert_eq!(flushed, naive.flush());
        prop_assert_eq!(packed.resident(), 0);
        prop_assert!(!packed.probe(0));
    }
}
