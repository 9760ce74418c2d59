//! The YCSB workload generator (§7.2.3): zipfian key selection, workloads
//! A-D, multi-threaded request streams.

use crate::kv::{Clht, KvStore, Masstree};
use crate::WorkloadOutput;
use prestore::PrestoreMode;
use simcore::rng::{SimRng, Zipfian};
use simcore::{AddressSpace, FuncRegistry, ThreadTrace, TraceSet, Tracer};

/// Which YCSB core workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum YcsbKind {
    /// 50% GET / 50% PUT (update-heavy).
    A,
    /// 95% GET / 5% PUT (read-mostly).
    B,
    /// 100% GET (read-only).
    C,
    /// 95% GET on recent keys / 5% insert (read-latest).
    D,
}

impl YcsbKind {
    /// Probability of a read for this workload.
    pub fn read_fraction(self) -> f64 {
        match self {
            YcsbKind::A => 0.5,
            YcsbKind::B | YcsbKind::D => 0.95,
            YcsbKind::C => 1.0,
        }
    }

    /// Workload name ("YCSB A").
    pub fn name(self) -> &'static str {
        match self {
            YcsbKind::A => "YCSB A",
            YcsbKind::B => "YCSB B",
            YcsbKind::C => "YCSB C",
            YcsbKind::D => "YCSB D",
        }
    }
}

/// YCSB driver parameters.
#[derive(Debug, Clone)]
pub struct YcsbParams {
    /// The core workload.
    pub kind: YcsbKind,
    /// Records loaded before the measured phase.
    pub records: u64,
    /// Operations in the measured phase (across all threads).
    pub ops: u64,
    /// Value size in bytes (the paper sweeps 64 B - 4 KB).
    pub value_size: u32,
    /// Client threads.
    pub threads: usize,
    /// Zipfian theta (YCSB default 0.99).
    pub theta: f64,
    /// RNG seed.
    pub seed: u64,
}

impl YcsbParams {
    /// Paper-shaped configuration (record counts scaled to the simulator:
    /// the value footprint stays ~16 MB regardless of the value size, like
    /// the paper's 100M-key store dwarfs its caches).
    pub fn new(kind: YcsbKind, value_size: u32, threads: usize) -> Self {
        let records = (16 * 1024 * 1024 / value_size as u64).clamp(4_000, 64_000);
        Self { kind, records, ops: 30_000, value_size, threads, theta: 0.9, seed: 23 }
    }

    /// Tiny configuration for unit tests.
    pub fn quick() -> Self {
        Self {
            kind: YcsbKind::A,
            records: 500,
            ops: 1_000,
            value_size: 128,
            threads: 2,
            theta: 0.99,
            seed: 23,
        }
    }
}

/// Deterministic value bytes for `key`.
fn value_for(key: u64, size: u32) -> Vec<u8> {
    let mut v = vec![0u8; size as usize];
    let bytes = key.to_le_bytes();
    for (i, b) in v.iter_mut().enumerate() {
        *b = bytes[i % 8] ^ (i as u8);
    }
    v
}

/// Run YCSB against any store. The load phase is untraced (the paper
/// measures the run phase); run-phase operations are distributed
/// round-robin over `threads` tracers.
pub fn run_store<S: KvStore>(
    store: &mut S,
    registry: FuncRegistry,
    p: &YcsbParams,
    mode: PrestoreMode,
) -> WorkloadOutput {
    // Load phase, untraced.
    let mut scratch = Tracer::new();
    for k in 0..p.records {
        store.put(&mut scratch, k, &value_for(k, p.value_size), PrestoreMode::None);
    }
    drop(scratch);

    let mut rng = SimRng::new(p.seed);
    let zipf = Zipfian::new(p.records, p.theta);
    // Reserve the fewest events the mix records on average: in either
    // store a GET records at least 3 (CLHT exactly 3) and a PUT at least
    // 6, so the hint stays near or below the recording's length whatever
    // the mix. Masstree's descents record 26-38 per op; `Vec` doubling
    // grows those and `Tracer::finish` trims them.
    let per_op = 3.0 + 3.0 * (1.0 - p.kind.read_fraction());
    let hint = (p.ops / p.threads as u64) as f64 * per_op;
    let mut tracers: Vec<Tracer> =
        (0..p.threads).map(|_| Tracer::with_capacity(hint as usize)).collect();
    let mut inserted = p.records;
    for op in 0..p.ops {
        let t = &mut tracers[(op % p.threads as u64) as usize];
        let read = rng.gen_bool(p.kind.read_fraction());
        match (p.kind, read) {
            (YcsbKind::D, false) => {
                // Insert a brand-new key.
                let k = inserted;
                inserted += 1;
                store.put(t, k, &value_for(k, p.value_size), mode);
            }
            (YcsbKind::D, true) => {
                // Read-latest: bias towards recently inserted keys.
                let back = zipf.sample(&mut rng).min(inserted - 1);
                let k = inserted - 1 - back;
                let _ = store.get(t, k);
            }
            (_, true) => {
                let k = zipf.sample(&mut rng);
                let _ = store.get(t, k);
            }
            (_, false) => {
                let k = zipf.sample(&mut rng);
                store.put(t, k, &value_for(k, p.value_size), mode);
            }
        }
    }

    let threads: Vec<ThreadTrace> = tracers.into_iter().map(Tracer::finish).collect();
    WorkloadOutput { traces: TraceSet::new(threads), registry, ops: p.ops }
}

/// Run YCSB against a fresh CLHT store.
pub fn run_clht(p: &YcsbParams, mode: PrestoreMode) -> WorkloadOutput {
    let mut space = AddressSpace::new();
    let mut registry = FuncRegistry::new();
    let arena = (p.records + p.ops) * (p.value_size as u64 + 64) * 2;
    let mut kv = Clht::new(&mut space, &mut registry, (p.records / 2) as usize, arena);
    run_store(&mut kv, registry, p, mode)
}

/// Run YCSB against a fresh Masstree store.
pub fn run_masstree(p: &YcsbParams, mode: PrestoreMode) -> WorkloadOutput {
    let mut space = AddressSpace::new();
    let mut registry = FuncRegistry::new();
    let arena = (p.records + p.ops) * (p.value_size as u64 + 64) * 2;
    let max_nodes = ((p.records + p.ops) as usize).max(1 << 12);
    let mut kv = Masstree::new(&mut space, &mut registry, max_nodes, arena);
    run_store(&mut kv, registry, p, mode)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::EventKind;

    #[test]
    fn workload_a_mixes_reads_and_writes() {
        let out = run_clht(&YcsbParams::quick(), PrestoreMode::None);
        assert_eq!(out.traces.threads.len(), 2);
        let frac = out.traces.store_fraction();
        assert!(frac > 0.05 && frac < 0.9, "A-mix store fraction {frac}");
    }

    #[test]
    fn workload_c_is_read_only() {
        let p = YcsbParams { kind: YcsbKind::C, ..YcsbParams::quick() };
        let out = run_clht(&p, PrestoreMode::None);
        let stores: usize = out
            .traces
            .threads
            .iter()
            .map(|t| t.events.iter().filter(|e| e.kind.is_store()).count())
            .sum();
        assert_eq!(stores, 0, "YCSB C must not write");
    }

    /// `run_store`'s capacity hint fits every mix on both stores. At
    /// 2,500 ops per thread, a hint that over-reserves trips
    /// `Tracer::finish`'s debug bound beyond its constant term (8 events
    /// per op did on CLHT's B, C and D mixes). In any build, each thread
    /// records at least the 3 events per op of a GET, the floor the hint
    /// derives from.
    #[test]
    fn capacity_hint_fits_every_mix() {
        for kind in [YcsbKind::A, YcsbKind::B, YcsbKind::C, YcsbKind::D] {
            let p = YcsbParams { kind, ops: 5_000, ..YcsbParams::quick() };
            for out in [run_clht(&p, PrestoreMode::None), run_masstree(&p, PrestoreMode::None)] {
                for t in &out.traces.threads {
                    assert!(t.len() >= 3 * 2_500, "{}: {} events", kind.name(), t.len());
                }
            }
        }
    }

    #[test]
    fn workload_d_inserts_new_keys() {
        let p = YcsbParams { kind: YcsbKind::D, ops: 2_000, ..YcsbParams::quick() };
        let out = run_masstree(&p, PrestoreMode::None);
        assert_eq!(out.ops, 2_000);
    }

    #[test]
    fn clean_mode_emits_value_prestores() {
        let out = run_clht(&YcsbParams::quick(), PrestoreMode::Clean);
        let cleans: usize = out
            .traces
            .threads
            .iter()
            .map(|t| {
                t.events.iter().filter(|e| e.kind == EventKind::PrestoreClean).count()
            })
            .sum();
        assert!(cleans > 100, "PUTs must clean their values, saw {cleans}");
    }

    #[test]
    fn zipfian_hits_hot_keys() {
        let out = run_clht(&YcsbParams::quick(), PrestoreMode::None);
        // With theta .99 over 500 records, some key must be touched often;
        // just sanity-check the trace is non-trivial.
        assert!(out.traces.total_events() > 2_000);
    }

    #[test]
    fn workload_d_reads_recent_keys() {
        // Track which keys the D-mix reads: they must skew towards the
        // most recently inserted end of the keyspace.
        let p = YcsbParams {
            kind: YcsbKind::D,
            records: 2_000,
            ops: 4_000,
            value_size: 64,
            threads: 1,
            theta: 0.99,
            seed: 23,
        };
        let out = run_masstree(&p, PrestoreMode::None);
        // Proxy: the run completed with inserts interleaved; the store
        // grew beyond the loaded records.
        assert!(out.traces.total_events() > 0);
    }

    #[test]
    fn value_bytes_round_trip_through_the_store() {
        // The driver's deterministic values must actually be retrievable.
        let mut space = AddressSpace::new();
        let mut registry = FuncRegistry::new();
        let mut kv = Clht::new(&mut space, &mut registry, 64, 1 << 22);
        let mut t = Tracer::new();
        for k in 0..200u64 {
            kv.put(&mut t, k, &value_for(k, 256), PrestoreMode::None);
        }
        for k in 0..200u64 {
            assert_eq!(kv.get(&mut t, k), Some(value_for(k, 256)), "key {k}");
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let a = run_clht(&YcsbParams::quick(), PrestoreMode::None);
        let b = run_clht(&YcsbParams::quick(), PrestoreMode::None);
        assert_eq!(a.traces.threads[0].events, b.traces.threads[0].events);
    }
}
