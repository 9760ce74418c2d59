//! Step 1: sampling-based detection of write-intensive functions (§6.2.1).
//!
//! The paper samples loads and stores with `perf` (instruction pointer +
//! call chain) at negligible overhead, then groups samples by function to
//! find the most write-intensive ones and the paths that lead to them.
//! Here we sample every N-th event of the trace, which models the same
//! information loss: sampling is good enough to *rank* functions but far
//! too coarse to detect strides or compute re-use distances — that is what
//! step 2 is for.

use crate::DirtBusterConfig;
use simcore::{EventKind, FuncId, FxHashMap, TraceSet};

/// An application whose sampled store fraction is below this is not
/// write-intensive at all (the paper's "less than 10% of their time
/// issuing store instructions", §7.1).
pub const APP_WRITE_THRESHOLD: f64 = 0.10;

/// A function must account for at least this share of the sampled stores
/// to be monitored in step 2.
pub const FUNC_SHARE_THRESHOLD: f64 = 0.05;

/// Sampled statistics of one function.
#[derive(Debug, Clone)]
pub struct FuncSample {
    /// The function.
    pub func: FuncId,
    /// Sampled store events attributed to it.
    pub stores: u64,
    /// Sampled loads attributed to it.
    pub loads: u64,
    /// Its share of all sampled stores (0..=1).
    pub store_share: f64,
    /// Sampled callers, most common first — the call chains that lead to
    /// the writes (e.g. application code calling `memcpy`).
    pub callers: Vec<(FuncId, u64)>,
}

/// The application-level sampling profile.
#[derive(Debug, Clone)]
pub struct SamplingProfile {
    /// Fraction of sampled accesses that are stores.
    pub app_store_fraction: f64,
    /// Whether the fraction clears the write-intensive threshold.
    pub write_intensive: bool,
    /// Per-function samples, ordered by store share (descending).
    pub funcs: Vec<FuncSample>,
    /// Total events sampled.
    pub samples: u64,
}

impl SamplingProfile {
    /// The functions worth instrumenting in step 2: enough store share,
    /// in an application that is write-intensive at all.
    pub fn write_intensive_funcs(&self) -> Vec<FuncId> {
        if !self.write_intensive {
            return Vec::new();
        }
        self.funcs
            .iter()
            .filter(|f| f.store_share >= FUNC_SHARE_THRESHOLD)
            .map(|f| f.func)
            .collect()
    }
}

/// Run the sampling pass.
pub fn profile(traces: &TraceSet, cfg: &DirtBusterConfig) -> SamplingProfile {
    // Seeded FxHashMaps, not std HashMaps: std's per-instance RandomState
    // makes the pre-sort iteration order differ between runs, which used
    // to break `store_share` ties nondeterministically.
    let mut loads: FxHashMap<FuncId, u64> = FxHashMap::default();
    let mut stores: FxHashMap<FuncId, u64> = FxHashMap::default();
    let mut callers: FxHashMap<FuncId, FxHashMap<FuncId, u64>> = FxHashMap::default();
    let mut sampled_loads = 0u64;
    let mut sampled_stores = 0u64;
    let mut samples = 0u64;

    let step = cfg.sample_interval.max(1);
    for thread in &traces.threads {
        for ev in thread.events.iter().step_by(step) {
            if !ev.kind.is_access() {
                continue;
            }
            // Weight by the number of load/store *instructions* the event
            // stands for (one per 8 bytes): perf samples instructions, and
            // a 1 KB memcpy is 128 stores, not one.
            let weight = (ev.size as u64 / 8).clamp(1, 512);
            samples += 1;
            if ev.kind.is_store() {
                sampled_stores += weight;
                *stores.entry(ev.func).or_default() += weight;
                if ev.caller != FuncId::UNKNOWN {
                    *callers.entry(ev.func).or_default().entry(ev.caller).or_default() += weight;
                }
            } else if ev.kind == EventKind::Read {
                sampled_loads += weight;
                *loads.entry(ev.func).or_default() += weight;
            }
        }
    }

    let total_accesses = sampled_loads + sampled_stores;
    let app_store_fraction = if total_accesses == 0 {
        0.0
    } else {
        sampled_stores as f64 / total_accesses as f64
    };

    let mut funcs: Vec<FuncSample> = stores
        .iter()
        .map(|(&func, &s)| {
            let mut cs: Vec<(FuncId, u64)> = callers
                .get(&func)
                .map(|m| m.iter().map(|(&c, &n)| (c, n)).collect())
                .unwrap_or_default();
            cs.sort_by_key(|&(c, n)| (std::cmp::Reverse(n), c));
            FuncSample {
                func,
                stores: s,
                loads: loads.get(&func).copied().unwrap_or(0),
                store_share: if sampled_stores == 0 { 0.0 } else { s as f64 / sampled_stores as f64 },
                callers: cs,
            }
        })
        .collect();
    // Total order: store count descending, then FuncId — equal-share
    // functions rank identically on every run and platform.
    funcs.sort_by_key(|f| (std::cmp::Reverse(f.stores), f.func));

    SamplingProfile {
        app_store_fraction,
        write_intensive: app_store_fraction >= APP_WRITE_THRESHOLD,
        funcs,
        samples,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::{FuncRegistry, Tracer};

    fn cfg() -> DirtBusterConfig {
        DirtBusterConfig { sample_interval: 7 }
    }

    #[test]
    fn ranks_heaviest_writer_first() {
        let mut reg = FuncRegistry::new();
        let heavy = reg.register("heavy", "a.rs", 1);
        let light = reg.register("light", "a.rs", 2);
        let mut t = Tracer::new();
        for i in 0..10_000u64 {
            let mut g = t.enter(heavy);
            g.write(i * 64, 64);
            g.write(i * 64 + 8, 8);
        }
        for i in 0..1_000u64 {
            let mut g = t.enter(light);
            g.write((1 << 30) + i * 64, 64);
        }
        let p = profile(&TraceSet::new(vec![t.finish()]), &cfg());
        assert!(p.write_intensive);
        assert_eq!(p.funcs[0].func, heavy);
        assert!(p.funcs[0].store_share > 0.8);
    }

    #[test]
    fn caller_attribution() {
        let mut reg = FuncRegistry::new();
        let memcpy = reg.register("memcpy", "libc.rs", 1);
        let put = reg.register("kv_put", "kv.rs", 2);
        let mut t = Tracer::new();
        for i in 0..10_000u64 {
            let mut g = t.enter(put);
            let mut g2 = g.enter(memcpy);
            g2.write(i * 64, 64);
        }
        let p = profile(&TraceSet::new(vec![t.finish()]), &cfg());
        let fs = p.funcs.iter().find(|f| f.func == memcpy).unwrap();
        assert_eq!(fs.callers[0].0, put, "writes in memcpy attributed back to kv_put");
    }

    #[test]
    fn empty_trace_is_not_write_intensive() {
        let p = profile(&TraceSet::default(), &cfg());
        assert!(!p.write_intensive);
        assert_eq!(p.samples, 0);
        assert!(p.write_intensive_funcs().is_empty());
    }

    #[test]
    fn small_share_functions_filtered() {
        let mut reg = FuncRegistry::new();
        let big = reg.register("big", "a.rs", 1);
        let tiny = reg.register("tiny", "a.rs", 2);
        let mut t = Tracer::new();
        for i in 0..100_000u64 {
            let mut g = t.enter(big);
            g.write(i * 64, 64);
        }
        for i in 0..100u64 {
            let mut g = t.enter(tiny);
            g.write((1 << 30) + i * 64, 64);
        }
        let p = profile(&TraceSet::new(vec![t.finish()]), &cfg());
        let monitored = p.write_intensive_funcs();
        assert!(monitored.contains(&big));
        assert!(!monitored.contains(&tiny));
    }

    /// Satellite: equal `store_share` ties must break on `FuncId`, not on
    /// hash-map iteration order. Many functions with *identical* store
    /// counts make any nondeterministic ordering visible immediately:
    /// with std HashMaps two `profile` calls build independently seeded
    /// maps and used to disagree.
    #[test]
    fn tied_functions_rank_deterministically() {
        let mut reg = FuncRegistry::new();
        let funcs: Vec<FuncId> =
            (0..16).map(|i| reg.register(&format!("f{i}"), "tie.rs", i + 1)).collect();
        let mut t = Tracer::new();
        for i in 0..1_000u64 {
            for (k, &f) in funcs.iter().enumerate() {
                let mut g = t.enter(f);
                // Same size and count for every function: a 16-way tie.
                g.write((k as u64) << 30 | (i * 64), 64);
            }
        }
        let traces = TraceSet::new(vec![t.finish()]);
        // Dense sampling: every function sees exactly the same weight, so
        // the ranking is one big tie.
        let dense = DirtBusterConfig { sample_interval: 1 };
        let a = profile(&traces, &dense);
        let b = profile(&traces, &dense);
        let order_a: Vec<FuncId> = a.funcs.iter().map(|f| f.func).collect();
        let order_b: Vec<FuncId> = b.funcs.iter().map(|f| f.func).collect();
        assert_eq!(order_a, order_b, "two profiles of the same trace must rank identically");
        assert_eq!(order_a, funcs, "ties break on ascending FuncId");
        assert!(a.funcs.windows(2).all(|w| w[0].stores == w[1].stores), "fixture must tie");
    }

    /// Same trace, two full pipeline runs: the rendered report is
    /// byte-identical (the satellite's acceptance form).
    #[test]
    fn repeated_analysis_renders_byte_identical_reports() {
        let mut reg = FuncRegistry::new();
        let funcs: Vec<FuncId> =
            (0..6).map(|i| reg.register(&format!("w{i}"), "tie.rs", 100 + i)).collect();
        let mut t = Tracer::new();
        for i in 0..5_000u64 {
            for (k, &f) in funcs.iter().enumerate() {
                let mut g = t.enter(f);
                g.write((k as u64) << 32 | (i * 64), 64);
            }
        }
        let traces = TraceSet::new(vec![t.finish()]);
        // Dense sampling keeps the six functions tied on store share, so
        // the report order exercises the tie-break end to end.
        let dcfg = DirtBusterConfig { sample_interval: 1 };
        let one = crate::analyze(&traces, &reg, &dcfg).render(&reg);
        let two = crate::analyze(&traces, &reg, &dcfg).render(&reg);
        assert_eq!(one, two, "same trace must render the same report");
        assert!(!one.is_empty(), "fixture must produce reports");
    }

    #[test]
    fn sampling_interval_reduces_samples() {
        let mut t = Tracer::new();
        for i in 0..10_000u64 {
            t.write(i * 64, 64);
        }
        let traces = TraceSet::new(vec![t.finish()]);
        let dense = profile(&traces, &DirtBusterConfig { sample_interval: 1 });
        let sparse =
            profile(&traces, &DirtBusterConfig { sample_interval: 100 });
        assert_eq!(dense.samples, 10_000);
        assert_eq!(sparse.samples, 100);
        // Both agree on the verdict.
        assert_eq!(dense.write_intensive, sparse.write_intensive);
    }
}
