//! Step 2: instrumentation-based pattern analysis (§6.2.2, §6.2.3).
//!
//! For the write-intensive functions found by sampling, this pass walks the
//! *full* event trace (the paper uses Intel PIN for the same purpose) and
//! extracts:
//!
//! * **Sequentiality contexts** — a context is "a record of a memory region
//!   and the location of the last write within that region"; a write
//!   adjacent to a context's end extends it, otherwise a new context is
//!   created. This detects sequential writes even when they interleave
//!   across multiple objects or with temporaries.
//! * **Writes before fences** — the distance in instructions from each
//!   write to the next fence-semantics instruction (fences and atomics).
//! * **Re-read / re-write distances** — per cache line, the instruction
//!   distance from a write to the next read/write of the same line.
//!   Sequential extensions do not count as re-writes ("DirtBuster updates
//!   the rewrite distance only when a write breaks a streak of sequential
//!   accesses"). The paper keeps the per-line records in a B-Tree; this
//!   pass only looks lines up and never walks them in order, so it keys
//!   them in an `FxHashMap` — the container is not part of the method.

use simcore::{blocks_touched, Addr, EventKind, FuncId, FxHashMap, TraceSet};
use std::collections::BTreeMap;

/// Cache-line size of the per-line re-read and re-write distance
/// tracking, in bytes.
pub const LINE_SIZE: u64 = 64;

/// Adjacency slack when extending a sequentiality context, in bytes.
pub const CONTEXT_SLACK: u64 = 64;

/// A write followed by a fence within this many instructions counts as
/// "written before a fence".
pub const FENCE_DISTANCE_THRESHOLD: u64 = 2_000;

/// Maximum simultaneously active contexts per function.
const MAX_ACTIVE_CTXS: usize = 128;

/// Maximum writes waiting for their fence per thread.
const MAX_PENDING_FENCE: usize = 10_000;

/// A write of at least this size counts as sequential on its own (it
/// covers several cache lines in one go).
const SEQ_WRITE_MIN: u32 = 256;

/// One sequentiality context (an object written front to back).
#[derive(Debug, Clone)]
struct Ctx {
    start: Addr,
    end: Addr,
    writes: u64,
    reread_cnt: u64,
    reread_sum: u64,
    rewrite_cnt: u64,
    rewrite_sum: u64,
}

impl Ctx {
    fn extent(&self) -> u64 {
        self.end - self.start
    }
}

/// Aggregated context statistics for one size class.
#[derive(Debug, Clone, PartialEq)]
pub struct BucketStat {
    /// Representative region size in bytes (mean extent of the bucket).
    pub size_bytes: u64,
    /// Share of the function's writes that land in this bucket (0..=1).
    pub write_share: f64,
    /// Mean re-read distance in instructions (`None` = never re-read).
    pub reread: Option<f64>,
    /// Mean re-write distance in instructions (`None` = never re-written).
    pub rewrite: Option<f64>,
}

/// Pattern analysis of one monitored function.
#[derive(Debug, Clone)]
pub struct FuncPatterns {
    /// The function.
    pub func: FuncId,
    /// Write events observed.
    pub writes: u64,
    /// Writes that were sequential (context extensions or multi-line).
    pub seq_writes: u64,
    /// Fraction of writes that were sequential.
    pub seq_pct: f64,
    /// Context-size buckets, largest write share first.
    pub buckets: Vec<BucketStat>,
    /// Writes followed by a fence within the configured distance.
    pub fence_covered: u64,
    /// Fraction of writes covered by a following fence.
    pub fence_frac: f64,
    /// Minimum observed write-to-fence distance.
    pub min_fence_dist: Option<u64>,
    /// Mean observed write-to-fence distance.
    pub mean_fence_dist: Option<f64>,
}

/// Analysis results for all monitored functions.
#[derive(Debug, Clone, Default)]
pub struct PatternAnalysis {
    /// One entry per monitored function that actually wrote data.
    pub funcs: Vec<FuncPatterns>,
}

#[derive(Debug, Default)]
struct FState {
    ctxs: Vec<Ctx>,
    /// Indices into `ctxs` that are still extendable, oldest first.
    active: Vec<usize>,
    writes: u64,
    seq_writes: u64,
    fence_covered: u64,
    fence_dist_sum: u64,
    fence_dist_cnt: u64,
    fence_dist_min: Option<u64>,
}

#[derive(Debug, Clone, Copy)]
struct LineInfo {
    func: FuncId,
    ctx: u32,
    last_write: u64,
    thread: u32,
}

/// Run the instrumentation pass over `traces` for `monitored` functions.
pub fn analyze(traces: &TraceSet, monitored: &[FuncId]) -> PatternAnalysis {
    // Seeded FxHashMap (same fix as the sampling pass): iteration feeds
    // the pre-sort order below, and std HashMap's per-instance seed made
    // equal-write-count ties nondeterministic.
    let mut fstates: FxHashMap<FuncId, FState> = monitored
        .iter()
        .map(|&f| (f, FState::default()))
        .collect();
    // Per-line records, looked up and inserted, never iterated (the
    // paper's B-Tree, §6.2.3, orders them; nothing here reads the order).
    let mut lines: FxHashMap<Addr, LineInfo> = FxHashMap::default();

    for (tid, thread) in traces.threads.iter().enumerate() {
        let tid = tid as u32;
        let mut ctr: u64 = 0;
        let mut pending_fence: Vec<(FuncId, u64)> = Vec::new();
        for ev in &thread.events {
            ctr += if ev.kind == EventKind::Compute { ev.addr.max(1) } else { 1 };
            match ev.kind {
                EventKind::Write | EventKind::NtWrite => {
                    let monitored_func = fstates.contains_key(&ev.func);
                    let mut seq = false;
                    let mut ctx_idx = u32::MAX;
                    if monitored_func {
                        let st = fstates.get_mut(&ev.func).expect("checked above");
                        st.writes += 1;
                        // Find a context this write extends: the write must
                        // start at (or just past) a context's end.
                        let pos = st.active.iter().rposition(|&ci| {
                            let c = &st.ctxs[ci];
                            ev.addr >= c.end && ev.addr <= c.end + CONTEXT_SLACK
                        });
                        match pos {
                            Some(p) => {
                                let ci = st.active[p];
                                let c = &mut st.ctxs[ci];
                                c.end = c.end.max(ev.end());
                                c.writes += 1;
                                seq = true;
                                ctx_idx = ci as u32;
                                // Refresh recency.
                                st.active.remove(p);
                                st.active.push(ci);
                            }
                            None => {
                                let ci = st.ctxs.len();
                                st.ctxs.push(Ctx {
                                    start: ev.addr,
                                    end: ev.end(),
                                    writes: 1,
                                    reread_cnt: 0,
                                    reread_sum: 0,
                                    rewrite_cnt: 0,
                                    rewrite_sum: 0,
                                });
                                if st.active.len() >= MAX_ACTIVE_CTXS {
                                    st.active.remove(0);
                                }
                                st.active.push(ci);
                                ctx_idx = ci as u32;
                            }
                        }
                        if seq || ev.size >= SEQ_WRITE_MIN {
                            st.seq_writes += 1;
                        }
                        if pending_fence.len() < MAX_PENDING_FENCE {
                            pending_fence.push((ev.func, ctr));
                        }
                    }
                    // Per-line bookkeeping (for every write, so that
                    // re-writes by *other* functions are still observed).
                    for line in blocks_touched(ev.addr, ev.size as u64, LINE_SIZE) {
                        if let Some(info) = lines.get(&line) {
                            // A non-sequential write to a previously
                            // written line is a re-write of that line.
                            if !seq && info.thread == tid && ctr > info.last_write {
                                if let Some(st) = fstates.get_mut(&info.func) {
                                    if let Some(c) = st.ctxs.get_mut(info.ctx as usize) {
                                        c.rewrite_cnt += 1;
                                        c.rewrite_sum += ctr - info.last_write;
                                    }
                                }
                            }
                        }
                        if monitored_func {
                            lines.insert(
                                line,
                                LineInfo { func: ev.func, ctx: ctx_idx, last_write: ctr, thread: tid },
                            );
                        }
                    }
                }
                EventKind::Read => {
                    for line in blocks_touched(ev.addr, ev.size as u64, LINE_SIZE) {
                        if let Some(info) = lines.get(&line) {
                            if info.thread == tid && ctr > info.last_write {
                                if let Some(st) = fstates.get_mut(&info.func) {
                                    if let Some(c) = st.ctxs.get_mut(info.ctx as usize) {
                                        c.reread_cnt += 1;
                                        c.reread_sum += ctr - info.last_write;
                                    }
                                }
                            }
                        }
                    }
                }
                EventKind::Fence | EventKind::Atomic => {
                    for &(f, wctr) in &pending_fence {
                        let dist = ctr - wctr;
                        if dist <= FENCE_DISTANCE_THRESHOLD {
                            if let Some(st) = fstates.get_mut(&f) {
                                st.fence_covered += 1;
                                st.fence_dist_sum += dist;
                                st.fence_dist_cnt += 1;
                                st.fence_dist_min =
                                    Some(st.fence_dist_min.map_or(dist, |m| m.min(dist)));
                            }
                        }
                    }
                    pending_fence.clear();
                }
                EventKind::PrestoreClean
                | EventKind::PrestoreDemote
                | EventKind::Compute
                | EventKind::Acquire => {}
            }
        }
    }

    let mut funcs: Vec<FuncPatterns> = fstates
        .into_iter()
        .filter(|(_, st)| st.writes > 0)
        .map(|(func, st)| summarize(func, st))
        .collect();
    funcs.sort_by_key(|f| (std::cmp::Reverse(f.writes), f.func));
    PatternAnalysis { funcs }
}

fn summarize(func: FuncId, st: FState) -> FuncPatterns {
    // Bucket contexts by log2 of their extent.
    #[derive(Default)]
    struct Agg {
        writes: u64,
        extent_sum: u64,
        ctxs: u64,
        reread_cnt: u64,
        reread_sum: u64,
        rewrite_cnt: u64,
        rewrite_sum: u64,
    }
    // BTreeMap: the bucket list below is collected in ascending size
    // class, so the stable write-share sort breaks ties deterministically.
    let mut byclass: BTreeMap<u32, Agg> = BTreeMap::new();
    for c in &st.ctxs {
        let class = 64 - c.extent().max(1).leading_zeros();
        let a = byclass.entry(class).or_default();
        a.writes += c.writes;
        a.extent_sum += c.extent();
        a.ctxs += 1;
        a.reread_cnt += c.reread_cnt;
        a.reread_sum += c.reread_sum;
        a.rewrite_cnt += c.rewrite_cnt;
        a.rewrite_sum += c.rewrite_sum;
    }
    let total_writes = st.writes.max(1);
    let mut buckets: Vec<BucketStat> = byclass
        .into_values()
        .map(|a| BucketStat {
            size_bytes: a.extent_sum / a.ctxs.max(1),
            write_share: a.writes as f64 / total_writes as f64,
            reread: (a.reread_cnt > 0).then(|| a.reread_sum as f64 / a.reread_cnt as f64),
            rewrite: (a.rewrite_cnt > 0).then(|| a.rewrite_sum as f64 / a.rewrite_cnt as f64),
        })
        .collect();
    buckets.sort_by(|a, b| {
        b.write_share.partial_cmp(&a.write_share).unwrap_or(std::cmp::Ordering::Equal)
    });
    buckets.truncate(4);

    FuncPatterns {
        func,
        writes: st.writes,
        seq_writes: st.seq_writes,
        seq_pct: st.seq_writes as f64 / total_writes as f64,
        buckets,
        fence_covered: st.fence_covered,
        fence_frac: st.fence_covered as f64 / total_writes as f64,
        min_fence_dist: st.fence_dist_min,
        mean_fence_dist: (st.fence_dist_cnt > 0)
            .then(|| st.fence_dist_sum as f64 / st.fence_dist_cnt as f64),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::{FuncRegistry, Tracer};

    fn run(f: FuncId, build: impl FnOnce(&mut Tracer)) -> PatternAnalysis {
        let mut t = Tracer::new();
        build(&mut t);
        analyze(&TraceSet::new(vec![t.finish()]), &[f])
    }

    fn func() -> (FuncRegistry, FuncId) {
        let mut reg = FuncRegistry::new();
        let f = reg.register("f", "t.rs", 1);
        (reg, f)
    }

    #[test]
    fn pure_sequential_stream_is_100pct() {
        let (_, f) = func();
        let a = run(f, |t| {
            let mut g = t.enter(f);
            for i in 0..10_000u64 {
                g.write(i * 64, 64);
            }
        });
        let fp = &a.funcs[0];
        // Only the very first write opens the context.
        assert!(fp.seq_pct > 0.99, "seq_pct {}", fp.seq_pct);
        assert_eq!(fp.buckets.len(), 1);
        assert!(fp.buckets[0].size_bytes > 500_000);
        assert_eq!(fp.buckets[0].reread, None);
        assert_eq!(fp.buckets[0].rewrite, None);
    }

    #[test]
    fn interleaved_streams_both_tracked() {
        // Two interleaved sequential objects: the multi-context design
        // (§6.2.2) must keep both streaks alive.
        let (_, f) = func();
        let a = run(f, |t| {
            let mut g = t.enter(f);
            for i in 0..10_000u64 {
                g.write(i * 64, 64);
                g.write((1 << 30) + i * 64, 64);
            }
        });
        let fp = &a.funcs[0];
        assert!(fp.seq_pct > 0.99, "interleaving broke contexts: {}", fp.seq_pct);
    }

    #[test]
    fn temporaries_between_sequential_writes_tolerated() {
        // A small scratch variable rewritten between stream writes must not
        // reset the stream's context.
        let (_, f) = func();
        let a = run(f, |t| {
            let mut g = t.enter(f);
            for i in 0..10_000u64 {
                g.write(i * 64, 64);
                g.write(1 << 40, 8); // scratch
            }
        });
        let fp = &a.funcs[0];
        assert!(fp.seq_pct > 0.45, "seq pct {}", fp.seq_pct);
    }

    #[test]
    fn rewrite_distance_measured() {
        let (_, f) = func();
        let a = run(f, |t| {
            let mut g = t.enter(f);
            for round in 0..100u64 {
                for slot in 0..16u64 {
                    g.write(slot * 4096, 64);
                    g.compute(10);
                }
                let _ = round;
            }
        });
        let fp = &a.funcs[0];
        let b = &fp.buckets[0];
        let rw = b.rewrite.expect("slots are rewritten");
        // 16 slots x ~11 instructions each per round.
        assert!((100.0..300.0).contains(&rw), "rewrite distance {rw}");
    }

    #[test]
    fn reread_distance_measured() {
        let (_, f) = func();
        let a = run(f, |t| {
            let mut g = t.enter(f);
            for i in 0..5_000u64 {
                g.write(i * 4096, 64);
                g.read(i * 4096, 8);
            }
        });
        let fp = &a.funcs[0];
        let rr = fp.buckets[0].reread.expect("re-read immediately");
        assert!(rr < 5.0, "re-read distance {rr}");
    }

    #[test]
    fn fence_distance_measured() {
        let (_, f) = func();
        let a = run(f, |t| {
            let mut g = t.enter(f);
            for i in 0..5_000u64 {
                g.write(i * 4096, 64);
                g.compute(5);
                g.fence();
            }
        });
        let fp = &a.funcs[0];
        assert!(fp.fence_frac > 0.99, "fence frac {}", fp.fence_frac);
        let min = fp.min_fence_dist.expect("fences seen");
        assert!(min <= 10, "min fence distance {min}");
    }

    #[test]
    fn distant_fences_not_counted() {
        let (_, f) = func();
        let a = run(f, |t| {
            let mut g = t.enter(f);
            for i in 0..1_000u64 {
                g.write(i * 4096, 64);
                g.compute(100_000); // fence is far away
                g.fence();
            }
        });
        let fp = &a.funcs[0];
        assert_eq!(fp.fence_covered, 0, "fences beyond the window must not count");
    }

    #[test]
    fn unmonitored_functions_ignored() {
        let mut reg = FuncRegistry::new();
        let f = reg.register("f", "t.rs", 1);
        let other = reg.register("other", "t.rs", 2);
        let mut t = Tracer::new();
        {
            let mut g = t.enter(other);
            for i in 0..1_000u64 {
                g.write(i * 64, 64);
            }
        }
        let a = analyze(&TraceSet::new(vec![t.finish()]), &[f]);
        assert!(a.funcs.is_empty());
    }

    #[test]
    fn large_single_writes_count_as_sequential() {
        let (_, f) = func();
        let a = run(f, |t| {
            let mut g = t.enter(f);
            let mut rng = simcore::rng::SimRng::new(1);
            for _ in 0..1_000u64 {
                let slot = rng.gen_range(1 << 20) * 4096;
                g.write(slot, 1024); // a KV value crafted in one go
            }
        });
        let fp = &a.funcs[0];
        assert!(fp.seq_pct > 0.9, "1KB writes are sequential: {}", fp.seq_pct);
    }
}
