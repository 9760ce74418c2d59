//! Trace memoization for parameter sweeps.
//!
//! Sweep points that differ only in [`PrestoreMode`] replay *different*
//! traces of the *same* workload execution: the addresses and sizes are
//! identical, only the store flavour and the inserted pre-store events
//! change. Recording the workload once per parameter point and deriving
//! the mode variants by rewriting the baseline trace (the
//! [`dirtbuster::apply_plan`] mechanism, run in reverse: force the mode
//! the sweep asks for instead of the analyzer's choice) skips the
//! workload's RNG, allocator and data-structure work entirely.
//!
//! Derivation is only used for workloads whose mode-controlled stores are
//! confined to known functions ([`prestore::write_with_mode`] call sites);
//! the `derived_traces_match_native_recordings` test pins, for every such
//! workload and mode, that the derived trace is event-for-event identical
//! to a native re-recording — which is what keeps `results/` byte-identical
//! with memoization on.
//!
//! The cache is process-global, thread-safe (sweep points run on the
//! [`simcore::par`] pool) and bounded: entries are evicted oldest-first
//! once the cached traces exceed an event budget. Derived variants are
//! cached under their own key — several figures replay the same variant
//! on more than one machine configuration. The two result caches below
//! are the same FIFO cache with a weight of one per entry.
//!
//! Streaming workloads cannot cache traces — not holding the trace is
//! their point — so they memoize the *replay result* instead:
//! [`stream_cached`] keys a [`machine::StreamReport`] on the stream's
//! chunk-size-invariant [`simcore::StreamDigest`] (plus the machine
//! configuration), sharing this module's hit/miss/insert/evict ledger so
//! the [`MemoCounters`] invariants cover both caches.
//!
//! The closed-loop policy search (`dirtbuster --auto`) memoizes whole
//! candidate *evaluations* the same way: [`plan_cached`] keys a
//! [`machine::RunStats`] on the workload, the machine configuration and
//! the candidate plan's canonical [`PrestorePlan::signature`], so a
//! hill-climb that revisits a plan — or several [`simcore::par`] jobs
//! racing on the same candidate — pays for one replay. Same shared
//! ledger, same invariants.

use dirtbuster::{apply_plan, PrestorePlan, Recommendation};
use prestore::PrestoreMode;
use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use workloads::kv::ycsb::{run_clht, run_masstree, YcsbParams};
use workloads::microbench::{
    listing1 as record_listing1, listing2 as record_listing2, listing3 as record_listing3,
    Listing1Params, Listing2Params,
};
use workloads::tensor::{training_step, TensorParams};
use workloads::x9::{run as record_x9, X9Params};
use workloads::WorkloadOutput;

/// One bounded, process-global FIFO cache of shared values.
///
/// Every entry has a weight; once the resident weight exceeds the
/// capacity, entries are evicted oldest-first, but never the newest one.
/// A missed value is computed outside the lock: concurrent callers may
/// race to compute the same key, in which case the first insertion wins
/// and the loser's value is dropped (both are deterministic and
/// identical). Hits, misses, inserts and evictions of every instance are
/// booked in this module's one [`MemoCounters`] ledger.
struct FifoCache<V> {
    inner: Mutex<Option<FifoInner<V>>>,
    /// The weight bound: the instance's default in production, shrunk by
    /// tests to exercise eviction accounting.
    capacity: AtomicUsize,
    weight: fn(&V) -> usize,
}

struct FifoInner<V> {
    map: HashMap<String, Arc<V>>,
    /// Insertion order, oldest first.
    order: VecDeque<String>,
    /// Summed weight of the resident entries.
    weight: usize,
}

impl<V> FifoCache<V> {
    const fn new(capacity: usize, weight: fn(&V) -> usize) -> Self {
        Self {
            inner: Mutex::new(None),
            capacity: AtomicUsize::new(capacity),
            weight,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Option<FifoInner<V>>> {
        self.inner.lock().expect("memo cache poisoned")
    }

    /// Fetch `key`, or compute it with `make`. A `None` from `make` is a
    /// miss without an insert — the same accounting as a lost race — so
    /// `hits + misses == lookups` and `evictions <= inserts <= misses`
    /// hold whether or not every computation succeeds. Failures are not
    /// negatively cached: the next lookup retries.
    fn fetch(&self, key: String, make: impl FnOnce() -> Option<V>) -> Option<Arc<V>> {
        LOOKUPS.fetch_add(1, Ordering::Relaxed);
        if let Some(hit) = self.lock().as_ref().and_then(|inner| inner.map.get(&key)) {
            HITS.fetch_add(1, Ordering::Relaxed);
            return Some(Arc::clone(hit));
        }
        MISSES.fetch_add(1, Ordering::Relaxed);
        let out = {
            let _timed = simcore::telemetry::span(&probes::RECORD);
            Arc::new(make()?)
        };
        let mut guard = self.lock();
        let inner = guard.get_or_insert_with(|| FifoInner {
            map: HashMap::new(),
            order: VecDeque::new(),
            weight: 0,
        });
        if let Some(existing) = inner.map.get(&key) {
            // Lost a race; the values are identical. Dropped without an
            // insert, which is why `inserts <= misses`.
            return Some(Arc::clone(existing));
        }
        inner.weight += (self.weight)(&out);
        inner.map.insert(key.clone(), Arc::clone(&out));
        inner.order.push_back(key);
        INSERTS.fetch_add(1, Ordering::Relaxed);
        let capacity = self.capacity.load(Ordering::Relaxed);
        while inner.weight > capacity && inner.order.len() > 1 {
            let oldest = inner.order.pop_front().expect("order tracks map");
            if let Some(evicted) = inner.map.remove(&oldest) {
                inner.weight -= (self.weight)(&evicted);
                EVICTIONS.fetch_add(1, Ordering::Relaxed);
            }
        }
        Some(out)
    }

    fn clear(&self) {
        *self.lock() = None;
    }

    /// Test-only: change the weight bound. Pair with [`clear`] and restore
    /// the default afterwards; production code never calls this.
    #[cfg(test)]
    fn set_capacity(&self, capacity: usize) {
        self.capacity.store(capacity, Ordering::Relaxed);
    }
}

/// Cached baseline recordings may hold at most this many trace events
/// (~24 B each) before the oldest entries are dropped.
const MAX_CACHED_EVENTS: usize = 24_000_000;

/// Workload recordings, weighted by their trace events.
static TRACES: FifoCache<WorkloadOutput> =
    FifoCache::new(MAX_CACHED_EVENTS, |out| out.traces.total_events());

/// Streamed replay results cached by [`stream_cached`]. A
/// [`machine::StreamReport`] is a few hundred bytes of statistics, so the
/// bound is an entry count (weight 1 each).
const MAX_STREAM_RESULTS: usize = 64;

static STREAMS: FifoCache<machine::StreamReport> = FifoCache::new(MAX_STREAM_RESULTS, |_| 1);

/// Candidate-plan replay results cached by [`plan_cached`]. A
/// [`machine::RunStats`] is a few KB, and one `--auto` search evaluates a
/// few hundred candidates at most, so the bound is an entry count.
const MAX_PLAN_RESULTS: usize = 512;

static PLANS: FifoCache<machine::RunStats> = FifoCache::new(MAX_PLAN_RESULTS, |_| 1);

static LOOKUPS: AtomicU64 = AtomicU64::new(0);
static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static INSERTS: AtomicU64 = AtomicU64::new(0);
static EVICTIONS: AtomicU64 = AtomicU64::new(0);
static DERIVED: AtomicU64 = AtomicU64::new(0);
static DERIVE_NS: AtomicU64 = AtomicU64::new(0);

/// Span probes of the memo cache; its counters are the atomics above,
/// which `figures --metrics` renders as the snapshot's `"memo"` object.
mod probes {
    use simcore::telemetry::Metric;

    /// Time spent recording a missed key (workload run or derivation).
    pub(super) static RECORD: Metric = Metric::span("memo.record");
    /// Time spent rewriting baselines into mode variants.
    pub(super) static DERIVE: Metric = Metric::span("memo.derive");
}

/// Cache-effectiveness counters since the last [`clear`].
///
/// Invariants (pinned by the reconciliation test): every memoized fetch
/// is exactly one lookup and either a hit or a miss, so
/// `hits + misses == lookups`; an entry can only be evicted after being
/// inserted, so `evictions <= inserts`; and a recording race's loser is
/// never inserted, so `inserts <= misses`.
#[derive(Debug, Clone, Copy, Default)]
pub struct MemoCounters {
    /// Cache lookups (every memoized fetch).
    pub lookups: u64,
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that recorded the workload.
    pub misses: u64,
    /// Recordings actually inserted (race losers are dropped, not
    /// inserted).
    pub inserts: u64,
    /// Entries evicted by a cache's FIFO bound.
    pub evictions: u64,
    /// Mode variants derived by trace rewriting instead of re-recording.
    pub derived: u64,
    /// Nanoseconds spent in trace rewriting ([`dirtbuster::apply_plan`]).
    pub derive_ns: u64,
}

/// Current counters.
pub fn counters() -> MemoCounters {
    MemoCounters {
        lookups: LOOKUPS.load(Ordering::Relaxed),
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
        inserts: INSERTS.load(Ordering::Relaxed),
        evictions: EVICTIONS.load(Ordering::Relaxed),
        derived: DERIVED.load(Ordering::Relaxed),
        derive_ns: DERIVE_NS.load(Ordering::Relaxed),
    }
}

/// Drop every cached recording and zero the counters, so the next pass
/// starts from cold caches (the benchmark's samples and the job-count
/// tests run several passes in one process).
pub fn clear() {
    TRACES.clear();
    STREAMS.clear();
    PLANS.clear();
    LOOKUPS.store(0, Ordering::Relaxed);
    HITS.store(0, Ordering::Relaxed);
    MISSES.store(0, Ordering::Relaxed);
    INSERTS.store(0, Ordering::Relaxed);
    EVICTIONS.store(0, Ordering::Relaxed);
    DERIVED.store(0, Ordering::Relaxed);
    DERIVE_NS.store(0, Ordering::Relaxed);
}

/// Fetch `key` from the trace cache or record it with `record`.
fn cached(key: String, record: impl FnOnce() -> WorkloadOutput) -> Arc<WorkloadOutput> {
    TRACES
        .fetch(key, || Some(record()))
        .expect("a recording always yields an entry")
}

/// The cache key of one streamed replay: the stream's chunk-size-invariant
/// digest plus the machine configuration tag (the same stream replays
/// differently on different machines).
pub fn stream_key(digest: u64, machine_tag: &str) -> String {
    format!("stream|{digest:016x}|{machine_tag}")
}

/// Fetch a streamed replay result from the cache or compute it with `run`
/// (which replays the stream through `machine::try_simulate_stream`).
///
/// Shares the trace cache's counter ledger and eviction rule, bounded by
/// entry count (reports are small), so the [`MemoCounters`] invariants
/// hold across every cache combined.
pub fn stream_cached(
    key: String,
    run: impl FnOnce() -> machine::StreamReport,
) -> Arc<machine::StreamReport> {
    STREAMS
        .fetch(key, || Some(run()))
        .expect("a replay always yields an entry")
}

/// The cache key of one candidate-plan evaluation: the workload, the
/// machine configuration tag and the plan's canonical signature. Equal
/// plans have equal signatures, so the hill-climb's revisits — and
/// parallel jobs racing on the same candidate — collapse onto one key.
pub fn plan_key(workload: &str, machine_tag: &str, plan: &PrestorePlan) -> String {
    format!("plan|{workload}|{machine_tag}|{}", plan.signature())
}

/// Fetch a candidate-plan replay result from the cache or compute it with
/// `run` (which rewrites the base trace via [`dirtbuster::apply_plan`] and
/// replays it through `machine::try_simulate`).
///
/// A failed replay (`run` returns `None`) is booked as a miss *without* an
/// insert — the same accounting as a lost recording race — so the shared
/// [`MemoCounters`] invariants (`hits + misses == lookups`,
/// `evictions <= inserts <= misses`) hold whether or not every candidate
/// replays cleanly. Failures are not negatively cached: a revisit retries.
pub fn plan_cached(
    key: String,
    run: impl FnOnce() -> Option<machine::RunStats>,
) -> Option<Arc<machine::RunStats>> {
    PLANS.fetch(key, run)
}

fn recommendation_for(mode: PrestoreMode) -> Option<Recommendation> {
    match mode {
        PrestoreMode::None => None,
        PrestoreMode::Clean => Some(Recommendation::Clean),
        PrestoreMode::Demote => Some(Recommendation::Demote),
        PrestoreMode::Skip => Some(Recommendation::Skip),
    }
}

/// Rewrite `base` (a `PrestoreMode::None` recording) as the workload would
/// have recorded itself under `mode`, by patching every function in
/// `funcs` — the workload's `write_with_mode` call sites.
fn derive_variant(
    base: &WorkloadOutput,
    funcs: &[&str],
    mode: PrestoreMode,
) -> WorkloadOutput {
    let rec = recommendation_for(mode).expect("deriving the baseline from itself");
    let mut plan = PrestorePlan::empty();
    for (id, info) in base.registry.iter() {
        if funcs.contains(&info.name.as_str()) {
            plan.force(id, rec);
        }
    }
    assert!(
        !plan.is_empty(),
        "derivation plan matched no functions among {funcs:?}"
    );
    DERIVED.fetch_add(1, Ordering::Relaxed);
    let start = std::time::Instant::now();
    let traces = {
        let _timed = simcore::telemetry::span(&probes::DERIVE);
        apply_plan(&base.traces, &plan)
    };
    DERIVE_NS.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
    WorkloadOutput { traces, registry: base.registry.clone(), ops: base.ops }
}

/// The generic memoized mode-sweep entry point: baseline recordings are
/// cached under `key_base`, non-baseline modes are derived from the
/// cached baseline by rewriting the functions in `funcs` and cached under
/// `key_base|mode`.
fn mode_variant(
    key_base: String,
    mode: PrestoreMode,
    funcs: &'static [&'static str],
    record: impl Fn(PrestoreMode) -> WorkloadOutput,
) -> Arc<WorkloadOutput> {
    if mode == PrestoreMode::None {
        return cached(key_base, || record(PrestoreMode::None));
    }
    cached(format!("{key_base}|{mode:?}"), || {
        let base = cached(key_base, || record(PrestoreMode::None));
        derive_variant(&base, funcs, mode)
    })
}

/// Listing 1 with memoized baseline; mode variants derived via the
/// `memcpy` write site.
pub fn listing1(p: &Listing1Params, mode: PrestoreMode) -> Arc<WorkloadOutput> {
    mode_variant(format!("listing1|{p:?}"), mode, &["memcpy"], |m| record_listing1(p, m))
}

/// Listing 2 with memoized baseline; the demote variant is derived.
pub fn listing2(p: &Listing2Params, demote: bool) -> Arc<WorkloadOutput> {
    let mode = if demote { PrestoreMode::Demote } else { PrestoreMode::None };
    mode_variant(format!("listing2|{p:?}"), mode, &["listing2::loop"], |m| {
        record_listing2(p, m == PrestoreMode::Demote)
    })
}

/// Listing 3 with memoized baseline; the clean variant is derived.
pub fn listing3(iters: u64, clean: bool) -> Arc<WorkloadOutput> {
    let mode = if clean { PrestoreMode::Clean } else { PrestoreMode::None };
    mode_variant(format!("listing3|{iters}"), mode, &["listing3::loop"], |m| {
        record_listing3(iters, m == PrestoreMode::Clean)
    })
}

/// CLHT under YCSB; mode variants derived via the `craftValue` write site.
pub fn clht(p: &YcsbParams, mode: PrestoreMode) -> Arc<WorkloadOutput> {
    mode_variant(format!("clht|{p:?}"), mode, &["craftValue"], |m| run_clht(p, m))
}

/// Masstree under YCSB; mode variants derived via `craftValue`.
pub fn masstree(p: &YcsbParams, mode: PrestoreMode) -> Arc<WorkloadOutput> {
    mode_variant(format!("masstree|{p:?}"), mode, &["craftValue"], |m| run_masstree(p, m))
}

/// The X9 ring; mode variants derived via the `fill_msg` write site.
pub fn x9(p: &X9Params, mode: PrestoreMode) -> Arc<WorkloadOutput> {
    mode_variant(format!("x9|{p:?}"), mode, &["fill_msg"], |m| record_x9(p, m))
}

/// The tensor training step; mode variants derived via the shared
/// evaluator instantiation.
pub fn tensor(p: &TensorParams, mode: PrestoreMode) -> Arc<WorkloadOutput> {
    mode_variant(
        format!("tensor|{p:?}"),
        mode,
        &["Eigen::TensorEvaluator<...<op>...>::run"],
        |m| training_step(p, m),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The cache is process-global; serialize the tests that clear it.
    static LOCK: Mutex<()> = Mutex::new(());

    fn assert_traces_equal(native: &WorkloadOutput, derived: &WorkloadOutput, what: &str) {
        assert_eq!(
            native.traces.threads.len(),
            derived.traces.threads.len(),
            "{what}: thread count"
        );
        for (tid, (n, d)) in
            native.traces.threads.iter().zip(&derived.traces.threads).enumerate()
        {
            assert_eq!(n.events, d.events, "{what}: thread {tid} events differ");
        }
        assert_eq!(native.ops, derived.ops, "{what}: ops");
    }

    /// The load-bearing property: for every derivable workload and mode,
    /// rewriting the baseline gives exactly the trace a native recording
    /// under that mode produces.
    #[test]
    fn derived_traces_match_native_recordings() {
        let _g = LOCK.lock().expect("no memo test panicked while holding the lock");
        clear();
        let modes = [PrestoreMode::Clean, PrestoreMode::Demote, PrestoreMode::Skip];

        let p1 = Listing1Params::quick();
        for mode in modes {
            assert_traces_equal(
                &record_listing1(&p1, mode),
                &listing1(&p1, mode),
                &format!("listing1/{mode:?}"),
            );
        }

        let p2 = Listing2Params::quick();
        assert_traces_equal(&record_listing2(&p2, true), &listing2(&p2, true), "listing2");
        assert_traces_equal(&record_listing3(500, true), &listing3(500, true), "listing3");

        let pk = YcsbParams::quick();
        for mode in modes {
            assert_traces_equal(
                &run_clht(&pk, mode),
                &clht(&pk, mode),
                &format!("clht/{mode:?}"),
            );
            assert_traces_equal(
                &run_masstree(&pk, mode),
                &masstree(&pk, mode),
                &format!("masstree/{mode:?}"),
            );
        }

        let px = X9Params::quick();
        for mode in [PrestoreMode::Clean, PrestoreMode::Demote] {
            assert_traces_equal(
                &record_x9(&px, mode),
                &x9(&px, mode),
                &format!("x9/{mode:?}"),
            );
        }

        let pt = TensorParams::quick();
        for mode in modes {
            assert_traces_equal(
                &training_step(&pt, mode),
                &tensor(&pt, mode),
                &format!("tensor/{mode:?}"),
            );
        }
        clear();
    }

    #[test]
    fn baseline_recordings_are_cached() {
        let _g = LOCK.lock().expect("no memo test panicked while holding the lock");
        clear();
        let p = Listing1Params::quick();
        let a = listing1(&p, PrestoreMode::None);
        let before = counters();
        let b = listing1(&p, PrestoreMode::None);
        let after = counters();
        assert!(Arc::ptr_eq(&a, &b), "second lookup must share the recording");
        assert_eq!(after.hits, before.hits + 1);
        assert_eq!(after.misses, before.misses);
        clear();
    }

    #[test]
    fn eviction_keeps_the_cache_bounded() {
        let _g = LOCK.lock().expect("no memo test panicked while holding the lock");
        clear();
        // Record more than the budget in distinct keys.
        let mut p = Listing1Params::quick();
        for i in 0..6 {
            p.seed = i + 100;
            let _ = listing1(&p, PrestoreMode::None);
        }
        let guard = TRACES.lock();
        let inner = guard.as_ref().expect("cache populated");
        assert!(inner.weight <= MAX_CACHED_EVENTS || inner.map.len() == 1);
        assert_eq!(inner.map.len(), inner.order.len());
        drop(guard);
        clear();
    }

    /// Satellite: the counter ledger must reconcile even while the FIFO
    /// budget is actively evicting — every lookup is a hit or a miss,
    /// nothing is evicted that was never inserted, and race losers never
    /// inflate the insert count.
    #[test]
    fn counters_reconcile_under_capacity_pressure() {
        let _g = LOCK.lock().expect("no memo test panicked while holding the lock");
        clear();
        // One event of budget: every insert but the newest is evicted.
        TRACES.set_capacity(1);
        let mut p = Listing1Params::quick();
        for i in 0..4 {
            p.seed = 300 + i;
            let first = listing1(&p, PrestoreMode::None);
            // Immediate re-lookup hits: the newest entry survives eviction.
            let second = listing1(&p, PrestoreMode::None);
            assert!(Arc::ptr_eq(&first, &second));
        }
        // Re-recording an evicted key is a miss again, not an error.
        p.seed = 300;
        let _ = listing1(&p, PrestoreMode::None);
        let c = counters();
        assert_eq!(c.hits + c.misses, c.lookups, "every lookup is a hit or a miss: {c:?}");
        assert!(c.evictions <= c.inserts, "evicted more than was inserted: {c:?}");
        assert!(c.inserts <= c.misses, "inserted without a miss: {c:?}");
        assert!(c.evictions > 0, "a one-event budget must evict: {c:?}");
        assert_eq!(c.hits, 4, "each seed's immediate re-lookup hits: {c:?}");
        assert_eq!(c.misses, 5, "four first recordings plus one re-recording: {c:?}");
        TRACES.set_capacity(MAX_CACHED_EVENTS);
        clear();
    }

    /// Satellite: the streaming-result cache books its digest-keyed hits,
    /// misses, inserts and evictions through the same ledger, and the
    /// combined counters still reconcile.
    #[test]
    fn stream_results_share_the_counter_ledger() {
        let _g = LOCK.lock().expect("no memo test panicked while holding the lock");
        clear();
        STREAMS.set_capacity(2);
        let cfg = machine::MachineConfig::machine_a();
        let report_for = |seed: u64| {
            let p = workloads::kv::ServingParams {
                seed,
                ..workloads::kv::ServingParams::quick()
            };
            let mut src = workloads::kv::KvServingSource::new(p);
            let digest = simcore::stream::digest_source(&mut src, 4096);
            stream_cached(stream_key(digest, "machine_a"), || {
                machine::try_simulate_stream(&cfg, &mut src).expect("serving stream replays")
            })
        };
        let a = report_for(1);
        let b = report_for(1);
        assert!(Arc::ptr_eq(&a, &b), "same digest must share the report");
        assert_eq!(a.digest, b.digest);
        let c = counters();
        assert_eq!(c.hits, 1);
        assert_eq!(c.misses, 1);
        // A trace-cache lookup interleaves with stream lookups in the
        // same ledger.
        let _ = listing3(200, false);
        // Two more digests overflow the 2-entry bound and evict.
        let _ = report_for(2);
        let _ = report_for(3);
        let c = counters();
        assert_eq!(c.hits + c.misses, c.lookups, "{c:?}");
        assert!(c.inserts <= c.misses, "{c:?}");
        assert!(c.evictions <= c.inserts, "{c:?}");
        assert!(c.evictions >= 1, "2-entry bound must evict: {c:?}");
        // The evicted first digest re-records as a miss, hitting nothing.
        let hits_before = counters().hits;
        let _ = report_for(1);
        assert_eq!(counters().hits, hits_before);
        STREAMS.set_capacity(MAX_STREAM_RESULTS);
        clear();
    }

    /// Satellite: the plan-result cache with the `--auto` search loop as
    /// its client. Many parallel jobs hammer the *same* few candidate
    /// plans — exactly what a search generation does — and the shared
    /// ledger must still reconcile: every lookup is a hit or a miss, race
    /// losers are dropped without an insert, eviction never exceeds
    /// insertion, and identical keys share one replay.
    #[test]
    fn plan_results_reconcile_under_parallel_hammering() {
        let _g = LOCK.lock().expect("no memo test panicked while holding the lock");
        clear();
        let prev_jobs = simcore::par::parallelism();
        simcore::par::set_parallelism(4);

        let base = listing3(400, false);
        let cfg = machine::MachineConfig::machine_a();
        let site = base
            .registry
            .iter()
            .find(|(_, info)| info.name == "listing3::loop")
            .map(|(id, _)| id)
            .expect("listing3 registers its loop");
        // Three distinct candidate plans, hammered by 24 jobs: every job
        // evaluates candidate i % 3, so each plan is requested 8 times.
        let plans: Vec<PrestorePlan> = [
            Recommendation::NoPrestore,
            Recommendation::Clean,
            Recommendation::Demote,
        ]
        .iter()
        .map(|&rec| {
            let mut p = PrestorePlan::empty();
            p.force(site, rec);
            p
        })
        .collect();
        let results: Vec<Option<Arc<machine::RunStats>>> =
            simcore::par::map_indexed(24, |i| {
                let plan = &plans[i % 3];
                plan_cached(plan_key("listing3", "machine_a", plan), || {
                    machine::try_simulate(&cfg, &apply_plan(&base.traces, plan)).ok()
                })
            });
        assert!(results.iter().all(Option::is_some), "every candidate replays");
        // Identical keys resolve to the same cached replay.
        for w in results.chunks(3).collect::<Vec<_>>().windows(2) {
            for (k, (a, b)) in w[0].iter().zip(w[1]).enumerate() {
                let a = a.as_ref().expect("replayed");
                let b = b.as_ref().expect("replayed");
                assert!(Arc::ptr_eq(a, b), "candidate {k} must share one replay");
            }
        }
        let c = counters();
        assert_eq!(c.hits + c.misses, c.lookups, "every lookup is a hit or a miss: {c:?}");
        assert!(c.inserts <= c.misses, "race losers must not inflate inserts: {c:?}");
        assert!(c.evictions <= c.inserts, "evicted more than was inserted: {c:?}");
        // 25 lookups (one recording + 24 evaluations); the ample default
        // bound never evicts, so each distinct key (+ the recording)
        // inserts exactly once no matter how the 24 jobs raced.
        assert_eq!(c.lookups, 25, "{c:?}");
        assert!(c.inserts <= 4, "one insert per distinct key: {c:?}");
        assert_eq!(c.evictions, 0, "default bound must not evict here: {c:?}");

        // Shrink the bound: the next insert overflows the 3 resident
        // plans down to 2 entries, booking evictions through the ledger.
        PLANS.set_capacity(2);
        let mut skip = PrestorePlan::empty();
        skip.force(site, Recommendation::Skip);
        let _ = plan_cached(plan_key("listing3", "machine_a", &skip), || {
            machine::try_simulate(&cfg, &apply_plan(&base.traces, &skip)).ok()
        });
        let c = counters();
        assert!(c.evictions >= 1, "2-entry bound must evict: {c:?}");
        assert!(c.evictions <= c.inserts, "{c:?}");
        assert_eq!(c.hits + c.misses, c.lookups, "{c:?}");

        // A failed replay is a miss without an insert and is not
        // negatively cached.
        let inserts_before = counters().inserts;
        assert!(plan_cached("plan|broken|machine_a|-".to_owned(), || None).is_none());
        let c = counters();
        assert_eq!(c.inserts, inserts_before, "failed replays must not insert: {c:?}");
        assert_eq!(c.hits + c.misses, c.lookups, "{c:?}");

        simcore::par::set_parallelism(prev_jobs);
        PLANS.set_capacity(MAX_PLAN_RESULTS);
        clear();
    }
}
