//! Zero-dependency metrics and tracing, compiled into every build.
//!
//! The replay pipeline's only observable output used to be end-of-run
//! [`RunStats`]-style aggregates; everything between — eviction ordering,
//! pre-store action mix, store-buffer drain pressure, sweep-runner queue
//! times, memo-cache churn — was invisible until an output diverged. This
//! module is the measurement surface: a process-global registry of
//! counters, gauges, monotonic spans and log-linear [`Histogram`]s that
//! every crate in the workspace can feed without new dependencies, plus
//! the [`SiteTable`] the engine uses for per-site attribution.
//!
//! # No atomic below the replay
//!
//! A registry probe is an atomic (a [`Metric`]) or a locked table entry
//! (a published [`Histogram`]), so it is only touched at replay
//! granularity or coarser: once per replay, per sweep job, per memo
//! lookup. Anything reached from the replay engine's step loop records
//! into a plain per-run field instead — a `u64` or a [`Histogram`] owned
//! by the engine or by the component it drives — and the engine publishes
//! those fields once, when the replay returns. A [`Histogram`] is a plain
//! value: [`Histogram::record`] is four non-atomic adds, and [`publish`]
//! merges it into the registry's histogram of the same name.
//!
//! # Registry design
//!
//! Metrics are `static`s owned by their probe site. On the first update
//! a metric pushes `&'static self` onto a `Mutex<Vec<_>>` registry (an
//! `AtomicBool` keeps the fast path to one relaxed load); after that,
//! updates are plain relaxed `fetch_add`s with no locking. Histograms are
//! registered by name on their first non-empty [`publish`]. [`snapshot`]
//! and [`hist_snapshot`] walk their registries and return samples sorted
//! by name — registration order depends on which probe fired first and is
//! deliberately not part of the output, which is what keeps `--metrics`
//! JSON byte-stable across runs and thread schedules.
//!
//! # Examples
//!
//! ```
//! use simcore::telemetry::{self, Histogram, Metric};
//!
//! static RUNS: Metric = Metric::counter("example.runs");
//! static RUN_TIME: Metric = Metric::span("example.run");
//!
//! // Per-event values land in a plain histogram owned by the run...
//! let mut sizes = Histogram::new("example.write_bytes");
//! {
//!     let _timed = telemetry::span(&RUN_TIME);
//!     for bytes in [64, 128, 64] {
//!         sizes.record(bytes);
//!     }
//! }
//! // ...and reach the registry once, when the run ends.
//! RUNS.inc();
//! telemetry::publish(&sizes);
//! assert!(telemetry::snapshot().iter().any(|m| m.name == "example.runs"));
//! let published = telemetry::hist_snapshot();
//! assert!(published.iter().any(|h| h.name == "example.write_bytes" && h.count == 3));
//! ```
//!
//! [`RunStats`]: crate::stats

pub mod flight;
pub mod timeseries;

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// What a [`Metric`] measures — how to interpret its `value`/`count` pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum MetricKind {
    /// `value` is a monotonically increasing total; `count` the number of
    /// increments.
    Counter,
    /// `value` is the last (or maximum) level recorded; `count` the number
    /// of recordings.
    Gauge,
    /// `value` is total nanoseconds spent inside the span; `count` the
    /// number of entries.
    Span,
}

impl MetricKind {
    /// Stable lowercase name for reports (`"counter"`, `"gauge"`,
    /// `"span"`).
    pub fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Span => "span",
        }
    }
}

/// One metric's state as read by [`snapshot`].
#[derive(Debug, Clone)]
pub struct MetricSample {
    /// The metric's registered name (dotted, e.g. `"engine.replays"`).
    pub name: &'static str,
    /// How to interpret [`MetricSample::value`].
    pub kind: MetricKind,
    /// Counter total, gauge level, or span total-nanoseconds.
    pub value: u64,
    /// Number of updates that produced `value`.
    pub count: u64,
}

/// Number of buckets in every [`Histogram`]: bucket 0 holds the value 0,
/// bucket `i` (1 ≤ i ≤ 62) holds `[2^(i-1), 2^i)`, and the last bucket
/// holds everything from `2^62` up.
pub const HIST_BUCKETS: usize = 64;

/// The bucket a value lands in — the log-linear power-of-two layout shared
/// by every [`Histogram`]. Monotone in `v` (pinned by property tests).
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        (64 - v.leading_zeros() as usize).min(HIST_BUCKETS - 1)
    }
}

/// Smallest value that lands in bucket `i`.
///
/// # Panics
///
/// Panics if `i >= HIST_BUCKETS`.
pub fn bucket_lower_bound(i: usize) -> u64 {
    assert!(i < HIST_BUCKETS, "bucket {i} out of range");
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

/// Largest value that lands in bucket `i`.
///
/// # Panics
///
/// Panics if `i >= HIST_BUCKETS`.
pub fn bucket_upper_bound(i: usize) -> u64 {
    assert!(i < HIST_BUCKETS, "bucket {i} out of range");
    match i {
        0 => 0,
        i if i == HIST_BUCKETS - 1 => u64::MAX,
        i => (1u64 << i) - 1,
    }
}

/// A log-linear histogram: 64 power-of-two buckets (see
/// [`bucket_index`]) plus exact count, sum and max. A plain value —
/// recorded without atomics by whoever owns it, merged into the registry
/// by [`publish`], and read back by [`hist_snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// The histogram's name (dotted, e.g. `"engine.stall_cycles"`).
    pub name: &'static str,
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Largest recorded value (exact, not bucketed; 0 when empty).
    pub max: u64,
    /// Per-bucket counts in the [`bucket_index`] layout.
    pub buckets: [u64; HIST_BUCKETS],
}

impl Histogram {
    /// An empty histogram named `name`.
    pub const fn new(name: &'static str) -> Self {
        Self { name, count: 0, sum: 0, max: 0, buckets: [0; HIST_BUCKETS] }
    }

    /// Record one value.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.count += 1;
        self.sum += v;
        self.max = self.max.max(v);
        self.buckets[bucket_index(v)] += 1;
    }

    /// Fold `other` into `self`. `merge(a, b)` equals recording the
    /// concatenation of both value streams (pinned by property tests).
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
    }

    /// The upper bound of the bucket holding the `q`-th percentile value
    /// (clamped to the exact recorded maximum), or 0 when empty. The true
    /// quantile is bracketed within one bucket:
    /// `bucket_lower_bound(i) <= true_quantile <= percentile(q)` for the
    /// returned bucket `i`.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                return bucket_upper_bound(i).min(self.max);
            }
        }
        self.max
    }

    /// Median (see [`Histogram::percentile`]).
    pub fn p50(&self) -> u64 {
        self.percentile(50.0)
    }

    /// 90th percentile (see [`Histogram::percentile`]).
    pub fn p90(&self) -> u64 {
        self.percentile(90.0)
    }

    /// 99th percentile (see [`Histogram::percentile`]).
    pub fn p99(&self) -> u64 {
        self.percentile(99.0)
    }

    /// 99.9th percentile (see [`Histogram::percentile`]) — the
    /// serving-tail quantile `kv_serving --slo` gates on.
    pub fn p999(&self) -> u64 {
        self.percentile(99.9)
    }

    /// Mean of the recorded values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// One completed [`span`] as reported to the [`SpanObserver`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// The span metric's name.
    pub name: &'static str,
    /// Start time in nanoseconds since the process's trace epoch (the
    /// first span ever created).
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Dense per-thread lane id (0, 1, 2… in thread-creation-touch order)
    /// — the `tid` of a Chrome trace event.
    pub lane: u64,
}

/// Profiling hook: installed via [`set_span_observer`], called once per
/// completed [`span`] with the full [`SpanRecord`] (name, start offset,
/// duration, thread lane) — everything a Chrome-trace exporter needs.
///
/// This is how benches subscribe to span events without the telemetry
/// layer knowing anything about them. Observers run on the thread that
/// closed the span and must be cheap. Spans close in RAII order, so per
/// lane the observed records are well-nested (children before parents).
pub trait SpanObserver: Send + Sync {
    /// One span just closed.
    fn on_span(&self, span: &SpanRecord);
}

/// A dense keyed-attribution table: per-site counter rows.
///
/// `COLS` fixed-meaning `u64` columns per site id (the caller defines the
/// column schema). Rows are allocated lazily up to the largest site id
/// touched; a row is present once one of its columns is nonzero, so
/// adding 0 creates no row. Each replay builds its own table.
/// Attribution feeds `RunStats`-style results, not the metrics registry.
///
/// # Examples
///
/// ```
/// use simcore::telemetry::SiteTable;
///
/// let mut t: SiteTable<2> = SiteTable::new();
/// t.add(3, 0, 10);
/// t.add(1, 1, 2);
/// t.add(3, 0, 5);
/// assert_eq!(t.drain_sorted(), vec![(1, [0, 2]), (3, [15, 0])]);
/// assert!(t.drain_sorted().is_empty(), "the drain empties the table");
/// ```
#[derive(Debug, Clone, Default)]
pub struct SiteTable<const COLS: usize> {
    /// Per site id: its counters (all zero = no row).
    rows: Vec<[u64; COLS]>,
}

impl<const COLS: usize> SiteTable<COLS> {
    /// An empty table.
    pub fn new() -> Self {
        Self { rows: Vec::new() }
    }

    /// Add `n` to column `col` of `site`'s row.
    ///
    /// Rows are dense up to the largest `site` seen — keep ids compact
    /// (e.g. interned `FuncId`s), not sparse sentinels.
    ///
    /// # Panics
    ///
    /// Panics if `col >= COLS`.
    #[inline]
    pub fn add(&mut self, site: u32, col: usize, n: u64) {
        let idx = site as usize;
        if idx >= self.rows.len() {
            self.rows.resize(idx + 1, [0; COLS]);
        }
        self.rows[idx][col] += n;
    }

    /// The row for `site`, if present.
    pub fn get(&self, site: u32) -> Option<&[u64; COLS]> {
        self.rows.get(site as usize).filter(|row| **row != [0; COLS])
    }

    /// Take every present row, sorted by site id, leaving the table empty.
    pub fn drain_sorted(&mut self) -> Vec<(u32, [u64; COLS])> {
        std::mem::take(&mut self.rows)
            .into_iter()
            .enumerate()
            .filter(|(_, row)| *row != [0; COLS])
            .map(|(site, row)| (site as u32, row))
            .collect()
    }
}

/// All metrics that have been touched at least once, in first-touch
/// order. Append-only: metrics are `static`s and never unregister.
static REGISTRY: Mutex<Vec<&'static Metric>> = Mutex::new(Vec::new());

/// Every histogram published at least once, in first-publish order.
static HISTOGRAMS: Mutex<Vec<Histogram>> = Mutex::new(Vec::new());

/// The installed span observer, with an atomic fast-path flag so spans
/// skip the lock entirely while no observer is installed.
static OBSERVER: Mutex<Option<Box<dyn SpanObserver>>> = Mutex::new(None);
static OBSERVER_SET: AtomicBool = AtomicBool::new(false);

/// The process's trace epoch: set by the first span ever created, so
/// every [`SpanRecord::start_ns`] shares one zero point.
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Dense thread-lane allocator for [`SpanRecord::lane`].
static NEXT_LANE: AtomicU64 = AtomicU64::new(0);
thread_local! {
    static LANE: u64 = NEXT_LANE.fetch_add(1, Ordering::Relaxed);
}

/// Lock a registry table, recovering the data from a poisoned lock: the
/// tables only take pushes and additive merges, so a panic mid-update
/// leaves totals that are short, never malformed.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// A process-global atomic metric (counter, gauge or span accumulator).
///
/// Declare as a `static` at the probe site; the metric registers itself
/// on first touch. All updates are relaxed atomics — telemetry is
/// additive bookkeeping, never synchronization — so keep them off any
/// per-event path (see the module docs).
#[derive(Debug)]
pub struct Metric {
    name: &'static str,
    kind: MetricKind,
    value: AtomicU64,
    count: AtomicU64,
    registered: AtomicBool,
}

impl Metric {
    const fn new(name: &'static str, kind: MetricKind) -> Self {
        Self {
            name,
            kind,
            value: AtomicU64::new(0),
            count: AtomicU64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    /// A monotonically increasing counter.
    pub const fn counter(name: &'static str) -> Self {
        Self::new(name, MetricKind::Counter)
    }

    /// A last-value (or maximum) level gauge.
    pub const fn gauge(name: &'static str) -> Self {
        Self::new(name, MetricKind::Gauge)
    }

    /// A span accumulator: total nanoseconds plus entry count, fed by
    /// [`span`] or [`Metric::record_ns`].
    pub const fn span(name: &'static str) -> Self {
        Self::new(name, MetricKind::Span)
    }

    /// The metric's name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The metric's kind.
    pub fn kind(&self) -> MetricKind {
        self.kind
    }

    /// Push onto the global registry on first touch (one relaxed load on
    /// every later call).
    #[inline]
    fn register(&'static self) {
        if !self.registered.load(Ordering::Acquire) {
            self.register_slow();
        }
    }

    #[cold]
    fn register_slow(&'static self) {
        let mut reg = lock(&REGISTRY);
        // Re-check under the lock: two threads may race the fast path.
        if !self.registered.load(Ordering::Acquire) {
            reg.push(self);
            self.registered.store(true, Ordering::Release);
        }
    }

    /// Add `n` to a counter (and bump its update count).
    #[inline]
    pub fn add(&'static self, n: u64) {
        self.register();
        self.value.fetch_add(n, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Add 1 to a counter.
    #[inline]
    pub fn inc(&'static self) {
        self.add(1);
    }

    /// Set a gauge's level.
    #[inline]
    pub fn set(&'static self, v: u64) {
        self.register();
        self.value.store(v, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Raise a gauge to `v` if `v` is above its current level.
    #[inline]
    pub fn set_max(&'static self, v: u64) {
        self.register();
        self.value.fetch_max(v, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Account `ns` nanoseconds to a span (one entry).
    #[inline]
    pub fn record_ns(&'static self, ns: u64) {
        self.register();
        self.value.fetch_add(ns, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// The current value (counter total / gauge level / span total ns).
    pub fn value(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// The number of updates so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }
}

/// RAII timer for one span entry; created by [`span`]. Records the
/// elapsed nanoseconds into its metric — and notifies the installed
/// [`SpanObserver`], if any — when dropped.
#[must_use = "a span measures the scope it is alive for"]
#[derive(Debug)]
pub struct SpanGuard {
    metric: &'static Metric,
    start: Instant,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let ns = self.start.elapsed().as_nanos() as u64;
        self.metric.record_ns(ns);
        if OBSERVER_SET.load(Ordering::Acquire) {
            // `span` initialized the epoch before capturing `start`, so
            // the subtraction never saturates in practice.
            let epoch = *EPOCH.get_or_init(Instant::now);
            let record = SpanRecord {
                name: self.metric.name,
                start_ns: self.start.saturating_duration_since(epoch).as_nanos() as u64,
                dur_ns: ns,
                lane: LANE.with(|l| *l),
            };
            if let Some(obs) = lock(&OBSERVER).as_deref() {
                obs.on_span(&record);
            }
        }
    }
}

/// Time the enclosing scope into `metric` (which should be a
/// [`Metric::span`]).
#[inline]
pub fn span(metric: &'static Metric) -> SpanGuard {
    // Pin the process trace epoch at or before every span start so
    // `SpanRecord::start_ns` offsets share one zero point.
    let _ = EPOCH.get_or_init(Instant::now);
    SpanGuard { metric, start: Instant::now() }
}

/// Merge `h` into the registry's histogram of the same name, registering
/// the name on its first non-empty publish (an empty `h` is skipped, so a
/// name only appears once something was recorded under it). Owners call
/// this once per run with the values they recorded in plain fields.
pub fn publish(h: &Histogram) {
    if h.count == 0 {
        return;
    }
    let mut reg = lock(&HISTOGRAMS);
    match reg.iter_mut().find(|r| r.name == h.name) {
        Some(r) => r.merge(h),
        None => reg.push(h.clone()),
    }
}

/// Sample every registered metric, sorted by name (registration order is
/// racy and deliberately not exposed).
pub fn snapshot() -> Vec<MetricSample> {
    let mut out: Vec<MetricSample> = lock(&REGISTRY)
        .iter()
        .map(|m| MetricSample {
            name: m.name(),
            kind: m.kind(),
            value: m.value(),
            count: m.count(),
        })
        .collect();
    out.sort_by_key(|s| s.name);
    out
}

/// Every registered histogram, sorted by name.
pub fn hist_snapshot() -> Vec<Histogram> {
    let mut out = lock(&HISTOGRAMS).clone();
    out.sort_by_key(|h| h.name);
    out
}

/// Zero every registered metric and histogram (they stay registered).
/// Used between measurement passes so a snapshot covers exactly one run.
pub fn reset() {
    for m in lock(&REGISTRY).iter() {
        m.value.store(0, Ordering::Relaxed);
        m.count.store(0, Ordering::Relaxed);
    }
    for h in lock(&HISTOGRAMS).iter_mut() {
        *h = Histogram::new(h.name);
    }
}

/// Install (or with `None` remove) the process-global span observer.
pub fn set_span_observer(obs: Option<Box<dyn SpanObserver>>) {
    let mut guard = lock(&OBSERVER);
    OBSERVER_SET.store(obs.is_some(), Ordering::Release);
    *guard = obs;
}

#[cfg(test)]
mod tests {
    use super::*;

    static COUNTER: Metric = Metric::counter("test.counter");
    static GAUGE: Metric = Metric::gauge("test.gauge");
    static SPAN: Metric = Metric::span("test.span");

    #[test]
    fn counters_accumulate() {
        let before = COUNTER.value();
        COUNTER.inc();
        COUNTER.add(4);
        assert_eq!(COUNTER.value(), before + 5);
        assert!(COUNTER.count() >= 2);
        let snap = snapshot();
        let s = snap
            .iter()
            .find(|s| s.name == "test.counter")
            .expect("touched metric must be registered");
        assert_eq!(s.kind, MetricKind::Counter);
    }

    #[test]
    fn gauges_track_levels() {
        GAUGE.set(7);
        GAUGE.set_max(3); // below: stays
        GAUGE.set_max(11); // above: raises
        assert_eq!(GAUGE.value(), 11);
    }

    #[test]
    fn spans_time_and_notify_the_observer() {
        static SEEN: AtomicU64 = AtomicU64::new(0);
        struct Count;
        impl SpanObserver for Count {
            fn on_span(&self, span: &SpanRecord) {
                if span.name == "test.span" {
                    SEEN.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        set_span_observer(Some(Box::new(Count)));
        let before = SPAN.count();
        {
            let _g = span(&SPAN);
        }
        set_span_observer(None);
        assert_eq!(SPAN.count(), before + 1);
        assert_eq!(SEEN.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn snapshot_is_sorted_and_reset_zeroes() {
        COUNTER.inc();
        GAUGE.set(5);
        let snap = snapshot();
        let names: Vec<_> = snap.iter().map(|s| s.name).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted, "snapshot must be name-sorted");
        // `reset` zeroes values but keeps registration; other tests run
        // concurrently, so only assert on our own metrics' reachability.
        reset();
        assert!(snapshot().iter().any(|s| s.name == "test.counter"));
    }

    #[test]
    fn kind_names_are_stable() {
        assert_eq!(MetricKind::Counter.as_str(), "counter");
        assert_eq!(MetricKind::Gauge.as_str(), "gauge");
        assert_eq!(MetricKind::Span.as_str(), "span");
    }

    #[test]
    fn bucket_layout_is_power_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), HIST_BUCKETS - 1);
        for i in 0..HIST_BUCKETS {
            assert_eq!(bucket_index(bucket_lower_bound(i)), i, "lower bound of bucket {i}");
            assert_eq!(bucket_index(bucket_upper_bound(i)), i, "upper bound of bucket {i}");
        }
    }

    #[test]
    fn published_histograms_merge_by_name() {
        let mut a = Histogram::new("test.hist");
        a.record(1);
        a.record(100);
        let mut b = Histogram::new("test.hist");
        b.record(100_000);
        publish(&a);
        publish(&b);
        publish(&Histogram::new("test.never_recorded"));
        let snap = hist_snapshot();
        let names: Vec<_> = snap.iter().map(|s| s.name).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted, "hist snapshot must be name-sorted");
        assert!(!names.contains(&"test.never_recorded"), "empty publishes register nothing");
        let h = snap.iter().find(|s| s.name == "test.hist").expect("published histogram");
        // Other tests may reset the registry concurrently, so bound
        // rather than pin the merged totals.
        assert!(h.count <= 3 && h.max <= 100_000);
        reset();
        let h = hist_snapshot()
            .into_iter()
            .find(|s| s.name == "test.hist")
            .expect("reset keeps registration");
        assert_eq!(h, Histogram::new("test.hist"));
    }

    #[test]
    fn histogram_percentiles_bracket() {
        let mut s = Histogram::new("t");
        assert_eq!(s.percentile(50.0), 0);
        for v in [1u64, 2, 3, 100, 1000] {
            s.record(v);
        }
        // p50 of {1,2,3,100,1000}: true median 3 lives in bucket 2 ([2,3]).
        assert_eq!(s.p50(), 3);
        // p99 clamps to the exact max.
        assert_eq!(s.p99(), 1000);
        assert_eq!(s.max, 1000);
        assert_eq!(s.sum, 1106);
        assert!((s.mean() - 221.2).abs() < 1e-9);
    }

    #[test]
    fn site_table_adds_and_drains() {
        let mut t: SiteTable<3> = SiteTable::new();
        t.add(5, 0, 7);
        t.add(2, 2, 1);
        t.add(5, 0, 3);
        t.add(7, 1, 0);
        assert_eq!(t.get(5), Some(&[10, 0, 0]));
        assert_eq!(t.get(4), None, "a site below the largest one, never touched");
        assert_eq!(t.get(7), None, "adding 0 creates no row");
        assert_eq!(t.get(9), None);
        let drained = t.drain_sorted();
        assert_eq!(drained, vec![(2, [0, 0, 1]), (5, [10, 0, 0])]);
        assert_eq!(t.get(5), None, "the drain empties the table");
        t.add(5, 1, 9);
        assert_eq!(t.get(5), Some(&[0, 9, 0]), "a drained row restarts from zero");
    }
}
