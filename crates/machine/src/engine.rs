//! The trace-replay engine: cycle-accounted execution of workload traces
//! on a simulated machine.
//!
//! # Timing model
//!
//! Each core owns a local clock, a store buffer, a private L1 and a pool of
//! write-combining buffers; all cores share the LLC and the memory device.
//! Cores are interleaved by always stepping the core with the smallest
//! local clock, so shared-cache contention follows simulated time.
//!
//! Latency effects (fence stalls, ownership acquisition, writeback-in-
//! flight conflicts) are accounted on the core clocks. Bandwidth effects
//! are analytic: the device's media-busy time is computed from the bytes it
//! actually moved, and the run time is the slower of the CPU critical path
//! and the media busy time. This hybrid keeps the simulation deterministic
//! and fast while reproducing both of the paper's problem scenarios.
//!
//! # Store visibility
//!
//! Stores retire into the store buffer and become visible when *drained*:
//! the core acquires the line in exclusive state (directory update + line
//! fill, both charged at the home device's latency) and the line lands
//! dirty in its L1. Drains are pipelined: consecutive drains can overlap,
//! separated by an initiation interval, but each drain takes its full
//! ownership latency to complete. Under [`MemModel::Tso`] drains start at
//! issue; under [`MemModel::Weak`] they start at the first fence, atomic,
//! capacity stall — or *demote* pre-store.
//!
//! # One replay loop
//!
//! Every entry point — materialized or streamed, plain, classified or
//! crash-armed — steps events through the same scheduler loop, fed by one
//! of two private event feeds (whole traces, or an [`EventSource`] pulled
//! through bounded chunk windows).

use crate::config::{MachineConfig, MemModel};
use crate::crash::{CrashImage, CrashOutcome, CrashReport, LostSite, CRASH_COLS};
use crate::error::{BlockedAcquire, EngineError};
use crate::stats::{site_col, ts_channel, CoreStats, RunStats, SiteCounters, SITE_COLS, TS_CAPACITY, TS_CHANNELS};
use crate::tables::{take_scratch, FlatTables, HashTables, LineTables, MAX_CORES};
use cachesim::{Cache, StoreBuffer, WriteCombiningBuffer};
use cachesim::wcbuf::WcFlush;
use memdev::{Device, MemDevice};
use simcore::faultinject::CrashPlan;
use simcore::telemetry::flight::{FlightEvent, FlightKind, FlightRing, FLIGHT_CAPACITY};
use simcore::telemetry::timeseries::TimeSeries;
use simcore::telemetry::{HistogramSample, SiteTable};
use simcore::stream::{EventSource, StreamFeed};
use simcore::{
    align_down, blocks_touched, Addr, CoreId, Cycles, Event, EventKind, FuncId, FxHashMap,
    FxHashSet, InternedTraces, LineId, LineInterner, RequestClasses, ThreadTrace, TraceSet,
};

/// Floor added to the derived step budget so tiny traces with legitimate
/// acquire retries never trip the watchdog.
pub(crate) const STEP_BUDGET_FLOOR: u64 = 1_000_000;

/// Streams tracked by the per-core hardware prefetcher.
const STREAM_TRACKERS: usize = 16;

/// Latency divisor for stream-prefetched device reads (the prefetcher
/// keeps this many line fills in flight on a detected stream).
const STREAM_MLP: Cycles = 16;

/// Where the replay loop's events come from: a window of events per core,
/// each event with its pre-resolved line-id run, and the interner that
/// resolved them.
///
/// The two feeds differ in one error rule. [`Materialized`] input is
/// validated whole before replay, so an acquire that the trace set's
/// releases can never satisfy is rejected up front as
/// [`EngineError::AcquireUnsatisfiable`]. A [`Streamed`] source's future
/// releases are unknowable, so the same input replays until every
/// unfinished core is blocked and fails as [`EngineError::ReplayDeadlock`]
/// (a blocked core cannot fetch past its acquire, so a release in its own
/// unfetched chunks could never help).
trait Feed {
    /// Whether `cid` has nothing left to fetch beyond its current window.
    fn exhausted(&self, cid: CoreId) -> bool;
    /// Replace `cid`'s spent window with its next chunk.
    fn refill(&mut self, cid: CoreId) -> Result<(), EngineError>;
    /// One past the last event index of `cid` fetched so far.
    fn end(&self, cid: CoreId) -> usize;
    /// Event `idx` of `cid` (in the current window).
    fn event(&self, cid: CoreId, idx: usize) -> Event;
    /// The pre-resolved id run of event `idx` of `cid`, in splitting order.
    fn ids(&self, cid: CoreId, idx: usize) -> &[LineId];
    /// The interner behind the ids (resolves residual and lost lines back
    /// to ids at the end of a replay).
    fn interner(&self) -> &LineInterner;
    /// Events fetched so far across all cores: the step budget's base.
    fn fetched(&self) -> usize;
}

/// Whole traces plus the interned view built from them (by
/// [`simcore::trace::validate_and_intern`] or [`TraceSet::interned_for`]).
/// Every window is a whole trace, so it never refills.
struct Materialized<'t> {
    threads: &'t [ThreadTrace],
    interned: &'t InternedTraces,
}

impl Feed for Materialized<'_> {
    #[inline]
    fn exhausted(&self, _cid: CoreId) -> bool {
        true
    }

    fn refill(&mut self, _cid: CoreId) -> Result<(), EngineError> {
        Ok(())
    }

    #[inline]
    fn end(&self, cid: CoreId) -> usize {
        self.threads[cid].events.len()
    }

    #[inline]
    fn event(&self, cid: CoreId, idx: usize) -> Event {
        self.threads[cid].events[idx]
    }

    #[inline]
    fn ids(&self, cid: CoreId, idx: usize) -> &[LineId] {
        self.interned.ids_for(cid, idx)
    }

    fn interner(&self) -> &LineInterner {
        self.interned.interner()
    }

    fn fetched(&self) -> usize {
        self.threads.iter().map(|t| t.events.len()).sum()
    }
}

/// An [`EventSource`] pulled through a [`StreamFeed`]'s bounded per-thread
/// windows: each refill validates, digests and interns one chunk.
struct Streamed<'s, S> {
    feed: StreamFeed,
    source: &'s mut S,
}

impl<S: EventSource> Feed for Streamed<'_, S> {
    #[inline]
    fn exhausted(&self, cid: CoreId) -> bool {
        self.feed.exhausted(cid)
    }

    fn refill(&mut self, cid: CoreId) -> Result<(), EngineError> {
        self.feed.refill(self.source, cid)?;
        // Coarse marker in the process-global flight ring (chunk-granular,
        // so the lock is off the step path); dumped only when a supervised
        // job fails.
        simcore::telemetry::flight::note(FlightKind::Refill, cid as u64, self.feed.fetched());
        Ok(())
    }

    #[inline]
    fn end(&self, cid: CoreId) -> usize {
        self.feed.end(cid)
    }

    #[inline]
    fn event(&self, cid: CoreId, idx: usize) -> Event {
        self.feed.event(cid, idx)
    }

    #[inline]
    fn ids(&self, cid: CoreId, idx: usize) -> &[LineId] {
        self.feed.ids(cid, idx)
    }

    fn interner(&self) -> &LineInterner {
        self.feed.interner()
    }

    fn fetched(&self) -> usize {
        self.feed.fetched() as usize
    }
}

/// Per-core mutable state.
struct CoreState {
    now: Cycles,
    sb: StoreBuffer,
    l1: Cache,
    wc: WriteCombiningBuffer,
    stats: CoreStats,
    /// Index of the next event to replay.
    pc: usize,
    /// Next expected line of each detected read stream (hardware stream
    /// prefetcher state).
    streams: std::collections::VecDeque<Addr>,
    /// Acquire this core is blocked on: (line, id, release sequence
    /// number).
    blocked: Option<(Addr, LineId, u32)>,
}

/// State of a crash-armed replay: the plan, the progress counters it
/// matches against, and the shadow state the freeze partition needs but the
/// default replay path never tracks. `Engine::crash` is `None` on ordinary
/// runs, so the step loop pays exactly one `is_some()` branch for the
/// feature.
struct CrashCtx {
    plan: CrashPlan,
    /// Fences retired since this segment started (crash-point counts
    /// restart at zero on every resume).
    fences_seen: u64,
    /// Every line address the device has received this segment (including
    /// durable lines seeded from a crash image on resume).
    received: FxHashSet<Addr>,
    /// Shadow cumulative release counts per line, carried across
    /// crash-recovery segments via the [`CrashImage`] (the engine tables'
    /// own release counts reset with each fresh engine).
    releases: FxHashMap<Addr, u32>,
}

impl CrashCtx {
    fn new(plan: CrashPlan) -> Self {
        Self {
            plan,
            fences_seen: 0,
            received: FxHashSet::default(),
            releases: FxHashMap::default(),
        }
    }
}

/// Request-classification state of a classified replay: the workload's
/// boundary state machine, one latency histogram per class, and each
/// core's clock at its previous request boundary.
struct ClassifierState {
    classifier: Box<dyn RequestClasses>,
    hist: Vec<HistogramSample>,
    req_start: Vec<Cycles>,
}

/// Flight-recorder kind of a retired trace event, or `None` for pure
/// clock advances (computes carry no memory state worth replaying in a
/// post-mortem).
fn flight_kind(kind: EventKind) -> Option<FlightKind> {
    match kind {
        EventKind::Read => Some(FlightKind::Read),
        EventKind::Write => Some(FlightKind::Write),
        EventKind::NtWrite => Some(FlightKind::NtWrite),
        EventKind::PrestoreClean | EventKind::PrestoreDemote => Some(FlightKind::Prestore),
        EventKind::Fence => Some(FlightKind::Fence),
        EventKind::Atomic => Some(FlightKind::Atomic),
        EventKind::Acquire => Some(FlightKind::Acquire),
        EventKind::Compute => None,
    }
}

/// The replay engine, built fresh by every entry point.
///
/// Generic over its per-line state representation: [`FlatTables`] (dense
/// [`LineId`]-indexed vectors fed by the feed's [`LineInterner`] — the
/// production path) or [`HashTables`] (the pre-interning per-line hash
/// maps, kept as the reference twin for equivalence tests and
/// benchmarks). Both monomorphisations replay bit-identically.
struct Engine<'a, T: LineTables = FlatTables> {
    cfg: &'a MachineConfig,
    llc: Cache,
    device: Device,
    /// Per-line bookkeeping: dirty-line ownership, in-flight writebacks
    /// (started by cleans), in-flight non-temporal stores (reading one
    /// stalls until the data lands and then pays the full device read —
    /// the §5/§7.2.1 penalty of skipping the cache for data that is
    /// re-read), release sequencing for acquire/release replay
    /// synchronization, and per-function cycle attribution.
    tables: T,
    cores: Vec<CoreState>,
    /// Reused buffer for write-combining flushes (cleared per use).
    wc_buf: Vec<WcFlush>,
    /// Reused buffer for end-of-run residual dirty lines.
    residual: Vec<Addr>,
    /// Per-replay action counts, flushed into the telemetry registry at
    /// the end of [`Engine::replay`] (plain `u64`s: the step loop pays no
    /// atomics, and with telemetry compiled out the flush is a no-op).
    acts: crate::probes::ActionCounts,
    /// Per-trace-site attribution rows (device traffic, pre-store actions,
    /// stalls), drained into [`RunStats::sites`] at end of run. Always on,
    /// like `func_cycles`: the attribution feeds results, not the metrics
    /// registry.
    sites: SiteTable<SITE_COLS>,
    /// Side row for [`FuncId::UNKNOWN`] traffic — kept out of `sites` so
    /// the sentinel id (`u16::MAX`) never forces a 64 Ki-row table.
    unknown_site: [u64; SITE_COLS],
    /// The scheduler step currently being replayed (for line-lifetime
    /// accounting against the first-dirty step tags).
    cur_step: u64,
    /// Telemetry-only device write-burst tracking: next line address that
    /// would continue the current contiguous burst, and its size so far.
    burst_next: Addr,
    burst_bytes: u64,
    /// Telemetry-only: line of the previous device write, for the
    /// eviction-distance histogram.
    prev_write_line: Option<Addr>,
    /// Power-failure injection state: `None` on ordinary runs (the default
    /// and hot path), `Some` only for [`Machine::try_run_until_crash`] /
    /// [`Machine::recover_and_resume`] replays.
    crash: Option<CrashCtx>,
    /// Simulated-time sampler over the engine's own counters (`None`
    /// unless [`MachineConfig::timeseries_window`] is set). Not the
    /// wall-clock metrics registry: this feeds [`RunStats::timeseries`],
    /// so it stays deterministic and feature-ungated.
    ts: Option<TimeSeries<TS_CHANNELS>>,
    /// Cached [`TimeSeries::next_boundary`], `u64::MAX` with sampling off:
    /// the step loop pays exactly one integer compare for the feature.
    ts_next_boundary: Cycles,
    /// Cumulative bytes of dirty data handed to the device (the
    /// [`ts_channel::DEVICE_BYTES`] feed; one add per device write).
    ts_device_bytes: u64,
    /// Per-request latency accounting (`None` on unclassified runs).
    classes: Option<ClassifierState>,
    /// Flight recorder: `Some` only on crash-armed replays, recording one
    /// event per retired step so a crash can dump what led up to it.
    flight: Option<FlightRing>,
}

/// Replay `traces` on the machine described by `cfg`.
///
/// # Panics
///
/// Panics with a formatted [`EngineError`] on replay failure (deadlocked
/// acquires, exceeded step budget). Use [`try_simulate`] to get the typed
/// error instead; unlike this function, it also validates the traces
/// statically first.
pub fn simulate(cfg: &MachineConfig, traces: &TraceSet) -> RunStats {
    let interned = traces.interned_for(cfg.line_size);
    replay_unchecked(cfg, &traces.threads, &interned)
}

/// Replay a single-threaded trace.
///
/// # Panics
///
/// Panics with a formatted [`EngineError`] on replay failure; see
/// [`try_simulate_threads`] for the fallible form.
pub fn simulate_single(cfg: &MachineConfig, trace: &ThreadTrace) -> RunStats {
    let threads = std::slice::from_ref(trace);
    replay_unchecked(cfg, threads, &InternedTraces::from_threads(threads, cfg.line_size))
}

/// Validate and replay `threads` through the hashed *reference* engine —
/// the exact pre-interning data paths ([`HashTables`], address-keyed line
/// state). Bit-identical to [`try_simulate_threads`] by construction; kept
/// callable so the equivalence suite and the `intern_vs_hash`
/// microbenchmark can always compare the two.
pub fn try_simulate_threads_reference(
    cfg: &MachineConfig,
    threads: &[ThreadTrace],
) -> Result<RunStats, EngineError> {
    if threads.is_empty() {
        return Err(EngineError::EmptyTraceSet);
    }
    check_cores(threads.len())?;
    // The reference tables key by address and ignore the interned ids.
    let interned = simcore::trace::validate_and_intern(threads, cfg.line_size)?;
    let engine = Engine::with_tables(cfg, threads.len(), HashTables::default());
    completed(engine.replay(&mut Materialized { threads, interned: &interned }))
}

/// Validate and replay `traces`, returning a typed error instead of
/// panicking on malformed input, deadlock or watchdog expiry.
///
/// Every failure is a typed [`EngineError`]:
///
/// * [`EngineError::EmptyTraceSet`] — no threads to replay.
/// * [`EngineError::TooManyCores`] — more threads than [`MAX_CORES`].
/// * [`EngineError::MalformedTrace`] — static validation rejected an
///   event (zero-size/oversize access, acquire of release #0).
/// * [`EngineError::AcquireUnsatisfiable`] — an acquire waits for more
///   releases than the trace set performs (static deadlock).
/// * [`EngineError::ReplayDeadlock`] — a circular wait surfaced at
///   replay time; the report names each blocked core, line and awaited
///   sequence number.
/// * [`EngineError::StepBudgetExceeded`] — the watchdog fired (see
///   [`MachineConfig::step_budget`]).
///
/// # Examples
///
/// ```
/// use machine::{try_simulate, EngineError, MachineConfig};
/// use simcore::{TraceSet, Tracer};
///
/// let mut t = Tracer::new();
/// t.acquire(0, 1); // nobody ever releases line 0
/// let err = try_simulate(&MachineConfig::machine_a(), &TraceSet::new(vec![t.finish()]));
/// assert!(matches!(err, Err(EngineError::AcquireUnsatisfiable { .. })));
/// ```
pub fn try_simulate(cfg: &MachineConfig, traces: &TraceSet) -> Result<RunStats, EngineError> {
    try_simulate_threads(cfg, &traces.threads)
}

/// Validate and replay a borrowed slice of per-thread traces (the
/// zero-copy core of [`try_simulate`]; nothing is cloned).
pub fn try_simulate_threads(
    cfg: &MachineConfig,
    threads: &[ThreadTrace],
) -> Result<RunStats, EngineError> {
    completed(replay_checked(cfg, threads, |_, _| {}))
}

/// [`try_simulate_threads`] with a request-boundary classifier: each
/// request's retire-to-retire simulated cycles land in the per-class
/// latency histograms of [`RunStats::request_latency`]. Classification
/// observes retired events in per-thread program order — the one order
/// shared by every replay path — so the histograms are byte-identical
/// across `--jobs`, SIMD/scalar and streaming/materialized replay. All
/// other statistics are unchanged by classification.
pub fn try_simulate_threads_classified(
    cfg: &MachineConfig,
    threads: &[ThreadTrace],
    classifier: Box<dyn RequestClasses>,
) -> Result<RunStats, EngineError> {
    completed(replay_checked(cfg, threads, |engine, _| engine.set_classifier(classifier)))
}

/// Tuning knobs for the streaming replay pipeline.
#[derive(Debug, Clone, Copy)]
pub struct StreamOptions {
    /// Target events per chunk window. Smaller chunks bound the pipeline's
    /// peak memory tighter at the cost of more refill round-trips; the
    /// replayed schedule (and therefore [`RunStats`]) is identical for any
    /// chunk size — pinned by the equivalence suite.
    pub chunk_events: usize,
}

impl Default for StreamOptions {
    fn default() -> Self {
        // 64K events ≈ 1.5 MiB of window per thread: large enough that
        // refill overhead vanishes, small enough that even wide multi-
        // tenant runs stay well under typical memory budgets.
        Self { chunk_events: 65_536 }
    }
}

/// What a streaming replay produced, beyond the stats themselves: how much
/// trace flowed through the pipeline, how it was chunked, the peak bytes
/// the pipeline held at once, and the chunk-size-invariant trace digest
/// (the memoization key — see `bench::memo`).
#[derive(Debug, Clone)]
pub struct StreamReport {
    /// The run's statistics, identical to a materialized replay of the
    /// same event stream.
    pub stats: RunStats,
    /// Total events pulled from the source across all threads.
    pub events: u64,
    /// Chunk windows fetched (refill calls that yielded events).
    pub chunks: u64,
    /// Peak bytes the chunk windows (events + interned-id runs) held at
    /// any point — the pipeline's working memory, excluding the interner
    /// and engine tables which scale with *distinct lines*, not events.
    pub peak_pipeline_bytes: u64,
    /// Chunk-size-invariant [`simcore::StreamDigest`] of the full stream.
    pub digest: u64,
}

/// Replay an [`EventSource`] chunk-by-chunk under default
/// [`StreamOptions`]: record → validate → intern → replay proceed one
/// bounded window at a time, so the full trace is never materialized.
///
/// Semantics match [`try_simulate`] exactly — same scheduler loop, same
/// step budget, same statistics — except that a statically unsatisfiable
/// acquire surfaces as [`EngineError::ReplayDeadlock`] at the point of the
/// stall rather than [`EngineError::AcquireUnsatisfiable`] up front (a
/// stream's future releases are unknowable; the runtime deadlock detector
/// covers the same inputs).
pub fn try_simulate_stream<S: EventSource>(
    cfg: &MachineConfig,
    source: &mut S,
) -> Result<StreamReport, EngineError> {
    try_simulate_stream_opts(cfg, source, StreamOptions::default())
}

/// [`try_simulate_stream`] with explicit [`StreamOptions`].
pub fn try_simulate_stream_opts<S: EventSource>(
    cfg: &MachineConfig,
    source: &mut S,
    opts: StreamOptions,
) -> Result<StreamReport, EngineError> {
    replay_source(cfg, source, opts, |_| {})
}

/// [`try_simulate_stream_opts`] with a request-boundary classifier (the
/// streaming twin of [`try_simulate_threads_classified`]): per-class
/// latency histograms land in the report's
/// [`RunStats::request_latency`], byte-identical to the materialized
/// classified replay of the same stream.
pub fn try_simulate_stream_classified<S: EventSource>(
    cfg: &MachineConfig,
    source: &mut S,
    opts: StreamOptions,
    classifier: Box<dyn RequestClasses>,
) -> Result<StreamReport, EngineError> {
    replay_source(cfg, source, opts, |engine| engine.set_classifier(classifier))
}

/// Replay `threads` through an interned view built without validation,
/// panicking with the formatted [`EngineError`] on failure.
fn replay_unchecked(
    cfg: &MachineConfig,
    threads: &[ThreadTrace],
    interned: &InternedTraces,
) -> RunStats {
    if let Err(e) = check_cores(threads.len()) {
        panic!("{e}");
    }
    let engine = Engine::new_flat(cfg, interned.interner().len(), threads.len());
    completed(engine.replay(&mut Materialized { threads, interned }))
        .unwrap_or_else(|e| panic!("{e}"))
}

/// Validate `threads`, build a flat engine for them, let `setup` arm it
/// (classifier, crash plan, recovery image; it gets the trace's interner)
/// and replay: the core of every fallible materialized entry point.
fn replay_checked(
    cfg: &MachineConfig,
    threads: &[ThreadTrace],
    setup: impl FnOnce(&mut Engine<'_>, &LineInterner),
) -> Result<CrashOutcome, EngineError> {
    if threads.is_empty() {
        return Err(EngineError::EmptyTraceSet);
    }
    check_cores(threads.len())?;
    // Validation already walks every event; interning rides along for free.
    let interned = simcore::trace::validate_and_intern(threads, cfg.line_size)?;
    let mut engine = Engine::new_flat(cfg, interned.interner().len(), threads.len());
    setup(&mut engine, interned.interner());
    engine.replay(&mut Materialized { threads, interned: &interned })
}

/// Replay `source` through a fresh [`StreamFeed`] on a flat engine armed
/// by `setup`: the core of every streaming entry point.
fn replay_source<S: EventSource>(
    cfg: &MachineConfig,
    source: &mut S,
    opts: StreamOptions,
    setup: impl FnOnce(&mut Engine<'_>),
) -> Result<StreamReport, EngineError> {
    let threads = source.threads();
    if threads == 0 {
        return Err(EngineError::EmptyTraceSet);
    }
    check_cores(threads)?;
    let feed = StreamFeed::new(cfg.line_size, threads, opts.chunk_events);
    let mut streamed = Streamed { feed, source };
    // The tables start empty and grow with the feed's interner.
    let mut engine = Engine::new_flat(cfg, 0, threads);
    setup(&mut engine);
    let stats = completed(engine.replay(&mut streamed))?;
    let feed = streamed.feed;
    Ok(StreamReport {
        stats,
        events: feed.fetched(),
        chunks: feed.chunks(),
        peak_pipeline_bytes: feed.peak_window_bytes() as u64,
        digest: feed.digest(),
    })
}

/// Refuse a replay of more threads than the flat tables' packed owner
/// field can name as cores (see [`MAX_CORES`]).
fn check_cores(cores: usize) -> Result<(), EngineError> {
    if cores > MAX_CORES {
        return Err(EngineError::TooManyCores { cores, limit: MAX_CORES });
    }
    Ok(())
}

/// The statistics of a replay with no crash plan armed.
fn completed(outcome: Result<CrashOutcome, EngineError>) -> Result<RunStats, EngineError> {
    match outcome? {
        CrashOutcome::Completed { stats, .. } => Ok(*stats),
        // The crash check in the replay loop is gated on an armed plan.
        CrashOutcome::Crashed(_) => unreachable!("crash fired without an armed plan"),
    }
}

/// A configured machine: the owned-config entry point to crash-armed
/// replay and recovery.
#[derive(Debug, Clone)]
pub struct Machine {
    cfg: MachineConfig,
}

impl Machine {
    /// Wrap a machine description.
    pub fn new(cfg: MachineConfig) -> Self {
        Self { cfg }
    }

    /// The wrapped configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Validate and replay `traces` under a simulated power-failure plan.
    ///
    /// The crash fires immediately *after* the triggering step retires; the
    /// machine then freezes and its state is partitioned into durable and
    /// volatile-lost (see [`crate::crash`]), returned as
    /// [`CrashOutcome::Crashed`]. A plan that never fires completes
    /// normally as [`CrashOutcome::Completed`], whose digest covers the
    /// final durable line set — the golden value a crash-plus-recovery run
    /// must reproduce. Errors are those of [`try_simulate`].
    ///
    /// # Examples
    ///
    /// ```
    /// use machine::{crash::CrashOutcome, CrashPlan, Machine, MachineConfig};
    /// use simcore::{TraceSet, Tracer};
    ///
    /// let mut t = Tracer::new();
    /// for i in 0..100u64 {
    ///     t.write(i * 64, 64);
    /// }
    /// t.fence();
    /// let m = Machine::new(MachineConfig::machine_a());
    /// let traces = TraceSet::new(vec![t.finish()]);
    /// let outcome = m.try_run_until_crash(&traces, CrashPlan::AtStep(50)).unwrap();
    /// let report = match outcome {
    ///     CrashOutcome::Crashed(r) => r,
    ///     CrashOutcome::Completed { .. } => panic!("plan must fire"),
    /// };
    /// let resumed = m.recover_and_resume(&traces, &report.image, None).unwrap();
    /// assert!(matches!(resumed, CrashOutcome::Completed { .. }));
    /// ```
    pub fn try_run_until_crash(
        &self,
        traces: &TraceSet,
        plan: CrashPlan,
    ) -> Result<CrashOutcome, EngineError> {
        replay_checked(&self.cfg, &traces.threads, |engine, _| {
            engine.arm_crash(CrashCtx::new(plan))
        })
    }

    /// Rebuild a crashed machine from `image` and replay the rest of
    /// `traces` (which must be the same trace set the crash interrupted,
    /// on a machine with the crashed one's line size).
    ///
    /// Recovery is a redo log: the durable lines seed the device image,
    /// every volatile-lost line is rewritten to the device before replay
    /// resumes (this redo traffic is charged to the UNKNOWN attribution
    /// site), pre-crash release counts are restored so resumed acquires
    /// are satisfiable, and each core continues from its saved program
    /// counter. Caches start cold and core clocks restart at zero: the
    /// returned statistics describe the post-crash segment only.
    ///
    /// Pass a `plan` to let the resumed segment crash again (crash-point
    /// counters restart at zero), or `None` to run to completion.
    pub fn recover_and_resume(
        &self,
        traces: &TraceSet,
        image: &CrashImage,
        plan: Option<CrashPlan>,
    ) -> Result<CrashOutcome, EngineError> {
        let threads = &traces.threads;
        if threads.is_empty() {
            return Err(EngineError::EmptyTraceSet);
        }
        if image.pcs.len() != threads.len() {
            return Err(EngineError::CrashImageMismatch {
                image_cores: image.pcs.len(),
                trace_threads: threads.len(),
            });
        }
        // The image's lines are the crashed machine's: at another line
        // size the redo writes would land misaligned and the release
        // counts would not resolve to this machine's lines.
        if image.line_size != self.cfg.line_size {
            return Err(EngineError::CrashImageLineSize {
                image_line_size: image.line_size,
                machine_line_size: self.cfg.line_size,
            });
        }
        replay_checked(&self.cfg, threads, |engine, interner| {
            // A plan that can never fire keeps received-line tracking (and
            // the completion digest) active on plain resumes.
            let mut ctx = CrashCtx::new(plan.unwrap_or(CrashPlan::AtStep(u64::MAX)));
            ctx.received.extend(image.durable.iter().copied());
            ctx.releases.extend(image.releases.iter().copied());
            engine.arm_crash(ctx);
            for &(line, count) in &image.releases {
                if let Some(id) = interner.id_of(line) {
                    engine.tables.release_restore(id, line, count);
                }
            }
            // Redo the lost writes: rewrite every volatile-lost line so the
            // device image converges with an uninterrupted run's.
            for &line in &image.lost {
                engine.device_write_attributed(line, image.line_size, FuncId::UNKNOWN);
            }
            for (core, &pc) in engine.cores.iter_mut().zip(&image.pcs) {
                core.pc = pc;
            }
        })
    }
}

impl<'a> Engine<'a, FlatTables> {
    /// Build the production engine for `lines` interned lines: flat tables
    /// recycled from this thread's scratch set.
    fn new_flat(cfg: &'a MachineConfig, lines: usize, cores: usize) -> Self {
        let mut scratch = take_scratch();
        let mut flat = std::mem::take(&mut scratch.flat);
        flat.reset(lines);
        let mut engine = Self::with_tables(cfg, cores, flat);
        engine.wc_buf = std::mem::take(&mut scratch.wc_buf);
        engine.residual = std::mem::take(&mut scratch.residual);
        engine.sites = std::mem::take(&mut scratch.sites);
        // Recycled tables are drained on every successful run; the reset
        // here covers scratch from a run that errored out mid-replay.
        engine.sites.reset();
        engine
    }
}

impl<'a, T: LineTables> Engine<'a, T> {
    fn with_tables(cfg: &'a MachineConfig, cores: usize, tables: T) -> Self {
        assert!(cores > 0, "need at least one core");
        let cores = (0..cores)
            .map(|i| {
                let mut sb = StoreBuffer::with_mlp(cfg.store_buffer_entries, cfg.sb_mlp);
                // The engine schedules drains but never consumes the
                // retired-lines list; with tracking off it is never built.
                sb.set_retired_tracking(false);
                CoreState {
                    now: 0,
                    sb,
                    l1: Cache::new(cfg.l1, cfg.seed ^ (i as u64).wrapping_mul(0x9E37)),
                    wc: WriteCombiningBuffer::new(cfg.line_size, cfg.wc_buffers),
                    stats: CoreStats::default(),
                    pc: 0,
                    streams: std::collections::VecDeque::with_capacity(STREAM_TRACKERS),
                    blocked: None,
                }
            })
            .collect();
        let mut engine = Self {
            cfg,
            llc: Cache::new(cfg.llc, cfg.seed ^ 0x5A5A),
            device: cfg.device.fresh(),
            tables,
            cores,
            wc_buf: Vec::new(),
            residual: Vec::new(),
            acts: crate::probes::ActionCounts::default(),
            sites: SiteTable::new(),
            unknown_site: [0; SITE_COLS],
            cur_step: 0,
            burst_next: 0,
            burst_bytes: 0,
            prev_write_line: None,
            crash: None,
            ts: cfg.timeseries_window.map(|w| TimeSeries::new(w.max(1), TS_CAPACITY)),
            ts_next_boundary: u64::MAX,
            ts_device_bytes: 0,
            classes: None,
            flight: None,
        };
        if let Some(ts) = &engine.ts {
            engine.ts_next_boundary = ts.next_boundary();
        }
        engine
    }

    /// Attach a request-boundary classifier: each class gets a latency
    /// histogram of retire-to-retire simulated cycles between consecutive
    /// boundaries on a thread, collected into
    /// [`RunStats::request_latency`].
    fn set_classifier(&mut self, classifier: Box<dyn RequestClasses>) {
        let hist =
            classifier.class_names().iter().map(|n| HistogramSample::empty(n)).collect();
        self.classes = Some(ClassifierState {
            classifier,
            hist,
            req_start: vec![0; self.cores.len()],
        });
    }

    /// Arm a crash plan, with the flight recorder that dumps the steps
    /// leading up to the crash.
    fn arm_crash(&mut self, ctx: CrashCtx) {
        self.crash = Some(ctx);
        self.flight = Some(FlightRing::new(FLIGHT_CAPACITY));
    }

    /// The cores currently blocked on acquires: `(core, line, seq)`.
    fn blocked_report(&self) -> Vec<BlockedAcquire> {
        self.cores
            .iter()
            .enumerate()
            .filter_map(|(cid, c)| c.blocked.map(|(line, _, seq)| (cid, line, seq as u64)))
            .collect()
    }

    /// The replay loop, for every feed. Each iteration refills spent
    /// windows, steps the runnable core with the smallest clock (blocked
    /// cores wake up when their awaited release lands), and then checks an
    /// armed crash plan. Returns [`CrashOutcome::Crashed`] when the plan
    /// fires, else the completed run.
    fn replay<F: Feed>(mut self, feed: &mut F) -> Result<CrashOutcome, EngineError> {
        debug_assert_eq!(feed.interner().line_size(), self.cfg.line_size);
        let _replay_span = simcore::telemetry::span(&crate::probes::REPLAY);
        // Progress watchdog: a valid replay executes at most ~2 steps per
        // event (each step either consumes an event or re-runs an acquire
        // exactly once after its wakeup), so the derived budget only fires
        // on genuinely stuck or adversarial schedules. A streamed replay
        // re-derives it from the events fetched so far after every refill;
        // it only grows, so intermediate budgets never fire on a schedule
        // the materialized replay accepts.
        let mut budget = self.cfg.effective_step_budget(feed.fetched());
        let mut steps: u64 = 0;
        loop {
            // Refill before the scan so every runnable core is visible to
            // this scheduling decision. Blocked-acquire retries rewind
            // `pc` within the current window, never before it, so a core
            // with `pc >= end` has truly consumed its window. A
            // materialized feed is always exhausted, so this pass folds
            // away.
            let mut grew = false;
            for cid in 0..self.cores.len() {
                if !feed.exhausted(cid) && self.cores[cid].pc >= feed.end(cid) {
                    feed.refill(cid)?;
                    grew = true;
                }
            }
            if grew {
                // The feed interned new lines: the id-indexed tables grow
                // while existing entries keep their state — growth never
                // bumps an epoch (see [`FlatTables::grow`] for why that is
                // sound). They grow by at least an eighth at a time, so a
                // call after every refill copies each entry a bounded
                // number of times.
                self.tables.grow(feed.interner().len());
                budget = self.cfg.effective_step_budget(feed.fetched());
            }
            let mut best: Option<(CoreId, Cycles)> = None;
            let mut any_left = false;
            for (cid, core) in self.cores.iter_mut().enumerate() {
                if core.pc >= feed.end(cid) {
                    continue;
                }
                any_left = true;
                if let Some((line, id, seq)) = core.blocked {
                    match self.tables.release_get(id, line) {
                        Some((count, when)) if count >= seq => {
                            // The release happened: wake up at its time.
                            core.now = core.now.max(when);
                            core.blocked = None;
                        }
                        _ => continue,
                    }
                }
                if best.is_none_or(|(_, t)| core.now < t) {
                    best = Some((cid, core.now));
                }
            }
            let Some((cid, _)) = best else {
                if any_left {
                    // All remaining cores wait on acquires whose releases
                    // can no longer happen: report the circular wait.
                    return Err(EngineError::ReplayDeadlock { blocked: self.blocked_report() });
                }
                break;
            };
            steps += 1;
            self.cur_step = steps;
            if steps > budget {
                return Err(EngineError::StepBudgetExceeded {
                    steps,
                    budget,
                    blocked: self.blocked_report(),
                    progress: self
                        .cores
                        .iter()
                        .enumerate()
                        .map(|(i, c)| (i, c.pc, feed.end(i)))
                        .collect(),
                });
            }
            let idx = self.cores[cid].pc;
            let ev = feed.event(cid, idx);
            self.cores[cid].pc += 1;
            let before = self.cores[cid].now;
            self.step(cid, ev, feed.ids(cid, idx))?;
            let spent = self.cores[cid].now - before;
            if spent > 0 {
                self.tables.func_add(ev.func, spent);
            }
            self.after_step(cid, &ev);
            // Power-failure injection: the triggering step has retired (pc
            // already advanced), so every crash-recovery segment consumes
            // at least one event and iterated crash-recovery terminates.
            if let Some(ctx) = self.crash.as_mut() {
                if ev.kind == EventKind::Fence {
                    ctx.fences_seen += 1;
                }
                let fire = match ctx.plan {
                    CrashPlan::AtStep(n) => steps >= n.max(1),
                    CrashPlan::AtCycle(c) => self.cores[cid].now >= c,
                    CrashPlan::EveryKFences(k) => ctx.fences_seen >= u64::from(k.max(1)),
                };
                if fire {
                    let report = self.freeze_crash(steps, feed.interner());
                    return Ok(CrashOutcome::Crashed(Box::new(report)));
                }
            }
        }
        Ok(self.finalize(feed.interner(), steps))
    }

    /// Close out a completed replay: final drains, residual dirty-line
    /// accounting, device flush, stats assembly and scratch recycling.
    /// `interner` (the feed's) resolves residual line addresses back to
    /// ids.
    fn finalize(mut self, interner: &LineInterner, steps: u64) -> CrashOutcome {
        // Programs complete when their stores are globally visible. These
        // final drains happen after the last trace event, so their traffic
        // is attributed through the lines' first-dirty tags (the stall
        // itself is not charged to any core's fence counter).
        for cid in 0..self.cores.len() {
            self.fence(cid, FuncId::UNKNOWN);
        }
        // Account (but do not time) the dirty data still cached at the end
        // of the run: it will be written to the device eventually, and
        // counting it keeps baseline-vs-prestore device traffic comparable
        // at simulation scale (the paper's 6.4 GB working sets make cache
        // residue negligible; our scaled ones do not).
        let line_size = self.cfg.line_size;
        let mut residual = std::mem::take(&mut self.residual);
        residual.clear();
        for c in &self.cores {
            c.l1.dirty_lines_into(&mut residual);
        }
        self.llc.dirty_lines_into(&mut residual);
        residual.sort_unstable();
        residual.dedup();
        for &line in &residual {
            // Resolve the interned id so the flat tables can look up the
            // line's first-dirty tag (end-of-run frequency: one hash probe
            // per residual line, never on the step path).
            let id = interner.id_of(line).unwrap_or(LineId::INVALID);
            let (site, step) =
                self.tables.dirt_take(id, line).unwrap_or((FuncId::UNKNOWN, self.cur_step));
            self.site_add(site, site_col::RESIDUAL_LINES, 1);
            crate::probes::LINE_LIFETIME.record(self.cur_step.saturating_sub(step));
            self.device_write_attributed(line, line_size, site);
        }
        self.residual = residual;
        // The device's final flush closes still-open buffered blocks; no
        // single site caused those media writes, so they land in the
        // UNKNOWN row (bounded by the device's buffer capacity).
        let flushed_before = *self.device.stats();
        self.device.flush();
        let dstats_now = *self.device.stats();
        self.unknown_site[site_col::MEDIA_BYTES] +=
            dstats_now.media_bytes_written - flushed_before.media_bytes_written;
        self.unknown_site[site_col::RMW_BYTES] +=
            dstats_now.media_bytes_rmw_read - flushed_before.media_bytes_rmw_read;
        // Close the trailing write burst, if the telemetry build tracked
        // one.
        if self.burst_bytes > 0 {
            crate::probes::WRITE_BURST.record(self.burst_bytes);
            self.burst_bytes = 0;
        }

        let cpu_cycles = self.cores.iter().map(|c| c.now).max().unwrap_or(0);
        let dstats = *self.device.stats();
        let wbw = self.device.media_write_bandwidth();
        // Media reads (demand reads, RFOs and internal read-modify-write)
        // are ~4x cheaper than media writes on the devices we model. On
        // full-duplex links the two directions proceed independently.
        let write_busy = dstats.media_bytes_written as f64 / wbw;
        let read_busy = (dstats.bytes_read + dstats.media_bytes_rmw_read) as f64 / (4.0 * wbw);
        let media_busy =
            if self.device.duplex() { write_busy.max(read_busy) } else { write_busy + read_busy }
                as Cycles;

        let mut l1 = cachesim::CacheStats::default();
        for c in &self.cores {
            let s = c.l1.stats();
            l1.hits += s.hits;
            l1.misses += s.misses;
            l1.evictions += s.evictions;
            l1.dirty_evictions += s.dirty_evictions;
            l1.cleans += s.cleans;
        }
        let mut cores_stats = Vec::with_capacity(self.cores.len());
        for c in &mut self.cores {
            c.stats.cycles = c.now;
            cores_stats.push(c.stats);
        }
        // Drain the attribution rows: `drain_sorted` orders by site id, and
        // UNKNOWN (`u16::MAX`) sorts after every real id, so the appended
        // catch-all row keeps `sites` sorted for `RunStats::site`'s binary
        // search.
        let mut sites: Vec<(FuncId, SiteCounters)> = self
            .sites
            .drain_sorted()
            .into_iter()
            .map(|(s, row)| (FuncId(s as u16), SiteCounters::from_row(&row)))
            .collect();
        if self.unknown_site != [0; SITE_COLS] {
            sites.push((FuncId::UNKNOWN, SiteCounters::from_row(&self.unknown_site)));
        }
        // Close the time series through the end of simulated time. The
        // totals are gathered *after* the final drains and the device
        // flush above, so the per-channel window sums match the end-of-run
        // aggregates (minus anything the bounded ring evicted).
        let (timeseries, timeseries_window_cycles) = match self.ts.take() {
            Some(ts) => {
                let w = ts.window_cycles();
                let totals = self.ts_totals();
                (ts.finish(cpu_cycles, &totals), w)
            }
            None => (Vec::new(), 0),
        };
        let request_latency = self.classes.take().map_or_else(Vec::new, |cs| cs.hist);
        let stats = RunStats {
            cycles: cpu_cycles.max(media_busy),
            cpu_cycles,
            media_busy_cycles: media_busy,
            cores: cores_stats,
            l1,
            llc: *self.llc.stats(),
            device: dstats,
            func_cycles: self.tables.take_func_cycles().into_iter().collect(),
            sites,
            timeseries,
            timeseries_window_cycles,
            request_latency,
        };
        // Telemetry: end-of-run epoch-validity sweep — how many flat-table
        // entries still carry current-epoch state (vectorized; `None` on
        // the reference tables).
        if simcore::telemetry::enabled() {
            if let Some(live) = self.tables.live_lines() {
                crate::probes::TABLE_LIVE_LINES.record(live as u64);
            }
        }
        // Hand the reusable allocations back for the next run on this
        // thread (flat tables only; the reference tables drop them).
        self.residual.clear();
        self.wc_buf.clear();
        self.tables.recycle(self.wc_buf, self.residual, self.sites);
        crate::probes::flush_run(&stats, &self.acts, steps);
        // Crash-armed runs that completed: the device flush above closed
        // every buffered block, so the whole received set is durable.
        let durable_digest = self.crash.take().map(|ctx| {
            let mut lines: Vec<Addr> = ctx.received.into_iter().collect();
            lines.sort_unstable();
            crate::crash::durable_digest(&lines)
        });
        CrashOutcome::Completed { stats: Box::new(stats), durable_digest }
    }

    /// Freeze the machine at a simulated power failure and partition its
    /// state into durable and volatile-lost (see [`crate::crash`] for the
    /// partition rules). Consumes the engine: a crashed machine does not
    /// resume — [`Machine::recover_and_resume`] builds a fresh one from
    /// the returned image.
    fn freeze_crash(mut self, at_step: u64, interner: &LineInterner) -> CrashReport {
        let ctx = self.crash.take().expect("freeze_crash requires an armed crash context");
        let line_size = self.cfg.line_size;
        // Volatile-lost state, gathered level by level. Duplicates are fine
        // until the sort/dedup below (a line can be dirty in a cache *and*
        // pending in a store buffer).
        let mut lost: Vec<Addr> = Vec::new();
        let mut lost_sb_entries = 0u64;
        for c in &self.cores {
            c.l1.dirty_lines_into(&mut lost);
            let before = lost.len();
            c.sb.pending_lines_into(&mut lost);
            lost_sb_entries += (lost.len() - before) as u64;
        }
        self.llc.dirty_lines_into(&mut lost);
        let mut wc_open: Vec<(Addr, u64)> = Vec::new();
        for c in &self.cores {
            c.wc.open_lines_into(&mut wc_open);
        }
        let lost_wc_bytes: u64 = wc_open.iter().map(|&(_, bytes)| bytes).sum();
        lost.extend(wc_open.iter().map(|&(line, _)| line));
        // Device partition: on persistent media a received line is durable
        // once its internal block has closed; lines in still-open buffered
        // blocks are lost. Volatile devices lose everything.
        let mut open_blocks: Vec<(Addr, u64)> = Vec::new();
        self.device.buffered_blocks_into(&mut open_blocks);
        let lost_device_buffered_bytes: u64 = open_blocks.iter().map(|&(_, b)| b).sum();
        let open: FxHashSet<Addr> = open_blocks.iter().map(|&(block, _)| block).collect();
        let granularity = self.device.internal_granularity();
        let persistent = self.device.durable_media();
        let mut durable: Vec<Addr> = Vec::new();
        for &line in &ctx.received {
            if persistent && !open.contains(&align_down(line, granularity)) {
                durable.push(line);
            } else {
                lost.push(line);
            }
        }
        durable.sort_unstable();
        lost.sort_unstable();
        lost.dedup();
        // Attribute each lost line to the site that first dirtied it; lines
        // that already gave up their tag (e.g. data handed to the device
        // before the crash) land in the UNKNOWN row.
        let mut sites: SiteTable<CRASH_COLS> = SiteTable::new();
        let mut unknown = [0u64; CRASH_COLS];
        for &line in &lost {
            let id = interner.id_of(line).unwrap_or(LineId::INVALID);
            let site =
                self.tables.dirt_take(id, line).map_or(FuncId::UNKNOWN, |(site, _)| site);
            if site == FuncId::UNKNOWN {
                unknown[crate::crash::LOST_LINES] += 1;
                unknown[crate::crash::LOST_BYTES] += line_size;
            } else {
                sites.add(u32::from(site.0), crate::crash::LOST_LINES, 1);
                sites.add(u32::from(site.0), crate::crash::LOST_BYTES, line_size);
            }
        }
        let mut site_rows: Vec<(FuncId, LostSite)> = sites
            .drain_sorted()
            .into_iter()
            .map(|(s, row)| {
                (
                    FuncId(s as u16),
                    LostSite {
                        lines: row[crate::crash::LOST_LINES],
                        bytes: row[crate::crash::LOST_BYTES],
                    },
                )
            })
            .collect();
        if unknown != [0u64; CRASH_COLS] {
            site_rows.push((
                FuncId::UNKNOWN,
                LostSite {
                    lines: unknown[crate::crash::LOST_LINES],
                    bytes: unknown[crate::crash::LOST_BYTES],
                },
            ));
        }
        let mut releases: Vec<(Addr, u32)> = ctx.releases.into_iter().collect();
        releases.sort_unstable();
        let lost_bytes = lost.len() as u64 * line_size;
        crate::probes::CRASHES.inc();
        crate::probes::CRASH_LOST_BYTES.record(lost_bytes);
        let at_cycle = self.cores.iter().map(|c| c.now).max().unwrap_or(0);
        // Close the flight dump with the crash itself, so the dump's last
        // event always names the frozen step.
        let mut flight = self.flight.take().unwrap_or_else(|| FlightRing::new(1));
        flight.push(FlightEvent { seq: at_step, kind: FlightKind::Crash, a: at_step, b: at_cycle });
        CrashReport {
            at_step,
            at_cycle,
            fences_seen: ctx.fences_seen,
            durable_lines: durable.len() as u64,
            durable_bytes: durable.len() as u64 * line_size,
            lost_lines: lost.len() as u64,
            lost_bytes,
            lost_sb_entries,
            lost_wc_bytes,
            lost_device_buffered_bytes,
            sites: site_rows,
            flight: flight.to_vec(),
            image: CrashImage {
                durable,
                lost,
                releases,
                pcs: self.cores.iter().map(|c| c.pc).collect(),
                line_size,
            },
        }
    }

    /// Execute one event. `ids` is the event's pre-resolved id run in
    /// splitting order, fetched by the replay loop from its feed.
    fn step(&mut self, cid: CoreId, ev: Event, ids: &[LineId]) -> Result<(), EngineError> {
        let line_size = self.cfg.line_size;
        match ev.kind {
            EventKind::Compute => {
                self.cores[cid].now += ev.addr;
            }
            EventKind::Read => {
                let mut lines = 0u64;
                for (i, line) in blocks_touched(ev.addr, ev.size as u64, line_size).enumerate() {
                    self.read_line(cid, line, ids[i], ev.func);
                    lines += 1;
                }
                self.cores[cid].stats.read_lines += lines;
            }
            EventKind::Write => {
                let mut lines = 0u64;
                for (i, line) in blocks_touched(ev.addr, ev.size as u64, line_size).enumerate() {
                    self.write_line(cid, line, ids[i], ev.func)?;
                    lines += 1;
                }
                self.cores[cid].stats.write_lines += lines;
            }
            EventKind::NtWrite => {
                self.nt_write(cid, ev.addr, ev.size as u64, ids, ev.func);
            }
            EventKind::PrestoreClean => {
                for (i, line) in blocks_touched(ev.addr, ev.size as u64, line_size).enumerate() {
                    self.prestore_clean(cid, line, ids[i], ev.func);
                }
                self.cores[cid].stats.prestores += 1;
            }
            EventKind::PrestoreDemote => {
                for (i, line) in blocks_touched(ev.addr, ev.size as u64, line_size).enumerate() {
                    self.prestore_demote(cid, line, ids[i], ev.func);
                }
                self.cores[cid].stats.prestores += 1;
            }
            EventKind::Fence => {
                let stall = self.fence(cid, ev.func);
                self.cores[cid].stats.fence_stall_cycles += stall;
                self.cores[cid].stats.fences += 1;
                self.site_add(ev.func, site_col::FENCE_STALL, stall);
                if stall > 0 {
                    crate::probes::STALL_CYCLES.record(stall);
                }
            }
            EventKind::Atomic => {
                let line = simcore::align_down(ev.addr, line_size);
                let id = ids[0];
                self.atomic(cid, line, id, ev.func);
                // An atomic releases its line for acquire/release replay
                // synchronization.
                let now = self.cores[cid].now;
                self.tables.release_bump(id, line, now);
                // Shadow the cumulative count for the crash image: the
                // engine tables reset per segment, but a resumed acquire
                // must still see releases from before the crash.
                if let Some(ctx) = self.crash.as_mut() {
                    *ctx.releases.entry(line).or_insert(0) += 1;
                }
            }
            EventKind::Acquire => {
                let line = simcore::align_down(ev.addr, line_size);
                let id = ids[0];
                let seq = ev.size;
                match self.tables.release_get(id, line) {
                    Some((count, when)) if count >= seq => {
                        self.cores[cid].now = self.cores[cid].now.max(when);
                    }
                    _ => {
                        // Not yet released: block and retry this event.
                        self.cores[cid].blocked = Some((line, id, seq));
                        self.cores[cid].pc -= 1;
                    }
                }
            }
        }
        Ok(())
    }

    /// Post-step observation hooks, called once per scheduler step after
    /// the event executed and its cycles were attributed. With every
    /// feature off this is one integer compare and two `Option` checks.
    /// The classifier and the flight recorder observe *retired* events
    /// only: an acquire that blocked (`pc` rewound for retry) is skipped
    /// here and observed when it re-runs and succeeds, so each trace event
    /// is seen exactly once, in per-thread program order — identical for
    /// every feed.
    #[inline]
    fn after_step(&mut self, cid: CoreId, ev: &Event) {
        let now = self.cores[cid].now;
        if now >= self.ts_next_boundary {
            self.ts_tick(now);
        }
        if self.cores[cid].blocked.is_some() {
            return; // the event did not retire; it will run again
        }
        if let Some(cs) = self.classes.as_mut() {
            if let Some(class) = cs.classifier.on_event(cid, ev) {
                if let Some(h) = cs.hist.get_mut(class) {
                    h.record(now - cs.req_start[cid]);
                }
                cs.req_start[cid] = now;
            }
        }
        if let Some(ring) = self.flight.as_mut() {
            if let Some(kind) = flight_kind(ev.kind) {
                ring.push(FlightEvent { seq: self.cur_step, kind, a: ev.addr, b: now });
            }
        }
    }

    /// Close time-series windows up to `now`. Cold: runs once per crossed
    /// window boundary, never on the per-step path.
    #[cold]
    fn ts_tick(&mut self, now: Cycles) {
        let totals = self.ts_totals();
        let ts = self.ts.as_mut().expect("finite boundary implies an armed sampler");
        ts.observe(now, &totals);
        self.ts_next_boundary = ts.next_boundary();
    }

    /// Cumulative totals of the time-series channels — a handful of adds
    /// over state the engine already maintains, so sampling perturbs
    /// nothing.
    fn ts_totals(&self) -> [u64; TS_CHANNELS] {
        let mut t = [0u64; TS_CHANNELS];
        t[ts_channel::STEPS] = self.cur_step;
        for c in &self.cores {
            t[ts_channel::READ_LINES] += c.stats.read_lines;
            t[ts_channel::WRITE_LINES] += c.stats.write_lines;
            t[ts_channel::STALL_CYCLES] += c.stats.fence_stall_cycles
                + c.stats.atomic_stall_cycles
                + c.stats.sb_pressure_stall_cycles
                + c.stats.writeback_stall_cycles;
            t[ts_channel::PRESTORES] += c.stats.prestores;
        }
        t[ts_channel::DEVICE_BYTES] = self.ts_device_bytes;
        t
    }

    /// Add `n` to column `col` of `site`'s attribution row.
    #[inline]
    fn site_add(&mut self, site: FuncId, col: usize, n: u64) {
        if n == 0 {
            return;
        }
        if site == FuncId::UNKNOWN {
            self.unknown_site[col] += n;
        } else {
            self.sites.add(site.0 as u32, col, n);
        }
    }

    /// Send `bytes` at `line` to the device, attributing the dirty bytes —
    /// and whatever media traffic the device performs on their behalf
    /// (block write amplification, read-modify-write fills) — to `site`.
    ///
    /// Buffered devices may close a block lazily: its media write is then
    /// charged to the site whose write forced the close, not to every site
    /// that filled it. Shares are approximate per site; totals always sum
    /// to the device counters (minus the end-of-run flush remainder, which
    /// lands in the UNKNOWN row).
    fn device_write_attributed(&mut self, line: Addr, bytes: u64, site: FuncId) {
        // Crash-armed runs track every line the device has received: this
        // is the single funnel all device writes route through (LLC
        // victims, residual flushes, WC flushes, pre-store cleans).
        if let Some(ctx) = self.crash.as_mut() {
            ctx.received.insert(line);
        }
        let before = *self.device.stats();
        self.device.receive_write(line, bytes);
        let after = *self.device.stats();
        self.ts_device_bytes += bytes;
        self.site_add(site, site_col::DEVICE_BYTES, bytes);
        self.site_add(
            site,
            site_col::MEDIA_BYTES,
            after.media_bytes_written - before.media_bytes_written,
        );
        self.site_add(
            site,
            site_col::RMW_BYTES,
            after.media_bytes_rmw_read - before.media_bytes_rmw_read,
        );
        if simcore::telemetry::enabled() {
            self.track_device_write(line, bytes);
        }
    }

    /// Telemetry-only distribution upkeep for one device write: the
    /// eviction-distance and write-burst histograms.
    fn track_device_write(&mut self, line: Addr, bytes: u64) {
        let line_size = self.cfg.line_size.max(1);
        if let Some(prev) = self.prev_write_line {
            crate::probes::EVICTION_DISTANCE.record(line.abs_diff(prev) / line_size);
        }
        self.prev_write_line = Some(line);
        if self.burst_bytes > 0 && line == self.burst_next {
            self.burst_bytes += bytes;
        } else {
            if self.burst_bytes > 0 {
                crate::probes::WRITE_BURST.record(self.burst_bytes);
            }
            self.burst_bytes = bytes;
        }
        self.burst_next = line + self.cfg.line_size;
    }

    /// Insert a line into the LLC, writing any dirty victim to the device.
    /// The victim's traffic is attributed to the site that first dirtied
    /// it (its dirt tag); a tagless dirty victim charges the UNKNOWN row.
    fn llc_insert(&mut self, line: Addr, id: LineId, dirty: bool) {
        if let Some(v) = self.llc.insert_id(line, id, dirty) {
            if v.dirty {
                let (site, step) = self
                    .tables
                    .dirt_take(v.id, v.line)
                    .unwrap_or((FuncId::UNKNOWN, self.cur_step));
                self.site_add(site, site_col::DIRTY_EVICTIONS, 1);
                crate::probes::LINE_LIFETIME.record(self.cur_step.saturating_sub(step));
                self.device_write_attributed(v.line, self.cfg.line_size, site);
            }
        }
    }

    /// Fill a line into `cid`'s L1 (counting the miss), spilling any dirty
    /// victim to the LLC.
    fn l1_fill(&mut self, cid: CoreId, line: Addr, id: LineId, dirty: bool) {
        let victim = self.cores[cid].l1.access_id(line, id, dirty).victim;
        if let Some(v) = victim {
            if self.tables.owner_get(v.id, v.line) == Some(cid) {
                self.tables.owner_clear(v.id, v.line);
            }
            if v.dirty {
                self.llc_insert(v.line, v.id, true);
            }
        }
        if dirty {
            self.tables.owner_set(id, line, cid);
        }
    }

    /// Record `line` with the core's stream prefetcher. Returns whether the
    /// access continued a detected stream (and advances that stream).
    fn stream_check(&mut self, cid: CoreId, line: Addr) -> bool {
        let line_size = self.cfg.line_size;
        let streams = &mut self.cores[cid].streams;
        let (a, b) = streams.as_slices();
        let pos = simcore::simd::find_u64(a, line)
            .or_else(|| simcore::simd::find_u64(b, line).map(|p| p + a.len()));
        if let Some(pos) = pos {
            streams.remove(pos);
            streams.push_back(line + line_size);
            return true;
        }
        if streams.len() >= STREAM_TRACKERS {
            streams.pop_front();
        }
        streams.push_back(line + line_size);
        false
    }

    /// Read one line, charging the appropriate level's latency.
    ///
    /// Sequential misses are detected by a stream-prefetcher model: a miss
    /// that continues a tracked stream costs `latency / STREAM_MLP` instead
    /// of the full latency, reflecting the prefetch fills the hardware
    /// keeps in flight ahead of a streaming reader.
    fn read_line(&mut self, cid: CoreId, line: Addr, id: LineId, site: FuncId) {
        let costs = self.cfg.costs;
        // Store-to-load forwarding: an un-drained entry in the own store
        // buffer means the data is right here.
        if self.cores[cid].sb.contains(line) {
            self.cores[cid].now += costs.l1_hit;
            return;
        }
        // Fused probe-and-touch: on a miss nothing is mutated, so the
        // fall-through paths below behave exactly like the historical
        // probe-then-access pair.
        if self.cores[cid].l1.hit_read(line) {
            self.cores[cid].now += costs.l1_hit;
            return;
        }
        // A non-temporal store to this line may still be in flight: wait
        // for it to land, then fetch from the device at full latency.
        if let Some(done) = self.tables.nt_get(id, line) {
            let now = self.cores[cid].now;
            if done > now {
                self.cores[cid].stats.writeback_stall_cycles += done - now;
                self.cores[cid].now = done;
                self.site_add(site, site_col::WRITEBACK_STALL, done - now);
                crate::probes::STALL_CYCLES.record(done - now);
            }
            self.tables.nt_clear(id, line);
            self.cores[cid].now += self.device.read_latency() + self.device.fault_stall();
            self.device.receive_read(line, self.cfg.line_size);
            self.llc_insert(line, id, false);
            self.l1_fill(cid, line, id, false);
            return;
        }
        let streamed = self.stream_check(cid, line);
        if let Some(o) = self.tables.owner_get(id, line) {
            if o != cid {
                // Dirty in a remote L1: directory lookup + transfer.
                let cost = self.device.directory_latency() + costs.remote_transfer;
                // The owner map says core `o` holds the line dirty, so its
                // L1 must have a copy; `None` here means the two structures
                // disagree. Treat the line as clean (the safe accounting:
                // no spurious writeback) but flag the inconsistency in
                // debug builds instead of silently defaulting.
                let dirty = self.cores[o].l1.invalidate(line).unwrap_or_else(|| {
                    debug_assert!(
                        false,
                        "owner map names core {o} for line {line:#x} but its L1 has no copy"
                    );
                    false
                });
                self.tables.owner_clear(id, line);
                self.llc_insert(line, id, dirty);
                self.cores[cid].now += cost;
                self.l1_fill(cid, line, id, false);
                return;
            }
        }
        if self.llc.hit_read(line) {
            let cost = if streamed { (costs.llc_hit / 4).max(costs.l1_hit) } else { costs.llc_hit };
            self.cores[cid].now += cost;
            self.l1_fill(cid, line, id, false);
            return;
        }
        // Device read. An injected transient fault stalls the whole
        // request, prefetched or not.
        let lat = self.device.read_latency();
        let cost = if streamed { (lat / STREAM_MLP).max(costs.l1_hit) } else { lat };
        self.cores[cid].now += cost + self.device.fault_stall();
        self.device.receive_read(line, self.cfg.line_size);
        self.llc_insert(line, id, false);
        self.l1_fill(cid, line, id, false);
    }

    /// Cost of acquiring `line` for writing, applying the cache effects.
    ///
    /// Called when a store-buffer entry drains: the line lands dirty in the
    /// core's L1.
    fn acquire_for_write(&mut self, cid: CoreId, line: Addr, id: LineId) -> Cycles {
        let costs = self.cfg.costs;
        // Under a weak model the coherence directory lives on the cached
        // device and has no on-die cache: *every* visibility event pays a
        // device round trip, even for lines the core already owns (§4.2 —
        // "every cache line status change requires accessing the FPGA").
        let visibility_floor = if self.cfg.mem_model == MemModel::Weak {
            self.device.directory_latency()
        } else {
            0
        };
        if self.cores[cid].l1.hit_write(line) {
            let already_owner = self.tables.owner_get(id, line) == Some(cid);
            self.tables.owner_set(id, line, cid);
            return if already_owner {
                costs.l1_hit + visibility_floor
            } else {
                // Upgrade: the directory must record the new owner.
                costs.l1_hit + self.device.directory_latency()
            };
        }
        if let Some(o) = self.tables.owner_get(id, line) {
            if o != cid {
                // Same invariant as in `read_line`: an entry in the owner
                // map implies a resident L1 copy on that core. Default to
                // clean on disagreement, loudly in debug builds.
                let dirty = self.cores[o].l1.invalidate(line).unwrap_or_else(|| {
                    debug_assert!(
                        false,
                        "owner map names core {o} for line {line:#x} but its L1 has no copy"
                    );
                    false
                });
                self.tables.owner_clear(id, line);
                self.llc_insert(line, id, dirty);
                self.l1_fill(cid, line, id, true);
                return self.device.directory_latency() + costs.remote_transfer;
            }
        }
        if self.llc.hit_read(line) {
            self.l1_fill(cid, line, id, true);
            return costs.llc_hit + self.device.directory_latency();
        }
        // Write-allocate: read the full line from the device (RFO), plus
        // the directory update — and any injected transient-fault stall.
        let stall = self.device.fault_stall();
        self.device.receive_read(line, self.cfg.line_size);
        self.llc_insert(line, id, false);
        self.l1_fill(cid, line, id, true);
        self.device.read_latency() + self.device.directory_latency() + stall
    }

    /// Schedule the drains of (at most) the first `n` unstarted entries of
    /// `cid`'s store buffer, no earlier than `now`, and return the
    /// completion time of the latest scheduled drain (at least `now`).
    ///
    /// Pull-style, in place: each entry's acquire cost needs `&mut self`,
    /// so the buffer hands entries out one at a time instead of taking a
    /// closure — the closure form would force the whole buffer to be
    /// moved out of the core and back around every fence, clean and
    /// demote.
    fn schedule_drains(&mut self, cid: CoreId, now: Cycles, n: usize) -> Cycles {
        for _ in 0..n {
            let Some((line, id)) = self.cores[cid].sb.next_unstarted() else {
                break;
            };
            let c = self.acquire_for_write(cid, line, id);
            self.cores[cid].sb.schedule_next(now, c);
        }
        self.cores[cid].sb.last_drain_done().max(now)
    }

    /// Start the drains of all pending store-buffer entries of `cid`.
    fn start_drains(&mut self, cid: CoreId) -> Cycles {
        self.acts.sb_drains += 1;
        let now = self.cores[cid].now;
        let done = self.schedule_drains(cid, now, usize::MAX);
        self.cores[cid].sb.collect_completed(now);
        done
    }

    /// Execute one line store.
    fn write_line(
        &mut self,
        cid: CoreId,
        line: Addr,
        id: LineId,
        site: FuncId,
    ) -> Result<(), EngineError> {
        let costs = self.cfg.costs;
        self.cores[cid].now += costs.store_issue;
        // Rewriting a line whose clean-initiated writeback is in flight
        // stalls until the writeback completes (the Listing-3 pitfall).
        if let Some(done) = self.tables.wb_get(id, line) {
            let now = self.cores[cid].now;
            if done > now {
                self.cores[cid].stats.writeback_stall_cycles += done - now;
                self.cores[cid].now = done;
                self.site_add(site, site_col::WRITEBACK_STALL, done - now);
                crate::probes::STALL_CYCLES.record(done - now);
            }
            self.tables.wb_clear(id, line);
        }
        // Capacity pressure: the hardware drains the whole buffer in the
        // background once it fills; the pipeline waits for the head slot.
        if self.cores[cid].sb.is_full() {
            // Starting the pending drains may retire entries whose drains
            // already completed in the past; only wait if still full.
            self.start_drains(cid);
            if self.cores[cid].sb.is_full() {
                self.acts.sb_forced_drains += 1;
                let now = self.cores[cid].now;
                // `start_drains` above scheduled every entry, so the head's
                // drain is already costed and the callback cannot fire.
                let done = self.cores[cid]
                    .sb
                    .drain_head(now, |_| unreachable!("head scheduled by start_drains"));
                if done > self.cores[cid].now {
                    let stall = done - self.cores[cid].now;
                    self.cores[cid].stats.sb_pressure_stall_cycles += stall;
                    self.cores[cid].now = done;
                    self.site_add(site, site_col::SB_STALL, stall);
                    crate::probes::STALL_CYCLES.record(stall);
                }
            }
        }
        let now = self.cores[cid].now;
        // The forced head drain above always makes room, so an overflow
        // here means the engine's buffer bookkeeping is corrupt — report
        // it as a typed error rather than unwinding mid-replay.
        self.cores[cid].sb.try_push_id(line, id, now).map_err(|e| {
            EngineError::StoreBufferOverflow {
                core: cid,
                line: e.line,
                capacity: e.capacity,
            }
        })?;
        // The store is in flight: tag the line with its first-dirty site
        // so the eventual eviction/clean/residual can attribute the device
        // traffic back here (first-dirty wins; rewrites keep the tag).
        self.tables.dirt_mark(id, line, site, self.cur_step);
        if self.cfg.mem_model == MemModel::Tso {
            // TSO: drains begin immediately (in order) in the background.
            self.start_drains(cid);
        }
        self.cores[cid].sb.collect_completed(now);
        Ok(())
    }

    /// Non-temporal store: bypass the caches through the WC buffers.
    /// `ids` is the event's pre-resolved id run (one per touched line).
    fn nt_write(&mut self, cid: CoreId, addr: Addr, size: u64, ids: &[LineId], site: FuncId) {
        let line_size = self.cfg.line_size;
        let mut lines = 0u64;
        for (i, line) in blocks_touched(addr, size, line_size).enumerate() {
            let id = ids[i];
            // NT stores invalidate any cached copy.
            if let Some(true) = self.cores[cid].l1.invalidate(line) {
                self.tables.owner_clear(id, line);
            }
            self.llc.invalidate(line);
            // The invalidated copy's dirty data is superseded, never
            // written back: its first-dirty tag dies with it.
            self.tables.dirt_take(id, line);
            self.cores[cid].now += self.cfg.costs.store_issue;
            // The line was NT-written now; its flush completes one device
            // write latency later.
            let done = self.cores[cid].now + self.device.write_latency();
            self.tables.nt_set(id, line, done);
            lines += 1;
        }
        self.cores[cid].stats.write_lines += lines;
        self.acts.nt_lines += lines;
        self.site_add(site, site_col::NT_LINES, lines);
        // Reuse one flush buffer for the whole run instead of allocating a
        // Vec per NT store (`mem::take` of a Vec moves, never allocates).
        let mut buf = std::mem::take(&mut self.wc_buf);
        buf.clear();
        self.cores[cid].wc.nt_write_into(addr, size, &mut buf);
        self.apply_wc_flushes(&buf, site);
        self.wc_buf = buf;
    }

    /// Apply WC-buffer flushes, attributing the device traffic to `site`
    /// (the NT store that triggered the flush, or the fence that forced
    /// it — an approximation: a WC buffer does not remember which NT store
    /// filled each slot).
    fn apply_wc_flushes(&mut self, flushes: &[WcFlush], site: FuncId) {
        for f in flushes {
            match *f {
                WcFlush::Full(line) => {
                    self.device_write_attributed(line, self.cfg.line_size, site)
                }
                WcFlush::Partial(line, bytes) => self.device_write_attributed(line, bytes, site),
            }
        }
    }

    /// A `clean` pre-store: write the dirty line back, keep it cached.
    fn prestore_clean(&mut self, cid: CoreId, line: Addr, id: LineId, site: FuncId) {
        self.acts.cleans += 1;
        self.site_add(site, site_col::CLEANS, 1);
        self.cores[cid].now += self.cfg.costs.prestore_issue;
        // Order with respect to a pending private store: force its drain
        // (asynchronously) first, like a demote.
        let pending = self.cores[cid].sb.unstarted_through(line);
        if let Some(n) = pending {
            self.schedule_drains(cid, self.cores[cid].now, n);
        }
        let in_sb = pending.is_some();
        let dirty_l1 = self.cores[cid].l1.clean_line(line);
        let dirty_llc = self.llc.clean_line(line);
        if dirty_l1 || dirty_llc || in_sb {
            if dirty_l1 {
                self.tables.owner_clear(id, line);
            }
            // The clean ends the line's dirty lifetime: charge the device
            // write to the site that first dirtied it (falling back to the
            // clean's own site for lines dirtied outside the tagged paths).
            let (dirt_site, step) =
                self.tables.dirt_take(id, line).unwrap_or((site, self.cur_step));
            crate::probes::LINE_LIFETIME.record(self.cur_step.saturating_sub(step));
            self.device_write_attributed(line, self.cfg.line_size, dirt_site);
            let now = self.cores[cid].now;
            let ready = now + self.device.write_latency();
            self.tables.wb_set(id, line, ready);
        }
    }

    /// A `demote` pre-store: push the line down to the shared level. The
    /// line stays dirty (now in the LLC), so its first-dirty tag survives
    /// for the eventual eviction to claim.
    fn prestore_demote(&mut self, cid: CoreId, line: Addr, id: LineId, site: FuncId) {
        self.acts.demotes += 1;
        self.site_add(site, site_col::DEMOTES, 1);
        self.cores[cid].now += self.cfg.costs.prestore_issue;
        // Start the background drain of the private store, if any.
        if let Some(n) = self.cores[cid].sb.unstarted_through(line) {
            self.schedule_drains(cid, self.cores[cid].now, n);
        }
        // Push the data down to the shared level so other cores can hit
        // it there. ARM's `dc cvau` *cleans* to the point of unification:
        // the L1 keeps a (now clean) copy, so the producer's next write to
        // the same line still hits locally.
        let was_dirty = self.cores[cid].l1.clean_line(line);
        if was_dirty || self.cores[cid].l1.probe(line) {
            self.tables.owner_clear(id, line);
            self.llc_insert(line, id, was_dirty);
        }
    }

    /// Full fence: wait for every pending store to become visible, flush
    /// the WC buffers (their device traffic is attributed to `site`).
    /// Returns the stall in cycles.
    fn fence(&mut self, cid: CoreId, site: FuncId) -> Cycles {
        let now = self.cores[cid].now;
        let done = self.schedule_drains(cid, now, usize::MAX);
        self.cores[cid].sb.retire_all();
        let stall = done.saturating_sub(now);
        self.cores[cid].now = now.max(done);
        let mut buf = std::mem::take(&mut self.wc_buf);
        buf.clear();
        self.cores[cid].wc.flush_all_into(&mut buf);
        self.apply_wc_flushes(&buf, site);
        self.wc_buf = buf;
        stall
    }

    /// Atomic RMW: fence semantics plus exclusive ownership of the line.
    ///
    /// The drain of the store buffer and the RFO of the atomic's own line
    /// are independent cache operations and overlap; the atomic retires
    /// when the slower of the two completes.
    fn atomic(&mut self, cid: CoreId, line: Addr, id: LineId, site: FuncId) {
        let start = self.cores[cid].now;
        let stall = self.fence(cid, site);
        if let Some(done) = self.tables.wb_get(id, line) {
            let now = self.cores[cid].now;
            if done > now {
                self.cores[cid].stats.writeback_stall_cycles += done - now;
                self.cores[cid].now = done;
                self.site_add(site, site_col::WRITEBACK_STALL, done - now);
                crate::probes::STALL_CYCLES.record(done - now);
            }
            self.tables.wb_clear(id, line);
        }
        let rfo = self.acquire_for_write(cid, line, id);
        // Overlap the drain stall with the RFO.
        self.cores[cid].now = (start + stall.max(rfo)).max(self.cores[cid].now - stall)
            + self.cfg.costs.atomic_op;
        let total = self.cores[cid].now - start;
        self.cores[cid].stats.atomic_stall_cycles += total;
        self.cores[cid].stats.atomics += 1;
        self.site_add(site, site_col::ATOMIC_STALL, total);
        if total > 0 {
            crate::probes::STALL_CYCLES.record(total);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;
    use simcore::{PrestoreOp, Tracer};

    fn trace_of(f: impl FnOnce(&mut Tracer)) -> ThreadTrace {
        let mut t = Tracer::new();
        f(&mut t);
        t.finish()
    }

    /// Validate and replay one thread.
    fn try_single(cfg: &MachineConfig, trace: &ThreadTrace) -> Result<RunStats, EngineError> {
        try_simulate_threads(cfg, std::slice::from_ref(trace))
    }

    #[test]
    fn empty_trace_runs() {
        let cfg = MachineConfig::machine_a();
        let r = simulate_single(&cfg, &ThreadTrace::default());
        assert_eq!(r.cpu_cycles, 0);
    }

    #[test]
    fn stream_replay_matches_materialized_across_chunk_sizes() {
        // Two threads with cross-thread acquire/release traffic and
        // prestores: thread 1 blocks until thread 0's atomics land, so the
        // streaming scheduler's wakeup path is exercised too.
        let t0 = trace_of(|t| {
            for i in 0..300u64 {
                t.write(i * 64, 48);
                t.prestore(i * 64, 48, PrestoreOp::Clean);
            }
            t.atomic(1 << 40, 8);
            t.atomic(1 << 40, 8);
            t.fence();
        });
        let t1 = trace_of(|t| {
            t.acquire(1 << 40, 2);
            for i in 0..300u64 {
                t.read(i * 64, 48);
            }
            t.fence();
        });
        let threads = vec![t0, t1];
        for cfg in [MachineConfig::machine_a(), MachineConfig::machine_b_fast()] {
            let golden = try_simulate_threads(&cfg, &threads).unwrap();
            let mut digests = Vec::new();
            for chunk_events in [1usize, 7, 64, 65_536] {
                let mut src = simcore::SliceSource::new(&threads);
                let report = try_simulate_stream_opts(
                    &cfg,
                    &mut src,
                    StreamOptions { chunk_events },
                )
                .unwrap();
                assert_eq!(report.stats, golden, "chunk_events={chunk_events}");
                assert_eq!(report.events, 905);
                digests.push(report.digest);
            }
            digests.dedup();
            assert_eq!(digests.len(), 1, "digest must be chunk-size-invariant");
        }
    }

    #[test]
    fn stream_replay_single_thread_matches_materialized() {
        let trace = trace_of(|t| {
            for i in 0..500u64 {
                t.write(i * 64, 64);
                t.read((i % 17) * 64, 8);
            }
            t.fence();
        });
        let cfg = MachineConfig::machine_a();
        let golden = try_single(&cfg, &trace).unwrap();
        let threads = [trace];
        let mut src = simcore::SliceSource::new(&threads);
        let report =
            try_simulate_stream_opts(&cfg, &mut src, StreamOptions { chunk_events: 33 }).unwrap();
        assert_eq!(report.stats, golden);
        assert!(report.chunks >= 31, "500 events / 33 per chunk");
        assert!(report.peak_pipeline_bytes > 0);
    }

    #[test]
    fn stream_replay_reports_runtime_deadlock_for_unsatisfiable_acquire() {
        // The materialized validator rejects this statically; a stream's
        // future releases are unknowable, so the streaming path reports
        // the deadlock at replay time instead.
        let threads = [trace_of(|t| t.acquire(0, 1))];
        let cfg = MachineConfig::machine_a();
        let mut src = simcore::SliceSource::new(&threads);
        let err = try_simulate_stream(&cfg, &mut src).unwrap_err();
        assert!(matches!(err, EngineError::ReplayDeadlock { .. }), "{err}");
    }

    #[test]
    fn stream_replay_rejects_empty_and_malformed_sources() {
        let cfg = MachineConfig::machine_a();
        let threads: [ThreadTrace; 0] = [];
        let mut src = simcore::SliceSource::new(&threads);
        assert!(matches!(
            try_simulate_stream(&cfg, &mut src).unwrap_err(),
            EngineError::EmptyTraceSet
        ));
        let threads = [trace_of(|t| t.write(0, 0))];
        let mut src = simcore::SliceSource::new(&threads);
        assert!(matches!(
            try_simulate_stream(&cfg, &mut src).unwrap_err(),
            EngineError::MalformedTrace(simcore::ValidateError::ZeroSizeAccess { .. })
        ));
    }

    #[test]
    fn reads_hit_after_first_access() {
        let cfg = MachineConfig::machine_a();
        let r = simulate_single(&cfg, &trace_of(|t| {
            t.read(0, 64);
            t.read(0, 64);
            t.read(0, 64);
        }));
        assert_eq!(r.l1.hits, 2);
        assert_eq!(r.l1.misses, 1);
        // First read pays device latency, the rest L1 hits.
        assert!(r.cpu_cycles >= 350 && r.cpu_cycles < 400, "{}", r.cpu_cycles);
    }

    #[test]
    fn demote_before_fence_hides_latency_on_weak_machine() {
        let cfg = MachineConfig::machine_b_fast();
        let reads_between = |demote: bool| {
            trace_of(|t| {
                for i in 0..1000u64 {
                    t.write(i * 128, 128);
                    if demote {
                        t.prestore(i * 128, 128, PrestoreOp::Demote);
                    }
                    // 60 L1 reads of a small hot array to overlap with.
                    for j in 0..60u64 {
                        t.read(1 << 30 | (j * 128), 8);
                    }
                    t.fence();
                }
            })
        };
        let base = simulate_single(&cfg, &reads_between(false));
        let demoted = simulate_single(&cfg, &reads_between(true));
        assert!(
            demoted.cycles < base.cycles,
            "demote {} !< base {}",
            demoted.cycles,
            base.cycles
        );
        assert!(demoted.total_fence_stalls() < base.total_fence_stalls());
    }

    #[test]
    fn demote_gains_nothing_without_overlap_window() {
        let cfg = MachineConfig::machine_b_fast();
        let mk = |demote: bool| {
            trace_of(|t| {
                for i in 0..200u64 {
                    t.write(i * 128, 128);
                    if demote {
                        t.prestore(i * 128, 128, PrestoreOp::Demote);
                    }
                    t.fence();
                }
            })
        };
        let base = simulate_single(&cfg, &mk(false));
        let demoted = simulate_single(&cfg, &mk(true));
        let gain = demoted.improvement_pct_vs(&base);
        assert!(gain.abs() < 5.0, "no-overlap gain should be ~0, got {gain:.1}%");
    }

    #[test]
    fn tso_machine_fences_are_cheap_when_spaced() {
        // On Machine A (TSO) drains start eagerly; a fence after enough
        // other work stalls very little.
        let cfg = MachineConfig::machine_a();
        let r = simulate_single(&cfg, &trace_of(|t| {
            t.write(0, 64);
            t.compute(2000);
            t.fence();
        }));
        assert!(
            r.total_fence_stalls() < 50,
            "TSO fence stall {} should be small",
            r.total_fence_stalls()
        );
    }

    #[test]
    fn weak_machine_fence_pays_ownership_latency() {
        let cfg = MachineConfig::machine_b_slow();
        let r = simulate_single(&cfg, &trace_of(|t| {
            t.write(0, 128);
            t.compute(2000);
            t.fence();
        }));
        // Ownership = directory (200) + read (200): the fence pays it all.
        assert!(
            r.total_fence_stalls() >= 300,
            "weak fence stall {} should pay device latency",
            r.total_fence_stalls()
        );
    }

    #[test]
    fn sequential_writeback_has_low_amplification_after_clean() {
        let cfg = MachineConfig::machine_a();
        // Write 4 MB sequentially (2x the LLC) and clean each element.
        let mk = |clean: bool| {
            trace_of(|t| {
                for i in 0..(4 * 1024 * 1024 / 256) as u64 {
                    t.write(i * 256, 256);
                    if clean {
                        t.prestore(i * 256, 256, PrestoreOp::Clean);
                    }
                }
            })
        };
        let base = simulate_single(&cfg, &mk(false));
        let cleaned = simulate_single(&cfg, &mk(true));
        assert!(
            cleaned.write_amplification() < 1.1,
            "cleaned WA {}",
            cleaned.write_amplification()
        );
        assert!(
            base.write_amplification() > cleaned.write_amplification(),
            "base WA {} vs cleaned {}",
            base.write_amplification(),
            cleaned.write_amplification()
        );
    }

    #[test]
    fn cleaning_hot_line_stalls_rewrites() {
        // Listing 3: cleaning a constantly rewritten line is catastrophic.
        let cfg = MachineConfig::machine_a();
        let mk = |clean: bool| {
            trace_of(|t| {
                for _ in 0..10_000 {
                    t.write(0, 64);
                    if clean {
                        t.prestore(0, 64, PrestoreOp::Clean);
                    }
                }
            })
        };
        let base = simulate_single(&cfg, &mk(false));
        let cleaned = simulate_single(&cfg, &mk(true));
        let slowdown = cleaned.cycles as f64 / base.cycles as f64;
        assert!(
            slowdown > 20.0,
            "hot-line cleaning slowdown {slowdown:.0}x should be large"
        );
    }

    #[test]
    fn skipping_is_slower_than_cleaning_when_data_is_reread() {
        // §5: in Listing 1 with the re-read kept, skipping the cache makes
        // the re-read fetch from memory instead of the cache.
        // Random element addresses, as in Listing 1 (sequential re-reads
        // would be hidden by the stream prefetcher).
        let addr = |i: u64| (i.wrapping_mul(0x9E37_79B9) % 100_000) * 64;
        let cfg = MachineConfig::machine_a();
        let skip = simulate_single(&cfg, &trace_of(|t| {
            for i in 0..2000u64 {
                t.nt_write(addr(i), 64);
                t.read(addr(i), 8);
            }
        }));
        let clean = simulate_single(&cfg, &trace_of(|t| {
            for i in 0..2000u64 {
                t.write(addr(i), 64);
                t.prestore(addr(i), 64, PrestoreOp::Clean);
                t.read(addr(i), 8);
            }
        }));
        assert!(
            skip.cycles as f64 > 1.5 * clean.cycles as f64,
            "skip {} !>> clean {}",
            skip.cycles,
            clean.cycles
        );
    }

    #[test]
    fn cross_core_read_of_demoted_line_is_cheaper() {
        let cfg = MachineConfig::machine_b_fast();
        let mk = |demote: bool| {
            let mut producer = Tracer::new();
            let mut consumer = Tracer::new();
            for i in 0..500u64 {
                producer.write(i * 128, 128);
                if demote {
                    producer.prestore(i * 128, 128, PrestoreOp::Demote);
                }
                // Ring management work between crafting and publishing —
                // the window the demote overlaps with.
                producer.compute(200);
                producer.atomic(1 << 30, 8);
                // Consumer polls the flag then reads the payload.
                consumer.compute(50);
                consumer.read(i * 128, 128);
            }
            TraceSet::new(vec![producer.finish(), consumer.finish()])
        };
        let base = simulate(&cfg, &mk(false));
        let demoted = simulate(&cfg, &mk(true));
        assert!(
            demoted.cycles < base.cycles,
            "demoted message passing {} !< {}",
            demoted.cycles,
            base.cycles
        );
    }

    #[test]
    fn multi_core_clocks_all_advance() {
        let cfg = MachineConfig::machine_a();
        let mk = || {
            trace_of(|t| {
                for i in 0..100u64 {
                    t.write(i * 64, 64);
                }
            })
        };
        let r = simulate(&cfg, &TraceSet::new(vec![mk(), mk(), mk()]));
        assert_eq!(r.cores.len(), 3);
        assert!(r.cores.iter().all(|c| c.cycles > 0));
    }

    #[test]
    fn media_bound_run_reports_bandwidth_time() {
        let cfg = MachineConfig::machine_a();
        // 8 cores streaming NT writes: far beyond Optane bandwidth.
        let mk = |c: u64| {
            trace_of(move |t| {
                for i in 0..20_000u64 {
                    t.nt_write((c << 32) + i * 64, 64);
                }
            })
        };
        let r = simulate(&cfg, &TraceSet::new((0..8).map(mk).collect()));
        assert!(r.is_media_bound());
        assert!(r.cycles >= r.media_busy_cycles);
    }

    #[test]
    fn try_simulate_rejects_empty_trace_set() {
        let cfg = MachineConfig::machine_a();
        assert_eq!(try_simulate(&cfg, &TraceSet::default()), Err(EngineError::EmptyTraceSet));
    }

    /// `cores` threads that pass dirty lines between high core ids: each
    /// writes a shared line and a private one, then reads a neighbour's.
    fn many_core_threads(cores: usize) -> Vec<ThreadTrace> {
        (0..cores as u64)
            .map(|c| {
                trace_of(|t| {
                    t.write((c % 4) * 64, 8);
                    t.write(0x10_000 + c * 64, 8);
                    t.read(((c + 1) % 4) * 64, 8);
                })
            })
            .collect()
    }

    #[test]
    fn replays_at_most_max_cores_threads() {
        let cfg = MachineConfig::machine_a();
        // At the limit every core id fits the packed owner field: the
        // flat tables agree with the address-keyed reference.
        let threads = many_core_threads(MAX_CORES);
        let flat = try_simulate_threads(&cfg, &threads).expect("MAX_CORES threads replay");
        assert_eq!(Ok(flat), try_simulate_threads_reference(&cfg, &threads));

        let threads = many_core_threads(MAX_CORES + 1);
        let too_many = Err(EngineError::TooManyCores { cores: MAX_CORES + 1, limit: MAX_CORES });
        assert_eq!(try_simulate_threads(&cfg, &threads), too_many);
        assert_eq!(try_simulate_threads_reference(&cfg, &threads), too_many);
        let mut src = simcore::SliceSource::new(&threads);
        assert_eq!(try_simulate_stream(&cfg, &mut src).map(|r| r.stats), too_many);
        let traces = TraceSet::new(threads);
        let crashed = Machine::new(cfg.clone()).try_run_until_crash(&traces, CrashPlan::AtStep(1));
        assert_eq!(crashed.map(|_| ()), too_many.map(|_: RunStats| ()));
        let msg = std::panic::catch_unwind(move || simulate(&cfg, &traces))
            .expect_err("the panicking entry point refuses too many threads");
        let msg = msg.downcast_ref::<String>().expect("panic payload is a String");
        assert!(msg.contains("too many cores"), "{msg}");
    }

    #[test]
    fn try_simulate_rejects_malformed_trace() {
        let cfg = MachineConfig::machine_a();
        let traces = TraceSet::new(vec![trace_of(|t| t.read(0, 0))]);
        assert!(matches!(try_simulate(&cfg, &traces), Err(EngineError::MalformedTrace(_))));
    }

    #[test]
    fn try_simulate_rejects_unsatisfiable_acquire_statically() {
        let cfg = MachineConfig::machine_a();
        let traces = TraceSet::new(vec![trace_of(|t| t.acquire(0x40, 1))]);
        match try_simulate(&cfg, &traces) {
            Err(EngineError::AcquireUnsatisfiable { core, line, seq, available, .. }) => {
                assert_eq!((core, line, seq, available), (0, 0x40, 1, 0));
            }
            other => panic!("expected AcquireUnsatisfiable, got {other:?}"),
        }
    }

    #[test]
    fn runtime_deadlock_reports_blocked_cores() {
        // Statically every acquire is satisfiable (each line is released
        // once), but the two threads wait on each other's release first:
        // a genuine circular wait only the replay can detect.
        let mut a = Tracer::new();
        a.acquire(0x80, 1); // waits for b's atomic...
        a.atomic(0x40, 8);
        let mut b = Tracer::new();
        b.acquire(0x40, 1); // ...which waits for a's atomic.
        b.atomic(0x80, 8);
        let cfg = MachineConfig::machine_a();
        match try_simulate(&cfg, &TraceSet::new(vec![a.finish(), b.finish()])) {
            Err(EngineError::ReplayDeadlock { blocked }) => {
                assert_eq!(blocked.len(), 2, "{blocked:?}");
                assert!(blocked.contains(&(0, 0x80, 1)), "{blocked:?}");
                assert!(blocked.contains(&(1, 0x40, 1)), "{blocked:?}");
            }
            other => panic!("expected ReplayDeadlock, got {other:?}"),
        }
    }

    #[test]
    fn simulate_panics_with_deadlock_message() {
        let mut a = Tracer::new();
        a.acquire(0x80, 1);
        a.atomic(0x40, 8);
        let mut b = Tracer::new();
        b.acquire(0x40, 1);
        b.atomic(0x80, 8);
        let traces = TraceSet::new(vec![a.finish(), b.finish()]);
        let cfg = MachineConfig::machine_a();
        let msg = std::panic::catch_unwind(move || simulate(&cfg, &traces))
            .expect_err("deadlocked run must panic");
        let msg = msg.downcast_ref::<String>().expect("panic payload is a String");
        assert!(msg.contains("deadlock"), "{msg}");
        assert!(msg.contains("core 0"), "{msg}");
    }

    #[test]
    fn watchdog_fires_on_tiny_explicit_budget() {
        let mut cfg = MachineConfig::machine_a();
        cfg.step_budget = Some(10);
        let trace = trace_of(|t| {
            for i in 0..100u64 {
                t.write(i * 64, 64);
            }
        });
        match try_simulate(&cfg, &TraceSet::new(vec![trace])) {
            Err(EngineError::StepBudgetExceeded { steps, budget, progress, .. }) => {
                assert_eq!(budget, 10);
                assert_eq!(steps, 11);
                assert_eq!(progress, vec![(0, 10, 100)]);
            }
            other => panic!("expected StepBudgetExceeded, got {other:?}"),
        }
    }

    #[test]
    fn derived_budget_never_fires_on_valid_traces() {
        // Acquire-heavy two-thread schedule: each acquire blocks once and
        // retries, the worst case for step count.
        let mut p = Tracer::new();
        let mut c = Tracer::new();
        for i in 0..500u64 {
            p.compute(10);
            p.atomic(0x40, 8);
            c.acquire(0x40, (i + 1) as u32);
        }
        let traces = TraceSet::new(vec![p.finish(), c.finish()]);
        let stats = try_simulate(&MachineConfig::machine_a(), &traces)
            .expect("valid trace must replay");
        assert_eq!(stats.cores.len(), 2);
    }

    #[test]
    fn injected_device_faults_slow_the_run_deterministically() {
        use memdev::TransientFaults;
        let trace = trace_of(|t| {
            for i in 0..2000u64 {
                t.read(i * 64, 64);
            }
        });
        let clean = simulate_single(&MachineConfig::machine_a(), &trace);
        let mut cfg = MachineConfig::machine_a();
        cfg.device
            .inject_faults(Some(TransientFaults::new(10, 5_000)))
            .expect("optane supports fault injection");
        let faulty = simulate_single(&cfg, &trace);
        assert!(
            faulty.cpu_cycles > clean.cpu_cycles,
            "faults {} !> clean {}",
            faulty.cpu_cycles,
            clean.cpu_cycles
        );
        let again = simulate_single(&cfg, &trace);
        assert_eq!(faulty, again, "fault injection must stay deterministic");
    }

    fn crash_of(outcome: Result<CrashOutcome, EngineError>) -> Box<CrashReport> {
        match outcome.expect("replay must not error") {
            CrashOutcome::Crashed(r) => r,
            CrashOutcome::Completed { .. } => panic!("crash plan must fire"),
        }
    }

    fn digest_of(outcome: Result<CrashOutcome, EngineError>) -> u64 {
        match outcome.expect("replay must not error") {
            CrashOutcome::Completed { durable_digest, .. } => {
                durable_digest.expect("crash-armed completion tracks the digest")
            }
            CrashOutcome::Crashed(r) => panic!("plan fired unexpectedly at step {}", r.at_step),
        }
    }

    #[test]
    fn crash_at_step_freezes_after_the_step_retires() {
        let m = Machine::new(MachineConfig::machine_a());
        let traces = TraceSet::new(vec![trace_of(|t| {
            for i in 0..100u64 {
                t.write(i * 64, 64);
            }
        })]);
        let report = crash_of(m.try_run_until_crash(&traces, CrashPlan::AtStep(10)));
        assert_eq!(report.at_step, 10);
        assert!(report.image.pcs[0] > 0, "the triggering step retired");
        // Everything written so far is either durable or lost, never both.
        for &line in &report.image.durable {
            assert!(!report.image.lost.contains(&line), "line {line:#x} in both partitions");
        }
        assert!(report.lost_lines > 0, "in-flight stores must be lost");
        assert_eq!(report.lost_bytes, report.lost_lines * 64);
    }

    #[test]
    fn crash_at_step_zero_behaves_like_step_one() {
        let m = Machine::new(MachineConfig::machine_a());
        let traces = TraceSet::new(vec![trace_of(|t| t.write(0, 64))]);
        let report = crash_of(m.try_run_until_crash(&traces, CrashPlan::AtStep(0)));
        assert_eq!(report.at_step, 1);
    }

    #[test]
    fn crash_at_every_kth_fence_counts_fences() {
        let m = Machine::new(MachineConfig::machine_a());
        let traces = TraceSet::new(vec![trace_of(|t| {
            for i in 0..10u64 {
                t.write(i * 64, 64);
                t.fence();
            }
        })]);
        let report = crash_of(m.try_run_until_crash(&traces, CrashPlan::EveryKFences(3)));
        assert_eq!(report.fences_seen, 3);
        let report0 = crash_of(m.try_run_until_crash(&traces, CrashPlan::EveryKFences(0)));
        assert_eq!(report0.fences_seen, 1, "k = 0 behaves like k = 1");
    }

    #[test]
    fn crash_at_cycle_fires_when_a_clock_passes_it() {
        let m = Machine::new(MachineConfig::machine_a());
        let traces = TraceSet::new(vec![trace_of(|t| {
            for _ in 0..100 {
                t.compute(50);
            }
        })]);
        let report = crash_of(m.try_run_until_crash(&traces, CrashPlan::AtCycle(1000)));
        assert!(report.at_cycle >= 1000, "{}", report.at_cycle);
        assert!(report.at_cycle < 1100, "fired on the first step past the cycle");
    }

    #[test]
    fn unfired_plan_completes_with_a_digest() {
        let cfg = MachineConfig::machine_a();
        let m = Machine::new(cfg.clone());
        let traces = TraceSet::new(vec![trace_of(|t| {
            for i in 0..200u64 {
                t.write(i * 64, 64);
            }
        })]);
        let d1 = digest_of(m.try_run_until_crash(&traces, CrashPlan::AtStep(u64::MAX)));
        let d2 = digest_of(m.try_run_until_crash(&traces, CrashPlan::AtStep(u64::MAX)));
        assert_eq!(d1, d2, "digest is deterministic");
        // The armed-but-unfired run must not perturb the stats themselves.
        let plain = try_simulate(&cfg, &traces).expect("valid");
        match m.try_run_until_crash(&traces, CrashPlan::AtStep(u64::MAX)).expect("valid") {
            CrashOutcome::Completed { stats, .. } => assert_eq!(*stats, plain),
            CrashOutcome::Crashed(_) => panic!("plan cannot fire"),
        }
    }

    #[test]
    fn crash_then_recovery_reaches_the_uninterrupted_durable_state() {
        let m = Machine::new(MachineConfig::machine_a());
        let traces = TraceSet::new(vec![trace_of(|t| {
            for i in 0..500u64 {
                // Strided writes so the device keeps blocks open (write
                // amplification pressure makes the partition interesting).
                t.write((i * 4096) % (1 << 20), 64);
            }
            t.fence();
        })]);
        let golden = digest_of(m.try_run_until_crash(&traces, CrashPlan::AtStep(u64::MAX)));
        for crash_step in [1u64, 100, 400] {
            let report = crash_of(m.try_run_until_crash(&traces, CrashPlan::AtStep(crash_step)));
            let resumed = digest_of(m.recover_and_resume(&traces, &report.image, None));
            assert_eq!(resumed, golden, "crash at step {crash_step} diverged after recovery");
        }
    }

    #[test]
    fn recovery_restores_release_counts_for_blocked_acquires() {
        // Producer releases line 0x40 twice; consumer acquires seq 2. Crash
        // after the atomics: without release restoration the resumed
        // consumer would deadlock.
        let mut p = Tracer::new();
        p.atomic(0x40, 8);
        p.atomic(0x40, 8);
        for i in 0..50u64 {
            p.write(i * 64, 64);
        }
        let mut c = Tracer::new();
        c.compute(100_000); // stay behind the producer's atomics
        c.acquire(0x40, 2);
        c.write(1 << 20, 64);
        let traces = TraceSet::new(vec![p.finish(), c.finish()]);
        let m = Machine::new(MachineConfig::machine_a());
        let report = crash_of(m.try_run_until_crash(&traces, CrashPlan::AtStep(20)));
        assert_eq!(report.image.releases, vec![(0x40, 2)]);
        let golden = digest_of(m.try_run_until_crash(&traces, CrashPlan::AtStep(u64::MAX)));
        let resumed = digest_of(m.recover_and_resume(&traces, &report.image, None));
        assert_eq!(resumed, golden);
    }

    #[test]
    fn recovery_rejects_a_mismatched_image() {
        let m = Machine::new(MachineConfig::machine_a());
        let traces = TraceSet::new(vec![trace_of(|t| {
            for i in 0..100u64 {
                t.write(i * 64, 64);
            }
        })]);
        let report = crash_of(m.try_run_until_crash(&traces, CrashPlan::AtStep(10)));
        let two_threads = TraceSet::new(vec![
            trace_of(|t| t.write(0, 64)),
            trace_of(|t| t.write(64, 64)),
        ]);
        assert_eq!(
            m.recover_and_resume(&two_threads, &report.image, None),
            Err(EngineError::CrashImageMismatch { image_cores: 1, trace_threads: 2 })
        );
    }

    #[test]
    fn recovery_rejects_an_image_of_another_line_size() {
        // A Machine A (64 B line) image resumed on Machine B-fast (128 B
        // line): the redo writes would land on 64 B lines, and the
        // released line 0x40 starts no 128 B line, so its count would be
        // dropped silently.
        let traces = TraceSet::new(vec![trace_of(|t| {
            t.atomic(0x40, 8);
            for i in 0..100u64 {
                t.write(i * 64, 64);
            }
        })]);
        let a = Machine::new(MachineConfig::machine_a());
        let report = crash_of(a.try_run_until_crash(&traces, CrashPlan::AtStep(50)));
        assert_eq!(report.image.releases, vec![(0x40, 1)]);
        let b_fast = Machine::new(MachineConfig::machine_b_fast());
        assert_eq!(
            b_fast.recover_and_resume(&traces, &report.image, None),
            Err(EngineError::CrashImageLineSize { image_line_size: 64, machine_line_size: 128 })
        );
    }

    #[test]
    fn crash_plans_fire_identically_on_streamed_and_materialized_feeds() {
        // Two threads with a release hand-off, fences and cleans, so the
        // plans land while a core is blocked, just woke up, or has
        // writebacks in flight; the last plan never fires.
        let t0 = trace_of(|t| {
            for i in 0..120u64 {
                t.write(i * 64, 64);
                if i % 10 == 9 {
                    t.fence();
                }
            }
            t.atomic(1 << 30, 8);
        });
        let t1 = trace_of(|t| {
            t.acquire(1 << 30, 1);
            for i in 0..80u64 {
                t.write((1 << 20) + i * 64, 64);
                t.prestore((1 << 20) + i * 64, 64, PrestoreOp::Clean);
            }
        });
        let threads = vec![t0, t1];
        let traces = TraceSet::new(threads.clone());
        let cfg = MachineConfig::machine_a();
        let m = Machine::new(cfg.clone());
        let plans = [
            CrashPlan::AtStep(1),
            CrashPlan::AtStep(200),
            CrashPlan::EveryKFences(7),
            CrashPlan::AtCycle(2_000),
            CrashPlan::AtStep(u64::MAX),
        ];
        for plan in plans {
            let materialized = m.try_run_until_crash(&traces, plan).unwrap();
            let fired = matches!(materialized, CrashOutcome::Crashed(_));
            assert_eq!(fired, plan != CrashPlan::AtStep(u64::MAX), "{plan:?}");
            for chunk_events in [1usize, 7, 65_536] {
                let mut source = simcore::SliceSource::new(&threads);
                let feed = StreamFeed::new(cfg.line_size, threads.len(), chunk_events);
                let mut engine = Engine::new_flat(&cfg, 0, threads.len());
                engine.arm_crash(CrashCtx::new(plan));
                let streamed = engine.replay(&mut Streamed { feed, source: &mut source }).unwrap();
                assert_eq!(streamed, materialized, "{plan:?} at chunk_events={chunk_events}");
            }
        }
    }

    #[test]
    fn iterated_crash_recovery_terminates_and_converges() {
        // Crash at the first fence of every segment; each segment retires
        // at least one event, so the loop terminates.
        let m = Machine::new(MachineConfig::machine_a());
        let traces = TraceSet::new(vec![trace_of(|t| {
            for i in 0..50u64 {
                t.write(i * 64, 64);
                t.fence();
            }
        })]);
        let golden = digest_of(m.try_run_until_crash(&traces, CrashPlan::AtStep(u64::MAX)));
        let mut outcome = m
            .try_run_until_crash(&traces, CrashPlan::EveryKFences(1))
            .expect("replay must not error");
        let mut crashes = 0u32;
        let digest = loop {
            match outcome {
                CrashOutcome::Completed { durable_digest, .. } => {
                    break durable_digest.expect("crash-armed run")
                }
                CrashOutcome::Crashed(report) => {
                    crashes += 1;
                    assert!(crashes <= 51, "iterated recovery failed to terminate");
                    outcome = m
                        .recover_and_resume(
                            &traces,
                            &report.image,
                            Some(CrashPlan::EveryKFences(1)),
                        )
                        .expect("recovery must not error");
                }
            }
        };
        assert!(crashes >= 40, "a crash per fence, got {crashes}");
        assert_eq!(digest, golden, "crash-at-every-fence diverged after {crashes} crashes");
    }

    #[test]
    fn volatile_devices_have_no_durable_lines() {
        let m = Machine::new(MachineConfig::machine_a_dram());
        let traces = TraceSet::new(vec![trace_of(|t| {
            for i in 0..2000u64 {
                t.write(i * 64, 64);
            }
        })]);
        let report = crash_of(m.try_run_until_crash(&traces, CrashPlan::AtStep(1500)));
        assert_eq!(report.durable_lines, 0, "DRAM commits nothing across power loss");
        assert!(report.lost_lines > 0);
        // Recovery still converges: the redo set carries everything.
        let golden = digest_of(m.try_run_until_crash(&traces, CrashPlan::AtStep(u64::MAX)));
        assert_eq!(digest_of(m.recover_and_resume(&traces, &report.image, None)), golden);
    }

    #[test]
    fn crash_report_attributes_lost_lines_to_sites() {
        use simcore::FuncRegistry;
        let mut reg = FuncRegistry::new();
        let f = reg.register("dirty_writer", "crash.c", 9);
        let mut t = Tracer::new();
        t.enter_raw(f);
        for i in 0..100u64 {
            t.write(i * 64, 64);
        }
        t.leave();
        let m = Machine::new(MachineConfig::machine_a());
        let traces = TraceSet::new(vec![t.finish()]);
        let report = crash_of(m.try_run_until_crash(&traces, CrashPlan::AtStep(50)));
        let attributed: u64 = report
            .sites
            .iter()
            .filter(|(s, _)| *s == f)
            .map(|(_, l)| l.lines)
            .sum();
        assert!(attributed > 0, "lost lines must name the dirtying site: {:?}", report.sites);
    }

    #[test]
    fn try_simulate_matches_simulate_on_valid_traces() {
        let trace = trace_of(|t| {
            for i in 0..200u64 {
                t.write(i * 64, 64);
                t.read(i * 64, 8);
            }
            t.fence();
        });
        let cfg = MachineConfig::machine_a();
        let via_run = simulate_single(&cfg, &trace);
        let via_try = try_single(&cfg, &trace).expect("valid");
        assert_eq!(via_run, via_try);
    }

    #[test]
    fn timeseries_windows_tile_and_sum_to_totals() {
        let trace = trace_of(|t| {
            for i in 0..2000u64 {
                t.write(i * 64, 64);
                t.read((i % 31) * 64, 8);
            }
            t.fence();
        });
        let mut cfg = MachineConfig::machine_a();
        cfg.timeseries_window = Some(1000);
        let sampled = try_single(&cfg, &trace).unwrap();
        assert!(!sampled.timeseries.is_empty());
        assert_eq!(sampled.timeseries_window_cycles, 1000);
        for pair in sampled.timeseries.windows(2) {
            assert_eq!(pair[1].start, pair[0].start + 1000, "gap-free monotone tiling");
        }
        let sums = simcore::telemetry::timeseries::totals(&sampled.timeseries);
        assert_eq!(sums[crate::stats::ts_channel::STEPS], 4001, "one step per event");
        assert_eq!(
            sums[crate::stats::ts_channel::READ_LINES],
            sampled.cores.iter().map(|c| c.read_lines).sum::<u64>()
        );
        assert_eq!(
            sums[crate::stats::ts_channel::WRITE_LINES],
            sampled.cores.iter().map(|c| c.write_lines).sum::<u64>()
        );
        // Sampling must not perturb the simulation itself: everything but
        // the series matches an unsampled run byte for byte.
        let plain = try_single(&MachineConfig::machine_a(), &trace).unwrap();
        assert!(plain.timeseries.is_empty());
        assert_eq!(plain.timeseries_window_cycles, 0);
        let mut stripped = sampled.clone();
        stripped.timeseries = Vec::new();
        stripped.timeseries_window_cycles = 0;
        assert_eq!(stripped, plain);
    }

    #[test]
    fn timeseries_is_identical_across_stream_and_materialized() {
        let trace = trace_of(|t| {
            for i in 0..1500u64 {
                t.write(i * 64, 48);
                if i % 5 == 0 {
                    t.fence();
                }
            }
        });
        let mut cfg = MachineConfig::machine_a();
        cfg.timeseries_window = Some(500);
        let golden = try_single(&cfg, &trace).unwrap();
        let threads = [trace];
        for chunk_events in [9usize, 65_536] {
            let mut src = simcore::SliceSource::new(&threads);
            let report =
                try_simulate_stream_opts(&cfg, &mut src, StreamOptions { chunk_events }).unwrap();
            assert_eq!(report.stats.timeseries, golden.timeseries, "chunk_events={chunk_events}");
            assert_eq!(report.stats, golden);
        }
    }

    #[test]
    fn classified_run_records_per_class_latency() {
        use simcore::request::FenceDelimited;
        let trace = trace_of(|t| {
            for i in 0..50u64 {
                t.write(i * 64, 64);
                t.compute(10);
                t.fence();
            }
        });
        let cfg = MachineConfig::machine_a();
        let stats = try_simulate_threads_classified(
            &cfg,
            std::slice::from_ref(&trace),
            Box::new(FenceDelimited),
        )
        .unwrap();
        let op = stats.request_class("op").expect("class histogram exists");
        assert_eq!(op.count, 50, "one request per fence");
        assert!(op.p50() > 0);
        assert!(op.p999() >= op.p99() && op.p99() >= op.p50());
        // Classification must not perturb the simulation.
        let plain = try_single(&cfg, &trace).unwrap();
        let mut stripped = stats.clone();
        stripped.request_latency = Vec::new();
        assert_eq!(stripped, plain);
        // The streaming classified path agrees byte for byte.
        let threads = [trace];
        let mut src = simcore::SliceSource::new(&threads);
        let report = try_simulate_stream_classified(
            &cfg,
            &mut src,
            StreamOptions { chunk_events: 7 },
            Box::new(FenceDelimited),
        )
        .unwrap();
        assert_eq!(report.stats.request_latency, stats.request_latency);
    }

    #[test]
    fn crash_flight_dump_ends_with_the_crash_step() {
        use simcore::telemetry::flight::FlightKind;
        let m = Machine::new(MachineConfig::machine_a());
        let traces = TraceSet::new(vec![trace_of(|t| {
            for i in 0..100u64 {
                t.write(i * 64, 64);
            }
        })]);
        let report = crash_of(m.try_run_until_crash(&traces, CrashPlan::AtStep(10)));
        let last = report.flight.last().expect("dump is non-empty");
        assert_eq!(last.kind, FlightKind::Crash);
        assert_eq!((last.seq, last.a), (report.at_step, 10));
        // Every retired step is in the dump in order: writes at steps
        // 1..=10, then the crash marker stamped with the frozen step.
        let seqs: Vec<u64> = report.flight.iter().map(|e| e.seq).collect();
        let expected: Vec<u64> = (1..=10).chain(std::iter::once(10)).collect();
        assert_eq!(seqs, expected);
        assert!(report.flight[..10].iter().all(|e| e.kind == FlightKind::Write));
        // Deterministic across runs: the dump is pure simulated state.
        let again = crash_of(m.try_run_until_crash(&traces, CrashPlan::AtStep(10)));
        assert_eq!(report.flight, again.flight);
    }

    #[test]
    fn prestore_issue_cost_is_one_cycle() {
        let cfg = MachineConfig::machine_a();
        let with = simulate_single(&cfg, &trace_of(|t| {
            for i in 0..1000u64 {
                t.write(i * 64, 64);
                t.prestore(i * 64, 64, PrestoreOp::Clean);
            }
        }));
        let without = simulate_single(&cfg, &trace_of(|t| {
            for i in 0..1000u64 {
                t.write(i * 64, 64);
            }
        }));
        // 1000 extra pre-stores cost ~1 cycle each on the CPU side.
        let delta = with.cpu_cycles as i64 - without.cpu_cycles as i64;
        assert!(delta.abs() < 5_000, "prestore issue overhead {delta} cycles for 1000 ops");
    }
}
