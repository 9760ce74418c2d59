//! Per-layer measurement shared by the workloads: the deterministic work
//! counts, a timing wrapper around event sources, the layer split of
//! materialized traces, and the cache and device micro-probes.

use crate::report::{min, percentile, Metrics};
use crate::spans::Spans;
use crate::Ctx;
use machine::{MachineConfig, RunStats, StreamOptions};
use memdev::{MemDevice, OptanePmem};
use simcore::rng::{SimRng, Zipfian};
use simcore::{Event, EventSource, SliceSource};
use std::hint::black_box;
use std::time::Instant;
use workloads::WorkloadOutput;

/// Deterministic work counts of one or more replays. A change that only
/// speeds up the simulator leaves every one unchanged.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts {
    pub events: u64,
    pub distinct_lines: u64,
    pub chunks: u64,
    pub peak_pipeline_bytes: u64,
    pub sim_cycles: u64,
    pub cpu_cycles: u64,
    pub media_busy_cycles: u64,
    pub prestores: u64,
    pub fences: u64,
    pub stall_fence: u64,
    pub stall_atomic: u64,
    pub stall_sb: u64,
    pub stall_writeback: u64,
    pub l1_hits: u64,
    pub l1_misses: u64,
    pub l1_dirty_evictions: u64,
    pub l1_cleans: u64,
    pub llc_hits: u64,
    pub reads_received: u64,
    pub bytes_received: u64,
    pub media_bytes_written: u64,
    pub media_bytes_rmw_read: u64,
}

impl Counts {
    /// Add one replay's statistics.
    pub fn add(&mut self, s: &RunStats) {
        self.sim_cycles += s.cycles;
        self.cpu_cycles += s.cpu_cycles;
        self.media_busy_cycles += s.media_busy_cycles;
        for c in &s.cores {
            self.prestores += c.prestores;
            self.fences += c.fences;
            self.stall_fence += c.fence_stall_cycles;
            self.stall_atomic += c.atomic_stall_cycles;
            self.stall_sb += c.sb_pressure_stall_cycles;
            self.stall_writeback += c.writeback_stall_cycles;
        }
        self.l1_hits += s.l1.hits;
        self.l1_misses += s.l1.misses;
        self.l1_dirty_evictions += s.l1.dirty_evictions;
        self.l1_cleans += s.l1.cleans;
        self.llc_hits += s.llc.hits;
        self.reads_received += s.device.reads_received;
        self.bytes_received += s.device.bytes_received;
        self.media_bytes_written += s.device.media_bytes_written;
        self.media_bytes_rmw_read += s.device.media_bytes_rmw_read;
    }

    /// The counts by metric name, with units.
    pub fn named(&self) -> [(&'static str, u64, &'static str); 22] {
        [
            ("workloads.events", self.events, "count"),
            ("simcore.distinct_lines", self.distinct_lines, "count"),
            ("simcore.chunks", self.chunks, "count"),
            (
                "simcore.peak_pipeline_bytes",
                self.peak_pipeline_bytes,
                "bytes",
            ),
            ("machine.sim_cycles", self.sim_cycles, "cycles"),
            ("machine.cpu_cycles", self.cpu_cycles, "cycles"),
            (
                "machine.media_busy_cycles",
                self.media_busy_cycles,
                "cycles",
            ),
            ("machine.prestores", self.prestores, "count"),
            ("machine.fences", self.fences, "count"),
            ("machine.stall_cycles.fence", self.stall_fence, "cycles"),
            ("machine.stall_cycles.atomic", self.stall_atomic, "cycles"),
            ("machine.stall_cycles.sb", self.stall_sb, "cycles"),
            (
                "machine.stall_cycles.writeback",
                self.stall_writeback,
                "cycles",
            ),
            ("cachesim.l1_hits", self.l1_hits, "count"),
            ("cachesim.l1_misses", self.l1_misses, "count"),
            (
                "cachesim.l1_dirty_evictions",
                self.l1_dirty_evictions,
                "count",
            ),
            ("cachesim.l1_cleans", self.l1_cleans, "count"),
            ("cachesim.llc_hits", self.llc_hits, "count"),
            ("memdev.reads_received", self.reads_received, "count"),
            ("memdev.bytes_received", self.bytes_received, "bytes"),
            (
                "memdev.media_bytes_written",
                self.media_bytes_written,
                "bytes",
            ),
            (
                "memdev.media_bytes_rmw_read",
                self.media_bytes_rmw_read,
                "bytes",
            ),
        ]
    }

    pub fn push(&self, m: &mut Metrics) {
        for (name, value, unit) in self.named() {
            m.push(name, value as f64, unit);
        }
        let wa = self.media_bytes_written as f64 / self.bytes_received.max(1) as f64;
        m.push("memdev.write_amp", wa, "ratio");
    }

    /// FNV-1a over every count: the pinned golden of a replay's work.
    pub fn fingerprint(&self) -> u64 {
        let text: String = self
            .named()
            .iter()
            .map(|(n, v, _)| format!("{n}={v};"))
            .collect();
        crate::report::fnv(text.as_bytes())
    }
}

/// An [`EventSource`] wrapper recording a `workloads.fill` span per
/// chunk and the time between consecutive `fill` calls, which is the
/// ingest and replay time of one chunk.
pub struct Timed<'a, S> {
    inner: &'a mut S,
    spans: &'a Spans,
    last: Option<Instant>,
    pub gaps_ms: Vec<f64>,
}

impl<'a, S: EventSource> Timed<'a, S> {
    pub fn new(inner: &'a mut S, spans: &'a Spans) -> Self {
        Self {
            inner,
            spans,
            last: None,
            gaps_ms: Vec::new(),
        }
    }
}

impl<S: EventSource> EventSource for Timed<'_, S> {
    fn threads(&self) -> usize {
        self.inner.threads()
    }

    fn fill(&mut self, thread: usize, max: usize, buf: &mut Vec<Event>) -> usize {
        let start = Instant::now();
        if let Some(prev) = self.last.replace(start) {
            self.gaps_ms.push((start - prev).as_secs_f64() * 1e3);
        }
        let n = self.inner.fill(thread, max, buf);
        self.spans.record("workloads.fill", start, Instant::now());
        n
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn len_hint(&self) -> Option<u64> {
        self.inner.len_hint()
    }
}

/// The memo cache's counters since the last `memo::clear()`: one sample's.
pub fn push_memo_counts(m: &mut Metrics) {
    let c = ps_bench::memo::counters();
    m.push("bench.memo_hits", c.hits as f64, "count");
    m.push("bench.memo_misses", c.misses as f64, "count");
    m.push("bench.memo_derived", c.derived as f64, "count");
}

/// Seconds `f` takes, with its result.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Report the engine layer split: ns per event in each layer, from the
/// seconds spent in synthesis, in synthesis + ingest, and in the whole
/// replay (SIMD and scalar kernels), plus the per-chunk times.
pub fn push_split(
    m: &mut Metrics,
    events: u64,
    synth: f64,
    fed: f64,
    full: f64,
    scalar: f64,
    gaps_ms: &[f64],
) {
    let per_event = |s: f64| s * 1e9 / events.max(1) as f64;
    m.push("workloads.synth_ns_per_event", per_event(synth), "ns");
    m.push("simcore.ingest_ns_per_event", per_event(fed - synth), "ns");
    m.push("machine.replay_ns_per_event", per_event(full - fed), "ns");
    m.push(
        "machine.replay_ns_per_event_scalar",
        per_event(scalar - fed),
        "ns",
    );
    m.push("machine.chunk_ms_p50", percentile(gaps_ms, 50.0), "ms");
    m.push("machine.chunk_ms_p99", percentile(gaps_ms, 99.0), "ms");
}

/// The layer split of materialized traces (the advisor's inputs and the
/// quick suite's autotune inputs). Per trace set: `validate_and_intern`
/// alone is the ingest layer, `try_simulate` minus it is the replay layer,
/// the same replay with the scalar kernels forced and streamed through a
/// [`SliceSource`] must give identical statistics. `synth_s` is the time
/// the generators took to record the traces.
pub fn split_materialized(
    ctx: &mut Ctx,
    subjects: &[(&'static str, WorkloadOutput)],
    synth_s: f64,
) {
    let spans = ctx
        .spans
        .clone()
        .expect("the layer split runs in traced runs only");
    let cfg = MachineConfig::machine_a();
    let mut counts = Counts::default();
    let (mut ingest, mut full, mut scalar, mut streamed) = (0.0, 0.0, 0.0, 0.0);
    let mut gaps = Vec::new();
    for (name, out) in subjects {
        let threads = &out.traces.threads;
        counts.events += out.traces.total_events() as u64;
        let (interned, t) = spans.time("simcore.validate_and_intern", || {
            simcore::trace::validate_and_intern(threads, cfg.line_size)
        });
        ingest += t;
        counts.distinct_lines += interned.map_or(0, |i| i.interner().len() as u64);
        let (stats, t) = spans.time("machine.try_simulate", || {
            machine::try_simulate(&cfg, &out.traces)
        });
        full += t;
        simcore::simd::set_force_scalar(true);
        let (scalar_stats, t) = spans.time("machine.try_simulate.scalar", || {
            machine::try_simulate(&cfg, &out.traces)
        });
        simcore::simd::set_force_scalar(false);
        scalar += t;
        let mut slice = SliceSource::new(threads);
        let mut src = Timed::new(&mut slice, &spans);
        let (report, t) = spans.time("machine.try_simulate_stream", || {
            machine::try_simulate_stream_opts(&cfg, &mut src, StreamOptions::default())
        });
        streamed += t;
        gaps.extend_from_slice(&src.gaps_ms);
        let Ok(stats) = stats else {
            ctx.tally
                .op(false, || format!("{name}: materialized replay failed"));
            continue;
        };
        ctx.tally
            .op(scalar_stats.as_ref().is_ok_and(|s| *s == stats), || {
                format!("{name}: scalar replay differs from SIMD replay")
            });
        ctx.tally
            .op(report.as_ref().is_ok_and(|r| r.stats == stats), || {
                format!("{name}: streamed replay differs from materialized replay")
            });
        counts.add(&stats);
        if let Ok(r) = report {
            counts.chunks += r.chunks;
            counts.peak_pipeline_bytes = counts.peak_pipeline_bytes.max(r.peak_pipeline_bytes);
        }
    }
    push_split(
        &mut ctx.metrics,
        counts.events,
        synth_s,
        synth_s + ingest,
        synth_s + full,
        synth_s + scalar,
        &gaps,
    );
    ctx.metrics.push(
        "machine.stream_overhead_pct",
        (streamed / full - 1.0) * 100.0,
        "%",
    );
    counts.push(&mut ctx.metrics);
}

/// Unit costs of the cache and device models, on fixed inputs: one
/// `Cache::access` with Machine A's LLC geometry on a Zipfian line stream
/// 16x its capacity (1 in 4 a write), and one 64 B sequential writeback
/// into the Optane model. Fastest of three repetitions.
pub fn probes(m: &mut Metrics, smoke: bool) {
    let n: usize = if smoke { 100_000 } else { 2_000_000 };
    let cfg = MachineConfig::machine_a();
    let lines = 16 * cfg.llc.capacity() / cfg.line_size;
    let zipf = Zipfian::new(lines, 0.99);
    let mut rng = SimRng::new(7);
    let addrs: Vec<u64> = (0..n)
        .map(|_| zipf.sample(&mut rng) * cfg.line_size)
        .collect();
    let llc: Vec<f64> = (0..3)
        .map(|_| {
            let mut cache = cachesim::Cache::new(cfg.llc, cfg.seed);
            let (_, t) = time(|| {
                for (i, &a) in addrs.iter().enumerate() {
                    black_box(cache.access(a, i % 4 == 0));
                }
            });
            t * 1e9 / n as f64
        })
        .collect();
    m.push("cachesim.llc_access_ns", min(&llc), "ns");
    let optane: Vec<f64> = (0..3)
        .map(|_| {
            let mut dev = OptanePmem::default();
            let (_, t) = time(|| {
                for i in 0..n as u64 {
                    dev.receive_write(i * 64, 64);
                }
                dev.flush();
            });
            black_box(dev.stats().media_bytes_written);
            t * 1e9 / n as f64
        })
        .collect();
    m.push("memdev.optane_write_ns", min(&optane), "ns");
}
