//! `kv_read` / `kv_write`: a KV serving stream replayed through the
//! streaming scheduler, the call `kv_serving` makes.

use crate::golden;
use crate::layers::{push_split, time, Counts, Timed};
use crate::report::min;
use crate::spans::Spans;
use crate::Ctx;
use machine::{EngineError, MachineConfig, StreamOptions, StreamReport};
use prestore::PrestoreMode;
use simcore::{Event, EventSource, SliceSource, StreamFeed};
use workloads::kv::{serving, KvServingSource, ServingClasses, ServingParams};

/// `ServingParams`' own seed.
pub const DEFAULT_SEED: u64 = 29;

/// Events per refill, 6 short of the engine's default 64Ki. The source
/// emits whole requests of up to 6 events, so a refill of 64Ki spills
/// past 64Ki whenever a PUT straddles the boundary, and the stream
/// window doubles to 128Ki. Whether any of a thread's chunks does depends
/// on the seed (on `kv_read`, 1.5 MiB of peak heap, 8%). At this size no
/// refill passes 64Ki events, so the window, and the memory measured, is
/// the same for every seed.
const CHUNK_EVENTS: usize = 65_530;

fn options() -> StreamOptions {
    StreamOptions {
        chunk_events: CHUNK_EVENTS,
    }
}

/// What one replay of the stream must reproduce: the work counts, the
/// stream digest and the p99 request latency in simulated cycles.
#[derive(Debug, Clone, PartialEq)]
struct Output {
    counts: Counts,
    digest: u64,
    p99: u64,
}

impl Output {
    fn of(r: &StreamReport) -> Self {
        let mut counts = Counts {
            events: r.events,
            chunks: r.chunks,
            peak_pipeline_bytes: r.peak_pipeline_bytes,
            ..Counts::default()
        };
        counts.add(&r.stats);
        Self {
            counts,
            digest: r.digest,
            p99: r.stats.request_latency_all().p99(),
        }
    }

    /// The pinned form: (counts fingerprint, stream digest).
    fn golden(&self) -> (u64, u64) {
        (self.counts.fingerprint(), self.digest)
    }
}

/// Replay `src` from where it stands on Machine A, classified.
fn replay<S: EventSource>(
    src: &mut S,
    classes: ServingClasses,
) -> Result<StreamReport, EngineError> {
    let cfg = MachineConfig::machine_a();
    machine::try_simulate_stream_classified(&cfg, src, options(), Box::new(classes))
}

pub fn run(ctx: &mut Ctx, read_fraction: f64) {
    let seed = ctx.seed.unwrap_or(DEFAULT_SEED);
    // About 16 events per tenant, as in a 16M-event, 1M-tenant
    // `kv_serving` run, at a size one sample replays in about 0.2 s: only
    // short samples catch the host's fast moments (see README.md).
    let (users, events) = if ctx.smoke {
        (50_000, 200_000)
    } else {
        (65_536, 1_000_000)
    };
    let params = ServingParams {
        read_fraction,
        seed,
        ..ServingParams::new(users, events, 2, PrestoreMode::Clean)
    };
    let golden = (seed == DEFAULT_SEED).then(|| golden::kv(read_fraction > 0.5, ctx.smoke));

    let spans = ctx.spans.clone();
    let mut first: Option<Output> = None;
    let mut gaps = Vec::new();
    let build = || KvServingSource::new(params.clone());
    let (mut src, wall) = ctx.measure(build, |ctx, src, traced| {
        src.reset();
        let classes = src.classifier();
        let (report, secs) = match (&spans, traced) {
            (Some(s), true) => {
                let mut timed = Timed::new(src, s);
                let out = s.time("sample.traced", || replay(&mut timed, classes));
                gaps.extend_from_slice(&timed.gaps_ms);
                out
            }
            _ => time(|| replay(src, classes)),
        };
        let got = match report {
            Ok(r) => Output::of(&r),
            Err(e) => {
                ctx.tally.op(false, || format!("stream replay failed: {e}"));
                return secs;
            }
        };
        if let Some(expect) = golden.or_else(|| first.as_ref().map(Output::golden)) {
            ctx.tally.op(got.golden() == expect, || {
                let (fp, digest) = got.golden();
                format!("sample output ({fp:#x}, {digest:#x}) differs from {expect:#x?}: {got:?}")
            });
        }
        first.get_or_insert(got);
        secs
    });
    let Some(mut out) = first else { return };
    let m = &mut ctx.metrics;
    m.push("events_per_s", out.counts.events as f64 / wall, "1/s");
    m.push("machine.req_p99_cycles", out.p99 as f64, "cycles");
    if let Some(spans) = spans {
        split(ctx, &mut src, &mut out, wall, &gaps, &spans);
        stream_overhead(ctx, params, &spans);
    }
    out.counts.push(&mut ctx.metrics);
}

/// The layer split of the sample stream: synthesis alone, synthesis plus
/// validate/digest/intern through a `StreamFeed`, and the full replay
/// (`wall` seconds, the fastest sample) with SIMD and with scalar
/// kernels. Each pass is repeated and its fastest repetition taken, like
/// `wall`, so the layers add up to it.
fn split(
    ctx: &mut Ctx,
    src: &mut KvServingSource,
    out: &mut Output,
    wall: f64,
    gaps: &[f64],
    spans: &Spans,
) {
    let expect = out.golden();
    let threads = src.threads();
    let reps = if ctx.smoke { 1 } else { 10 };
    let mut buf: Vec<Event> = Vec::with_capacity(CHUNK_EVENTS + 8);
    let (mut synth, mut fed, mut scalar) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..reps {
        src.reset();
        let ((), t) = spans.time("workloads.synth_pass", || {
            for t in 0..threads {
                loop {
                    buf.clear();
                    if src.fill(t, CHUNK_EVENTS, &mut buf) == 0 {
                        break;
                    }
                }
            }
        });
        synth.push(t);

        src.reset();
        let mut feed = StreamFeed::new(MachineConfig::machine_a().line_size, threads, CHUNK_EVENTS);
        let (ok, t) = spans.time("simcore.ingest_pass", || {
            (0..threads).all(|t| loop {
                match feed.refill(&mut *src, t) {
                    Ok(0) => break true,
                    Ok(_) => {}
                    Err(_) => break false,
                }
            })
        });
        fed.push(t);
        ctx.tally.op(ok, || "stream ingest failed".into());
        out.counts.distinct_lines = feed.interner().len() as u64;

        simcore::simd::set_force_scalar(true);
        src.reset();
        let classes = src.classifier();
        let (report, t) = spans.time("machine.scalar_replay", || replay(src, classes));
        simcore::simd::set_force_scalar(false);
        scalar.push(t);
        ctx.tally.op(
            report.is_ok_and(|r| Output::of(&r).golden() == expect),
            || "scalar replay differs from SIMD replay".into(),
        );
    }
    push_split(
        &mut ctx.metrics,
        out.counts.events,
        min(&synth),
        min(&fed),
        wall,
        min(&scalar),
        gaps,
    );
}

/// Streamed vs. materialized replay of the sample stream: the statistics
/// and digests must agree; the time difference is the streaming
/// pipeline's overhead.
fn stream_overhead(ctx: &mut Ctx, params: ServingParams, spans: &Spans) {
    let cfg = MachineConfig::machine_a();
    let mut src = KvServingSource::new(params);
    let materialized = serving::materialize(&mut src, CHUNK_EVENTS);
    let classes = Box::new(src.classifier());
    let (mat, t_mat) = spans.time("machine.materialized_replay", || {
        machine::try_simulate_threads_classified(&cfg, &materialized, classes)
    });
    let classes = src.classifier();
    let (streamed, t_str) = spans.time("machine.streamed_replay", || replay(&mut src, classes));
    let digest = simcore::stream::digest_source(&mut SliceSource::new(&materialized), CHUNK_EVENTS);
    let same = matches!((&mat, &streamed), (Ok(m), Ok(s)) if *m == s.stats && s.digest == digest);
    ctx.tally.op(same, || {
        "streamed replay differs from materialized replay".into()
    });
    let overhead = (t_str / t_mat - 1.0) * 100.0;
    ctx.metrics
        .push("machine.stream_overhead_pct", overhead, "%");
}
