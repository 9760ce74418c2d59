//! Drive the million-tenant KV serving scenario through the streaming
//! replay pipeline.
//!
//! ```text
//! kv_serving [--users N] [--events N] [--threads N]
//!            [--machine a|b-fast|b-slow] [--mode none|clean|demote|skip]
//!            [--mem-budget BYTES] [--chunk EVENTS]
//!            [--metrics-out FILE] [--assert-rss-mb MB]
//!            [--timeseries CYCLES] [--slo SPEC[,SPEC...]] [--report FILE]
//!            [--verify-materialized]
//! ```
//!
//! The request stream is synthesized on the fly and replayed
//! chunk-by-chunk ([`machine::try_simulate_stream_opts`]): the trace is
//! never materialized, so `--events 100000000` and beyond replay in a
//! pipeline footprint bounded by `--mem-budget` (the chunk size is
//! derived from the budget; the run *fails* if the measured peak pipeline
//! footprint exceeds it — this binary is the bounded-memory acceptance
//! check, not just a demo).
//!
//! `--assert-rss-mb` additionally bounds the whole process's peak RSS
//! (`VmHWM` from `/proc/self/status`), which covers the interner and
//! engine tables that scale with *distinct lines* (tenants), not events.
//!
//! `--verify-materialized` (small runs only) materializes the identical
//! stream, replays it through the conventional validate→intern→replay
//! path, and fails unless the statistics and the chunk-size-invariant
//! digest both match exactly.
//!
//! Every run classifies requests on the fly ([`workloads::kv::ServingClasses`]
//! riding the engine's retire hook): each GET ends at its value read and
//! each PUT at its durability fence, and the retire-to-retire simulated
//! cycles land in per-class tail histograms (`get_hot`/`get_cold`/
//! `put_hot`/`put_cold`; "hot" = the top ~1% of the Zipfian tenant
//! ranking). The percentiles are printed, written to `--metrics-out`, and
//! gated by `--slo`: a comma-separated list of `pNN:CYCLES` bounds (p50,
//! p90, p99 or p999, e.g. `--slo p99:250000,p999:900000`) checked against
//! the merged all-class histogram, or `CLASS:pNN:CYCLES` for one class.
//! A violated bound exits 6 — the CI-facing tail-latency regression gate.
//!
//! `--timeseries CYCLES` additionally arms the engine's delta sampler at
//! the given simulated-cycle window; the windows land in `--metrics-out`
//! (window-granular JSON) and as charts in `--report FILE`,
//! a self-contained HTML report (inline-SVG time-series, the tail-latency
//! table, and the ranked site-attribution heatmap).
//!
//! [`ps_bench::cli`] reads the arguments: a value flag given last, or any
//! positional argument, is a usage error, and `--help` prints the usage on
//! stdout and exits 0.
//!
//! Exit codes: `0` success (or `--help`), `1` usage or I/O error, `4` a
//! memory bound was exceeded, `5` streaming-vs-materialized verification
//! failed, `6` an `--slo` bound was violated.

use machine::{MachineConfig, RunStats, StreamOptions};
use prestore::PrestoreMode;
use ps_bench::cli::{self, Cli};
use ps_bench::{out, outln};
use simcore::telemetry::Histogram;
use std::num::{NonZeroU64, NonZeroUsize};
use workloads::kv::{serving, KvServingSource, ServingParams};

/// Conservative per-event window cost: 24 B event + 4 B id-run offset +
/// one-to-two 4 B interned line ids, doubled for capacity headroom
/// (vectors grow geometrically).
const BYTES_PER_EVENT: u64 = 64;

fn usage() -> String {
    format!(
        "usage: kv_serving [--users N] [--events N] [--threads N]
                  [--machine a|b-fast|b-slow] [--mode none|clean|demote|skip]
                  [--mem-budget BYTES] [--chunk EVENTS]
                  [--metrics-out FILE] [--assert-rss-mb MB]
                  [--timeseries CYCLES] [--slo SPEC[,SPEC...]] [--report FILE]
                  [--verify-materialized]

  --users N        distinct tenants (default 1000000)
  --events N       target trace events across all threads (default 2000000)
  --threads N      serving threads (default 2, at most {max_cores}: one core each)
  --machine M      machine model (default a)
  --mode M         pre-store mode applied to PUTs (default none)
  --mem-budget B   bound the streaming pipeline's peak bytes; the chunk
                   size is derived from this and the run fails (exit 4)
                   if the measured peak exceeds it
  --chunk EVENTS   explicit chunk size (overrides the derived one)
  --metrics-out F  write a JSON summary of the run to F
  --assert-rss-mb M  fail (exit 4) if the process's peak RSS exceeds M MB
  --timeseries C   sample the engine's temporal counters every C simulated
                   cycles (windows land in --metrics-out and --report)
  --slo SPECS      comma-separated pNN:CYCLES bounds (p50/p90/p99/p999)
                   on the merged request-latency histogram, or
                   CLASS:pNN:CYCLES for one class; violation exits 6
  --report F       write a self-contained HTML report (SVG time-series,
                   tail-latency table, site heatmap) to F
  --verify-materialized
                   also replay the materialized trace and require equal
                   stats + digest (refused above 8M events)
  -h, --help       print this text on stdout and exit 0

usage errors (an unknown flag, a flag shown with a value given none, any
positional argument) exit 1",
        max_cores = machine::MAX_CORES
    )
}

/// Peak resident set size (`VmHWM`) in bytes, if the kernel exposes it.
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// One parsed `--slo` bound.
struct SloBound {
    /// Restrict to one class histogram; `None` = the merged all-class one.
    class: Option<String>,
    /// Which percentile ("p50", "p90", "p99", "p999").
    pct: String,
    /// Inclusive upper bound in simulated cycles.
    limit: u64,
}

/// Parse `--slo` specs: comma-separated `pNN:CYCLES` or `CLASS:pNN:CYCLES`.
fn parse_slo(specs: &str) -> Result<Vec<SloBound>, String> {
    specs
        .split(',')
        .filter(|s| !s.is_empty())
        .map(|spec| {
            let parts: Vec<&str> = spec.split(':').collect();
            let (class, pct, limit) = match parts.as_slice() {
                [p, v] => (None, *p, *v),
                [c, p, v] => (Some((*c).to_owned()), *p, *v),
                _ => {
                    return Err(format!(
                        "--slo spec {spec:?} is not pNN:CYCLES or CLASS:pNN:CYCLES"
                    ))
                }
            };
            if !matches!(pct, "p50" | "p90" | "p99" | "p999") {
                return Err(format!("--slo percentile {pct:?} must be p50, p90, p99 or p999"));
            }
            let Ok(limit) = limit.parse::<u64>() else {
                return Err(format!("--slo bound {limit:?} is not a cycle count"));
            };
            Ok(SloBound { class, pct: pct.to_owned(), limit })
        })
        .collect()
}

/// Look up a percentile by name on a histogram.
fn percentile_of(h: &Histogram, pct: &str) -> u64 {
    match pct {
        "p50" => h.p50(),
        "p90" => h.p90(),
        "p99" => h.p99(),
        _ => h.p999(),
    }
}

/// Render the per-class tail-latency table printed after every run.
fn latency_text(stats: &RunStats) -> String {
    let mut out = format!(
        "  {:<10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}\n",
        "class", "requests", "mean", "p50", "p90", "p99", "p99.9"
    );
    let all = stats.request_latency_all();
    for h in stats.request_latency.iter().chain(std::iter::once(&all)) {
        out.push_str(&format!(
            "  {:<10} {:>10} {:>10.1} {:>10} {:>10} {:>10} {:>10}\n",
            h.name,
            h.count,
            h.mean(),
            h.p50(),
            h.p90(),
            h.p99(),
            h.p999()
        ));
    }
    out
}

fn main() {
    let cli = Cli {
        value_flags: &[
            "--users",
            "--events",
            "--threads",
            "--machine",
            "--mode",
            "--mem-budget",
            "--chunk",
            "--metrics-out",
            "--assert-rss-mb",
            "--timeseries",
            "--slo",
            "--report",
        ],
        switches: &["--verify-materialized"],
        usage: usage(),
        usage_exit: 1,
    };
    let args = cli.parse();
    args.positionals_up_to(0);
    let users = args.value("--users").map_or(1_000_000, NonZeroU64::get);
    let events = args.value("--events").map_or(2_000_000, NonZeroU64::get);
    let threads = args.value("--threads").map_or(2, NonZeroUsize::get);
    let mem_budget: Option<u64> = args.value("--mem-budget");
    let assert_rss_mb: Option<u64> = args.value("--assert-rss-mb");
    let verify = args.switch("--verify-materialized");
    let machine = args.value("--machine").unwrap_or_else(|| "a".to_owned());
    let cfg = match machine.as_str() {
        "a" => MachineConfig::machine_a(),
        "b-fast" => MachineConfig::machine_b_fast(),
        "b-slow" => MachineConfig::machine_b_slow(),
        other => cli.fail(format!("unknown machine {other:?}")),
    };
    let mode_str = args.value("--mode").unwrap_or_else(|| "none".to_owned());
    let Some(mode) = PrestoreMode::parse(&mode_str) else {
        cli.fail(format!("unknown mode {mode_str:?}"));
    };
    if threads > machine::MAX_CORES {
        cli.fail(format!(
            "--threads {threads} exceeds the {} cores a replay can hold",
            machine::MAX_CORES
        ));
    }

    // Chunk size: explicit, else derived so all windows together fit the
    // budget with headroom, else the library default.
    let chunk_events = match args.value("--chunk").unwrap_or(0u64) {
        0 => match mem_budget {
            Some(budget) => {
                ((budget / BYTES_PER_EVENT / threads as u64).max(256) as usize)
                    .min(1 << 22)
            }
            None => StreamOptions::default().chunk_events,
        },
        n => n as usize,
    };
    let opts = StreamOptions { chunk_events };
    let params = ServingParams::new(users, events, threads, mode);
    let mut cfg = cfg;
    match args.value("--timeseries").unwrap_or(0u64) {
        0 => {}
        w => cfg.timeseries_window = Some(w),
    }
    let slo_bounds =
        parse_slo(&args.value::<String>("--slo").unwrap_or_default()).unwrap_or_else(|e| cli.fail(e));

    let mut source = KvServingSource::new(params.clone());
    let classifier = Box::new(source.classifier());
    let start = std::time::Instant::now();
    let report =
        match machine::try_simulate_stream_classified(&cfg, &mut source, opts, classifier) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("streaming replay failed: {e}");
                std::process::exit(1);
            }
        };
    let wall = start.elapsed();

    let rss = peak_rss_bytes();
    let events_per_sec = report.events as f64 / wall.as_secs_f64();
    outln!("kv_serving: {users} tenants, {threads} threads, mode {mode_str}, machine {machine}");
    outln!("  events            {:>14}", report.events);
    outln!("  chunks            {:>14}  ({chunk_events} events/chunk)", report.chunks);
    outln!("  digest            {:>14}", format!("{:016x}", report.digest));
    outln!("  peak pipeline     {:>14} bytes", report.peak_pipeline_bytes);
    if let Some(rss) = rss {
        outln!("  peak process RSS  {:>14} bytes", rss);
    }
    outln!("  wall clock        {:>14.2} s  ({:.1}M events/s)", wall.as_secs_f64(), events_per_sec / 1e6);
    outln!("  simulated cycles  {:>14}", report.stats.cycles);
    outln!("  write amp         {:>14.3}", report.stats.write_amplification());
    if !report.stats.timeseries.is_empty() {
        outln!(
            "  timeseries        {:>14} windows of {} cycles",
            report.stats.timeseries.len(),
            report.stats.timeseries_window_cycles
        );
    }
    outln!("  request latency (simulated cycles, retire-to-retire):");
    out!("{}", latency_text(&report.stats));

    let mut failed_bound = false;
    if let Some(budget) = mem_budget {
        if report.peak_pipeline_bytes > budget {
            eprintln!(
                "FAIL: peak pipeline {} bytes exceeds --mem-budget {budget}",
                report.peak_pipeline_bytes
            );
            failed_bound = true;
        } else {
            outln!("  budget check      {:>14} <= {budget} ok", report.peak_pipeline_bytes);
        }
    }
    if let Some(mb) = assert_rss_mb {
        match rss {
            Some(rss) if rss > mb * 1024 * 1024 => {
                eprintln!("FAIL: peak RSS {rss} bytes exceeds --assert-rss-mb {mb}");
                failed_bound = true;
            }
            Some(rss) => outln!("  rss check         {rss:>14} <= {mb} MB ok"),
            None => eprintln!("warning: /proc/self/status unavailable; RSS not checked"),
        }
    }

    if let Some(path) = args.value::<String>("--metrics-out") {
        let mut json = format!(
            "{{\n  \"users\": {users},\n  \"threads\": {threads},\n  \"mode\": \"{mode_str}\",\n  \
             \"machine\": \"{machine}\",\n  \"events\": {},\n  \"chunks\": {},\n  \
             \"chunk_events\": {chunk_events},\n  \"digest\": \"{:016x}\",\n  \
             \"peak_pipeline_bytes\": {},\n  \"peak_rss_bytes\": {},\n  \
             \"wall_seconds\": {:.3},\n  \"events_per_sec\": {:.0},\n  \
             \"sim_cycles\": {},\n  \"write_amplification\": {:.4},\n",
            report.events,
            report.chunks,
            report.digest,
            report.peak_pipeline_bytes,
            rss.map_or("null".to_string(), |r| r.to_string()),
            wall.as_secs_f64(),
            events_per_sec,
            report.stats.cycles,
            report.stats.write_amplification(),
        );
        json.push_str("  \"request_latency\": [");
        let all = report.stats.request_latency_all();
        for (i, h) in report.stats.request_latency.iter().chain(std::iter::once(&all)).enumerate()
        {
            if i > 0 {
                json.push(',');
            }
            json.push_str(&format!(
                "\n    {{\"name\": \"{}\", \"count\": {}, \"p50\": {}, \"p90\": {}, \
                 \"p99\": {}, \"p999\": {}, \"max\": {}}}",
                h.name,
                h.count,
                h.p50(),
                h.p90(),
                h.p99(),
                h.p999(),
                h.max
            ));
        }
        json.push_str("\n  ],\n  \"timeseries\": [");
        if !report.stats.timeseries.is_empty() {
            json.push_str(&format!(
                "\n    {{\"name\": \"kv_serving\", \"window_cycles\": {}, \"channels\": [{}], \
                 \"windows\": [",
                report.stats.timeseries_window_cycles,
                machine::ts_channel::NAMES
                    .iter()
                    .map(|n| format!("\"{n}\""))
                    .collect::<Vec<_>>()
                    .join(", ")
            ));
            for (i, w) in report.stats.timeseries.iter().enumerate() {
                if i > 0 {
                    json.push_str(", ");
                }
                let mut row = vec![w.start.to_string()];
                row.extend(w.values.iter().map(ToString::to_string));
                json.push_str(&format!("[{}]", row.join(", ")));
            }
            json.push_str("]}");
        }
        json.push_str("\n  ]\n}\n");
        cli::io_or_exit("write metrics", &path, std::fs::write(&path, json));
        outln!("  metrics           {path}");
    }

    if let Some(path) = args.value::<String>("--report") {
        let mut html = ps_bench::report::Report::new(format!(
            "KV serving: {users} tenants, {threads} threads, mode {mode_str}, machine {machine}"
        ));
        html.add_note(&format!(
            "{} events in {} chunks; digest {:016x}; {} simulated cycles; write amplification {:.3}",
            report.events,
            report.chunks,
            report.digest,
            report.stats.cycles,
            report.stats.write_amplification()
        ));
        html.add_latency_table(
            "Per-request tail latency (simulated cycles)",
            &report.stats.request_latency,
        );
        html.add_timeseries(
            "Temporal profile",
            &report.stats.timeseries,
            report.stats.timeseries_window_cycles,
        );
        html.add_site_heatmap("Site attribution", &report.stats, source.registry(), 12);
        cli::io_or_exit("write report", &path, std::fs::write(&path, html.render()));
        outln!("  report            {path}");
    }

    if verify {
        if report.events > 8_000_000 {
            eprintln!("--verify-materialized refused above 8M events (it materializes the trace)");
            std::process::exit(1);
        }
        let threads_vec = serving::materialize(&mut source, chunk_events);
        let golden = match machine::try_simulate_threads_classified(
            &cfg,
            &threads_vec,
            Box::new(source.classifier()),
        ) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("materialized replay failed: {e}");
                std::process::exit(1);
            }
        };
        let mut slice_src = simcore::SliceSource::new(&threads_vec);
        let materialized_digest =
            simcore::stream::digest_source(&mut slice_src, chunk_events);
        if golden != report.stats || materialized_digest != report.digest {
            eprintln!(
                "FAIL: streaming vs materialized mismatch (digest {:016x} vs {:016x}, stats {})",
                report.digest,
                materialized_digest,
                if golden == report.stats { "equal" } else { "DIFFER" },
            );
            std::process::exit(5);
        }
        outln!("  verify            streaming == materialized (stats + digest) ok");
    }

    let mut slo_failed = false;
    if !slo_bounds.is_empty() {
        let all = report.stats.request_latency_all();
        for b in &slo_bounds {
            let hist = match &b.class {
                None => Some(&all),
                Some(c) => report.stats.request_class(c),
            };
            let Some(hist) = hist else {
                eprintln!("--slo names unknown class {:?}", b.class.as_deref().unwrap_or(""));
                std::process::exit(1);
            };
            let measured = percentile_of(hist, &b.pct);
            if measured > b.limit {
                eprintln!(
                    "SLO VIOLATION: {} {} = {measured} cycles > bound {}",
                    hist.name, b.pct, b.limit
                );
                slo_failed = true;
            } else {
                outln!("  slo               {} {} = {measured} <= {} ok", hist.name, b.pct, b.limit);
            }
        }
    }

    if failed_bound {
        std::process::exit(4);
    }
    if slo_failed {
        std::process::exit(6);
    }
}
