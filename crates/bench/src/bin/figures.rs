//! Regenerate the paper's tables and figures.
//!
//! ```text
//! figures [--quick] [--json] [--chart] [--jobs N] [--job-deadline SECS]
//!         [--metrics FILE] [--metrics-baseline FILE] [--trace-out FILE]
//!         [--report FILE] [--out DIR] [id ...]
//! ```
//!
//! With no ids, every experiment runs. Results are printed as text tables
//! and written as CSV files under `--out` (default `results/`); `--json`
//! additionally writes machine-readable JSON next to each CSV.
//!
//! `--jobs N` bounds the worker threads used for concurrent experiments
//! and sweep points (default: the machine's available parallelism;
//! `--jobs 1` runs everything serially). Output files are byte-identical
//! for every job count. Host time is measured by the `benchmark/` crate,
//! not here.
//!
//! `--metrics FILE` writes a JSON snapshot of the telemetry registry
//! (engine, device, runner and memo-cache counters plus span timings and
//! histogram percentiles) covering the run, next to the other outputs;
//! the flag never changes the experiment outputs (pinned by the
//! `metrics_identity` test). `--metrics-baseline FILE` additionally diffs
//! the snapshot against a committed one and fails (exit 2) unless every
//! deterministic counter and histogram statistic equals the baseline's
//! and the snapshot has no deterministic name the baseline lacks.
//!
//! `--trace-out FILE` records every telemetry span of the run and writes
//! a Chrome Trace Event JSON timeline — load it in
//! <https://ui.perfetto.dev> to see experiments, replays and pool jobs on
//! their thread lanes.
//!
//! `--report FILE` renders every regenerated figure as a self-contained
//! HTML report (inline-SVG charts, no scripts or external assets) — the
//! artifact CI uploads so a run's shapes can be eyeballed without
//! checking out the branch.
//!
//! Experiments run fail-soft: each one executes under
//! [`ps_bench::runner::run_experiments_supervised`], so a panicking
//! experiment (retried once) or one overrunning the optional
//! `--job-deadline SECS` soft deadline is reported in a failure summary
//! while every healthy experiment still prints and writes its files —
//! partial results instead of a torn-down run.
//!
//! Exit codes: `0` success, `1` usage error (an unknown `--` flag among
//! them), I/O error or no matching experiment, `2` metrics regression vs
//! `--metrics-baseline`, `3` one or more experiments failed (panicked every
//! attempt or missed the deadline) and only partial results were written.
//! The metrics check runs before the final exit-3 decision, so a run that
//! both regresses and loses an experiment reports the regression.

use ps_bench::runner::{self, Experiment, TimedFigure};
use ps_bench::tracefmt::TraceRecorder;
use ps_bench::{experiments, memo, metricsjson};

/// Flags that take a value (the next argument).
const VALUE_FLAGS: [&str; 7] = [
    "--out",
    "--jobs",
    "--job-deadline",
    "--metrics",
    "--metrics-baseline",
    "--trace-out",
    "--report",
];

/// Report an I/O failure and exit with code 1 instead of panicking.
fn exit_io_error(what: &str, path: &str, e: std::io::Error) -> ! {
    eprintln!("cannot {what} {path:?}: {e}");
    std::process::exit(1);
}

fn usage() -> ! {
    eprintln!(
        "usage: figures [--quick] [--json] [--chart] [--jobs N] [--out DIR] [id ...]

  --quick      scaled-down parameters (CI)
  --json       also write <id>.json next to each <id>.csv
  --chart      print ASCII charts
  --jobs N     worker threads for experiments + sweep points
               (default: available parallelism; 1 = serial)
  --job-deadline SECS
               soft per-experiment deadline: an experiment that finishes
               later is discarded and reported as failed (default: none)
  --metrics FILE
               write a telemetry snapshot (JSON) of the run
  --metrics-baseline FILE
               diff the telemetry snapshot against a committed one; fail
               (exit 2) unless every deterministic counter and histogram
               statistic equals the baseline's
  --trace-out FILE
               write the run's telemetry spans as a Chrome Trace
               Event JSON timeline (Perfetto-loadable)
  --report FILE
               write every regenerated figure as a self-contained HTML
               report (inline SVG, no scripts)
  --out DIR    output directory (default: results/)

exit codes: 0 success; 1 usage error, I/O error or no matching
            experiment; 2 regression vs --metrics-baseline;
            3 experiment(s) failed, partial results written"
    );
    std::process::exit(1);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        usage();
    }
    let switches = ["--quick", "--json", "--chart"];
    if let Some(flag) = ps_bench::unknown_flag(&args, &VALUE_FLAGS, &switches) {
        eprintln!("unknown flag {flag:?}");
        usage();
    }
    let quick = args.iter().any(|a| a == "--quick");
    let json = args.iter().any(|a| a == "--json");
    let chart = args.iter().any(|a| a == "--chart");
    let flag_value = |flag: &str| {
        args.iter().position(|a| a == flag).map(|i| match args.get(i + 1) {
            Some(v) => v.clone(),
            None => {
                eprintln!("{flag} needs a value");
                usage();
            }
        })
    };
    let out_dir = flag_value("--out").unwrap_or_else(|| "results".to_owned());
    let metrics = flag_value("--metrics");
    let metrics_baseline = flag_value("--metrics-baseline");
    let trace_out = flag_value("--trace-out");
    let report_out = flag_value("--report");
    let jobs = match flag_value("--jobs") {
        Some(v) => match v.parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => {
                eprintln!("--jobs needs a positive integer, got {v:?}");
                usage();
            }
        },
        None => runner::default_jobs(),
    };
    let supervision = simcore::par::Supervision {
        deadline: match flag_value("--job-deadline") {
            Some(v) => match v.parse::<u64>() {
                Ok(n) if n >= 1 => Some(std::time::Duration::from_secs(n)),
                _ => {
                    eprintln!("--job-deadline needs a positive integer of seconds, got {v:?}");
                    usage();
                }
            },
            None => None,
        },
        retries: 1,
    };
    // Positional args are experiment ids; a flag's value never is, even
    // one that equals an id (`--out table1 table1`).
    let ids: Vec<&str> = ps_bench::without_flag_values(&args, &VALUE_FLAGS)
        .into_iter()
        .filter(|a| !a.starts_with("--"))
        .collect();

    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        exit_io_error("create output directory", &out_dir, e);
    }

    let known: &[Experiment] = &[
        ("table1", |_| experiments::table1()),
        ("table2", experiments::table2),
        ("fig3a", experiments::fig3a),
        ("fig3b", experiments::fig3b),
        ("fig5", experiments::fig5),
        ("fig7", experiments::fig7),
        ("fig8", experiments::fig8),
        ("fig9", experiments::fig9),
        ("fig10", experiments::fig10),
        ("fig11", experiments::fig11),
        ("fig12", experiments::fig12),
        ("fig13", experiments::fig13),
        ("fig14", experiments::fig14),
        ("x9", experiments::x9_latency),
        ("listing3", experiments::listing3_pitfall),
        ("skipvariant", experiments::skip_variant),
        ("issuecost", experiments::prestore_issue_cost),
        ("overheadB", experiments::overhead_on_machine_b),
        ("badprestores", experiments::bad_prestores),
        ("dbreports", |_| experiments::dirtbuster_reports()),
        ("abl_granularity", experiments::granularity_sweep),
        ("abl_replacement", experiments::replacement_policy_sweep),
        ("abl_latency", experiments::fpga_latency_sweep),
        ("abl_ycsb_mix", experiments::ycsb_mix_sweep),
        ("abl_dram", experiments::dram_sanity),
        ("ext_cxl_kv", experiments::cxl_kv),
        ("crashbuster", experiments::crashbuster),
        ("kv_serving", experiments::kv_serving),
        ("autotune", experiments::autotune),
    ];

    let selected: Vec<Experiment> = if ids.is_empty() {
        known.to_vec()
    } else {
        known.iter().filter(|(id, _)| ids.contains(id)).copied().collect()
    };
    if selected.is_empty() {
        eprintln!("no experiments matched; known ids:");
        for (id, _) in known {
            eprintln!("  {id}");
        }
        std::process::exit(1);
    }

    let recorder = TraceRecorder::new();
    if metrics.is_some() || metrics_baseline.is_some() || trace_out.is_some() {
        simcore::telemetry::set_span_observer(Some(Box::new(recorder.clone())));
    }

    runner::set_jobs(jobs);
    let results = runner::run_experiments_supervised(&selected, quick, supervision);
    let counters = memo::counters();

    let mut failures: Vec<&runner::ExperimentFailure> = Vec::new();
    for res in &results {
        let TimedFigure { id, fig, seconds } = match res {
            Ok(t) => t,
            Err(f) => {
                failures.push(f);
                continue;
            }
        };
        println!("{}", fig.render_text());
        if chart {
            println!("{}", ps_bench::chart::render_chart(fig));
        }
        println!("({id} regenerated in {:.2}s)\n", seconds);
        let path = format!("{out_dir}/{id}.csv");
        if let Err(e) = std::fs::write(&path, fig.render_csv()) {
            exit_io_error("write CSV", &path, e);
        }
        if json {
            let path = format!("{out_dir}/{id}.json");
            if let Err(e) = std::fs::write(&path, fig.render_json()) {
                exit_io_error("write JSON", &path, e);
            }
        }
    }
    if !failures.is_empty() {
        eprintln!(
            "{} of {} experiment(s) failed; partial results written to {out_dir}/:",
            failures.len(),
            results.len()
        );
        for f in &failures {
            eprintln!("  {f}");
        }
    }

    if let Some(report_path) = &report_out {
        let mut html = ps_bench::report::Report::new(format!(
            "Pre-stores figures ({} experiment(s){})",
            results.len(),
            if quick { ", --quick" } else { "" }
        ));
        for t in results.iter().flatten() {
            html.add_figure(&t.fig);
        }
        for f in &failures {
            html.add_note(&format!("FAILED: {f}"));
        }
        if let Err(e) = std::fs::write(report_path, html.render()) {
            exit_io_error("write HTML report", report_path, e);
        }
        println!("report: {} figure(s) written to {report_path}", html.len());
    }

    simcore::telemetry::set_span_observer(None);
    let metrics_report = metricsjson::render(&counters, recorder.len() as u64, quick);
    if let Some(metrics_path) = &metrics {
        if let Err(e) = std::fs::write(metrics_path, &metrics_report) {
            exit_io_error("write metrics snapshot", metrics_path, e);
        }
        println!("metrics: snapshot written to {metrics_path}");
    }
    if let Some(trace_path) = &trace_out {
        if let Err(e) = std::fs::write(trace_path, recorder.render_chrome_trace()) {
            exit_io_error("write Chrome trace", trace_path, e);
        }
        println!(
            "trace: {} span event(s) written to {trace_path} (load in https://ui.perfetto.dev)",
            recorder.len()
        );
    }
    if let Some(baseline_path) = &metrics_baseline {
        let text = match std::fs::read_to_string(baseline_path) {
            Ok(t) => t,
            Err(e) => exit_io_error("read metrics baseline", baseline_path, e),
        };
        match metricsjson::diff(&metrics_report, &text) {
            Err(e) => {
                eprintln!("cannot compare metrics baseline {baseline_path:?}: {e}");
                std::process::exit(1);
            }
            Ok(report) if !report.regressions.is_empty() => {
                eprintln!(
                    "metrics regressions vs baseline {baseline_path} ({} issue(s), {} gated \
                     values compared):",
                    report.regressions.len(),
                    report.compared
                );
                for r in &report.regressions {
                    eprintln!("  {r}");
                }
                std::process::exit(2);
            }
            Ok(report) => {
                println!(
                    "metrics baseline: {} gated values equal to {baseline_path}",
                    report.compared
                );
            }
        }
    }

    // Last: degraded (but not torn down) runs exit 3. Every hard failure
    // above already exited 1 or 2 before reaching this point.
    if !failures.is_empty() {
        std::process::exit(3);
    }
}
