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
//! [`ps_bench::cli`] reads the arguments: a value is never an id (`--out
//! table1 table1` runs `table1` into `table1/`), a value flag given last is
//! a usage error, and `--help` prints the usage on stdout and exits 0.
//!
//! Exit codes: `0` success (or `--help`), `1` usage error, I/O error or an
//! unknown experiment id (every unknown id is named before anything runs),
//! `2` metrics regression vs `--metrics-baseline`,
//! `3` one or more experiments failed (panicked every attempt or missed
//! the deadline) and only partial results were written.
//! The metrics check runs before the final exit-3 decision, so a run that
//! both regresses and loses an experiment reports the regression.

use ps_bench::cli::{self, Cli};
use ps_bench::runner::{self, Experiment, TimedFigure};
use ps_bench::tracefmt::TraceRecorder;
use ps_bench::{errln, experiments, memo, metricsjson, outln};
use std::num::{NonZeroU64, NonZeroUsize};

const USAGE: &str = "usage: figures [--quick] [--json] [--chart] [--jobs N] [--out DIR] [id ...]

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
  -h, --help   print this text on stdout and exit 0

exit codes: 0 success or --help; 1 usage error (an unknown flag, or a
            flag shown with a value given none), I/O error or an unknown
            experiment id; 2 regression vs --metrics-baseline;
            3 experiment(s) failed, partial results written";

fn main() {
    let cli = Cli {
        value_flags: &[
            "--out",
            "--jobs",
            "--job-deadline",
            "--metrics",
            "--metrics-baseline",
            "--trace-out",
            "--report",
        ],
        switches: &["--quick", "--json", "--chart"],
        usage: USAGE.to_owned(),
        usage_exit: 1,
    };
    let args = cli.parse();
    let quick = args.switch("--quick");
    let json = args.switch("--json");
    let chart = args.switch("--chart");
    let out_dir = args.value("--out").unwrap_or_else(|| "results".to_owned());
    let metrics: Option<String> = args.value("--metrics");
    let metrics_baseline: Option<String> = args.value("--metrics-baseline");
    let trace_out: Option<String> = args.value("--trace-out");
    let report_out: Option<String> = args.value("--report");
    let jobs = args.value("--jobs").map_or_else(runner::default_jobs, NonZeroUsize::get);
    let supervision = simcore::par::Supervision {
        deadline: args
            .value("--job-deadline")
            .map(|secs: NonZeroU64| std::time::Duration::from_secs(secs.get())),
        retries: 1,
    };
    let ids = args.positionals();

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

    let unknown: Vec<&String> =
        ids.iter().filter(|i| !known.iter().any(|(id, _)| id == i)).collect();
    if !unknown.is_empty() {
        errln!("unknown experiment id(s): {unknown:?}; known ids:");
        for (id, _) in known {
            errln!("  {id}");
        }
        std::process::exit(1);
    }
    let selected: Vec<Experiment> = known
        .iter()
        .filter(|(id, _)| ids.is_empty() || ids.iter().any(|i| i == id))
        .copied()
        .collect();

    cli::io_or_exit("create output directory", &out_dir, std::fs::create_dir_all(&out_dir));

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
        outln!("{}", fig.render_text());
        if chart {
            outln!("{}", ps_bench::chart::render_chart(fig));
        }
        outln!("({id} regenerated in {:.2}s)\n", seconds);
        let path = format!("{out_dir}/{id}.csv");
        cli::io_or_exit("write CSV", &path, std::fs::write(&path, fig.render_csv()));
        if json {
            let path = format!("{out_dir}/{id}.json");
            cli::io_or_exit("write JSON", &path, std::fs::write(&path, fig.render_json()));
        }
    }
    if !failures.is_empty() {
        errln!(
            "{} of {} experiment(s) failed; partial results written to {out_dir}/:",
            failures.len(),
            results.len()
        );
        for f in &failures {
            errln!("  {f}");
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
        cli::io_or_exit("write HTML report", report_path, std::fs::write(report_path, html.render()));
        outln!("report: {} figure(s) written to {report_path}", html.len());
    }

    simcore::telemetry::set_span_observer(None);
    let metrics_report = metricsjson::render(&counters, recorder.len() as u64, quick);
    if let Some(metrics_path) = &metrics {
        cli::io_or_exit(
            "write metrics snapshot",
            metrics_path,
            std::fs::write(metrics_path, &metrics_report),
        );
        outln!("metrics: snapshot written to {metrics_path}");
    }
    if let Some(trace_path) = &trace_out {
        cli::io_or_exit(
            "write Chrome trace",
            trace_path,
            std::fs::write(trace_path, recorder.render_chrome_trace()),
        );
        outln!(
            "trace: {} span event(s) written to {trace_path} (load in https://ui.perfetto.dev)",
            recorder.len()
        );
    }
    if let Some(baseline_path) = &metrics_baseline {
        let text = cli::io_or_exit(
            "read metrics baseline",
            baseline_path,
            std::fs::read_to_string(baseline_path),
        );
        match metricsjson::diff(&metrics_report, &text) {
            Err(e) => {
                errln!("cannot compare metrics baseline {baseline_path:?}: {e}");
                std::process::exit(1);
            }
            Ok(report) if !report.regressions.is_empty() => {
                errln!(
                    "metrics regressions vs baseline {baseline_path} ({} issue(s), {} gated \
                     values compared):",
                    report.regressions.len(),
                    report.compared
                );
                for r in &report.regressions {
                    errln!("  {r}");
                }
                std::process::exit(2);
            }
            Ok(report) => {
                outln!(
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
