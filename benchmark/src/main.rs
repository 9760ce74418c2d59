//! Host-time benchmark of the pre-stores simulator (see README.md).
//!
//! ```text
//! ps-benchmark [--workload W] [--seed N] [--seconds S] [--trace 0|1]
//!              [--trace-out FILE] [--smoke]
//! ```
//!
//! With `--workload` the workload runs in this process; without it every
//! workload runs in a child process of its own, so each reports its own
//! peak heap. After one warm-up sample a workload samples until `--seconds`
//! have passed (default 0: only the minimum sample count);
//! `BENCHMARK.json` names the workloads a comparison run measures and the
//! seconds it passes as `run_seconds`. An
//! untraced run reports the end-to-end metrics; a traced run
//! (`--trace 1` or `--trace-out FILE`) reports the per-layer metrics and
//! writes the benchmark's spans as Chrome-trace JSON. Every metric is
//! printed by name with its unit; the last line of stdout is one JSON
//! object with the listed metrics and the attempted/failed operation
//! counts. Exit status: 0 when every operation succeeded and every output
//! matched, 1 otherwise, 2 on a usage error.

mod advisor;
mod figures;
mod golden;
mod heap;
mod kv;
mod layers;
mod reference;
mod report;
mod spans;

use layers::time;
use report::{median, min, Metrics, Tally};
use spans::Spans;
use std::process::ExitCode;
use std::time::Instant;

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

const WORKLOADS: [&str; 4] = ["kv_read", "kv_write", "advisor", "figures_quick"];

/// The workloads whose inputs are fixed: they take no seed.
const UNSEEDED: [&str; 2] = ["advisor", "figures_quick"];

/// Everything one workload run shares with the harness.
pub struct Ctx {
    /// `--seed`, if given (each workload has its own default).
    pub seed: Option<u64>,
    /// Run the small smoke scale instead of the full one.
    pub smoke: bool,
    seconds: f64,
    /// The span buffer of a traced run.
    pub spans: Option<Spans>,
    pub tally: Tally,
    pub metrics: Metrics,
}

impl Ctx {
    pub fn traced(&self) -> bool {
        self.spans.is_some()
    }

    /// Set up the input with `build`, call `sample` on it once to warm
    /// up, then sample until `--seconds` have passed, taking at least
    /// three samples (two in a traced run, one in an untraced smoke run).
    /// Before each sample the input is dropped, the reference loop is
    /// timed, and the input is built again, timed. `sample` returns the
    /// seconds it spent in the simulator. In a traced run every other
    /// sample is traced; the fastest traced sample against the fastest
    /// untraced one is the tracing overhead.
    ///
    /// Reports `setup_s`, the fastest build, `wall_s_min`, the fastest
    /// untraced sample, and `wall_rel`, that sample over the fastest
    /// reference loop: the host's speed swings by up to 2x, for seconds to
    /// minutes at a time, so a run's fastest timings still move with the
    /// host and only their ratio repeats from run to run (see README.md).
    /// Also reports `peak_heap_mb`, the median
    /// over untraced samples of the most heap a sample held at once, input
    /// included. Returns the last input built and `wall_s_min`.
    pub fn measure<T>(
        &mut self,
        mut build: impl FnMut() -> T,
        mut sample: impl FnMut(&mut Ctx, &mut T, bool) -> f64,
    ) -> (T, f64) {
        let mut input = build();
        sample(self, &mut input, false);
        let min_samples = match (self.traced(), self.smoke) {
            (true, _) => 2,
            (false, true) => 1,
            (false, false) => 3,
        };
        let (mut plain, mut traced, mut heap, mut setups, mut refs) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let start = Instant::now();
        while plain.len() + traced.len() < min_samples
            || start.elapsed().as_secs_f64() < self.seconds
        {
            drop(input);
            refs.push(reference::time());
            heap::reset_peak();
            let secs;
            (input, secs) = time(&mut build);
            setups.push(secs);
            let is_traced = self.traced() && plain.len() > traced.len();
            let secs = sample(self, &mut input, is_traced);
            let peak = heap::peak_mb();
            eprintln!(
                "  sample {}: {secs:.4} s, {peak:.2} MiB{}",
                plain.len() + traced.len(),
                if is_traced { " (traced)" } else { "" }
            );
            if is_traced {
                traced.push(secs);
            } else {
                plain.push(secs);
                heap.push(peak);
            }
        }
        let wall = min(&plain);
        self.metrics.push("setup_s", min(&setups), "s");
        self.metrics.push("wall_s_min", wall, "s");
        self.metrics.push("reference_s_min", min(&refs), "s");
        self.metrics.push("wall_rel", wall / min(&refs), "x");
        self.metrics.push("peak_heap_mb", median(&heap), "MiB");
        self.metrics.push("samples", plain.len() as f64, "count");
        if !traced.is_empty() {
            self.metrics.push(
                "trace_overhead_pct",
                (min(&traced) / wall - 1.0) * 100.0,
                "%",
            );
        }
        (input, wall)
    }
}

struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
    trace_out: Option<String>,
    smoke: bool,
}

fn usage(msg: &str) -> ExitCode {
    eprintln!(
        "{msg}\nusage: ps-benchmark [--workload {}] [--seed N] [--seconds S] \
         [--trace 0|1] [--trace-out FILE] [--smoke]",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: None,
        seconds: 0.0,
        trace: false,
        trace_out: None,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            out.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => {
                out.workload = Some(value.clone())
            }
            "--seed" => out.seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                out.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s >= 0.0)
                    .ok_or_else(bad)?;
            }
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--trace-out" => {
                out.trace = true;
                out.trace_out = Some(value.clone());
            }
            "--workload" => return Err(bad()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(out)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => return usage(&e),
    };
    match &args.workload {
        Some(w) => run_workload(w, &args),
        None => run_children(&raw, &args),
    }
}

/// Run every workload in a child process of its own.
fn run_children(raw: &[String], args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot locate this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in WORKLOADS {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(raw).args(["--workload", w]);
        if let Some(path) = &args.trace_out {
            // A later --trace-out overrides the shared one.
            let stem = path.strip_suffix(".json").unwrap_or(path);
            cmd.args(["--trace-out", &format!("{stem}.{w}.json")]);
        }
        match cmd.status() {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("workload {w} failed ({s})");
                ok = false;
            }
            Err(e) => {
                eprintln!("cannot start workload {w}: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_workload(workload: &str, args: &Args) -> ExitCode {
    // One host thread (`figures_quick` sets its own budget): at two, each
    // search generation waits for the slower thread and the memory peak
    // depends on how parallel evaluations overlap.
    simcore::par::set_parallelism(1);
    if args.seed.is_some() && UNSEEDED.contains(&workload) {
        eprintln!("note: {workload} has fixed inputs; --seed is ignored");
    }
    let mut ctx = Ctx {
        seed: args.seed,
        smoke: args.smoke,
        seconds: args.seconds,
        spans: args.trace.then(Spans::new),
        tally: Tally::default(),
        metrics: Metrics::default(),
    };
    println!(
        "== {workload} ({}, {}, {} s measured) ==",
        if ctx.smoke {
            "smoke scale"
        } else {
            "full scale"
        },
        if ctx.traced() { "traced" } else { "untraced" },
        ctx.seconds
    );
    match workload {
        "kv_read" => kv::run(&mut ctx, 0.9),
        "kv_write" => kv::run(&mut ctx, 0.1),
        "advisor" => advisor::run(&mut ctx),
        _ => figures::run(&mut ctx),
    }
    if let Some(spans) = &ctx.spans {
        layers::probes(&mut ctx.metrics, ctx.smoke);
        let path = args
            .trace_out
            .clone()
            .unwrap_or_else(|| default_trace_path(workload));
        let written = std::fs::write(&path, spans.chrome_trace());
        ctx.tally.op(written.is_ok(), || {
            format!("cannot write the Chrome trace to {path}")
        });
        println!("  chrome trace: {} spans in {path}", spans.len());
    }
    ctx.metrics.print();
    let listed: &[(&str, &str)] = if ctx.traced() {
        &report::PER_LAYER
    } else {
        &report::END_TO_END
    };
    println!("{}", ctx.metrics.result_json(listed, &ctx.tally));
    if ctx.tally.failed() == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Where a traced run without `--trace-out` writes its spans: next to the
/// executable, inside the build directory.
fn default_trace_path(workload: &str) -> String {
    let dir = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.to_path_buf()))
        .unwrap_or_default();
    dir.join(format!("{workload}.trace.json"))
        .to_string_lossy()
        .into_owned()
}
