//! DirtBuster command-line tool: profile a built-in workload and print the
//! pre-store recommendations in the paper's report format (§6).
//!
//! ```text
//! dirtbuster <workload> [--sample-interval N] [--verbose] [--save-trace F]
//!            [--trace-out F] [--crash-at-fence N | --crash-at-step N]
//!            [--crash-report F] [--auto] [--auto-iters N]
//!            [--auto-budget-secs S] [--auto-objective SPEC] [--seed N]
//!            [--jobs N]
//! dirtbuster --from-trace FILE [--sample-interval N] [--verbose]
//!
//! workloads: mg ft sp bt ua is lu ep cg tensorflow clht masstree x9
//!            listing1 listing3 pytorch numpy lzma ...
//! ```
//!
//! After the DirtBuster recommendations, the tool replays the workload on
//! the paper's Machine A and prints the per-site attribution table: which
//! trace sites cause the device's write-amplified media traffic and the
//! cores' stall cycles (the paper's Table-3 view). `--trace-out FILE`
//! additionally writes the run's telemetry spans as a Chrome Trace Event
//! JSON timeline (Perfetto-loadable). Per-phase wall-clock timing goes to
//! stderr so stdout stays pipeable.
//!
//! `--crash-at-fence N` / `--crash-at-step N` arm a simulated power
//! failure (at the N-th fence, or the N-th scheduler step) on the Machine
//! A replay: the tool prints the [`machine::CrashReport`] — durable vs
//! lost lines, in-flight state, per-site loss attribution — then runs
//! recovery ([`machine::Machine::recover_and_resume`]) and checks the
//! recovered run reaches the same durable digest as an uninterrupted one.
//! `--crash-report FILE` additionally writes the report as JSON (the CI
//! crash-smoke artifact) plus a sibling `FILE.flight.jsonl` post-mortem
//! dump: the last events the engine retired before freezing (bounded
//! flight-recorder ring, O(1) per event while running), ending in the
//! crash marker whose `seq` is the crash step. Both files are pure
//! functions of the simulated schedule, so CI diffs them across builds.
//!
//! `--auto` closes the advisory loop: after the report, a seeded
//! hill-climb ([`dirtbuster::search`]) flips the per-site plan of the top
//! attributed sites, replaying each candidate on Machine A (memoized via
//! [`ps_bench::memo::plan_cached`]) and minimizing `--auto-objective`
//! (`media`, `stalls`, or `blend:MW,SW`). The convergence trace and an
//! auto-vs-hand-placed comparison are printed to stdout; for a fixed
//! `--seed` both are byte-identical at any `--jobs` level.
//!
//! [`ps_bench::cli`] reads the arguments: a value is never the workload
//! (`--save-trace listing3 listing3` saves `listing3` to the file
//! `listing3`), a value flag given last is a usage error, and `--help`
//! prints the usage on stdout and exits 0.
//!
//! Exit codes: `0` success (or `--help`), `1` trace I/O or validation
//! error, a crash replay/recovery error, a recovery digest mismatch, or a
//! failed `--auto` baseline replay, `2` usage error (unknown workload or
//! flag, missing workload or flag value, unparsable flag value, a second
//! workload, or a workload given with `--from-trace`).

use dirtbuster::{analyze, DirtBusterConfig};
use machine::MachineConfig;
use prestore::PrestoreMode;
use ps_bench::cli::{self, Cli};
use ps_bench::tracefmt::TraceRecorder;
use ps_bench::{out, outln};
use std::num::{NonZeroU64, NonZeroUsize};
use workloads::WorkloadOutput;

fn workload_by_name(name: &str) -> Option<WorkloadOutput> {
    use workloads::*;
    let out = match name {
        "mg" => nas::mg::run(&nas::mg::MgParams { n: 48, iters: 1, threads: 1 }, PrestoreMode::None),
        "ft" => nas::ft::run(
            &nas::ft::FtParams { n: 64, pencils: 1024, threads: 1, clean_scratch: false },
            PrestoreMode::None,
        ),
        "sp" => nas::sp::run(&nas::sp::SpParams { n: 48, iters: 1, threads: 1 }, PrestoreMode::None),
        "bt" => nas::bt::run(&nas::bt::BtParams { n: 48, iters: 1, threads: 1 }, PrestoreMode::None),
        "ua" => nas::ua::run(
            &nas::ua::UaParams { elements: 4096, elem_vals: 64, iters: 2, threads: 1, seed: 11 },
            PrestoreMode::None,
        ),
        "is" => nas::is::run(
            &nas::is::IsParams { keys: 1 << 19, max_key: 1 << 18, iters: 1, threads: 1, seed: 13 },
            PrestoreMode::None,
        ),
        "lu" => nas::lu::run(&nas::lu::LuParams::default_params(), PrestoreMode::None),
        "ep" => nas::ep::run(&nas::ep::EpParams::default_params(), PrestoreMode::None),
        "cg" => nas::cg::run(&nas::cg::CgParams::default_params(), PrestoreMode::None),
        "tensorflow" | "tf" => {
            let mut p = tensor::TensorParams::new(16);
            p.large_elems = 1 << 17;
            p.small_ops = 8_000;
            tensor::training_step(&p, PrestoreMode::None)
        }
        "clht" => {
            let mut p = kv::ycsb::YcsbParams::new(kv::ycsb::YcsbKind::A, 1024, 4);
            p.records = 8_000;
            p.ops = 12_000;
            kv::ycsb::run_clht(&p, PrestoreMode::None)
        }
        "masstree" => {
            let mut p = kv::ycsb::YcsbParams::new(kv::ycsb::YcsbKind::A, 1024, 4);
            p.records = 8_000;
            p.ops = 12_000;
            kv::ycsb::run_masstree(&p, PrestoreMode::None)
        }
        "x9" => x9::run(
            &x9::X9Params { messages: 10_000, ..x9::X9Params::default_params() },
            PrestoreMode::None,
        ),
        "listing1" => microbench::listing1(&microbench::Listing1Params::new(2, 1024), PrestoreMode::None),
        "listing3" => microbench::listing3(50_000, false),
        other if phoronix::names().contains(&other) => phoronix::run(other, 50_000),
        _ => return None,
    };
    Some(out)
}

fn usage() -> String {
    format!(
        "usage: dirtbuster <workload> [--sample-interval N] [--verbose] \
         [--save-trace FILE] [--trace-out FILE]\n\
         \u{20}                 [--crash-at-fence N | --crash-at-step N] [--crash-report FILE]\n\
         \u{20}      dirtbuster --from-trace FILE \
         [--sample-interval N] [--verbose] [--trace-out FILE]\n\
         \n\
         workloads: mg ft sp bt ua is lu ep cg tensorflow clht masstree x9 \
         listing1 listing3 {}\n\
         \n\
         --trace-out FILE  write telemetry spans as Chrome Trace Event JSON\n\
         \u{20}                  (load in https://ui.perfetto.dev)\n\
         --crash-at-fence N  simulate a power failure at the N-th fence of the\n\
         \u{20}                  Machine A replay, print the crash report, then\n\
         \u{20}                  recover and verify digest equivalence\n\
         --crash-at-step N   same, at the N-th scheduler step\n\
         --crash-report FILE write the crash report as JSON plus a\n\
         \u{20}                 FILE.flight.jsonl post-mortem event dump\n\
         --auto              closed-loop policy search: hill-climb per-site\n\
         \u{20}                  pre-store plans on the Machine A replay and\n\
         \u{20}                  compare against the hand-placed plan\n\
         --auto-iters N      generation cap of the search (default 16)\n\
         --auto-budget-secs S  wall-clock budget (makes the trace timing-\n\
         \u{20}                  dependent; omit for exact reproducibility)\n\
         --auto-objective SPEC  media | stalls | blend:MW,SW (default media)\n\
         --seed N            RNG seed of the search's restarts (default 42)\n\
         --jobs N            parallel candidate evaluations (default 1; the\n\
         \u{20}                  convergence trace is identical at any level)\n\
         -h, --help          print this text on stdout and exit 0\n\
         \n\
         phase timing is printed to stderr; stdout carries only the report\n\
         \n\
         exit codes: 0 success or --help; 1 trace I/O or validation error,\n\
         \u{20}           crash replay error, recovery digest mismatch, or failed\n\
         \u{20}           --auto baseline replay; 2 usage error (an unknown flag,\n\
         \u{20}           a flag shown with a value given none, a second\n\
         \u{20}           workload, or a workload beside --from-trace)\n\
         \u{20}           (the exit code never depends on the report's content)",
        workloads::phoronix::names().join(" ")
    )
}

fn main() {
    let cli = Cli {
        value_flags: &[
            "--sample-interval",
            "--save-trace",
            "--from-trace",
            "--trace-out",
            "--crash-at-fence",
            "--crash-at-step",
            "--crash-report",
            "--auto-iters",
            "--auto-budget-secs",
            "--auto-objective",
            "--seed",
            "--jobs",
        ],
        switches: &["--verbose", "--auto"],
        usage: usage(),
        usage_exit: 2,
    };
    let args = cli.parse();
    let verbose = args.switch("--verbose");
    let sample_interval = args.value("--sample-interval").map_or(97, NonZeroUsize::get);
    let save_trace: Option<String> = args.value("--save-trace");
    let from_trace: Option<String> = args.value("--from-trace");
    let trace_out: Option<String> = args.value("--trace-out");
    let crash_at_fence = args.value("--crash-at-fence").map(NonZeroU64::get);
    let crash_at_step = args.value("--crash-at-step").map(NonZeroU64::get);
    if crash_at_fence.is_some() && crash_at_step.is_some() {
        cli.fail("--crash-at-fence and --crash-at-step are mutually exclusive");
    }
    let crash_report_path: Option<String> = args.value("--crash-report");
    if crash_report_path.is_some() && crash_at_fence.is_none() && crash_at_step.is_none() {
        cli.fail("--crash-report needs --crash-at-fence or --crash-at-step");
    }
    let auto = args.switch("--auto");
    let auto_iters = args.value("--auto-iters").map_or(16, NonZeroUsize::get);
    let auto_budget = args.value("--auto-budget-secs").map(|secs: f64| {
        match std::time::Duration::try_from_secs_f64(secs) {
            Ok(d) if secs > 0.0 => d,
            _ => cli.fail(format!("--auto-budget-secs must be a positive number, got {secs}")),
        }
    });
    let seed = args.value("--seed").unwrap_or(42);
    let auto_objective = match args.value::<String>("--auto-objective") {
        None => dirtbuster::Objective::MediaBytes,
        Some(v) => dirtbuster::Objective::parse(&v).unwrap_or_else(|e| cli.fail(e)),
    };
    if let Some(jobs) = args.value::<NonZeroUsize>("--jobs") {
        simcore::par::set_parallelism(jobs.get());
    }
    // One workload, or none with --from-trace.
    args.positionals_up_to(usize::from(from_trace.is_none()));

    let cfg = DirtBusterConfig { sample_interval, ..Default::default() };

    // Record telemetry spans for --trace-out.
    let recorder = TraceRecorder::new();
    if trace_out.is_some() {
        simcore::telemetry::set_span_observer(Some(Box::new(recorder.clone())));
    }

    let input_start = std::time::Instant::now();
    let (name, out) = if let Some(path) = from_trace {
        let (traces, registry) =
            cli::io_or_exit("load trace", &path, simcore::serialize::load_traces(&path));
        if let Err(e) = simcore::trace::validate(&traces, cfg.line_size) {
            eprintln!("trace {path:?} is malformed: {e}");
            std::process::exit(1);
        }
        ("<trace file>".to_owned(), WorkloadOutput { traces, registry, ops: 0 })
    } else {
        let Some(name) = args.positionals().first() else {
            cli.fail("dirtbuster needs a <workload> or --from-trace FILE");
        };
        let Some(out) = workload_by_name(name) else {
            cli.fail(format!("unknown workload {name:?}"));
        };
        (name.clone(), out)
    };
    if let Some(path) = save_trace {
        cli::io_or_exit(
            "save trace to",
            &path,
            simcore::serialize::save_traces(&path, &out.traces, &out.registry),
        );
        outln!("trace saved to {path}");
    }
    let input_elapsed = input_start.elapsed();

    let start = std::time::Instant::now();
    let analysis = analyze(&out.traces, &out.registry, &cfg);
    let elapsed = start.elapsed();

    outln!("== DirtBuster: {name} ==");
    outln!(
        "{} events across {} thread(s)\n",
        out.traces.total_events(),
        out.traces.threads.len()
    );
    outln!(
        "step 1 (sampling): store fraction {:.1}% -> {}",
        analysis.sampling.app_store_fraction * 100.0,
        if analysis.write_intensive() { "write-intensive" } else { "NOT write-intensive" },
    );
    if verbose {
        for f in &analysis.sampling.funcs {
            outln!(
                "  {:<50} {:>5.1}% of stores",
                out.registry.name(f.func),
                f.store_share * 100.0
            );
            for &(caller, n) in f.callers.iter().take(2) {
                outln!("    called from {} ({n} samples)", out.registry.name(caller));
            }
        }
    }
    let report_start = std::time::Instant::now();
    if analysis.reports.is_empty() {
        outln!("\nno write-intensive functions to instrument; nothing to patch.");
    } else {
        outln!("\nstep 2+3 (instrumentation + recommendations):\n");
        out!("{}", analysis.render(&out.registry));
    }
    let report_elapsed = report_start.elapsed();

    // Replay the workload on Machine A and attribute its device write
    // amplification and stall cycles back to trace sites — the paper's
    // Table-3 view of *why* DirtBuster recommends what it recommends.
    let replay_start = std::time::Instant::now();
    let machine_cfg = MachineConfig::machine_a();
    let base_stats = match machine::try_simulate(&machine_cfg, &out.traces) {
        Ok(stats) => {
            outln!("\nstep 4 (attribution replay on {}):\n", machine_cfg.name);
            out!("{}", machine::report::render_site_table(&stats, &out.registry, 12));
            Some(stats)
        }
        Err(e) => {
            eprintln!("attribution replay failed: {e}");
            None
        }
    };
    let replay_elapsed = replay_start.elapsed();

    // Closed-loop policy search: hill-climb per-site plans against the
    // Machine A replay, then compare against what the advisor's report
    // would have had a human patch in.
    let mut auto_elapsed = None;
    if auto {
        use dirtbuster::{
            apply_plan, render_convergence, render_plan, search, PrestorePlan, SearchConfig,
        };
        let auto_start = std::time::Instant::now();
        let machine_tag = "machine_a";
        // Step 4 already replayed the unpatched trace — seed the candidate
        // cache so the search's baseline evaluation is a hit.
        if let Some(stats) = &base_stats {
            let _ = ps_bench::memo::plan_cached(
                ps_bench::memo::plan_key(&name, machine_tag, &PrestorePlan::empty()),
                || Some(stats.clone()),
            );
        }
        let eval = |plan: &PrestorePlan| {
            ps_bench::memo::plan_cached(ps_bench::memo::plan_key(&name, machine_tag, plan), || {
                machine::try_simulate(&machine_cfg, &apply_plan(&out.traces, plan)).ok()
            })
        };
        let scfg = SearchConfig {
            iters: auto_iters,
            budget: auto_budget,
            seed,
            objective: auto_objective,
            ..Default::default()
        };
        let Some(outcome) = search(&scfg, &eval) else {
            eprintln!("policy search failed: the baseline replay did not complete");
            std::process::exit(1);
        };
        outln!("\n== closed-loop policy search ({}) ==\n", machine_cfg.name);
        out!("{}", render_convergence(&outcome, &scfg, &out.registry));

        let hand = PrestorePlan::from_analysis(&analysis);
        let hand_stats = eval(&hand);
        outln!("\n-- auto vs. hand-placed --");
        outln!(
            "  baseline    : {:>14} attributed media B  {}",
            outcome.baseline.attributed_media_bytes(),
            render_plan(&PrestorePlan::empty(), &out.registry)
        );
        match &hand_stats {
            Some(h) => outln!(
                "  hand-placed : {:>14} attributed media B  {}",
                h.attributed_media_bytes(),
                render_plan(&hand, &out.registry)
            ),
            None => outln!("  hand-placed : replay failed"),
        }
        let auto_media = outcome.stats.attributed_media_bytes();
        outln!(
            "  auto        : {:>14} attributed media B  {}",
            auto_media,
            render_plan(&outcome.plan, &out.registry)
        );
        if let Some(h) = &hand_stats {
            let hand_media = h.attributed_media_bytes();
            if auto_media < hand_media {
                outln!(
                    "  verdict: auto beats the hand-placed plan by {:.1}% attributed media bytes",
                    (hand_media - auto_media) as f64 * 100.0 / hand_media.max(1) as f64
                );
            } else if auto_media == hand_media {
                outln!("  verdict: auto matches the hand-placed plan");
            } else {
                outln!(
                    "  verdict: auto trails the hand-placed plan by {:.1}% attributed media bytes",
                    (auto_media - hand_media) as f64 * 100.0 / hand_media.max(1) as f64
                );
            }
        }
        auto_elapsed = Some(auto_start.elapsed());
    }

    // Simulated power failure + recovery, when armed. The crash replay,
    // the recovery replay and a golden uninterrupted replay are all on
    // Machine A; the golden digest is what recovery must reproduce.
    let mut crash_elapsed = None;
    if crash_at_fence.is_some() || crash_at_step.is_some() {
        use machine::{CrashOutcome, CrashPlan, Machine};
        let crash_start = std::time::Instant::now();
        let plan = match (crash_at_step, crash_at_fence) {
            (Some(n), None) => CrashPlan::AtStep(n),
            (None, Some(k)) => CrashPlan::EveryKFences(u32::try_from(k).unwrap_or(u32::MAX)),
            _ => unreachable!("flags validated mutually exclusive above"),
        };
        let m = Machine::new(machine_cfg.clone());
        match m.try_run_until_crash(&out.traces, plan) {
            Err(e) => {
                eprintln!("crash replay failed: {e}");
                std::process::exit(1);
            }
            Ok(CrashOutcome::Completed { stats, .. }) => {
                outln!(
                    "\nstep 5 (crash injection): plan never fired — the replay retired \
                     {} fence(s) and completed",
                    stats.total_fences()
                );
            }
            Ok(CrashOutcome::Crashed(report)) => {
                outln!("\nstep 5 (crash injection on {}):\n", machine_cfg.name);
                out!("{}", machine::crash::render_crash_table(&report, &out.registry));
                if let Some(path) = &crash_report_path {
                    let json = machine::crash::render_crash_json(&report, &out.registry);
                    cli::io_or_exit("write crash report to", path, std::fs::write(path, json));
                    // Post-mortem flight dump: the last events the engine
                    // retired before freezing, ending in the crash marker.
                    // A sibling file (not embedded) so the JSON report
                    // stays small; deterministic, so CI diffs it across
                    // builds like the report itself.
                    let flight_path = format!("{path}.flight.jsonl");
                    let dump = machine::render_flight_jsonl(&report);
                    cli::io_or_exit(
                        "write flight dump to",
                        &flight_path,
                        std::fs::write(&flight_path, dump),
                    );
                    outln!(
                        "crash report written to {path} ({} flight event(s) in {flight_path})",
                        report.flight.len()
                    );
                }
                let golden = match m.try_run_until_crash(&out.traces, CrashPlan::AtStep(u64::MAX))
                {
                    Ok(CrashOutcome::Completed { durable_digest: Some(d), .. }) => d,
                    Ok(_) => unreachable!("an unfired plan always completes with a digest"),
                    Err(e) => {
                        eprintln!("golden replay failed: {e}");
                        std::process::exit(1);
                    }
                };
                match m.recover_and_resume(&out.traces, &report.image, None) {
                    Err(e) => {
                        eprintln!("recovery failed: {e}");
                        std::process::exit(1);
                    }
                    Ok(CrashOutcome::Completed { durable_digest: Some(d), .. }) if d == golden => {
                        outln!(
                            "recovery: resumed replay reached the uninterrupted durable \
                             digest {golden:#018x} — crash consistent"
                        );
                    }
                    Ok(CrashOutcome::Completed { durable_digest, .. }) => {
                        eprintln!(
                            "recovery DIVERGED: resumed digest {durable_digest:?}, \
                             uninterrupted {golden:#018x}"
                        );
                        std::process::exit(1);
                    }
                    Ok(CrashOutcome::Crashed(_)) => {
                        unreachable!("recovery was not armed with a crash plan")
                    }
                }
            }
        }
        crash_elapsed = Some(crash_start.elapsed());
    }

    if let Some(path) = trace_out {
        simcore::telemetry::set_span_observer(None);
        cli::io_or_exit(
            "write Chrome trace to",
            &path,
            std::fs::write(&path, recorder.render_chrome_trace()),
        );
        outln!(
            "\ntrace: {} span event(s) written to {path} (load in https://ui.perfetto.dev)",
            recorder.len()
        );
    }

    eprintln!("-- phase timing --");
    eprintln!("  input    {input_elapsed:>10.2?}  (record workload / load trace)");
    eprintln!("  analyze  {elapsed:>10.2?}");
    eprintln!("  report   {report_elapsed:>10.2?}");
    eprintln!("  replay   {replay_elapsed:>10.2?}  (site attribution on Machine A)");
    if let Some(e) = auto_elapsed {
        eprintln!("  auto     {e:>10.2?}  (closed-loop policy search)");
    }
    if let Some(e) = crash_elapsed {
        eprintln!("  crash    {e:>10.2?}  (injection + recovery + golden replay)");
    }
}
