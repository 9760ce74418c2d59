//! `advisor`: DirtBuster's analysis and closed-loop policy search over the
//! seven Table-3 subjects, one round per sample.

use crate::layers::{push_memo_counts, split_materialized, time};
use crate::report::percentile;
use crate::spans::timed;
use crate::{golden, Ctx};
use dirtbuster::{analyze, apply_plan, search, DirtBusterConfig, PrestorePlan, SearchConfig};
use machine::MachineConfig;
use prestore::PrestoreMode;
use ps_bench::memo;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use workloads::kv::ycsb::YcsbParams;
use workloads::microbench::Listing1Params;
use workloads::nas::mg::MgParams;
use workloads::tensor::TensorParams;
use workloads::x9::X9Params;
use workloads::WorkloadOutput;

/// The Table-3 subjects at the quick suite's `autotune` parameters. A
/// round over them takes about 0.2 s, short enough to catch the host's
/// fast moments (see README.md); at the `dirtbuster` CLI's parameters it
/// takes about 5 s.
pub fn subjects() -> Vec<(&'static str, WorkloadOutput)> {
    use workloads::{kv::ycsb, microbench, nas, tensor, x9};
    let none = PrestoreMode::None;
    let mg = MgParams {
        n: 32,
        iters: 1,
        threads: 1,
    };
    vec![
        ("mg", nas::mg::run(&mg, none)),
        (
            "tensorflow",
            tensor::training_step(&TensorParams::quick(), none),
        ),
        ("clht", ycsb::run_clht(&YcsbParams::quick(), none)),
        ("masstree", ycsb::run_masstree(&YcsbParams::quick(), none)),
        ("x9", x9::run(&X9Params::quick(), none)),
        (
            "listing1",
            microbench::listing1(&Listing1Params::quick(), none),
        ),
        ("listing3", microbench::listing3(5_000, false)),
    ]
}

/// What one round decided for one subject: the best plan's signature and
/// its objective score.
type Decision = (String, f64);

pub fn run(ctx: &mut Ctx) {
    let cfg = MachineConfig::machine_a();
    let dbcfg = DirtBusterConfig::default();
    let scfg = SearchConfig {
        iters: 16,
        ..SearchConfig::default()
    };
    let spans = ctx.spans.clone();
    let replayed = AtomicU64::new(0);
    let (mut evaluations, mut generations, mut traced_rounds) = (0, 0, 0);
    let (subjects, wall) = ctx.measure(subjects, |ctx, subjects, traced| {
        let spans = spans.as_ref().filter(|_| traced);
        traced_rounds += usize::from(traced);
        memo::clear();
        replayed.store(0, Ordering::Relaxed);
        let tally = &ctx.tally;
        let (outcomes, secs) = time(|| {
            subjects
                .iter()
                .map(|(name, out)| {
                    black_box(timed(spans, "dirtbuster.analyze", || {
                        analyze(&out.traces, &out.registry, &dbcfg)
                    }));
                    let eval = |plan: &PrestorePlan| {
                        let start = Instant::now();
                        let stats =
                            memo::plan_cached(memo::plan_key(name, "machine_a", plan), || {
                                let traces = timed(spans, "dirtbuster.apply_plan", || {
                                    apply_plan(&out.traces, plan)
                                });
                                replayed.fetch_add(traces.total_events() as u64, Ordering::Relaxed);
                                timed(spans, "machine.try_simulate", || {
                                    machine::try_simulate(&cfg, &traces).ok()
                                })
                            });
                        if let Some(s) = spans {
                            s.record("dirtbuster.eval", start, Instant::now());
                        }
                        tally.op(stats.is_some(), || {
                            format!("{name}: plan {} did not replay", plan.signature())
                        });
                        stats
                    };
                    timed(spans, "dirtbuster.search", || search(&scfg, &eval))
                })
                .collect::<Vec<_>>()
        });
        let mut decisions = Vec::new();
        (evaluations, generations) = (0, 0);
        for ((name, _), outcome) in subjects.iter().zip(outcomes) {
            let Some(o) = outcome else {
                ctx.tally
                    .op(false, || format!("{name}: the baseline replay failed"));
                continue;
            };
            evaluations += o.evaluations;
            generations += o.steps.last().map_or(0, |s| s.generation);
            decisions.push((o.plan.signature(), o.score));
        }
        let expect: Vec<Decision> = golden::ADVISOR
            .iter()
            .map(|&(_, sig, score)| (sig.to_owned(), score))
            .collect();
        ctx.tally.op(decisions == expect, || {
            format!("plans differ from the pinned ones: got {decisions:?}, expected {expect:?}")
        });
        secs
    });
    let m = &mut ctx.metrics;
    let events = replayed.load(Ordering::Relaxed) as f64;
    m.push("events_per_s", events / wall, "1/s");
    m.push("workloads.events_replayed", events, "count");
    m.push("dirtbuster.evaluations", evaluations as f64, "count");
    m.push("dirtbuster.generations", generations as f64, "count");
    push_memo_counts(m);
    if let Some(s) = &spans {
        let per_round = |ms: f64| ms / traced_rounds.max(1) as f64;
        let evals = s.durations_ms("dirtbuster.eval");
        let sum = |name| s.durations_ms(name).iter().sum::<f64>();
        m.push(
            "dirtbuster.analyze_ms",
            per_round(sum("dirtbuster.analyze")),
            "ms",
        );
        m.push(
            "dirtbuster.apply_ms",
            per_round(sum("dirtbuster.apply_plan")),
            "ms",
        );
        m.push(
            "dirtbuster.search_self_ms",
            per_round(sum("dirtbuster.search") - s.covered_ms("dirtbuster.eval")),
            "ms",
        );
        m.push("dirtbuster.eval_ms_p50", percentile(&evals, 50.0), "ms");
        m.push("dirtbuster.eval_ms_p99", percentile(&evals, 99.0), "ms");
        let synth = ctx.metrics.get("setup_s").unwrap_or(0.0);
        split_materialized(ctx, &subjects, synth);
    }
}
