//! Closed-loop policy search vs. the paper's hand-placed pre-stores.
//!
//! Table 3 reports where a human, guided by DirtBuster's report, placed
//! each workload's pre-stores. The `--auto` search
//! ([`dirtbuster::search`](mod@dirtbuster::search)) closes that loop
//! without the human: it hill-climbs per-site plans against the Machine A
//! replay, scoring candidates by attributed media bytes. This experiment
//! runs the search on every Table-3 workload and compares three plans
//! head-to-head:
//!
//! * **baseline** — no pre-stores at all;
//! * **hand-placed** — the paper's mode applied at the workload's
//!   pre-store sites (the native recording, which for the derivable
//!   workloads is pinned event-identical to a plan rewrite);
//! * **auto** — the plan the search converged to.
//!
//! The deliverable bar: auto matches or beats the hand-placed plan's
//! attributed media bytes everywhere, *including* the Listing-3 pitfall,
//! where the hand-placed clean is actively harmful and the search must
//! decline to patch anything. Candidate replays are memoized through
//! [`memo::plan_cached`], and the whole sweep is deterministic: a fixed
//! seed yields the same plans at any `runner` parallelism.

use crate::{memo, runner, FigureResult, Series};
use dirtbuster::{apply_plan, render_plan, search, PrestorePlan, SearchConfig};
use machine::MachineConfig;
use prestore::PrestoreMode;
use std::sync::Arc;
use workloads::kv::ycsb::YcsbParams;
use workloads::microbench::Listing1Params;
use workloads::nas::mg::MgParams;
use workloads::tensor::TensorParams;
use workloads::x9::X9Params;
use workloads::WorkloadOutput;

/// The swept Table-3 workloads and their paper pre-store modes.
const AUTO_WORKLOADS: [(&str, PrestoreMode); 7] = [
    ("MG", PrestoreMode::Clean),
    ("tensor", PrestoreMode::Clean),
    ("x9", PrestoreMode::Demote),
    ("CLHT", PrestoreMode::Clean),
    ("Masstree", PrestoreMode::Clean),
    ("listing1", PrestoreMode::Clean),
    ("listing3", PrestoreMode::Clean),
];

/// Record one workload's baseline and hand-placed traces.
fn record(name: &str, hand: PrestoreMode, quick: bool) -> [Arc<WorkloadOutput>; 2] {
    use workloads::*;
    match name {
        "MG" => {
            let p = MgParams { n: if quick { 32 } else { 48 }, iters: 1, threads: 1 };
            [
                Arc::new(nas::mg::run(&p, PrestoreMode::None)),
                Arc::new(nas::mg::run(&p, hand)),
            ]
        }
        "tensor" => {
            let p = if quick {
                TensorParams::quick()
            } else {
                let mut p = TensorParams::new(16);
                p.large_elems = 1 << 17;
                p.small_ops = 8_000;
                p
            };
            [memo::tensor(&p, PrestoreMode::None), memo::tensor(&p, hand)]
        }
        "x9" => {
            let p = if quick {
                X9Params::quick()
            } else {
                X9Params { messages: 10_000, ..X9Params::default_params() }
            };
            [memo::x9(&p, PrestoreMode::None), memo::x9(&p, hand)]
        }
        "CLHT" => {
            let p = ycsb_params(quick);
            [memo::clht(&p, PrestoreMode::None), memo::clht(&p, hand)]
        }
        "Masstree" => {
            let p = ycsb_params(quick);
            [memo::masstree(&p, PrestoreMode::None), memo::masstree(&p, hand)]
        }
        "listing1" => {
            let p = if quick { Listing1Params::quick() } else { Listing1Params::new(2, 1024) };
            [memo::listing1(&p, PrestoreMode::None), memo::listing1(&p, hand)]
        }
        "listing3" => {
            let iters = if quick { 5_000 } else { 50_000 };
            [memo::listing3(iters, false), memo::listing3(iters, true)]
        }
        other => panic!("unknown autotune workload {other}"),
    }
}

fn ycsb_params(quick: bool) -> YcsbParams {
    if quick {
        YcsbParams::quick()
    } else {
        let mut p = YcsbParams::new(workloads::kv::ycsb::YcsbKind::A, 1024, 4);
        p.records = 8_000;
        p.ops = 12_000;
        p
    }
}

/// One workload's sweep result.
struct Row {
    baseline: u64,
    hand: u64,
    auto: u64,
    plan: String,
    generations: usize,
    evaluations: usize,
}

/// Autotune: attributed media bytes of the searched plan vs. the paper's
/// hand-placed pre-stores on every Table-3 workload (Machine A).
pub fn autotune(quick: bool) -> FigureResult {
    let mut fig = FigureResult::new(
        "autotune",
        "Closed-loop policy search vs. hand-placed pre-stores on Machine A",
        "workload index (see notes)",
        "attributed media bytes",
    );
    let cfg = MachineConfig::machine_a();
    let scfg = SearchConfig {
        iters: if quick { 6 } else { 10 },
        max_sites: if quick { 4 } else { 6 },
        ..Default::default()
    };
    let rows: Vec<Row> = runner::sweep(AUTO_WORKLOADS.len(), |i| {
        let (name, hand_mode) = AUTO_WORKLOADS[i];
        let [base, hand] = record(name, hand_mode, quick);
        let hand_stats =
            machine::try_simulate(&cfg, &hand.traces).expect("hand-placed trace replays");
        let key_wl = format!("{name}|q{quick}");
        let eval = |plan: &PrestorePlan| {
            memo::plan_cached(memo::plan_key(&key_wl, "machine_a", plan), || {
                machine::try_simulate(&cfg, &apply_plan(&base.traces, plan)).ok()
            })
        };
        let outcome = search(&scfg, &eval).expect("baseline trace replays");
        Row {
            baseline: outcome.baseline.attributed_media_bytes(),
            hand: hand_stats.attributed_media_bytes(),
            auto: outcome.stats.attributed_media_bytes(),
            plan: render_plan(&outcome.plan, &base.registry),
            generations: outcome.steps.last().map_or(0, |s| s.generation),
            evaluations: outcome.evaluations,
        }
    });

    let mut baseline = Series::new("baseline");
    let mut hand = Series::new("hand-placed");
    let mut auto = Series::new("auto");
    let mut wins = 0usize;
    for (i, row) in rows.iter().enumerate() {
        let x = i as f64;
        baseline.points.push((x, row.baseline as f64));
        hand.points.push((x, row.hand as f64));
        auto.points.push((x, row.auto as f64));
        let (name, mode) = AUTO_WORKLOADS[i];
        let verdict = if row.auto < row.hand {
            wins += 1;
            format!(
                "beats hand by {:.1}%",
                (row.hand - row.auto) as f64 * 100.0 / row.hand.max(1) as f64
            )
        } else if row.auto == row.hand {
            wins += 1;
            "matches hand".to_owned()
        } else {
            format!(
                "TRAILS hand by {:.1}%",
                (row.auto - row.hand) as f64 * 100.0 / row.hand.max(1) as f64
            )
        };
        fig.notes.push(format!(
            "[{i}] {name}: baseline {} B, hand({}) {} B, auto {} B — {} \
             (plan: {}; {} generation(s), {} evaluation(s))",
            row.baseline,
            mode.name(),
            row.hand,
            row.auto,
            verdict,
            row.plan,
            row.generations,
            row.evaluations,
        ));
    }
    fig.series.push(baseline);
    fig.series.push(hand);
    fig.series.push(auto);
    fig.notes.push(format!(
        "auto matches or beats the hand-placed plan on {wins}/{} workloads \
         (seed {}, {} generation cap, objective: attributed media bytes)",
        AUTO_WORKLOADS.len(),
        scfg.seed,
        scfg.iters,
    ));
    fig.notes.push(
        "listing3 is the pitfall row: the hand-placed clean repeatedly writes back lines \
         that are about to be rewritten, and the search's best plan is to patch nothing \
         (the harm shows up as writeback-wait stalls and wall-clock — see the listing3 \
         figure — while this attributed-media view stays flat)"
            .into(),
    );
    fig
}
