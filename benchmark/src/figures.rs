//! `figures_quick`: the quick suite of the `figures` CLI — every table and
//! figure of the paper at scaled-down parameters — through the supervised
//! parallel runner.

use crate::layers::{push_memo_counts, split_materialized, time};
use crate::report::{fnv, median};
use crate::{advisor, golden, Ctx};
use ps_bench::experiments as ex;
use ps_bench::memo;
use ps_bench::runner::{self, Experiment};
use simcore::par::Supervision;

/// Host threads of the runner and the `simcore::par` pool. Fixed rather
/// than taken from the host, so numbers from different hosts describe the
/// same work split.
const JOBS: usize = 2;

/// The `figures` CLI's experiment table, in its order.
const EXPERIMENTS: [Experiment; 29] = [
    ("table1", |_| ex::table1()),
    ("table2", ex::table2),
    ("fig3a", ex::fig3a),
    ("fig3b", ex::fig3b),
    ("fig5", ex::fig5),
    ("fig7", ex::fig7),
    ("fig8", ex::fig8),
    ("fig9", ex::fig9),
    ("fig10", ex::fig10),
    ("fig11", ex::fig11),
    ("fig12", ex::fig12),
    ("fig13", ex::fig13),
    ("fig14", ex::fig14),
    ("x9", ex::x9_latency),
    ("listing3", ex::listing3_pitfall),
    ("skipvariant", ex::skip_variant),
    ("issuecost", ex::prestore_issue_cost),
    ("overheadB", ex::overhead_on_machine_b),
    ("badprestores", ex::bad_prestores),
    ("dbreports", |_| ex::dirtbuster_reports()),
    ("abl_granularity", ex::granularity_sweep),
    ("abl_replacement", ex::replacement_policy_sweep),
    ("abl_latency", ex::fpga_latency_sweep),
    ("abl_ycsb_mix", ex::ycsb_mix_sweep),
    ("abl_dram", ex::dram_sanity),
    ("ext_cxl_kv", ex::cxl_kv),
    ("crashbuster", ex::crashbuster),
    ("kv_serving", ex::kv_serving),
    ("autotune", ex::autotune),
];

/// The smoke scale runs the experiments that finish in milliseconds.
const SMOKE: [&str; 6] = [
    "table1",
    "x9",
    "listing3",
    "issuecost",
    "dbreports",
    "abl_dram",
];

/// The `figures` CLI's supervision: one retry, no deadline.
const SUPERVISION: Supervision = Supervision {
    deadline: None,
    retries: 1,
};

/// One pass of the suite at `jobs` threads: seconds, and per experiment
/// its seconds and the FNV of its CSV (`None` for a failed experiment).
fn pass(experiments: &[Experiment], jobs: usize) -> (f64, Vec<Option<(f64, u64)>>) {
    memo::clear();
    runner::set_jobs(jobs);
    let (results, secs) =
        time(|| runner::run_experiments_supervised(experiments, true, SUPERVISION));
    runner::set_jobs(JOBS);
    let figs = results
        .iter()
        .map(|r| {
            r.as_ref()
                .ok()
                .map(|t| (t.seconds, fnv(t.fig.render_csv().as_bytes())))
        })
        .collect();
    (secs, figs)
}

pub fn run(ctx: &mut Ctx) {
    let smoke = ctx.smoke;
    let experiments: Vec<Experiment> = EXPERIMENTS
        .iter()
        .filter(|(id, _)| !smoke || SMOKE.contains(id))
        .copied()
        .collect();
    let build = || {
        memo::clear();
        runner::set_jobs(JOBS);
        experiments.clone()
    };
    let spans = ctx.spans.clone();
    let mut exp_seconds: Vec<Vec<f64>> = vec![Vec::new(); experiments.len()];
    let check = |ctx: &mut Ctx, figs: &[Option<(f64, u64)>]| {
        for ((id, _), fig) in experiments.iter().zip(figs) {
            let want = golden::FIGURES.iter().find(|g| g.0 == *id).map(|g| g.1);
            let got = fig.map(|f| f.1);
            ctx.tally.op(got.is_some() && got == want, || {
                let hex = |v: Option<u64>| v.map_or("none".to_owned(), |v| format!("{v:#x}"));
                format!("{id}: CSV fingerprint {}, expected {}", hex(got), hex(want))
            });
        }
    };
    let (_, wall) = ctx.measure(build, |ctx, experiments, traced| {
        let (secs, figs) = match (&spans, traced) {
            (Some(s), true) => s.time("sample.traced", || pass(experiments, JOBS)).0,
            _ => pass(experiments, JOBS),
        };
        check(ctx, &figs);
        for (all, fig) in exp_seconds.iter_mut().zip(&figs) {
            all.extend(fig.map(|f| f.0));
        }
        secs
    });
    push_memo_counts(&mut ctx.metrics);
    let Some(spans) = spans else { return };
    for ((id, _), secs) in experiments.iter().zip(&exp_seconds) {
        ctx.metrics
            .push(format!("bench.exp_s.{id}"), median(secs), "s");
    }
    let (serial, figs) = spans.time("bench.serial_pass", || pass(&experiments, 1)).0;
    check(ctx, &figs);
    ctx.metrics.push("bench.serial_s", serial, "s");
    ctx.metrics.push("bench.par_speedup", serial / wall, "x");
    let (subjects, synth) = time(advisor::subjects);
    split_materialized(ctx, &subjects, synth);
}
