//! Closed-loop pre-store policy search (`dirtbuster --auto`).
//!
//! The paper's DirtBuster is an offline advisor: it ranks write-intensive
//! sites and a human places the pre-stores. The per-site attribution in
//! [`machine::RunStats::sites`] closes that loop mechanically: treat the
//! per-site plan as the search space — each attributed site gets one of
//! `{clean, demote, skip, none}` — and hill-climb over it.
//!
//! One iteration ("generation") proposes every single-site flip of the
//! current plan, rewrites the base trace through
//! [`crate::apply_plan`], replays each candidate (the caller's `eval`
//! closure, typically memoized), scores the replays with an
//! [`Objective`], and greedily accepts the best strictly-improving flip.
//! Candidate evaluations fan out through [`simcore::par`]; flips are
//! proposed in the order of the *current* run's attribution (most
//! expensive site first), so the search follows the attribution deltas.
//! When no flip improves, an epsilon-random exploratory flip (seeded,
//! [`simcore::rng::SimRng::stream`]) may restart the climb; the best plan
//! ever seen is what the search returns.
//!
//! Determinism: for a fixed seed and base trace the search visits the
//! same candidates, draws the same random restarts and returns the same
//! plan at any [`simcore::par::parallelism`] level — candidate results
//! are collected in input order and ties accept the earliest candidate.
//! The only nondeterministic control is the optional wall-clock budget,
//! which trades reproducibility for a hard time bound.

use crate::apply::PrestorePlan;
use crate::objective::Objective;
use crate::Recommendation;
use machine::RunStats;
use simcore::rng::SimRng;
use simcore::{FuncId, FuncRegistry};
use std::cmp::Reverse;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The per-site choices the search flips between.
pub const CHOICES: [Recommendation; 4] = [
    Recommendation::NoPrestore,
    Recommendation::Clean,
    Recommendation::Demote,
    Recommendation::Skip,
];

/// Evaluate one candidate plan: rewrite the base trace and replay it,
/// returning `None` if the replay fails (the candidate is then skipped).
pub type EvalFn<'a> = dyn Fn(&PrestorePlan) -> Option<Arc<RunStats>> + Sync + 'a;

/// Tunables of the search loop.
#[derive(Debug, Clone)]
pub struct SearchConfig {
    /// Maximum generations (`--auto-iters`).
    pub iters: usize,
    /// Optional wall-clock budget (`--auto-budget-secs`). Checked between
    /// generations; `None` (the default) keeps the search deterministic.
    pub budget: Option<Duration>,
    /// RNG seed for the epsilon-random restarts (`--seed`).
    pub seed: u64,
    /// Probability of taking a random exploratory flip when no
    /// single-site flip improves the current plan.
    pub epsilon: f64,
    /// At most this many of the baseline's top attributed sites form the
    /// search space.
    pub max_sites: usize,
    /// What to minimize.
    pub objective: Objective,
}

impl Default for SearchConfig {
    fn default() -> Self {
        Self {
            iters: 16,
            budget: None,
            seed: 42,
            epsilon: 0.2,
            max_sites: 8,
            objective: Objective::MediaBytes,
        }
    }
}

/// What one generation did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StepAction {
    /// Generation 0: the empty plan establishing the baseline score.
    Baseline,
    /// The best strictly-improving flip was accepted.
    Accepted {
        /// Flipped site.
        func: FuncId,
        /// Its new choice.
        op: Recommendation,
    },
    /// No flip improved; a seeded random flip was taken to escape the
    /// local optimum (the current plan may get *worse*; the best-ever
    /// plan is unaffected).
    Explored {
        /// Flipped site.
        func: FuncId,
        /// Its new choice.
        op: Recommendation,
    },
    /// No flip improved and the epsilon draw declined to explore: the
    /// search converged.
    Converged,
}

/// One line of the convergence trace.
#[derive(Debug, Clone)]
pub struct SearchStep {
    /// Generation number (0 = baseline).
    pub generation: usize,
    /// Candidate evaluations this generation (memoized repeats included).
    pub evaluated: usize,
    /// What happened.
    pub action: StepAction,
    /// Objective score of the *current* plan after this generation.
    pub score: f64,
    /// Attributed media bytes of the current plan's replay.
    pub media_bytes: u64,
    /// Attributed stall cycles of the current plan's replay.
    pub stall_cycles: u64,
}

/// Result of a search run.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// The search space: the baseline's top attributed sites, ranked.
    pub sites: Vec<FuncId>,
    /// The convergence trace, one entry per generation.
    pub steps: Vec<SearchStep>,
    /// The best plan found.
    pub plan: PrestorePlan,
    /// Its objective score.
    pub score: f64,
    /// Its replay statistics.
    pub stats: Arc<RunStats>,
    /// The empty-plan baseline replay.
    pub baseline: Arc<RunStats>,
    /// Total candidate evaluations (including the baseline).
    pub evaluations: usize,
    /// Whether the search stopped because no improving flip remained (as
    /// opposed to exhausting the generation or wall-clock budget).
    pub converged: bool,
}

/// Rank `sites` by the attribution of `stats`: media bytes, then stall
/// cycles, then id, descending — sites that currently hurt most are
/// flipped first.
fn rank_sites(sites: &[FuncId], stats: &RunStats) -> Vec<FuncId> {
    let mut ranked = sites.to_vec();
    ranked.sort_by_key(|&f| {
        let s = stats.site(f).copied().unwrap_or_default();
        (Reverse(s.media_bytes), Reverse(s.total_stall_cycles()), f)
    });
    ranked
}

/// Run the hill-climb. Returns `None` only if the baseline (empty-plan)
/// evaluation itself fails; failing *candidates* are skipped.
pub fn search(cfg: &SearchConfig, eval: &EvalFn<'_>) -> Option<SearchOutcome> {
    let start = Instant::now();
    let mut rng = SimRng::stream(cfg.seed, 0);

    let baseline = eval(&PrestorePlan::empty())?;
    let baseline_score = cfg.objective.score(&baseline);
    // The search space: the baseline's top attributed sites. A site that
    // only starts to matter under some candidate plan is still covered —
    // every plan is a combination over these sites, and the per-generation
    // ordering re-ranks them by the *current* run's attribution.
    let sites: Vec<FuncId> =
        baseline.site_scores().iter().map(|s| s.func).take(cfg.max_sites).collect();

    let mut current_plan = PrestorePlan::empty();
    let mut current = Arc::clone(&baseline);
    let mut current_score = baseline_score;
    let mut best_plan = current_plan.clone();
    let mut best = Arc::clone(&current);
    let mut best_score = current_score;
    let mut evaluations = 1usize;
    let mut converged = false;
    let mut steps = vec![SearchStep {
        generation: 0,
        evaluated: 1,
        action: StepAction::Baseline,
        score: current_score,
        media_bytes: baseline.attributed_media_bytes(),
        stall_cycles: baseline.attributed_stall_cycles(),
    }];

    'generations: for generation in 1..=cfg.iters {
        if sites.is_empty() {
            converged = true;
            break;
        }
        if let Some(budget) = cfg.budget {
            if start.elapsed() >= budget {
                break;
            }
        }
        // Propose every single-site flip, most expensive site first.
        let candidates: Vec<(FuncId, Recommendation)> = rank_sites(&sites, &current)
            .into_iter()
            .flat_map(|f| {
                let cur = current_plan.op_for(f).unwrap_or(Recommendation::NoPrestore);
                CHOICES.iter().copied().filter(move |&c| c != cur).map(move |c| (f, c))
            })
            .collect();
        let plans: Vec<PrestorePlan> = candidates
            .iter()
            .map(|&(f, op)| {
                let mut p = current_plan.clone();
                p.force(f, op);
                p
            })
            .collect();
        // Fan the replays out; results come back in input order, so the
        // decision below is identical at any parallelism.
        let results: Vec<Option<(f64, Arc<RunStats>)>> =
            simcore::par::map_indexed(plans.len(), |i| {
                eval(&plans[i]).map(|s| (cfg.objective.score(&s), s))
            });
        evaluations += candidates.len();

        // Greedy best-gain: strictly best score, earliest candidate wins
        // ties (the earliest is the flip of the currently most expensive
        // site — the attribution-delta ordering).
        let mut best_idx: Option<usize> = None;
        for (i, r) in results.iter().enumerate() {
            if let Some((score, _)) = r {
                if best_idx.is_none_or(|j| {
                    *score < results[j].as_ref().expect("best_idx only holds Some").0
                }) {
                    best_idx = Some(i);
                }
            }
        }

        let improving = best_idx
            .filter(|&i| results[i].as_ref().expect("filtered Some").0 < current_score);
        let (idx, action) = match improving {
            Some(i) => {
                let (f, op) = candidates[i];
                (i, StepAction::Accepted { func: f, op })
            }
            None => {
                // Epsilon-random restart: a seeded draw decides whether to
                // keep climbing from a random neighbour or stop.
                let viable: Vec<usize> =
                    (0..results.len()).filter(|&i| results[i].is_some()).collect();
                if viable.is_empty() || !rng.gen_bool(cfg.epsilon) {
                    converged = true;
                    steps.push(SearchStep {
                        generation,
                        evaluated: candidates.len(),
                        action: StepAction::Converged,
                        score: current_score,
                        media_bytes: current.attributed_media_bytes(),
                        stall_cycles: current.attributed_stall_cycles(),
                    });
                    break 'generations;
                }
                let i = viable[rng.gen_range(viable.len() as u64) as usize];
                let (f, op) = candidates[i];
                (i, StepAction::Explored { func: f, op })
            }
        };

        let (score, stats) = results[idx].clone().expect("chosen candidate evaluated");
        current_plan = plans[idx].clone();
        current_score = score;
        current = stats;
        if current_score < best_score {
            best_plan = current_plan.clone();
            best_score = current_score;
            best = Arc::clone(&current);
        }
        steps.push(SearchStep {
            generation,
            evaluated: candidates.len(),
            action,
            score: current_score,
            media_bytes: current.attributed_media_bytes(),
            stall_cycles: current.attributed_stall_cycles(),
        });
    }

    Some(SearchOutcome {
        sites,
        steps,
        plan: best_plan,
        score: best_score,
        stats: best,
        baseline,
        evaluations,
        converged,
    })
}

/// Describe one plan entry, e.g. `clean @ psinv (mg.f90 line 614)`.
fn describe_entry(func: FuncId, op: Recommendation, reg: &FuncRegistry) -> String {
    format!("{} @ {} ({})", op.name(), reg.name(func), reg.location(func))
}

/// Render a plan as a deterministic one-line summary.
pub fn render_plan(plan: &PrestorePlan, reg: &FuncRegistry) -> String {
    if plan.is_empty() {
        return "(empty plan — no pre-stores)".to_owned();
    }
    plan.iter_sorted()
        .iter()
        .map(|&(f, op)| describe_entry(f, op, reg))
        .collect::<Vec<_>>()
        .join("; ")
}

/// Render the convergence trace. Deterministic for a fixed seed and base
/// trace: no timings, no hash-order iteration — this exact text is what
/// the CI smoke diff compares across feature configurations and `--jobs`
/// levels.
pub fn render_convergence(
    outcome: &SearchOutcome,
    cfg: &SearchConfig,
    reg: &FuncRegistry,
) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "closed-loop search: objective = {}, seed {}, {} site(s), {} generation cap",
        cfg.objective.describe(),
        cfg.seed,
        outcome.sites.len(),
        cfg.iters,
    );
    let _ = writeln!(
        out,
        "  {:>4} {:>6}  {:<44} {:>14} {:>14} {:>12}",
        "gen", "evals", "action", "score", "media B", "stall cyc"
    );
    for step in &outcome.steps {
        let action = match step.action {
            StepAction::Baseline => "baseline (empty plan)".to_owned(),
            StepAction::Accepted { func, op } => {
                format!("+ {}", describe_entry(func, op, reg))
            }
            StepAction::Explored { func, op } => {
                format!("? {} [explore]", describe_entry(func, op, reg))
            }
            StepAction::Converged => "converged (no improving flip)".to_owned(),
        };
        let _ = writeln!(
            out,
            "  {:>4} {:>6}  {:<44} {:>14} {:>14} {:>12}",
            step.generation,
            step.evaluated,
            action,
            cfg.objective.fmt_score(step.score),
            step.media_bytes,
            step.stall_cycles,
        );
    }
    let _ = writeln!(
        out,
        "{} after {} generation(s), {} evaluation(s)",
        if outcome.converged { "converged" } else { "budget exhausted" },
        outcome.steps.last().map_or(0, |s| s.generation),
        outcome.evaluations,
    );
    let _ = writeln!(
        out,
        "best plan: {}  [score {}]",
        render_plan(&outcome.plan, reg),
        cfg.objective.fmt_score(outcome.score),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use machine::SiteCounters;

    /// A synthetic evaluator: the "machine" scores a plan by a fixed
    /// table of per-site media costs — cheap, exact, and enough to drive
    /// the full search control flow without replaying traces.
    ///
    /// Site 1: clean=10 skip=40 demote=90 none=100 (clean is best).
    /// Site 2: skip=5 others as none=50 (skip is best).
    /// Optimum: {1: clean, 2: skip} with media 15.
    fn table_eval(plan: &PrestorePlan) -> Option<Arc<RunStats>> {
        let cost = |f: u16, none: u64, clean: u64, demote: u64, skip: u64| -> u64 {
            match plan.op_for(FuncId(f)) {
                None | Some(Recommendation::NoPrestore) => none,
                Some(Recommendation::Clean) => clean,
                Some(Recommendation::Demote) => demote,
                Some(Recommendation::Skip) => skip,
            }
        };
        let m1 = cost(1, 100, 10, 90, 40);
        let m2 = cost(2, 50, 50, 50, 5);
        Some(Arc::new(RunStats {
            cycles: 1,
            cpu_cycles: 1,
            media_busy_cycles: 0,
            cores: Vec::new(),
            l1: Default::default(),
            llc: Default::default(),
            device: Default::default(),
            timeseries: Vec::new(),
            timeseries_window_cycles: 0,
            request_latency: Vec::new(),
            sites: vec![
                (FuncId(1), SiteCounters { media_bytes: m1, ..Default::default() }),
                (FuncId(2), SiteCounters { media_bytes: m2, ..Default::default() }),
            ],
        }))
    }

    fn registry() -> FuncRegistry {
        let mut reg = FuncRegistry::new();
        // FuncId(0) placeholder so ids line up with the table above.
        reg.register("pad", "t.rs", 1);
        reg.register("alpha", "t.rs", 10);
        reg.register("beta", "t.rs", 20);
        reg
    }

    #[test]
    fn greedy_climb_finds_the_table_optimum() {
        let cfg = SearchConfig { epsilon: 0.0, ..Default::default() };
        let out = search(&cfg, &table_eval).expect("baseline evaluates");
        assert_eq!(out.plan.op_for(FuncId(1)), Some(Recommendation::Clean));
        assert_eq!(out.plan.op_for(FuncId(2)), Some(Recommendation::Skip));
        assert_eq!(out.score, 15.0);
        assert!(out.converged, "epsilon 0 must stop at the local optimum");
        // Site 1 (media 100) outranks site 2 (media 50), so the first
        // accepted flip is site 1's clean.
        assert_eq!(out.sites, vec![FuncId(1), FuncId(2)]);
        match out.steps[1].action {
            StepAction::Accepted { func, op } => {
                assert_eq!(func, FuncId(1));
                assert_eq!(op, Recommendation::Clean);
            }
            ref other => panic!("expected an accepted flip, got {other:?}"),
        }
        // Scores on accepted steps decrease monotonically.
        let accepted: Vec<f64> = out
            .steps
            .iter()
            .filter(|s| matches!(s.action, StepAction::Baseline | StepAction::Accepted { .. }))
            .map(|s| s.score)
            .collect();
        assert!(accepted.windows(2).all(|w| w[1] < w[0]), "{accepted:?}");
    }

    #[test]
    fn convergence_trace_is_reproducible_and_complete() {
        let cfg = SearchConfig { epsilon: 0.5, seed: 7, ..Default::default() };
        let reg = registry();
        let a = search(&cfg, &table_eval).expect("baseline evaluates");
        let b = search(&cfg, &table_eval).expect("baseline evaluates");
        let ra = render_convergence(&a, &cfg, &reg);
        let rb = render_convergence(&b, &cfg, &reg);
        assert_eq!(ra, rb, "same seed, same trace");
        for needle in ["closed-loop search", "baseline (empty plan)", "best plan:", "alpha"] {
            assert!(ra.contains(needle), "missing {needle:?} in:\n{ra}");
        }
    }

    #[test]
    fn exploration_never_loses_the_best_plan() {
        // epsilon 1.0: after converging to the optimum the search always
        // takes random flips — the returned best must still be optimal.
        let cfg = SearchConfig { epsilon: 1.0, iters: 12, seed: 3, ..Default::default() };
        let out = search(&cfg, &table_eval).expect("baseline evaluates");
        assert_eq!(out.score, 15.0, "exploration must not regress the reported best");
        assert!(!out.converged, "epsilon 1.0 never declines to explore");
        assert_eq!(out.steps.last().expect("steps").generation, cfg.iters);
        assert!(out.steps.iter().any(|s| matches!(s.action, StepAction::Explored { .. })));
    }

    #[test]
    fn different_seeds_may_differ_but_stay_optimal_here() {
        for seed in 0..8 {
            let cfg = SearchConfig { epsilon: 0.3, seed, ..Default::default() };
            let out = search(&cfg, &table_eval).expect("baseline evaluates");
            assert_eq!(out.score, 15.0, "seed {seed}");
        }
    }

    #[test]
    fn empty_search_space_converges_immediately() {
        // An eval with no attributed sites: nothing to flip.
        let eval = |_: &PrestorePlan| -> Option<Arc<RunStats>> {
            Some(Arc::new(RunStats {
                cycles: 1,
                cpu_cycles: 1,
                media_busy_cycles: 0,
                cores: Vec::new(),
                l1: Default::default(),
                llc: Default::default(),
                device: Default::default(),
                timeseries: Vec::new(),
                timeseries_window_cycles: 0,
                request_latency: Vec::new(),
                sites: Vec::new(),
            }))
        };
        let out = search(&SearchConfig::default(), &eval).expect("baseline evaluates");
        assert!(out.converged);
        assert!(out.plan.is_empty());
        assert_eq!(out.steps.len(), 1, "baseline step only");
        assert_eq!(out.evaluations, 1);
    }

    #[test]
    fn failing_baseline_returns_none() {
        let eval = |_: &PrestorePlan| -> Option<Arc<RunStats>> { None };
        assert!(search(&SearchConfig::default(), &eval).is_none());
    }

    #[test]
    fn zero_budget_stops_after_the_baseline() {
        let cfg = SearchConfig { budget: Some(Duration::ZERO), ..Default::default() };
        let out = search(&cfg, &table_eval).expect("baseline evaluates");
        assert_eq!(out.steps.len(), 1, "no generation may start on a spent budget");
        assert!(!out.converged);
        assert_eq!(out.score, 150.0, "best plan is the baseline");
    }

    /// End-to-end on the real machine model: a workload whose hand
    /// recommendation (clean) is actively harmful — the Listing-3 pitfall
    /// of cleaning lines that get rewritten — must not be picked by the
    /// search, which may always keep the empty plan.
    #[test]
    fn search_avoids_the_listing3_pitfall_on_a_real_replay() {
        let mut reg = FuncRegistry::new();
        let f = reg.register("hot_loop", "listing3.c", 10);
        let mut t = simcore::Tracer::new();
        {
            let mut g = t.enter(f);
            // 10 passes over a 64 KB working set: it fits in the LLC, so
            // the unpatched run coalesces all rewrites into one final
            // writeback per line — but it overflows the device's 16 KB
            // open-block buffer, so a clean after every write pays media
            // traffic on every pass.
            for _pass in 0..10 {
                for i in 0..1024u64 {
                    g.write(i * 64, 64);
                    g.compute(5);
                }
            }
        }
        let traces = simcore::TraceSet::new(vec![t.finish()]);
        let mcfg = machine::MachineConfig::machine_a();
        let eval = |plan: &PrestorePlan| -> Option<Arc<RunStats>> {
            let patched = crate::apply_plan(&traces, plan);
            machine::try_simulate(&mcfg, &patched).ok().map(Arc::new)
        };
        let cfg = SearchConfig { epsilon: 0.0, iters: 6, ..Default::default() };
        let out = search(&cfg, &eval).expect("replay succeeds");
        // Cleaning the hot line after every write floods the device.
        let mut clean_plan = PrestorePlan::empty();
        clean_plan.force(f, Recommendation::Clean);
        let clean_stats = eval(&clean_plan).expect("replay succeeds");
        assert!(
            out.stats.attributed_media_bytes() <= out.baseline.attributed_media_bytes(),
            "auto must match or beat the baseline"
        );
        assert!(
            out.stats.attributed_media_bytes() < clean_stats.attributed_media_bytes(),
            "auto ({}) must beat the harmful hand clean ({})",
            out.stats.attributed_media_bytes(),
            clean_stats.attributed_media_bytes()
        );
    }
}
