//! The parallel experiment runner behind `figures --jobs N`.
//!
//! Two levels of parallelism share one [`simcore::par`] thread budget:
//! independent experiments run concurrently, and inside each experiment
//! the sweep loops fan their points out with [`sweep`]. Results are
//! collected in input order at both levels, so the rendered text, CSV and
//! JSON are byte-identical to a `--jobs 1` run.

use crate::FigureResult;

/// Experiment-level telemetry: how many figures were regenerated and how
/// long each took end to end (sweep fan-out included).
mod probes {
    use simcore::telemetry::Metric;

    pub(super) static EXPERIMENTS: Metric = Metric::counter("bench.experiments");
    pub(super) static EXPERIMENT: Metric = Metric::span("bench.experiment");
}

/// An experiment id paired with the function regenerating it.
pub type Experiment = (&'static str, fn(bool) -> FigureResult);

/// Set the total thread budget (experiments + sweep points combined).
pub fn set_jobs(jobs: usize) {
    simcore::par::set_parallelism(jobs);
}

/// The configured thread budget.
pub fn jobs() -> usize {
    simcore::par::parallelism()
}

/// The default for `--jobs`: the machine's available parallelism.
pub fn default_jobs() -> usize {
    simcore::par::available_parallelism()
}

/// Evaluate `f` over `0..n` sweep points, in parallel when the budget
/// allows, returning results in input order.
pub fn sweep<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    simcore::par::map_indexed(n, f)
}

/// Evaluate `f` over a `rows x cols` grid as `rows * cols` individually
/// schedulable jobs on the shared pool, regrouped row-major so
/// `out[r][c] == f(r, c)`.
///
/// This is the sub-experiment sharding primitive: an experiment that
/// replays a (mode x parameter) matrix submits every replay as its own
/// job instead of one fused job per parameter point, so a single
/// expensive cell can no longer serialize a whole row and memo-cache
/// derivations pipeline behind their baseline recordings (whichever job
/// needs a baseline first records it; first insert wins, both sides are
/// deterministic and identical).
pub fn sweep_grid<T, F>(rows: usize, cols: usize, f: F) -> Vec<Vec<T>>
where
    T: Send,
    F: Fn(usize, usize) -> T + Sync,
{
    let flat = simcore::par::map_indexed(rows * cols, |i| f(i / cols, i % cols));
    let mut it = flat.into_iter();
    (0..rows).map(|_| it.by_ref().take(cols).collect()).collect()
}

/// One regenerated experiment plus its wall-clock cost.
#[derive(Debug)]
pub struct TimedFigure {
    /// The experiment id (`fig3a`, `table2`, ...).
    pub id: &'static str,
    /// The regenerated figure.
    pub fig: FigureResult,
    /// Wall-clock seconds this experiment took (its sweep points may have
    /// run on several pool threads; this is elapsed time, not CPU time).
    pub seconds: f64,
}

/// One experiment the supervised runner could not regenerate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExperimentFailure {
    /// The experiment id (`fig3a`, `table2`, ...).
    pub id: &'static str,
    /// Why its result is missing.
    pub failure: simcore::par::JobFailure,
}

impl std::fmt::Display for ExperimentFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.id, self.failure)
    }
}

/// Run `experiments` (id, regenerate-function) pairs under the current
/// jobs budget, fail-soft: each experiment runs under
/// [`simcore::par::supervised_map`], so a panicking or over-deadline
/// experiment yields a typed [`ExperimentFailure`] instead of tearing down
/// the whole regeneration. Results keep input order; the healthy
/// experiments are unaffected (same figures, byte for byte).
pub fn run_experiments_supervised(
    experiments: &[Experiment],
    quick: bool,
    sup: simcore::par::Supervision,
) -> Vec<Result<TimedFigure, ExperimentFailure>> {
    let results = simcore::par::supervised_map(experiments.len(), sup, |i, _attempt| {
        let (id, f) = experiments[i];
        probes::EXPERIMENTS.inc();
        let _timed = simcore::telemetry::span(&probes::EXPERIMENT);
        let start = std::time::Instant::now();
        let fig = f(quick);
        TimedFigure { id, fig, seconds: start.elapsed().as_secs_f64() }
    });
    results
        .into_iter()
        .enumerate()
        .map(|(i, r)| r.map_err(|failure| ExperimentFailure { id: experiments[i].0, failure }))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn supervised_runner_surfaces_failures_without_poisoning_the_rest() {
        use simcore::par::{JobFailure, Supervision};
        fn ok(_q: bool) -> FigureResult {
            FigureResult::new("ok", "OK", "x", "y")
        }
        fn dies(_q: bool) -> FigureResult {
            panic!("experiment is broken")
        }
        let exps: &[Experiment] = &[("ok", ok), ("dies", dies), ("ok2", ok)];
        let out =
            run_experiments_supervised(exps, true, Supervision { deadline: None, retries: 0 });
        assert_eq!(out.len(), 3);
        let first = out[0].as_ref().expect("healthy experiment");
        assert_eq!(first.id, "ok");
        assert_eq!(first.fig.id, "ok");
        assert!(first.seconds >= 0.0);
        match &out[1] {
            Err(ExperimentFailure { id: "dies", failure: JobFailure::Panicked { message, .. } }) => {
                assert!(message.contains("experiment is broken"), "{message}");
            }
            other => panic!("broken experiment yielded {other:?}"),
        }
        assert_eq!(out[2].as_ref().map(|t| t.id), Ok("ok2"));
        assert!(out[1].as_ref().unwrap_err().to_string().contains("dies:"));
    }

    #[test]
    fn sweep_grid_regroups_row_major() {
        let g = sweep_grid(3, 4, |r, c| r * 10 + c);
        assert_eq!(g.len(), 3);
        for (r, row) in g.iter().enumerate() {
            assert_eq!(row, &(0..4).map(|c| r * 10 + c).collect::<Vec<_>>());
        }
        assert_eq!(sweep_grid(0, 4, |r, c| r + c), Vec::<Vec<usize>>::new());
        assert_eq!(sweep_grid(2, 0, |r, c| r + c), vec![Vec::<usize>::new(); 2]);
    }
}
