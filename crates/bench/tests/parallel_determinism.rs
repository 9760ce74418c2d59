//! The load-bearing property of `figures --jobs N`: the rendered outputs
//! are byte-identical no matter how many worker threads run the sweeps,
//! and no matter whether the memo cache served a point from a derived
//! trace or a fresh recording. The experiments run through the supervised
//! runner `figures` uses, and every one must succeed.

use ps_bench::{experiments, memo, runner, FigureResult};
use simcore::par::Supervision;

type Experiment = (&'static str, fn(bool) -> FigureResult);

/// A fast-but-representative subset: a multi-machine sweep
/// (`fig5`), a multi-mode KV figure (`fig13`), the x9 grid, and a
/// listing1 experiment that exercises clean/skip derivation.
const SUBSET: &[Experiment] = &[
    ("fig5", experiments::fig5),
    ("fig13", experiments::fig13),
    ("x9", experiments::x9_latency),
    ("skipvariant", experiments::skip_variant),
];

fn render_all(jobs: usize) -> Vec<(String, String)> {
    memo::clear();
    runner::set_jobs(jobs);
    runner::run_experiments_supervised(SUBSET, true, Supervision::default())
        .into_iter()
        .map(|r| {
            let t = r.unwrap_or_else(|f| panic!("{f}"));
            (t.fig.render_csv(), t.fig.render_json())
        })
        .collect()
}

#[test]
fn jobs_8_is_byte_identical_to_jobs_1() {
    let serial = render_all(1);
    let parallel = render_all(8);
    assert_eq!(serial.len(), parallel.len());
    for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
        assert_eq!(s.0, p.0, "CSV for {} differs across job counts", SUBSET[i].0);
        assert_eq!(s.1, p.1, "JSON for {} differs across job counts", SUBSET[i].0);
    }
    memo::clear();
}
