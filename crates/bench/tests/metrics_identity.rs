//! Telemetry must observe, never perturb: regenerating an experiment with
//! the metrics registry active — counters accumulating, a `SpanObserver`
//! subscribed, snapshots and resets interleaved — must produce CSV and
//! JSON output byte-identical to a plain run. This is what makes
//! `figures --metrics` safe to leave on in CI.

use ps_bench::{experiments, memo};
use std::sync::atomic::{AtomicU64, Ordering};

static SPANS_SEEN: AtomicU64 = AtomicU64::new(0);

struct CountSpans;

impl simcore::telemetry::SpanObserver for CountSpans {
    fn on_span(&self, _span: &simcore::telemetry::SpanRecord) {
        SPANS_SEEN.fetch_add(1, Ordering::Relaxed);
    }
}

#[test]
fn telemetry_does_not_perturb_experiment_outputs() {
    // Plain pass: cold memo cache, quiet registry.
    memo::clear();
    simcore::telemetry::reset();
    let plain = experiments::listing3_pitfall(true);
    let (plain_csv, plain_json) = (plain.render_csv(), plain.render_json());

    // Instrumented pass: same experiment, cold cache again, but with the
    // observer hook installed and snapshot/reset exercised around it.
    memo::clear();
    simcore::telemetry::reset();
    simcore::telemetry::set_span_observer(Some(Box::new(CountSpans)));
    let instrumented = experiments::listing3_pitfall(true);
    let snapshot = simcore::telemetry::snapshot();
    let lookups = memo::counters().lookups;
    simcore::telemetry::set_span_observer(None);

    assert_eq!(
        plain_csv,
        instrumented.render_csv(),
        "CSV output changed with telemetry active"
    );
    assert_eq!(
        plain_json,
        instrumented.render_json(),
        "JSON output changed with telemetry active"
    );

    // The pass replayed traces, so the engine probes must have fired and
    // the observer must have seen the replay spans.
    let value_of =
        |name: &str| snapshot.iter().find(|m| m.name == name).map(|m| m.value).unwrap_or(0);
    assert!(value_of("engine.replays") > 0, "no engine replays recorded: {snapshot:?}");
    assert!(lookups > 0, "no memo lookups recorded");
    assert!(SPANS_SEEN.load(Ordering::Relaxed) > 0, "the span observer never fired");

    simcore::telemetry::reset();
    memo::clear();
}
