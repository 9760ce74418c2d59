//! Golden test for the Chrome Trace Event exporter: a real experiment run
//! recorded through the [`ps_bench::tracefmt::TraceRecorder`] must render
//! a document that (a) parses as JSON with the Chrome Trace Event shape,
//! (b) is well-nested per thread lane, and (c) carries exactly the spans
//! the telemetry registry counted.

use ps_bench::jsonv::Json;
use ps_bench::tracefmt::TraceRecorder;
use ps_bench::{experiments, memo};

#[test]
fn trace_export_is_valid_nested_and_complete() {
    memo::clear();
    simcore::telemetry::reset();
    let recorder = TraceRecorder::new();
    simcore::telemetry::set_span_observer(Some(Box::new(recorder.clone())));
    let _fig = experiments::listing3_pitfall(true);
    let snapshot = simcore::telemetry::snapshot();
    simcore::telemetry::set_span_observer(None);

    // (a) The document parses and has the Chrome Trace Event shape.
    let text = recorder.render_chrome_trace();
    let doc = Json::parse(&text).expect("trace-out must be valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("document must carry a traceEvents array");
    let (meta, spans): (Vec<&Json>, Vec<&Json>) = events
        .iter()
        .partition(|e| e.get("ph").and_then(Json::as_str) == Some("M"));
    assert_eq!(spans.len(), recorder.len(), "every buffered span must be exported");
    assert_eq!(
        meta.iter().filter(|e| e.get("name").and_then(Json::as_str) == Some("process_name")).count(),
        1,
        "exactly one process_name metadata record"
    );
    let lanes: std::collections::BTreeSet<u64> =
        recorder.events().iter().map(|e| e.lane).collect();
    assert_eq!(
        meta.iter().filter(|e| e.get("name").and_then(Json::as_str) == Some("thread_name")).count(),
        lanes.len(),
        "one thread_name metadata record per lane"
    );
    let mut last_ts = f64::NEG_INFINITY;
    for e in &spans {
        assert_eq!(e.get("ph").and_then(Json::as_str), Some("X"), "complete events only");
        assert!(e.get("name").and_then(Json::as_str).is_some(), "event without name: {e:?}");
        for field in ["ts", "dur", "pid", "tid"] {
            let v = e.get(field).and_then(Json::as_f64);
            assert!(v.is_some_and(|v| v >= 0.0), "event field {field} missing/negative: {e:?}");
        }
        let ts = e.get("ts").and_then(Json::as_f64).unwrap_or(0.0);
        assert!(ts >= last_ts, "span records must be timestamp-sorted");
        last_ts = ts;
    }

    // (b) Spans close in RAII order, so per lane the intervals must be
    // well-nested: each span is either disjoint from or fully contained
    // in the one below it on the stack. Checked on the raw nanosecond
    // records (the JSON rounds to microsecond fractions).
    let mut by_lane: std::collections::BTreeMap<u64, Vec<_>> = std::collections::BTreeMap::new();
    for e in recorder.events() {
        by_lane.entry(e.lane).or_default().push(e);
    }
    for (lane, mut spans) in by_lane {
        spans.sort_by_key(|e| (e.start_ns, std::cmp::Reverse(e.dur_ns)));
        let mut stack: Vec<u64> = Vec::new();
        for e in spans {
            while stack.last().is_some_and(|&end| end <= e.start_ns) {
                stack.pop();
            }
            let end = e.start_ns + e.dur_ns;
            if let Some(&parent_end) = stack.last() {
                assert!(
                    end <= parent_end,
                    "lane {lane}: span {} [{}, {end}) overlaps its parent's end {parent_end}",
                    e.name,
                    e.start_ns
                );
            }
            stack.push(end);
        }
    }

    // (c) The exported span set matches the registry: every span-kind
    // metric driven by a span guard must appear in the trace exactly as
    // often as its snapshot count. (Metrics fed by raw `record_ns`, like
    // the pool's queue-wait aggregate, have no per-event record and are
    // exempt.)
    for name in ["engine.replay", "bench.experiment", "runner.job_run"] {
        let counted = snapshot
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.count as usize)
            .unwrap_or(0);
        assert_eq!(
            recorder.count_named(name),
            counted,
            "trace span count for {name} diverges from the --metrics snapshot"
        );
    }
    assert!(recorder.count_named("engine.replay") > 0, "no replay spans recorded");

    simcore::telemetry::reset();
    memo::clear();
}
