//! Chrome Trace Event export for the telemetry span stream.
//!
//! [`TraceRecorder`] is a [`simcore::telemetry::SpanObserver`] that buffers
//! every completed span and renders the buffer as a Chrome Trace Event
//! JSON document — the format `chrome://tracing` and
//! [Perfetto](https://ui.perfetto.dev) load directly. Each span becomes a
//! complete (`"ph": "X"`) event on the thread lane it ran on, so an
//! experiment run opens as a swim-lane timeline: experiment spans on the
//! outer level, replay and job spans nested inside them.

use simcore::telemetry::{SpanObserver, SpanRecord};
use std::sync::{Arc, Mutex};

/// One buffered span, ready for export.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Span metric name (`"engine.replay"`, `"bench.experiment"`, ...).
    pub name: &'static str,
    /// Start offset in nanoseconds since the process's trace epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Dense thread lane (the Chrome `tid`).
    pub lane: u64,
}

/// A span observer that buffers every completed span for Chrome-trace
/// export. Cheap to clone (the buffer is shared), so one instance can be
/// both installed as the observer and kept by the caller for rendering.
#[derive(Debug, Clone, Default)]
pub struct TraceRecorder {
    events: Arc<Mutex<Vec<TraceEvent>>>,
}

impl TraceRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of spans buffered so far.
    pub fn len(&self) -> usize {
        self.events.lock().expect("trace buffer poisoned").len()
    }

    /// Whether no span has been observed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of buffered spans with the given metric name.
    pub fn count_named(&self, name: &str) -> usize {
        self.events.lock().expect("trace buffer poisoned").iter().filter(|e| e.name == name).count()
    }

    /// A snapshot of the buffered events (unordered — spans arrive in
    /// per-thread completion order, interleaved across threads).
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events.lock().expect("trace buffer poisoned").clone()
    }

    /// Render the buffer as a Chrome Trace Event JSON document.
    ///
    /// The document opens with `"M"` metadata records naming the process
    /// (`process_name`) and every thread lane (`thread_name`), so Perfetto
    /// shows labelled lanes instead of bare tids. The span records that
    /// follow are globally sorted by `(ts, -duration, lane, name)` — the
    /// timestamp-sorted order the format's consumers expect (Chrome's
    /// legacy viewer does not re-sort) — which is also deterministic for a
    /// given span set and puts parents before their children. Timestamps
    /// are microseconds (the format's unit) with nanosecond precision kept
    /// in the fraction.
    pub fn render_chrome_trace(&self) -> String {
        let mut events = self.events();
        events.sort_by(|a, b| {
            (a.start_ns, std::cmp::Reverse(a.dur_ns), a.lane, a.name)
                .cmp(&(b.start_ns, std::cmp::Reverse(b.dur_ns), b.lane, b.name))
        });
        let mut lanes: Vec<u64> = events.iter().map(|e| e.lane).collect();
        lanes.sort_unstable();
        lanes.dedup();
        let mut out = String::from("{\n  \"displayTimeUnit\": \"ns\",\n  \"traceEvents\": [");
        out.push_str(
            "\n    {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \
             \"args\": {\"name\": \"ps-bench\"}}",
        );
        for lane in lanes {
            out.push_str(&format!(
                ",\n    {{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \
                 \"tid\": {lane}, \"args\": {{\"name\": \"lane {lane}\"}}}}"
            ));
        }
        for e in &events {
            out.push_str(&format!(
                ",\n    {{\"name\": \"{}\", \"cat\": \"span\", \"ph\": \"X\", \
                 \"ts\": {:.3}, \"dur\": {:.3}, \"pid\": 1, \"tid\": {}}}",
                e.name,
                e.start_ns as f64 / 1e3,
                e.dur_ns as f64 / 1e3,
                e.lane
            ));
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

impl SpanObserver for TraceRecorder {
    fn on_span(&self, span: &SpanRecord) {
        self.events.lock().expect("trace buffer poisoned").push(TraceEvent {
            name: span.name,
            start_ns: span.start_ns,
            dur_ns: span.dur_ns,
            lane: span.lane,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jsonv::Json;

    fn push(rec: &TraceRecorder, name: &'static str, start_ns: u64, dur_ns: u64, lane: u64) {
        rec.on_span(&SpanRecord { name, start_ns, dur_ns, lane });
    }

    #[test]
    fn renders_valid_sorted_chrome_trace() {
        let rec = TraceRecorder::new();
        push(&rec, "inner", 1_500, 1_000, 0);
        push(&rec, "outer", 1_000, 5_000, 0);
        push(&rec, "other-lane", 0, 2_000, 1);
        assert_eq!(rec.len(), 3);
        assert_eq!(rec.count_named("outer"), 1);
        let doc = Json::parse(&rec.render_chrome_trace()).expect("valid JSON");
        let events = doc.get("traceEvents").and_then(|e| e.as_arr()).expect("traceEvents array");
        // 1 process_name + 2 thread_name metadata records, then 3 spans.
        assert_eq!(events.len(), 6);
        assert_eq!(events[0].get("name").and_then(Json::as_str), Some("process_name"));
        assert_eq!(
            events[0].get("args").and_then(|a| a.get("name")).and_then(Json::as_str),
            Some("ps-bench")
        );
        for (meta, lane) in [(&events[1], 0.0), (&events[2], 1.0)] {
            assert_eq!(meta.get("name").and_then(Json::as_str), Some("thread_name"));
            assert_eq!(meta.get("ph").and_then(Json::as_str), Some("M"));
            assert_eq!(meta.get("tid").and_then(Json::as_f64), Some(lane));
        }
        // Span records are globally timestamp-sorted across lanes, with
        // the earlier/longer parent preceding its nested child.
        let spans = &events[3..];
        assert_eq!(spans[0].get("name").and_then(Json::as_str), Some("other-lane"));
        assert_eq!(spans[1].get("name").and_then(Json::as_str), Some("outer"));
        assert_eq!(spans[2].get("name").and_then(Json::as_str), Some("inner"));
        let ts: Vec<f64> =
            spans.iter().filter_map(|e| e.get("ts").and_then(Json::as_f64)).collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]), "ts-sorted: {ts:?}");
        // Timestamps convert ns → µs with the fraction kept.
        assert_eq!(ts, vec![0.0, 1.0, 1.5]);
        for e in spans {
            assert_eq!(e.get("ph").and_then(Json::as_str), Some("X"));
            assert_eq!(e.get("pid").and_then(Json::as_f64), Some(1.0));
        }
    }

    #[test]
    fn empty_recorder_renders_metadata_only() {
        let doc = Json::parse(&TraceRecorder::new().render_chrome_trace()).expect("valid JSON");
        let events = doc.get("traceEvents").and_then(|e| e.as_arr()).expect("traceEvents array");
        // No spans → just the process_name record (no lanes to name).
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].get("name").and_then(Json::as_str), Some("process_name"));
    }
}
