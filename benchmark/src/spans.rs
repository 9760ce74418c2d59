//! The benchmark's own spans: recorded around its calls into each layer,
//! kept in memory, written as Chrome-trace JSON when the run ends.

use ps_bench::tracefmt::TraceRecorder;
use simcore::telemetry::{SpanObserver, SpanRecord};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

static NEXT_LANE: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Chrome-trace lane of the calling thread (dense, first-use order).
    static LANE: u64 = NEXT_LANE.fetch_add(1, Ordering::Relaxed);
}

/// A span buffer shared by every thread of a traced run.
#[derive(Debug, Clone)]
pub struct Spans {
    rec: TraceRecorder,
    epoch: Instant,
}

impl Spans {
    pub fn new() -> Self {
        Self {
            rec: TraceRecorder::new(),
            epoch: Instant::now(),
        }
    }

    /// Record the span `name` over `start..end` on the calling thread.
    pub fn record(&self, name: &'static str, start: Instant, end: Instant) {
        self.rec.on_span(&SpanRecord {
            name,
            start_ns: start.duration_since(self.epoch).as_nanos() as u64,
            dur_ns: end.duration_since(start).as_nanos() as u64,
            lane: LANE.with(|l| *l),
        });
    }

    /// Run `f` inside the span `name`; its result and seconds.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(name, start, end);
        (out, (end - start).as_secs_f64())
    }

    /// Durations of every `name` span, in milliseconds.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.rec
            .events()
            .iter()
            .filter(|e| e.name == name)
            .map(|e| e.dur_ns as f64 / 1e6)
            .collect()
    }

    /// Milliseconds covered by at least one `name` span (overlapping spans
    /// from parallel threads count once): the child time to subtract from
    /// a parent span to get its self time.
    pub fn covered_ms(&self, name: &str) -> f64 {
        let mut iv: Vec<(u64, u64)> = self
            .rec
            .events()
            .iter()
            .filter(|e| e.name == name)
            .map(|e| (e.start_ns, e.start_ns + e.dur_ns))
            .collect();
        iv.sort_unstable();
        let (mut total, mut reach) = (0u64, 0u64);
        for (start, end) in iv {
            let from = start.max(reach);
            if end > from {
                total += end - from;
                reach = end;
            }
        }
        total as f64 / 1e6
    }

    pub fn len(&self) -> usize {
        self.rec.len()
    }

    pub fn chrome_trace(&self) -> String {
        self.rec.render_chrome_trace()
    }
}

/// Run `f`, inside the span `name` when the run is traced.
pub fn timed<T>(spans: Option<&Spans>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match spans {
        Some(s) => s.time(name, f).0,
        None => f(),
    }
}
