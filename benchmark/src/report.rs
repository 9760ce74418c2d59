//! Metric collection, failure accounting and the result line.

use std::sync::atomic::{AtomicU64, Ordering};

/// End-to-end metrics, reported by untraced runs of every workload
/// (name, unit). Must match `BENCHMARK.json`; the smoke test checks it.
pub const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("wall_rel", "x"), ("peak_heap_mb", "MiB")];

/// Per-layer metrics, reported by traced runs of every workload (name,
/// unit). Must match `BENCHMARK.json`; the smoke test checks it.
pub const PER_LAYER: [(&str, &str); 33] = [
    ("workloads.synth_ns_per_event", "ns"),
    ("simcore.ingest_ns_per_event", "ns"),
    ("machine.replay_ns_per_event", "ns"),
    ("machine.replay_ns_per_event_scalar", "ns"),
    ("machine.stream_overhead_pct", "%"),
    ("machine.chunk_ms_p50", "ms"),
    ("machine.chunk_ms_p99", "ms"),
    ("cachesim.llc_access_ns", "ns"),
    ("memdev.optane_write_ns", "ns"),
    ("trace_overhead_pct", "%"),
    ("workloads.events", "count"),
    ("simcore.distinct_lines", "count"),
    ("simcore.chunks", "count"),
    ("simcore.peak_pipeline_bytes", "bytes"),
    ("machine.sim_cycles", "cycles"),
    ("machine.cpu_cycles", "cycles"),
    ("machine.media_busy_cycles", "cycles"),
    ("machine.prestores", "count"),
    ("machine.fences", "count"),
    ("machine.stall_cycles.fence", "cycles"),
    ("machine.stall_cycles.atomic", "cycles"),
    ("machine.stall_cycles.sb", "cycles"),
    ("machine.stall_cycles.writeback", "cycles"),
    ("cachesim.l1_hits", "count"),
    ("cachesim.l1_misses", "count"),
    ("cachesim.l1_dirty_evictions", "count"),
    ("cachesim.l1_cleans", "count"),
    ("cachesim.llc_hits", "count"),
    ("memdev.reads_received", "count"),
    ("memdev.bytes_received", "bytes"),
    ("memdev.media_bytes_written", "bytes"),
    ("memdev.media_bytes_rmw_read", "bytes"),
    ("memdev.write_amp", "ratio"),
];

/// Attempted and failed operations. Atomic so the advisor's candidate
/// evaluations can count from the `simcore::par` pool.
#[derive(Debug, Default)]
pub struct Tally {
    attempted: AtomicU64,
    failed: AtomicU64,
}

impl Tally {
    /// Count one operation; a failed one is reported on stderr.
    pub fn op(&self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted.fetch_add(1, Ordering::Relaxed);
        if !ok {
            self.failed.fetch_add(1, Ordering::Relaxed);
            eprintln!("FAILED: {}", what());
        }
    }

    pub fn attempted(&self) -> u64 {
        self.attempted.load(Ordering::Relaxed)
    }

    pub fn failed(&self) -> u64 {
        self.failed.load(Ordering::Relaxed)
    }
}

/// Every metric a run measured, in measurement order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().rev().find(|m| m.0 == name).map(|m| m.1)
    }

    /// One line per metric: name, value, unit.
    pub fn print(&self) {
        for (name, value, unit) in &self.0 {
            println!("  {name:<40} {value:>24} {unit}");
        }
    }

    /// The result line: the listed metrics as measured, plus the
    /// operation counts. A listed metric that is missing or not finite
    /// counts as one more failed operation.
    pub fn result_json(&self, listed: &[(&str, &str)], tally: &Tally) -> String {
        let mut fields = Vec::new();
        for &(name, unit) in listed {
            match self.get(name).filter(|v| v.is_finite()) {
                Some(v) => fields.push(format!(
                    "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
                )),
                None => tally.op(false, || format!("metric {name} was not measured")),
            }
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            tally.failed() == 0,
            tally.attempted(),
            tally.failed(),
            fields.join(", ")
        )
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `xs` (0 for none).
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Smallest of `xs` (0 for none).
pub fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Nearest-rank percentile of `xs` (0 for none).
pub fn percentile(xs: &[f64], pct: f64) -> f64 {
    let v = sorted(xs);
    let rank = ((pct / 100.0) * v.len() as f64).ceil() as usize;
    v.get(rank.clamp(1, v.len().max(1)) - 1)
        .copied()
        .unwrap_or(0.0)
}

/// 64-bit FNV-1a, the fingerprint of the pinned golden outputs.
pub fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}
