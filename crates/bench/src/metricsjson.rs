//! Telemetry snapshot rendering and the `--metrics-baseline` gate.
//!
//! [`render`] serializes the telemetry registry — counters, gauges, span
//! timings, and the log-linear histograms with their percentiles — plus
//! the memo-cache ledger into the JSON document `figures --metrics`
//! writes. [`diff`] is the reverse direction: it compares a freshly
//! rendered snapshot against a committed baseline and reports every
//! *deterministic* value that differs from it, which is what lets CI
//! catch "the replay engine suddenly does 2× the device writes" without
//! any flaky wall-clock heuristics.
//!
//! Only simulation-defined values are compared, and they must match
//! exactly: metric names under the `engine.`, `device.` and `wcbuf.`
//! prefixes, excluding span timings. Replay is deterministic, so these
//! values are identical at any `--jobs`; a drift of one unit is a change
//! in what the simulator did. Machine-dependent values (span nanoseconds, `runner.*`
//! scheduling counters, memo hit rates) are rendered for humans but never
//! gated.

use crate::jsonv::Json;
use crate::memo::MemoCounters;

/// Name prefixes whose counters and histogram shapes are fully determined
/// by the experiment set (replay is deterministic), and therefore safe to
/// gate on across machines and job counts.
const DETERMINISTIC_PREFIXES: &[&str] = &["engine.", "device.", "wcbuf."];

/// Render the metrics snapshot: registry state (name-sorted), histogram
/// percentiles, the memo-cache ledger, and the span-observer event count.
/// Hand-rolled JSON — every name is a static identifier, so no escaping
/// is needed.
pub fn render(memo: &MemoCounters, span_events: u64, quick: bool) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"quick\": {quick},\n"));
    out.push_str(&format!("  \"span_events_observed\": {span_events},\n"));
    out.push_str(&format!(
        "  \"memo\": {{\"lookups\": {}, \"hits\": {}, \"misses\": {}, \"inserts\": {}, \
         \"evictions\": {}, \"derived\": {}, \"derive_ns\": {}}},\n",
        memo.lookups, memo.hits, memo.misses, memo.inserts, memo.evictions, memo.derived,
        memo.derive_ns
    ));
    out.push_str("  \"metrics\": [");
    for (i, m) in simcore::telemetry::snapshot().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"name\": \"{}\", \"kind\": \"{}\", \"value\": {}, \"count\": {}}}",
            m.name,
            m.kind.as_str(),
            m.value,
            m.count
        ));
    }
    out.push_str("\n  ],\n  \"histograms\": [");
    for (i, h) in simcore::telemetry::hist_snapshot().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"name\": \"{}\", \"count\": {}, \"sum\": {}, \"max\": {}, \
             \"p50\": {}, \"p90\": {}, \"p99\": {}}}",
            h.name,
            h.count,
            h.sum,
            h.max,
            h.p50(),
            h.p90(),
            h.p99()
        ));
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// The outcome of a baseline comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffReport {
    /// Values compared (metric values, histogram count/percentiles and
    /// time-series window channels).
    pub compared: usize,
    /// Human-readable descriptions of every gated value that differs from
    /// the baseline and every gated name present on only one side (empty
    /// = pass).
    pub regressions: Vec<String>,
}

fn is_gated(name: &str) -> bool {
    DETERMINISTIC_PREFIXES.iter().any(|p| name.starts_with(p))
}

/// Index the entries of a snapshot's named array by their `"name"` field.
fn by_name<'a>(doc: &'a Json, array: &str) -> Vec<(&'a str, &'a Json)> {
    doc.get(array)
        .and_then(Json::as_arr)
        .map(|entries| {
            entries
                .iter()
                .filter_map(|e| e.get("name").and_then(Json::as_str).map(|n| (n, e)))
                .collect()
        })
        .unwrap_or_default()
}

/// Compare a freshly rendered snapshot against a committed baseline.
///
/// Every deterministic metric value and histogram shape statistic
/// (`count`, `p50`, `p90`, `p99`) present in the *baseline* must exist in
/// the current snapshot with exactly the baseline's value, and every
/// gated name in the current snapshot must exist in the baseline (a probe
/// the baseline has never seen means the baseline went stale). When both
/// snapshots carry a `"timeseries"` array, every per-window channel value
/// is compared too, so a drift that only occurs in one temporal window —
/// invisible to end-of-run aggregates — is still caught, and the report
/// names the exact window. Keys outside the compared arrays (such as the
/// `"telemetry"` flag of older snapshots) are ignored. Returns `Err` only
/// when a document is not a metrics snapshot at all.
pub fn diff(current: &str, baseline: &str) -> Result<DiffReport, String> {
    let cur = Json::parse(current).map_err(|e| format!("current snapshot: {e}"))?;
    let base = Json::parse(baseline).map_err(|e| format!("baseline snapshot: {e}"))?;
    for (doc, which) in [(&cur, "current"), (&base, "baseline")] {
        if doc.get("metrics").and_then(Json::as_arr).is_none() {
            return Err(format!("{which} document has no \"metrics\" array"));
        }
    }
    let mut report = DiffReport { compared: 0, regressions: Vec::new() };
    let cur_metrics = by_name(&cur, "metrics");
    for (name, entry) in by_name(&base, "metrics") {
        if !is_gated(name) || entry.get("kind").and_then(Json::as_str) == Some("span") {
            continue;
        }
        let Some(base_value) = entry.get("value").and_then(Json::as_f64) else { continue };
        report.compared += 1;
        let Some(cur_value) = cur_metrics
            .iter()
            .find(|(n, _)| *n == name)
            .and_then(|(_, e)| e.get("value").and_then(Json::as_f64))
        else {
            report.regressions.push(format!("metric {name} missing from current snapshot"));
            continue;
        };
        if cur_value != base_value {
            report.regressions.push(format!("metric {name}: {cur_value} vs baseline {base_value}"));
        }
    }
    let cur_hists = by_name(&cur, "histograms");
    for (name, entry) in by_name(&base, "histograms") {
        if !is_gated(name) {
            continue;
        }
        let cur_entry = cur_hists.iter().find(|(n, _)| *n == name).map(|(_, e)| *e);
        for stat in ["count", "p50", "p90", "p99"] {
            let Some(base_value) = entry.get(stat).and_then(Json::as_f64) else { continue };
            report.compared += 1;
            let Some(cur_value) = cur_entry.and_then(|e| e.get(stat).and_then(Json::as_f64)) else {
                report.regressions.push(format!("histogram {name} missing from current snapshot"));
                break;
            };
            if cur_value != base_value {
                report
                    .regressions
                    .push(format!("histogram {name} {stat}: {cur_value} vs baseline {base_value}"));
            }
        }
    }
    // Gated names the baseline has never seen.
    for (array, what) in [("metrics", "metric"), ("histograms", "histogram")] {
        let base_names: Vec<&str> = by_name(&base, array).iter().map(|(n, _)| *n).collect();
        for (name, _) in by_name(&cur, array) {
            if is_gated(name) && !base_names.contains(&name) {
                report.regressions.push(format!("{what} {name} absent from baseline"));
            }
        }
    }
    diff_timeseries(&cur, &base, &mut report);
    Ok(report)
}

/// Compare the optional `"timeseries"` arrays of two snapshots at window
/// granularity. Each entry is `{"name", "window_cycles", "channels",
/// "windows": [[start, v...], ...]}`; entries are matched by name, and
/// every channel value of every window present in the baseline must equal
/// the current one. The windows are keyed to simulated cycles, so across
/// builds and job counts they are exactly reproducible — a drift
/// pinpoints *when* in the run behaviour changed.
fn diff_timeseries(cur: &Json, base: &Json, report: &mut DiffReport) {
    let cur_series = by_name(cur, "timeseries");
    for (name, entry) in by_name(base, "timeseries") {
        let Some(base_windows) = entry.get("windows").and_then(Json::as_arr) else { continue };
        let cur_entry = cur_series.iter().find(|(n, _)| *n == name).map(|(_, e)| *e);
        let Some(cur_windows) = cur_entry.and_then(|e| e.get("windows").and_then(Json::as_arr))
        else {
            report.regressions.push(format!("timeseries {name} missing from current snapshot"));
            continue;
        };
        report.compared += 1;
        if cur_windows.len() != base_windows.len() {
            report.regressions.push(format!(
                "timeseries {name}: {} windows vs baseline {}",
                cur_windows.len(),
                base_windows.len()
            ));
            continue;
        }
        let channels: Vec<&str> = entry
            .get("channels")
            .and_then(Json::as_arr)
            .map(|a| a.iter().filter_map(Json::as_str).collect())
            .unwrap_or_default();
        for (b, c) in base_windows.iter().zip(cur_windows) {
            let (Some(bw), Some(cw)) = (b.as_arr(), c.as_arr()) else { continue };
            let start = bw.first().and_then(Json::as_f64).unwrap_or(0.0);
            // Column 0 is the window start; value channels follow.
            for (ch, (bv, cv)) in bw.iter().zip(cw).enumerate().skip(1) {
                let (Some(bv), Some(cv)) = (bv.as_f64(), cv.as_f64()) else { continue };
                report.compared += 1;
                if cv != bv {
                    let channel = channels
                        .get(ch - 1)
                        .map_or_else(|| format!("channel {}", ch - 1), ToString::to_string);
                    report.regressions.push(format!(
                        "timeseries {name} window@{start:.0} {channel}: {cv} vs baseline {bv}"
                    ));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot(media: u64, p99: u64) -> String {
        format!(
            r#"{{
  "quick": true,
  "span_events_observed": 7,
  "metrics": [
    {{"name": "engine.device_media_bytes_written", "kind": "counter", "value": {media}, "count": 3}},
    {{"name": "engine.replay", "kind": "span", "value": 123456, "count": 3}},
    {{"name": "runner.helpers_spawned", "kind": "counter", "value": 999, "count": 9}}
  ],
  "histograms": [
    {{"name": "engine.stall_cycles", "count": 10, "sum": 500, "max": {p99}, "p50": 32, "p90": 64, "p99": {p99}}}
  ]
}}
"#
        )
    }

    #[test]
    fn identical_snapshots_pass() {
        let r = diff(&snapshot(4096, 128), &snapshot(4096, 128)).expect("valid snapshots");
        assert!(r.regressions.is_empty(), "{:?}", r.regressions);
        // 1 gated metric + 4 histogram stats; spans and runner.* skipped.
        assert_eq!(r.compared, 5);
    }

    #[test]
    fn counter_and_percentile_drift_are_regressions() {
        let r = diff(&snapshot(8192, 1024), &snapshot(4096, 128)).expect("valid snapshots");
        assert_eq!(r.regressions.len(), 2, "{:?}", r.regressions);
        assert!(r.regressions[0].contains("engine.device_media_bytes_written"));
        assert!(r.regressions[1].contains("p99"));
    }

    #[test]
    fn one_unit_drift_is_a_regression() {
        let r = diff(&snapshot(4097, 128), &snapshot(4096, 128)).expect("valid snapshots");
        assert_eq!(
            r.regressions,
            vec!["metric engine.device_media_bytes_written: 4097 vs baseline 4096".to_owned()]
        );
        let r = diff(&snapshot(4096, 129), &snapshot(4096, 128)).expect("valid snapshots");
        assert_eq!(
            r.regressions,
            vec!["histogram engine.stall_cycles p99: 129 vs baseline 128".to_owned()]
        );
    }

    #[test]
    fn nondeterministic_names_are_never_gated() {
        // runner.* differs wildly between the snapshots but is not gated.
        let base = snapshot(4096, 128).replace("\"value\": 999", "\"value\": 1");
        let r = diff(&snapshot(4096, 128), &base).expect("valid snapshots");
        assert!(r.regressions.is_empty(), "{:?}", r.regressions);
    }

    #[test]
    fn keys_outside_the_compared_arrays_are_ignored() {
        // Older baselines carry a top-level "telemetry" flag.
        let base = snapshot(4096, 128).replace("{\n", "{\n  \"telemetry\": true,\n");
        let r = diff(&snapshot(4096, 128), &base).expect("valid snapshots");
        assert!(r.regressions.is_empty(), "{:?}", r.regressions);
        assert_eq!(r.compared, 5);
    }

    #[test]
    fn missing_metric_in_current_is_a_regression() {
        let cur = snapshot(4096, 128)
            .replace("engine.device_media_bytes_written", "engine.renamed_probe");
        let r = diff(&cur, &snapshot(4096, 128)).expect("valid snapshots");
        assert!(r.regressions.iter().any(|m| m.contains("missing")), "{:?}", r.regressions);
    }

    #[test]
    fn gated_names_absent_from_baseline_are_regressions() {
        let cur = snapshot(4096, 128).replace(
            "{\"name\": \"runner.helpers_spawned\"",
            "{\"name\": \"engine.brand_new_probe\", \"kind\": \"counter\", \"value\": 1, \
             \"count\": 1},\n    {\"name\": \"runner.helpers_spawned\"",
        );
        let r = diff(&cur, &snapshot(4096, 128)).expect("valid snapshots");
        assert_eq!(
            r.regressions,
            vec!["metric engine.brand_new_probe absent from baseline".to_owned()]
        );
        // runner.* is not gated, so a name only the current snapshot has
        // is not a regression either.
        let cur = snapshot(4096, 128).replace("runner.helpers_spawned", "runner.renamed");
        let r = diff(&cur, &snapshot(4096, 128)).expect("valid snapshots");
        assert!(r.regressions.is_empty(), "{:?}", r.regressions);
    }

    fn ts_snapshot(v: u64, windows: usize) -> String {
        let rows: Vec<String> =
            (0..windows).map(|i| format!("[{}, {}, {}]", i * 500, 100 + i, v)).collect();
        snapshot(4096, 128).replace(
            "  \"histograms\": [",
            &format!(
                "  \"timeseries\": [\n    {{\"name\": \"kv_serving\", \"window_cycles\": 500, \
                 \"channels\": [\"steps\", \"write_lines\"], \"windows\": [{}]}}\n  ],\n  \
                 \"histograms\": [",
                rows.join(", ")
            ),
        )
    }

    #[test]
    fn window_granularity_drift_names_the_window_and_channel() {
        let ok = diff(&ts_snapshot(50, 4), &ts_snapshot(50, 4)).unwrap();
        assert!(ok.regressions.is_empty(), "{:?}", ok.regressions);
        // 5 aggregate values + 1 presence + 4 windows x 2 channels.
        assert_eq!(ok.compared, 5 + 1 + 8);
        let drift = diff(&ts_snapshot(51, 4), &ts_snapshot(50, 4)).unwrap();
        assert_eq!(drift.regressions.len(), 4, "{:?}", drift.regressions);
        assert_eq!(
            drift.regressions[0],
            "timeseries kv_serving window@0 write_lines: 51 vs baseline 50"
        );
        let shorter = diff(&ts_snapshot(50, 3), &ts_snapshot(50, 4)).unwrap();
        assert!(shorter.regressions.iter().any(|r| r.contains("3 windows vs baseline 4")));
        let gone = diff(&snapshot(4096, 128), &ts_snapshot(50, 4)).unwrap();
        assert!(gone.regressions.iter().any(|r| r.contains("missing")));
    }

    #[test]
    fn render_produces_a_parseable_snapshot() {
        let text = render(&MemoCounters::default(), 42, true);
        let doc = crate::jsonv::Json::parse(&text).expect("render output parses");
        assert_eq!(doc.get("span_events_observed").and_then(Json::as_f64), Some(42.0));
        assert_eq!(doc.get("quick").and_then(Json::as_bool), Some(true));
        assert!(doc.get("telemetry").is_none(), "no feature flag to report");
        assert!(doc.get("metrics").and_then(Json::as_arr).is_some());
        assert!(doc.get("histograms").and_then(Json::as_arr).is_some());
    }
}
