//! Smoke test: every workload at the smoke scale, untraced and traced,
//! matches its goldens and emits exactly the metrics `BENCHMARK.json`
//! lists, each with its unit; a non-default seed runs clean.

use ps_bench::jsonv::Json;
use std::process::Command;

const WORKLOADS: [&str; 4] = ["kv_read", "kv_write", "advisor", "figures_quick"];

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    Json::parse(&text).expect("BENCHMARK.json is valid JSON")
}

/// (name, unit) of every metric in `BENCHMARK.json`'s `key` list.
fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |f| {
                m.get(f)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_owned()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// Run workload `w` at the smoke scale with the arguments a comparison
/// run passes, plus `extra`; return its result line and its stdout.
fn run(w: &str, seed: &str, seconds: &str, trace: &str, extra: &[&str]) -> (Json, String) {
    let args = [
        "--workload",
        w,
        "--seed",
        seed,
        "--seconds",
        seconds,
        "--trace",
        trace,
    ];
    let out = Command::new(env!("CARGO_BIN_EXE_ps-benchmark"))
        .arg("--smoke")
        .args(args)
        .args(extra)
        .output()
        .expect("the benchmark binary starts");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{args:?} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let result = Json::parse(last).expect("the result line is JSON");
    assert_eq!(
        result.get("correct").and_then(Json::as_bool),
        Some(true),
        "{args:?}: {last}"
    );
    assert_eq!(
        result.get("failed").and_then(Json::as_f64),
        Some(0.0),
        "{args:?}: {last}"
    );
    assert!(
        result
            .get("attempted")
            .and_then(Json::as_f64)
            .is_some_and(|n| n >= 1.0),
        "{last}"
    );
    (result, stdout.into_owned())
}

/// The value of a metric in the printed table (every metric a run
/// measured, listed or not).
fn printed(stdout: &str, name: &str) -> Option<f64> {
    stdout.lines().find_map(|l| {
        let mut words = l.split_whitespace();
        (words.next() == Some(name))
            .then(|| words.next()?.parse().ok())
            .flatten()
    })
}

#[test]
fn every_workload_matches_its_goldens_and_emits_every_listed_metric() {
    let doc = benchmark_json();
    let names: Vec<String> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workload list")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("workload name")
                .to_owned()
        })
        .collect();
    assert!(
        names.iter().all(|n| WORKLOADS.contains(&n.as_str())),
        "BENCHMARK.json names a workload the benchmark does not run: {names:?}"
    );
    // Every workload, listed or not, prints the listed metrics.
    let trace_file = format!("{}/smoke.trace.json", env!("CARGO_TARGET_TMPDIR"));
    for w in WORKLOADS {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let extra: &[&str] = if trace == "1" {
                &["--trace-out", &trace_file]
            } else {
                &[]
            };
            let seed = if w.starts_with("kv") { "29" } else { "1" };
            let (result, _) = run(w, seed, "0", trace, extra);
            let metrics = result.get("metrics").expect("metrics object");
            let expected = listed(&doc, key);
            for (name, unit) in &expected {
                let m = metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("{w}: no {name}"));
                assert_eq!(
                    m.get("unit").and_then(Json::as_str),
                    Some(unit.as_str()),
                    "{w}: {name}"
                );
                assert!(
                    m.get("value")
                        .and_then(Json::as_f64)
                        .is_some_and(f64::is_finite),
                    "{w}: {name}"
                );
            }
            match metrics {
                Json::Obj(fields) => assert_eq!(fields.len(), expected.len(), "{w}: extra metrics"),
                other => panic!("{w}: metrics is not an object: {other:?}"),
            }
            if trace == "1" {
                let text =
                    std::fs::read_to_string(&trace_file).expect("the Chrome trace was written");
                let chrome = Json::parse(&text).expect("the Chrome trace is JSON");
                let events = chrome
                    .get("traceEvents")
                    .and_then(Json::as_arr)
                    .expect("traceEvents");
                assert!(events.len() > 1, "{w}: the Chrome trace holds no spans");
            }
        }
    }
}

#[test]
fn a_non_default_seed_skips_the_goldens_and_runs_clean() {
    for w in ["kv_read", "kv_write"] {
        // Traced, so the SIMD/scalar and streamed/materialized checks run.
        let (_, seven) = run(w, "7", "0", "1", &[]);
        let (_, default) = run(w, "29", "0", "0", &[]);
        let cycles = |s: &str| printed(s, "machine.sim_cycles");
        assert!(cycles(&seven).is_some());
        assert_ne!(
            cycles(&seven),
            cycles(&default),
            "{w}: seed 7 replays seed 29's stream"
        );
    }
}

#[test]
fn seconds_extends_sampling_past_the_minimum() {
    let samples = |seconds| printed(&run("kv_read", "29", seconds, "0", &[]).1, "samples");
    assert_eq!(samples("0"), Some(1.0));
    assert!(samples("0.5").is_some_and(|n| n > 1.0));
}
