//! The CLIs' usage errors: an argument a binary cannot honour — a thread
//! count the replay engine cannot hold, or a `--` flag it does not know —
//! exits through the usage path before any trace is built or any file is
//! written.

use std::process::{Command, Output};

fn run(exe: &str, args: &[&str]) -> Output {
    Command::new(exe).args(args).output().expect("binary runs")
}

#[test]
fn threads_above_the_core_limit_are_a_usage_error() {
    let too_many = (machine::MAX_CORES + 1).to_string();
    let out = run(
        env!("CARGO_BIN_EXE_kv_serving"),
        &["--users", "100", "--events", "1000", "--threads", &too_many],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains(&format!("--threads {too_many} exceeds")),
        "{stderr}"
    );
    assert!(stderr.contains("usage: kv_serving"), "{stderr}");
    assert!(out.stdout.is_empty(), "nothing runs");
}

#[test]
fn kv_serving_rejects_an_unknown_flag() {
    let out = run(
        env!("CARGO_BIN_EXE_kv_serving"),
        &[
            "--users",
            "100",
            "--events",
            "1000",
            "--verify-materialised",
        ],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("unknown flag \"--verify-materialised\""),
        "{stderr}"
    );
    assert!(stderr.contains("usage: kv_serving"), "{stderr}");
    assert!(out.stdout.is_empty(), "nothing runs");
}

/// Flags `figures` once accepted, each with the value it took: each must
/// now fail like any typo.
const RETIRED_FLAGS: [&[&str]; 3] = [
    &["--force-scalar"],
    &["--timing"],
    &["--baseline", "BENCH_figures.json"],
];

#[test]
fn figures_rejects_an_unknown_flag_and_writes_nothing() {
    let out_dir = std::env::temp_dir().join(format!("figures-unknown-flag-{}", std::process::id()));
    for retired in RETIRED_FLAGS {
        let mut args = vec!["--quick"];
        args.extend_from_slice(retired);
        args.extend(["--out", out_dir.to_str().expect("utf-8 path"), "table1"]);
        let out = run(env!("CARGO_BIN_EXE_figures"), &args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{retired:?}: {stderr}");
        assert!(
            stderr.contains(&format!("unknown flag {:?}", retired[0])),
            "{stderr}"
        );
        assert!(stderr.contains("usage: figures"), "{stderr}");
        assert!(out.stdout.is_empty(), "nothing runs");
        assert!(!out_dir.exists(), "no output directory is created");
    }
}

#[test]
fn dirtbuster_rejects_an_unknown_flag() {
    let out = run(env!("CARGO_BIN_EXE_dirtbuster"), &["listing3", "--verbos"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("unknown flag \"--verbos\""), "{stderr}");
    assert!(stderr.contains("usage: dirtbuster"), "{stderr}");
    assert!(out.stdout.is_empty(), "nothing runs");
}
