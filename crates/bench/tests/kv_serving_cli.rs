//! `kv_serving`'s argument checks: a thread count the replay engine
//! cannot hold is a usage error, reported before any trace is built.

use std::process::Command;

#[test]
fn threads_above_the_core_limit_are_a_usage_error() {
    let too_many = (machine::MAX_CORES + 1).to_string();
    let out = Command::new(env!("CARGO_BIN_EXE_kv_serving"))
        .args(["--users", "100", "--events", "1000", "--threads", &too_many])
        .output()
        .expect("kv_serving runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains(&format!("--threads {too_many} exceeds")), "{stderr}");
    assert!(stderr.contains("usage: kv_serving"), "{stderr}");
    assert!(out.stdout.is_empty(), "nothing runs");
}
