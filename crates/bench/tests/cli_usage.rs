//! The CLIs' one front end (`ps_bench::cli`) at work: an argument a binary
//! cannot honour — a thread count the replay engine cannot hold, a `--`
//! flag it does not know, a value flag with nothing after it — exits
//! through the usage path before any trace is built or any file is
//! written; a flag's value is never read as a positional, and a positional
//! a binary does not take is an error; `--help` prints the usage on stdout
//! and exits 0, the same in all three binaries; and a reader that closes
//! stdout early stops the printing, not the run.

use std::process::{Command, ExitStatus, Output, Stdio};

fn run(exe: &str, args: &[&str]) -> Output {
    Command::new(exe).args(args).output().expect("binary runs")
}

/// Each binary with its usage errors' exit code.
const BINARIES: [(&str, &str, i32); 3] = [
    ("figures", env!("CARGO_BIN_EXE_figures"), 1),
    ("dirtbuster", env!("CARGO_BIN_EXE_dirtbuster"), 2),
    ("kv_serving", env!("CARGO_BIN_EXE_kv_serving"), 1),
];

#[test]
fn help_prints_the_usage_on_stdout_and_exits_0() {
    for (name, exe, _) in BINARIES {
        for help in ["--help", "-h"] {
            let out = run(exe, &[help]);
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert_eq!(out.status.code(), Some(0), "{name} {help}");
            assert!(stdout.starts_with(&format!("usage: {name}")), "{name} {help}: {stdout}");
            assert!(out.stderr.is_empty(), "{name} {help}: {}", String::from_utf8_lossy(&out.stderr));
        }
    }
}

/// Every usage error exits with the binary's usage code before anything
/// runs, the message first and then the usage text, all on stderr. A value
/// flag given last, or a value its flag cannot take, is a usage error in
/// every binary, never a run with a default or a panic (`1e300` seconds is
/// more than a `Duration` holds).
#[test]
fn usage_errors_print_the_message_and_the_usage_and_run_nothing() {
    let cases: [(usize, &[&str], &str); 10] = [
        (0, &["--quick", "--jobs"], "--jobs needs a value"),
        (0, &["--quick", "--jobs", "0", "table1"], "invalid value \"0\" for --jobs: "),
        (1, &["listing3", "--verbos"], "unknown flag \"--verbos\""),
        (1, &["listing3", "--crash-at-step"], "--crash-at-step needs a value"),
        (1, &["listing3", "--seed"], "--seed needs a value"),
        (1, &["--sample-interval", "nope", "listing3"], "invalid value \"nope\" for --sample-interval: "),
        (1, &["listing3", "--auto-budget-secs", "1e300"], "--auto-budget-secs must be a positive number"),
        (2, &["--users", "100", "--verify-materialised"], "unknown flag \"--verify-materialised\""),
        (2, &["--users", "100", "--events", "1000", "--chunk"], "--chunk needs a value"),
        (2, &["--users", "0", "--events", "1000"], "invalid value \"0\" for --users: "),
    ];
    for (bin, args, message) in cases {
        let (name, exe, code) = BINARIES[bin];
        let out = run(exe, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(code), "{name} {args:?}: {stderr}");
        assert!(stderr.starts_with(message), "{name} {args:?}: {stderr}");
        assert!(stderr.contains(&format!("\nusage: {name}")), "{stderr}");
        assert!(out.stdout.is_empty(), "{name} {args:?}: nothing runs");
    }
}

/// A flag's value is never the workload, even one that names a workload:
/// `--save-trace listing3 listing3` saves the `listing3` trace to the file
/// `listing3`.
#[test]
fn dirtbuster_takes_its_workload_after_a_flag_value_that_names_one() {
    let cwd = std::env::temp_dir().join(format!("dirtbuster-save-{}", std::process::id()));
    std::fs::create_dir_all(&cwd).expect("temporary working directory");
    let out = Command::new(env!("CARGO_BIN_EXE_dirtbuster"))
        .args(["--save-trace", "listing3", "listing3"])
        .current_dir(&cwd)
        .output()
        .expect("binary runs");
    let saved = simcore::serialize::load_traces(cwd.join("listing3"));
    std::fs::remove_dir_all(&cwd).expect("remove the temporary working directory");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout.contains("trace saved to listing3"), "{stdout}");
    assert!(stdout.contains("== DirtBuster: listing3 =="), "{stdout}");
    let (traces, _) = saved.expect("the trace file loads");
    assert!(traces.total_events() > 0);
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

/// Flags `figures` once accepted, each with the value it took: each must
/// now fail like any typo.
const RETIRED_FLAGS: [&[&str]; 3] = [
    &["--force-scalar"],
    &["--timing"],
    &["--baseline", "BENCH_figures.json"],
];

#[test]
fn figures_rejects_a_retired_flag_and_writes_nothing() {
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

/// A value flag's value is never an experiment id, even one that names an
/// experiment: `--out table1 table1` runs `table1` into `table1/`.
#[test]
fn figures_takes_ids_after_a_flag_value_that_names_one() {
    let cwd = std::env::temp_dir().join(format!("figures-ids-{}", std::process::id()));
    std::fs::create_dir_all(&cwd).expect("temporary working directory");
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["--quick", "--out", "table1", "table1"])
        .current_dir(&cwd)
        .output()
        .expect("binary runs");
    let written: Vec<String> = std::fs::read_dir(cwd.join("table1"))
        .expect("output directory")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .collect();
    std::fs::remove_dir_all(&cwd).expect("remove the temporary working directory");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert_eq!(written, ["table1.csv"], "only the named experiment runs");
}

/// Every unknown id is named, and nothing runs or is written: not the
/// known ids given beside it, not the output directory.
#[test]
fn figures_names_every_unknown_id_and_runs_nothing() {
    let out_dir = std::env::temp_dir().join(format!("figures-unknown-id-{}", std::process::id()));
    let out_arg = out_dir.to_str().expect("utf-8 path");
    let out = run(
        env!("CARGO_BIN_EXE_figures"),
        &["--quick", "--out", out_arg, "table1", "nosuchid", "fig99"],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.starts_with(r#"unknown experiment id(s): ["nosuchid", "fig99"]"#), "{stderr}");
    assert!(stderr.contains("\n  table1\n"), "the known ids are listed: {stderr}");
    assert!(out.stdout.is_empty(), "table1 does not run");
    assert!(!out_dir.exists(), "no output directory is created");
}

/// `dirtbuster` takes one workload, or none with `--from-trace`: a second
/// workload, or one beside `--from-trace`, is a usage error, and so is
/// neither.
#[test]
fn dirtbuster_takes_one_workload_or_none_with_from_trace() {
    let cases: [(&[&str], &str); 3] = [
        (&["listing3", "mg"], "unexpected argument \"mg\""),
        (&["--from-trace", "no-such.pstrace", "mg"], "unexpected argument \"mg\""),
        (&["--verbose"], "dirtbuster needs a <workload> or --from-trace FILE"),
    ];
    for (args, message) in cases {
        let out = run(env!("CARGO_BIN_EXE_dirtbuster"), args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.starts_with(message), "{args:?}: {stderr}");
        assert!(stderr.contains("\nusage: dirtbuster"), "{stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: nothing runs");
    }
}

#[test]
fn kv_serving_takes_no_positional() {
    let out = run(env!("CARGO_BIN_EXE_kv_serving"), &["--users", "100", "--events", "1000", "foo"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.starts_with("unexpected argument \"foo\""), "{stderr}");
    assert!(stderr.contains("\nusage: kv_serving"), "{stderr}");
    assert!(out.stdout.is_empty(), "nothing runs");
}

/// Run `exe` with its stdout a pipe whose read end is closed before the
/// binary starts, so its first print already finds no reader.
fn run_with_stdout_closed(exe: &str, args: &[&str]) -> ExitStatus {
    let mut child = Command::new(exe)
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("binary runs");
    drop(child.stdout.take());
    child.wait().expect("binary exits")
}

/// A reader that goes away (`| head -1`) stops the printing, not the run:
/// each binary finishes, writes its files and exits 0.
#[test]
fn a_closed_stdout_stops_the_printing_not_the_run() {
    let out_dir = std::env::temp_dir().join(format!("figures-closed-{}", std::process::id()));
    let out_arg = out_dir.to_str().expect("utf-8 path");
    let runs: [(&str, &[&str]); 3] = [
        (env!("CARGO_BIN_EXE_dirtbuster"), &["listing3"]),
        (env!("CARGO_BIN_EXE_figures"), &["--quick", "--out", out_arg, "table1"]),
        (env!("CARGO_BIN_EXE_kv_serving"), &["--users", "1000", "--events", "20000"]),
    ];
    for (exe, args) in runs {
        assert_eq!(run_with_stdout_closed(exe, args).code(), Some(0), "{exe} {args:?}");
    }
    let csv = std::fs::read_to_string(out_dir.join("table1.csv"));
    std::fs::remove_dir_all(&out_dir).expect("remove the output directory");
    assert!(csv.expect("figures still writes its CSV").contains("internal granularity,256"));
}
