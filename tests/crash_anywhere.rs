//! Crash-anywhere: small seeded random traces — one to three threads, at
//! most 50 events each, every event kind — crash at every scheduler step
//! on Machine A, B-fast and B-slow, and recovery from each crash must
//! reach the durable digest of the uninterrupted run.
//!
//! The traces' acquire/release hand-offs are satisfiable by construction:
//! thread 0 is the only thread that releases the sync line and never
//! acquires, and the other threads only acquire release numbers thread 0
//! reaches.

use pre_stores::machine::{CrashOutcome, CrashPlan, Machine, MachineConfig};
use pre_stores::simcore::rng::SimRng;
use pre_stores::simcore::{PrestoreOp, TraceSet, Tracer};

/// Seeds per machine.
const SEEDS: u64 = 60;
/// Most events a thread records.
const MAX_EVENTS: u64 = 50;
/// The line every acquire waits on (line-aligned on every machine).
const SYNC: u64 = 1 << 30;

/// A data address: 16 lines of 256 B, so accesses share lines across
/// threads, straddle 64 B and 128 B line boundaries, and (4 KiB apart)
/// share L1 sets.
fn data_addr(rng: &mut SimRng) -> u64 {
    rng.gen_range(16) * 4096 + rng.gen_range(256)
}

/// One random event of `thread`. Thread 0 may release the sync line; the
/// other threads may acquire release numbers up to `releases`.
fn random_event(rng: &mut SimRng, t: &mut Tracer, thread: usize, releases: &mut u32) {
    let size = 1 + rng.gen_range(256) as u32;
    match rng.gen_range(9) {
        0 => t.read(data_addr(rng), size),
        1 => t.write(data_addr(rng), size),
        2 => t.nt_write(data_addr(rng), size),
        3 => t.prestore(data_addr(rng), size, PrestoreOp::Clean),
        4 => t.prestore(data_addr(rng), size, PrestoreOp::Demote),
        5 => t.fence(),
        6 if thread == 0 && rng.gen_bool(0.5) => {
            t.atomic(SYNC, 8);
            *releases += 1;
        }
        6 => t.atomic(data_addr(rng) & !7, 8),
        7 => t.compute(1 + rng.gen_range(500)),
        _ if thread > 0 && *releases > 0 => {
            t.acquire(SYNC, 1 + rng.gen_range(u64::from(*releases)) as u32);
        }
        _ => t.write(data_addr(rng), size),
    }
}

/// The trace set of `seed`. Thread 0 is recorded first, so the acquirers
/// know how many releases it performs.
fn random_traces(seed: u64) -> TraceSet {
    let mut rng = SimRng::new(seed);
    let threads = 1 + rng.gen_range(3) as usize;
    let mut releases = 0u32;
    let traces = (0..threads)
        .map(|thread| {
            let mut t = Tracer::new();
            for _ in 0..1 + rng.gen_range(MAX_EVENTS) {
                random_event(&mut rng, &mut t, thread, &mut releases);
            }
            t.finish()
        })
        .collect();
    TraceSet::new(traces)
}

/// The durable digest of a completed crash-armed replay.
fn digest(outcome: &CrashOutcome) -> u64 {
    match outcome {
        CrashOutcome::Completed { durable_digest, .. } => {
            durable_digest.expect("crash-armed completion tracks the digest")
        }
        CrashOutcome::Crashed(r) => panic!("unexpected crash at step {}", r.at_step),
    }
}

#[test]
fn recovery_from_a_crash_at_any_step_reaches_the_uninterrupted_digest() {
    let machines = [
        ("A", MachineConfig::machine_a()),
        ("B-fast", MachineConfig::machine_b_fast()),
        ("B-slow", MachineConfig::machine_b_slow()),
    ];
    let mut kinds = [0u64; 9];
    let mut crash_points = 0u64;
    for seed in 0..SEEDS {
        let traces = random_traces(seed);
        for ev in traces.threads.iter().flat_map(|t| &t.events) {
            kinds[ev.kind as usize] += 1;
        }
        for (name, cfg) in &machines {
            let m = Machine::new(cfg.clone());
            let run = |plan| {
                m.try_run_until_crash(&traces, plan)
                    .expect("satisfiable trace")
            };
            let golden = digest(&run(CrashPlan::AtStep(u64::MAX)));
            // Every step crashes until the plan's step lies past the end
            // of the replay.
            for step in 1.. {
                let report = match run(CrashPlan::AtStep(step)) {
                    CrashOutcome::Crashed(report) => report,
                    CrashOutcome::Completed { .. } => break,
                };
                let resumed = m
                    .recover_and_resume(&traces, &report.image, None)
                    .unwrap_or_else(|e| panic!("seed {seed} on {name}, step {step}: {e}"));
                assert_eq!(
                    digest(&resumed),
                    golden,
                    "seed {seed} on {name}: recovery from a crash at step {step} diverged"
                );
                crash_points += 1;
            }
        }
    }
    let kinds_seen = kinds.iter().filter(|&&n| n > 0).count();
    assert_eq!(kinds_seen, 9, "every event kind is generated: {kinds:?}");
    // About 9,900 with these seeds.
    assert!(crash_points > 5_000, "only {crash_points} crash points");
}
