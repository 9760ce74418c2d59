//! Fault-injection harness: damage real workload traces with every
//! mutator in `simcore::faultinject` and check the engine's robustness
//! contract — `try_simulate` either replays successfully or returns a
//! typed [`EngineError`]; it never panics and never hangs (the step
//! budget watchdog bounds replay even when a mutation livelocks the
//! schedule).
//!
//! Every case is reproducible from its `(subject, mutation, seed)`
//! triple: the mutators and the engine are fully deterministic.

use pre_stores::machine::{try_simulate, EngineError, MachineConfig};
use pre_stores::prestore::PrestoreMode;
use pre_stores::simcore::faultinject::{corrupt_bytes, mutate, Mutation};
use pre_stores::simcore::{serialize, FuncRegistry, TraceSet};
use pre_stores::workloads::{microbench, x9};
use proptest::prelude::*;
use std::sync::OnceLock;

/// The real recorded traces the harness damages, built once per process.
fn subjects() -> &'static Vec<(&'static str, TraceSet, FuncRegistry)> {
    static SUBJECTS: OnceLock<Vec<(&'static str, TraceSet, FuncRegistry)>> = OnceLock::new();
    SUBJECTS.get_or_init(|| {
        let x9_out = x9::run(&x9::X9Params::quick(), PrestoreMode::None);
        let l1 = microbench::listing1(
            &microbench::Listing1Params {
                iters: 2_000,
                ..microbench::Listing1Params::new(2, 256)
            },
            PrestoreMode::None,
        );
        let l3 = microbench::listing3(2_000, false);
        vec![
            ("x9", x9_out.traces, x9_out.registry),
            ("listing1", l1.traces, l1.registry),
            ("listing3", l3.traces, l3.registry),
        ]
    })
}

fn machines() -> Vec<MachineConfig> {
    vec![MachineConfig::machine_a(), MachineConfig::machine_b_fast()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(150))]

    /// The core robustness property: any mutation of any real trace, on
    /// any machine, replays to `Ok` or to a typed error — never a panic,
    /// never an unbounded spin.
    #[test]
    fn mutated_real_traces_never_panic_the_engine(
        subject in 0usize..3,
        kind in 0usize..6,
        seed in any::<u64>(),
        machine in 0usize..2,
    ) {
        let (name, traces, _) = &subjects()[subject];
        let cfg = &machines()[machine];
        let mutation = Mutation::ALL[kind];
        let broken = mutate(traces, mutation, seed, cfg.line_size);
        match try_simulate(cfg, &broken) {
            Ok(stats) => prop_assert!(stats.cycles > 0, "{name}/{} replayed to zero cycles", mutation.name()),
            Err(e) => {
                let report = e.to_string();
                prop_assert!(
                    !report.is_empty(),
                    "{name}/{} produced an unrenderable error",
                    mutation.name()
                );
            }
        }
    }
}

proptest! {
    /// Bit-flipped / truncated serialized traces either fail to decode
    /// with an `io::Error`, or decode into something the engine handles
    /// like any other damaged trace.
    #[test]
    fn corrupted_trace_bytes_decode_or_error(
        flips in 1usize..48,
        seed in any::<u64>(),
    ) {
        let (_, traces, registry) = &subjects()[0];
        let mut bytes = Vec::new();
        serialize::write_traces(&mut bytes, traces, registry).expect("in-memory write");
        corrupt_bytes(&mut bytes, flips, seed);
        match serialize::read_traces(&mut &bytes[..]) {
            Ok((decoded, _)) => {
                // Whatever decoded must still replay panic-free.
                let _ = try_simulate(&MachineConfig::machine_a(), &decoded);
            }
            Err(e) => prop_assert!(!e.to_string().is_empty()),
        }
    }
}

proptest! {
    /// Corrupt-then-truncate: serialized traces that are bit-flipped AND
    /// cut short must never panic the decoder or trick it into
    /// pre-allocating unbounded buffers from a damaged length header —
    /// they decode to something replayable or fail with a typed
    /// `io::Error`.
    #[test]
    fn corrupted_then_truncated_buffers_never_panic_or_overallocate(
        flips in 1usize..64,
        cut in 0usize..4096,
        seed in any::<u64>(),
    ) {
        let (_, traces, registry) = &subjects()[1];
        let mut bytes = Vec::new();
        serialize::write_traces(&mut bytes, traces, registry).expect("in-memory write");
        corrupt_bytes(&mut bytes, flips, seed);
        let keep = bytes.len().saturating_sub(cut);
        bytes.truncate(keep);
        match serialize::read_traces(&mut &bytes[..]) {
            Ok((decoded, _)) => {
                // The decoder's caps bound what a damaged header can make
                // it build; whatever decoded must also replay panic-free.
                prop_assert!(decoded.total_events() < (1 << 28));
                let _ = try_simulate(&MachineConfig::machine_a(), &decoded);
            }
            Err(e) => prop_assert!(!e.to_string().is_empty()),
        }
    }
}

/// The degenerate corruption edges: `flips > 0` on a 1-byte buffer (the
/// truncation branch can shrink it to empty, after which every flip must
/// hit the empty-buffer guard) and on an already-empty buffer.
#[test]
fn corrupting_tiny_buffers_is_safe() {
    for seed in 0..256u64 {
        let mut one = vec![0xA5u8];
        corrupt_bytes(&mut one, 3, seed);
        assert!(one.len() <= 1);
        let _ = serialize::read_traces(&mut &one[..]);
        let mut empty: Vec<u8> = Vec::new();
        corrupt_bytes(&mut empty, 3, seed);
        assert!(empty.is_empty());
    }
}

/// Every device preset honours a transient-fault schedule: armed, the
/// same trace replays strictly slower and deterministically, and disarmed
/// it replays exactly as before. DRAM and the CXL SSD once refused a
/// schedule.
#[test]
fn every_preset_honours_a_fault_schedule() {
    use pre_stores::memdev::TransientFaults;
    let (_, traces, _) = &subjects()[1];
    for clean_cfg in [
        MachineConfig::machine_a(),
        MachineConfig::machine_a_dram(),
        MachineConfig::machine_a_cxl_ssd(256),
        MachineConfig::machine_b_fast(),
        MachineConfig::machine_b_slow(),
    ] {
        let replay = |cfg: &MachineConfig| try_simulate(cfg, traces).expect("valid trace");
        let clean = replay(&clean_cfg);
        let mut cfg = clean_cfg.clone();
        cfg.device.inject_faults(Some(TransientFaults::new(4, 1_000)));
        let faulty = replay(&cfg);
        assert!(
            faulty.cpu_cycles > clean.cpu_cycles,
            "{}: faults {} !> clean {}",
            cfg.name,
            faulty.cpu_cycles,
            clean.cpu_cycles
        );
        assert_eq!(replay(&cfg), faulty, "{}: fault injection is deterministic", cfg.name);
        cfg.device.inject_faults(None);
        assert_eq!(replay(&cfg), clean, "{}: disarming restores the clean run", cfg.name);
    }
}

/// Exhaustive sweep: every mutation kind on every subject and machine,
/// several seeds each — the directed complement of the random harness.
#[test]
fn every_mutation_kind_yields_ok_or_typed_error() {
    for (name, traces, _) in subjects() {
        for mutation in Mutation::ALL {
            for seed in 0..4u64 {
                for cfg in machines() {
                    let broken = mutate(traces, mutation, seed, cfg.line_size);
                    if let Err(e) = try_simulate(&cfg, &broken) {
                        assert!(
                            !e.to_string().is_empty(),
                            "{name}/{} seed {seed}: unrenderable error",
                            mutation.name()
                        );
                    }
                }
            }
        }
    }
}

/// Desynchronizing the X9 hand-off must surface as a structured deadlock
/// (or, at worst, a watchdog report) whose report names the blocked core
/// and the line it waits on — the paper's producer/consumer pattern is
/// exactly the shape where a silent hang would otherwise occur.
#[test]
fn desynced_x9_handoff_reports_blocked_cores() {
    let (_, traces, _) = &subjects()[0];
    let cfg = MachineConfig::machine_b_fast();
    let mut mutated = 0u32;
    let mut detected = 0u32;
    for seed in 0..24u64 {
        let broken = mutate(traces, Mutation::DesyncAcquires, seed, cfg.line_size);
        let changed =
            broken.threads.iter().zip(&traces.threads).any(|(a, b)| a.events != b.events);
        if !changed {
            continue;
        }
        mutated += 1;
        let err = match try_simulate(&cfg, &broken) {
            // A bump absorbed by later releases replays fine.
            Ok(_) => continue,
            Err(e) => e,
        };
        let blocked = match &err {
            EngineError::ReplayDeadlock { blocked }
            | EngineError::StepBudgetExceeded { blocked, .. } => blocked,
            other => panic!("desync (seed {seed}) produced unexpected error: {other}"),
        };
        assert!(!blocked.is_empty(), "deadlock report (seed {seed}) names no blocked core");
        let (core, line, _seq) = blocked[0];
        let report = err.to_string();
        assert!(
            report.contains(&format!("core {core}")) && report.contains(&format!("{line:#x}")),
            "report must name the blocked core and line: {report}"
        );
        detected += 1;
    }
    assert!(mutated > 0, "no seed desynchronized the hand-off");
    assert!(detected > 0, "no desync was caught as a deadlock ({mutated} mutated seeds)");
}

/// An explicit (tiny) step budget turns even a heavily damaged replay
/// into a prompt typed report instead of a long spin.
#[test]
fn explicit_step_budget_bounds_any_replay() {
    let (_, traces, _) = &subjects()[0];
    let mut cfg = MachineConfig::machine_b_fast();
    cfg.step_budget = Some(100);
    for mutation in Mutation::ALL {
        let broken = mutate(traces, mutation, 1, cfg.line_size);
        match try_simulate(&cfg, &broken) {
            Ok(_) => panic!("a 100-step budget cannot replay thousands of events"),
            Err(EngineError::StepBudgetExceeded { steps, budget, .. }) => {
                assert_eq!(budget, 100);
                assert!(steps > budget);
            }
            // Static validation may reject the damage before replay starts.
            Err(_) => {}
        }
    }
}
