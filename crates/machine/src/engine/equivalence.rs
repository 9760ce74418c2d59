//! Interned replay equivalence: the flat (line-id indexed) engine must be
//! bit-identical to the hashed reference engine — the interning layer is a
//! pure lookup accelerator and may never change behaviour — on every
//! workload family `tests/figure_shapes.rs` exercises and on arbitrary
//! valid traces. The bench crate's `intern_equivalence` test pins the same
//! cases' flat replays to golden digests.

use super::{simulate, try_simulate, try_simulate_threads_reference};
use crate::MachineConfig;
use prestore::PrestoreMode;
use proptest::prelude::*;
use simcore::{Event, EventKind, FuncId, ThreadTrace, TraceSet};
use workloads::kv::ycsb::{run_clht, run_masstree, YcsbParams};
use workloads::microbench::{listing1, listing2, listing3, Listing1Params, Listing2Params};
use workloads::nas;
use workloads::tensor::{training_step, TensorParams};
use workloads::x9::{run as run_x9, X9Params};

/// One case: a name, the machine, and the traces to replay.
fn cases() -> Vec<(&'static str, MachineConfig, TraceSet)> {
    let a = MachineConfig::machine_a;
    let b = MachineConfig::machine_b_fast;
    vec![
        ("listing1/none", a(), listing1(&Listing1Params::quick(), PrestoreMode::None).traces),
        ("listing1/clean", a(), listing1(&Listing1Params::quick(), PrestoreMode::Clean).traces),
        ("listing2/demote", a(), listing2(&Listing2Params::quick(), true).traces),
        ("listing3/clean", a(), listing3(2000, true).traces),
        ("tensor/none", a(), training_step(&TensorParams::quick(), PrestoreMode::None).traces),
        ("clht/none", a(), run_clht(&YcsbParams::quick(), PrestoreMode::None).traces),
        ("masstree/clean", a(), run_masstree(&YcsbParams::quick(), PrestoreMode::Clean).traces),
        ("x9/none", b(), run_x9(&X9Params::quick(), PrestoreMode::None).traces),
        ("x9/demote", MachineConfig::machine_b_slow(), run_x9(&X9Params::quick(), PrestoreMode::Demote).traces),
        ("nas-mg/none", a(), nas::mg::run(&nas::mg::MgParams::quick(), PrestoreMode::None).traces),
        ("nas-ft/clean", a(), nas::ft::run(&nas::ft::FtParams::quick(), PrestoreMode::Clean).traces),
        ("nas-is/none", a(), nas::is::run(&nas::is::IsParams::quick(), PrestoreMode::None).traces),
        ("nas-sp/none", a(), nas::sp::run(&nas::sp::SpParams::quick(), PrestoreMode::None).traces),
        ("nas-bt/none", a(), nas::bt::run(&nas::bt::BtParams::quick(), PrestoreMode::None).traces),
        ("nas-cg/none", a(), nas::cg::run(&nas::cg::CgParams::quick(), PrestoreMode::None).traces),
        ("nas-lu/none", a(), nas::lu::run(&nas::lu::LuParams::quick(), PrestoreMode::None).traces),
        ("nas-ua/none", a(), nas::ua::run(&nas::ua::UaParams::quick(), PrestoreMode::None).traces),
        ("nas-ep/none", a(), nas::ep::run(&nas::ep::EpParams::quick(), PrestoreMode::None).traces),
    ]
}

/// The flat (interned) engine and the hashed reference engine agree on the
/// *entire* `RunStats` — not just a digest — for every family.
#[test]
fn flat_and_reference_engines_agree_exactly() {
    for (name, cfg, traces) in cases() {
        let flat = simulate(&cfg, &traces);
        let reference = try_simulate_threads_reference(&cfg, &traces.threads)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(flat, reference, "{name}: flat and reference RunStats diverged");
    }
}

/// One trace event, as `Tracer` records it outside any function.
fn event(kind: EventKind, addr: u64, size: u32) -> Event {
    Event { addr, size, kind, func: FuncId::UNKNOWN, caller: FuncId::UNKNOWN }
}

/// One random event. Addresses are bounded so lines collide often
/// (exercising the ownership, writeback and NT tables) and sizes stay
/// within the validator's limits.
fn any_event() -> impl Strategy<Value = Event> {
    let addr = 0u64..(1 << 16);
    let size = 1u32..=256;
    let access = |kind| (addr.clone(), size.clone()).prop_map(move |(a, s)| event(kind, a, s));
    prop_oneof![
        access(EventKind::Read),
        access(EventKind::Write),
        access(EventKind::NtWrite),
        access(EventKind::PrestoreClean),
        access(EventKind::PrestoreDemote),
        addr.prop_map(|a| event(EventKind::Atomic, a, 8)),
        Just(event(EventKind::Fence, 0, 0)),
        (1u64..200).prop_map(|c| event(EventKind::Compute, c, 0)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Flat and reference engines agree on every `RunStats` field for
    /// arbitrary valid traces, on every evaluation machine. Traces carry
    /// no acquires so replay is deadlock-free by construction; atomics
    /// still exercise the release-sequencing table on the release side.
    #[test]
    fn flat_engine_matches_reference_on_random_traces(
        t0 in proptest::collection::vec(any_event(), 1..400),
        t1 in proptest::collection::vec(any_event(), 0..400),
    ) {
        let mut threads = vec![ThreadTrace { events: t0 }];
        if !t1.is_empty() {
            threads.push(ThreadTrace { events: t1 });
        }
        let traces = TraceSet::new(threads);
        for cfg in [
            MachineConfig::machine_a(),
            MachineConfig::machine_b_fast(),
            MachineConfig::machine_b_slow(),
        ] {
            let flat = try_simulate(&cfg, &traces);
            let reference = try_simulate_threads_reference(&cfg, &traces.threads);
            match (flat, reference) {
                (Ok(f), Ok(r)) => prop_assert_eq!(f, r, "RunStats diverged on {:?}", cfg.name),
                (f, r) => prop_assert!(false, "engine outcome diverged: {f:?} vs {r:?}"),
            }
        }
    }
}
