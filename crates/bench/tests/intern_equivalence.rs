//! Interned replay goldens: the flat (line-id indexed) engine must match
//! golden `RunStats` captured on the pre-interning binary, across every
//! workload family that `tests/figure_shapes.rs` exercises. Its agreement
//! with the hashed reference engine on the same cases is a unit test of
//! `machine::engine`, where the reference engine lives.

use machine::{simulate, MachineConfig, RunStats};
use prestore::PrestoreMode;
use simcore::TraceSet;
use workloads::kv::ycsb::{run_clht, run_masstree, YcsbParams};
use workloads::microbench::{listing1, listing2, listing3, Listing1Params, Listing2Params};
use workloads::nas;
use workloads::tensor::{training_step, TensorParams};
use workloads::x9::{run as run_x9, X9Params};

/// One golden case: a name, the machine, and the traces to replay.
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

/// The observable digest we pin: timing, cache counters, device traffic.
fn digest(r: &RunStats) -> [u64; 8] {
    [
        r.cycles,
        r.cpu_cycles,
        r.media_busy_cycles,
        r.l1.hits,
        r.l1.misses,
        r.llc.hits,
        r.llc.misses,
        r.device.media_bytes_written,
    ]
}

/// Golden digests captured on the pre-interning (hashed-engine) binary.
/// A row of zeros means "capture mode": the assertion is skipped and the
/// observed digest printed, to be pasted here.
fn golden() -> Vec<(&'static str, [u64; 8])> {
    vec![
        ("listing1/none", [94526, 94526, 53333, 0, 4000, 0, 0, 256000]),
        ("listing1/clean", [96522, 96522, 53333, 0, 4000, 0, 0, 256000]),
        ("listing2/demote", [29348, 29348, 453, 2358, 42, 0, 0, 2048]),
        ("listing3/clean", [601764, 601764, 45, 1999, 1, 0, 0, 256]),
        ("tensor/none", [124448, 124448, 44245, 1417, 1558, 9, 0, 200960]),
        ("clht/none", [192056, 192056, 17720, 2447, 1994, 217, 0, 79104]),
        ("masstree/clean", [267317, 267317, 19029, 25399, 3066, 944, 0, 85248]),
        ("x9/none", [43811, 43811, 614, 1320, 72, 24, 0, 3072]),
        ("x9/demote", [73679, 73679, 4096, 1328, 64, 24, 0, 3072]),
        ("nas-mg/none", [123777, 123777, 15242, 4377, 6255, 4651, 0, 63488]),
        ("nas-ft/clean", [15191, 15191, 2101, 636, 260, 0, 0, 8448]),
        ("nas-is/none", [55970, 55970, 4522, 15894, 553, 9, 0, 18432]),
        ("nas-sp/none", [146771, 146771, 31658, 1568, 4294, 1942, 0, 143360]),
        ("nas-bt/none", [54023, 54023, 12320, 1096, 1256, 444, 0, 57344]),
        ("nas-cg/none", [75521, 75521, 1877, 12470, 448, 0, 0, 4096]),
        ("nas-lu/none", [92963, 92963, 4544, 1856, 904, 0, 0, 11776]),
        ("nas-ua/none", [33950, 33950, 6826, 1016, 512, 0, 0, 32768]),
        ("nas-ep/none", [249441, 249441, 226, 1959, 65, 0, 0, 256]),
    ]
}

/// Interned replay matches the golden stats captured on the hashed build.
#[test]
fn interned_replay_matches_hashed_goldens() {
    for ((name, cfg, traces), (gname, gdigest)) in cases().into_iter().zip(golden()) {
        assert_eq!(name, gname, "case/golden lists out of sync");
        let r = simulate(&cfg, &traces);
        let d = digest(&r);
        eprintln!("GOLDEN (\"{name}\", {d:?}),");
        if gdigest != [0; 8] {
            assert_eq!(d, gdigest, "{name}: stats drifted from the hashed-engine golden");
        }
    }
}

