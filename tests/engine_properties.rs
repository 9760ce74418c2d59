//! Property-based tests of the replay engine and its substrates: for
//! arbitrary (valid) traces, the simulator must never panic, must be
//! deterministic, and must respect physical invariants (write
//! amplification bounds, monotone clocks, conservation of written bytes).

use pre_stores::machine::{simulate, MachineConfig, RunStats};
use pre_stores::simcore::{FuncId, PrestoreOp, ThreadTrace, TraceSet, Tracer};
use proptest::prelude::*;

/// One operation of a generated workload.
#[derive(Debug, Clone)]
enum Op {
    Read(u64, u8),
    Write(u64, u8),
    NtWrite(u64, u8),
    Clean(u64),
    Demote(u64),
    Fence,
    Atomic(u64),
    Compute(u16),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Addresses within a 1 MB arena, sizes as multiples of 8 bytes.
    let addr = 0u64..(1 << 20);
    prop_oneof![
        (addr.clone(), 1u8..32).prop_map(|(a, s)| Op::Read(a, s)),
        (addr.clone(), 1u8..32).prop_map(|(a, s)| Op::Write(a, s)),
        (addr.clone(), 1u8..32).prop_map(|(a, s)| Op::NtWrite(a, s)),
        addr.clone().prop_map(Op::Clean),
        addr.clone().prop_map(Op::Demote),
        Just(Op::Fence),
        addr.prop_map(Op::Atomic),
        (1u16..500).prop_map(Op::Compute),
    ]
}

/// Record `op` on `t`.
fn record(t: &mut Tracer, op: &Op) {
    match *op {
        Op::Read(a, s) => t.read(a, s as u32 * 8),
        Op::Write(a, s) => t.write(a, s as u32 * 8),
        Op::NtWrite(a, s) => t.nt_write(a, s as u32 * 8),
        Op::Clean(a) => t.prestore(a, 64, PrestoreOp::Clean),
        Op::Demote(a) => t.prestore(a, 64, PrestoreOp::Demote),
        Op::Fence => t.fence(),
        Op::Atomic(a) => t.atomic(a, 8),
        Op::Compute(c) => t.compute(c as u64),
    }
}

fn trace_of(ops: &[Op]) -> ThreadTrace {
    let mut t = Tracer::new();
    for op in ops {
        record(&mut t, op);
    }
    t.finish()
}

/// An op of a stall-heavy workload: `Op`s over a 16 KiB arena, so cleans,
/// NT stores and rewrites of the same lines collide, with stores of up to
/// 2 KiB, so two in a row can fill a store buffer.
fn stall_op_strategy() -> impl Strategy<Value = Op> {
    let addr = 0u64..(1 << 14);
    prop_oneof![
        (addr.clone(), 1u8..32).prop_map(|(a, s)| Op::Read(a, s)),
        (addr.clone(), 1u8..255).prop_map(|(a, s)| Op::Write(a, s)),
        (addr.clone(), 1u8..32).prop_map(|(a, s)| Op::NtWrite(a, s)),
        addr.clone().prop_map(Op::Clean),
        addr.clone().prop_map(Op::Demote),
        Just(Op::Fence),
        addr.prop_map(Op::Atomic),
        (1u16..500).prop_map(Op::Compute),
    ]
}

/// A thread of `(site, op)` pairs: each op runs under `FuncId(site)`
/// (three sites), or untraced (the UNKNOWN row) when `site` is 3.
fn sited_trace_of(ops: &[(u16, Op)]) -> ThreadTrace {
    let mut t = Tracer::new();
    for (site, op) in ops {
        if *site < 3 {
            t.enter_raw(FuncId(*site));
        }
        record(&mut t, op);
        if *site < 3 {
            t.leave();
        }
    }
    t.finish()
}

/// Each stall kind as (name, sum over the per-site rows with UNKNOWN
/// included, sum over the cores).
fn stall_books(stats: &RunStats) -> [(&'static str, u64, u64); 4] {
    let mut books = [("fence", 0, 0), ("atomic", 0, 0), ("sb pressure", 0, 0), ("writeback", 0, 0)];
    for (_, s) in &stats.sites {
        let kinds = [s.fence_stall_cycles, s.atomic_stall_cycles, s.sb_stall_cycles, s.writeback_stall_cycles];
        for (book, cycles) in books.iter_mut().zip(kinds) {
            book.1 += cycles;
        }
    }
    for c in &stats.cores {
        let kinds = [
            c.fence_stall_cycles,
            c.atomic_stall_cycles,
            c.sb_pressure_stall_cycles,
            c.writeback_stall_cycles,
        ];
        for (book, cycles) in books.iter_mut().zip(kinds) {
            book.2 += cycles;
        }
    }
    books
}

fn machines() -> Vec<MachineConfig> {
    vec![
        MachineConfig::machine_a(),
        MachineConfig::machine_a_dram(),
        MachineConfig::machine_a_cxl_ssd(512),
        MachineConfig::machine_b_fast(),
        MachineConfig::machine_b_slow(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any single-threaded op sequence replays without panicking on every
    /// machine, with a monotone non-zero clock.
    #[test]
    fn arbitrary_traces_replay(ops in proptest::collection::vec(op_strategy(), 1..300)) {
        let trace = trace_of(&ops);
        for cfg in machines() {
            let stats = simulate(&cfg, &TraceSet::new(vec![trace.clone()]));
            prop_assert!(stats.cycles >= stats.cpu_cycles.min(stats.media_busy_cycles));
            prop_assert_eq!(stats.cores.len(), 1);
        }
    }

    /// Replay is deterministic: the same trace yields identical statistics.
    #[test]
    fn replay_is_deterministic(ops in proptest::collection::vec(op_strategy(), 1..200)) {
        let trace = trace_of(&ops);
        let cfg = MachineConfig::machine_a();
        let a = simulate(&cfg, &TraceSet::new(vec![trace.clone()]));
        let b = simulate(&cfg, &TraceSet::new(vec![trace]));
        prop_assert_eq!(a, b);
    }

    /// Multi-threaded replay never panics and gives every core a clock.
    #[test]
    fn multithreaded_traces_replay(
        ops_a in proptest::collection::vec(op_strategy(), 1..120),
        ops_b in proptest::collection::vec(op_strategy(), 1..120),
        ops_c in proptest::collection::vec(op_strategy(), 1..120),
    ) {
        let traces = TraceSet::new(vec![trace_of(&ops_a), trace_of(&ops_b), trace_of(&ops_c)]);
        let stats = simulate(&MachineConfig::machine_a(), &traces);
        prop_assert_eq!(stats.cores.len(), 3);
        let max = stats.cores.iter().map(|c| c.cycles).max().unwrap();
        prop_assert_eq!(stats.cpu_cycles, max);
    }

    /// Pure sequential full-line writes never amplify on Optane: the
    /// device writes exactly the bytes it received.
    #[test]
    fn sequential_stream_never_amplifies(lines in 64u64..2048) {
        let mut t = Tracer::new();
        for i in 0..lines {
            t.write(i * 64, 64);
        }
        let stats = simulate(&MachineConfig::machine_a(), &TraceSet::new(vec![t.finish()]));
        let wa = stats.write_amplification();
        // The last 256 B block may be partially covered, costing at most
        // one extra block of media writes.
        let bound = 1.0 + 256.0 / (lines as f64 * 64.0) + 0.01;
        prop_assert!(wa >= 0.99 && wa <= bound, "sequential WA {wa} (bound {bound:.3})");
    }

    /// Write amplification is bounded by the block-to-line ratio (4x for
    /// Optane's 256 B blocks over 64 B lines), for any write pattern.
    #[test]
    fn write_amplification_is_bounded(ops in proptest::collection::vec(op_strategy(), 1..300)) {
        let trace = trace_of(&ops);
        let stats = simulate(&MachineConfig::machine_a(), &TraceSet::new(vec![trace]));
        let wa = stats.write_amplification();
        // Sub-line partial NT writes can exceed 4x against *received*
        // bytes; full-line traffic cannot. Allow the partial-write slack.
        prop_assert!(wa <= 256.0 / 8.0 + 0.01, "WA {wa} out of physical range");
        prop_assert!(stats.device.media_bytes_written.is_multiple_of(256), "media writes whole blocks");
    }

    /// Adding compute-only events never decreases the run time, and adding
    /// it between stores never changes the device traffic.
    #[test]
    fn compute_only_extends_time(ops in proptest::collection::vec(op_strategy(), 1..100)) {
        let base_trace = trace_of(&ops);
        let mut padded = Tracer::new();
        for ev in &base_trace.events {
            padded.compute(10);
            // Re-emit the event verbatim.
            padded.push_event(*ev);
        }
        let cfg = MachineConfig::machine_a();
        let base = simulate(&cfg, &TraceSet::new(vec![base_trace]));
        let slow = simulate(&cfg, &TraceSet::new(vec![padded.finish()]));
        prop_assert!(slow.cpu_cycles >= base.cpu_cycles);
        prop_assert_eq!(slow.device.bytes_received, base.device.bytes_received);
    }

    /// Cleaning everything after writing is idempotent with respect to
    /// *correctness*: device bytes received equal the bytes written plus
    /// metadata, never less than the written footprint.
    #[test]
    fn cleaned_bytes_reach_the_device(lines in 16u64..512) {
        let mut t = Tracer::new();
        for i in 0..lines {
            t.write(i * 64, 64);
            t.prestore(i * 64, 64, PrestoreOp::Clean);
        }
        let stats = simulate(&MachineConfig::machine_a(), &TraceSet::new(vec![t.finish()]));
        prop_assert!(stats.device.bytes_received >= lines * 64,
            "cleaned {} lines but device saw {} bytes", lines, stats.device.bytes_received);
    }

    /// The stall books reconcile exactly: for each stall kind, the cycles
    /// booked to the sites (the UNKNOWN row included) equal the cycles
    /// booked to the cores, on one or two threads of three sites' ops.
    #[test]
    fn site_stalls_sum_to_core_stalls(
        threads in proptest::collection::vec(
            proptest::collection::vec((0u16..4, stall_op_strategy()), 1..200),
            1..=2,
        ),
    ) {
        let traces = TraceSet::new(threads.iter().map(|ops| sited_trace_of(ops)).collect());
        for cfg in [
            MachineConfig::machine_a(),
            MachineConfig::machine_b_fast(),
            MachineConfig::machine_b_slow(),
        ] {
            let stats = simulate(&cfg, &traces);
            for (kind, sites, cores) in stall_books(&stats) {
                prop_assert_eq!(sites, cores, "{} stalls on {}", kind, cfg.name);
            }
        }
    }
}

/// The stall-book property's ops reach every stall kind: one fixed trace
/// of them books nonzero cycles of each kind on Machine B-slow.
#[test]
fn stall_ops_reach_every_stall_kind() {
    let mut ops = vec![(0, Op::Write(0, 8)), (0, Op::Clean(0)), (1, Op::Write(0, 8))];
    ops.extend((0..64u64).map(|i| (2, Op::Write(4096 + i * 128, 8))));
    ops.extend([(3, Op::NtWrite(1 << 13, 8)), (3, Op::Read(1 << 13, 8))]);
    ops.extend([(1, Op::Atomic(64)), (2, Op::Write(1 << 12, 8)), (2, Op::Fence)]);
    let traces = TraceSet::new(vec![sited_trace_of(&ops)]);
    let stats = simulate(&MachineConfig::machine_b_slow(), &traces);
    for (kind, sites, cores) in stall_books(&stats) {
        assert!(cores > 0, "no {kind} stall");
        assert_eq!(sites, cores, "{kind} stalls");
    }
}

#[test]
fn acquire_unblocks_on_release() {
    // Producer releases line 0 after 1000 cycles of work; consumer
    // acquires it and must not observe an earlier clock.
    let mut prod = Tracer::new();
    prod.compute(1000);
    prod.atomic(0, 8);
    let mut cons = Tracer::new();
    cons.acquire(0, 1);
    cons.read(0, 8);
    let stats = simulate(
        &MachineConfig::machine_b_fast(),
        &TraceSet::new(vec![prod.finish(), cons.finish()]),
    );
    assert!(
        stats.cores[1].cycles >= 1000,
        "consumer finished at {} before the producer released at >=1000",
        stats.cores[1].cycles
    );
}

#[test]
#[should_panic(expected = "deadlock")]
fn unmatched_acquire_deadlocks() {
    let mut t = Tracer::new();
    t.acquire(0, 1); // nobody ever releases line 0
    let _ = simulate(&MachineConfig::machine_a(), &TraceSet::new(vec![t.finish()]));
}
