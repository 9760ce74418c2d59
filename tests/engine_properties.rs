//! Property-based tests of the replay engine and its substrates: for
//! arbitrary (valid) traces, the simulator must never panic, must be
//! deterministic, and must respect physical invariants (write
//! amplification bounds, monotone clocks, conservation of written bytes,
//! a per-site book that adds up to every core cycle, and pre-stores that
//! never change what becomes durable).

use pre_stores::dirtbuster::{apply_plan, PrestorePlan, Recommendation};
use pre_stores::machine::{
    simulate, try_simulate_stream_opts, CrashOutcome, CrashPlan, Machine, MachineConfig, RunStats,
    SiteCounters, StreamOptions,
};
use pre_stores::simcore::{
    Event, EventKind, FuncId, PrestoreOp, SliceSource, ThreadTrace, TraceSet, Tracer,
};
use proptest::prelude::*;

/// The line every generated acquire waits on, outside the data arenas.
const SYNC: u64 = 1 << 30;

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
    /// An atomic on [`SYNC`]: a release the acquires wait for.
    Release,
    /// An acquire of release number `n` of [`SYNC`].
    Acquire(u32),
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
        Op::Release => t.atomic(SYNC, 8),
        Op::Acquire(n) => t.acquire(SYNC, n),
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

/// A stall-heavy op, or (one in nine) a synchronization op: an acquire on
/// [`SYNC`] whose raw number [`synced_traces`] maps to a release.
fn sync_op_strategy() -> impl Strategy<Value = Op> {
    (0u8..9, stall_op_strategy(), any::<u32>())
        .prop_map(|(pick, op, n)| if pick == 0 { Op::Acquire(n) } else { op })
}

/// The trace set of per-thread `(site, op)` lists ([`sited_trace_of`])
/// with satisfiable hand-offs, as `tests/crash_anywhere.rs` builds them:
/// thread 0 is the only releaser (its acquires become releases of
/// [`SYNC`]), and every other thread's acquire waits for one of thread
/// 0's releases (or computes for a cycle when thread 0 releases nothing).
fn synced_traces(threads: &[Vec<(u16, Op)>]) -> TraceSet {
    let releases = threads[0].iter().filter(|(_, op)| matches!(op, Op::Acquire(_))).count();
    let traces = threads
        .iter()
        .enumerate()
        .map(|(thread, ops)| {
            let ops: Vec<(u16, Op)> = ops
                .iter()
                .map(|(site, op)| {
                    let op = match *op {
                        Op::Acquire(_) if thread == 0 => Op::Release,
                        Op::Acquire(_) if releases == 0 => Op::Compute(1),
                        Op::Acquire(n) => Op::Acquire(1 + n % releases as u32),
                        ref op => op.clone(),
                    };
                    (*site, op)
                })
                .collect();
            sited_trace_of(&ops)
        })
        .collect();
    TraceSet::new(traces)
}

/// A replay's book against the machine's own counters: a failed check
/// names what did not add up.
fn check_book_closes(stats: &RunStats, run: &str) -> Result<(), TestCaseError> {
    let site_cycles: u64 = stats.sites.iter().map(|(_, s)| s.cycles).sum();
    let core_cycles: u64 = stats.cores.iter().map(|c| c.cycles).sum();
    prop_assert_eq!(site_cycles, core_cycles, "cycles of {}", run);
    for (kind, sites, cores) in stall_books(stats) {
        prop_assert_eq!(sites, cores, "{} stalls of {}", kind, run);
    }
    let bytes = |f: fn(&SiteCounters) -> u64| -> u64 { stats.sites.iter().map(|(_, s)| f(s)).sum() };
    let device = &stats.device;
    prop_assert_eq!(bytes(|s| s.device_bytes), device.bytes_received, "device bytes of {}", run);
    prop_assert_eq!(bytes(|s| s.media_bytes), device.media_bytes_written, "media bytes of {}", run);
    prop_assert_eq!(bytes(|s| s.rmw_bytes), device.media_bytes_rmw_read, "RMW bytes of {}", run);
    Ok(())
}

/// `events` with pre-stores dropped and non-temporal stores read as
/// stores: the program a plan must leave unchanged.
fn program_of(events: &[Event]) -> Vec<Event> {
    events
        .iter()
        .filter(|ev| !matches!(ev.kind, EventKind::PrestoreClean | EventKind::PrestoreDemote))
        .map(|ev| match ev.kind {
            EventKind::NtWrite => Event { kind: EventKind::Write, ..*ev },
            _ => *ev,
        })
        .collect()
}

/// The durable digest of an uninterrupted crash-armed replay.
fn completed_digest(m: &Machine, traces: &TraceSet) -> u64 {
    match m.try_run_until_crash(traces, CrashPlan::AtStep(u64::MAX)) {
        Ok(CrashOutcome::Completed { durable_digest: Some(d), .. }) => d,
        Ok(other) => panic!("an unfired plan completes with a digest, got {other:?}"),
        Err(e) => panic!("satisfiable trace failed on {}: {e}", m.config().name),
    }
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

    /// The per-site book closes on every replay path: over the rows, the
    /// UNKNOWN row included, the cycles sum to every core's cycles (the
    /// acquire waits and the end-of-run drains too), each stall kind to
    /// the cores' counter of that kind, and the device, media and RMW
    /// bytes to the device's own counters — materialized, and streamed
    /// in windows of 1, 7 and 65,536 events.
    #[test]
    fn site_book_closes_on_every_core_cycle(
        threads in proptest::collection::vec(
            proptest::collection::vec((0u16..4, sync_op_strategy()), 1..150),
            1..=3,
        ),
    ) {
        let traces = synced_traces(&threads);
        for cfg in [
            MachineConfig::machine_a(),
            MachineConfig::machine_b_fast(),
            MachineConfig::machine_b_slow(),
        ] {
            check_book_closes(&simulate(&cfg, &traces), &format!("{} materialized", cfg.name))?;
            for chunk_events in [1, 7, 65_536] {
                let mut source = SliceSource::new(&traces.threads);
                let report =
                    try_simulate_stream_opts(&cfg, &mut source, StreamOptions { chunk_events })
                        .expect("satisfiable trace");
                check_book_closes(&report.stats, &format!("{} streamed by {chunk_events}", cfg.name))?;
            }
        }
    }

    /// Pre-stores are hints (ROADMAP item 2(a), first half): any plan
    /// (none, clean, demote or skip for each site, UNKNOWN included)
    /// leaves each thread's program unchanged apart from the pre-stores
    /// it inserts and the stores it makes non-temporal, and an
    /// uninterrupted replay of the patched trace makes the same lines
    /// durable on Machines A, B-fast and B-slow.
    #[test]
    fn prestore_plans_are_hints(
        threads in proptest::collection::vec(
            proptest::collection::vec((0u16..4, sync_op_strategy()), 1..50),
            1..=3,
        ),
        ops in proptest::collection::vec(0usize..4, 4),
    ) {
        let traces = synced_traces(&threads);
        let recs = [
            Recommendation::NoPrestore,
            Recommendation::Clean,
            Recommendation::Demote,
            Recommendation::Skip,
        ];
        let mut plan = PrestorePlan::empty();
        for (func, op) in [FuncId(0), FuncId(1), FuncId(2), FuncId::UNKNOWN].into_iter().zip(ops) {
            plan.force(func, recs[op]);
        }
        let patched = apply_plan(&traces, &plan);
        for (base, ours) in traces.threads.iter().zip(&patched.threads) {
            prop_assert_eq!(program_of(&base.events), program_of(&ours.events));
        }
        for cfg in [
            MachineConfig::machine_a(),
            MachineConfig::machine_b_fast(),
            MachineConfig::machine_b_slow(),
        ] {
            let m = Machine::new(cfg);
            prop_assert_eq!(
                completed_digest(&m, &patched),
                completed_digest(&m, &traces),
                "plan {} on {}", plan.signature(), m.config().name
            );
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

/// An acquire's wait for its release is the acquiring site's time: the
/// consumer's cycles at its acquiring site cover the producer's 1,000
/// cycles of work before the release, and the book still closes.
#[test]
fn acquire_wait_is_the_acquiring_sites_cycles() {
    let producer = sited_trace_of(&[(3, Op::Compute(1000)), (3, Op::Release)]);
    let consumer = sited_trace_of(&[(1, Op::Acquire(1))]);
    let stats =
        simulate(&MachineConfig::machine_b_fast(), &TraceSet::new(vec![producer, consumer]));
    assert!(stats.cycles_in(FuncId(1)) >= 1000, "the wait is unbooked: {:?}", stats.sites);
    check_book_closes(&stats, "the hand-off").expect("the book closes");
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
