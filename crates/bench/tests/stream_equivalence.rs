//! Streaming-vs-materialized replay equivalence.
//!
//! The chunked pipeline (`machine::try_simulate_stream_opts`) must produce
//! *exactly* the statistics of the conventional materialized path — full
//! [`RunStats`] struct equality, not a digest — for every workload
//! family, at every chunk size (including pathological 1-event chunks),
//! on all three machine models. The stream digest must additionally be
//! chunk-size-invariant, since it names the stream in checks that replay
//! it at another chunk size.
//!
//! A randomized sweep replays generated traces (single-thread, and
//! two-thread with satisfiable cross-thread acquire/release hand-offs)
//! over random chunk boundaries for the same full-struct equality.

use machine::{try_simulate, try_simulate_stream_opts, MachineConfig, StreamOptions};
use prestore::PrestoreMode;
use simcore::rng::SimRng;
use simcore::stream::digest_source;
use simcore::{SliceSource, ThreadTrace, TraceSet, Tracer};
use workloads::microbench::{listing1, Listing1Params};
use workloads::nas;
use workloads::tensor::{training_step, TensorParams};
use workloads::x9::{run as run_x9, X9Params};

/// Chunk sizes swept everywhere: pathological, tiny-prime, window-ish,
/// and the library default.
const CHUNKS: [usize; 4] = [1, 7, 1024, 65_536];

fn machines() -> [(&'static str, MachineConfig); 3] {
    [
        ("machine_a", MachineConfig::machine_a()),
        ("machine_b_fast", MachineConfig::machine_b_fast()),
        ("machine_b_slow", MachineConfig::machine_b_slow()),
    ]
}

/// Assert streaming == materialized for `threads` on `cfg`, across every
/// chunk size, and return the (chunk-invariant) stream digest.
fn assert_equivalent(what: &str, cfg: &MachineConfig, threads: &[ThreadTrace]) -> u64 {
    let golden = try_simulate(cfg, &TraceSet::new(threads.to_vec()))
        .unwrap_or_else(|e| panic!("{what}: materialized replay failed: {e}"));
    let mut digests = Vec::new();
    for chunk_events in CHUNKS {
        let mut src = SliceSource::new(threads);
        let report = try_simulate_stream_opts(cfg, &mut src, StreamOptions { chunk_events })
            .unwrap_or_else(|e| panic!("{what}: streaming replay failed at {chunk_events}: {e}"));
        assert_eq!(
            report.stats, golden,
            "{what}: streaming stats diverge at chunk_events={chunk_events}"
        );
        digests.push(report.digest);
    }
    digests.dedup();
    assert_eq!(digests.len(), 1, "{what}: digest must be chunk-size-invariant");
    digests[0]
}

#[test]
fn workload_streams_match_materialized_replays() {
    let cases: Vec<(&str, Vec<ThreadTrace>)> = vec![
        (
            "listing1/clean",
            listing1(&Listing1Params::quick(), PrestoreMode::Clean).traces.threads,
        ),
        (
            "tensor/none",
            training_step(&TensorParams::quick(), PrestoreMode::None).traces.threads,
        ),
        ("x9/demote", run_x9(&X9Params::quick(), PrestoreMode::Demote).traces.threads),
        (
            "nas-mg/none",
            nas::mg::run(&nas::mg::MgParams::quick(), PrestoreMode::None).traces.threads,
        ),
    ];
    for (what, threads) in &cases {
        for (mname, cfg) in machines() {
            assert_equivalent(&format!("{what}@{mname}"), &cfg, threads);
        }
    }
}

#[test]
fn stream_digest_matches_digest_source_prepass() {
    // A digest-only pass over a source (`kv_serving --verify-materialized`)
    // must equal the digest the replaying feed accumulates.
    let threads = listing1(&Listing1Params::quick(), PrestoreMode::None).traces.threads;
    let mut src = SliceSource::new(&threads);
    let pre = digest_source(&mut src, 513);
    let report = try_simulate_stream_opts(
        &MachineConfig::machine_a(),
        &mut src,
        StreamOptions { chunk_events: 4096 },
    )
    .expect("replays");
    assert_eq!(pre, report.digest);
}

/// A generated single-thread trace mixing every event flavour.
fn random_single(rng: &mut SimRng, events: usize) -> ThreadTrace {
    let mut t = Tracer::new();
    for _ in 0..events {
        let addr = rng.gen_range(1 << 20) * 8;
        let size = 1 + rng.gen_range(256) as u32;
        match rng.gen_range(8) {
            0..=2 => t.read(addr, size),
            3 | 4 => t.write(addr, size),
            5 => t.nt_write(addr, size),
            6 => t.fence(),
            _ => t.compute(1 + rng.gen_range(50)),
        }
    }
    t.finish()
}

/// A generated two-thread trace with a satisfiable acquire hand-off:
/// thread 0 performs `k` atomics on a line, thread 1 acquires `<= k` of
/// them before reading what thread 0 wrote.
fn random_pair(rng: &mut SimRng, events: usize) -> Vec<ThreadTrace> {
    let sync_line = 1 << 30;
    let k = 1 + rng.gen_range(3) as u32;
    let mut t0 = Tracer::new();
    for _ in 0..events {
        let addr = rng.gen_range(1 << 16) * 64;
        if rng.gen_bool(0.6) {
            t0.write(addr, 64);
        } else {
            t0.read(addr, 32);
        }
    }
    for _ in 0..k {
        t0.atomic(sync_line, 8);
    }
    let mut t1 = Tracer::new();
    t1.acquire(sync_line, 1 + rng.gen_range(u64::from(k)) as u32);
    for _ in 0..events {
        let addr = rng.gen_range(1 << 16) * 64;
        t1.read(addr, 64);
    }
    t1.fence();
    vec![t0.finish(), t1.finish()]
}

#[test]
fn random_traces_match_over_random_chunk_boundaries() {
    let mut rng = SimRng::new(0xC0FFEE);
    for round in 0..8 {
        let events = 200 + rng.gen_range(1_500) as usize;
        let single = vec![random_single(&mut rng, events)];
        let pair = random_pair(&mut rng, events / 2);
        // Random chunk size per round, biased small to stress window
        // boundaries.
        let chunk = 1 + rng.gen_range(97) as usize;
        for (mname, cfg) in machines() {
            for (what, threads) in [("single", &single), ("pair", &pair)] {
                let what = format!("random-{what}/round{round}@{mname}");
                let golden = try_simulate(&cfg, &TraceSet::new(threads.clone()))
                    .unwrap_or_else(|e| panic!("{what}: materialized failed: {e}"));
                let mut src = SliceSource::new(threads);
                let report = try_simulate_stream_opts(
                    &cfg,
                    &mut src,
                    StreamOptions { chunk_events: chunk },
                )
                .unwrap_or_else(|e| panic!("{what}: streaming failed (chunk {chunk}): {e}"));
                assert_eq!(report.stats, golden, "{what}: chunk {chunk}");
            }
        }
    }
}

/// Golden stream digests for fixed inputs: these pin the digest function
/// itself (lane mixing, field widths) across refactors — a silent change
/// would make every recorded digest (`kv_serving` prints one) stale.
#[test]
fn stream_digests_are_stable() {
    let mut t = Tracer::new();
    t.write(0, 64);
    t.read(64, 32);
    t.fence();
    let one = vec![t.finish()];
    let mut src = SliceSource::new(&one);
    assert_eq!(digest_source(&mut src, 2), 0x6c13_e094_774d_a159, "tiny fixed trace");

    let threads = listing1(&Listing1Params::quick(), PrestoreMode::None).traces.threads;
    let mut src = SliceSource::new(&threads);
    let d = digest_source(&mut src, 4096);
    let mut src = SliceSource::new(&threads);
    assert_eq!(digest_source(&mut src, 1), d, "chunk-size invariance on a real workload");
}
