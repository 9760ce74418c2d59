//! The metrics registry reconciles exactly with the statistics the
//! replays return. Every replay publishes what it measured once, at
//! whichever exit it takes, so the registry's `device.*` and `engine.*`
//! totals are sums over the returned [`RunStats`]: a publish that is
//! skipped (say, one device preset's histogram) or doubled shows up
//! here as a mismatch, not as a drift inside a tolerance.
//!
//! One test in its own process: the registry is process-global.

use machine::{CrashOutcome, CrashPlan, Machine, MachineConfig, RunStats};
use simcore::telemetry::{self, Histogram};
use simcore::{TraceSet, Tracer};

fn counter(name: &str) -> u64 {
    telemetry::snapshot().iter().find(|m| m.name == name).map_or(0, |m| m.value)
}

fn histogram(name: &'static str) -> Histogram {
    telemetry::hist_snapshot()
        .into_iter()
        .find(|h| h.name == name)
        .unwrap_or_else(|| Histogram::new(name))
}

/// One thread of scattered stores over 8 MiB (four times the LLC, so
/// dirty lines reach the device mid-run and device blocks close partly
/// covered), a cold read before each store, and a fence every 64 stores.
/// `nt` turns the stores into half-line non-temporal stores.
fn trace(nt: bool) -> TraceSet {
    let mut t = Tracer::new();
    for i in 0..40_000u64 {
        let line = i.wrapping_mul(7919) % 131_072;
        t.read((1 << 30) + line * 64, 8);
        if nt {
            t.nt_write(line * 128, 64);
        } else {
            t.write(line * 64, 8);
        }
        if i % 64 == 63 {
            t.fence();
        }
    }
    TraceSet::new(vec![t.finish()])
}

#[test]
fn registry_totals_equal_the_sums_over_returned_replays() {
    telemetry::reset();
    let stores = trace(false);
    let block_runs: Vec<(RunStats, u64)> =
        [MachineConfig::machine_a(), MachineConfig::machine_a_cxl_ssd(512)]
            .into_iter()
            .map(|cfg| {
                let stats = machine::try_simulate(&cfg, &stores).expect("replay");
                (stats, cfg.device.internal_granularity())
            })
            .collect();
    let nt = machine::try_simulate(&MachineConfig::machine_b_fast(), &trace(true))
        .expect("NT-store replay");
    let runs: Vec<&RunStats> = block_runs.iter().map(|(s, _)| s).chain([&nt]).collect();

    let sum = |f: fn(&RunStats) -> u64| runs.iter().map(|s| f(s)).sum::<u64>();
    assert_eq!(counter("device.write_bytes"), sum(|s| s.device.bytes_received));
    assert_eq!(counter("device.read_bytes"), sum(|s| s.device.bytes_read));
    assert_eq!(counter("engine.replays"), runs.len() as u64);
    assert_eq!(counter("device.flushes"), runs.len() as u64);
    let mut blocks = 0;
    for (stats, block) in &block_runs {
        assert!(stats.device.media_bytes_written > 0, "the trace must reach the media");
        assert_eq!(stats.device.media_bytes_written % block, 0);
        blocks += stats.device.media_bytes_written / block;
    }
    assert_eq!(
        histogram("device.block_covered_bytes").count,
        blocks,
        "one coverage value per closed block, on both block devices"
    );
    assert!(nt.device.bytes_received > 0 && histogram("wcbuf.flush_bytes").count > 0);

    // A crashed replay returns no RunStats: it is not a completed replay,
    // but everything it measured up to the crash is published.
    let stalls = histogram("engine.stall_cycles").count;
    let lost = histogram("crash.lost_bytes");
    let read_bytes = counter("device.read_bytes");
    let outcome = Machine::new(MachineConfig::machine_a())
        .try_run_until_crash(&stores, CrashPlan::AtStep(20_000))
        .expect("crash-armed replay");
    let CrashOutcome::Crashed(report) = outcome else { panic!("the plan must fire") };
    assert_eq!(counter("machine.crashes"), 1);
    assert_eq!(counter("engine.replays"), runs.len() as u64);
    let lost_now = histogram("crash.lost_bytes");
    assert_eq!((lost_now.count, lost_now.sum), (lost.count + 1, lost.sum + report.lost_bytes));
    assert!(
        histogram("engine.stall_cycles").count > stalls,
        "the crashed replay's fence stalls must be published"
    );
    assert!(counter("device.read_bytes") > read_bytes, "and its device reads");
}
