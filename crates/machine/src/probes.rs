//! The replay engine's telemetry probes.
//!
//! No registry probe is touched from the step loop: the loop records into
//! a plain [`RunProbes`] value on the engine (`u64` adds and non-atomic
//! [`Histogram`] records), and the engine publishes it once per replay,
//! at whichever exit the replay takes. `finalize` publishes the
//! [`RunStats`]-derived totals ([`publish_completed`]) and, like
//! `freeze_crash`, the distributions ([`RunProbes::publish`]). The only
//! other registry touches are the `engine.replay` span, taken around each
//! replay call, and the per-replay table set-up counter.

use crate::stats::RunStats;
use simcore::telemetry::{self, Histogram, Metric};
use simcore::Addr;

/// Whole-replay span (validate-free portion: `Engine::replay`).
pub(crate) static REPLAY: Metric = Metric::span("engine.replay");
/// Completed replays.
static REPLAYS: Metric = Metric::counter("engine.replays");
/// Scheduler steps executed across all replays.
static STEPS: Metric = Metric::counter("engine.steps");
/// CPU-side critical-path cycles accumulated across replays.
static CPU_CYCLES: Metric = Metric::counter("engine.cpu_cycles");

/// Private-cache evictions (all cores).
static L1_EVICTIONS: Metric = Metric::counter("engine.l1_evictions");
/// Private-cache dirty evictions (all cores).
static L1_DIRTY_EVICTIONS: Metric = Metric::counter("engine.l1_dirty_evictions");
/// Shared-cache evictions.
static LLC_EVICTIONS: Metric = Metric::counter("engine.llc_evictions");
/// Shared-cache dirty evictions.
static LLC_DIRTY_EVICTIONS: Metric = Metric::counter("engine.llc_dirty_evictions");

/// `clean` pre-stores executed.
static PRESTORE_CLEANS: Metric = Metric::counter("engine.prestore_cleans");
/// `demote` pre-stores executed.
static PRESTORE_DEMOTES: Metric = Metric::counter("engine.prestore_demotes");
/// Lines written by non-temporal stores.
static NT_LINES: Metric = Metric::counter("engine.nt_store_lines");
/// Store-buffer drain starts (background drains of all pending entries).
static SB_DRAINS: Metric = Metric::counter("engine.sb_drain_starts");
/// Forced head drains under store-buffer capacity pressure.
static SB_FORCED_DRAINS: Metric = Metric::counter("engine.sb_forced_head_drains");

/// Cycles stalled in fences.
static FENCE_STALLS: Metric = Metric::counter("engine.fence_stall_cycles");
/// Cycles stalled in atomics.
static ATOMIC_STALLS: Metric = Metric::counter("engine.atomic_stall_cycles");
/// Cycles stalled on full store buffers.
static SB_PRESSURE_STALLS: Metric = Metric::counter("engine.sb_pressure_stall_cycles");
/// Cycles stalled on in-flight writebacks of rewritten lines.
static WRITEBACK_STALLS: Metric = Metric::counter("engine.writeback_stall_cycles");

/// Bytes the device media actually wrote (write amplification included).
static DEVICE_MEDIA_WRITTEN: Metric = Metric::counter("engine.device_media_bytes_written");
/// Bytes read from the device.
static DEVICE_BYTES_READ: Metric = Metric::counter("engine.device_bytes_read");

/// Simulated power failures that fired (crash-armed replays only).
pub(crate) static CRASHES: Metric = Metric::counter("machine.crashes");
/// Registry name of the per-crash lost-bytes distribution.
pub(crate) const CRASH_LOST_BYTES: &str = "crash.lost_bytes";

/// Flat-table set-ups, one per replay on the flat tables (one per
/// `FlatTables::new`). The name is from the epoch bump that reset the
/// recycled tables before each replay had its own; the metrics baseline
/// gates it under that name.
pub(crate) static TABLE_EPOCHS: Metric = Metric::counter("engine.table_epochs");
/// Registry name of the end-of-run live flat-table entry distribution:
/// how many lines still carried state when the replay finished.
pub(crate) const TABLE_LIVE_LINES: &str = "engine.table_live_lines";

/// One replay's probe values, kept as plain fields on the engine so the
/// step loop pays no atomics.
#[derive(Debug)]
pub(crate) struct RunProbes {
    /// `clean` pre-stores executed.
    pub cleans: u64,
    /// `demote` pre-stores executed.
    pub demotes: u64,
    /// Lines written by non-temporal stores.
    pub nt_lines: u64,
    /// Store-buffer drain starts.
    pub sb_drains: u64,
    /// Forced head drains under capacity pressure.
    pub sb_forced_drains: u64,
    /// Scheduler steps between a line's first dirtying store and the
    /// moment its dirty data leaves the hierarchy (dirty LLC eviction,
    /// clean writeback, or end-of-run residual flush).
    pub line_lifetime: Histogram,
    /// Individual stall events (fence, atomic, store-buffer pressure,
    /// writeback-wait), in cycles.
    pub stall_cycles: Histogram,
    /// |Δ| in lines between consecutive device writes: small values mean
    /// the writeback stream is sequential enough for block-granular
    /// devices to combine.
    eviction_distance: Histogram,
    /// Bytes of line-contiguous device writes before the stream breaks.
    write_burst: Histogram,
    /// Line that would continue the open write burst.
    burst_next: Addr,
    /// Bytes of the open write burst (0 before the first device write).
    burst_bytes: u64,
    /// Line of the previous device write.
    prev_write_line: Option<Addr>,
}

impl RunProbes {
    pub fn new() -> Self {
        Self {
            cleans: 0,
            demotes: 0,
            nt_lines: 0,
            sb_drains: 0,
            sb_forced_drains: 0,
            line_lifetime: Histogram::new("engine.line_lifetime_steps"),
            stall_cycles: Histogram::new("engine.stall_cycles"),
            eviction_distance: Histogram::new("engine.eviction_distance_lines"),
            write_burst: Histogram::new("engine.write_burst_bytes"),
            burst_next: 0,
            burst_bytes: 0,
            prev_write_line: None,
        }
    }

    /// Account one device write of `bytes` at `line` to the
    /// eviction-distance and write-burst distributions. `line_size` is a
    /// power of two (the caches assert it), so the distance in lines is a
    /// shift.
    #[inline]
    pub fn device_write(&mut self, line: Addr, bytes: u64, line_size: u64) {
        if let Some(prev) = self.prev_write_line {
            self.eviction_distance.record(line.abs_diff(prev) >> line_size.trailing_zeros());
        }
        self.prev_write_line = Some(line);
        if self.burst_bytes > 0 && line == self.burst_next {
            self.burst_bytes += bytes;
        } else {
            self.close_burst();
            self.burst_bytes = bytes;
        }
        self.burst_next = line + line_size;
    }

    /// Record the open write burst, if any (a completed run's last device
    /// write closes it; a crashed run's stays open).
    pub fn close_burst(&mut self) {
        if self.burst_bytes > 0 {
            self.write_burst.record(self.burst_bytes);
            self.burst_bytes = 0;
        }
    }

    /// Publish the distributions: every replay that returns, completed or
    /// crashed, calls this once.
    pub fn publish(&self) {
        for h in
            [&self.line_lifetime, &self.stall_cycles, &self.eviction_distance, &self.write_burst]
        {
            telemetry::publish(h);
        }
    }
}

/// Publish a completed replay's totals: its action counts and the
/// [`RunStats`]-derived counters.
pub(crate) fn publish_completed(stats: &RunStats, probes: &RunProbes, steps: u64) {
    REPLAYS.inc();
    STEPS.add(steps);
    CPU_CYCLES.add(stats.cpu_cycles);
    L1_EVICTIONS.add(stats.l1.evictions);
    L1_DIRTY_EVICTIONS.add(stats.l1.dirty_evictions);
    LLC_EVICTIONS.add(stats.llc.evictions);
    LLC_DIRTY_EVICTIONS.add(stats.llc.dirty_evictions);
    PRESTORE_CLEANS.add(probes.cleans);
    PRESTORE_DEMOTES.add(probes.demotes);
    NT_LINES.add(probes.nt_lines);
    SB_DRAINS.add(probes.sb_drains);
    SB_FORCED_DRAINS.add(probes.sb_forced_drains);
    FENCE_STALLS.add(stats.total_fence_stalls());
    ATOMIC_STALLS.add(stats.total_atomic_stalls());
    SB_PRESSURE_STALLS.add(stats.cores.iter().map(|c| c.sb_pressure_stall_cycles).sum());
    WRITEBACK_STALLS.add(stats.cores.iter().map(|c| c.writeback_stall_cycles).sum());
    DEVICE_MEDIA_WRITTEN.add(stats.device.media_bytes_written);
    DEVICE_BYTES_READ.add(stats.device.bytes_read);
}

/// Publish the single value `v` into the registry histogram `name` (for
/// distributions sampled once per replay).
pub(crate) fn publish_value(name: &'static str, v: u64) {
    let mut h = Histogram::new(name);
    h.record(v);
    telemetry::publish(&h);
}
