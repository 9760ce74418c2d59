//! Run statistics: what the paper measures with `perf` and `ipmctl`.

use cachesim::CacheStats;
use memdev::DeviceStats;
use simcore::telemetry::Histogram;
use simcore::{Cycles, FuncId};
use std::collections::HashMap;

/// Column count of the engine's per-site attribution rows (one column per
/// [`SiteCounters`] field).
pub(crate) const SITE_COLS: usize = 12;

/// Channel count of the engine's simulated-time series (one per
/// [`ts_channel`] index).
pub const TS_CHANNELS: usize = 6;

/// Maximum closed windows the engine's time-series ring retains; older
/// windows are evicted (and counted) so a long run with a tiny window
/// cannot grow memory.
pub const TS_CAPACITY: usize = 4096;

/// One closed delta window of the engine's simulated-time series; channel
/// schema in [`ts_channel`].
pub type TsWindow = simcore::telemetry::timeseries::Window<TS_CHANNELS>;

/// Channel indexes of the engine's time series ([`RunStats::timeseries`]).
/// Every channel is a *delta* over the window: events retired, lines
/// moved, cycles stalled, bytes pushed to the device during those
/// simulated cycles.
pub mod ts_channel {
    /// Scheduler steps (events) retired in the window.
    pub const STEPS: usize = 0;
    /// Cache lines read in the window (all cores).
    pub const READ_LINES: usize = 1;
    /// Cache lines written in the window (all cores).
    pub const WRITE_LINES: usize = 2;
    /// Stall cycles paid in the window (fence + atomic + store-buffer
    /// pressure + writeback-wait, all cores).
    pub const STALL_CYCLES: usize = 3;
    /// Pre-store operations issued in the window (all cores).
    pub const PRESTORES: usize = 4;
    /// Bytes of dirty data handed to the device in the window.
    pub const DEVICE_BYTES: usize = 5;

    /// Stable channel names, indexed by channel (for renderers).
    pub const NAMES: [&str; super::TS_CHANNELS] =
        ["steps", "read_lines", "write_lines", "stall_cycles", "prestores", "device_bytes"];
}

/// Column indexes into a site attribution row. The engine accumulates
/// into `SiteTable<SITE_COLS>` rows by these indexes;
/// [`SiteCounters::from_row`] is the one place that names them.
pub(crate) mod site_col {
    /// Bytes of dirty data this site's stores pushed to the device.
    pub const DEVICE_BYTES: usize = 0;
    /// Device media bytes actually written on behalf of this site
    /// (amplified: whole blocks on block-granular devices).
    pub const MEDIA_BYTES: usize = 1;
    /// Media bytes read back for read-modify-write block fills.
    pub const RMW_BYTES: usize = 2;
    /// Dirty LLC evictions whose line was first dirtied at this site.
    pub const DIRTY_EVICTIONS: usize = 3;
    /// Lines still dirty at end of run, flushed as residual writebacks.
    pub const RESIDUAL_LINES: usize = 4;
    /// Pre-store clean actions issued at this site.
    pub const CLEANS: usize = 5;
    /// Pre-store demote actions issued at this site.
    pub const DEMOTES: usize = 6;
    /// Non-temporal store lines issued at this site.
    pub const NT_LINES: usize = 7;
    /// Fence stall cycles paid at this site.
    pub const FENCE_STALL: usize = 8;
    /// Atomic stall cycles paid at this site.
    pub const ATOMIC_STALL: usize = 9;
    /// Store-buffer pressure stall cycles paid at this site.
    pub const SB_STALL: usize = 10;
    /// Writeback-wait stall cycles paid at this site.
    pub const WRITEBACK_STALL: usize = 11;
}

/// Per-trace-site attribution: where write amplification and stalls come
/// from. One row per [`FuncId`] that caused device traffic, a pre-store
/// action, or a stall during the run — the simulator's equivalent of
/// DirtBuster's Table-3 "which code site dirties the lines that hurt"
/// breakdown. Lives in [`RunStats::sites`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SiteCounters {
    /// Bytes of dirty data this site's stores pushed to the device
    /// (evictions, cleans, NT flushes, residual writebacks).
    pub device_bytes: u64,
    /// Device media bytes actually written on behalf of this site —
    /// includes block-granularity write amplification.
    pub media_bytes: u64,
    /// Media bytes read back for read-modify-write block fills caused by
    /// this site's writes.
    pub rmw_bytes: u64,
    /// Dirty LLC evictions of lines first dirtied at this site.
    pub dirty_evictions: u64,
    /// Lines this site left dirty at end of run (residual flush).
    pub residual_lines: u64,
    /// Pre-store clean actions issued at this site.
    pub cleans: u64,
    /// Pre-store demote actions issued at this site.
    pub demotes: u64,
    /// Non-temporal store lines issued at this site.
    pub nt_lines: u64,
    /// Fence stall cycles paid at this site.
    pub fence_stall_cycles: Cycles,
    /// Atomic stall cycles paid at this site.
    pub atomic_stall_cycles: Cycles,
    /// Store-buffer pressure stall cycles paid at this site.
    pub sb_stall_cycles: Cycles,
    /// Writeback-wait stall cycles paid at this site.
    pub writeback_stall_cycles: Cycles,
}

/// A cheap per-site score snapshot: the two quantities a policy search
/// ranks sites by, copied out of one [`RunStats::sites`] row. Produced by
/// [`RunStats::site_scores`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SiteScore {
    /// The attributed site.
    pub func: FuncId,
    /// Device media bytes written on behalf of this site.
    pub media_bytes: u64,
    /// Stall cycles paid at this site.
    pub stall_cycles: Cycles,
}

impl SiteCounters {
    /// Decode one attribution-table row (see [`site_col`]).
    pub(crate) fn from_row(row: &[u64; SITE_COLS]) -> Self {
        Self {
            device_bytes: row[site_col::DEVICE_BYTES],
            media_bytes: row[site_col::MEDIA_BYTES],
            rmw_bytes: row[site_col::RMW_BYTES],
            dirty_evictions: row[site_col::DIRTY_EVICTIONS],
            residual_lines: row[site_col::RESIDUAL_LINES],
            cleans: row[site_col::CLEANS],
            demotes: row[site_col::DEMOTES],
            nt_lines: row[site_col::NT_LINES],
            fence_stall_cycles: row[site_col::FENCE_STALL],
            atomic_stall_cycles: row[site_col::ATOMIC_STALL],
            sb_stall_cycles: row[site_col::SB_STALL],
            writeback_stall_cycles: row[site_col::WRITEBACK_STALL],
        }
    }

    /// All stall cycles attributed to the site.
    pub fn total_stall_cycles(&self) -> Cycles {
        self.fence_stall_cycles
            + self.atomic_stall_cycles
            + self.sb_stall_cycles
            + self.writeback_stall_cycles
    }
}

/// Counters of a single simulated core.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct CoreStats {
    /// Final local clock of the core.
    pub cycles: Cycles,
    /// Cycles stalled in fences waiting for store-buffer drains (§4.2).
    pub fence_stall_cycles: Cycles,
    /// Cycles stalled in atomic operations (drain + ownership).
    pub atomic_stall_cycles: Cycles,
    /// Cycles stalled on a full store buffer.
    pub sb_pressure_stall_cycles: Cycles,
    /// Cycles stalled waiting for an in-flight writeback of a line being
    /// rewritten (the Listing-3 pitfall).
    pub writeback_stall_cycles: Cycles,
    /// Lines read.
    pub read_lines: u64,
    /// Lines written.
    pub write_lines: u64,
    /// Pre-store operations issued.
    pub prestores: u64,
    /// Fences executed.
    pub fences: u64,
    /// Atomics executed.
    pub atomics: u64,
}

/// Aggregate result of replaying one workload on one machine.
#[derive(Debug, Clone, PartialEq)]
pub struct RunStats {
    /// Wall-clock cycles of the run: the slower of the CPU side and the
    /// bandwidth-saturated device side.
    pub cycles: Cycles,
    /// Longest per-core cycle count (CPU-side critical path).
    pub cpu_cycles: Cycles,
    /// Cycles the device media was busy (bandwidth model).
    pub media_busy_cycles: Cycles,
    /// Per-core counters.
    pub cores: Vec<CoreStats>,
    /// Aggregated private-cache counters.
    pub l1: CacheStats,
    /// Shared-cache counters.
    pub llc: CacheStats,
    /// Device counters (write amplification lives here).
    pub device: DeviceStats,
    /// Cycles attributed to each traced function (the simulator's `perf`
    /// profile): every event's cost is charged to the function that issued
    /// it, so claims like "pre-storing reduces the time spent in the
    /// atomic instructions of the lock" (§7.3.1) can be checked directly.
    pub func_cycles: HashMap<FuncId, Cycles>,
    /// Per-trace-site write-amplification and stall attribution, sorted by
    /// [`FuncId`] (so two runs of the same trace compare equal). A
    /// [`FuncId::UNKNOWN`] row collects traffic the engine could not tie
    /// to a site (untraced callers, end-of-run device flush remainders).
    pub sites: Vec<(FuncId, SiteCounters)>,
    /// Simulated-time delta windows of the run (channel schema in
    /// [`ts_channel`]). Empty unless
    /// [`crate::MachineConfig::timeseries_window`] was set; windows tile
    /// simulated time gap-free and their per-channel sums equal the
    /// end-of-run totals (minus anything evicted from the bounded ring).
    pub timeseries: Vec<TsWindow>,
    /// Window width of [`RunStats::timeseries`] in simulated cycles (0
    /// when sampling was disabled).
    pub timeseries_window_cycles: Cycles,
    /// Per-request-class latency histograms: retire-to-retire simulated
    /// cycles between consecutive request boundaries on each thread, one
    /// histogram per class of the [`simcore::RequestClasses`] classifier
    /// the run was given (empty without one). Sampled in units of
    /// simulated cycles; deterministic across all replay axes.
    pub request_latency: Vec<Histogram>,
}

impl RunStats {
    /// Write amplification observed at the device.
    pub fn write_amplification(&self) -> f64 {
        self.device.write_amplification()
    }

    /// Speedup of this run relative to `baseline` (>1 means faster).
    pub fn speedup_vs(&self, baseline: &RunStats) -> f64 {
        baseline.cycles as f64 / self.cycles as f64
    }

    /// Relative improvement over `baseline` in percent (the paper's
    /// "demotion is up to 65% faster" metric).
    pub fn improvement_pct_vs(&self, baseline: &RunStats) -> f64 {
        (self.speedup_vs(baseline) - 1.0) * 100.0
    }

    /// Throughput in operations per second given `ops` performed and the
    /// machine frequency in GHz.
    pub fn ops_per_sec(&self, ops: u64, freq_ghz: f64) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        ops as f64 * freq_ghz * 1e9 / self.cycles as f64
    }

    /// Total fence stall cycles across cores.
    pub fn total_fence_stalls(&self) -> Cycles {
        self.cores.iter().map(|c| c.fence_stall_cycles).sum()
    }

    /// Total atomic stall cycles across cores.
    pub fn total_atomic_stalls(&self) -> Cycles {
        self.cores.iter().map(|c| c.atomic_stall_cycles).sum()
    }

    /// Total fences executed across cores — the number of crash points a
    /// fence-granular [`simcore::faultinject::CrashPlan`] sweep can target.
    pub fn total_fences(&self) -> u64 {
        self.cores.iter().map(|c| c.fences).sum()
    }

    /// Whether the run was limited by device bandwidth rather than CPU.
    pub fn is_media_bound(&self) -> bool {
        self.media_busy_cycles > self.cpu_cycles
    }

    /// Cycles attributed to `func` (0 if never seen).
    pub fn cycles_in(&self, func: FuncId) -> Cycles {
        self.func_cycles.get(&func).copied().unwrap_or(0)
    }

    /// The attribution row for `func`, if it caused any attributed traffic
    /// or stalls this run.
    pub fn site(&self, func: FuncId) -> Option<&SiteCounters> {
        self.sites
            .binary_search_by_key(&func, |(f, _)| *f)
            .ok()
            .map(|i| &self.sites[i].1)
    }

    /// Device media bytes attributed to *known* trace sites (excludes the
    /// [`FuncId::UNKNOWN`] catch-all row). Compare against
    /// `device.media_bytes_written` for attribution coverage.
    pub fn attributed_media_bytes(&self) -> u64 {
        self.sites
            .iter()
            .filter(|(f, _)| *f != FuncId::UNKNOWN)
            .map(|(_, s)| s.media_bytes)
            .sum()
    }

    /// Stall cycles attributed to *known* trace sites (excludes the
    /// [`FuncId::UNKNOWN`] row). Compare against the per-core stall sums
    /// for attribution coverage.
    pub fn attributed_stall_cycles(&self) -> Cycles {
        self.sites
            .iter()
            .filter(|(f, _)| *f != FuncId::UNKNOWN)
            .map(|(_, s)| s.total_stall_cycles())
            .sum()
    }

    /// Per-site score snapshot for closed-loop policy search: every
    /// *known* attributed site (the [`FuncId::UNKNOWN`] catch-all row is
    /// excluded), ranked by attributed media bytes, then stall cycles,
    /// then [`FuncId`] — a total order, so equal runs rank identically.
    pub fn site_scores(&self) -> Vec<SiteScore> {
        let mut scores: Vec<SiteScore> = self
            .sites
            .iter()
            .filter(|(f, _)| *f != FuncId::UNKNOWN)
            .map(|(f, s)| SiteScore {
                func: *f,
                media_bytes: s.media_bytes,
                stall_cycles: s.total_stall_cycles(),
            })
            .collect();
        scores.sort_by(|a, b| {
            (b.media_bytes, b.stall_cycles, a.func).cmp(&(a.media_bytes, a.stall_cycles, b.func))
        });
        scores
    }

    /// The latency histogram of request class `name`, if the run was
    /// classified and produced one.
    pub fn request_class(&self, name: &str) -> Option<&Histogram> {
        self.request_latency.iter().find(|h| h.name == name)
    }

    /// One latency histogram merging every request class of the run
    /// (labelled `all`; empty if the run was not classified).
    pub fn request_latency_all(&self) -> Histogram {
        let mut all = Histogram::new("all");
        for h in &self.request_latency {
            all.merge(h);
        }
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(cycles: Cycles) -> RunStats {
        RunStats {
            cycles,
            cpu_cycles: cycles,
            media_busy_cycles: 0,
            cores: vec![CoreStats { cycles, ..Default::default() }],
            l1: CacheStats::default(),
            llc: CacheStats::default(),
            device: DeviceStats::default(),
            func_cycles: HashMap::new(),
            sites: Vec::new(),
            timeseries: Vec::new(),
            timeseries_window_cycles: 0,
            request_latency: Vec::new(),
        }
    }

    #[test]
    fn speedup_and_improvement() {
        let base = stats(200);
        let fast = stats(100);
        assert_eq!(fast.speedup_vs(&base), 2.0);
        assert_eq!(fast.improvement_pct_vs(&base), 100.0);
        assert_eq!(base.improvement_pct_vs(&base), 0.0);
    }

    #[test]
    fn ops_per_sec() {
        let r = stats(2_000_000_000);
        let t = r.ops_per_sec(1_000_000, 2.0);
        assert!((t - 1_000_000.0).abs() < 1.0);
        assert_eq!(stats(0).ops_per_sec(5, 2.0), 0.0);
    }

    #[test]
    fn media_bound_flag() {
        let mut r = stats(100);
        assert!(!r.is_media_bound());
        r.media_busy_cycles = 500;
        assert!(r.is_media_bound());
    }

    #[test]
    fn site_rows_decode_and_attribute() {
        let mut row = [0u64; SITE_COLS];
        row[site_col::MEDIA_BYTES] = 256;
        row[site_col::DEVICE_BYTES] = 64;
        row[site_col::FENCE_STALL] = 10;
        row[site_col::SB_STALL] = 5;
        let site = SiteCounters::from_row(&row);
        assert_eq!(site.media_bytes, 256);
        assert_eq!(site.device_bytes, 64);
        assert_eq!(site.total_stall_cycles(), 15);

        let mut r = stats(100);
        r.sites = vec![
            (FuncId(2), site),
            (FuncId(7), SiteCounters { media_bytes: 100, ..Default::default() }),
            (FuncId::UNKNOWN, SiteCounters { media_bytes: 9, ..Default::default() }),
        ];
        assert_eq!(r.site(FuncId(2)), Some(&site));
        assert_eq!(r.site(FuncId(3)), None);
        assert_eq!(r.attributed_media_bytes(), 356, "unknown row excluded");
        assert_eq!(r.attributed_stall_cycles(), 15);
    }

    #[test]
    fn request_class_lookup_and_merge() {
        let mut r = stats(100);
        let mut get = Histogram::new("get");
        get.record(10);
        get.record(30);
        let mut put = Histogram::new("put");
        put.record(50);
        r.request_latency = vec![get.clone(), put];
        assert_eq!(r.request_class("get"), Some(&get));
        assert!(r.request_class("del").is_none());
        let all = r.request_latency_all();
        assert_eq!((all.count, all.max, all.name), (3, 50, "all"));
    }

    #[test]
    fn ts_channel_names_cover_every_channel() {
        assert_eq!(ts_channel::NAMES.len(), TS_CHANNELS);
        assert_eq!(ts_channel::NAMES[ts_channel::STEPS], "steps");
        assert_eq!(ts_channel::NAMES[ts_channel::DEVICE_BYTES], "device_bytes");
    }

    #[test]
    fn site_scores_rank_with_total_tie_break() {
        let mut r = stats(100);
        r.sites = vec![
            // Stored sorted by FuncId, as the engine produces them.
            (FuncId(1), SiteCounters { media_bytes: 100, ..Default::default() }),
            (
                FuncId(2),
                SiteCounters { media_bytes: 100, fence_stall_cycles: 7, ..Default::default() },
            ),
            (FuncId(3), SiteCounters { media_bytes: 900, ..Default::default() }),
            (FuncId(4), SiteCounters { media_bytes: 100, ..Default::default() }),
            (FuncId::UNKNOWN, SiteCounters { media_bytes: 9999, ..Default::default() }),
        ];
        let ranked = r.site_scores();
        let order: Vec<FuncId> = ranked.iter().map(|s| s.func).collect();
        // Media first, then stalls, then id; UNKNOWN never appears.
        assert_eq!(order, vec![FuncId(3), FuncId(2), FuncId(1), FuncId(4)]);
        assert_eq!(ranked[0].media_bytes, 900);
        assert_eq!(ranked[1].stall_cycles, 7);
    }
}
