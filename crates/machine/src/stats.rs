//! Run statistics: what the paper measures with `perf` and `ipmctl`.

use cachesim::CacheStats;
use memdev::DeviceStats;
use simcore::telemetry::Histogram;
use simcore::{Cycles, FuncId};
use std::cmp::Reverse;

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

/// Per-trace-site attribution: where a replay's cycles, write
/// amplification and stalls come from. One row per [`FuncId`] that spent
/// cycles, caused device traffic, issued a pre-store or NT store, or
/// stalled during the run — the simulator's `perf` profile and its
/// equivalent of DirtBuster's Table-3 "which code site dirties the lines
/// that hurt" breakdown. Lives in [`RunStats::sites`].
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
    /// Cycles this site advanced its cores' clocks by: its events' costs
    /// and stalls, and an acquire's wait for its release. Over all rows,
    /// UNKNOWN included, these sum to every core's `cycles`.
    pub cycles: Cycles,
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
    /// All stall cycles attributed to the site.
    pub fn total_stall_cycles(&self) -> Cycles {
        self.fence_stall_cycles
            + self.atomic_stall_cycles
            + self.sb_stall_cycles
            + self.writeback_stall_cycles
    }

    /// Whether the row enters a site ranking ([`RunStats::site_scores`],
    /// the Table-3 view): it holds device traffic, a pre-store or NT
    /// store, or a stall. A row that only spent cycles does not.
    pub(crate) fn is_ranked(&self) -> bool {
        SiteCounters { cycles: 0, ..*self } != SiteCounters::default()
    }
}

/// The engine's per-site book: one dense row per [`FuncId`] up to the
/// largest one seen, plus a side row for [`FuncId::UNKNOWN`] so the
/// sentinel id (`u16::MAX`) never forces a 64 Ki-row table. Every count
/// the engine attributes to a site lands here, and a replay's
/// [`RunStats::sites`] is read off it.
#[derive(Debug, Default)]
pub(crate) struct SiteBook {
    rows: Vec<SiteCounters>,
    unknown: SiteCounters,
}

impl SiteBook {
    /// `site`'s row, created zeroed on first use.
    #[inline]
    pub fn row(&mut self, site: FuncId) -> &mut SiteCounters {
        if site == FuncId::UNKNOWN {
            return &mut self.unknown;
        }
        let idx = usize::from(site.0);
        if idx >= self.rows.len() {
            self.cover(idx);
        }
        &mut self.rows[idx]
    }

    /// Extend the rows through `idx`: once per new largest site id, so
    /// kept out of line of the per-step [`SiteBook::row`].
    #[cold]
    fn cover(&mut self, idx: usize) {
        self.rows.resize(idx + 1, SiteCounters::default());
    }

    /// The book as [`RunStats::sites`]: every row with a nonzero field,
    /// sorted by [`FuncId`] (UNKNOWN sorts last).
    pub fn into_sites(self) -> Vec<(FuncId, SiteCounters)> {
        let ids = (0..self.rows.len()).map(|i| FuncId(i as u16)).chain([FuncId::UNKNOWN]);
        ids.zip(self.rows.into_iter().chain([self.unknown]))
            .filter(|(_, row)| *row != SiteCounters::default())
            .collect()
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

impl CoreStats {
    /// All stall cycles of the core, of the four kinds.
    pub fn total_stall_cycles(&self) -> Cycles {
        self.fence_stall_cycles
            + self.atomic_stall_cycles
            + self.sb_pressure_stall_cycles
            + self.writeback_stall_cycles
    }
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
    /// Per-trace-site attribution of cycles, device traffic and stalls,
    /// sorted by [`FuncId`] (so two runs of the same trace compare equal).
    /// The `cycles` column is the simulator's `perf` profile: every clock
    /// advance is charged to the function that caused it, so claims like
    /// "pre-storing reduces the time spent in the atomic instructions of
    /// the lock" (§7.3.1) can be checked directly. A [`FuncId::UNKNOWN`]
    /// row collects what the engine could not tie to a site (untraced
    /// callers, the end-of-run drains and device flush).
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
        self.site(func).map_or(0, |s| s.cycles)
    }

    /// The attribution row for `func`, if it spent cycles, caused
    /// attributed traffic or stalled this run.
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

    /// The rows [`SiteCounters::is_ranked`] admits, UNKNOWN included, by
    /// media bytes, then stall cycles, then [`FuncId`]: a total order, so
    /// equal runs rank identically (the order of the Table-3 view).
    pub(crate) fn ranked_sites(&self) -> Vec<&(FuncId, SiteCounters)> {
        let mut ranked: Vec<_> = self.sites.iter().filter(|(_, s)| s.is_ranked()).collect();
        ranked.sort_by_key(|(f, s)| (Reverse(s.media_bytes), Reverse(s.total_stall_cycles()), *f));
        ranked
    }

    /// Per-site score snapshot for closed-loop policy search: every
    /// *known* site with device traffic, a pre-store or a stall (not the
    /// [`FuncId::UNKNOWN`] row, nor a row that only spent cycles), ranked
    /// by media bytes, then stall cycles, then [`FuncId`] (a total order).
    pub fn site_scores(&self) -> Vec<SiteScore> {
        self.ranked_sites()
            .into_iter()
            .filter(|(f, _)| *f != FuncId::UNKNOWN)
            .map(|&(func, s)| SiteScore {
                func,
                media_bytes: s.media_bytes,
                stall_cycles: s.total_stall_cycles(),
            })
            .collect()
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
    fn site_book_reads_off_every_nonzero_row() {
        let mut book = SiteBook::default();
        book.row(FuncId::UNKNOWN).media_bytes = 9;
        book.row(FuncId(5)).cycles = 40;
        let row = book.row(FuncId(2));
        row.media_bytes = 256;
        row.fence_stall_cycles = 10;
        row.cycles = 7;
        book.row(FuncId::UNKNOWN).cycles = 3;
        let site = SiteCounters {
            media_bytes: 256,
            fence_stall_cycles: 10,
            cycles: 7,
            ..Default::default()
        };
        let cycles_only = SiteCounters { cycles: 40, ..Default::default() };
        let unknown = SiteCounters { media_bytes: 9, cycles: 3, ..Default::default() };
        assert_eq!(
            book.into_sites(),
            vec![(FuncId(2), site), (FuncId(5), cycles_only), (FuncId::UNKNOWN, unknown)],
            "untouched ids below the largest have no row; UNKNOWN sorts last"
        );
        assert!(site.is_ranked() && unknown.is_ranked());
        assert!(!cycles_only.is_ranked(), "a row with cycles only ranks nowhere");
    }

    #[test]
    fn site_rows_attribute() {
        let site = SiteCounters {
            media_bytes: 256,
            device_bytes: 64,
            fence_stall_cycles: 10,
            sb_stall_cycles: 5,
            ..Default::default()
        };
        assert_eq!(site.total_stall_cycles(), 15);

        let mut r = stats(100);
        r.sites = vec![
            (FuncId(2), site),
            (FuncId(7), SiteCounters { media_bytes: 100, cycles: 30, ..Default::default() }),
            (FuncId::UNKNOWN, SiteCounters { media_bytes: 9, ..Default::default() }),
        ];
        assert_eq!(r.site(FuncId(2)), Some(&site));
        assert_eq!(r.site(FuncId(3)), None);
        assert_eq!((r.cycles_in(FuncId(7)), r.cycles_in(FuncId(3))), (30, 0));
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
            (FuncId(5), SiteCounters { cycles: 500, ..Default::default() }),
            (FuncId::UNKNOWN, SiteCounters { media_bytes: 9999, ..Default::default() }),
        ];
        let ranked = r.site_scores();
        let order: Vec<FuncId> = ranked.iter().map(|s| s.func).collect();
        // Media first, then stalls, then id; neither UNKNOWN nor a row
        // with cycles only appears.
        assert_eq!(order, vec![FuncId(3), FuncId(2), FuncId(1), FuncId(4)]);
        assert_eq!(ranked[0].media_bytes, 900);
        assert_eq!(ranked[1].stall_cycles, 7);
    }
}
