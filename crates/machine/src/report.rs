//! Human-readable breakdowns of a [`RunStats`] — the simulator's
//! equivalent of a `perf` profile plus `ipmctl` media counters.

use crate::stats::RunStats;
use simcore::{FuncId, FuncRegistry};
use std::fmt::Write as _;

/// Render the per-site write-amplification and stall attribution table —
/// the paper's Table-3 style "which code site causes the device traffic"
/// breakdown. The rows are the sites with device traffic, a pre-store or
/// NT store, or a stall (a site that only spent cycles is left out),
/// UNKNOWN included, ranked as [`RunStats::site_scores`] ranks them, so
/// equal runs render identically; at most `top` rows are shown plus a
/// coverage footer comparing the attributed totals to the device and
/// core counters.
///
/// # Examples
///
/// ```
/// use machine::{report::render_site_table, simulate, MachineConfig};
/// use simcore::{FuncRegistry, TraceSet, Tracer};
///
/// let mut reg = FuncRegistry::new();
/// let f = reg.register("hot_writer", "listing.c", 42);
/// let mut t = Tracer::new();
/// t.enter_raw(f);
/// for i in 0..100_000u64 {
///     t.write(i * 64 % (8 << 20), 64);
/// }
/// t.leave();
/// let stats = simulate(&MachineConfig::machine_a(), &TraceSet::new(vec![t.finish()]));
/// let table = render_site_table(&stats, &reg, 10);
/// assert!(table.contains("listing.c"));
/// assert!(table.contains("coverage"));
/// ```
pub fn render_site_table(stats: &RunStats, registry: &FuncRegistry, top: usize) -> String {
    let mut out = String::new();
    let ranked = stats.ranked_sites();
    if ranked.is_empty() {
        let _ = writeln!(out, "per-site attribution: no attributed device traffic or stalls");
        return out;
    }
    let _ = writeln!(out, "per-site attribution (ranked by attributed media bytes):");
    let _ = writeln!(
        out,
        "  {:<28} {:>12} {:>12} {:>10} {:>8} {:>12} {:>8} {:>8} {:>8}",
        "site", "media B", "device B", "rmw B", "evict", "stall cyc", "cleans", "demotes", "nt"
    );
    for (f, s) in ranked.iter().take(top) {
        let name = if *f == FuncId::UNKNOWN {
            "<unattributed>".to_string()
        } else {
            registry.location(*f)
        };
        let _ = writeln!(
            out,
            "  {:<28} {:>12} {:>12} {:>10} {:>8} {:>12} {:>8} {:>8} {:>8}",
            name,
            s.media_bytes,
            s.device_bytes,
            s.rmw_bytes,
            s.dirty_evictions + s.residual_lines,
            s.total_stall_cycles(),
            s.cleans,
            s.demotes,
            s.nt_lines,
        );
    }
    if ranked.len() > top {
        let _ = writeln!(out, "  … {} more sites", ranked.len() - top);
    }
    let attributed = stats.attributed_media_bytes();
    let media = stats.device.media_bytes_written;
    let total_stalls: u64 = stats.cores.iter().map(|c| c.total_stall_cycles()).sum();
    let attr_stalls = stats.attributed_stall_cycles();
    // Zero denominators (an empty or read-only trace wrote no media bytes
    // and stalled nowhere) report 0.0% coverage: there was nothing to
    // attribute, and 0/0 must not render as NaN.
    let pct = |part: u64, all: u64| if all == 0 { 0.0 } else { part as f64 * 100.0 / all as f64 };
    let (media_cov, stall_cov) = (pct(attributed, media), pct(attr_stalls, total_stalls));
    let _ = writeln!(
        out,
        "  coverage: media bytes {attributed}/{media} ({media_cov:.1}%) | stall cycles {attr_stalls}/{total_stalls} ({stall_cov:.1}%)"
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;
    use simcore::{ThreadTrace, TraceSet, Tracer};

    fn replay_one(cfg: &MachineConfig, trace: ThreadTrace) -> RunStats {
        crate::simulate(cfg, &TraceSet::new(vec![trace]))
    }

    #[test]
    fn cycles_only_run_renders_without_site_rows() {
        // A run that only spent cycles (here at an untraced site)
        // attributes no traffic or stalls; the table must degrade to the
        // one-line placeholder instead of dividing by zero.
        let stats = RunStats {
            cycles: 0,
            cpu_cycles: 0,
            media_busy_cycles: 0,
            cores: Vec::new(),
            l1: Default::default(),
            llc: Default::default(),
            device: Default::default(),
            sites: vec![(FuncId::UNKNOWN, crate::SiteCounters { cycles: 5, ..Default::default() })],
            timeseries: Vec::new(),
            timeseries_window_cycles: 0,
            request_latency: Vec::new(),
        };
        let table = render_site_table(&stats, &simcore::FuncRegistry::new(), 10);
        assert!(table.contains("no attributed device traffic or stalls"), "{table}");
        assert!(!table.contains("NaN"), "{table}");
    }

    #[test]
    fn zero_denominator_coverage_prints_zero_percent() {
        // A site row can exist (e.g. a pre-store action) while the run
        // wrote no media bytes and paid no stalls: both coverage ratios
        // are 0/0 and must print 0.0%, not NaN.
        let mut reg = simcore::FuncRegistry::new();
        let f = reg.register("reader", "app.rs", 1);
        let stats = RunStats {
            cycles: 10,
            cpu_cycles: 10,
            media_busy_cycles: 0,
            cores: vec![Default::default()],
            l1: Default::default(),
            llc: Default::default(),
            device: Default::default(),
            sites: vec![(f, crate::SiteCounters { cleans: 3, ..Default::default() })],
            timeseries: Vec::new(),
            timeseries_window_cycles: 0,
            request_latency: Vec::new(),
        };
        let table = render_site_table(&stats, &reg, 10);
        assert!(
            table.contains("media bytes 0/0 (0.0%)") && table.contains("stall cycles 0/0 (0.0%)"),
            "{table}"
        );
        assert!(!table.contains("NaN"), "{table}");
    }

    /// A read-only trace exercises the zero-denominator footer end to end:
    /// reads miss to the device but write nothing.
    #[test]
    fn read_only_trace_coverage_is_zero_percent() {
        let cfg = MachineConfig::machine_a();
        let mut reg = simcore::FuncRegistry::new();
        let f = reg.register("scan", "app.rs", 2);
        let mut t = Tracer::new();
        t.enter_raw(f);
        for i in 0..1_000u64 {
            t.read(i * 64, 64);
        }
        t.leave();
        let stats = replay_one(&cfg, t.finish());
        if stats.device.media_bytes_written == 0 && stats.attributed_stall_cycles() == 0 {
            let table = render_site_table(&stats, &reg, 10);
            assert!(!table.contains("NaN"), "{table}");
            assert!(!table.contains("(100.0%)"), "zero denominator must not claim full coverage: {table}");
        }
    }
}
