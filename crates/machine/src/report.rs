//! Human-readable breakdowns of a [`RunStats`] — the simulator's
//! equivalent of a `perf` profile plus `ipmctl` media counters.

use crate::config::MachineConfig;
use crate::stats::RunStats;
use simcore::{FuncId, FuncRegistry};
use std::fmt::Write as _;

/// Render a multi-line summary of `stats` for `cfg`.
///
/// # Examples
///
/// ```
/// use machine::{report::summarize, simulate_single, MachineConfig};
/// use simcore::Tracer;
///
/// let mut t = Tracer::new();
/// t.write(0, 64);
/// t.fence();
/// let cfg = MachineConfig::machine_a();
/// let stats = simulate_single(&cfg, &t.finish());
/// let text = summarize(&stats, &cfg);
/// assert!(text.contains("write amplification"));
/// ```
pub fn summarize(stats: &RunStats, cfg: &MachineConfig) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "machine: {}", cfg.name);
    let _ = writeln!(
        out,
        "run time: {} cycles ({:.3} ms at {:.1} GHz) — {}",
        stats.cycles,
        cfg.cycles_to_seconds(stats.cycles) * 1e3,
        cfg.freq_ghz,
        if stats.is_media_bound() { "MEDIA-bound" } else { "CPU-bound" },
    );
    let _ = writeln!(
        out,
        "  cpu critical path {:>12} cycles | media busy {:>12} cycles",
        stats.cpu_cycles, stats.media_busy_cycles
    );
    let _ = writeln!(
        out,
        "stalls: fence {} | atomic {} | store-buffer pressure {} | writeback conflicts {}",
        stats.total_fence_stalls(),
        stats.total_atomic_stalls(),
        stats.cores.iter().map(|c| c.sb_pressure_stall_cycles).sum::<u64>(),
        stats.cores.iter().map(|c| c.writeback_stall_cycles).sum::<u64>(),
    );
    let _ = writeln!(
        out,
        "caches: L1 hit rate {:.1}% ({} evictions, {} dirty) | LLC hit rate {:.1}% ({} dirty evictions)",
        stats.l1.hit_rate() * 100.0,
        stats.l1.evictions,
        stats.l1.dirty_evictions,
        llc_hit_rate(stats) * 100.0,
        stats.llc.dirty_evictions,
    );
    let d = &stats.device;
    let _ = writeln!(
        out,
        "device: received {} B, media wrote {} B, read {} B (+{} B RMW) — write amplification {:.2}x",
        d.bytes_received, d.media_bytes_written, d.bytes_read, d.media_bytes_rmw_read,
        stats.write_amplification(),
    );
    for (i, c) in stats.cores.iter().enumerate() {
        let _ = writeln!(
            out,
            "  core {i}: {:>12} cycles | {} reads {} writes {} prestores {} fences {} atomics",
            c.cycles, c.read_lines, c.write_lines, c.prestores, c.fences, c.atomics
        );
    }
    out
}

/// LLC hit rate in `[0, 1]` (1.0 when nothing reached the LLC).
///
/// The engine probes the LLC with a fused hit check that counts no
/// misses, so `stats.llc.misses` stays 0 on every replay. Every LLC miss
/// is served by the device instead, so the device's read requests are the
/// miss count.
fn llc_hit_rate(stats: &RunStats) -> f64 {
    let total = stats.llc.hits + stats.device.reads_received;
    if total == 0 {
        1.0
    } else {
        stats.llc.hits as f64 / total as f64
    }
}

/// Render the per-site write-amplification and stall attribution table —
/// the paper's Table-3 style "which code site causes the device traffic"
/// breakdown. Sites are ranked by attributed media bytes (then total
/// stalls, then id, so equal runs render identically); at most `top` rows
/// are shown plus a coverage footer comparing the attributed totals to the
/// device and core counters.
///
/// # Examples
///
/// ```
/// use machine::{report::render_site_table, simulate_single, MachineConfig};
/// use simcore::{FuncRegistry, Tracer};
///
/// let mut reg = FuncRegistry::new();
/// let f = reg.register("hot_writer", "listing.c", 42);
/// let mut t = Tracer::new();
/// t.enter_raw(f);
/// for i in 0..100_000u64 {
///     t.write(i * 64 % (8 << 20), 64);
/// }
/// t.leave();
/// let stats = simulate_single(&MachineConfig::machine_a(), &t.finish());
/// let table = render_site_table(&stats, &reg, 10);
/// assert!(table.contains("listing.c"));
/// assert!(table.contains("coverage"));
/// ```
pub fn render_site_table(stats: &RunStats, registry: &FuncRegistry, top: usize) -> String {
    let mut out = String::new();
    if stats.sites.is_empty() {
        let _ = writeln!(out, "per-site attribution: no attributed device traffic or stalls");
        return out;
    }
    let mut ranked: Vec<&(FuncId, crate::stats::SiteCounters)> = stats.sites.iter().collect();
    ranked.sort_by(|a, b| {
        (b.1.media_bytes, b.1.total_stall_cycles(), a.0)
            .cmp(&(a.1.media_bytes, a.1.total_stall_cycles(), b.0))
    });
    let _ = writeln!(
        out,
        "per-site attribution (ranked by attributed media bytes):"
    );
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
    // Zero denominators (an empty or read-only trace wrote no media bytes
    // and stalled nowhere) report 0.0% coverage: there was nothing to
    // attribute, and 0/0 must not render as NaN.
    let media_cov = if media == 0 { 0.0 } else { attributed as f64 * 100.0 / media as f64 };
    let total_stalls: u64 = stats
        .cores
        .iter()
        .map(|c| {
            c.fence_stall_cycles
                + c.atomic_stall_cycles
                + c.sb_pressure_stall_cycles
                + c.writeback_stall_cycles
        })
        .sum();
    let attr_stalls = stats.attributed_stall_cycles();
    let stall_cov = if total_stalls == 0 {
        0.0
    } else {
        attr_stalls as f64 * 100.0 / total_stalls as f64
    };
    let _ = writeln!(
        out,
        "  coverage: media bytes {attributed}/{media} ({media_cov:.1}%) | stall cycles {attr_stalls}/{total_stalls} ({stall_cov:.1}%)"
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::simulate_single;
    use simcore::Tracer;

    #[test]
    fn summary_contains_all_sections() {
        let cfg = MachineConfig::machine_a();
        let mut t = Tracer::new();
        for i in 0..100u64 {
            t.write(i * 64, 64);
            t.read(i * 64, 8);
        }
        t.fence();
        let stats = simulate_single(&cfg, &t.finish());
        let text = summarize(&stats, &cfg);
        for needle in ["machine:", "run time:", "stalls:", "caches:", "device:", "core 0:"] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn bound_classification_is_printed() {
        let cfg = MachineConfig::machine_a();
        let mut t = Tracer::new();
        t.compute(1_000_000);
        let stats = simulate_single(&cfg, &t.finish());
        assert!(summarize(&stats, &cfg).contains("CPU-bound"));
    }

    #[test]
    fn empty_run_stats_render_without_site_rows() {
        // An empty trace attributes nothing; the table must degrade to the
        // one-line placeholder instead of dividing by zero.
        let stats = RunStats {
            cycles: 0,
            cpu_cycles: 0,
            media_busy_cycles: 0,
            cores: Vec::new(),
            l1: Default::default(),
            llc: Default::default(),
            device: Default::default(),
            func_cycles: Default::default(),
            sites: Vec::new(),
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
            func_cycles: Default::default(),
            sites: vec![(f, crate::stats::SiteCounters { cleans: 3, ..Default::default() })],
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

    #[test]
    fn cold_reads_report_llc_misses() {
        // 8 MiB of reads touched once: every line misses the whole
        // hierarchy and is read from the device, so the LLC hit rate is 0,
        // not the 100% a miss-free `llc` counter would suggest.
        let cfg = MachineConfig::machine_a();
        let mut t = Tracer::new();
        for i in 0..(8u64 << 20) / 64 {
            t.read(i * 64, 64);
        }
        let stats = simulate_single(&cfg, &t.finish());
        assert_eq!(stats.llc.hits, 0);
        assert_eq!(stats.device.reads_received, 131_072);
        let text = summarize(&stats, &cfg);
        assert!(text.contains("LLC hit rate 0.0%"), "{text}");
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
        let stats = simulate_single(&cfg, &t.finish());
        if stats.device.media_bytes_written == 0 && stats.attributed_stall_cycles() == 0 {
            let table = render_site_table(&stats, &reg, 10);
            assert!(!table.contains("NaN"), "{table}");
            assert!(!table.contains("(100.0%)"), "zero denominator must not claim full coverage: {table}");
        }
    }
}
