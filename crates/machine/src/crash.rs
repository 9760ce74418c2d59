//! Crash consistency: power-failure injection, durable/volatile state
//! partitioning, and recovery replay.
//!
//! A run armed with a [`simcore::faultinject::CrashPlan`] (via
//! [`crate::Machine::try_run_until_crash`]) simulates a power failure at a
//! chosen point: the triggering step retires, then the machine freezes and
//! its state is partitioned by what survives the power loss.
//!
//! # Durable vs. volatile-lost
//!
//! * **Durable** — bytes the backing device has *committed to media*. On
//!   block-buffered persistent devices (Optane PMEM, CXL SSD) a line is
//!   durable once its internal block has closed; lines sitting in a still
//!   *open* buffered block are received but not yet on media and are lost.
//!   On volatile devices (DRAM, FPGA memory) nothing is durable.
//! * **Volatile-lost** — dirty lines still in the L1s or the LLC, store
//!   entries pending in the per-core store buffers, open write-combining
//!   buffers, and received lines the device had not committed.
//!
//! The partition is summarized in a [`CrashReport`] with per-site
//! attribution rows (which trace site's data was in flight), and the
//! machine-independent [`CrashImage`] inside it is everything
//! [`crate::Machine::recover_and_resume`] needs to redo the lost writes
//! and replay the remaining trace. Recovery is a redo log: the durable
//! line set seeds the device image, every lost line is rewritten (charged
//! to the UNKNOWN site as recovery traffic), release counts are restored
//! so post-crash acquires still see pre-crash atomics, and replay resumes
//! from each core's saved program counter with cold caches and fresh
//! clocks.
//!
//! The recovery invariant — proven by `tests/crash_consistency.rs` — is
//! digest equivalence: crash-at-any-point followed by recovery reaches
//! the same final durable line set as an uninterrupted run.

use crate::stats::RunStats;
use simcore::stats::json_escape;
use simcore::telemetry::flight::FlightEvent;
use simcore::{Addr, Cycles, FuncId, FuncRegistry};
use std::fmt::Write as _;

/// What a crash-armed replay produced.
#[derive(Debug, Clone, PartialEq)]
pub enum CrashOutcome {
    /// The plan never fired: the replay ran to completion. The digest
    /// covers the final durable line set (the device was flushed, so every
    /// received line is on media).
    Completed {
        /// The ordinary run statistics (boxed: the variant would otherwise
        /// dwarf `Crashed`).
        stats: Box<RunStats>,
        /// [`durable_digest`] of the final durable line set, or `None` if
        /// the run was not crash-armed (the replays behind
        /// [`crate::try_simulate`] do not track received lines).
        durable_digest: Option<u64>,
    },
    /// The plan fired: the machine froze at the crash point.
    Crashed(Box<CrashReport>),
}

/// Volatile-lost state attributed to one trace site.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LostSite {
    /// Lines whose dirty data this site would have lost.
    pub lines: u64,
    /// The line-granular byte count of those lines.
    pub bytes: u64,
}

/// Everything recovery needs to resume an interrupted replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashImage {
    /// Lines committed to persistent media at the crash (sorted).
    pub durable: Vec<Addr>,
    /// Lines whose dirty data was lost (sorted, deduplicated): the redo
    /// set recovery rewrites to the device.
    pub lost: Vec<Addr>,
    /// Cumulative release counts per line at the crash (sorted by line),
    /// restored so resumed acquires see pre-crash atomics.
    pub releases: Vec<(Addr, u32)>,
    /// Per-core next-event indexes to resume from.
    pub pcs: Vec<usize>,
    /// Cache line size of the crashed machine, in bytes.
    pub line_size: u64,
}

/// The frozen state of a machine at a simulated power failure.
#[derive(Debug, Clone, PartialEq)]
pub struct CrashReport {
    /// Scheduler step at which the crash fired (the step had retired).
    pub at_step: u64,
    /// Largest core clock at the crash.
    pub at_cycle: Cycles,
    /// Fences retired before the crash (all cores).
    pub fences_seen: u64,
    /// Lines committed to persistent media.
    pub durable_lines: u64,
    /// Line-granular bytes committed to persistent media.
    pub durable_bytes: u64,
    /// Distinct lines whose dirty data was lost.
    pub lost_lines: u64,
    /// Line-granular bytes lost (`lost_lines * line_size` — an upper-bound
    /// approximation: partially filled buffers count as full lines here
    /// and are reported exactly in the fields below).
    pub lost_bytes: u64,
    /// Store-buffer entries in flight at the crash (all cores).
    pub lost_sb_entries: u64,
    /// Bytes sitting in open write-combining buffers at the crash.
    pub lost_wc_bytes: u64,
    /// Bytes buffered in the device's open internal blocks (received but
    /// not committed to media).
    pub lost_device_buffered_bytes: u64,
    /// Per-site attribution of the lost lines, sorted by [`FuncId`] with
    /// the [`FuncId::UNKNOWN`] catch-all row last (lines that lost their
    /// first-dirty tag before the crash, e.g. data already handed to the
    /// device).
    pub sites: Vec<(FuncId, LostSite)>,
    /// Flight-recorder dump: the last (up to
    /// [`simcore::telemetry::flight::FLIGHT_CAPACITY`]) retired memory
    /// events before the freeze, oldest first, each stamped with its
    /// scheduler step — and a final
    /// [`simcore::telemetry::flight::FlightKind::Crash`] marker whose
    /// `seq`/`a` are [`CrashReport::at_step`]. Pure simulated state (no
    /// wall-clock), so the dump is byte-identical across builds and
    /// determinism axes. Render with [`render_flight_jsonl`].
    pub flight: Vec<FlightEvent>,
    /// The machine-independent resume state.
    pub image: CrashImage,
}

impl CrashReport {
    /// [`durable_digest`] of the durable line set at the crash.
    pub fn durable_digest(&self) -> u64 {
        durable_digest(&self.image.durable)
    }
}

/// Render the report's flight-recorder dump as JSON Lines — the
/// `.flight.jsonl` artifact written next to a `--crash-report`. One
/// object per event, stable field order, no wall-clock content.
pub fn render_flight_jsonl(report: &CrashReport) -> String {
    simcore::telemetry::flight::render_jsonl(&report.flight)
}

/// FNV-1a digest of a *sorted* line-address set — the golden value the
/// recovery equivalence tests compare: an uninterrupted run and a
/// crash-plus-recovery run must end with the same durable digest.
pub fn durable_digest(sorted_lines: &[Addr]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &line in sorted_lines {
        for b in line.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Render a human-readable crash summary with the per-site loss table.
pub fn render_crash_table(report: &CrashReport, registry: &FuncRegistry) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "crash at step {} (cycle {}, {} fences retired)",
        report.at_step, report.at_cycle, report.fences_seen
    );
    let _ = writeln!(
        out,
        "durable: {} lines ({} B) | lost: {} lines ({} B)",
        report.durable_lines, report.durable_bytes, report.lost_lines, report.lost_bytes
    );
    let _ = writeln!(
        out,
        "  in flight: {} store-buffer entries | {} B write-combining | {} B device-buffered",
        report.lost_sb_entries, report.lost_wc_bytes, report.lost_device_buffered_bytes
    );
    let _ = writeln!(out, "durable digest: {:#018x}", report.durable_digest());
    if report.sites.is_empty() {
        let _ = writeln!(out, "per-site losses: none");
        return out;
    }
    let mut ranked: Vec<&(FuncId, LostSite)> = report.sites.iter().collect();
    ranked.sort_by(|a, b| (b.1.bytes, a.0).cmp(&(a.1.bytes, b.0)));
    let _ = writeln!(out, "per-site losses (ranked by lost bytes):");
    let _ = writeln!(out, "  {:<28} {:>10} {:>12}", "site", "lines", "bytes");
    for (f, s) in ranked {
        let name = if *f == FuncId::UNKNOWN {
            "<unattributed>".to_string()
        } else {
            registry.location(*f)
        };
        let _ = writeln!(out, "  {:<28} {:>10} {:>12}", name, s.lines, s.bytes);
    }
    out
}

/// Render the crash report as a self-contained JSON object (the artifact
/// the CI crash-smoke step uploads).
pub fn render_crash_json(report: &CrashReport, registry: &FuncRegistry) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"at_step\": {},", report.at_step);
    let _ = writeln!(out, "  \"at_cycle\": {},", report.at_cycle);
    let _ = writeln!(out, "  \"fences_seen\": {},", report.fences_seen);
    let _ = writeln!(
        out,
        "  \"durable\": {{\"lines\": {}, \"bytes\": {}}},",
        report.durable_lines, report.durable_bytes
    );
    let _ = writeln!(
        out,
        "  \"lost\": {{\"lines\": {}, \"bytes\": {}, \"sb_entries\": {}, \"wc_bytes\": {}, \"device_buffered_bytes\": {}}},",
        report.lost_lines,
        report.lost_bytes,
        report.lost_sb_entries,
        report.lost_wc_bytes,
        report.lost_device_buffered_bytes
    );
    let _ = writeln!(out, "  \"durable_digest\": {},", report.durable_digest());
    // The flight dump itself goes to a sibling `.flight.jsonl` (it can be
    // 10k lines); the report only carries its size for cross-checking.
    let _ = writeln!(out, "  \"flight_events\": {},", report.flight.len());
    out.push_str("  \"sites\": [");
    for (i, (f, s)) in report.sites.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let name = if *f == FuncId::UNKNOWN {
            "<unattributed>".to_string()
        } else {
            registry.location(*f)
        };
        let _ = write!(
            out,
            "\n    {{\"site\": \"{}\", \"lines\": {}, \"bytes\": {}}}",
            json_escape(&name),
            s.lines,
            s.bytes
        );
    }
    if !report.sites.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("],\n");
    let _ = writeln!(
        out,
        "  \"image\": {{\"durable_lines\": {}, \"lost_lines\": {}, \"releases\": {}, \"pcs\": {:?}, \"line_size\": {}}}",
        report.image.durable.len(),
        report.image.lost.len(),
        report.image.releases.len(),
        report.image.pcs,
        report.image.line_size
    );
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::telemetry::flight::FlightKind;

    fn tiny_report() -> CrashReport {
        CrashReport {
            at_step: 42,
            at_cycle: 1000,
            fences_seen: 3,
            durable_lines: 2,
            durable_bytes: 128,
            lost_lines: 1,
            lost_bytes: 64,
            lost_sb_entries: 1,
            lost_wc_bytes: 0,
            lost_device_buffered_bytes: 64,
            sites: vec![(FuncId(1), LostSite { lines: 1, bytes: 64 })],
            flight: vec![
                FlightEvent { seq: 41, kind: FlightKind::Write, a: 128, b: 900 },
                FlightEvent { seq: 42, kind: FlightKind::Crash, a: 42, b: 1000 },
            ],
            image: CrashImage {
                durable: vec![0, 64],
                lost: vec![128],
                releases: vec![(0x40, 2)],
                pcs: vec![7],
                line_size: 64,
            },
        }
    }

    #[test]
    fn digest_is_order_sensitive_and_content_sensitive() {
        assert_eq!(durable_digest(&[]), 0xcbf2_9ce4_8422_2325);
        assert_eq!(durable_digest(&[0, 64]), durable_digest(&[0, 64]));
        assert_ne!(durable_digest(&[0, 64]), durable_digest(&[0, 128]));
        assert_ne!(durable_digest(&[0, 64]), durable_digest(&[0]));
    }

    /// Registry whose `FuncId(1)` (the id `tiny_report` uses) is `writer`.
    fn registry() -> FuncRegistry {
        let mut reg = FuncRegistry::new();
        reg.register("pad", "pad.c", 1);
        assert_eq!(reg.register("writer", "listing.c", 7), FuncId(1));
        reg
    }

    #[test]
    fn table_renders_all_sections() {
        let reg = registry();
        let text = render_crash_table(&tiny_report(), &reg);
        for needle in ["crash at step 42", "durable: 2 lines", "lost: 1 lines", "listing.c"] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn json_is_well_formed_enough_to_round_trip_keys() {
        let json = render_crash_json(&tiny_report(), &registry());
        for needle in [
            "\"at_step\": 42",
            "\"durable\": {\"lines\": 2, \"bytes\": 128}",
            "\"sb_entries\": 1",
            "\"durable_digest\"",
            "\"site\": \"listing.c line 7\"",
            "\"pcs\": [7]",
        ] {
            assert!(json.contains(needle), "missing {needle:?} in:\n{json}");
        }
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn flight_dump_renders_and_ends_with_the_crash_marker() {
        let report = tiny_report();
        let dump = render_flight_jsonl(&report);
        let lines: Vec<&str> = dump.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[1], "{\"seq\":42,\"kind\":\"crash\",\"a\":42,\"b\":1000}");
        let json = render_crash_json(&report, &registry());
        assert!(json.contains("\"flight_events\": 2"), "{json}");
    }
}
