//! Ablation studies beyond the paper's figures.
//!
//! The paper's evaluation fixes several environmental parameters (device
//! granularity, cache replacement policy, FPGA latency, YCSB mix). These
//! experiments sweep them to show *why* the design works and where its
//! benefit region ends — the design-choice questions DESIGN.md calls out.

use crate::{memo, runner, FigureResult, Series};
use cachesim::{CacheConfig, ReplacementKind};
use machine::{simulate, MachineConfig};
use memdev::Device;
use prestore::PrestoreMode;
use workloads::kv::ycsb::{YcsbKind, YcsbParams};
use workloads::microbench::{Listing1Params, Listing2Params};

/// Write-amplification and clean-benefit as the device's internal write
/// granularity grows from 64 B (DRAM-like) to 1 KB (SSD-like).
///
/// Extends Table 1 / Figure 3: the benefit of cleaning scales with the
/// line-to-block mismatch; at 64 B there is nothing to coalesce.
pub fn granularity_sweep(quick: bool) -> FigureResult {
    let mut fig = FigureResult::new(
        "abl_granularity",
        "Ablation: clean benefit vs device internal granularity",
        "internal granularity (B)",
        "value",
    );
    let blocks = [64u64, 128, 256, 512, 1024];
    let modes = [PrestoreMode::None, PrestoreMode::Clean];
    let stats = runner::sweep_grid(modes.len(), blocks.len(), |m, i| {
        let block = blocks[i];
        let mut cfg = MachineConfig::machine_a();
        // The Optane preset's latency and bandwidth, varying granularity.
        cfg.device = Device::optane(block);
        let mut p = Listing1Params::new(5, 1024);
        if quick {
            p.footprint = 8 * 1024 * 1024;
            p.iters = p.footprint / 1024 / 5;
        }
        simulate(&cfg, &memo::listing1(&p, modes[m]).traces)
    });
    let mut speedup = Series::new("clean speedup (x)");
    let mut base_wa = Series::new("baseline write amplification (x)");
    for (i, &block) in blocks.iter().enumerate() {
        speedup.points.push((block as f64, stats[1][i].speedup_vs(&stats[0][i])));
        base_wa.points.push((block as f64, stats[0][i].write_amplification()));
    }
    fig.series.push(speedup);
    fig.series.push(base_wa);
    fig.notes.push("at 64B granularity there is no mismatch and no benefit".into());
    fig
}

/// The §4.1 premise, isolated: the same sequential writer under different
/// LLC replacement policies. True LRU preserves eviction order (little
/// amplification, little to gain); pseudo-random policies scramble it.
pub fn replacement_policy_sweep(quick: bool) -> FigureResult {
    let mut fig = FigureResult::new(
        "abl_replacement",
        "Ablation: baseline write amplification vs LLC replacement policy",
        "policy index (LRU, TreePLRU, FIFO, Random, NRU)",
        "write amplification (x)",
    );
    let policies = [
        ReplacementKind::Lru,
        ReplacementKind::TreePlru,
        ReplacementKind::Fifo,
        ReplacementKind::Random,
        ReplacementKind::NruRandom,
    ];
    let modes = [PrestoreMode::None, PrestoreMode::Clean];
    let stats = runner::sweep_grid(modes.len(), policies.len(), |m, i| {
        let mut cfg = MachineConfig::machine_a();
        cfg.llc = CacheConfig::from_capacity(2 * 1024 * 1024, 16, 64, policies[i]);
        let mut p = Listing1Params::new(2, 1024);
        if quick {
            p.footprint = 8 * 1024 * 1024;
            p.iters = p.footprint / 1024 / 2;
        }
        simulate(&cfg, &memo::listing1(&p, modes[m]).traces)
    });
    let mut base_wa = Series::new("baseline WA");
    let mut clean_wa = Series::new("clean WA");
    for (i, base) in stats[0].iter().enumerate() {
        base_wa.points.push((i as f64, base.write_amplification()));
        clean_wa.points.push((i as f64, stats[1][i].write_amplification()));
    }
    fig.series.push(base_wa);
    fig.series.push(clean_wa);
    fig.notes
        .push("cleaning pins WA to ~1 regardless of policy; the baseline depends on it".into());
    fig
}

/// Figure 5 generalized: demotion benefit (at the best overlap point) as a
/// function of the cached device's latency.
pub fn fpga_latency_sweep(quick: bool) -> FigureResult {
    let mut fig = FigureResult::new(
        "abl_latency",
        "Ablation: peak demotion benefit vs device latency",
        "device latency (cycles)",
        "best improvement (%)",
    );
    let mut s = Series::new("peak improvement");
    let iters = if quick { 2_000 } else { 10_000 };
    let lats = [15u64, 30, 60, 120, 200, 320];
    let read_counts = [5u64, 10, 20, 35, 50, 75, 110];
    // Fully flattened: 6 latencies x 7 read counts x (base, demoted) =
    // 84 individually scheduled replays; the old shape ran 14 serial
    // replays inside each of 6 jobs. Columns are (read count, variant)
    // pairs, variant fastest-varying.
    let stats = runner::sweep_grid(lats.len(), read_counts.len() * 2, |l, c| {
        let mut cfg = MachineConfig::machine_b_fast();
        // B-Fast's bandwidth, varying latency.
        cfg.device = Device::fpga(lats[l], cfg.device.media_write_bandwidth());
        let mut p = Listing2Params::new(read_counts[c / 2]);
        p.iters = iters;
        simulate(&cfg, &memo::listing2(&p, c % 2 == 1).traces)
    });
    s.points = lats
        .iter()
        .zip(&stats)
        .map(|(&lat, row)| {
            let mut best: f64 = 0.0;
            for pair in row.chunks(2) {
                best = best.max(pair[1].improvement_pct_vs(&pair[0]));
            }
            (lat as f64, best)
        })
        .collect();
    fig.series.push(s);
    fig.notes.push("the longer the device latency, the more a demote can hide".into());
    fig
}

/// §7.2.3: "read-only or read-mostly workloads (YCSB B-D) do not benefit
/// from pre-storing data" — swept across the YCSB mixes.
pub fn ycsb_mix_sweep(quick: bool) -> FigureResult {
    let mut fig = FigureResult::new(
        "abl_ycsb_mix",
        "YCSB A-D on Machine A: where pre-storing pays",
        "mix index (A, B, C, D)",
        "clean speedup (x)",
    );
    let cfg = MachineConfig::machine_a();
    let kinds = [YcsbKind::A, YcsbKind::B, YcsbKind::C, YcsbKind::D];
    let modes = [PrestoreMode::None, PrestoreMode::Clean];
    let stats = runner::sweep_grid(modes.len(), kinds.len(), |m, i| {
        let mut p = YcsbParams::new(kinds[i], 1024, 10);
        if quick {
            p.records = 6_000;
            p.ops = 8_000;
        }
        simulate(&cfg, &memo::clht(&p, modes[m]).traces)
    });
    let speedups: Vec<f64> =
        (0..kinds.len()).map(|i| stats[1][i].speedup_vs(&stats[0][i])).collect();
    let mut s = Series::new("clean speedup");
    for (i, (kind, sp)) in kinds.iter().zip(&speedups).enumerate() {
        s.points.push((i as f64, *sp));
        fig.notes.push(format!("{}: {:.2}x", kind.name(), sp));
    }
    fig.series.push(s);
    fig.notes
        .push("paper: only the update-heavy mix (A) benefits; B-D are read-dominated".into());
    fig
}

/// Extension: the KV experiment of Figure 10, moved onto a CXL SSD with
/// 512 B internal blocks — the "future servers" scenario of §3. The
/// line-to-block mismatch doubles relative to Optane, and so does what a
/// clean pre-store can recover.
pub fn cxl_kv(quick: bool) -> FigureResult {
    let mut fig = FigureResult::new(
        "ext_cxl_kv",
        "Extension: CLHT (YCSB A, 1KB values) on a CXL SSD vs Optane",
        "device (0=Optane 256B, 1=CXL SSD 512B)",
        "clean speedup (x)",
    );
    let devices =
        [(0.0, MachineConfig::machine_a()), (1.0, MachineConfig::machine_a_cxl_ssd(512))];
    let modes = [PrestoreMode::None, PrestoreMode::Clean];
    let stats = runner::sweep_grid(modes.len(), devices.len(), |m, i| {
        let cfg = &devices[i].1;
        let mut p = YcsbParams::new(YcsbKind::A, 1024, 10);
        if quick {
            p.records = 8_000;
            p.ops = 8_000;
        }
        simulate(cfg, &memo::clht(&p, modes[m]).traces)
    });
    let mut s = Series::new("clean speedup");
    let mut wa = Series::new("baseline write amplification");
    for (i, &(x, _)) in devices.iter().enumerate() {
        s.points.push((x, stats[1][i].speedup_vs(&stats[0][i])));
        wa.points.push((x, stats[0][i].write_amplification()));
    }
    fig.series.push(s);
    fig.series.push(wa);
    fig.notes.push(
        "larger internal blocks mean more amplification to recover; the gain grows".into(),
    );
    fig
}

/// Sanity: on plain DRAM (same line size as the device, cheap directory)
/// pre-stores neither help nor hurt — caches are already optimal for DRAM.
pub fn dram_sanity(quick: bool) -> FigureResult {
    let mut fig = FigureResult::new(
        "abl_dram",
        "Sanity: pre-stores on conventional DRAM",
        "mode (0=clean, 1=skip)",
        "runtime / baseline runtime",
    );
    let cfg = MachineConfig::machine_a_dram();
    let mut p = Listing1Params::new(2, 1024);
    if quick {
        p.footprint = 8 * 1024 * 1024;
        p.iters = p.footprint / 1024 / 2;
    }
    // All three replays (baseline included) are independent jobs; the
    // variants normalize against the baseline row afterwards.
    let modes = [PrestoreMode::None, PrestoreMode::Clean, PrestoreMode::Skip];
    let stats = runner::sweep(modes.len(), |i| simulate(&cfg, &memo::listing1(&p, modes[i]).traces));
    let mut s = Series::new("normalized runtime");
    s.points = (1..modes.len())
        .map(|i| ((i - 1) as f64, stats[i].cycles as f64 / stats[0].cycles as f64))
        .collect();
    fig.series.push(s);
    fig.notes.push("the paper's problems are properties of unconventional memories".into());
    fig
}
