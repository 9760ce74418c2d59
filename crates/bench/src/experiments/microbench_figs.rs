//! Figures 3 and 5 plus the §5 pitfall experiments (Listings 1-3).

use crate::{memo, runner, FigureResult, Series};
use machine::{simulate, MachineConfig};
use prestore::PrestoreMode;
use workloads::microbench::{Listing1Params, Listing2Params};

/// Element sizes swept by Figure 3 (64 B - 4 KB).
pub const FIG3_SIZES: [u32; 7] = [64, 128, 256, 512, 1024, 2048, 4096];

/// Thread counts shown in Figure 3.
pub const FIG3_THREADS: [usize; 3] = [1, 2, 5];

fn listing1_params(threads: usize, elem_size: u32, quick: bool) -> Listing1Params {
    let mut p = Listing1Params::new(threads, elem_size);
    if quick {
        p.footprint = 16 * 1024 * 1024;
        p.iters = (p.footprint / elem_size as u64 / threads as u64).max(200);
    }
    p
}

/// Figure 3(a): speedup from `clean` pre-stores in Listing 1, by element
/// size and thread count, on Machine A.
pub fn fig3a(quick: bool) -> FigureResult {
    let mut fig = FigureResult::new(
        "fig3a",
        "Listing 1 on Machine A: improvement from cleaning",
        "element size (B)",
        "speedup (x)",
    );
    let cfg = MachineConfig::machine_a();
    let combos: Vec<(usize, u32)> = FIG3_THREADS
        .iter()
        .flat_map(|&t| FIG3_SIZES.iter().map(move |&s| (t, s)))
        .collect();
    // One job per (mode, combo) replay: the baseline and clean replays of
    // a combo are independently schedulable, and the Clean jobs derive
    // their traces from whichever job records the memoized baseline first.
    let modes = [PrestoreMode::None, PrestoreMode::Clean];
    let stats = runner::sweep_grid(modes.len(), combos.len(), |m, i| {
        let (threads, size) = combos[i];
        let p = listing1_params(threads, size, quick);
        simulate(&cfg, &memo::listing1(&p, modes[m]).traces)
    });
    let points: Vec<(f64, f64)> = combos
        .iter()
        .enumerate()
        .map(|(i, &(_, size))| (size as f64, stats[1][i].speedup_vs(&stats[0][i])))
        .collect();
    for (t, chunk) in FIG3_THREADS.iter().zip(points.chunks(FIG3_SIZES.len())) {
        let mut s = Series::new(format!("{t} thread(s)"));
        s.points.extend_from_slice(chunk);
        fig.series.push(s);
    }
    fig.notes.push(
        "paper: no gain at 1 thread, 2.2x at 2 threads, up to 3x at 5 threads (large elements)"
            .into(),
    );
    fig
}

/// Figure 3(b): write amplification with and without cleaning.
pub fn fig3b(quick: bool) -> FigureResult {
    let mut fig = FigureResult::new(
        "fig3b",
        "Listing 1 on Machine A: write amplification",
        "element size (B)",
        "write amplification (x)",
    );
    let cfg = MachineConfig::machine_a();
    let variants: [(&str, PrestoreMode, usize); 3] = [
        ("baseline 1 thr", PrestoreMode::None, 1),
        ("baseline 5 thr", PrestoreMode::None, 5),
        ("clean 5 thr", PrestoreMode::Clean, 5),
    ];
    let rows = runner::sweep_grid(variants.len(), FIG3_SIZES.len(), |v, si| {
        let (_, mode, threads) = variants[v];
        let size = FIG3_SIZES[si];
        let p = listing1_params(threads, size, quick);
        let stats = simulate(&cfg, &memo::listing1(&p, mode).traces);
        (size as f64, stats.write_amplification())
    });
    for ((label, _, _), points) in variants.iter().zip(rows) {
        let mut s = Series::new(*label);
        s.points = points;
        fig.series.push(s);
    }
    fig.notes
        .push("paper: 1.8x at 1 thread, 3.3x at 2+ threads, ~1.0x with cleaning".into());
    fig
}

/// Read counts swept by Figure 5.
pub const FIG5_READS: [u64; 10] = [0, 5, 10, 20, 35, 50, 75, 100, 150, 250];

/// Figure 5: relative improvement from demoting before the fence
/// (Listing 2), on Machine B fast and slow.
pub fn fig5(quick: bool) -> FigureResult {
    let mut fig = FigureResult::new(
        "fig5",
        "Listing 2 on Machine B: improvement from demoting",
        "L1 reads between write and fence",
        "improvement (%)",
    );
    let machines =
        [("Machine B-fast", MachineConfig::machine_b_fast()),
         ("Machine B-slow", MachineConfig::machine_b_slow())];
    let combos: Vec<(usize, u64)> = (0..machines.len())
        .flat_map(|m| FIG5_READS.iter().map(move |&n| (m, n)))
        .collect();
    // Shard the baseline and demoted replays of each combo into their own
    // jobs (2 x 20 grid) instead of pairing them inside one job.
    let variants = [false, true];
    let stats = runner::sweep_grid(variants.len(), combos.len(), |v, i| {
        let (m, n) = combos[i];
        let cfg = &machines[m].1;
        let mut p = Listing2Params::new(n);
        if quick {
            p.iters = 2_000;
        }
        simulate(cfg, &memo::listing2(&p, variants[v]).traces)
    });
    let points: Vec<(f64, f64)> = combos
        .iter()
        .enumerate()
        .map(|(i, &(_, n))| (n as f64, stats[1][i].improvement_pct_vs(&stats[0][i])))
        .collect();
    for ((label, _), chunk) in machines.iter().zip(points.chunks(FIG5_READS.len())) {
        let mut s = Series::new(*label);
        s.points.extend_from_slice(chunk);
        fig.series.push(s);
    }
    fig.notes.push(
        "paper: up to 65% improvement; ~0% with no reads; slow FPGA peaks at larger read counts"
            .into(),
    );
    fig
}

/// §5: cleaning a constantly rewritten line (Listing 3).
pub fn listing3_pitfall(quick: bool) -> FigureResult {
    let iters = if quick { 5_000 } else { 50_000 };
    let cfg = MachineConfig::machine_a();
    let base = simulate(&cfg, &memo::listing3(iters, false).traces);
    let cleaned = simulate(&cfg, &memo::listing3(iters, true).traces);
    let slowdown = cleaned.cycles as f64 / base.cycles as f64;
    let mut fig = FigureResult::new(
        "listing3",
        "Listing 3: cleaning a hot line (pitfall)",
        "variant (0=baseline, 1=clean)",
        "slowdown (x)",
    );
    let mut s = Series::new("slowdown vs baseline");
    s.points.push((0.0, 1.0));
    s.points.push((1.0, slowdown));
    fig.series.push(s);
    fig.notes.push(format!("paper: ~75x slowdown; measured {slowdown:.0}x"));
    fig
}

/// §5: Listing 1 with the re-read removed — skipping beats cleaning; with
/// the re-read kept, skipping is ~2x slower than cleaning.
pub fn skip_variant(quick: bool) -> FigureResult {
    let cfg = MachineConfig::machine_a();
    let mut fig = FigureResult::new(
        "skipvariant",
        "Listing 1: skip vs clean, with and without the re-read",
        "variant (0=with re-read, 1=without)",
        "skip time / clean time",
    );
    let variants = [(0.0, true), (1.0, false)];
    let mut s = Series::new("skip/clean runtime ratio");
    let modes = [PrestoreMode::Clean, PrestoreMode::Skip];
    let stats = runner::sweep_grid(modes.len(), variants.len(), |m, i| {
        let (_, reread) = variants[i];
        let mut p = listing1_params(2, 64, quick);
        p.reread = reread;
        simulate(&cfg, &memo::listing1(&p, modes[m]).traces)
    });
    s.points = variants
        .iter()
        .enumerate()
        .map(|(i, &(x, _))| (x, stats[1][i].cycles as f64 / stats[0][i].cycles as f64))
        .collect();
    fig.series.push(s);
    fig.notes.push(
        "paper: with the re-read, skipping is 2x slower than cleaning; without it, skipping wins"
            .into(),
    );
    fig
}
