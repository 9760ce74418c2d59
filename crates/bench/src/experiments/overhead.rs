//! §5 and §7.4: the cost of pre-stores when they are not needed.

use crate::{FigureResult, Series};
use machine::{simulate, MachineConfig};
use prestore::PrestoreMode;
use workloads::nas;

/// §5: "cleaning a cache line simply enqueues a cache line in the write
/// combining buffers of the CPU, which takes on average 1 cycle".
pub fn prestore_issue_cost(quick: bool) -> FigureResult {
    // An unsaturated loop on DRAM isolates the CPU-side issue cost: enough
    // compute per iteration that neither the drain pipeline nor the memory
    // bandwidth is the bottleneck.
    let cfg = MachineConfig::machine_a_dram();
    let iters: u64 = if quick { 20_000 } else { 200_000 };
    let mk = |clean: bool| {
        let mut t = simcore::Tracer::with_capacity(iters as usize * 3);
        for i in 0..iters {
            t.compute(40);
            t.write(i * 64, 64);
            if clean {
                t.prestore(i * 64, 64, simcore::PrestoreOp::Clean);
            }
        }
        simcore::TraceSet::new(vec![t.finish()])
    };
    let base = simulate(&cfg, &mk(false));
    let clean = simulate(&cfg, &mk(true));
    let extra = (clean.cpu_cycles as i64 - base.cpu_cycles as i64).max(0) as f64;
    let per_op = extra / iters as f64;
    let mut fig = FigureResult::new(
        "issuecost",
        "CPU-side issue cost of one clean pre-store",
        "(single point)",
        "cycles per pre-store (CPU side)",
    );
    let mut s = Series::new("issue cost");
    s.points.push((0.0, per_op));
    fig.series.push(s);
    fig.notes.push("paper: ~1 cycle on average".into());
    fig
}

/// §7.4.1: DirtBuster-guided pre-stores on the *wrong* machine (NAS and
/// the tensor workload cleaned on Machine B, where there is no write-
/// amplification problem): the overhead stays negligible.
pub fn overhead_on_machine_b(quick: bool) -> FigureResult {
    let mut fig = FigureResult::new(
        "overheadB",
        "NAS + TensorFlow cleaned on Machine B-fast: overhead of useless pre-stores",
        "workload index (MG,FT,SP,UA,BT,tensor)",
        "overhead (%)",
    );
    // §7.4.1: these applications "only use a fraction of the available
    // bandwidth of Machine B". Run them at that operating point (two
    // workers), below the FPGA link's saturation, where the extra
    // writebacks of useless cleans have bandwidth to hide in.
    let cfg = MachineConfig::machine_b_fast();
    let mut s = Series::new("overhead");
    let mut worst: f64 = 0.0;
    let mut measure = |i: f64, base: workloads::WorkloadOutput, pre: workloads::WorkloadOutput| {
        let base = simulate(&cfg, &base.traces);
        let pre = simulate(&cfg, &pre.traces);
        let overhead = (pre.cycles as f64 / base.cycles as f64 - 1.0) * 100.0;
        worst = worst.max(overhead);
        s.points.push((i, overhead));
    };
    {
        use workloads::nas;
        let n = if quick { 48 } else { 64 };
        let mg = nas::mg::MgParams { n, iters: 1, threads: 2 };
        measure(0.0, nas::mg::run(&mg, PrestoreMode::None), nas::mg::run(&mg, PrestoreMode::Clean));
        let ft = nas::ft::FtParams {
            n: 64,
            pencils: if quick { 1024 } else { 4096 },
            threads: 2,
            clean_scratch: false,
        };
        measure(1.0, nas::ft::run(&ft, PrestoreMode::None), nas::ft::run(&ft, PrestoreMode::Clean));
        let sp = nas::sp::SpParams { n, iters: 1, threads: 2 };
        measure(2.0, nas::sp::run(&sp, PrestoreMode::None), nas::sp::run(&sp, PrestoreMode::Clean));
        let ua = nas::ua::UaParams {
            elements: if quick { 4096 } else { 8192 },
            elem_vals: 64,
            iters: 1,
            threads: 2,
            seed: 11,
        };
        measure(3.0, nas::ua::run(&ua, PrestoreMode::None), nas::ua::run(&ua, PrestoreMode::Clean));
        let bt = nas::bt::BtParams { n, iters: 1, threads: 2 };
        measure(4.0, nas::bt::run(&bt, PrestoreMode::None), nas::bt::run(&bt, PrestoreMode::Clean));
    }
    {
        let mut p = workloads::tensor::TensorParams::new(16);
        p.large_elems = if quick { 1 << 17 } else { 1 << 18 };
        p.small_ops = if quick { 2_000 } else { 8_000 };
        p.threads = 2;
        measure(
            5.0,
            workloads::tensor::training_step(&p, PrestoreMode::None),
            workloads::tensor::training_step(&p, PrestoreMode::Clean),
        );
    }
    fig.series.push(s);
    fig.notes.push(format!("paper: max overhead 0.3%; measured worst {worst:.2}%"));
    fig
}

/// §7.4.2: manually mis-placed pre-stores — cleaning FT's hot `fftz2`
/// scratch (paper: 3x slowdown) and pre-storing IS's random `rank` writes
/// (paper: no effect).
pub fn bad_prestores(quick: bool) -> FigureResult {
    let cfg = MachineConfig::machine_a();
    let mut fig = FigureResult::new(
        "badprestores",
        "Manually mis-placed pre-stores (Machine A)",
        "case (0=FT fftz2 cleaned, 1=IS rank cleaned)",
        "runtime / baseline runtime",
    );
    let mut s = Series::new("slowdown");

    // FT with the scratch cleaned. Short pencils keep the butterfly loop
    // tight, so the cleaned scratch is rewritten while its writeback is
    // still in flight — the §5 mechanism behind the slowdown.
    let mut ftp = nas::ft::FtParams {
        n: 16,
        pencils: if quick { 2_048 } else { 16_384 },
        threads: 1,
        clean_scratch: false,
    };
    let base = simulate(&cfg, &nas::ft::run(&ftp, PrestoreMode::None).traces);
    ftp.clean_scratch = true;
    let bad = simulate(&cfg, &nas::ft::run(&ftp, PrestoreMode::None).traces);
    s.points.push((0.0, bad.cycles as f64 / base.cycles as f64));

    // IS with rank's random writes cleaned (same scale as Figure 9).
    let base = simulate(&cfg, &super::nas_figs::run_kernel("IS", PrestoreMode::None, quick).traces);
    let pre = simulate(&cfg, &super::nas_figs::run_kernel("IS", PrestoreMode::Clean, quick).traces);
    s.points.push((1.0, pre.cycles as f64 / base.cycles as f64));

    fig.series.push(s);
    fig.notes
        .push("paper: fftz2 cleaning -> 3x slowdown; IS rank -> no effect (~1.0)".into());
    fig
}
