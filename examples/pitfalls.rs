//! When pre-stores hurt (§5 and §7.4.2 of the paper).
//!
//! Three cautionary measurements:
//!
//! 1. Cleaning a constantly rewritten cache line (Listing 3) — every clean
//!    forces a writeback the next iteration must wait out: ~75x slower.
//! 2. Skipping the cache for data that is re-read — the re-read fetches
//!    from memory instead of the cache.
//! 3. Cleaning FT's hot `fftz2` scratch buffer — a write-intensive,
//!    "sequential-looking" function that DirtBuster correctly refuses to
//!    patch because its re-write distance is tiny.
//!
//! Run with `cargo run --release --example pitfalls`.

use pre_stores::dirtbuster::{analyze, DirtBusterConfig, Recommendation};
use pre_stores::machine::{simulate, MachineConfig};
use pre_stores::prestore::PrestoreMode;
use pre_stores::workloads::{microbench, nas};

fn main() {
    let cfg = MachineConfig::machine_a();

    // 1. Listing 3: the hot-line pitfall.
    let base = simulate(&cfg, &microbench::listing3(20_000, false).traces);
    let bad = simulate(&cfg, &microbench::listing3(20_000, true).traces);
    let slowdown = bad.cycles as f64 / base.cycles as f64;
    println!("1. cleaning a constantly rewritten line:  {slowdown:>6.0}x slowdown");
    assert!(slowdown > 20.0);

    // 2. Skip vs clean when the data is re-read (Listing 1 variant).
    let p = microbench::Listing1Params::new(2, 64);
    let clean = simulate(&cfg, &microbench::listing1(&p, PrestoreMode::Clean).traces);
    let skip = simulate(&cfg, &microbench::listing1(&p, PrestoreMode::Skip).traces);
    let ratio = skip.cycles as f64 / clean.cycles as f64;
    println!("2. skipping when the data is re-read:     {ratio:>6.1}x slower than cleaning");
    assert!(ratio > 1.3);

    // 3. FT's fftz2 scratch: DirtBuster says no, and it is right.
    // Short pencils make the butterfly loop tight enough that the
    // cleaned scratch is rewritten while its writeback is still in flight.
    let mut ftp = nas::ft::FtParams { n: 16, pencils: 4096, threads: 1, clean_scratch: false };
    let out = nas::ft::run(&ftp, PrestoreMode::None);
    let base = simulate(&cfg, &out.traces);
    ftp.clean_scratch = true;
    let bad = simulate(&cfg, &nas::ft::run(&ftp, PrestoreMode::None).traces);
    let slowdown = bad.cycles as f64 / base.cycles as f64;
    println!("3. cleaning FT's hot fftz2 scratch:       {slowdown:>6.1}x slowdown");
    assert!(slowdown > 1.5);

    // ... and DirtBuster's verdict on that scratch buffer:
    let analysis = analyze(&out.traces, &out.registry, &DirtBusterConfig::default());
    let fftz2 = out
        .registry
        .iter()
        .find(|(_, i)| i.name == "fftz2")
        .map(|(id, _)| id)
        .expect("fftz2 registered");
    let verdict = analysis.report_for(fftz2).map(|r| r.choice);
    println!("\nDirtBuster's recommendation for fftz2: {:?}", verdict);
    assert_eq!(
        verdict,
        Some(Recommendation::NoPrestore),
        "DirtBuster must decline to patch the hot scratch"
    );
    println!(
        "DirtBuster detects the short re-write distance of the scratch buffer\n\
         and declines — exactly the case the paper's §7.4.2 walks through."
    );
}
