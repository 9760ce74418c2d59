//! Profiling harness: replays one of two synthetic 1M-event traces (a
//! Zipfian `scattered` write/read mix, or a `stream` of 1 KiB writes) in a
//! loop so a sampling profiler can attribute time. Not a benchmark (host
//! time is measured by the `benchmark/` crate) — run under a sampling
//! profiler, e.g.:
//!
//! ```console
//! cargo build --release -p ps-bench --example profile_replay
//! gprofng collect app -p high -o /tmp/replay.er \
//!     target/release/examples/profile_replay scattered 10
//! gprofng display text -functions /tmp/replay.er
//! ```
//!
//! The printed `acc` value is an iteration-count-dependent digest of the
//! replay's `RunStats`: when comparing an optimization A/B, the digest
//! must not move (the engine's outputs are bit-reproducible), so a
//! changed digest means the "optimization" changed behaviour.

use machine::{simulate, MachineConfig};
use simcore::rng::{SimRng, Zipfian};
use simcore::Tracer;

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "scattered".into());
    let iters: usize = std::env::args().nth(2).and_then(|s| s.parse().ok()).unwrap_or(5);
    let traces = match which.as_str() {
        "scattered" => {
            let mut t = Tracer::with_capacity(1 << 20);
            let mut rng = SimRng::new(17);
            let z = Zipfian::new(1 << 20, 0.99);
            for _ in 0..500_000u64 {
                let line = z.sample(&mut rng) * 64;
                t.write(line, 64);
                t.read(z.sample(&mut rng) * 64, 8);
            }
            simcore::TraceSet::new(vec![t.finish()])
        }
        _ => {
            let mut t = Tracer::with_capacity(1 << 20);
            for i in 0..500_000u64 {
                t.write(i * 1024, 1024);
                t.compute(2);
            }
            simcore::TraceSet::new(vec![t.finish()])
        }
    };
    let cfg = MachineConfig::machine_a();
    let mut acc = 0u64;
    let start = std::time::Instant::now();
    for _ in 0..iters {
        acc = acc.wrapping_add(simulate(&cfg, &traces).cycles);
    }
    println!("{which}: {iters} iters in {:?} (acc {acc})", start.elapsed());
}
