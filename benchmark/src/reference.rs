//! A fixed reference loop that measures how fast the host is running right
//! now: random read-modify-writes of a 1 MiB table, memory-bound like the
//! simulator's replay. It is timed next to every sample, and the fastest
//! sample over the fastest reference loop of the same run is
//! `wall_rel`. The host this benchmark was calibrated on (see README.md)
//! slowed for minutes at a time by up to 1.8x, so the fastest sample of a
//! whole run moved with it; the reference loop slows with it and the
//! ratio stays put.
//!
//! The loop never changes with the simulator, so a simulator that gets
//! faster lowers `wall_rel` in proportion.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

const WORDS: usize = 1 << 17;
const OPS: usize = 3_000_000;

/// Static, so it stays off the heap that `peak_heap_mb` counts. Relaxed
/// loads and stores compile to plain moves.
static TABLE: [AtomicU64; WORDS] = [const { AtomicU64::new(0) }; WORDS];

/// Seconds one pass of the loop takes now.
pub fn time() -> f64 {
    let start = Instant::now();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut acc = 0;
    for _ in 0..OPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let slot = &TABLE[x as usize & (WORDS - 1)];
        let v = slot.load(Relaxed);
        acc ^= v;
        slot.store(v.wrapping_add(x), Relaxed);
    }
    black_box(acc);
    start.elapsed().as_secs_f64()
}
