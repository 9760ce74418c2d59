//! Conventional DRAM: the baseline device caches were designed for.

use crate::{DeviceStats, MemDevice};
use simcore::{Addr, Cycles};

/// DDR4-class DRAM.
///
/// Internal granularity equals the CPU line size, so there is never write
/// amplification; latency and bandwidth are high enough that eviction order
/// is irrelevant — which is exactly why the paper's problems only appear on
/// *other* devices.
#[derive(Debug, Clone)]
pub struct Dram {
    read_latency: Cycles,
    directory_latency: Cycles,
    bandwidth: f64,
    stats: DeviceStats,
}

impl Default for Dram {
    fn default() -> Self {
        // ~90 ns read at 2.1 GHz, ~40 GB/s write bandwidth (~19 B/cycle).
        Self::new(190, 30, 19.0)
    }
}

impl Dram {
    /// Create a DRAM with the given read latency, directory-update latency
    /// and media write bandwidth (bytes/cycle).
    pub fn new(read_latency: Cycles, directory_latency: Cycles, bandwidth: f64) -> Self {
        Self { read_latency, directory_latency, bandwidth, stats: DeviceStats::default() }
    }

    /// A pristine copy with the same parameters and zeroed counters.
    pub fn fresh(&self) -> Self {
        Self { stats: DeviceStats::default(), ..*self }
    }
}

impl MemDevice for Dram {
    fn name(&self) -> &'static str {
        "DRAM"
    }

    #[inline]
    fn read_latency(&self) -> Cycles {
        self.read_latency
    }

    #[inline]
    fn write_accept_latency(&self) -> Cycles {
        1
    }

    #[inline]
    fn write_latency(&self) -> Cycles {
        100
    }

    #[inline]
    fn directory_latency(&self) -> Cycles {
        self.directory_latency
    }

    fn internal_granularity(&self) -> u64 {
        64
    }

    fn media_write_bandwidth(&self) -> f64 {
        self.bandwidth
    }

    #[inline]
    fn receive_write(&mut self, _addr: Addr, bytes: u64) {
        self.stats.writes_received += 1;
        self.stats.bytes_received += bytes;
        // DRAM writes exactly what it receives.
        self.stats.media_bytes_written += bytes;
    }

    #[inline]
    fn receive_read(&mut self, _addr: Addr, bytes: u64) {
        self.stats.reads_received += 1;
        self.stats.bytes_read += bytes;
    }

    fn flush(&mut self) {}

    #[inline]
    fn stats(&self) -> &DeviceStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = DeviceStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_write_amplification_ever() {
        let mut d = Dram::default();
        // Wildly random partial writes: still WA = 1.
        for i in 0..1000u64 {
            d.receive_write(i * 7919 % 100_000, 64);
        }
        d.flush();
        assert_eq!(d.stats().write_amplification(), 1.0);
    }

    #[test]
    fn reads_accounted() {
        let mut d = Dram::default();
        d.receive_read(0, 64);
        d.receive_read(64, 64);
        assert_eq!(d.stats().bytes_read, 128);
        assert_eq!(d.stats().reads_received, 2);
    }
}
