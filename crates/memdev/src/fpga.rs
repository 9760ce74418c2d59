//! FPGA-backed cache-coherent memory (Machine B / Enzian).
//!
//! The Enzian prototype attaches a Xilinx FPGA to a ThunderX ARM CPU in a
//! cache-coherent fashion; the CPU transparently caches the FPGA's memory
//! and — crucially — keeps the *coherence directory on the FPGA*, so every
//! cache-line status change pays an FPGA round trip (§4.2).
//!
//! The paper evaluates two configurations:
//!
//! * **Machine B-Fast** — 60-cycle access, 10 GB/s (future high-end CXL).
//! * **Machine B-Slow** — 200-cycle access, 1.5 GB/s (medium-tier CXL).
//!
//! The FPGA interleaves requests across several memory controllers, so it
//! has no write-amplification behaviour (§7.3: "the machine does not
//! benefit from the increase in sequentiality") — its granularity equals
//! the CPU line size.

use crate::{DeviceStats, FaultInjectionUnsupported, MemDevice, TransientFaults};
use simcore::{Addr, Cycles};

/// FPGA memory with configurable latency and bandwidth.
#[derive(Debug, Clone)]
pub struct FpgaMem {
    latency: Cycles,
    bandwidth: f64,
    line: u64,
    stats: DeviceStats,
    /// Transient-fault injection schedule, if enabled.
    faults: Option<TransientFaults>,
}

impl FpgaMem {
    /// Create an FPGA memory.
    ///
    /// * `latency` — access latency in CPU cycles (also the directory cost).
    /// * `bandwidth` — bytes per CPU cycle.
    /// * `line` — CPU cache line size (128 B on the ThunderX).
    pub fn new(latency: Cycles, bandwidth: f64, line: u64) -> Self {
        assert!(line.is_power_of_two(), "line size must be a power of two");
        Self { latency, bandwidth, line, stats: DeviceStats::default(), faults: None }
    }

    /// A pristine copy with the same parameters and fault schedule.
    pub fn fresh(&self) -> Self {
        Self { stats: DeviceStats::default(), ..*self }
    }

    /// The paper's low-latency configuration: 60 cycles, 10 GB/s.
    ///
    /// 10 GB/s at 2 GHz is 5 bytes/cycle.
    pub fn fast() -> Self {
        Self::new(60, 5.0, 128)
    }

    /// The paper's high-latency configuration: 200 cycles, 1.5 GB/s.
    ///
    /// 1.5 GB/s at 2 GHz is 0.75 bytes/cycle.
    pub fn slow() -> Self {
        Self::new(200, 0.75, 128)
    }
}

impl MemDevice for FpgaMem {
    fn name(&self) -> &'static str {
        "FPGA memory"
    }

    #[inline]
    fn read_latency(&self) -> Cycles {
        self.latency
    }

    #[inline]
    fn write_accept_latency(&self) -> Cycles {
        2
    }

    #[inline]
    fn write_latency(&self) -> Cycles {
        // A posted write completes after one device round trip plus a
        // small controller overhead.
        self.latency + 20
    }

    #[inline]
    fn directory_latency(&self) -> Cycles {
        // The directory lives on the FPGA: updating a line's status costs
        // a full device round trip.
        self.latency
    }

    fn internal_granularity(&self) -> u64 {
        self.line
    }

    fn media_write_bandwidth(&self) -> f64 {
        self.bandwidth
    }

    fn duplex(&self) -> bool {
        // The coherent link has independent request/response directions.
        true
    }

    #[inline]
    fn receive_write(&mut self, _addr: Addr, bytes: u64) {
        self.stats.writes_received += 1;
        self.stats.bytes_received += bytes;
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

    fn inject_faults(
        &mut self,
        faults: Option<TransientFaults>,
    ) -> Result<(), FaultInjectionUnsupported> {
        self.faults = faults;
        Ok(())
    }

    #[inline]
    fn fault_stall(&self) -> Cycles {
        self.faults.map_or(0, |f| f.stall_for(&self.stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_and_slow_configurations() {
        let fast = FpgaMem::fast();
        let slow = FpgaMem::slow();
        assert_eq!(fast.read_latency(), 60);
        assert_eq!(slow.read_latency(), 200);
        assert!(fast.media_write_bandwidth() > slow.media_write_bandwidth());
        assert_eq!(fast.internal_granularity(), 128);
    }

    #[test]
    fn directory_is_on_device() {
        let f = FpgaMem::slow();
        assert_eq!(f.directory_latency(), f.read_latency());
    }

    #[test]
    fn no_write_amplification() {
        let mut f = FpgaMem::fast();
        for i in 0..100u64 {
            f.receive_write(i * 7919 % 10_000, 128);
        }
        f.flush();
        assert_eq!(f.stats().write_amplification(), 1.0);
    }
}
