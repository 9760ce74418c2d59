//! Memory device models.
//!
//! §3 of the paper: caches increasingly front memories whose
//! characteristics diverge from classic DRAM, along two axes this crate
//! models explicitly:
//!
//! 1. **Internal write granularity** larger than the CPU cache line
//!    (Table 1: Intel 64 B vs Optane 256 B vs CXL SSD 256/512 B). A device
//!    receiving non-sequential line writebacks suffers *write
//!    amplification*: each 64 B line closes a 256 B internal block. The
//!    [`OptanePmem`] model reproduces the `ipmctl`-style media-write
//!    counters the paper measures.
//! 2. **Latency** of the device, including the cost of coherence-directory
//!    updates when the directory is stored *on* the device ([`FpgaMem`] —
//!    the Enzian configuration of Machine B).
//!
//! All devices implement [`MemDevice`]; [`Device`] provides enum dispatch.
//!
//! The models publish nothing to the metrics registry: each keeps plain
//! [`DeviceStats`] counters (and, on the block-buffered models, a
//! block-coverage [`Histogram`]) that the replay engine reads through
//! [`MemDevice::stats`] and [`Device::block_coverage`] and publishes once
//! per replay.

pub mod cxl_ssd;
pub mod dram;
pub mod fpga;
pub mod optane;

pub use cxl_ssd::CxlSsd;
pub use dram::Dram;
pub use fpga::FpgaMem;
pub use optane::OptanePmem;

use simcore::telemetry::Histogram;
use simcore::{Addr, Cycles};

/// Counters every device keeps; mirrors what `ipmctl` exposes on Optane.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct DeviceStats {
    /// Bytes received from the cache hierarchy (line writebacks, NT stores).
    pub bytes_received: u64,
    /// Bytes actually written to the media (internal-granularity blocks).
    pub media_bytes_written: u64,
    /// Bytes read from the media on behalf of the CPU.
    pub bytes_read: u64,
    /// Bytes read internally for read-modify-write of partial blocks.
    pub media_bytes_rmw_read: u64,
    /// Number of write requests received.
    pub writes_received: u64,
    /// Number of read requests received.
    pub reads_received: u64,
}

impl DeviceStats {
    /// Write amplification: media bytes written per byte received.
    ///
    /// The paper reports this as a percentage (§4.1: "180% write
    /// amplification" = every 64 B writeback writes 115 B of media); here
    /// 1.0 means no amplification. Returns 1.0 when nothing was written.
    pub fn write_amplification(&self) -> f64 {
        if self.bytes_received == 0 {
            1.0
        } else {
            self.media_bytes_written as f64 / self.bytes_received as f64
        }
    }
}

/// Configuration of deterministic transient-fault injection on a device.
///
/// Real link-attached memories occasionally stall a request far beyond
/// the nominal latency (media maintenance on Optane, link retraining on
/// the FPGA). The fault-injection harness uses this hook to check that
/// the replay pipeline stays robust when device timing degrades: every
/// `period`-th request (counting reads and writes together) takes
/// `extra_latency` additional cycles. The schedule is a pure function of
/// the device's request counters, so runs remain deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransientFaults {
    /// Stall every `period`-th request (must be non-zero).
    pub period: u64,
    /// Extra cycles the stalled request takes.
    pub extra_latency: Cycles,
}

impl TransientFaults {
    /// Stall every `period`-th request by `extra_latency` cycles.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn new(period: u64, extra_latency: Cycles) -> Self {
        assert!(period > 0, "fault period must be non-zero");
        Self { period, extra_latency }
    }

    /// Whether the request after `requests_so_far` requests stalls.
    fn hits(&self, requests_so_far: u64) -> bool {
        (requests_so_far + 1).is_multiple_of(self.period)
    }

    /// Stall of the next request given the device's counters so far.
    pub fn stall_for(&self, stats: &DeviceStats) -> Cycles {
        if self.hits(stats.reads_received + stats.writes_received) {
            self.extra_latency
        } else {
            0
        }
    }
}

/// A device was asked to inject transient faults but does not model them.
///
/// Returned by [`MemDevice::inject_faults`] on devices whose timing the
/// fault-injection harness cannot degrade ([`Dram`], [`CxlSsd`]). Before
/// this type existed the default implementation silently swallowed the
/// configuration, making "faults injected" sweeps on unsupported devices
/// indistinguishable from clean runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultInjectionUnsupported {
    /// Name of the device that rejected the schedule.
    pub device: &'static str,
}

impl std::fmt::Display for FaultInjectionUnsupported {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "device '{}' does not support transient-fault injection", self.device)
    }
}

impl std::error::Error for FaultInjectionUnsupported {}

/// Behaviour required of a cacheable memory device.
pub trait MemDevice {
    /// Short device name for reports.
    fn name(&self) -> &'static str;

    /// Latency of a read reaching the device, in CPU cycles.
    fn read_latency(&self) -> Cycles;

    /// Latency to accept a write into the device's internal buffer.
    fn write_accept_latency(&self) -> Cycles;

    /// Latency for a write to fully complete at the media.
    ///
    /// A store to a line whose writeback is still in flight must wait this
    /// long — the mechanism behind the paper's Listing-3 pitfall, where
    /// cleaning a constantly rewritten line costs "the ratio between the
    /// latency of writing to memory vs. writing to the cache" (§5).
    fn write_latency(&self) -> Cycles;

    /// Latency of a coherence-directory lookup/update.
    ///
    /// Modern implementations store the directory on the cached device
    /// (§4.2: Intel in DRAM/PMEM, the ARM core in the FPGA), so every cache
    /// line status change pays a device round-trip.
    fn directory_latency(&self) -> Cycles;

    /// Internal write granularity in bytes (Table 1).
    fn internal_granularity(&self) -> u64;

    /// Sustainable media write bandwidth in bytes per CPU cycle.
    fn media_write_bandwidth(&self) -> f64;

    /// Whether reads and writes use independent channels (full duplex).
    ///
    /// Link-attached memories (the Enzian FPGA, CXL) have separate
    /// directions; Optane's media contends for the same internal
    /// resources in both directions.
    fn duplex(&self) -> bool {
        false
    }

    /// Deliver a write of `bytes` at `addr` (a line writeback or an NT
    /// store flush).
    fn receive_write(&mut self, addr: Addr, bytes: u64);

    /// Deliver a read of `bytes` at `addr`.
    fn receive_read(&mut self, addr: Addr, bytes: u64);

    /// Close any internally buffered blocks (end of run).
    fn flush(&mut self);

    /// Counters so far.
    fn stats(&self) -> &DeviceStats;

    /// Zero the counters.
    fn reset_stats(&mut self);

    /// Enable (or, with `None`, disable) transient-fault injection.
    ///
    /// Devices opt in by storing the configuration and honoring it in
    /// [`MemDevice::fault_stall`]. [`OptanePmem`] and [`FpgaMem`] — the
    /// devices whose timing the paper's problem scenarios depend on —
    /// support injection. The default implementation rejects any actual
    /// schedule with [`FaultInjectionUnsupported`] (disabling with `None`
    /// is always accepted: there is nothing to disable).
    fn inject_faults(
        &mut self,
        faults: Option<TransientFaults>,
    ) -> Result<(), FaultInjectionUnsupported> {
        match faults {
            None => Ok(()),
            Some(_) => Err(FaultInjectionUnsupported { device: self.name() }),
        }
    }

    /// Extra cycles the *next* request will stall due to an injected
    /// transient fault (0 when injection is off or the next request is
    /// not scheduled to fault). Deterministic in the request counters.
    fn fault_stall(&self) -> Cycles {
        0
    }

    /// Whether data the device has committed to its media survives power
    /// loss. Persistent media (Optane, CXL SSD) return `true`; DRAM and
    /// the FPGA's DRAM-backed store return `false` — on a crash *nothing*
    /// they hold is durable, however long ago it was written.
    fn durable_media(&self) -> bool {
        false
    }

    /// Append the device's internally buffered, **not yet media-committed**
    /// blocks to `out` as `(block_address, bytes_filled)` pairs (appended,
    /// not cleared). A power failure loses these even on persistent media:
    /// only closed blocks have reached the media. Devices without internal
    /// write buffering append nothing.
    fn buffered_blocks_into(&self, _out: &mut Vec<(Addr, u64)>) {}
}

/// Enum dispatch over the concrete device models.
#[derive(Debug, Clone)]
pub enum Device {
    /// Conventional DRAM.
    Dram(Dram),
    /// Intel Optane persistent memory.
    Optane(OptanePmem),
    /// FPGA-backed cache-coherent memory (Machine B).
    Fpga(FpgaMem),
    /// CXL-attached SSD memory.
    CxlSsd(CxlSsd),
}

macro_rules! dispatch {
    ($self:ident, $d:ident => $e:expr) => {
        match $self {
            Device::Dram($d) => $e,
            Device::Optane($d) => $e,
            Device::Fpga($d) => $e,
            Device::CxlSsd($d) => $e,
        }
    };
}

impl Device {
    /// A pristine copy of this device: same configuration (including any
    /// injected fault schedule), empty internal buffers, zeroed counters.
    /// The replay engine starts every run from one of these instead of
    /// deep-cloning whatever run state the source device carries.
    pub fn fresh(&self) -> Device {
        match self {
            Device::Dram(d) => Device::Dram(d.fresh()),
            Device::Optane(d) => Device::Optane(d.fresh()),
            Device::Fpga(d) => Device::Fpga(d.fresh()),
            Device::CxlSsd(d) => Device::CxlSsd(d.fresh()),
        }
    }

    /// The coverage of every internal block the device closed so far
    /// (`device.block_covered_bytes`), on the block-buffered models;
    /// `None` on the models that write lines through.
    pub fn block_coverage(&self) -> Option<&Histogram> {
        match self {
            Device::Optane(d) => Some(d.block_coverage()),
            Device::CxlSsd(d) => Some(d.block_coverage()),
            Device::Dram(_) | Device::Fpga(_) => None,
        }
    }
}

impl MemDevice for Device {
    fn name(&self) -> &'static str {
        dispatch!(self, d => d.name())
    }

    #[inline]
    fn read_latency(&self) -> Cycles {
        dispatch!(self, d => d.read_latency())
    }

    #[inline]
    fn write_accept_latency(&self) -> Cycles {
        dispatch!(self, d => d.write_accept_latency())
    }

    #[inline]
    fn write_latency(&self) -> Cycles {
        dispatch!(self, d => d.write_latency())
    }

    #[inline]
    fn directory_latency(&self) -> Cycles {
        dispatch!(self, d => d.directory_latency())
    }

    fn internal_granularity(&self) -> u64 {
        dispatch!(self, d => d.internal_granularity())
    }

    fn media_write_bandwidth(&self) -> f64 {
        dispatch!(self, d => d.media_write_bandwidth())
    }

    fn duplex(&self) -> bool {
        dispatch!(self, d => d.duplex())
    }

    #[inline]
    fn receive_write(&mut self, addr: Addr, bytes: u64) {
        dispatch!(self, d => d.receive_write(addr, bytes))
    }

    #[inline]
    fn receive_read(&mut self, addr: Addr, bytes: u64) {
        dispatch!(self, d => d.receive_read(addr, bytes))
    }

    fn flush(&mut self) {
        dispatch!(self, d => d.flush())
    }

    #[inline]
    fn stats(&self) -> &DeviceStats {
        dispatch!(self, d => d.stats())
    }

    fn reset_stats(&mut self) {
        dispatch!(self, d => d.reset_stats())
    }

    fn inject_faults(
        &mut self,
        faults: Option<TransientFaults>,
    ) -> Result<(), FaultInjectionUnsupported> {
        dispatch!(self, d => d.inject_faults(faults))
    }

    #[inline]
    fn fault_stall(&self) -> Cycles {
        dispatch!(self, d => d.fault_stall())
    }

    fn durable_media(&self) -> bool {
        dispatch!(self, d => d.durable_media())
    }

    fn buffered_blocks_into(&self, out: &mut Vec<(Addr, u64)>) {
        dispatch!(self, d => d.buffered_blocks_into(out))
    }
}

/// Table 1 of the paper: internal read/write granularities.
///
/// Returns `(device, granularity description)` rows.
pub fn table1() -> Vec<(&'static str, &'static str)> {
    vec![
        ("Intel CPU", "64B"),
        ("ThunderX ARM CPU", "128B"),
        ("Optane PMEM", "256B"),
        ("CXL SSD", "256B/512B"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_amplification_defaults_to_one() {
        let s = DeviceStats::default();
        assert_eq!(s.write_amplification(), 1.0);
    }

    #[test]
    fn write_amplification_ratio() {
        let s = DeviceStats { bytes_received: 64, media_bytes_written: 256, ..Default::default() };
        assert_eq!(s.write_amplification(), 4.0);
    }

    #[test]
    fn table1_matches_paper() {
        let t = table1();
        assert_eq!(t.len(), 4);
        assert_eq!(t[0], ("Intel CPU", "64B"));
        assert_eq!(t[2], ("Optane PMEM", "256B"));
    }

    #[test]
    fn enum_dispatch_works() {
        let mut d = Device::Dram(Dram::default());
        d.receive_write(0, 64);
        assert_eq!(d.stats().bytes_received, 64);
        assert_eq!(d.internal_granularity(), 64);
        d.reset_stats();
        assert_eq!(d.stats().bytes_received, 0);
    }

    #[test]
    fn transient_faults_stall_every_periodth_request() {
        let mut d = Device::Optane(OptanePmem::default());
        d.inject_faults(Some(TransientFaults::new(3, 500))).expect("optane supports faults");
        let mut stalls = Vec::new();
        for i in 0..9u64 {
            stalls.push(d.fault_stall());
            d.receive_read(i * 64, 64);
        }
        // Requests 3, 6 and 9 (1-based) stall.
        assert_eq!(stalls, vec![0, 0, 500, 0, 0, 500, 0, 0, 500]);
        d.inject_faults(None).expect("disabling is always accepted");
        assert_eq!(d.fault_stall(), 0);
    }

    #[test]
    fn fault_schedule_counts_reads_and_writes_together() {
        let mut d = Device::Fpga(FpgaMem::fast());
        d.inject_faults(Some(TransientFaults::new(2, 100))).expect("fpga supports faults");
        d.receive_read(0, 128); // request 1
        assert_eq!(d.fault_stall(), 100); // request 2 will stall
        d.receive_write(128, 128); // request 2
        assert_eq!(d.fault_stall(), 0); // request 3 will not
    }

    #[test]
    fn devices_without_support_reject_injection() {
        let mut d = Device::Dram(Dram::default());
        let err = d
            .inject_faults(Some(TransientFaults::new(1, 1_000)))
            .expect_err("DRAM must reject a fault schedule, not swallow it");
        assert_eq!(err, FaultInjectionUnsupported { device: "DRAM" });
        assert!(err.to_string().contains("DRAM"), "{err}");
        assert_eq!(d.fault_stall(), 0);
        // Disabling on an unsupported device is harmless.
        d.inject_faults(None).expect("disabling is always accepted");
    }

    #[test]
    fn durable_media_matches_device_class() {
        assert!(Device::Optane(OptanePmem::default()).durable_media());
        assert!(Device::CxlSsd(CxlSsd::new(256)).durable_media());
        assert!(!Device::Dram(Dram::default()).durable_media());
        assert!(!Device::Fpga(FpgaMem::fast()).durable_media());
    }

    #[test]
    fn buffered_blocks_surface_open_optane_blocks() {
        let mut d = Device::Optane(OptanePmem::default());
        d.receive_write(0, 64); // opens block 0, 64 of 256 bytes filled
        let mut open = Vec::new();
        d.buffered_blocks_into(&mut open);
        assert_eq!(open, vec![(0, 64)]);
        d.flush();
        open.clear();
        d.buffered_blocks_into(&mut open);
        assert!(open.is_empty(), "flush closes all blocks");
        // DRAM commits immediately: never anything buffered.
        let mut dram = Device::Dram(Dram::default());
        dram.receive_write(0, 64);
        dram.buffered_blocks_into(&mut open);
        assert!(open.is_empty());
    }

    #[test]
    #[should_panic(expected = "period must be non-zero")]
    fn zero_fault_period_is_rejected() {
        let _ = TransientFaults::new(0, 10);
    }
}
