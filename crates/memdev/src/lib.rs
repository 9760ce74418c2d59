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
//!    block-granular presets ([`Device::optane`], [`Device::cxl_ssd`])
//!    reproduce the `ipmctl`-style media-write counters the paper measures.
//! 2. **Latency** of the device, including the cost of coherence-directory
//!    updates when the directory is stored *on* the device
//!    ([`Device::fpga`] — the Enzian configuration of Machine B).
//!
//! One [`Device`] models every memory: a preset fixes its constants and
//! whether it carries a block-combining buffer. Every preset honours a
//! [`TransientFaults`] schedule.
//!
//! The device publishes nothing to the metrics registry: it keeps plain
//! [`DeviceStats`] counters (and, when block-buffered, a block-coverage
//! [`Histogram`]) that the replay engine reads through
//! [`MemDevice::stats`] and [`Device::block_coverage`] and publishes once
//! per replay.

mod buffer;

use buffer::BlockBuffer;
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

/// The media traffic one [`MemDevice::receive_write`] or
/// [`MemDevice::flush`] caused.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MediaBytes {
    /// Bytes written to the media.
    pub written: u64,
    /// Bytes read from the media to fill partially covered blocks.
    pub rmw_read: u64,
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

    /// Stall of the next request given the device's counters so far.
    pub fn stall_for(&self, stats: &DeviceStats) -> Cycles {
        let requests_so_far = stats.reads_received + stats.writes_received;
        if (requests_so_far + 1).is_multiple_of(self.period) {
            self.extra_latency
        } else {
            0
        }
    }
}

/// A cacheable memory device: one of the presets ([`Device::dram`],
/// [`Device::optane`], [`Device::fpga`], [`Device::cxl_ssd`]) with its
/// counters and, on the block-granular presets, the buffer that merges
/// line writes into internal blocks.
#[derive(Debug, Clone)]
pub struct Device {
    name: &'static str,
    read_latency: Cycles,
    write_latency: Cycles,
    directory_latency: Cycles,
    granularity: u64,
    /// Sustainable media write bandwidth, bytes per CPU cycle.
    bandwidth: f64,
    duplex: bool,
    durable: bool,
    stats: DeviceStats,
    /// Transient-fault injection schedule, if enabled.
    faults: Option<TransientFaults>,
    /// The block-combining buffer; `None` on line-granular presets, whose
    /// writes reach the media whole.
    buffer: Option<BlockBuffer>,
}

impl Device {
    /// A volatile, half-duplex device whose writes reach the media whole;
    /// the presets change what differs.
    fn new(
        name: &'static str,
        read_latency: Cycles,
        write_latency: Cycles,
        directory_latency: Cycles,
        granularity: u64,
        bandwidth: f64,
    ) -> Self {
        Self {
            name,
            read_latency,
            write_latency,
            directory_latency,
            granularity,
            bandwidth,
            duplex: false,
            durable: false,
            stats: DeviceStats::default(),
            faults: None,
            buffer: None,
        }
    }

    /// DDR4-class DRAM, the baseline device caches were designed for.
    ///
    /// Internal granularity equals the CPU line size, so there is never
    /// write amplification; latency and bandwidth are high enough that
    /// eviction order is irrelevant — which is exactly why the paper's
    /// problems only appear on *other* devices.
    pub fn dram() -> Self {
        // ~90 ns read at 2.1 GHz, ~40 GB/s write bandwidth (~19 B/cycle).
        Self::new("DRAM", 190, 100, 30, 64, 19.0)
    }

    /// Intel Optane persistent memory with `block`-byte internal blocks
    /// (256 B in Table 1).
    ///
    /// # Panics
    ///
    /// Panics if `block` is not a power of two.
    pub fn optane(block: u64) -> Self {
        // ~170 ns read at 2.1 GHz (~350 cycles), ~150 ns media write;
        // aggregate media write bandwidth ~12.6 GB/s (6 B/cycle) for the 8
        // interleaved DIMMs, tuned so that one random writer stays
        // CPU-bound and two or more saturate the device, as on the paper's
        // Machine A (§4.1). The XPBuffer is 16 KB = 64 open 256 B blocks.
        // 3D-XPoint media is persistent: closed blocks survive power loss.
        Self {
            durable: true,
            buffer: Some(BlockBuffer::new(block, 64)),
            ..Self::new("Optane PMEM", 350, 300, 60, block, 6.0)
        }
    }

    /// FPGA-backed cache-coherent memory (Machine B / Enzian) with a
    /// `latency`-cycle access and `bandwidth` bytes per cycle.
    ///
    /// The Enzian prototype attaches a Xilinx FPGA to a ThunderX ARM CPU
    /// in a cache-coherent fashion; the CPU transparently caches the
    /// FPGA's memory and — crucially — keeps the *coherence directory on
    /// the FPGA*, so every cache-line status change pays an FPGA round
    /// trip (§4.2). The FPGA interleaves requests across several memory
    /// controllers, so it has no write-amplification behaviour (§7.3: "the
    /// machine does not benefit from the increase in sequentiality") — its
    /// granularity equals the ThunderX's 128 B line.
    pub fn fpga(latency: Cycles, bandwidth: f64) -> Self {
        // A posted write completes after one device round trip plus a
        // small controller overhead; the directory update is one round
        // trip. The coherent link has independent request/response
        // directions.
        let fpga = Self::new("FPGA memory", latency, latency + 20, latency, 128, bandwidth);
        Self { duplex: true, ..fpga }
    }

    /// The paper's low-latency FPGA (Machine B-Fast, a future high-end
    /// CXL memory): 60 cycles, 10 GB/s, which is 5 bytes/cycle at 2 GHz.
    pub fn fpga_fast() -> Self {
        Self::fpga(60, 5.0)
    }

    /// The paper's high-latency FPGA (Machine B-Slow, a medium-tier CXL
    /// memory): 200 cycles, 1.5 GB/s, which is 0.75 bytes/cycle at 2 GHz.
    pub fn fpga_slow() -> Self {
        Self::fpga(200, 0.75)
    }

    /// A CXL SSD exposing byte-addressable, cacheable memory with
    /// `block`-byte internal blocks (256 or 512 B per Table 1): the
    /// Optane mechanism with larger blocks and lower bandwidth.
    ///
    /// # Panics
    ///
    /// Panics if `block` is not a power of two.
    pub fn cxl_ssd(block: u64) -> Self {
        // ~600-cycle reads, 1 GB/s media writes (~0.5 B/cycle at 2.1 GHz),
        // a 32-block internal buffer. Flash media is persistent.
        Self {
            durable: true,
            buffer: Some(BlockBuffer::new(block, 32)),
            ..Self::new("CXL SSD", 600, 800, 100, block, 0.5)
        }
    }

    /// This device with a block buffer of `slots` open blocks in place of
    /// its preset's (tests use a few slots to force evictions).
    ///
    /// # Panics
    ///
    /// Panics if the device has no block buffer, or `slots` is zero or
    /// does not fit the buffer's 32-bit slot links.
    pub fn with_buffer_slots(mut self, slots: usize) -> Self {
        let buffer = self.buffer.as_ref().expect("only a block-buffered device has slots");
        self.buffer = Some(BlockBuffer::new(buffer.block, slots));
        self
    }

    /// A pristine copy of this device: same configuration (including any
    /// injected fault schedule), empty internal buffers, zeroed counters.
    /// The replay engine starts every run from one of these instead of
    /// deep-cloning whatever run state the source device carries.
    pub fn fresh(&self) -> Device {
        Device {
            stats: DeviceStats::default(),
            buffer: self.buffer.as_ref().map(BlockBuffer::fresh),
            ..*self
        }
    }

    /// Short device name for reports.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Latency of a read reaching the device, in CPU cycles.
    #[inline]
    pub fn read_latency(&self) -> Cycles {
        self.read_latency
    }

    /// Latency for a write to fully complete at the media.
    ///
    /// A store to a line whose writeback is still in flight must wait this
    /// long — the mechanism behind the paper's Listing-3 pitfall, where
    /// cleaning a constantly rewritten line costs "the ratio between the
    /// latency of writing to memory vs. writing to the cache" (§5).
    #[inline]
    pub fn write_latency(&self) -> Cycles {
        self.write_latency
    }

    /// Latency of a coherence-directory lookup/update.
    ///
    /// Modern implementations store the directory on the cached device
    /// (§4.2: Intel in DRAM/PMEM, the ARM core in the FPGA), so every cache
    /// line status change pays a device round-trip.
    #[inline]
    pub fn directory_latency(&self) -> Cycles {
        self.directory_latency
    }

    /// Internal write granularity in bytes (Table 1).
    pub fn internal_granularity(&self) -> u64 {
        self.granularity
    }

    /// Sustainable media write bandwidth in bytes per CPU cycle.
    pub fn media_write_bandwidth(&self) -> f64 {
        self.bandwidth
    }

    /// Whether reads and writes use independent channels (full duplex).
    ///
    /// Link-attached memories (the Enzian FPGA, CXL) have separate
    /// directions; Optane's media contends for the same internal
    /// resources in both directions.
    pub fn duplex(&self) -> bool {
        self.duplex
    }

    /// Whether data the device has committed to its media survives power
    /// loss. Persistent media (Optane, CXL SSD) return `true`; DRAM and
    /// the FPGA's DRAM-backed store return `false` — on a crash *nothing*
    /// they hold is durable, however long ago it was written.
    pub fn durable_media(&self) -> bool {
        self.durable
    }

    /// Deliver a read of `bytes` at `addr`.
    #[inline]
    pub fn receive_read(&mut self, _addr: Addr, bytes: u64) {
        self.stats.reads_received += 1;
        self.stats.bytes_read += bytes;
    }

    /// Enable (or, with `None`, disable) transient-fault injection.
    pub fn inject_faults(&mut self, faults: Option<TransientFaults>) {
        self.faults = faults;
    }

    /// Extra cycles the *next* request will stall due to an injected
    /// transient fault (0 when injection is off or the next request is
    /// not scheduled to fault). Deterministic in the request counters.
    #[inline]
    pub fn fault_stall(&self) -> Cycles {
        self.faults.map_or(0, |f| f.stall_for(&self.stats))
    }

    /// Append the device's internally buffered, **not yet media-committed**
    /// blocks to `out` as `(block_address, bytes_filled)` pairs, oldest
    /// first (appended, not cleared). A power failure loses these even on
    /// persistent media: only closed blocks have reached the media.
    /// Devices without a block buffer append nothing.
    pub fn buffered_blocks_into(&self, out: &mut Vec<(Addr, u64)>) {
        if let Some(buffer) = &self.buffer {
            buffer.open_blocks_into(out);
        }
    }

    /// The coverage of every internal block the device closed so far
    /// (`device.block_covered_bytes`), on the block-buffered presets;
    /// `None` on the presets that write lines through.
    pub fn block_coverage(&self) -> Option<&Histogram> {
        self.buffer.as_ref().map(|b| &b.block_covered)
    }
}

/// `Device::default()` is the Optane preset at Table 1's 256 B block.
impl Default for Device {
    fn default() -> Self {
        Self::optane(256)
    }
}

/// The Optane preset under its former type name: `OptanePmem::default()`
/// is `Device::optane(256)`. The host-time benchmark builds its device
/// probe through it.
pub type OptanePmem = Device;

/// The device's write path and counters, the calls the host-time
/// benchmark makes; [`Device`] is its one implementation.
pub trait MemDevice {
    /// Deliver a write of `bytes` at `addr` (a line writeback or an NT
    /// store flush), returning the media traffic it caused: the bytes
    /// themselves on a line-granular device, the blocks it evicted from
    /// the block buffer on a block-granular one.
    fn receive_write(&mut self, addr: Addr, bytes: u64) -> MediaBytes;

    /// Close any internally buffered blocks (end of run), returning their
    /// media traffic.
    fn flush(&mut self) -> MediaBytes;

    /// Counters so far.
    fn stats(&self) -> &DeviceStats;
}

impl MemDevice for Device {
    #[inline]
    fn receive_write(&mut self, addr: Addr, bytes: u64) -> MediaBytes {
        self.stats.writes_received += 1;
        self.stats.bytes_received += bytes;
        let media = match &mut self.buffer {
            Some(buffer) => buffer.write(addr, bytes),
            // A line-granular device writes exactly what it receives.
            None => MediaBytes { written: bytes, rmw_read: 0 },
        };
        self.stats.media_bytes_written += media.written;
        self.stats.media_bytes_rmw_read += media.rmw_read;
        media
    }

    fn flush(&mut self) -> MediaBytes {
        let media = self.buffer.as_mut().map_or_else(MediaBytes::default, BlockBuffer::flush);
        self.stats.media_bytes_written += media.written;
        self.stats.media_bytes_rmw_read += media.rmw_read;
        media
    }

    #[inline]
    fn stats(&self) -> &DeviceStats {
        &self.stats
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

    /// The Optane preset with 4 open blocks, so eviction pressure is easy
    /// to trigger.
    fn tiny() -> Device {
        Device::optane(256).with_buffer_slots(4)
    }

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

    /// Every preset's constants: name, read, write and directory latency,
    /// granularity, bandwidth, duplex and durability.
    #[test]
    fn presets_keep_their_numbers() {
        type Row = (&'static str, Cycles, Cycles, Cycles, u64, f64, bool, bool);
        let row = |d: &Device| -> Row {
            (
                d.name(),
                d.read_latency(),
                d.write_latency(),
                d.directory_latency(),
                d.internal_granularity(),
                d.media_write_bandwidth(),
                d.duplex(),
                d.durable_media(),
            )
        };
        let expected: [(Device, Row); 7] = [
            (Device::dram(), ("DRAM", 190, 100, 30, 64, 19.0, false, false)),
            (Device::default(), ("Optane PMEM", 350, 300, 60, 256, 6.0, false, true)),
            (Device::optane(1024), ("Optane PMEM", 350, 300, 60, 1024, 6.0, false, true)),
            (Device::fpga_fast(), ("FPGA memory", 60, 80, 60, 128, 5.0, true, false)),
            (Device::fpga_slow(), ("FPGA memory", 200, 220, 200, 128, 0.75, true, false)),
            (Device::cxl_ssd(256), ("CXL SSD", 600, 800, 100, 256, 0.5, false, true)),
            (Device::cxl_ssd(512), ("CXL SSD", 600, 800, 100, 512, 0.5, false, true)),
        ];
        for (device, want) in &expected {
            assert_eq!(row(device), *want);
        }
    }

    #[test]
    fn transient_faults_stall_every_periodth_request() {
        let mut d = Device::optane(256);
        d.inject_faults(Some(TransientFaults::new(3, 500)));
        let mut stalls = Vec::new();
        for i in 0..9u64 {
            stalls.push(d.fault_stall());
            d.receive_read(i * 64, 64);
        }
        // Requests 3, 6 and 9 (1-based) stall.
        assert_eq!(stalls, vec![0, 0, 500, 0, 0, 500, 0, 0, 500]);
        d.inject_faults(None);
        assert_eq!(d.fault_stall(), 0);
    }

    #[test]
    fn every_preset_counts_reads_and_writes_together_for_faults() {
        for mut d in [Device::dram(), Device::fpga_fast(), Device::cxl_ssd(256)] {
            d.inject_faults(Some(TransientFaults::new(2, 100)));
            d.receive_read(0, 128); // request 1
            assert_eq!(d.fault_stall(), 100, "{}: request 2 will stall", d.name());
            d.receive_write(128, 128); // request 2
            assert_eq!(d.fault_stall(), 0, "{}: request 3 will not", d.name());
            assert_eq!(d.fresh().fault_stall(), 0, "a fresh copy keeps the schedule");
            assert_eq!(d.fresh().faults, d.faults);
        }
    }

    #[test]
    fn buffered_blocks_surface_open_blocks() {
        let mut d = Device::optane(256);
        d.receive_write(0, 64); // opens block 0, 64 of 256 bytes filled
        let mut open = Vec::new();
        d.buffered_blocks_into(&mut open);
        assert_eq!(open, vec![(0, 64)]);
        d.flush();
        open.clear();
        d.buffered_blocks_into(&mut open);
        assert!(open.is_empty(), "flush closes all blocks");
        // DRAM commits immediately: never anything buffered.
        let mut dram = Device::dram();
        dram.receive_write(0, 64);
        dram.buffered_blocks_into(&mut open);
        assert!(open.is_empty());
        assert!(dram.block_coverage().is_none());
    }

    #[test]
    fn fresh_forgets_open_blocks_and_counters() {
        let mut d = tiny();
        d.receive_write(0, 64);
        let mut fresh = d.fresh();
        assert_eq!(*fresh.stats(), DeviceStats::default());
        assert_eq!(fresh.flush(), MediaBytes::default(), "no open block survives");
        assert_eq!(fresh.block_coverage().map(|h| h.count), Some(0));
    }

    #[test]
    fn sequential_writebacks_have_no_amplification() {
        let mut d = tiny();
        // 64 lines written in order: 16 blocks, each fully covered.
        for i in 0..64u64 {
            d.receive_write(i * 64, 64);
        }
        d.flush();
        let s = d.stats();
        assert_eq!(s.bytes_received, 64 * 64);
        assert_eq!(s.media_bytes_written, 64 * 64);
        assert_eq!(s.write_amplification(), 1.0);
        assert_eq!(s.media_bytes_rmw_read, 0, "no partial blocks");
    }

    #[test]
    fn strided_writebacks_amplify_4x() {
        let mut d = tiny();
        // One 64 B line per 256 B block, far apart: every line closes its
        // own block once the buffer overflows.
        for i in 0..64u64 {
            d.receive_write(i * 4096, 64);
        }
        d.flush();
        let s = d.stats();
        assert_eq!(s.write_amplification(), 4.0);
        assert!(s.media_bytes_rmw_read > 0, "partial blocks require RMW");
        let h = d.block_coverage().expect("Optane buffers blocks");
        assert_eq!((h.count, h.max), (64, 64), "one single-line block per write");
        assert_eq!(h.count * 256, s.media_bytes_written);
    }

    #[test]
    fn interleaved_streams_amplify_when_buffer_small() {
        // Two interleaved sequential streams fit in the buffer: no
        // amplification. Eight streams overflow a 4-block buffer: blocks
        // close before they fill.
        let mut ok = tiny();
        for i in 0..32u64 {
            for s in 0..2u64 {
                ok.receive_write(s * 1_048_576 + i * 64, 64);
            }
        }
        ok.flush();
        assert_eq!(ok.stats().write_amplification(), 1.0);

        let mut bad = tiny();
        for i in 0..32u64 {
            for s in 0..8u64 {
                bad.receive_write(s * 1_048_576 + i * 64, 64);
            }
        }
        bad.flush();
        assert!(
            bad.stats().write_amplification() > 2.0,
            "WA {} with 8 streams over 4 buffers",
            bad.stats().write_amplification()
        );
    }

    #[test]
    fn rewriting_open_block_does_not_amplify() {
        let mut d = tiny();
        for _ in 0..100 {
            assert_eq!(d.receive_write(0, 64), MediaBytes::default(), "merged, nothing closed");
        }
        let full = MediaBytes { written: 256, rmw_read: 0 };
        assert_eq!(d.flush(), full, "the merged lines cover the block");
        // 100 x 64 B received, one 256 B media write.
        let s = d.stats();
        assert_eq!(s.media_bytes_written, 256);
        assert!(s.write_amplification() < 0.05);
    }

    #[test]
    fn large_write_spans_blocks() {
        let mut d = tiny();
        d.receive_write(0, 1024);
        d.flush();
        let s = d.stats();
        assert_eq!(s.bytes_received, 1024);
        assert_eq!(s.media_bytes_written, 1024);
        assert_eq!(s.media_bytes_rmw_read, 0);
    }

    #[test]
    fn unaligned_write_pays_rmw() {
        let mut d = tiny();
        d.receive_write(128, 256); // covers halves of two blocks
        d.flush();
        let s = d.stats();
        assert_eq!(s.media_bytes_written, 512);
        assert_eq!(s.media_bytes_rmw_read, 512);
    }

    #[test]
    fn cxl_ssd_amplification_reaches_8x_with_64b_lines() {
        let mut d = Device::cxl_ssd(512);
        // One 64 B line per 512 B block, spread out: 8x amplification.
        for i in 0..64u64 {
            d.receive_write(i * 8192, 64);
        }
        d.flush();
        assert_eq!(d.stats().write_amplification(), 8.0);
    }

    #[test]
    fn cxl_ssd_sequential_writes_are_clean() {
        let mut d = Device::cxl_ssd(256);
        for i in 0..64u64 {
            d.receive_write(i * 64, 64);
        }
        d.flush();
        assert_eq!(d.stats().write_amplification(), 1.0);
    }

    #[test]
    #[should_panic(expected = "only a block-buffered device has slots")]
    fn line_granular_devices_have_no_buffer_slots() {
        let _ = Device::dram().with_buffer_slots(4);
    }

    #[test]
    #[should_panic(expected = "period must be non-zero")]
    fn zero_fault_period_is_rejected() {
        let _ = TransientFaults::new(0, 10);
    }
}
