//! Intel Optane persistent memory model.
//!
//! Optane DIMMs internally read and write 256 B blocks but receive 64 B
//! cache-line writebacks from the CPU. A small on-DIMM write-combining
//! buffer (the "XPBuffer") merges line writes that target the *same* 256 B
//! block while the block is open; when a block is evicted from that buffer
//! it costs one 256 B media write (plus a media read-modify-write if the
//! block was not fully covered).
//!
//! Consequence (§4.1): if the CPU evicts lines sequentially, four 64 B
//! writebacks merge into one 256 B media write — write amplification 1.0.
//! If evictions are in random order, every 64 B writeback closes its own
//! block — write amplification up to 4.0. This is exactly the number the
//! paper reads out of `ipmctl`.

use crate::{DeviceStats, FaultInjectionUnsupported, MemDevice, TransientFaults};
use simcore::telemetry::Histogram;
use simcore::{align_down, Addr, Cycles};

/// Distribution of bytes covered in each internal block when it closes —
/// mass at the block size means writebacks arrived sequentially enough to
/// merge (write amplification 1.0), mass at one line means every
/// writeback paid a full block write plus a read-modify-write fill.
/// No-op unless simcore's `telemetry` feature is on.
static BLOCK_COVERED: Histogram = Histogram::new("device.block_covered_bytes");

/// End-of-list marker of the XPBuffer's intrusive LRU links.
const NIL: u32 = u32::MAX;

/// LRU links and fill level of one open XPBuffer block; entry `i` pairs
/// with `OptanePmem::open_blocks[i]`.
#[derive(Debug, Clone, Copy)]
struct OpenBlock {
    /// Bytes of the block covered so far.
    covered: u64,
    /// Next-older open block ([`NIL`] at the oldest).
    older: u32,
    /// Next-newer open block ([`NIL`] at the newest).
    newer: u32,
}

/// An Optane persistent-memory module set.
#[derive(Debug, Clone)]
pub struct OptanePmem {
    read_latency: Cycles,
    directory_latency: Cycles,
    /// Aggregate media write bandwidth, bytes per CPU cycle.
    bandwidth: f64,
    block: u64,
    buffer_blocks: usize,
    /// Addresses of the open blocks, one per occupied XPBuffer slot. Slots
    /// are only freed all at once (flush), and an eviction hands its slot
    /// straight to the incoming block, so the occupied slots are always
    /// this whole vector — a dense key array the membership scan walks
    /// with [`simcore::simd::find_u64`].
    open_blocks: Vec<Addr>,
    /// LRU links and fill level per slot (parallel to `open_blocks`): an
    /// intrusive doubly-linked list from `oldest` to `newest`, so moving a
    /// re-touched block to the newest end and evicting the oldest are both
    /// O(1).
    open_meta: Vec<OpenBlock>,
    /// Slot of the least recently written open block ([`NIL`] if none).
    oldest: u32,
    /// Slot of the most recently written open block ([`NIL`] if none).
    newest: u32,
    /// Counting occupancy filter over the open blocks: bucket
    /// `(block_number) & 255` counts the open blocks hashing there. Most
    /// writebacks target a block that is *not* open, and a zero bucket
    /// proves absence, skipping the membership scan on that common path.
    filter: [u32; 256],
    stats: DeviceStats,
    /// Transient-fault injection schedule, if enabled.
    faults: Option<TransientFaults>,
}

impl Default for OptanePmem {
    fn default() -> Self {
        // ~170 ns read at 2.1 GHz (~350 cycles); aggregate media write
        // bandwidth ~12.6 GB/s (6 B/cycle) for the 8 interleaved DIMMs,
        // tuned so that one random writer stays CPU-bound and two or more
        // saturate the device, as on the paper's Machine A (§4.1).
        // The XPBuffer is 16 KB = 64 open blocks.
        Self::new(350, 60, 6.0, 256, 64)
    }
}

impl OptanePmem {
    /// Create a module set.
    ///
    /// * `read_latency` — CPU-visible read latency in cycles.
    /// * `directory_latency` — coherence directory update cost.
    /// * `bandwidth` — aggregate media write bandwidth in bytes/cycle.
    /// * `block` — internal granularity in bytes (256 for Optane).
    /// * `buffer_blocks` — open blocks the internal buffer can hold.
    ///
    /// # Panics
    ///
    /// Panics if `block` is not a power of two, or `buffer_blocks` is zero
    /// or does not fit the buffer's 32-bit slot links.
    pub fn new(
        read_latency: Cycles,
        directory_latency: Cycles,
        bandwidth: f64,
        block: u64,
        buffer_blocks: usize,
    ) -> Self {
        assert!(block.is_power_of_two(), "internal granularity must be a power of two");
        assert!(buffer_blocks > 0, "need at least one internal buffer block");
        assert!(buffer_blocks < NIL as usize, "internal buffer too large");
        Self {
            read_latency,
            directory_latency,
            bandwidth,
            block,
            buffer_blocks,
            open_blocks: Vec::new(),
            open_meta: Vec::new(),
            oldest: NIL,
            newest: NIL,
            filter: [0; 256],
            stats: DeviceStats::default(),
            faults: None,
        }
    }

    /// A pristine module set with the same parameters and fault schedule
    /// but empty buffers and zeroed counters — what a new replay starts
    /// from, without cloning accumulated run state.
    pub fn fresh(&self) -> Self {
        Self {
            open_blocks: Vec::new(),
            open_meta: Vec::new(),
            oldest: NIL,
            newest: NIL,
            filter: [0; 256],
            stats: DeviceStats::default(),
            ..*self
        }
    }

    /// Filter bucket for a block address.
    #[inline]
    fn bucket(&self, blk: Addr) -> usize {
        ((blk >> self.block.trailing_zeros()) as usize) & 0xFF
    }

    /// Slot of `blk` among the open blocks, if it is open.
    #[inline]
    fn open_slot(&self, blk: Addr) -> Option<usize> {
        if self.filter[self.bucket(blk)] == 0 {
            return None;
        }
        simcore::simd::find_u64(&self.open_blocks, blk)
    }

    /// Unlink `slot` from the LRU list.
    #[inline]
    fn unlink(&mut self, slot: usize) {
        let OpenBlock { older, newer, .. } = self.open_meta[slot];
        match older {
            NIL => self.oldest = newer,
            o => self.open_meta[o as usize].newer = newer,
        }
        match newer {
            NIL => self.newest = older,
            n => self.open_meta[n as usize].older = older,
        }
    }

    /// Link `slot` in as the most recently written block.
    #[inline]
    fn push_newest(&mut self, slot: usize) {
        let m = &mut self.open_meta[slot];
        m.older = self.newest;
        m.newer = NIL;
        match self.newest {
            NIL => self.oldest = slot as u32,
            n => self.open_meta[n as usize].newer = slot as u32,
        }
        self.newest = slot as u32;
    }

    /// Open `blk` with `covered` bytes as the newest block, evicting (and
    /// closing) the oldest block when the buffer is full; the evicted
    /// block's slot is reused in place.
    fn open(&mut self, blk: Addr, covered: u64) {
        let slot = if self.open_blocks.len() < self.buffer_blocks {
            self.open_blocks.push(blk);
            self.open_meta.push(OpenBlock { covered, older: NIL, newer: NIL });
            self.open_blocks.len() - 1
        } else {
            let slot = self.oldest as usize;
            self.unlink(slot);
            let b = self.bucket(self.open_blocks[slot]);
            self.filter[b] -= 1;
            self.close_block(self.open_meta[slot].covered);
            self.open_blocks[slot] = blk;
            self.open_meta[slot].covered = covered;
            slot
        };
        let b = self.bucket(blk);
        self.filter[b] += 1;
        self.push_newest(slot);
    }

    /// Forget every open block without closing it.
    fn clear_open(&mut self) {
        self.open_blocks.clear();
        self.open_meta.clear();
        self.oldest = NIL;
        self.newest = NIL;
        self.filter = [0; 256];
    }

    fn close_block(&mut self, covered: u64) {
        BLOCK_COVERED.record(covered);
        self.stats.media_bytes_written += self.block;
        if covered < self.block {
            // Partially covered block: the device must read the rest first.
            self.stats.media_bytes_rmw_read += self.block;
        }
    }
}

impl MemDevice for OptanePmem {
    fn name(&self) -> &'static str {
        "Optane PMEM"
    }

    #[inline]
    fn read_latency(&self) -> Cycles {
        self.read_latency
    }

    #[inline]
    fn write_accept_latency(&self) -> Cycles {
        2
    }

    #[inline]
    fn write_latency(&self) -> Cycles {
        // ~150 ns media write at 2.1 GHz.
        300
    }

    #[inline]
    fn directory_latency(&self) -> Cycles {
        self.directory_latency
    }

    fn internal_granularity(&self) -> u64 {
        self.block
    }

    fn media_write_bandwidth(&self) -> f64 {
        self.bandwidth
    }

    #[inline]
    fn receive_write(&mut self, addr: Addr, bytes: u64) {
        self.stats.writes_received += 1;
        self.stats.bytes_received += bytes;
        // Spread the write over the internal blocks it touches.
        let mut cur = addr;
        let end = addr + bytes.max(1);
        while cur < end {
            let blk = align_down(cur, self.block);
            let chunk = (blk + self.block - cur).min(end - cur);
            let newest = self.newest as usize;
            if self.newest != NIL && self.open_blocks[newest] == blk {
                // Sequential writebacks land in the block opened last:
                // merge in place — it already is the newest.
                let covered = &mut self.open_meta[newest].covered;
                *covered = (*covered + chunk).min(self.block);
            } else if let Some(slot) = self.open_slot(blk) {
                // Merge into the open block and make it the newest (LRU).
                let covered = &mut self.open_meta[slot].covered;
                *covered = (*covered + chunk).min(self.block);
                self.unlink(slot);
                self.push_newest(slot);
            } else {
                self.open(blk, chunk.min(self.block));
            }
            cur += chunk;
        }
    }

    #[inline]
    fn receive_read(&mut self, _addr: Addr, bytes: u64) {
        self.stats.reads_received += 1;
        self.stats.bytes_read += bytes;
    }

    fn flush(&mut self) {
        let mut slot = self.oldest;
        while slot != NIL {
            let m = self.open_meta[slot as usize];
            self.close_block(m.covered);
            slot = m.newer;
        }
        self.clear_open();
    }

    #[inline]
    fn stats(&self) -> &DeviceStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = DeviceStats::default();
        self.clear_open();
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

    fn durable_media(&self) -> bool {
        // 3D-XPoint media is persistent: closed blocks survive power loss.
        true
    }

    fn buffered_blocks_into(&self, out: &mut Vec<(Addr, u64)>) {
        // Open XPBuffer blocks have not reached the media yet; a power
        // failure loses them even though the media itself is persistent.
        let mut slot = self.oldest;
        while slot != NIL {
            let m = self.open_meta[slot as usize];
            out.push((self.open_blocks[slot as usize], m.covered));
            slot = m.newer;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> OptanePmem {
        // 4 open blocks to make eviction pressure easy to trigger.
        OptanePmem::new(350, 60, 6.0, 256, 4)
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
            d.receive_write(0, 64);
        }
        d.flush();
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
    fn defaults_match_table1() {
        let d = OptanePmem::default();
        assert_eq!(d.internal_granularity(), 256);
        assert_eq!(d.name(), "Optane PMEM");
    }

    #[test]
    fn reset_clears_open_blocks() {
        let mut d = tiny();
        d.receive_write(0, 64);
        d.reset_stats();
        d.flush();
        assert_eq!(d.stats().media_bytes_written, 0);
    }
}
