//! The block-combining write buffer of the block-granular presets.
//!
//! Optane DIMMs internally read and write 256 B blocks but receive 64 B
//! cache-line writebacks from the CPU. A small on-DIMM write-combining
//! buffer (the "XPBuffer") merges line writes that target the *same* 256 B
//! block while the block is open; when a block is evicted from that buffer
//! it costs one 256 B media write (plus a media read-modify-write if the
//! block was not fully covered). The CXL SSD preset carries the same
//! buffer with larger blocks.
//!
//! Consequence (§4.1): if the CPU evicts lines sequentially, four 64 B
//! writebacks merge into one 256 B media write — write amplification 1.0.
//! If evictions are in random order, every 64 B writeback closes its own
//! block — write amplification up to 4.0. This is exactly the number the
//! paper reads out of `ipmctl`.

use crate::MediaBytes;
use simcore::telemetry::Histogram;
use simcore::{align_down, Addr};

/// Registry name of [`BlockBuffer::block_covered`].
const BLOCK_COVERED: &str = "device.block_covered_bytes";

/// End-of-list marker of the buffer's intrusive LRU links.
const NIL: u32 = u32::MAX;

/// LRU links and fill level of one open block; entry `i` pairs with
/// `BlockBuffer::open_blocks[i]`.
#[derive(Debug, Clone, Copy)]
struct OpenBlock {
    /// Bytes of the block covered so far.
    covered: u64,
    /// Next-older open block ([`NIL`] at the oldest).
    older: u32,
    /// Next-newer open block ([`NIL`] at the newest).
    newer: u32,
}

/// The open blocks of a block-granular device, least recently written
/// first.
#[derive(Debug, Clone)]
pub(crate) struct BlockBuffer {
    /// Internal granularity in bytes.
    pub(crate) block: u64,
    /// Open blocks the buffer can hold.
    slots: usize,
    /// Addresses of the open blocks, one per occupied slot. Slots are only
    /// freed all at once (flush), and an eviction hands its slot straight
    /// to the incoming block, so the occupied slots are always this whole
    /// vector — a dense key array the membership scan walks.
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
    /// Bytes covered in each internal block when it closed: mass at the
    /// block size means writebacks arrived sequentially enough to merge
    /// (write amplification 1.0), mass at one line means every writeback
    /// paid a full block write plus a read-modify-write fill. One value
    /// per closed block, so `count` × block size equals the media bytes
    /// the buffer wrote.
    pub(crate) block_covered: Histogram,
}

impl BlockBuffer {
    /// An empty buffer of `slots` open blocks of `block` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `block` is not a power of two, or `slots` is zero or does
    /// not fit the buffer's 32-bit slot links.
    pub(crate) fn new(block: u64, slots: usize) -> Self {
        assert!(block.is_power_of_two(), "internal granularity must be a power of two");
        assert!(slots > 0, "need at least one internal buffer block");
        assert!(slots < NIL as usize, "internal buffer too large");
        Self {
            block,
            slots,
            open_blocks: Vec::new(),
            open_meta: Vec::new(),
            oldest: NIL,
            newest: NIL,
            filter: [0; 256],
            block_covered: Histogram::new(BLOCK_COVERED),
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
        self.open_blocks.iter().position(|&b| b == blk)
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
    /// closing) the oldest block into `media` when the buffer is full; the
    /// evicted block's slot is reused in place.
    fn open(&mut self, blk: Addr, covered: u64, media: &mut MediaBytes) {
        let slot = if self.open_blocks.len() < self.slots {
            self.open_blocks.push(blk);
            self.open_meta.push(OpenBlock { covered, older: NIL, newer: NIL });
            self.open_blocks.len() - 1
        } else {
            let slot = self.oldest as usize;
            self.unlink(slot);
            let b = self.bucket(self.open_blocks[slot]);
            self.filter[b] -= 1;
            self.close_block(self.open_meta[slot].covered, media);
            self.open_blocks[slot] = blk;
            self.open_meta[slot].covered = covered;
            slot
        };
        let b = self.bucket(blk);
        self.filter[b] += 1;
        self.push_newest(slot);
    }

    fn close_block(&mut self, covered: u64, media: &mut MediaBytes) {
        self.block_covered.record(covered);
        media.written += self.block;
        if covered < self.block {
            // Partially covered block: the device must read the rest first.
            media.rmw_read += self.block;
        }
    }

    /// Merge a write of `bytes` at `addr` into the open blocks it touches,
    /// returning the media traffic of the blocks it evicted.
    #[inline]
    pub(crate) fn write(&mut self, addr: Addr, bytes: u64) -> MediaBytes {
        let mut media = MediaBytes::default();
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
                self.open(blk, chunk.min(self.block), &mut media);
            }
            cur += chunk;
        }
        media
    }

    /// Close every open block, oldest first, returning their media
    /// traffic.
    pub(crate) fn flush(&mut self) -> MediaBytes {
        let mut media = MediaBytes::default();
        let mut slot = self.oldest;
        while slot != NIL {
            let m = self.open_meta[slot as usize];
            self.close_block(m.covered, &mut media);
            slot = m.newer;
        }
        self.open_blocks.clear();
        self.open_meta.clear();
        self.oldest = NIL;
        self.newest = NIL;
        self.filter = [0; 256];
        media
    }

    /// Append the open blocks to `out` as `(block_address, bytes_covered)`
    /// pairs, oldest first.
    pub(crate) fn open_blocks_into(&self, out: &mut Vec<(Addr, u64)>) {
        let mut slot = self.oldest;
        while slot != NIL {
            let m = self.open_meta[slot as usize];
            out.push((self.open_blocks[slot as usize], m.covered));
            slot = m.newer;
        }
    }

    /// An empty buffer of the same shape.
    pub(crate) fn fresh(&self) -> Self {
        Self::new(self.block, self.slots)
    }
}
