//! Differential test of the Optane XPBuffer: the intrusive O(1) LRU in
//! `OptanePmem` against a straightforward deque model of the same buffer
//! (open blocks oldest-first, merge moves a block to the newest end,
//! overflow closes the oldest). Media bytes, read-modify-write bytes and
//! the oldest-first order of `buffered_blocks_into` — which crash reports
//! list as lost device-buffered data — must agree after every write.

use memdev::{MemDevice, OptanePmem};
use proptest::prelude::*;
use std::collections::VecDeque;

/// The reference model: open blocks and their covered bytes, oldest first.
struct DequeXpBuffer {
    block: u64,
    cap: usize,
    open: VecDeque<(u64, u64)>,
    media_bytes_written: u64,
    media_bytes_rmw_read: u64,
}

impl DequeXpBuffer {
    fn new(block: u64, cap: usize) -> Self {
        Self { block, cap, open: VecDeque::new(), media_bytes_written: 0, media_bytes_rmw_read: 0 }
    }

    fn close(&mut self, covered: u64) {
        self.media_bytes_written += self.block;
        if covered < self.block {
            self.media_bytes_rmw_read += self.block;
        }
    }

    fn write(&mut self, addr: u64, bytes: u64) {
        let mut cur = addr;
        let end = addr + bytes.max(1);
        while cur < end {
            let blk = cur & !(self.block - 1);
            let chunk = (blk + self.block - cur).min(end - cur);
            if let Some(pos) = self.open.iter().position(|&(b, _)| b == blk) {
                let (b, covered) = self.open.remove(pos).expect("position is in range");
                self.open.push_back((b, (covered + chunk).min(self.block)));
            } else {
                if self.open.len() >= self.cap {
                    let (_, covered) = self.open.pop_front().expect("buffer is full");
                    self.close(covered);
                }
                self.open.push_back((blk, chunk.min(self.block)));
            }
            cur += chunk;
        }
    }

    fn flush(&mut self) {
        while let Some((_, covered)) = self.open.pop_front() {
            self.close(covered);
        }
    }
}

/// A write stream over `blocks` distinct 256 B blocks: mostly single
/// lines, some partial and some multi-block writes, so blocks are
/// re-touched at random depths of the LRU order and evicted once more
/// than the buffer's blocks are live.
fn writes(blocks: u64) -> impl Strategy<Value = Vec<(u64, u64, u64)>> {
    proptest::collection::vec((0..blocks, 0u64..256, 1u64..600), 1..1500)
}

fn check(cap: usize, stream: &[(u64, u64, u64)]) -> Result<(), TestCaseError> {
    let mut dev = OptanePmem::new(350, 60, 6.0, 256, cap);
    let mut model = DequeXpBuffer::new(256, cap);
    let mut open = Vec::new();
    for (i, &(blk, offset, len)) in stream.iter().enumerate() {
        // Spread the blocks out so the counting filter sees collisions.
        let addr = blk * 256 * 33 + offset;
        let len = if len > 300 { 64 } else { len };
        dev.receive_write(addr, len);
        model.write(addr, len);
        prop_assert_eq!(dev.stats().media_bytes_written, model.media_bytes_written, "write {}", i);
        prop_assert_eq!(
            dev.stats().media_bytes_rmw_read,
            model.media_bytes_rmw_read,
            "write {}",
            i
        );
        open.clear();
        dev.buffered_blocks_into(&mut open);
        prop_assert!(
            open.iter().copied().eq(model.open.iter().copied()),
            "open order, write {}",
            i
        );
    }
    dev.flush();
    model.flush();
    prop_assert_eq!(dev.stats().media_bytes_written, model.media_bytes_written);
    prop_assert_eq!(dev.stats().media_bytes_rmw_read, model.media_bytes_rmw_read);
    open.clear();
    dev.buffered_blocks_into(&mut open);
    prop_assert!(open.is_empty(), "flush closes every block");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The default 64-slot buffer over up to 160 live blocks.
    #[test]
    fn lru_matches_deque_model_at_default_size(stream in writes(160)) {
        check(64, &stream)?;
    }

    /// Small and odd buffer sizes evict on almost every write.
    #[test]
    fn lru_matches_deque_model_under_pressure(cap in 1usize..9, stream in writes(24)) {
        check(cap, &stream)?;
    }

    /// Reuse after a mid-stream flush or reset starts from an empty buffer.
    #[test]
    fn flush_and_reset_restart_the_lru(stream in writes(100), cut in 0usize..1500) {
        let cut = cut.min(stream.len());
        let mut dev = OptanePmem::default();
        let mut model = DequeXpBuffer::new(256, 64);
        for &(blk, offset, len) in &stream[..cut] {
            dev.receive_write(blk * 256 + offset, len);
            model.write(blk * 256 + offset, len);
        }
        dev.flush();
        model.flush();
        for &(blk, offset, len) in &stream[cut..] {
            dev.receive_write(blk * 512 + offset, len);
            model.write(blk * 512 + offset, len);
        }
        let mut open = Vec::new();
        dev.buffered_blocks_into(&mut open);
        prop_assert!(open.iter().copied().eq(model.open.iter().copied()));
        prop_assert_eq!(dev.stats().media_bytes_written, model.media_bytes_written);
        dev.reset_stats();
        open.clear();
        dev.buffered_blocks_into(&mut open);
        prop_assert!(open.is_empty(), "reset forgets the open blocks");
        dev.receive_write(0, 64);
        dev.flush();
        prop_assert_eq!(dev.stats().media_bytes_written, 256);
    }
}
