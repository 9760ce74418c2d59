//! Write-combining buffers for non-temporal ("cache-skipping") stores.
//!
//! Non-temporal stores bypass the cache: they land in a small set of
//! write-combining (WC) buffers, one cache line each. A buffer is flushed
//! to memory when it fills completely (the good case — one full-line,
//! sequential write) or when it is evicted early because the CPU ran out of
//! WC buffers (the bad case — a partial write that forces the device into a
//! read-modify-write).
//!
//! The buffers publish nothing: they count partial evictions and record
//! flush sizes in plain fields, which the replay engine reads through
//! [`WriteCombiningBuffer::partial_evictions`] and
//! [`WriteCombiningBuffer::flush_bytes`] and publishes once per replay.

use simcore::telemetry::Histogram;
use simcore::{align_down, Addr};
use std::collections::VecDeque;

/// A flush emitted by the WC buffer towards the memory device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WcFlush {
    /// A completely filled line: `line` address (full line write).
    Full(Addr),
    /// A partially filled line: `line` address and the bytes present.
    Partial(Addr, u64),
}

impl WcFlush {
    /// Line address of the flush.
    pub fn line(&self) -> Addr {
        match *self {
            WcFlush::Full(l) | WcFlush::Partial(l, _) => l,
        }
    }
}

/// A small pool of line-sized write-combining buffers.
///
/// # Examples
///
/// ```
/// use cachesim::{WriteCombiningBuffer, wcbuf::WcFlush};
///
/// let mut wc = WriteCombiningBuffer::new(64, 4);
/// // Two 32-byte NT stores complete one 64-byte line:
/// assert!(wc.nt_write(0, 32).is_empty());
/// assert_eq!(wc.nt_write(32, 32), vec![WcFlush::Full(0)]);
/// ```
#[derive(Debug, Clone)]
pub struct WriteCombiningBuffer {
    line_size: u64,
    cap: usize,
    /// Open buffers: (line address, bytes filled), oldest first.
    open: VecDeque<(Addr, u64)>,
    /// Partial evictions under capacity pressure — each one forces the
    /// device into a read-modify-write, the bad case the module docs
    /// describe.
    partial_evictions: u64,
    /// Bytes carried by each flush: a full spike at the line size means
    /// perfect write combining, mass below it means capacity evictions or
    /// fences draining half-filled buffers.
    flush_bytes: Histogram,
}

impl WriteCombiningBuffer {
    /// Create a pool of `cap` buffers of `line_size` bytes each.
    ///
    /// # Panics
    ///
    /// Panics if `line_size` is not a power of two or `cap` is zero.
    pub fn new(line_size: u64, cap: usize) -> Self {
        assert!(line_size.is_power_of_two(), "line size must be a power of two");
        assert!(cap > 0, "need at least one WC buffer");
        Self {
            line_size,
            cap,
            open: VecDeque::new(),
            partial_evictions: 0,
            flush_bytes: Histogram::new("wcbuf.flush_bytes"),
        }
    }

    /// Record a non-temporal store of `len` bytes at `addr`.
    ///
    /// Returns the flushes this store triggered (completed lines, plus any
    /// partial buffer evicted to make room).
    ///
    /// Allocates a fresh `Vec` per call; replay loops should prefer
    /// [`WriteCombiningBuffer::nt_write_into`] with a reused buffer.
    pub fn nt_write(&mut self, addr: Addr, len: u64) -> Vec<WcFlush> {
        let mut flushes = Vec::new();
        self.nt_write_into(addr, len, &mut flushes);
        flushes
    }

    /// [`WriteCombiningBuffer::nt_write`] into a caller-provided buffer
    /// (appended, not cleared), so a hot loop issuing millions of NT stores
    /// reuses one allocation instead of building a `Vec` per store.
    #[inline]
    pub fn nt_write_into(&mut self, addr: Addr, len: u64, flushes: &mut Vec<WcFlush>) {
        let mut cur = addr;
        let end = addr + len;
        while cur < end {
            let line = align_down(cur, self.line_size);
            let chunk = (line + self.line_size - cur).min(end - cur);
            self.fill(line, chunk, flushes);
            cur += chunk;
        }
    }

    fn fill(&mut self, line: Addr, bytes: u64, flushes: &mut Vec<WcFlush>) {
        if let Some(pos) = self.open.iter().position(|&(l, _)| l == line) {
            let filled = {
                let entry = &mut self.open[pos];
                entry.1 = (entry.1 + bytes).min(self.line_size);
                entry.1
            };
            if filled >= self.line_size {
                self.open.remove(pos);
                self.flush_bytes.record(self.line_size);
                flushes.push(WcFlush::Full(line));
            }
            return;
        }
        if bytes >= self.line_size {
            // A full-line store writes through immediately.
            self.flush_bytes.record(self.line_size);
            flushes.push(WcFlush::Full(line));
            return;
        }
        if self.open.len() >= self.cap {
            // Out of buffers: evict the oldest, partially filled.
            let (l, filled) = self.open.pop_front().expect("cap > 0");
            self.partial_evictions += 1;
            self.flush_bytes.record(filled);
            flushes.push(WcFlush::Partial(l, filled));
        }
        self.open.push_back((line, bytes));
    }

    /// Flush all open buffers (an `sfence` after an NT-store sequence).
    pub fn flush_all(&mut self) -> Vec<WcFlush> {
        let mut out = Vec::new();
        self.flush_all_into(&mut out);
        out
    }

    /// [`WriteCombiningBuffer::flush_all`] into a caller-provided buffer
    /// (appended, not cleared). Buffers flush oldest-first.
    #[inline]
    pub fn flush_all_into(&mut self, out: &mut Vec<WcFlush>) {
        let line_size = self.line_size;
        let flush_bytes = &mut self.flush_bytes;
        out.extend(self.open.drain(..).map(|(l, filled)| {
            if filled >= line_size {
                flush_bytes.record(line_size);
                WcFlush::Full(l)
            } else {
                flush_bytes.record(filled);
                WcFlush::Partial(l, filled)
            }
        }));
    }

    /// Number of open (partially filled) buffers.
    pub fn open_buffers(&self) -> usize {
        self.open.len()
    }

    /// Open buffers evicted partially filled to make room so far.
    pub fn partial_evictions(&self) -> u64 {
        self.partial_evictions
    }

    /// The bytes carried by each flush so far (`wcbuf.flush_bytes`).
    pub fn flush_bytes(&self) -> &Histogram {
        &self.flush_bytes
    }

    /// Append every open buffer's `(line, bytes_filled)` to `out`
    /// (appended, not cleared), oldest first, without flushing anything.
    ///
    /// A power failure loses open WC buffers outright — their contents
    /// never reached the device — so crash analysis reads them here.
    pub fn open_lines_into(&self, out: &mut Vec<(Addr, u64)>) {
        out.extend(self.open.iter().copied());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_partials_combine_into_full_lines() {
        let mut wc = WriteCombiningBuffer::new(64, 4);
        let mut flushes = Vec::new();
        for i in 0..16u64 {
            flushes.extend(wc.nt_write(i * 16, 16));
        }
        // 256 bytes = 4 full lines, no partials.
        assert_eq!(flushes.len(), 4);
        assert!(flushes.iter().all(|f| matches!(f, WcFlush::Full(_))));
        assert_eq!(wc.open_buffers(), 0);
    }

    #[test]
    fn full_line_store_writes_through() {
        let mut wc = WriteCombiningBuffer::new(64, 4);
        assert_eq!(wc.nt_write(128, 64), vec![WcFlush::Full(128)]);
        assert_eq!(wc.open_buffers(), 0);
    }

    #[test]
    fn large_store_splits_into_lines() {
        let mut wc = WriteCombiningBuffer::new(64, 4);
        let flushes = wc.nt_write(0, 256);
        assert_eq!(
            flushes,
            vec![WcFlush::Full(0), WcFlush::Full(64), WcFlush::Full(128), WcFlush::Full(192)]
        );
    }

    #[test]
    fn unaligned_large_store_has_partial_edges() {
        let mut wc = WriteCombiningBuffer::new(64, 4);
        let mut flushes = wc.nt_write(32, 128); // covers [32, 160)
        flushes.extend(wc.flush_all());
        // Middle line 64 is full; lines 0 and 128 are half-filled.
        assert!(flushes.contains(&WcFlush::Full(64)));
        assert!(flushes.contains(&WcFlush::Partial(0, 32)));
        assert!(flushes.contains(&WcFlush::Partial(128, 32)));
    }

    #[test]
    fn buffer_pressure_evicts_oldest_partial() {
        let mut wc = WriteCombiningBuffer::new(64, 2);
        assert!(wc.nt_write(0, 16).is_empty());
        assert!(wc.nt_write(64, 16).is_empty());
        // Third distinct line evicts the oldest (line 0) partially.
        let flushes = wc.nt_write(128, 16);
        assert_eq!(flushes, vec![WcFlush::Partial(0, 16)]);
    }

    #[test]
    fn counts_partial_evictions_and_flush_sizes() {
        let mut wc = WriteCombiningBuffer::new(64, 2);
        wc.nt_write(0, 16);
        wc.nt_write(64, 16);
        wc.nt_write(128, 16); // evicts line 0, partially filled
        wc.nt_write(192, 64); // a full line writes through
        assert_eq!(wc.partial_evictions(), 1);
        let h = wc.flush_bytes();
        assert_eq!((h.name, h.count, h.sum, h.max), ("wcbuf.flush_bytes", 2, 16 + 64, 64));
    }

    #[test]
    fn flush_all_drains_open_buffers() {
        let mut wc = WriteCombiningBuffer::new(64, 4);
        wc.nt_write(0, 8);
        wc.nt_write(64, 8);
        let mut f = wc.flush_all();
        f.sort_by_key(|x| x.line());
        assert_eq!(f, vec![WcFlush::Partial(0, 8), WcFlush::Partial(64, 8)]);
        assert_eq!(wc.open_buffers(), 0);
        assert!(wc.flush_all().is_empty());
    }

    #[test]
    fn flush_line_accessor() {
        assert_eq!(WcFlush::Full(64).line(), 64);
        assert_eq!(WcFlush::Partial(128, 8).line(), 128);
    }

    #[test]
    fn respects_configured_line_size() {
        // Machine B uses 128-byte lines.
        let mut wc = WriteCombiningBuffer::new(128, 4);
        assert!(wc.nt_write(0, 64).is_empty());
        assert_eq!(wc.nt_write(64, 64), vec![WcFlush::Full(0)]);
    }
}
