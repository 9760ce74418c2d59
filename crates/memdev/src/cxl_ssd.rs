//! CXL-attached SSD memory: byte-addressable storage with very large
//! internal granularity (256 B / 512 B per Table 1).
//!
//! Mechanically identical to the Optane model but with configurable,
//! larger blocks and lower bandwidth — used by the extension experiments
//! that sweep the internal granularity beyond Optane's 256 B.

use crate::{DeviceStats, MemDevice, OptanePmem};
use simcore::{Addr, Cycles};

/// A CXL SSD exposing byte-addressable, cacheable memory.
///
/// Delegates the block-buffer accounting to the same mechanism as
/// [`OptanePmem`], with SSD-class parameters.
#[derive(Debug, Clone)]
pub struct CxlSsd {
    inner: OptanePmem,
}

impl Default for CxlSsd {
    fn default() -> Self {
        Self::new(512)
    }
}

impl CxlSsd {
    /// Create a CXL SSD with the given internal granularity (256 or 512).
    ///
    /// # Panics
    ///
    /// Panics if `block` is not a power of two.
    pub fn new(block: u64) -> Self {
        // ~600-cycle reads, 1 GB/s media writes (~0.5 B/cycle at 2.1 GHz),
        // a 32-block internal buffer.
        Self { inner: OptanePmem::new(600, 100, 0.5, block, 32) }
    }

    /// A pristine copy with the same parameters; see [`OptanePmem::fresh`].
    pub fn fresh(&self) -> Self {
        Self { inner: self.inner.fresh() }
    }
}

impl MemDevice for CxlSsd {
    fn name(&self) -> &'static str {
        "CXL SSD"
    }

    #[inline]
    fn read_latency(&self) -> Cycles {
        self.inner.read_latency()
    }

    #[inline]
    fn write_accept_latency(&self) -> Cycles {
        self.inner.write_accept_latency()
    }

    #[inline]
    fn write_latency(&self) -> Cycles {
        800
    }

    #[inline]
    fn directory_latency(&self) -> Cycles {
        self.inner.directory_latency()
    }

    fn internal_granularity(&self) -> u64 {
        self.inner.internal_granularity()
    }

    fn media_write_bandwidth(&self) -> f64 {
        self.inner.media_write_bandwidth()
    }

    #[inline]
    fn receive_write(&mut self, addr: Addr, bytes: u64) {
        self.inner.receive_write(addr, bytes);
    }

    #[inline]
    fn receive_read(&mut self, addr: Addr, bytes: u64) {
        self.inner.receive_read(addr, bytes);
    }

    fn flush(&mut self) {
        self.inner.flush();
    }

    #[inline]
    fn stats(&self) -> &DeviceStats {
        self.inner.stats()
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats();
    }

    fn durable_media(&self) -> bool {
        // Flash media is persistent: closed blocks survive power loss.
        true
    }

    fn buffered_blocks_into(&self, out: &mut Vec<(Addr, u64)>) {
        self.inner.buffered_blocks_into(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_512b_blocks() {
        let d = CxlSsd::default();
        assert_eq!(d.internal_granularity(), 512);
    }

    #[test]
    fn amplification_reaches_8x_with_64b_lines() {
        let mut d = CxlSsd::new(512);
        // One 64 B line per 512 B block, spread out: 8x amplification.
        for i in 0..64u64 {
            d.receive_write(i * 8192, 64);
        }
        d.flush();
        assert_eq!(d.stats().write_amplification(), 8.0);
    }

    #[test]
    fn sequential_writes_are_clean() {
        let mut d = CxlSsd::new(256);
        for i in 0..64u64 {
            d.receive_write(i * 64, 64);
        }
        d.flush();
        assert_eq!(d.stats().write_amplification(), 1.0);
    }
}
