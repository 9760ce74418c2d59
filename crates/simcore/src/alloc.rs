//! Simulated address-space layout.
//!
//! Workloads place their logical objects (arrays, hash-table buckets, KV
//! values, message slots) at simulated addresses handed out by a bump
//! [`AddressSpace`]. Regions are named so that analysis reports can refer
//! to objects ("matrix U", "value arena") the way the paper's DirtBuster
//! output refers to tensors and matrices.

use crate::{align_up, Addr};

/// A named, allocated range of the simulated address space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Region {
    /// Human-readable object name.
    pub name: String,
    /// First address of the region.
    pub base: Addr,
    /// Size in bytes.
    pub len: u64,
}

impl Region {
    /// Exclusive end address.
    pub fn end(&self) -> Addr {
        self.base + self.len
    }

    /// Whether `addr` falls inside the region.
    pub fn contains(&self, addr: Addr) -> bool {
        addr >= self.base && addr < self.end()
    }
}

/// Bump allocator over a simulated address space.
///
/// Allocations never overlap and are aligned as requested. The allocator
/// starts at a non-zero base so that address 0 can serve as a null
/// sentinel.
///
/// # Examples
///
/// ```
/// let mut space = simcore::AddressSpace::new();
/// let a = space.alloc("array A", 4096, 64);
/// let b = space.alloc("array B", 4096, 64);
/// assert_eq!(a % 64, 0);
/// assert!(b >= a + 4096);
/// assert_eq!(space.region_of(a).unwrap().name, "array A");
/// ```
#[derive(Debug, Clone)]
pub struct AddressSpace {
    next: Addr,
    regions: Vec<Region>,
}

/// Base address of the first allocation.
const BASE: Addr = 0x1_0000;

impl Default for AddressSpace {
    fn default() -> Self {
        Self::new()
    }
}

impl AddressSpace {
    /// Create an empty address space.
    pub fn new() -> Self {
        Self { next: BASE, regions: Vec::new() }
    }

    /// Allocate `len` bytes aligned to `align` (a power of two), returning
    /// the base address.
    ///
    /// # Panics
    ///
    /// Panics if `align` is not a power of two.
    pub fn alloc(&mut self, name: &str, len: u64, align: u64) -> Addr {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let base = align_up(self.next, align);
        self.next = base + len.max(1);
        self.regions.push(Region { name: name.to_owned(), base, len });
        base
    }

    /// The region containing `addr`, if any.
    pub fn region_of(&self, addr: Addr) -> Option<&Region> {
        // Regions are allocated in increasing address order.
        let idx = self.regions.partition_point(|r| r.base <= addr);
        idx.checked_sub(1).map(|i| &self.regions[i]).filter(|r| r.contains(addr))
    }

    /// All allocated regions, in address order.
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// Total bytes allocated so far (including alignment padding).
    pub fn used(&self) -> u64 {
        self.next - BASE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocations_do_not_overlap() {
        let mut s = AddressSpace::new();
        let mut prev_end = 0;
        for i in 0..100 {
            let len = (i % 7 + 1) * 37;
            let base = s.alloc(&format!("r{i}"), len, 64);
            assert!(base >= prev_end);
            assert_eq!(base % 64, 0);
            prev_end = base + len;
        }
    }

    #[test]
    fn region_lookup() {
        let mut s = AddressSpace::new();
        let a = s.alloc("a", 100, 64);
        let b = s.alloc("b", 100, 256);
        assert_eq!(s.region_of(a).unwrap().name, "a");
        assert_eq!(s.region_of(a + 99).unwrap().name, "a");
        assert_eq!(s.region_of(b).unwrap().name, "b");
        // The gap between a+100 and b (alignment padding) belongs to no one.
        assert!(s.region_of(a + 100).is_none() || b == a + 100);
        assert!(s.region_of(0).is_none());
        assert!(s.region_of(u64::MAX).is_none());
    }

    #[test]
    fn zero_length_allocation_still_advances() {
        let mut s = AddressSpace::new();
        let a = s.alloc("a", 0, 64);
        let b = s.alloc("b", 64, 64);
        assert_ne!(a, b);
    }

    #[test]
    fn used_tracks_total() {
        let mut s = AddressSpace::new();
        s.alloc("a", 64, 64);
        s.alloc("b", 64, 64);
        assert_eq!(s.used(), 128);
    }
}
