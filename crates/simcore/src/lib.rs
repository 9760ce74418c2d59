//! Shared vocabulary for the pre-stores simulator.
//!
//! This crate defines the types that every other crate in the workspace
//! speaks: simulated addresses and cycle counts, compact memory-trace
//! events, the [`Tracer`] that workloads use to mirror their memory
//! behaviour into a trace, a bump [`AddressSpace`] allocator for laying out
//! simulated objects, a deterministic [`rng::SimRng`], and the
//! [`FuncRegistry`] that interns the "instruction pointer" (function +
//! source line) attached to every event.
//!
//! The reproduction is *trace-then-simulate*: workloads run as ordinary,
//! functionally-correct Rust code and record every logical memory access
//! through a [`Tracer`]; the `machine` crate later replays those traces
//! through a cycle-accounted cache/memory-hierarchy model, and the
//! `dirtbuster` crate analyses the same traces to recommend pre-stores.

pub mod alloc;
pub mod error;
pub mod event;
pub mod faultinject;
pub mod fxhash;
pub mod intern;
pub mod loc;
pub mod par;
pub mod request;
pub mod rng;
pub mod serialize;
pub mod simd;
pub mod stats;
pub mod stream;
pub mod telemetry;
pub mod trace;

pub use alloc::{AddressSpace, Region};
pub use error::ValidateError;
pub use event::{Event, EventKind, PrestoreOp};
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use intern::{InternedTraces, LineId, LineInterner};
pub use loc::{FuncId, FuncInfo, FuncRegistry};
pub use request::RequestClasses;
pub use stream::{EventSource, SliceSource, StreamDigest, StreamFeed, StreamValidator};
pub use trace::{ThreadTrace, TraceSet, Tracer};

/// A simulated physical/virtual address (the simulator does not distinguish).
pub type Addr = u64;

/// A simulated cycle count.
pub type Cycles = u64;

/// Identifier of a simulated hardware thread / core.
pub type CoreId = usize;

/// Round `addr` down to the start of its naturally-aligned `unit`-byte block.
///
/// `unit` must be a power of two.
///
/// # Examples
///
/// ```
/// assert_eq!(simcore::align_down(130, 64), 128);
/// assert_eq!(simcore::align_down(128, 64), 128);
/// ```
#[inline]
pub const fn align_down(addr: Addr, unit: u64) -> Addr {
    debug_assert!(unit.is_power_of_two());
    addr & !(unit - 1)
}

/// Round `addr` up to the next multiple of `unit` (a power of two).
///
/// # Examples
///
/// ```
/// assert_eq!(simcore::align_up(130, 64), 192);
/// assert_eq!(simcore::align_up(128, 64), 128);
/// ```
#[inline]
pub const fn align_up(addr: Addr, unit: u64) -> Addr {
    debug_assert!(unit.is_power_of_two());
    (addr + unit - 1) & !(unit - 1)
}

/// Iterate over the `unit`-aligned block addresses that `[addr, addr+len)`
/// touches.
///
/// A zero-length access still touches the block containing `addr`.
///
/// Returns a concrete, non-allocating [`BlockIter`] (a bare add-and-compare
/// loop): this runs once per trace event on the replay hot path, where the
/// previous `RangeInclusive::step_by` form optimized poorly.
///
/// # Examples
///
/// ```
/// let lines: Vec<u64> = simcore::blocks_touched(60, 10, 64).collect();
/// assert_eq!(lines, vec![0, 64]);
/// ```
/// Accesses whose end would overflow the address space are clamped to the
/// top block: `addr.saturating_add(len - 1)`. Without the clamp, `last`
/// would wrap below `first` and the iterator would walk essentially the
/// whole address space — [`crate::trace::validate`] rejects such events
/// with [`error::ValidateError::AddressOverflow`], and the clamp keeps the
/// unvalidated (panicking) replay path from hanging on the same input.
#[inline]
pub fn blocks_touched(addr: Addr, len: u64, unit: u64) -> BlockIter {
    let first = align_down(addr, unit);
    let last = if len == 0 { first } else { align_down(addr.saturating_add(len - 1), unit) };
    BlockIter { next: first, last, unit, done: false }
}

/// Non-allocating iterator over the aligned blocks of one access; see
/// [`blocks_touched`].
#[derive(Debug, Clone)]
pub struct BlockIter {
    next: Addr,
    last: Addr,
    unit: u64,
    done: bool,
}

impl Iterator for BlockIter {
    type Item = Addr;

    #[inline]
    fn next(&mut self) -> Option<Addr> {
        if self.done {
            return None;
        }
        let cur = self.next;
        if cur == self.last {
            // Stop by flag rather than by stepping past `last`, which could
            // overflow for blocks at the top of the address space.
            self.done = true;
        } else {
            self.next = cur + self.unit;
        }
        Some(cur)
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = if self.done { 0 } else { ((self.last - self.next) / self.unit + 1) as usize };
        (n, Some(n))
    }
}

impl ExactSizeIterator for BlockIter {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn align_down_is_idempotent() {
        for a in [0u64, 1, 63, 64, 65, 255, 256, 1 << 40] {
            let d = align_down(a, 64);
            assert_eq!(align_down(d, 64), d);
            assert!(d <= a);
            assert!(a - d < 64);
        }
    }

    #[test]
    fn align_up_matches_down() {
        assert_eq!(align_up(0, 64), 0);
        assert_eq!(align_up(1, 64), 64);
        assert_eq!(align_up(64, 64), 64);
        assert_eq!(align_up(65, 256), 256);
    }

    #[test]
    fn blocks_touched_spans_boundaries() {
        let v: Vec<_> = blocks_touched(0, 64, 64).collect();
        assert_eq!(v, vec![0]);
        let v: Vec<_> = blocks_touched(32, 64, 64).collect();
        assert_eq!(v, vec![0, 64]);
        let v: Vec<_> = blocks_touched(100, 300, 256).collect();
        assert_eq!(v, vec![0, 256]);
        let v: Vec<_> = blocks_touched(0, 0, 64).collect();
        assert_eq!(v, vec![0]);
    }

    #[test]
    fn blocks_touched_reports_exact_len_and_survives_address_top() {
        assert_eq!(blocks_touched(4096, 4096, 64).len(), 64);
        assert_eq!(blocks_touched(0, 0, 64).len(), 1);
        // The very last 64B block of the address space must not overflow.
        let top = u64::MAX - 63;
        let v: Vec<_> = blocks_touched(top, 64, 64).collect();
        assert_eq!(v, vec![top]);
    }

    #[test]
    fn blocks_touched_clamps_past_the_address_top() {
        // An access whose end would overflow u64 must terminate at the top
        // block instead of wrapping `last` below `first` (which would walk
        // the whole address space).
        let v: Vec<_> = blocks_touched(u64::MAX - 3, 64, 64).collect();
        assert_eq!(v, vec![align_down(u64::MAX - 3, 64)]);
        let v: Vec<_> = blocks_touched(u64::MAX - 100, u64::MAX, 64).collect();
        assert_eq!(v.len(), 2);
        assert_eq!(*v.last().unwrap(), align_down(u64::MAX, 64));
    }

    #[test]
    fn blocks_touched_large_write() {
        let v: Vec<_> = blocks_touched(4096, 4096, 64).collect();
        assert_eq!(v.len(), 64);
        assert_eq!(v[0], 4096);
        assert_eq!(*v.last().unwrap(), 4096 + 4096 - 64);
    }
}
