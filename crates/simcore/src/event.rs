//! Compact memory-trace events.
//!
//! Every logical operation a workload performs is mirrored into one
//! [`Event`]. Events are deliberately small (24 bytes) because realistic
//! workloads emit millions of them; large contiguous accesses are kept as a
//! single event and split into cache lines by the replay engine.

use crate::{Addr, FuncId};

/// The pre-store operation requested by an [`EventKind::PrestoreClean`] /
/// [`EventKind::PrestoreDemote`] event.
///
/// Mirrors the `op_t` parameter of the paper's
/// `prestore(void *location, size_t size, op_t op)` function (§2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrestoreOp {
    /// Move data down the cache hierarchy (x86 `cldemote`, ARM `dc cvau`):
    /// make privately-buffered stores globally visible without evicting.
    Demote,
    /// Write dirty data back to memory but keep it cached (x86 `clwb`).
    Clean,
}

impl PrestoreOp {
    /// Human-readable lowercase name, as printed in the paper's reports.
    pub fn name(self) -> &'static str {
        match self {
            PrestoreOp::Demote => "demote",
            PrestoreOp::Clean => "clean",
        }
    }
}

/// The kind of a trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum EventKind {
    /// A load of `size` bytes at `addr`.
    Read = 0,
    /// A store of `size` bytes at `addr`.
    Write = 1,
    /// A non-temporal store: bypasses the cache ("skipping", §5).
    NtWrite = 2,
    /// A `clean` pre-store covering `size` bytes at `addr`.
    PrestoreClean = 3,
    /// A `demote` pre-store covering `size` bytes at `addr`.
    PrestoreDemote = 4,
    /// A memory fence (`mfence`/`sfence`/`dmb`): orders all prior stores.
    Fence = 5,
    /// An atomic read-modify-write (CAS, fetch-add, lock acquisition).
    /// Has fence semantics (§6.2.2).
    Atomic = 6,
    /// Pure computation: `addr` holds the number of CPU cycles consumed.
    Compute = 7,
    /// Synchronization acquire: block until the line at `addr` has been
    /// released (by an [`EventKind::Atomic`]) at least `size` times.
    /// Replay-level synchronization for producer/consumer workloads; does
    /// not touch memory by itself.
    Acquire = 8,
}

impl EventKind {
    /// Whether this kind dirties memory (a plain or non-temporal store).
    #[inline]
    pub fn is_store(self) -> bool {
        matches!(self, EventKind::Write | EventKind::NtWrite)
    }

    /// Whether this kind has fence semantics (orders prior stores).
    #[inline]
    pub fn is_fence(self) -> bool {
        matches!(self, EventKind::Fence | EventKind::Atomic)
    }

    /// Whether this kind touches memory at all.
    #[inline]
    pub fn is_access(self) -> bool {
        !matches!(self, EventKind::Fence | EventKind::Compute | EventKind::Acquire)
    }
}

/// One entry of a memory trace.
///
/// The `func` field plays the role of the instruction pointer in the
/// paper's PIN-based instrumentation: it identifies the function (and
/// source line, via [`crate::FuncRegistry`]) that issued the operation.
/// `caller` records one level of call chain, which DirtBuster's sampling
/// step uses to attribute writes in generic helpers (e.g. `memcpy`) back to
/// application code (§6.2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Target address (or cycle count for [`EventKind::Compute`]).
    pub addr: Addr,
    /// Access size in bytes (0 for fences/compute).
    pub size: u32,
    /// What happened.
    pub kind: EventKind,
    /// Function that issued the operation.
    pub func: FuncId,
    /// Function's immediate caller ([`FuncId::UNKNOWN`] at top level).
    pub caller: FuncId,
}

impl Event {
    /// End address (exclusive) of the accessed range.
    #[inline]
    pub fn end(&self) -> Addr {
        self.addr + self.size as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_is_compact() {
        // Millions of events per trace: keep the representation small.
        assert!(std::mem::size_of::<Event>() <= 24);
    }

    #[test]
    fn kind_predicates() {
        assert!(EventKind::Write.is_store());
        assert!(EventKind::NtWrite.is_store());
        assert!(!EventKind::Read.is_store());
        assert!(EventKind::Fence.is_fence());
        assert!(EventKind::Atomic.is_fence());
        assert!(!EventKind::Write.is_fence());
        assert!(EventKind::Atomic.is_access());
        assert!(!EventKind::Fence.is_access());
        assert!(!EventKind::Compute.is_access());
    }

    #[test]
    fn op_names() {
        assert_eq!(PrestoreOp::Demote.name(), "demote");
        assert_eq!(PrestoreOp::Clean.name(), "clean");
    }
}
