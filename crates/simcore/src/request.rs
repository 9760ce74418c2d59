//! Request-boundary classification for per-request latency accounting.
//!
//! Traces are flat per-thread event streams; "requests" (a KV GET, a PUT
//! with its commit fence) are a workload-level notion the replay engine
//! knows nothing about. Rather than widening [`Event`] with a request
//! tag — which would change trace digests, memo keys and the on-disk
//! format — a workload hands the engine a [`RequestClasses`] state
//! machine that walks the same per-thread event order the engine retires
//! and says "this event completes a request of class C". The engine then
//! charges the retire-to-retire simulated cycles between consecutive
//! boundaries on that thread to class C's latency histogram.
//!
//! # Determinism
//!
//! `on_event` is called exactly once per *retired* event, in each
//! thread's program order — the one order that is identical across
//! `--jobs`, streaming/materialized replay and core interleavings. A classifier must derive its verdict only from
//! `(thread, event)` history, never from clocks or global state, so the
//! resulting histograms are byte-identical across all of those axes.

use crate::Event;

/// A per-thread request-boundary state machine; see the module docs.
///
/// Implementations are typically produced by the workload that emitted
/// the trace (e.g. `workloads::kv::serving`), replaying the same
/// deterministic arithmetic that generated the events.
pub trait RequestClasses: Send {
    /// The class labels, indexed by the id returned from
    /// [`RequestClasses::on_event`]. Fixed for the classifier's lifetime;
    /// one latency histogram is kept per label.
    fn class_names(&self) -> &'static [&'static str];

    /// Observe one retired event on `thread` (program order). Return
    /// `Some(class)` when this event is the *last* event of a request of
    /// that class; the engine charges the cycles since the previous
    /// boundary on this thread to it. Out-of-range class ids are ignored.
    fn on_event(&mut self, thread: usize, ev: &Event) -> Option<usize>;
}

/// A trivial classifier: every event with fence semantics ends a request
/// of class 0 ("op"). Useful for tests and for fence-delimited traces
/// without a workload-specific classifier.
#[derive(Debug, Default, Clone)]
pub struct FenceDelimited;

impl RequestClasses for FenceDelimited {
    fn class_names(&self) -> &'static [&'static str] {
        &["op"]
    }

    fn on_event(&mut self, _thread: usize, ev: &Event) -> Option<usize> {
        ev.kind.is_fence().then_some(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EventKind, FuncId};

    fn ev(kind: EventKind) -> Event {
        Event { addr: 0, size: 0, kind, func: FuncId::UNKNOWN, caller: FuncId::UNKNOWN }
    }

    #[test]
    fn fence_delimited_fires_on_fences_and_atomics_only() {
        let mut c = FenceDelimited;
        assert_eq!(c.on_event(0, &ev(EventKind::Write)), None);
        assert_eq!(c.on_event(0, &ev(EventKind::Read)), None);
        assert_eq!(c.on_event(0, &ev(EventKind::Fence)), Some(0));
        assert_eq!(c.on_event(1, &ev(EventKind::Atomic)), Some(0));
        assert_eq!(c.class_names(), &["op"]);
    }
}
