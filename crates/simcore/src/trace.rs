//! Trace recording: the [`Tracer`] handle that workloads drive.
//!
//! A [`Tracer`] plays the role of Intel PIN in the paper's methodology
//! (§6.1): it observes every read, write, fence and atomic the workload
//! performs. Unlike PIN, the workloads cooperate by mirroring their logical
//! accesses explicitly, which also lets the *same* trace be replayed on
//! different simulated machines.

use crate::error::ValidateError;
use crate::intern::InternedTraces;
use crate::stream::StreamValidator;
use crate::{Addr, Event, EventKind, FuncId, PrestoreOp};
use std::sync::{Arc, Mutex};

/// The trace of a single simulated thread.
#[derive(Debug, Default, Clone)]
pub struct ThreadTrace {
    /// Events in program order.
    pub events: Vec<Event>,
}

impl ThreadTrace {
    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Total bytes written by plain and non-temporal stores.
    pub fn bytes_written(&self) -> u64 {
        self.events
            .iter()
            .filter(|e| e.kind.is_store())
            .map(|e| e.size as u64)
            .sum()
    }

    /// Fraction of non-compute events that are stores (the paper's proxy
    /// for "time spent issuing store instructions", §7.1).
    pub fn store_fraction(&self) -> f64 {
        let accesses = self.events.iter().filter(|e| e.kind.is_access()).count();
        if accesses == 0 {
            return 0.0;
        }
        let stores = self.events.iter().filter(|e| e.kind.is_store()).count();
        stores as f64 / accesses as f64
    }
}

/// A set of per-thread traces produced by one workload run.
#[derive(Debug, Default)]
pub struct TraceSet {
    /// One trace per simulated thread.
    pub threads: Vec<ThreadTrace>,
    /// Lazily-built interned views (line interner + per-event id streams),
    /// one per line size this set has been replayed with (Machine A uses
    /// 64 B lines, Machine B 128 B). This is a derived side cache, not part
    /// of the trace's value: `Clone` resets it, and it never affects
    /// equality or serialization.
    interners: Mutex<Vec<(u64, Arc<InternedTraces>)>>,
}

impl Clone for TraceSet {
    fn clone(&self) -> Self {
        // Deliberately drop the interner cache: clones are typically made
        // to *mutate* the events (fault injection, pre-store patching), so
        // any cached interner would silently go stale.
        Self::new(self.threads.clone())
    }
}

impl TraceSet {
    /// Build a trace set from per-thread traces.
    pub fn new(threads: Vec<ThreadTrace>) -> Self {
        Self { threads, interners: Mutex::new(Vec::new()) }
    }

    /// The interned view of this trace set for `line_size`-byte lines
    /// (line interner plus per-event id streams), built on first use and
    /// cached on the trace set.
    ///
    /// Memoized workloads (`ps_bench::memo`) hand out one shared
    /// `TraceSet` per sweep, so every machine config and pre-store mode
    /// replaying it reuses the same interned view instead of re-hashing
    /// the trace — the interning cost is paid once per (workload, line
    /// size).
    pub fn interned_for(&self, line_size: u64) -> Arc<InternedTraces> {
        let mut cache = self.interners.lock().unwrap_or_else(|e| e.into_inner());
        if let Some((_, interned)) = cache.iter().find(|(ls, _)| *ls == line_size) {
            return Arc::clone(interned);
        }
        let built = Arc::new(InternedTraces::from_threads(&self.threads, line_size));
        cache.push((line_size, Arc::clone(&built)));
        built
    }

    /// Total number of events across all threads.
    pub fn total_events(&self) -> usize {
        self.threads.iter().map(ThreadTrace::len).sum()
    }

    /// Total bytes stored across all threads.
    pub fn bytes_written(&self) -> u64 {
        self.threads.iter().map(ThreadTrace::bytes_written).sum()
    }

    /// Store fraction over the union of all threads.
    pub fn store_fraction(&self) -> f64 {
        let accesses: usize = self
            .threads
            .iter()
            .map(|t| t.events.iter().filter(|e| e.kind.is_access()).count())
            .sum();
        if accesses == 0 {
            return 0.0;
        }
        let stores: usize = self
            .threads
            .iter()
            .map(|t| t.events.iter().filter(|e| e.kind.is_store()).count())
            .sum();
        stores as f64 / accesses as f64
    }
}

/// Records the memory behaviour of one simulated thread.
///
/// The tracer maintains a current-function stack so that every event is
/// tagged with the function (and one caller level) that issued it.
///
/// # Examples
///
/// ```
/// use simcore::{FuncRegistry, Tracer};
///
/// let mut reg = FuncRegistry::new();
/// let put = reg.register("ycsb_put", "kv.rs", 10);
/// let mut t = Tracer::new();
/// {
///     let mut g = t.enter(put);
///     g.write(0x1000, 64);
///     g.fence();
/// }
/// let trace = t.finish();
/// assert_eq!(trace.len(), 2);
/// assert_eq!(trace.events[0].func, put);
/// ```
#[derive(Debug, Default)]
pub struct Tracer {
    events: Vec<Event>,
    stack: Vec<FuncId>,
}

/// RAII guard that pops the function stack when dropped.
///
/// Returned by [`Tracer::enter`]; hold it for the dynamic extent of the
/// traced function.
pub struct FuncGuard<'a> {
    tracer: &'a mut Tracer,
}

impl Drop for FuncGuard<'_> {
    fn drop(&mut self) {
        self.tracer.stack.pop();
    }
}

impl std::ops::Deref for FuncGuard<'_> {
    type Target = Tracer;

    fn deref(&self) -> &Tracer {
        self.tracer
    }
}

impl std::ops::DerefMut for FuncGuard<'_> {
    fn deref_mut(&mut self) -> &mut Tracer {
        self.tracer
    }
}

impl Tracer {
    /// Create an empty tracer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a tracer pre-sized for roughly `n` events.
    pub fn with_capacity(n: usize) -> Self {
        Self { events: Vec::with_capacity(n), stack: Vec::new() }
    }

    /// Push `func` onto the attribution stack for the lifetime of the guard.
    pub fn enter(&mut self, func: FuncId) -> FuncGuard<'_> {
        self.stack.push(func);
        FuncGuard { tracer: self }
    }

    /// Push `func` without a guard; pair with [`Tracer::leave`].
    ///
    /// Useful when the traced region does not nest lexically.
    pub fn enter_raw(&mut self, func: FuncId) {
        self.stack.push(func);
    }

    /// Pop the attribution stack (no-op when empty).
    pub fn leave(&mut self) {
        self.stack.pop();
    }

    #[inline]
    fn frame(&self) -> (FuncId, FuncId) {
        let n = self.stack.len();
        let func = if n > 0 { self.stack[n - 1] } else { FuncId::UNKNOWN };
        let caller = if n > 1 { self.stack[n - 2] } else { FuncId::UNKNOWN };
        (func, caller)
    }

    #[inline]
    fn push(&mut self, kind: EventKind, addr: Addr, size: u32) {
        let (func, caller) = self.frame();
        self.events.push(Event { addr, size, kind, func, caller });
    }

    /// Record a load of `size` bytes at `addr`.
    #[inline]
    pub fn read(&mut self, addr: Addr, size: u32) {
        self.push(EventKind::Read, addr, size);
    }

    /// Record a store of `size` bytes at `addr`.
    #[inline]
    pub fn write(&mut self, addr: Addr, size: u32) {
        self.push(EventKind::Write, addr, size);
    }

    /// Record a non-temporal (cache-skipping) store.
    #[inline]
    pub fn nt_write(&mut self, addr: Addr, size: u32) {
        self.push(EventKind::NtWrite, addr, size);
    }

    /// Record a pre-store covering `size` bytes at `addr`.
    #[inline]
    pub fn prestore(&mut self, addr: Addr, size: u32, op: PrestoreOp) {
        let kind = match op {
            PrestoreOp::Clean => EventKind::PrestoreClean,
            PrestoreOp::Demote => EventKind::PrestoreDemote,
        };
        self.push(kind, addr, size);
    }

    /// Record a full memory fence.
    #[inline]
    pub fn fence(&mut self) {
        self.push(EventKind::Fence, 0, 0);
    }

    /// Record an atomic read-modify-write on `size` bytes at `addr`.
    #[inline]
    pub fn atomic(&mut self, addr: Addr, size: u32) {
        self.push(EventKind::Atomic, addr, size);
    }

    /// Record `cycles` of pure computation (no memory traffic).
    #[inline]
    pub fn compute(&mut self, cycles: u64) {
        self.push(EventKind::Compute, cycles, 0);
    }

    /// Block replay until the line at `addr` has been released (by an
    /// atomic) at least `seq` times — cross-thread hand-off for
    /// producer/consumer traces.
    #[inline]
    pub fn acquire(&mut self, addr: Addr, seq: u32) {
        self.push(EventKind::Acquire, addr, seq);
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Append a pre-built event verbatim (trace surgery / replay tools).
    pub fn push_event(&mut self, ev: Event) {
        self.events.push(ev);
    }

    /// Consume the tracer, yielding the recorded trace.
    pub fn finish(self) -> ThreadTrace {
        ThreadTrace { events: self.events }
    }
}

/// Validate a trace set before replay: catches the mistakes that would
/// otherwise surface as replay panics or silent deadlocks.
///
/// Checks:
/// * every memory access has a non-zero size no larger than
///   [`crate::error::MAX_ACCESS_BYTES`];
/// * no access extends past the top of the 64-bit address space
///   (`addr + size - 1` must not overflow);
/// * every [`EventKind::Acquire`] can be satisfied — some thread performs
///   at least `seq` atomics on the same line (64 B granularity);
/// * acquire sequence numbers are non-zero;
/// * the trace set's distinct-line footprint fits the dense
///   [`crate::LineId`] space ([`ValidateError::TooManyLines`]).
///
/// # Examples
///
/// ```
/// use simcore::{trace::validate, ValidateError, TraceSet, Tracer};
///
/// let mut t = Tracer::new();
/// t.acquire(0, 1); // nobody releases line 0
/// let err = validate(&TraceSet::new(vec![t.finish()]), 64).unwrap_err();
/// assert!(matches!(err, ValidateError::AcquireUnsatisfiable { .. }));
/// assert!(err.to_string().contains("acquire"));
/// ```
pub fn validate(traces: &TraceSet, line_size: u64) -> Result<(), ValidateError> {
    validate_threads(&traces.threads, line_size)
}

/// [`validate`] over a borrowed slice of per-thread traces — the zero-copy
/// entry point used when no [`TraceSet`] wrapper exists (single-trace
/// replay paths).
pub fn validate_threads(threads: &[ThreadTrace], line_size: u64) -> Result<(), ValidateError> {
    validate_and_intern(threads, line_size).map(|_| ())
}

/// Validate `threads` and intern every line they touch, in one sweep.
///
/// Validation already walks every event of every thread, making it the
/// natural place to discover the trace's line set: the returned
/// [`InternedTraces`] maps each line-aligned address the replay engine
/// will touch to a dense `u32` id — and records, per event, the exact run
/// of ids the engine's splitting will need, so replay resolves ids by
/// walking an array instead of hashing addresses on every event.
///
/// The checks (and the order errors are reported in) are exactly those of
/// [`validate`].
pub fn validate_and_intern(
    threads: &[ThreadTrace],
    line_size: u64,
) -> Result<InternedTraces, ValidateError> {
    // Pass 1: count releases (atomics) per line across all threads, so
    // acquires can be checked against the whole trace set in pass 2.
    let mut releases: crate::FxHashMap<Addr, u32> = crate::FxHashMap::default();
    for t in threads {
        for ev in &t.events {
            if ev.kind == EventKind::Atomic {
                *releases.entry(crate::align_down(ev.addr, line_size)).or_default() += 1;
            }
        }
    }
    // Pass 2: the per-event checks of the streaming validator, plus the
    // one whole-trace check a stream cannot make: every acquire has enough
    // releases. Interning happens only after the whole set validates (an
    // oversize access must be rejected *before* its blocks are expanded,
    // and a partially-built intern view is useless anyway).
    let mut validator = StreamValidator::new(threads.len());
    for (tid, t) in threads.iter().enumerate() {
        for (i, ev) in t.events.iter().enumerate() {
            validator.check(tid, ev)?;
            if ev.kind == EventKind::Acquire {
                let line = crate::align_down(ev.addr, line_size);
                let available = releases.get(&line).copied().unwrap_or(0);
                if available < ev.size {
                    return Err(ValidateError::AcquireUnsatisfiable {
                        thread: tid,
                        index: i,
                        line,
                        seq: ev.size,
                        available,
                    });
                }
            }
        }
    }
    InternedTraces::try_from_threads(threads, line_size)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::MAX_ACCESS_BYTES;

    #[test]
    fn records_in_order_with_attribution() {
        let mut reg = crate::FuncRegistry::new();
        let outer = reg.register("outer", "t.rs", 1);
        let inner = reg.register("inner", "t.rs", 2);

        let mut t = Tracer::new();
        {
            let mut g = t.enter(outer);
            g.read(0, 8);
            {
                let mut g2 = g.enter(inner);
                g2.write(64, 8);
            }
            g.fence();
        }
        t.write(128, 8);
        let tr = t.finish();
        assert_eq!(tr.len(), 4);
        assert_eq!(tr.events[0].func, outer);
        assert_eq!(tr.events[0].caller, FuncId::UNKNOWN);
        assert_eq!(tr.events[1].func, inner);
        assert_eq!(tr.events[1].caller, outer);
        assert_eq!(tr.events[2].func, outer);
        assert_eq!(tr.events[3].func, FuncId::UNKNOWN);
    }

    #[test]
    fn store_fraction_counts_only_accesses() {
        let mut t = Tracer::new();
        t.write(0, 64);
        t.read(0, 64);
        t.fence();
        t.compute(100);
        let tr = t.finish();
        assert!((tr.store_fraction() - 0.5).abs() < 1e-9);
        assert_eq!(tr.bytes_written(), 64);
    }

    #[test]
    fn nt_writes_count_as_stores() {
        let mut t = Tracer::new();
        t.nt_write(0, 256);
        let tr = t.finish();
        assert_eq!(tr.bytes_written(), 256);
        assert!((tr.store_fraction() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn trace_set_aggregates() {
        let mut a = Tracer::new();
        a.write(0, 64);
        let mut b = Tracer::new();
        b.write(64, 64);
        b.read(0, 64);
        let set = TraceSet::new(vec![a.finish(), b.finish()]);
        assert_eq!(set.total_events(), 3);
        assert_eq!(set.bytes_written(), 128);
        assert!((set.store_fraction() - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn validate_accepts_well_formed_traces() {
        let mut p = Tracer::new();
        p.write(0, 64);
        p.atomic(128, 8);
        let mut c = Tracer::new();
        c.acquire(130, 1); // same 64B line as the atomic
        c.read(0, 8);
        let traces = TraceSet::new(vec![p.finish(), c.finish()]);
        assert!(validate(&traces, 64).is_ok());
    }

    #[test]
    fn validate_rejects_zero_size_access() {
        let mut t = Tracer::new();
        t.read(0, 0);
        let err = validate(&TraceSet::new(vec![t.finish()]), 64).unwrap_err();
        assert!(
            matches!(err, ValidateError::ZeroSizeAccess { thread: 0, index: 0, .. }),
            "{err}"
        );
        assert!(err.to_string().contains("zero-size"), "{err}");
    }

    #[test]
    fn validate_rejects_oversize_access() {
        let mut t = Tracer::new();
        t.write(0, MAX_ACCESS_BYTES + 1);
        let err = validate(&TraceSet::new(vec![t.finish()]), 64).unwrap_err();
        assert!(matches!(err, ValidateError::OversizeAccess { .. }), "{err}");
        // The bound itself is accepted.
        let mut t = Tracer::new();
        t.write(0, MAX_ACCESS_BYTES);
        assert!(validate(&TraceSet::new(vec![t.finish()]), 64).is_ok());
    }

    #[test]
    fn validate_rejects_address_overflow() {
        let mut t = Tracer::new();
        t.write(u64::MAX - 3, 64); // end would wrap past the address top
        let err = validate(&TraceSet::new(vec![t.finish()]), 64).unwrap_err();
        assert!(
            matches!(err, ValidateError::AddressOverflow { thread: 0, index: 0, .. }),
            "{err}"
        );
        assert!(err.to_string().contains("address space"), "{err}");
        // An access ending exactly at the top is accepted.
        let mut t = Tracer::new();
        t.write(u64::MAX - 63, 64);
        assert!(validate(&TraceSet::new(vec![t.finish()]), 64).is_ok());
    }

    #[test]
    fn validate_rejects_unsatisfiable_acquire() {
        let mut p = Tracer::new();
        p.atomic(0, 8); // one release
        let mut c = Tracer::new();
        c.acquire(0, 2); // waits for a second release that never comes
        let traces = TraceSet::new(vec![p.finish(), c.finish()]);
        let err = validate(&traces, 64).unwrap_err();
        assert_eq!(
            err,
            ValidateError::AcquireUnsatisfiable {
                thread: 1,
                index: 0,
                line: 0,
                seq: 2,
                available: 1
            }
        );
        assert!(err.to_string().contains("deadlock"), "{err}");
    }

    #[test]
    fn validate_rejects_zero_sequence_acquire() {
        let mut t = Tracer::new();
        t.acquire(0, 0);
        let err = validate(&TraceSet::new(vec![t.finish()]), 64).unwrap_err();
        assert!(matches!(err, ValidateError::ZeroSequenceAcquire { .. }), "{err}");
    }

    #[test]
    fn validate_and_intern_covers_every_touched_line() {
        let mut p = Tracer::new();
        p.write(60, 10); // lines 0 and 64
        p.atomic(128, 8);
        let mut c = Tracer::new();
        c.acquire(130, 1);
        let interned =
            validate_and_intern(&[p.finish(), c.finish()], 64).expect("valid traces");
        let interner = interned.interner();
        assert_eq!(interner.len(), 3);
        for line in [0, 64, 128] {
            assert!(interner.id_of(line).is_some(), "line {line} not interned");
        }
        // The id streams cover both threads: producer's write split into
        // two lines, consumer's acquire resolved to one.
        assert_eq!(interned.ids_for(0, 0).len(), 2);
        assert_eq!(interned.ids_for(1, 0).len(), 1);
    }

    #[test]
    fn interned_for_is_cached_per_line_size_and_reset_by_clone() {
        let mut t = Tracer::new();
        t.write(0, 256);
        let set = TraceSet::new(vec![t.finish()]);
        let a = set.interned_for(64);
        let b = set.interned_for(64);
        assert!(Arc::ptr_eq(&a, &b), "same line size must reuse the cached intern view");
        let wide = set.interned_for(128);
        assert_eq!(a.interner().len(), 4);
        assert_eq!(wide.interner().len(), 2);
        // A clone may be mutated, so it must not inherit the cache.
        let cloned = set.clone();
        assert!(!Arc::ptr_eq(&a, &cloned.interned_for(64)));
    }

    #[test]
    fn enter_raw_and_leave() {
        let mut reg = crate::FuncRegistry::new();
        let f = reg.register("f", "t.rs", 1);
        let mut t = Tracer::new();
        t.enter_raw(f);
        t.write(0, 8);
        t.leave();
        t.write(8, 8);
        let tr = t.finish();
        assert_eq!(tr.events[0].func, f);
        assert_eq!(tr.events[1].func, FuncId::UNKNOWN);
    }
}
