//! Bounded-memory event streaming: record→validate→intern→replay fusion.
//!
//! The materialized pipeline records a whole [`crate::TraceSet`], validates
//! it, interns it, and only then replays — which caps workload size at what
//! fits in RAM. This module provides the chunked alternative: an
//! [`EventSource`] yields bounded batches of events per thread, a
//! [`StreamFeed`] validates and interns each batch as it arrives (carrying
//! the interner and validation state across chunks), and the replay engine
//! consumes the per-chunk windows without the full trace ever existing.
//!
//! A materialized trace is just one big chunk source ([`SliceSource`]), so
//! the two pipelines share every rule:
//!
//! * **Validation** runs [`StreamValidator`], the per-event checks that
//!   [`crate::trace::validate_and_intern`] runs too (zero-size, oversize,
//!   address overflow, zero-sequence acquires). The one *whole-trace* check —
//!   static acquire satisfiability — needs every thread's full event list
//!   and is deliberately not replicated here: a stream's future is unknown
//!   by construction, so an unsatisfiable acquire surfaces as the engine's
//!   runtime deadlock detection instead of a pre-replay error.
//! * **Interning** uses the ordinary [`LineInterner`], grown incrementally:
//!   each chunk interns its new lines in arrival order, and the engine
//!   grows its id-indexed tables to match after every refill.
//! * **Digesting** folds every event into a per-thread rolling FxHash
//!   lane, combined into one stream digest at the end. The digest is
//!   *chunk-size invariant* — replaying the same stream at any chunk size
//!   (including a fully materialized replay) produces the same digest — so
//!   it can key memoization of streaming results.

use crate::error::MAX_ACCESS_BYTES;
use crate::fxhash::{FxBuildHasher, FxHasher};
use crate::intern::LineInterner;
use crate::{Event, EventKind, LineId, ThreadTrace, ValidateError};
use std::hash::{BuildHasher, Hasher};

/// A fresh fixed-seed FxHash lane (the digest is deliberately seedless —
/// the same stream must digest identically in every process).
fn fx_lane() -> FxHasher {
    FxBuildHasher::default().build_hasher()
}

/// A generator of per-thread event batches with bounded memory.
///
/// Implementations range from adapters over already-materialized traces
/// ([`SliceSource`]) to synthetic workloads that compute events on the fly
/// and never hold more than one batch (`workloads`' KV serving scenario).
pub trait EventSource {
    /// Number of simulated threads this source generates (fixed for the
    /// source's lifetime; one replay core per thread).
    fn threads(&self) -> usize;

    /// Append up to `max` more of `thread`'s events to `buf`, returning
    /// how many were appended. Returning `0` means the thread is
    /// exhausted — `fill` will not be called for it again (until
    /// [`EventSource::reset`]). Sources may return fewer than `max`
    /// events (e.g. to finish at an operation boundary) without meaning
    /// exhaustion.
    fn fill(&mut self, thread: usize, max: usize, buf: &mut Vec<Event>) -> usize;

    /// Rewind the source to the beginning of every thread's stream, so the
    /// same source can be digested, replayed, or materialized repeatedly.
    fn reset(&mut self);

    /// Total events the source will generate across all threads, if known
    /// (progress reporting only; never trusted for allocation).
    fn len_hint(&self) -> Option<u64> {
        None
    }
}

/// [`EventSource`] over already-materialized per-thread traces: the bridge
/// that lets the streaming pipeline replay any existing [`ThreadTrace`]
/// slice (a full trace set is just one big chunk source).
pub struct SliceSource<'a> {
    threads: &'a [ThreadTrace],
    cursors: Vec<usize>,
}

impl<'a> SliceSource<'a> {
    /// Wrap `threads`, starting every per-thread cursor at the beginning.
    pub fn new(threads: &'a [ThreadTrace]) -> Self {
        Self { threads, cursors: vec![0; threads.len()] }
    }
}

impl EventSource for SliceSource<'_> {
    fn threads(&self) -> usize {
        self.threads.len()
    }

    fn fill(&mut self, thread: usize, max: usize, buf: &mut Vec<Event>) -> usize {
        let events = &self.threads[thread].events;
        let at = self.cursors[thread];
        let n = max.min(events.len() - at);
        buf.extend_from_slice(&events[at..at + n]);
        self.cursors[thread] = at + n;
        n
    }

    fn reset(&mut self) {
        self.cursors.iter_mut().for_each(|c| *c = 0);
    }

    fn len_hint(&self) -> Option<u64> {
        Some(self.threads.iter().map(|t| t.events.len() as u64).sum())
    }
}

/// Incremental per-event validation state: the per-event checks of trace
/// validation, applied chunk-by-chunk with correct thread/index
/// attribution in errors. [`crate::trace::validate_and_intern`] runs its
/// per-event pass through this type too.
#[derive(Debug, Clone, Default)]
pub struct StreamValidator {
    /// Events validated so far per thread (the global index of the next
    /// event, used for error attribution).
    seen: Vec<u64>,
}

impl StreamValidator {
    /// A validator for `threads` streams.
    pub fn new(threads: usize) -> Self {
        Self { seen: vec![0; threads] }
    }

    /// Validate the next event of `thread`: the per-event half of
    /// [`crate::trace::validate_and_intern`]. The static
    /// acquire-satisfiability check is not replicable on a stream (see the
    /// module docs) and is covered by replay-time deadlock detection.
    #[inline]
    pub fn check(&mut self, thread: usize, ev: &Event) -> Result<(), ValidateError> {
        let index = self.seen[thread] as usize;
        self.seen[thread] += 1;
        match ev.kind {
            EventKind::Read
            | EventKind::Write
            | EventKind::NtWrite
            | EventKind::PrestoreClean
            | EventKind::PrestoreDemote => {
                if ev.size == 0 {
                    return Err(ValidateError::ZeroSizeAccess {
                        thread,
                        index,
                        kind: ev.kind,
                        addr: ev.addr,
                    });
                }
                if ev.size > MAX_ACCESS_BYTES {
                    return Err(ValidateError::OversizeAccess {
                        thread,
                        index,
                        kind: ev.kind,
                        addr: ev.addr,
                        size: ev.size,
                    });
                }
                if ev.addr.checked_add(ev.size as u64 - 1).is_none() {
                    return Err(ValidateError::AddressOverflow {
                        thread,
                        index,
                        kind: ev.kind,
                        addr: ev.addr,
                        size: ev.size,
                    });
                }
            }
            EventKind::Acquire => {
                if ev.size == 0 {
                    return Err(ValidateError::ZeroSequenceAcquire {
                        thread,
                        index,
                        addr: ev.addr,
                    });
                }
            }
            EventKind::Fence | EventKind::Atomic | EventKind::Compute => {}
        }
        Ok(())
    }
}

/// Rolling FxHash digest of an event stream, chunk-size invariant.
///
/// One lane per thread (events of different threads may be fetched in any
/// interleaving, so a single rolling state would make the digest depend on
/// chunk boundaries); the final digest combines the lanes in thread order.
#[derive(Debug, Clone)]
pub struct StreamDigest {
    lanes: Vec<FxHasher>,
}

impl StreamDigest {
    /// A fresh digest for `threads` lanes.
    pub fn new(threads: usize) -> Self {
        Self { lanes: vec![fx_lane(); threads] }
    }

    /// Fold one event of `thread` into its lane.
    #[inline]
    pub fn update(&mut self, thread: usize, ev: &Event) {
        let lane = &mut self.lanes[thread];
        lane.write_u64(ev.addr);
        // Fixed-width writes only (u16s widened): the default `write_u16`
        // routes through native-endian bytes, which would make the digest
        // platform-dependent.
        lane.write_u32(ev.size);
        lane.write_u32(u32::from(ev.kind as u8));
        lane.write_u32(u32::from(ev.func.0));
        lane.write_u32(u32::from(ev.caller.0));
    }

    /// Combine the lanes into the stream digest (the digest of the events
    /// folded so far; lanes keep rolling, so this can be called again
    /// after more updates).
    pub fn finish(&self) -> u64 {
        let mut top = fx_lane();
        top.write_u64(self.lanes.len() as u64);
        for lane in &self.lanes {
            top.write_u64(lane.finish());
        }
        top.finish()
    }
}

/// Digest a whole source without interning or replaying: the cheap
/// pre-pass that produces a memoization key for streaming results. The
/// source is consumed and then [`EventSource::reset`] for the replay that
/// usually follows.
pub fn digest_source<S: EventSource>(source: &mut S, chunk_events: usize) -> u64 {
    let threads = source.threads();
    let mut digest = StreamDigest::new(threads);
    let mut buf: Vec<Event> = Vec::with_capacity(chunk_events.max(1));
    for tid in 0..threads {
        loop {
            buf.clear();
            if source.fill(tid, chunk_events.max(1), &mut buf) == 0 {
                break;
            }
            for ev in &buf {
                digest.update(tid, ev);
            }
        }
    }
    source.reset();
    digest.finish()
}

/// One thread's current decoded window: the events of its latest chunk
/// plus their pre-resolved line-id runs, rebased so the replay engine can
/// keep using global event indices.
#[derive(Debug, Default)]
struct Window {
    /// Global index of `events[0]`.
    base: usize,
    events: Vec<Event>,
    /// Flattened line ids of the window's events, in the engine's
    /// splitting order (same layout as `InternedTraces`' id streams, but
    /// per window).
    ids: Vec<LineId>,
    /// `offsets[i]..offsets[i + 1]` indexes event `i`'s ids (window-local
    /// `i`); one entry per event plus a trailing end marker.
    offsets: Vec<u32>,
    /// Whether the source reported this thread exhausted.
    exhausted: bool,
}

/// The streaming pipeline's shared state across chunks: the growing
/// [`LineInterner`], the incremental validator, the rolling digest, and
/// one decoded `Window` per thread. The replay engine pulls events and
/// id runs from here and asks for refills when a window runs dry.
#[derive(Debug)]
pub struct StreamFeed {
    interner: LineInterner,
    validator: StreamValidator,
    digest: StreamDigest,
    windows: Vec<Window>,
    chunk_events: usize,
    /// Events fetched so far across all threads.
    fetched: u64,
    /// Chunks fetched so far across all threads.
    chunks: u64,
    /// High-water mark of the window buffers' held bytes (the bounded
    /// event-pipeline memory; the interner and engine tables are
    /// simulation state, accounted separately by their owners).
    peak_window_bytes: usize,
}

impl StreamFeed {
    /// A feed for `threads` streams split on `line_size`-byte lines,
    /// fetching up to `chunk_events` events per refill.
    pub fn new(line_size: u64, threads: usize, chunk_events: usize) -> Self {
        Self {
            interner: LineInterner::new(line_size),
            validator: StreamValidator::new(threads),
            digest: StreamDigest::new(threads),
            windows: (0..threads).map(|_| Window::default()).collect(),
            chunk_events: chunk_events.max(1),
            fetched: 0,
            chunks: 0,
            peak_window_bytes: 0,
        }
    }

    /// The growing interner (the engine grows its tables to
    /// `interner().len()` after every refill).
    #[inline]
    pub fn interner(&self) -> &LineInterner {
        &self.interner
    }

    /// Whether `thread`'s source reported exhaustion.
    #[inline]
    pub fn exhausted(&self, thread: usize) -> bool {
        self.windows[thread].exhausted
    }

    /// One past the last global event index currently decoded for
    /// `thread`.
    #[inline]
    pub fn end(&self, thread: usize) -> usize {
        let w = &self.windows[thread];
        w.base + w.events.len()
    }

    /// The event at global index `idx` of `thread` (must be in the
    /// current window).
    #[inline]
    pub fn event(&self, thread: usize, idx: usize) -> Event {
        let w = &self.windows[thread];
        w.events[idx - w.base]
    }

    /// The pre-resolved id run of the event at global index `idx` of
    /// `thread` (must be in the current window).
    #[inline]
    pub fn ids(&self, thread: usize, idx: usize) -> &[LineId] {
        let w = &self.windows[thread];
        let i = idx - w.base;
        &w.ids[w.offsets[i] as usize..w.offsets[i + 1] as usize]
    }

    /// Events fetched so far across all threads (drives the replay
    /// engine's incremental step budget).
    #[inline]
    pub fn fetched(&self) -> u64 {
        self.fetched
    }

    /// Chunks fetched so far across all threads.
    #[inline]
    pub fn chunks(&self) -> u64 {
        self.chunks
    }

    /// High-water mark of the per-thread window buffers, in bytes.
    pub fn peak_window_bytes(&self) -> usize {
        self.peak_window_bytes
    }

    /// The stream digest of every event fetched so far.
    pub fn digest(&self) -> u64 {
        self.digest.finish()
    }

    /// Fetch, validate, digest and intern `thread`'s next chunk, replacing
    /// its window. Returns the number of events fetched; `0` marks the
    /// thread exhausted. Errors carry the same thread/event attribution as
    /// the materialized validator.
    pub fn refill<S: EventSource>(
        &mut self,
        source: &mut S,
        thread: usize,
    ) -> Result<usize, ValidateError> {
        let w = &mut self.windows[thread];
        debug_assert!(!w.exhausted, "refill after exhaustion");
        w.base += w.events.len();
        w.events.clear();
        w.ids.clear();
        w.offsets.clear();
        let n = source.fill(thread, self.chunk_events, &mut w.events);
        debug_assert_eq!(n, w.events.len(), "fill must append exactly what it reports");
        if n == 0 {
            w.exhausted = true;
            return Ok(0);
        }
        for i in 0..n {
            let ev = w.events[i];
            self.validator.check(thread, &ev)?;
            self.digest.update(thread, &ev);
            w.offsets.push(ids_offset(w.ids.len())?);
            self.interner.try_intern_event_with(&ev, |id| w.ids.push(id))?;
        }
        w.offsets.push(ids_offset(w.ids.len())?);
        self.fetched += n as u64;
        self.chunks += 1;
        let held: usize = self
            .windows
            .iter()
            .map(|w| {
                w.events.capacity() * std::mem::size_of::<Event>()
                    + w.ids.capacity() * std::mem::size_of::<LineId>()
                    + w.offsets.capacity() * std::mem::size_of::<u32>()
            })
            .sum();
        self.peak_window_bytes = self.peak_window_bytes.max(held);
        Ok(n)
    }
}

/// A window-local id-stream offset, checked against the `u32` offset
/// space (needs > `u32::MAX` line occurrences in one chunk).
fn ids_offset(len: usize) -> Result<u32, ValidateError> {
    u32::try_from(len).map_err(|_| ValidateError::TooManyLines {
        needed: len as u64,
        limit: u32::MAX as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tracer;

    fn two_thread_traces() -> Vec<ThreadTrace> {
        let mut a = Tracer::new();
        a.write(0, 256);
        a.fence();
        a.atomic(512, 8);
        let mut b = Tracer::new();
        b.read(64, 16);
        b.compute(100);
        b.acquire(512, 1);
        vec![a.finish(), b.finish()]
    }

    #[test]
    fn slice_source_yields_every_event_in_order() {
        let threads = two_thread_traces();
        let mut src = SliceSource::new(&threads);
        assert_eq!(src.threads(), 2);
        assert_eq!(src.len_hint(), Some(6));
        let mut buf = Vec::new();
        // Chunked fetches concatenate to the original stream.
        let mut got = Vec::new();
        loop {
            buf.clear();
            if src.fill(0, 2, &mut buf) == 0 {
                break;
            }
            got.extend_from_slice(&buf);
        }
        assert_eq!(got, threads[0].events);
        // Reset rewinds.
        src.reset();
        buf.clear();
        assert_eq!(src.fill(0, 100, &mut buf), 3);
    }

    #[test]
    fn digest_is_chunk_size_invariant() {
        let threads = two_thread_traces();
        let digests: Vec<u64> = [1usize, 2, 3, 100]
            .iter()
            .map(|&chunk| digest_source(&mut SliceSource::new(&threads), chunk))
            .collect();
        assert!(digests.windows(2).all(|w| w[0] == w[1]), "{digests:?}");
        // And sensitive to content.
        let mut other = Tracer::new();
        other.write(0, 255);
        let other = vec![other.finish()];
        assert_ne!(digests[0], digest_source(&mut SliceSource::new(&other), 1));
    }

    #[test]
    fn validator_matches_materialized_per_event_checks() {
        let mut v = StreamValidator::new(1);
        let ok = Event {
            addr: 64,
            size: 8,
            kind: EventKind::Write,
            func: crate::FuncId::UNKNOWN,
            caller: crate::FuncId::UNKNOWN,
        };
        assert!(v.check(0, &ok).is_ok());
        let zero = Event { size: 0, ..ok };
        match v.check(0, &zero) {
            Err(ValidateError::ZeroSizeAccess { thread: 0, index: 1, .. }) => {}
            other => panic!("expected ZeroSizeAccess at index 1, got {other:?}"),
        }
        let oversize = Event { size: MAX_ACCESS_BYTES + 1, ..ok };
        assert!(matches!(
            v.check(0, &oversize),
            Err(ValidateError::OversizeAccess { index: 2, .. })
        ));
        let overflow = Event { addr: u64::MAX, size: 2, ..ok };
        assert!(matches!(
            v.check(0, &overflow),
            Err(ValidateError::AddressOverflow { index: 3, .. })
        ));
        let acq0 = Event { kind: EventKind::Acquire, size: 0, ..ok };
        assert!(matches!(
            v.check(0, &acq0),
            Err(ValidateError::ZeroSequenceAcquire { index: 4, .. })
        ));
    }

    #[test]
    fn feed_windows_agree_with_interned_traces() {
        let threads = two_thread_traces();
        let interned = crate::InternedTraces::from_threads(&threads, 64);
        for chunk in [1usize, 2, 64] {
            let mut src = SliceSource::new(&threads);
            let mut feed = StreamFeed::new(64, 2, chunk);
            for (tid, thread) in threads.iter().enumerate() {
                let mut idx = 0usize;
                loop {
                    let n = feed.refill(&mut src, tid).expect("valid trace");
                    if n == 0 {
                        break;
                    }
                    for _ in 0..n {
                        assert_eq!(feed.event(tid, idx), thread.events[idx]);
                        // Streaming ids may differ (interleaving changes
                        // first-touch order) but must resolve to the same
                        // line addresses.
                        let lines: Vec<_> = feed
                            .ids(tid, idx)
                            .iter()
                            .map(|&id| feed.interner().line_of(id))
                            .collect();
                        let expect: Vec<_> = interned
                            .ids_for(tid, idx)
                            .iter()
                            .map(|&id| interned.interner().line_of(id))
                            .collect();
                        assert_eq!(lines, expect, "chunk {chunk} thread {tid} event {idx}");
                        idx += 1;
                    }
                }
                assert!(feed.exhausted(tid));
            }
            // Same line footprint as the materialized interner.
            assert_eq!(feed.interner().len(), interned.interner().len());
            assert_eq!(feed.fetched(), 6);
        }
    }

    #[test]
    fn feed_digest_matches_digest_source() {
        let threads = two_thread_traces();
        let mut src = SliceSource::new(&threads);
        let expected = digest_source(&mut src, 3);
        let mut feed = StreamFeed::new(64, 2, 2);
        for tid in 0..2 {
            while feed.refill(&mut src, tid).expect("valid trace") > 0 {}
        }
        assert_eq!(feed.digest(), expected);
    }

    #[test]
    fn feed_surfaces_validation_errors_with_stream_indices() {
        let mut t = Tracer::new();
        t.write(0, 64);
        t.write(0, 64);
        let mut bad = t.finish();
        bad.events.push(Event {
            addr: 128,
            size: 0,
            kind: EventKind::Write,
            func: crate::FuncId::UNKNOWN,
            caller: crate::FuncId::UNKNOWN,
        });
        let threads = vec![bad];
        let mut src = SliceSource::new(&threads);
        let mut feed = StreamFeed::new(64, 1, 2);
        assert_eq!(feed.refill(&mut src, 0).expect("first chunk is valid"), 2);
        match feed.refill(&mut src, 0) {
            Err(ValidateError::ZeroSizeAccess { thread: 0, index: 2, .. }) => {}
            other => panic!("expected ZeroSizeAccess at global index 2, got {other:?}"),
        }
    }

    #[test]
    fn peak_window_bytes_is_bounded_by_chunk_size() {
        // A long stream replayed at a small chunk size must hold only
        // window-sized buffers, no matter how many events flow through.
        let mut t = Tracer::new();
        for i in 0..10_000u64 {
            t.write(i * 64, 64);
        }
        let threads = vec![t.finish()];
        let mut src = SliceSource::new(&threads);
        let mut feed = StreamFeed::new(64, 1, 64);
        while feed.refill(&mut src, 0).expect("valid trace") > 0 {}
        assert_eq!(feed.fetched(), 10_000);
        // 64 events + 64 ids + 65 offsets, with slack for Vec growth.
        assert!(
            feed.peak_window_bytes() < 16 * 1024,
            "peak {} bytes",
            feed.peak_window_bytes()
        );
    }
}
