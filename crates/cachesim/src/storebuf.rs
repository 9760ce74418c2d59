//! The CPU store buffer: private storage for not-yet-visible writes.
//!
//! §4.2 of the paper: "When writing data, CPUs are allowed to keep the
//! changes private, as long as the changes do not break the memory ordering
//! constraints of the architecture. Because cache coherence operations are
//! expensive, CPUs tend to keep modifications private and only advertise
//! them when they run out of private buffer space or when they are forced
//! to by the memory model."
//!
//! The buffer is a FIFO of line-granular entries. *Draining* an entry makes
//! the store globally visible: the cache must acquire the line in exclusive
//! mode (directory lookup + line fill — both charged at the latency of the
//! line's home device by the cost the engine computes per entry). Drains are
//! **pipelined** with bounded memory-level parallelism: the CPU keeps about
//! [`DEFAULT_MLP`] ownership requests in flight, so consecutive drains may
//! start `cost / MLP` cycles apart (cheap L1-owned drains stream back to
//! back; device-missing RFOs are limited by the MSHRs). Each drain still
//! takes its full ownership latency to complete. The pipeline only stalls
//! when a fence (or a full buffer) forces a wait for a completion.
//!
//! * Under TSO (Machine A), drains start as soon as the store issues.
//! * Under a weak model (Machine B), drains start only on demand: fence,
//!   capacity pressure — or a *demote* pre-store, which is exactly the
//!   paper's trick for overlapping the drain with later instructions.

use simcore::{Addr, Cycles, LineId};
use std::collections::VecDeque;

/// One pending store (coalesced to cache-line granularity).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SbEntry {
    /// Line-aligned address.
    pub line: Addr,
    /// Dense id of the line, as the pusher interned it. Carried so that
    /// the drain loop gets the id back from [`StoreBuffer::next_unstarted`]
    /// alongside the address and never needs to re-resolve it.
    pub id: LineId,
    /// Cycle at which the store issued.
    pub issue: Cycles,
    /// Completion time of the drain, once the drain has been started.
    pub drain_done: Option<Cycles>,
}

/// A store did not fit: the buffer was at capacity and the line did not
/// coalesce into a pending entry.
///
/// Returned by [`StoreBuffer::try_push_id`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreBufferOverflow {
    /// The line that could not be recorded.
    pub line: Addr,
    /// The buffer's capacity in entries.
    pub capacity: usize,
}

impl std::fmt::Display for StoreBufferOverflow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "store buffer full: no room for line {:#x} in {} entries",
            self.line, self.capacity
        )
    }
}

impl std::error::Error for StoreBufferOverflow {}

/// Buckets of the store buffer's counting membership filter.
const FILTER_BUCKETS: usize = 64;

/// Filter bucket of a line address (Fibonacci hashing: the top bits of
/// the product mix every address bit, so line-aligned addresses of any
/// line size spread over all buckets).
#[inline]
fn bucket(line: Addr) -> usize {
    (line.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - FILTER_BUCKETS.trailing_zeros())) as usize
}

/// Default number of in-flight ownership requests (MSHR-bound).
pub const DEFAULT_MLP: Cycles = 10;

/// A FIFO store buffer with pipelined background drains.
///
/// Drains always start in FIFO order, so the started entries form a prefix
/// of the queue.
///
/// Drains are scheduled one entry at a time through a pull API:
/// [`StoreBuffer::next_unstarted`] hands out the next entry and
/// [`StoreBuffer::schedule_next`] schedules it at the cost the caller
/// computed, so a caller whose cost computation needs `&mut` access to
/// state that *contains* this buffer drains it in place.
/// [`StoreBuffer::unstarted_through`] says how many entries a demote must
/// start, [`StoreBuffer::retire_all`] ends a fence and
/// [`StoreBuffer::drain_head`] pops a scheduled head under capacity
/// pressure.
///
/// # Examples
///
/// ```
/// use simcore::LineId;
///
/// let mut sb = cachesim::StoreBuffer::new(4);
/// sb.try_push_id(0, LineId(0), 10).unwrap();
/// sb.try_push_id(64, LineId(1), 11).unwrap();
/// // A fence at cycle 20 with a 100-cycle ownership cost per line and the
/// // default MLP of 10 (initiation interval 100/10 = 10 cycles):
/// while let Some((_line, _id)) = sb.next_unstarted() {
///     sb.schedule_next(20, 100);
/// }
/// assert_eq!(sb.last_drain_done(), 20 + 10 + 100); // second drain starts at 30
/// sb.retire_all();
/// assert!(sb.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct StoreBuffer {
    entries: VecDeque<SbEntry>,
    /// The line address of every entry, in entry order — a dense mirror of
    /// `entries` kept in lockstep so the per-event membership scans
    /// (store-to-load forwarding, coalescing, demote lookup) walk
    /// contiguous `u64`s instead of striding through 40-byte entries.
    lines: VecDeque<Addr>,
    /// Counting filter over `lines`: bucket [`bucket`]`(line)` counts the
    /// entries hashing there. Most loads and demotes look up a line the
    /// buffer does not hold; a zero bucket proves that without a scan.
    filter: [u16; FILTER_BUCKETS],
    cap: usize,
    /// Entries `[0, started)` have a scheduled drain.
    started: usize,
    /// Completion time of the head entry's drain, or [`Cycles::MAX`] when
    /// the buffer is empty or the head is unscheduled. Mirrors
    /// `entries.front()` so the per-event [`StoreBuffer::collect_completed`]
    /// no-op case is a compare against this field instead of a deque
    /// dereference.
    head_done: Cycles,
    /// Earliest start time of the next drain (pipelining constraint).
    next_earliest: Cycles,
    /// Latest completion time among scheduled drains.
    last_done: Cycles,
    /// Memory-level parallelism: a drain of cost `c` delays the next drain
    /// start by `max(1, c / mlp)`.
    mlp: Cycles,
}

impl StoreBuffer {
    /// Create a buffer holding at most `cap` line entries, with the default
    /// memory-level parallelism of [`DEFAULT_MLP`].
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero or exceeds `u16::MAX`.
    pub fn new(cap: usize) -> Self {
        Self::with_mlp(cap, DEFAULT_MLP)
    }

    /// Create a buffer with an explicit memory-level parallelism.
    ///
    /// # Panics
    ///
    /// Panics if `cap` or `mlp` is zero, or `cap` exceeds `u16::MAX` (the
    /// membership filter's counter width).
    pub fn with_mlp(cap: usize, mlp: Cycles) -> Self {
        assert!(cap > 0, "store buffer capacity must be positive");
        assert!(cap <= usize::from(u16::MAX), "store buffer capacity exceeds the filter counters");
        assert!(mlp > 0, "memory-level parallelism must be positive");
        Self {
            entries: VecDeque::with_capacity(cap),
            lines: VecDeque::with_capacity(cap),
            filter: [0; FILTER_BUCKETS],
            cap,
            started: 0,
            head_done: Cycles::MAX,
            next_earliest: 0,
            last_done: 0,
            mlp,
        }
    }

    /// Number of pending entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the buffer has no pending entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether the buffer is at capacity.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.cap
    }

    /// Whether any pending entry covers `line` (store-to-load forwarding).
    #[inline]
    pub fn contains(&self, line: Addr) -> bool {
        self.position_of(line).is_some()
    }

    /// Position of the first entry covering `line`, if any (entry order):
    /// the filter rules most lines out, a scan of the contiguous line
    /// mirror finds the rest.
    #[inline]
    fn position_of(&self, line: Addr) -> Option<usize> {
        if self.filter[bucket(line)] == 0 {
            return None;
        }
        self.lines.iter().position(|&l| l == line)
    }

    /// Whether any entry at or past index `from` covers `line`.
    #[inline]
    fn contains_from(&self, from: usize, line: Addr) -> bool {
        self.filter[bucket(line)] != 0 && self.lines.range(from..).any(|&l| l == line)
    }

    /// Record a store to `line` (dense id `id`) at cycle `now`, reporting
    /// a full buffer as a typed error. The id rides with the entry, so
    /// [`StoreBuffer::next_unstarted`] hands it back without re-resolving.
    ///
    /// `Ok(true)` means the store coalesced into an existing entry whose
    /// drain has not started yet; `Ok(false)` means a new entry was
    /// allocated. Make room first under capacity pressure (see
    /// [`StoreBuffer::is_full`] / [`StoreBuffer::drain_head`]).
    #[inline]
    pub fn try_push_id(
        &mut self,
        line: Addr,
        id: LineId,
        now: Cycles,
    ) -> Result<bool, StoreBufferOverflow> {
        if self.contains_from(self.started, line) {
            return Ok(true);
        }
        if self.is_full() {
            return Err(StoreBufferOverflow { line, capacity: self.cap });
        }
        self.entries.push_back(SbEntry { line, id, issue: now, drain_done: None });
        self.lines.push_back(line);
        self.filter[bucket(line)] += 1;
        Ok(false)
    }

    /// Remove the head entry (its drain must be scheduled).
    #[inline]
    fn pop_head(&mut self) {
        let head = self.entries.pop_front().expect("pop from an empty store buffer");
        self.lines.pop_front();
        self.filter[bucket(head.line)] -= 1;
        self.started -= 1;
    }

    /// Re-derive `head_done` from the current front entry (after a pop).
    #[inline]
    fn refresh_head_done(&mut self) {
        self.head_done =
            self.entries.front().and_then(|e| e.drain_done).unwrap_or(Cycles::MAX);
    }

    /// The first entry whose drain has not been scheduled yet, if any.
    ///
    /// Pull-style drain API: alternate `next_unstarted` /
    /// [`StoreBuffer::schedule_next`] to start drains one entry at a time,
    /// computing each cost with whatever state the caller needs.
    #[inline]
    pub fn next_unstarted(&self) -> Option<(Addr, LineId)> {
        self.entries.get(self.started).map(|e| (e.line, e.id))
    }

    /// Schedule the drain of the first unscheduled entry — the one
    /// [`StoreBuffer::next_unstarted`] just returned — at cost `cost`, and
    /// return its completion time.
    ///
    /// # Panics
    ///
    /// Panics if every entry is already scheduled.
    #[inline]
    pub fn schedule_next(&mut self, now: Cycles, cost: Cycles) -> Cycles {
        let idx = self.started;
        let e = &mut self.entries[idx];
        let start = now.max(e.issue).max(self.next_earliest);
        let done = start + cost;
        e.drain_done = Some(done);
        if idx == 0 {
            self.head_done = done;
        }
        self.next_earliest = start + (cost / self.mlp).max(1);
        self.last_done = self.last_done.max(done);
        self.started += 1;
        done
    }

    /// How many unscheduled entries must start for the entry covering
    /// `line` to be draining — FIFO visibility order means a *demote* of
    /// `line` starts every earlier entry too — or `None` when no entry
    /// covers `line`. `Some(0)`: its drain already started.
    #[inline]
    pub fn unstarted_through(&self, line: Addr) -> Option<usize> {
        self.position_of(line).map(|pos| (pos + 1).saturating_sub(self.started))
    }

    /// Empty the buffer once every entry's drain has been scheduled — the
    /// tail of a fence, after the pull loop has scheduled every entry.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if an entry is still unscheduled.
    pub fn retire_all(&mut self) {
        debug_assert_eq!(self.started, self.entries.len(), "retire_all with unscheduled drains");
        self.entries.clear();
        self.lines.clear();
        self.filter = [0; FILTER_BUCKETS];
        self.started = 0;
        self.head_done = Cycles::MAX;
    }

    /// Force the head entry out (capacity pressure). Its drain must
    /// already be scheduled; returns the cycle at which it completes, and
    /// the caller stalls until then.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is empty, and in debug builds if the head's
    /// drain is not scheduled.
    pub fn drain_head(&mut self) -> Cycles {
        debug_assert!(self.started > 0, "drain_head with an unscheduled head");
        // `head_done` mirrors the scheduled head's completion time.
        let done = self.head_done;
        self.pop_head();
        self.refresh_head_done();
        done
    }

    /// Pop entries whose drains completed at or before `now` (background
    /// completion).
    ///
    /// Called once per replayed event; the cached `head_done` makes the
    /// dominant nothing-finished case branch on a resident field without
    /// touching the deque at all.
    #[inline]
    pub fn collect_completed(&mut self, now: Cycles) {
        if now < self.head_done {
            return;
        }
        while self.entries.front().and_then(|e| e.drain_done).is_some_and(|d| d <= now) {
            self.pop_head();
        }
        self.refresh_head_done();
    }

    /// Completion time of the latest scheduled drain.
    #[inline]
    pub fn last_drain_done(&self) -> Cycles {
        self.last_done
    }

    /// Append the line address of every pending entry to `out` (appended,
    /// not cleared), including entries whose drains have started but not
    /// yet been collected.
    ///
    /// A power failure loses the whole buffer: drained-but-uncollected
    /// entries have at best reached a volatile cache, so crash analysis
    /// treats every entry here as lost (callers dedup against dirty cache
    /// lines, which such entries also appear in).
    pub fn pending_lines_into(&self, out: &mut Vec<Addr>) {
        debug_assert!(self.lines.iter().eq(self.entries.iter().map(|e| &e.line)));
        out.extend(self.lines.iter());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Push `line` at `now` (its id is its 64-byte line number) into a
    /// buffer with room; `true` if it coalesced.
    fn push(sb: &mut StoreBuffer, line: Addr, now: Cycles) -> bool {
        sb.try_push_id(line, LineId((line / 64) as u32), now).expect("room in the buffer")
    }

    /// Schedule every unstarted drain at `cost`, collecting the lines in
    /// the order handed out; returns the latest completion (at least
    /// `now`).
    fn schedule_all(sb: &mut StoreBuffer, now: Cycles, cost: Cycles, order: &mut Vec<Addr>) -> Cycles {
        while let Some((line, _)) = sb.next_unstarted() {
            order.push(line);
            sb.schedule_next(now, cost);
        }
        sb.last_drain_done().max(now)
    }

    /// A fence: schedule the rest and retire everything; returns the
    /// cycle the fence retires at.
    fn fence(sb: &mut StoreBuffer, now: Cycles, cost: Cycles) -> Cycles {
        let done = schedule_all(sb, now, cost, &mut Vec::new());
        sb.retire_all();
        done
    }

    /// A demote of `line`: start every entry through it; returns the
    /// completion of its drain, or `now` if no entry covers it.
    fn demote(sb: &mut StoreBuffer, line: Addr, now: Cycles, cost: Cycles) -> Cycles {
        let Some(n) = sb.unstarted_through(line) else { return now };
        for _ in 0..n {
            sb.schedule_next(now, cost);
        }
        let pos = sb.position_of(line).expect("covered");
        sb.entries[pos].drain_done.expect("started through the line")
    }

    #[test]
    fn coalesces_same_line() {
        let mut sb = StoreBuffer::new(2);
        assert!(!push(&mut sb, 0, 1));
        assert!(push(&mut sb, 0, 2));
        assert!(push(&mut sb, 0, 3));
        assert_eq!(sb.len(), 1);
        assert!(!push(&mut sb, 64, 4));
        assert_eq!(sb.len(), 2);
        assert!(sb.contains(0));
        assert!(sb.contains(64));
        assert!(!sb.contains(128));
    }

    #[test]
    fn fence_pipelines_drains_in_fifo_order() {
        let mut sb = StoreBuffer::with_mlp(8, 10);
        push(&mut sb, 0, 0);
        push(&mut sb, 64, 0);
        push(&mut sb, 128, 0);
        // II = 50/10 = 5: starts at 10, 15, 20; done at 60, 65, 70.
        let mut order = Vec::new();
        assert_eq!(schedule_all(&mut sb, 10, 50, &mut order), 70);
        assert_eq!(order, vec![0, 64, 128]);
        let ids: Vec<LineId> = sb.entries.iter().map(|e| e.id).collect();
        assert_eq!(ids, vec![LineId(0), LineId(1), LineId(2)], "ids ride with their entries");
        sb.retire_all();
        assert!(sb.is_empty());
    }

    #[test]
    fn single_store_pays_full_latency_at_fence() {
        let mut sb = StoreBuffer::new(8);
        push(&mut sb, 0, 0);
        assert_eq!(fence(&mut sb, 200, 150), 350);
    }

    #[test]
    fn early_demote_overlaps_with_later_fence() {
        // The Listing-2 effect: demote at cycle 0, fence at cycle 200.
        let mut sb = StoreBuffer::new(8);
        push(&mut sb, 0, 0);
        assert_eq!(demote(&mut sb, 0, 0, 150), 150);
        // By cycle 200 the drain (done at 150) has completed: the fence is
        // free.
        assert_eq!(fence(&mut sb, 200, 150), 200);
    }

    #[test]
    fn demote_respects_fifo_order() {
        let mut sb = StoreBuffer::with_mlp(8, 10);
        push(&mut sb, 0, 0);
        push(&mut sb, 64, 0);
        // Demoting the *second* line must drain the first too.
        assert_eq!(sb.unstarted_through(64), Some(2));
        let done = demote(&mut sb, 64, 0, 100);
        assert_eq!(done, 110); // starts at 10 (100/10 after the first), +100
        assert_eq!(sb.unstarted_through(64), Some(0), "already draining");
        // Both drains scheduled; a fence at 250 is free.
        assert_eq!(fence(&mut sb, 250, 100), 250);
    }

    #[test]
    fn demote_of_absent_line_is_noop() {
        let mut sb = StoreBuffer::new(2);
        push(&mut sb, 0, 0);
        assert_eq!(sb.unstarted_through(4096), None);
        assert_eq!(demote(&mut sb, 4096, 7, 100), 7);
        assert_eq!(sb.len(), 1);
        assert_eq!(sb.next_unstarted(), Some((0, LineId(0))), "nothing started");
    }

    #[test]
    fn capacity_pressure_stalls_on_head() {
        let mut sb = StoreBuffer::new(2);
        push(&mut sb, 0, 0);
        push(&mut sb, 64, 1);
        assert!(sb.is_full());
        // The engine schedules every pending drain before forcing the head.
        schedule_all(&mut sb, 5, 100, &mut Vec::new());
        assert_eq!(sb.drain_head(), 105);
        assert!(!sb.is_full());
        push(&mut sb, 128, 5);
        assert!(sb.is_full());
    }

    #[test]
    fn drain_head_returns_the_scheduled_completion() {
        let mut sb = StoreBuffer::with_mlp(4, 1);
        push(&mut sb, 0, 0);
        push(&mut sb, 64, 0);
        schedule_all(&mut sb, 0, 100, &mut Vec::new()); // done 100 and 200
        assert_eq!(sb.drain_head(), 100);
        assert_eq!(sb.drain_head(), 200);
        assert!(sb.is_empty());
    }

    #[test]
    #[should_panic(expected = "unscheduled head")]
    #[cfg(debug_assertions)]
    fn drain_head_of_an_unscheduled_head_is_a_bug() {
        let mut sb = StoreBuffer::new(2);
        push(&mut sb, 0, 0);
        sb.drain_head();
    }

    #[test]
    fn collect_completed_pops_only_done() {
        let mut sb = StoreBuffer::with_mlp(8, 1);
        push(&mut sb, 0, 0);
        push(&mut sb, 64, 0);
        schedule_all(&mut sb, 0, 100, &mut Vec::new()); // II = 100: starts 0 and 100; done 100, 200
        sb.collect_completed(150);
        assert_eq!(sb.len(), 1);
        assert!(!sb.contains(0) && sb.contains(64));
        sb.collect_completed(250);
        assert!(sb.is_empty());
    }

    #[test]
    fn store_after_started_drain_gets_new_entry() {
        let mut sb = StoreBuffer::new(4);
        push(&mut sb, 0, 0);
        schedule_all(&mut sb, 0, 100, &mut Vec::new());
        assert!(!push(&mut sb, 0, 5), "must not coalesce into an in-flight drain");
        assert_eq!(sb.len(), 2);
    }

    #[test]
    fn try_push_id_reports_overflow() {
        let mut sb = StoreBuffer::new(2);
        assert_eq!(sb.try_push_id(0, LineId(0), 1), Ok(false));
        assert_eq!(sb.try_push_id(0, LineId(0), 2), Ok(true)); // coalesces
        assert_eq!(sb.try_push_id(64, LineId(1), 3), Ok(false));
        let err = sb.try_push_id(128, LineId(2), 4).unwrap_err();
        assert_eq!(err, StoreBufferOverflow { line: 128, capacity: 2 });
        assert!(err.to_string().contains("0x80"), "{err}");
        // Coalescing still works at capacity.
        assert_eq!(sb.try_push_id(64, LineId(1), 5), Ok(true));
    }

    #[test]
    fn tso_style_eager_drain_makes_fence_cheap_when_spaced() {
        // Under TSO the engine starts drains at issue time; a fence far in
        // the future then costs nothing.
        let mut sb = StoreBuffer::new(8);
        push(&mut sb, 0, 0);
        schedule_all(&mut sb, 0, 100, &mut Vec::new());
        push(&mut sb, 64, 10);
        schedule_all(&mut sb, 10, 100, &mut Vec::new());
        assert_eq!(fence(&mut sb, 500, 100), 500);
    }

    #[test]
    fn pipelining_bounds_stream_throughput() {
        // 32 stores with 400-cycle ownership and MLP 10 (II 40) finish in
        // ~400 + 31*40 cycles, not 32*400.
        let mut sb = StoreBuffer::new(32);
        for i in 0..32u64 {
            push(&mut sb, i * 64, i);
        }
        let done = fence(&mut sb, 32, 400);
        assert!(done < 32 + 31 * 41 + 400, "pipelined drains took {done}");
        assert!(done >= 400 + 31 * 40);
    }

    #[test]
    fn line_mirror_stays_in_lockstep_with_entries() {
        // Exercise every mutation path and check the line mirror and the
        // membership filter against the entry deque after each one.
        let mut sb = StoreBuffer::with_mlp(4, 10);
        let check = |sb: &StoreBuffer| {
            let want: Vec<Addr> = sb.entries.iter().map(|e| e.line).collect();
            let got: Vec<Addr> = sb.lines.iter().copied().collect();
            assert_eq!(got, want);
            let mut filter = [0u16; FILTER_BUCKETS];
            for &l in &want {
                filter[bucket(l)] += 1;
            }
            assert_eq!(sb.filter, filter, "membership filter counts the pending lines");
        };
        push(&mut sb, 0, 0);
        push(&mut sb, 64, 1);
        push(&mut sb, 64, 2); // coalesces, no new mirror entry
        check(&sb);
        schedule_all(&mut sb, 2, 100, &mut Vec::new());
        push(&mut sb, 64, 3); // started: new entry despite same line
        check(&sb);
        demote(&mut sb, 64, 3, 100);
        check(&sb);
        sb.collect_completed(1_000);
        check(&sb);
        push(&mut sb, 128, 4);
        schedule_all(&mut sb, 5, 50, &mut Vec::new());
        sb.drain_head();
        check(&sb);
        push(&mut sb, 192, 6);
        fence(&mut sb, 7, 50);
        check(&sb);
        assert!(sb.is_empty());
        assert!(!sb.contains(0));
    }
}
