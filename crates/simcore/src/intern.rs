//! Dense line-id interning: map every line-aligned address a trace touches
//! to a compact `u32` id, once, so the replay engine can index flat state
//! tables instead of hashing on every event.
//!
//! Trace-driven simulators spend a surprising fraction of their time
//! re-hashing the same line addresses (the engine consults up to five
//! per-line maps per event). The set of distinct lines is fixed the moment
//! a trace exists, so we pay one hash per *line occurrence* here — during
//! validation, a pass that is already mandatory — and zero hashes during
//! replay. The id space is dense (`0..len`), which is what makes the
//! id-indexed `Vec` state tables in `machine::tables` possible.
//!
//! The interning rules mirror the engine's event splitting exactly:
//! accesses intern every line of [`crate::blocks_touched`], atomics and
//! acquires intern the single line containing their address, fences and
//! compute events intern nothing. If the engine touches a line, the
//! interner knows it.

use crate::{
    align_down, blocks_touched, Addr, BlockIter, Event, EventKind, FxHashMap, ThreadTrace,
    ValidateError,
};

/// Dense identifier of a line-aligned address within one trace set.
///
/// Ids are assigned in first-touch order (thread-major, program order) and
/// form a gap-free range `0..interner.len()`, so they can index plain
/// `Vec`s. A [`LineId`] is only meaningful relative to the
/// [`LineInterner`] that produced it.
#[derive(Debug, Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LineId(pub u32);

impl LineId {
    /// Sentinel for "no line" (never produced by an interner).
    pub const INVALID: LineId = LineId(u32::MAX);

    /// The id as a `Vec` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Lines per page of the interner's page table (one id block).
const PAGE_LINES: usize = 64;

/// Interns line-aligned addresses to dense [`LineId`]s.
///
/// Built once per (trace set, line size) pair — either as a by-product of
/// validation ([`crate::trace::validate_and_intern`]) or directly via
/// [`LineInterner::from_threads`] — and then shared read-only by every
/// replay of that trace.
///
/// The map is a two-level page table: a hashed page directory keyed by
/// the line number's high bits leads to a block of 64 ids, one per line of
/// that page. Traces touch lines in runs and hot clusters, so the
/// directory holds a few hundred to a few thousand pages where a line-keyed
/// map would hold one entry per line, and stays resident in the host's
/// cache; consecutive lookups of one page skip the directory altogether.
///
/// Memory grows with pages, not lines: 256 bytes of block plus one
/// directory entry per page, and no per-line table. The map runs one way
/// only (line → id); nothing maps an id back to its line.
///
/// # Examples
///
/// ```
/// use simcore::intern::LineInterner;
/// use simcore::{LineId, Tracer};
///
/// let mut t = Tracer::new();
/// t.write(100, 64); // touches lines 64 and 128
/// let interner = LineInterner::from_threads(&[t.finish()], 64);
/// assert_eq!(interner.len(), 2);
/// // First-touch order: the two lines hold ids 0 and 1.
/// assert_eq!(interner.id_of(64), Some(LineId(0)));
/// assert_eq!(interner.id_of(128), Some(LineId(1)));
/// ```
#[derive(Debug, Clone)]
pub struct LineInterner {
    line_size: u64,
    /// `log2(line_size)`.
    line_shift: u32,
    /// Page directory: page number (line number / [`PAGE_LINES`]) → index
    /// of the page's block in `blocks`.
    pages: FxHashMap<u64, u32>,
    /// Per page: the id of each of its lines, [`LineId::INVALID`] where
    /// the line was never interned. Grown by an eighth at a time with
    /// exact reservations ([`LineInterner::push_block`]), not by `Vec`
    /// doubling.
    blocks: Vec<[LineId; PAGE_LINES]>,
    /// The page of the latest [`LineInterner::try_intern`] and its block
    /// (`u64::MAX` before the first), so runs of lines within one page
    /// skip the directory.
    last_page: (u64, u32),
    /// Distinct lines interned: the next id to assign.
    len: u32,
    /// Refuse to intern more than this many distinct lines. The default,
    /// [`LineInterner::DEFAULT_MAX_LINES`], is the full dense-id space;
    /// tests shrink it to exercise the exhaustion path without 4 G inserts.
    max_lines: u32,
}

impl Default for LineInterner {
    fn default() -> Self {
        Self {
            line_size: 0,
            line_shift: 0,
            pages: FxHashMap::default(),
            blocks: Vec::new(),
            last_page: (u64::MAX, 0),
            len: 0,
            max_lines: Self::DEFAULT_MAX_LINES,
        }
    }
}

impl LineInterner {
    /// The full dense id space: `u32::MAX` distinct lines. Keeping the
    /// count strictly below `u32::MAX + 1` guarantees no assigned id ever
    /// equals [`LineId::INVALID`].
    pub const DEFAULT_MAX_LINES: u32 = u32::MAX;

    /// Empty interner for `line_size`-byte lines (a power of two).
    pub fn new(line_size: u64) -> Self {
        Self::with_max_lines(line_size, Self::DEFAULT_MAX_LINES)
    }

    /// [`LineInterner::new`] with a smaller id-space bound, so tests can
    /// reach the [`ValidateError::TooManyLines`] path cheaply.
    pub fn with_max_lines(line_size: u64, max_lines: u32) -> Self {
        debug_assert!(line_size.is_power_of_two());
        Self {
            line_size,
            line_shift: line_size.trailing_zeros(),
            pages: FxHashMap::default(),
            blocks: Vec::new(),
            last_page: (u64::MAX, 0),
            len: 0,
            max_lines,
        }
    }

    /// The line size this interner splits on.
    #[inline]
    pub fn line_size(&self) -> u64 {
        self.line_size
    }

    /// Number of distinct lines interned.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether no lines have been interned.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Split a line-aligned address into its page number and the line's
    /// slot within the page's block.
    #[inline]
    fn page_slot(&self, line: Addr) -> (u64, usize) {
        let n = line >> self.line_shift;
        (n / PAGE_LINES as u64, (n % PAGE_LINES as u64) as usize)
    }

    /// Intern a line-aligned address, assigning the next dense id on first
    /// sight. Errors with [`ValidateError::TooManyLines`] once the id
    /// space (`max_lines`) is exhausted — the map and id assignment are
    /// left untouched, so the interner stays usable for known lines.
    #[inline]
    pub fn try_intern(&mut self, line: Addr) -> Result<LineId, ValidateError> {
        debug_assert_eq!(line, align_down(line, self.line_size));
        let (page, slot) = self.page_slot(line);
        let block = if self.last_page.0 == page {
            Some(self.last_page.1)
        } else {
            let b = self.pages.get(&page).copied();
            if let Some(b) = b {
                self.last_page = (page, b);
            }
            b
        };
        if let Some(b) = block {
            let id = self.blocks[b as usize][slot];
            if id != LineId::INVALID {
                return Ok(id);
            }
        }
        self.intern_new(page, slot, block)
    }

    /// First sight of `line` (slot `slot` of page `page`, whose block is
    /// `block` if the page is mapped): assign the next id, mapping the
    /// page first if needed. Kept out of line so the hit path above stays
    /// small enough to inline into the per-event interning loops.
    #[inline(never)]
    fn intern_new(
        &mut self,
        page: u64,
        slot: usize,
        block: Option<u32>,
    ) -> Result<LineId, ValidateError> {
        if self.len >= self.max_lines {
            return Err(ValidateError::TooManyLines {
                needed: u64::from(self.len) + 1,
                limit: u64::from(self.max_lines),
            });
        }
        let b = match block {
            Some(b) => b,
            None => {
                let b = self.push_block();
                self.pages.insert(page, b);
                self.last_page = (page, b);
                b
            }
        };
        let id = LineId(self.len);
        self.blocks[b as usize][slot] = id;
        self.len += 1;
        Ok(id)
    }

    /// Append an empty block and return its index. When the blocks are
    /// full, reserve exactly an eighth more (at least four blocks) rather
    /// than let `Vec` double: doubling left up to half of the blocks, 256
    /// bytes each, as slack.
    fn push_block(&mut self) -> u32 {
        let len = self.blocks.len();
        if len == self.blocks.capacity() {
            self.blocks.reserve_exact((len / 8).max(4));
        }
        self.blocks.push([LineId::INVALID; PAGE_LINES]);
        len as u32
    }

    /// Intern a line-aligned address, assigning the next dense id on first
    /// sight.
    ///
    /// # Panics
    ///
    /// On id-space exhaustion (> [`LineInterner::DEFAULT_MAX_LINES`]
    /// distinct lines — previously a silent `u32` wrap that aliased
    /// unrelated lines). Validated paths reach the same condition as a
    /// typed [`ValidateError::TooManyLines`] via [`LineInterner::try_intern`].
    #[inline]
    pub fn intern(&mut self, line: Addr) -> LineId {
        self.try_intern(line)
            .expect("line-id space exhausted; use try_intern/validate_and_intern for typed errors")
    }

    /// The id of a line-aligned address, if it was interned (`None` for
    /// an address that is not line-aligned).
    #[inline]
    pub fn id_of(&self, line: Addr) -> Option<LineId> {
        if line & self.line_size.wrapping_sub(1) != 0 {
            return None;
        }
        let (page, slot) = self.page_slot(line);
        let b = *self.pages.get(&page)?;
        let id = self.blocks[b as usize][slot];
        (id != LineId::INVALID).then_some(id)
    }

    /// Intern every line `ev` will make the replay engine touch, using the
    /// same splitting rules as the engine: accesses split into
    /// [`blocks_touched`] lines, atomics and acquires resolve to the single
    /// line containing their address, fences and compute events touch no
    /// lines.
    #[inline]
    pub fn intern_event(&mut self, ev: &Event) {
        self.intern_event_with(ev, |_| {});
    }

    /// [`LineInterner::intern_event`], invoking `sink` with the id of each
    /// interned line, in the engine's splitting order, stopping at the
    /// first id-space exhaustion. This is how [`InternedTraces`] records
    /// the per-event id streams in the same pass that builds the interner.
    #[inline]
    pub fn try_intern_event_with(
        &mut self,
        ev: &Event,
        mut sink: impl FnMut(LineId),
    ) -> Result<(), ValidateError> {
        if let Some(lines) = event_lines(ev, self.line_size) {
            for line in lines {
                sink(self.try_intern(line)?);
            }
        }
        Ok(())
    }

    /// [`LineInterner::try_intern_event_with`] for unvalidated (panicking)
    /// paths.
    ///
    /// # Panics
    ///
    /// On id-space exhaustion, like [`LineInterner::intern`].
    #[inline]
    pub fn intern_event_with(&mut self, ev: &Event, sink: impl FnMut(LineId)) {
        self.try_intern_event_with(ev, sink)
            .expect("line-id space exhausted; use try_intern_event_with for typed errors");
    }

    /// Build an interner covering every line `threads` touch.
    ///
    /// Infallible companion to [`crate::trace::validate_and_intern`] for
    /// replay paths that skip validation.
    pub fn from_threads(threads: &[ThreadTrace], line_size: u64) -> Self {
        let mut interner = Self::new(line_size);
        for t in threads {
            for ev in &t.events {
                interner.intern_event(ev);
            }
        }
        interner
    }
}

/// The lines `ev` makes the replay engine touch, in its splitting order:
/// the [`blocks_touched`] lines of an access, the one line containing the
/// address of an atomic or acquire, and none (`None`) for fences and
/// compute events. Interning and id-stream sizing both split through
/// here, so the two cannot disagree.
#[inline]
fn event_lines(ev: &Event, line_size: u64) -> Option<BlockIter> {
    match ev.kind {
        EventKind::Read
        | EventKind::Write
        | EventKind::NtWrite
        | EventKind::PrestoreClean
        | EventKind::PrestoreDemote => Some(blocks_touched(ev.addr, ev.size as u64, line_size)),
        EventKind::Atomic | EventKind::Acquire => Some(blocks_touched(ev.addr, 1, line_size)),
        EventKind::Fence | EventKind::Compute => None,
    }
}

/// Per-thread streams of pre-resolved [`LineId`]s, one run per event.
#[derive(Debug, Default, Clone)]
struct IdStream {
    /// Every line id every event of the thread touches, flattened in
    /// program order (the engine's splitting order within each event).
    ids: Vec<LineId>,
    /// `offsets[i]..offsets[i + 1]` indexes event `i`'s ids. One entry per
    /// event plus a trailing end marker.
    offsets: Vec<u32>,
}

/// A [`LineInterner`] together with per-event id streams for a fixed set
/// of threads: every line id the replay engine will need, pre-resolved in
/// replay order.
///
/// Resolving ids during replay would hash into a map sized by the trace's
/// whole line footprint — cache-cold by construction, unlike the small
/// resident-bounded per-line maps it replaces. Pre-resolving turns the hot
/// loop's id lookups into a sequential, prefetch-friendly array walk; the
/// one hash per line occurrence is paid here, in the same mandatory pass
/// that validates (or first walks) the trace.
#[derive(Debug, Default, Clone)]
pub struct InternedTraces {
    interner: LineInterner,
    threads: Vec<IdStream>,
}

impl InternedTraces {
    /// Intern `threads`, recording each event's id run; errors with
    /// [`ValidateError::TooManyLines`] if the dense id space is exhausted.
    pub fn try_from_threads(
        threads: &[ThreadTrace],
        line_size: u64,
    ) -> Result<Self, ValidateError> {
        let mut this = Self::empty(line_size);
        for t in threads {
            this.try_push_thread(t)?;
        }
        Ok(this)
    }

    /// Intern `threads`, recording each event's id run.
    ///
    /// # Panics
    ///
    /// On id-space exhaustion, like [`LineInterner::intern`]; validated
    /// paths use [`InternedTraces::try_from_threads`].
    pub fn from_threads(threads: &[ThreadTrace], line_size: u64) -> Self {
        Self::try_from_threads(threads, line_size)
            .expect("line-id space exhausted; use try_from_threads for typed errors")
    }

    /// An interner with no threads recorded (line size still fixed): the
    /// building block for incremental construction.
    pub fn empty(line_size: u64) -> Self {
        Self { interner: LineInterner::new(line_size), threads: Vec::new() }
    }

    /// [`InternedTraces::empty`] with a reduced interner id-space bound,
    /// so tests can exercise [`ValidateError::TooManyLines`] cheaply.
    pub fn empty_with_max_lines(line_size: u64, max_lines: u32) -> Self {
        Self {
            interner: LineInterner::with_max_lines(line_size, max_lines),
            threads: Vec::new(),
        }
    }

    /// Intern one more thread's events, appending its id stream. Errors
    /// with [`ValidateError::TooManyLines`] if either the interner's dense
    /// id space or the thread's `u32` id-stream offset space would
    /// overflow (the latter needs > `u32::MAX` line occurrences in one
    /// thread — previously a silent truncation that cross-linked events).
    /// On error the thread is not recorded; already-recorded threads stay
    /// intact.
    ///
    /// The stream is reserved exactly — its lines are counted first — since
    /// memoized views keep it for their lifetime. A count past the offset
    /// space reserves nothing; the pass below reports that overflow.
    pub fn try_push_thread(&mut self, t: &ThreadTrace) -> Result<(), ValidateError> {
        let line_size = self.interner.line_size();
        let lines: usize =
            t.events.iter().map(|ev| event_lines(ev, line_size).map_or(0, |b| b.len())).sum();
        let mut s = IdStream {
            ids: Vec::with_capacity(if Self::checked_offset(lines).is_ok() { lines } else { 0 }),
            offsets: Vec::with_capacity(t.events.len() + 1),
        };
        for ev in &t.events {
            s.offsets.push(Self::checked_offset(s.ids.len())?);
            self.interner.try_intern_event_with(ev, |id| s.ids.push(id))?;
        }
        s.offsets.push(Self::checked_offset(s.ids.len())?);
        self.threads.push(s);
        Ok(())
    }

    /// Intern one more thread's events, appending its id stream.
    ///
    /// # Panics
    ///
    /// On id-space or offset overflow, like [`LineInterner::intern`];
    /// validated paths use [`InternedTraces::try_push_thread`].
    pub fn push_thread(&mut self, t: &ThreadTrace) {
        self.try_push_thread(t)
            .expect("line-id space exhausted; use try_push_thread for typed errors");
    }

    /// An id-stream offset, checked against the `u32` offset space.
    fn checked_offset(len: usize) -> Result<u32, ValidateError> {
        u32::try_from(len).map_err(|_| ValidateError::TooManyLines {
            needed: len as u64,
            limit: u32::MAX as u64,
        })
    }

    /// The interner shared by all recorded threads.
    #[inline]
    pub fn interner(&self) -> &LineInterner {
        &self.interner
    }

    /// The ids event `ev` of `thread` touches, in the engine's splitting
    /// order: one id per [`blocks_touched`] line for accesses, exactly one
    /// for atomics and acquires, none for fences and compute events.
    #[inline]
    pub fn ids_for(&self, thread: usize, ev: usize) -> &[LineId] {
        let s = &self.threads[thread];
        &s.ids[s.offsets[ev] as usize..s.offsets[ev + 1] as usize]
    }

    /// Elements reserved but unused across every thread's id stream and
    /// offsets: 0, since both are reserved exactly.
    pub fn spare_capacity(&self) -> usize {
        self.threads
            .iter()
            .map(|s| s.ids.capacity() - s.ids.len() + s.offsets.capacity() - s.offsets.len())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tracer;

    #[test]
    fn ids_are_dense_and_stable() {
        let mut i = LineInterner::new(64);
        let a = i.intern(0);
        let b = i.intern(64);
        let a2 = i.intern(0);
        assert_eq!(a, LineId(0));
        assert_eq!(b, LineId(1));
        assert_eq!(a, a2);
        assert_eq!(i.len(), 2);
        // Each id round-trips through its line, and the ids are 0..len().
        assert_eq!(i.id_of(0), Some(a));
        assert_eq!(i.id_of(64), Some(b));
        assert_eq!(i.id_of(128), None);
    }

    /// The interner's memory grows with pages, not lines: the blocks grow
    /// by an eighth with exact reservations (never by `Vec` doubling),
    /// and filling the lines of mapped pages grows no table at all.
    #[test]
    fn blocks_grow_with_pages_by_an_eighth() {
        const PAGES: u64 = 3_000;
        for line_size in [64u64, 128] {
            let line = |page: u64, slot: u64| (page * PAGE_LINES as u64 + slot) * line_size;
            let mut i = LineInterner::new(line_size);
            let (mut cap, mut reallocs) = (0, 0);
            // One line per page, on page numbers 97 apart.
            for p in 0..PAGES {
                i.intern(line(p * 97, p % 64));
                let pages = p as usize + 1;
                assert_eq!(i.len(), pages);
                let now = i.blocks.capacity();
                assert!(now <= pages + pages / 8 + 16, "{now} blocks for {pages} pages");
                reallocs += usize::from(now != cap);
                cap = now;
            }
            // 3,000 pages; exact growth would reallocate on every one.
            assert!(reallocs < 80, "{reallocs} reallocations");
            // Every line of those pages: 64x the lines, no more memory.
            let directory = i.pages.capacity();
            for p in 0..PAGES {
                for slot in 0..PAGE_LINES as u64 {
                    i.intern(line(p * 97, slot));
                }
            }
            assert_eq!(i.len(), PAGES as usize * PAGE_LINES);
            assert_eq!((i.blocks.capacity(), i.pages.capacity()), (cap, directory));
        }
    }

    #[test]
    fn event_rules_match_engine_splitting() {
        let mut t = Tracer::new();
        t.write(60, 10); // lines 0 and 64
        t.atomic(130, 8); // line 128
        t.acquire(129, 1); // line 128 again
        t.fence(); // nothing
        t.compute(1_000_000); // nothing (addr is a cycle count)
        let i = LineInterner::from_threads(&[t.finish()], 64);
        assert_eq!(i.len(), 3);
        assert!(i.id_of(0).is_some());
        assert!(i.id_of(64).is_some());
        assert!(i.id_of(128).is_some());
    }

    #[test]
    fn respects_line_size() {
        let mut t = Tracer::new();
        t.write(0, 256);
        let tr = t.finish();
        assert_eq!(LineInterner::from_threads(std::slice::from_ref(&tr), 64).len(), 4);
        assert_eq!(LineInterner::from_threads(std::slice::from_ref(&tr), 128).len(), 2);
    }

    #[test]
    fn interned_traces_stream_per_event_ids_in_split_order() {
        let mut t = Tracer::new();
        t.write(60, 10); // lines 0 and 64
        t.fence(); // no ids
        t.atomic(130, 8); // line 128
        t.read(64, 4); // line 64 again — same id as before
        let it = InternedTraces::from_threads(&[t.finish()], 64);
        assert_eq!(it.interner().len(), 3);
        assert_eq!(it.ids_for(0, 0), &[LineId(0), LineId(1)]);
        assert_eq!(it.ids_for(0, 1), &[]);
        assert_eq!(it.ids_for(0, 2), &[LineId(2)]);
        assert_eq!(it.ids_for(0, 3), &[LineId(1)]);
        // The streams agree with the interner's map.
        assert_eq!(it.interner().id_of(128), Some(LineId(2)));
    }

    #[test]
    fn capacity_exhaustion_is_a_typed_error_and_leaves_state_intact() {
        let mut i = LineInterner::with_max_lines(64, 2);
        let a = i.try_intern(0).expect("within capacity");
        let b = i.try_intern(64).expect("within capacity");
        let err = i.try_intern(128).expect_err("over capacity");
        assert!(matches!(err, ValidateError::TooManyLines { needed: 3, limit: 2 }));
        // Known lines still resolve; nothing was truncated or aliased.
        assert_eq!(i.len(), 2);
        assert_eq!(i.try_intern(0).expect("known line"), a);
        assert_eq!(i.try_intern(64).expect("known line"), b);
        assert_eq!(i.id_of(128), None);
    }

    #[test]
    fn infallible_intern_panics_instead_of_wrapping() {
        let mut i = LineInterner::with_max_lines(64, 1);
        i.intern(0);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| i.intern(64)));
        assert!(r.is_err(), "intern past capacity must panic, not alias ids");
    }

    #[test]
    fn zero_size_access_still_touches_one_line() {
        // `simulate` does not validate, so the interner must cover the same
        // lines the engine would touch even for malformed events.
        let mut t = Tracer::new();
        t.read(100, 0);
        let i = LineInterner::from_threads(&[t.finish()], 64);
        assert_eq!(i.len(), 1);
        assert!(i.id_of(64).is_some());
    }
}
