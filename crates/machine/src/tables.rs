//! Per-line engine state: flat id-indexed tables vs. the hashed reference.
//!
//! The replay engine keeps five pieces of per-line bookkeeping (dirty-line
//! ownership, in-flight writebacks, in-flight non-temporal stores,
//! release sequencing and first-dirty site tags). Historically each was an
//! `FxHashMap` consulted on every replayed event — the hot loop re-hashed
//! the same line addresses millions of times. Per-site counts, cycles
//! included, are not per-line state: they live in the engine's per-site
//! book.
//!
//! [`LineTables`] abstracts that state behind the two implementations this
//! module provides:
//!
//! * [`FlatTables`] — the production path. Every line address has been
//!   interned to a dense [`LineId`] during validation
//!   ([`simcore::trace::validate_and_intern`]), so each table is a plain
//!   `Vec` indexed by id. Each replay builds its own tables and drops them
//!   when it ends; the write-lifetime rows cover only the lines the replay
//!   writes.
//! * [`HashTables`] — the pre-interning reference, byte-for-byte the old
//!   behaviour. Kept as the test oracle of the flat tables' property test
//!   and of the engine's equivalence tests, so the flat path is always
//!   testable against a known-good twin.
//!
//! The engine is generic over `T: LineTables`, so its one replay loop
//! compiles once per implementation. Both replay the same interned feed;
//! the reference tables ignore its ids.

use simcore::{Addr, CoreId, Cycles, FuncId, LineId};
#[cfg(test)]
use simcore::FxHashMap;

/// The engine's per-line bookkeeping state.
///
/// Every operation takes both the dense `id` and the `line` address:
/// [`FlatTables`] keys by id and ignores the address, [`HashTables`] keys
/// by address and ignores the id.
pub trait LineTables {
    /// Which core's L1 holds `line` dirty, if any.
    fn owner_get(&self, id: LineId, line: Addr) -> Option<CoreId>;
    fn owner_set(&mut self, id: LineId, line: Addr, cid: CoreId);
    fn owner_clear(&mut self, id: LineId, line: Addr);

    /// Completion time of an in-flight clean-initiated writeback of `line`.
    fn wb_get(&self, id: LineId, line: Addr) -> Option<Cycles>;
    fn wb_set(&mut self, id: LineId, line: Addr, done: Cycles);
    fn wb_clear(&mut self, id: LineId, line: Addr);

    /// Completion time of an in-flight non-temporal store to `line`.
    fn nt_get(&self, id: LineId, line: Addr) -> Option<Cycles>;
    fn nt_set(&mut self, id: LineId, line: Addr, done: Cycles);
    fn nt_clear(&mut self, id: LineId, line: Addr);

    /// How many times `line` was released, and when the latest release
    /// happened.
    fn release_get(&self, id: LineId, line: Addr) -> Option<(u32, Cycles)>;
    fn release_bump(&mut self, id: LineId, line: Addr, now: Cycles);
    /// Restore a release count recovered from a crash image: the line has
    /// been released `count` times in total across the pre-crash segments.
    /// The release *time* is deliberately reset to 0 — resumed cores start
    /// from fresh clocks, and an acquire only compares sequence numbers.
    fn release_restore(&mut self, id: LineId, line: Addr, count: u32);

    /// Tag `line` with the site and step that first dirtied it, if it has
    /// no tag yet (first-dirty wins: a line stays attributed to the store
    /// that started its dirty lifetime until the tag is taken).
    fn dirt_mark(&mut self, id: LineId, line: Addr, site: FuncId, step: u64);
    /// Take (and clear) `line`'s first-dirty tag, if any. Called when the
    /// dirty data leaves the hierarchy — eviction to the device, a
    /// pre-store clean writeback, an NT store superseding it, or the
    /// end-of-run residual flush.
    fn dirt_take(&mut self, id: LineId, line: Addr) -> Option<(FuncId, u64)>;

    /// Number of lines carrying live table state, when the implementation
    /// can answer without walking a map — `None` for the hashed reference.
    /// End-of-run telemetry only.
    fn live_lines(&self) -> Option<usize> {
        None
    }

    /// Extend the id-indexed tables to cover `lines` ids *mid-run* without
    /// touching existing entries. Streaming replays intern lines
    /// chunk-by-chunk, so the dense id space grows while the run's state
    /// must survive; a no-op for address-keyed implementations.
    fn grow(&mut self, _lines: usize) {}
}

/// The always-touched part of a line's state: a packed flags word and the
/// line's write-lifetime row. 8 bytes per line, so eight lines of state
/// share one hardware cache line — this is the table every per-line
/// lookup hits, and on footprint-sized traces its density is what decides
/// whether the flat path beats hashing.
///
/// `flags` packs:
///
/// | bits  | field |
/// |-------|-------|
/// | 0–4   | presence: [`OWNER`], [`WB`], [`NT`], [`REL`], [`DIRT`] |
/// | 8–15  | the owning core, valid under [`OWNER`] ([`MAX_CORES`] ids) |
/// | 16–31 | the first-dirty [`FuncId`], valid under [`DIRT`] |
///
/// A field whose presence bit is clear is zero, so a line carries live
/// state exactly when its flags word is nonzero — except that a cleared
/// owner keeps its core id: the live-line count is a gated telemetry
/// figure, and zeroing the id would move it.
#[derive(Debug, Clone, Copy, Default)]
struct HotEntry {
    flags: u32,
    /// 1 + the line's row in [`FlatTables::life`]; 0 = no row. A row is
    /// appended on the line's first [`WB`] or [`DIRT`] and kept for the
    /// rest of the replay.
    life: u32,
}

/// [`HotEntry::flags`] bit: a core owns the line dirty.
const OWNER: u32 = 1 << 0;
/// [`HotEntry::flags`] bit: a clean-initiated writeback is in flight.
const WB: u32 = 1 << 1;
/// [`HotEntry::flags`] bit: a non-temporal store is in flight.
const NT: u32 = 1 << 2;
/// [`HotEntry::flags`] bit: the line has been released this run.
const REL: u32 = 1 << 3;
/// [`HotEntry::flags`] bit: the line carries a first-dirty site tag.
const DIRT: u32 = 1 << 4;
/// The owning core lives in `flags` bits 8–15.
const OWNER_SHIFT: u32 = 8;
const OWNER_BITS: u32 = 8;
const OWNER_MASK: u32 = ((1 << OWNER_BITS) - 1) << OWNER_SHIFT;
/// The first-dirty site lives in `flags` bits 16–31 (a whole [`FuncId`],
/// [`FuncId::UNKNOWN`] included).
const SITE_SHIFT: u32 = 16;
const SITE_MASK: u32 = (u16::MAX as u32) << SITE_SHIFT;

/// The most cores a replay may have: the packed owner field names core
/// ids `0..MAX_CORES`. Every replay entry point refuses a trace set with
/// more threads as [`crate::EngineError::TooManyCores`].
pub const MAX_CORES: usize = 1 << OWNER_BITS;

/// A line's write lifetime: the completion time of the writeback a
/// `clean` started (valid under [`WB`]) and the replay step that first
/// dirtied it (valid under [`DIRT`]). One 16-byte row per line the replay
/// writes, so a write → clean lifetime touches two per-line host lines —
/// this one and the hot entry. Each field is fully written before its flag
/// bit is set.
#[derive(Debug, Clone, Copy, Default)]
struct LifeEntry {
    wb_done: Cycles,
    dirt_step: u64,
}

/// A line's release sequencing, valid under [`REL`]: how many releases,
/// and when the latest happened. Only traces with atomics size this table.
#[derive(Debug, Clone, Copy, Default)]
struct RelEntry {
    when: Cycles,
    count: u32,
}

/// Dense per-line state tables (the production path), built fresh for one
/// replay and dropped with it.
///
/// The hot table covers every interned line. Write lifetimes live in an
/// arena with one row per line the replay writes, found through the hot
/// entry. The rare side tables (`nt`, `rel`) are gated by `HotEntry` flag
/// bits and sized to the hot table's length by their first setter, so a
/// trace that never NT-stores or releases never allocates them. A line
/// costs 8 bytes, plus 16 if it is written.
#[derive(Debug, Default)]
pub struct FlatTables {
    /// Per line id: packed flags, owner and site, and the line's
    /// write-lifetime row (touched by every lookup).
    hot: Vec<HotEntry>,
    /// Write-lifetime rows, one per line written this replay, in order of
    /// first write.
    life: Vec<LifeEntry>,
    /// Per line id: in-flight NT-store completion times, under [`NT`].
    nt: Vec<Cycles>,
    /// Per line id: release count and time.
    rel: Vec<RelEntry>,
}

/// Extend `v` to `len` default entries, allocating exactly `len`: callers
/// choose their own slack, so `Vec`'s doubling must not add more.
#[cold]
fn extend_exact<T: Copy + Default>(v: &mut Vec<T>, len: usize) {
    if v.len() < len {
        v.reserve_exact(len - v.len());
        v.resize(len, T::default());
    }
}

/// `table[id]`, first sizing a lazily-allocated side table to `hot_len`
/// (the hot table's length, which always covers `id`).
#[inline]
fn side_mut<T: Copy + Default>(table: &mut Vec<T>, hot_len: usize, id: LineId) -> &mut T {
    let idx = id.index();
    if idx >= table.len() {
        extend_exact(table, hot_len);
    }
    &mut table[idx]
}

impl FlatTables {
    /// Empty tables for a replay over `lines` interned lines (0 for a
    /// streamed replay, whose tables grow with its interner).
    pub(crate) fn new(lines: usize) -> Self {
        let mut tables = Self::default();
        extend_exact(&mut tables.hot, lines);
        tables
    }

    /// Make the hot table cover `lines` ids. It grows geometrically by an
    /// eighth (or straight to `lines` if that is further), never by `Vec`
    /// doubling: a streaming replay calls this after every refill, so
    /// exact growth would copy quadratically, and doubling would leave up
    /// to half the table as slack. The NT and release tables follow the
    /// hot table's length when their setters next reach past their end.
    fn cover(&mut self, lines: usize) {
        let len = self.hot.len();
        if len < lines {
            extend_exact(&mut self.hot, lines.max(len + len / 8));
        }
    }

    /// The flags word of `id`.
    #[inline]
    fn flags(&self, id: LineId) -> u32 {
        self.hot[id.index()].flags
    }

    /// The flags word of `id`, for update.
    #[inline]
    fn flags_mut(&mut self, id: LineId) -> &mut u32 {
        &mut self.hot[id.index()].flags
    }

    /// The write-lifetime row of `id`, appended on the line's first use.
    /// A full arena reserves exactly an eighth more (at least 16 rows)
    /// rather than let `Vec` double.
    #[inline]
    fn life_mut(&mut self, id: LineId) -> &mut LifeEntry {
        let e = &mut self.hot[id.index()];
        if e.life == 0 {
            let rows = &mut self.life;
            if rows.len() == rows.capacity() {
                rows.reserve_exact((rows.len() / 8).max(16));
            }
            rows.push(LifeEntry::default());
            // At most one row per interned line, and line ids fit a u32.
            e.life = rows.len() as u32;
        }
        let row = e.life as usize - 1;
        &mut self.life[row]
    }

    /// The write-lifetime row of `id`, which has one under [`WB`] or
    /// [`DIRT`].
    #[inline]
    fn life(&self, id: LineId) -> &LifeEntry {
        &self.life[self.hot[id.index()].life as usize - 1]
    }
}

impl LineTables for FlatTables {
    #[inline]
    fn owner_get(&self, id: LineId, _line: Addr) -> Option<CoreId> {
        let f = self.flags(id);
        (f & OWNER != 0).then_some(((f & OWNER_MASK) >> OWNER_SHIFT) as CoreId)
    }

    #[inline]
    fn owner_set(&mut self, id: LineId, _line: Addr, cid: CoreId) {
        // The replay entry points refuse more than `MAX_CORES` threads;
        // the mask keeps a stray id out of the neighbouring site field.
        debug_assert!(cid < MAX_CORES, "core id overflows packed owner");
        let f = self.flags_mut(id);
        *f = (*f & !OWNER_MASK) | OWNER | (((cid as u32) << OWNER_SHIFT) & OWNER_MASK);
    }

    #[inline]
    fn owner_clear(&mut self, id: LineId, _line: Addr) {
        *self.flags_mut(id) &= !OWNER;
    }

    #[inline]
    fn wb_get(&self, id: LineId, _line: Addr) -> Option<Cycles> {
        // `then` (not `then_some`): the row is only read when the flag
        // says it exists.
        (self.flags(id) & WB != 0).then(|| self.life(id).wb_done)
    }

    #[inline]
    fn wb_set(&mut self, id: LineId, _line: Addr, done: Cycles) {
        *self.flags_mut(id) |= WB;
        self.life_mut(id).wb_done = done;
    }

    #[inline]
    fn wb_clear(&mut self, id: LineId, _line: Addr) {
        *self.flags_mut(id) &= !WB;
    }

    #[inline]
    fn nt_get(&self, id: LineId, _line: Addr) -> Option<Cycles> {
        (self.flags(id) & NT != 0).then(|| self.nt[id.index()])
    }

    #[inline]
    fn nt_set(&mut self, id: LineId, _line: Addr, done: Cycles) {
        *self.flags_mut(id) |= NT;
        *side_mut(&mut self.nt, self.hot.len(), id) = done;
    }

    #[inline]
    fn nt_clear(&mut self, id: LineId, _line: Addr) {
        *self.flags_mut(id) &= !NT;
    }

    #[inline]
    fn release_get(&self, id: LineId, _line: Addr) -> Option<(u32, Cycles)> {
        (self.flags(id) & REL != 0).then(|| {
            let r = &self.rel[id.index()];
            (r.count, r.when)
        })
    }

    #[inline]
    fn release_bump(&mut self, id: LineId, _line: Addr, now: Cycles) {
        let f = self.flags_mut(id);
        let first = *f & REL == 0;
        *f |= REL;
        let r = side_mut(&mut self.rel, self.hot.len(), id);
        r.count = if first { 1 } else { r.count + 1 };
        r.when = now;
    }

    #[inline]
    fn release_restore(&mut self, id: LineId, _line: Addr, count: u32) {
        *self.flags_mut(id) |= REL;
        *side_mut(&mut self.rel, self.hot.len(), id) = RelEntry { when: 0, count };
    }

    #[inline]
    fn dirt_mark(&mut self, id: LineId, _line: Addr, site: FuncId, step: u64) {
        let f = self.flags_mut(id);
        if *f & DIRT != 0 {
            return; // first-dirty wins
        }
        // An untagged line's site bits are zero (`dirt_take` clears them).
        *f |= DIRT | (u32::from(site.0) << SITE_SHIFT);
        self.life_mut(id).dirt_step = step;
    }

    #[inline]
    fn dirt_take(&mut self, id: LineId, _line: Addr) -> Option<(FuncId, u64)> {
        let f = self.flags_mut(id);
        if *f & DIRT != 0 {
            let site = FuncId((*f >> SITE_SHIFT) as u16);
            // Zero the site with its bit: an untagged line's flags word
            // reads as it did before the site moved into it.
            *f &= !(DIRT | SITE_MASK);
            Some((site, self.life(id).dirt_step))
        } else {
            None
        }
    }

    /// The hot entries whose flags are nonzero. O(lines) — called for
    /// end-of-run telemetry only, never on the step path.
    fn live_lines(&self) -> Option<usize> {
        Some(self.hot.iter().filter(|e| e.flags != 0).count())
    }

    fn grow(&mut self, lines: usize) {
        // New entries are zero: no flags, no row. The NT and release
        // tables stay lazily sized by their setters.
        self.cover(lines);
    }
}

/// The hashed reference tables: the engine's exact pre-interning state
/// representation, one `FxHashMap` per concern, keyed by line address.
/// A test oracle only.
#[cfg(test)]
#[derive(Debug, Default)]
pub struct HashTables {
    owner: FxHashMap<Addr, CoreId>,
    wb_inflight: FxHashMap<Addr, Cycles>,
    nt_inflight: FxHashMap<Addr, Cycles>,
    releases: FxHashMap<Addr, (u32, Cycles)>,
    dirt: FxHashMap<Addr, (FuncId, u64)>,
}

#[cfg(test)]
impl LineTables for HashTables {
    #[inline]
    fn owner_get(&self, _id: LineId, line: Addr) -> Option<CoreId> {
        self.owner.get(&line).copied()
    }

    #[inline]
    fn owner_set(&mut self, _id: LineId, line: Addr, cid: CoreId) {
        self.owner.insert(line, cid);
    }

    #[inline]
    fn owner_clear(&mut self, _id: LineId, line: Addr) {
        self.owner.remove(&line);
    }

    #[inline]
    fn wb_get(&self, _id: LineId, line: Addr) -> Option<Cycles> {
        self.wb_inflight.get(&line).copied()
    }

    #[inline]
    fn wb_set(&mut self, _id: LineId, line: Addr, done: Cycles) {
        self.wb_inflight.insert(line, done);
    }

    #[inline]
    fn wb_clear(&mut self, _id: LineId, line: Addr) {
        self.wb_inflight.remove(&line);
    }

    #[inline]
    fn nt_get(&self, _id: LineId, line: Addr) -> Option<Cycles> {
        self.nt_inflight.get(&line).copied()
    }

    #[inline]
    fn nt_set(&mut self, _id: LineId, line: Addr, done: Cycles) {
        self.nt_inflight.insert(line, done);
    }

    #[inline]
    fn nt_clear(&mut self, _id: LineId, line: Addr) {
        self.nt_inflight.remove(&line);
    }

    #[inline]
    fn release_get(&self, _id: LineId, line: Addr) -> Option<(u32, Cycles)> {
        self.releases.get(&line).copied()
    }

    #[inline]
    fn release_bump(&mut self, _id: LineId, line: Addr, now: Cycles) {
        let e = self.releases.entry(line).or_insert((0, 0));
        e.0 += 1;
        e.1 = now;
    }

    #[inline]
    fn release_restore(&mut self, _id: LineId, line: Addr, count: u32) {
        self.releases.insert(line, (count, 0));
    }

    #[inline]
    fn dirt_mark(&mut self, _id: LineId, line: Addr, site: FuncId, step: u64) {
        self.dirt.entry(line).or_insert((site, step)); // first-dirty wins
    }

    #[inline]
    fn dirt_take(&mut self, _id: LineId, line: Addr) -> Option<(FuncId, u64)> {
        self.dirt.remove(&line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use simcore::LineInterner;

    /// One [`LineTables`] operation. Line operands are raw draws, resolved
    /// modulo the lines covered so far, so the same op stays valid as the
    /// id space grows.
    #[derive(Debug, Clone, Copy)]
    enum TableOp {
        OwnerSet(u32, CoreId),
        OwnerClear(u32),
        WbSet(u32, Cycles),
        WbClear(u32),
        NtSet(u32, Cycles),
        NtClear(u32),
        ReleaseBump(u32, Cycles),
        ReleaseRestore(u32, u32),
        DirtMark(u32, u16, u64),
        DirtTake(u32),
        /// Start a new run on fresh tables.
        Fresh,
        /// Intern this many more lines mid-run.
        Grow(u32),
    }

    /// Core ids up to the limit, its edges drawn often.
    fn any_core() -> impl Strategy<Value = CoreId> {
        prop_oneof![Just(0), Just(MAX_CORES - 1), 0..MAX_CORES]
    }

    /// Sites with the packed field's edge values drawn often: 0, the
    /// highest registrable id and the UNKNOWN sentinel (all ones).
    fn any_site() -> impl Strategy<Value = u16> {
        prop_oneof![Just(0), Just(u16::MAX - 1), Just(FuncId::UNKNOWN.0), any::<u16>()]
    }

    fn any_table_op() -> impl Strategy<Value = TableOp> {
        let line = || any::<u32>();
        prop_oneof![
            (line(), any_core()).prop_map(|(l, c)| TableOp::OwnerSet(l, c)),
            line().prop_map(TableOp::OwnerClear),
            (line(), any::<u64>()).prop_map(|(l, t)| TableOp::WbSet(l, t)),
            line().prop_map(TableOp::WbClear),
            (line(), any::<u64>()).prop_map(|(l, t)| TableOp::NtSet(l, t)),
            line().prop_map(TableOp::NtClear),
            (line(), any::<u64>()).prop_map(|(l, t)| TableOp::ReleaseBump(l, t)),
            (line(), 0u32..1000).prop_map(|(l, n)| TableOp::ReleaseRestore(l, n)),
            (line(), any_site(), any::<u64>()).prop_map(|(l, f, s)| TableOp::DirtMark(l, f, s)),
            line().prop_map(TableOp::DirtTake),
            Just(TableOp::Fresh),
            (1u32..40).prop_map(TableOp::Grow),
        ]
    }

    /// The id and address of raw line draw `l` among `lines` covered ones.
    fn at(l: u32, lines: u32) -> (LineId, Addr) {
        (LineId(l % lines), u64::from(l % lines) * 64)
    }

    /// A line's owner, writeback, NT store and release state.
    type LineState = (Option<CoreId>, Option<Cycles>, Option<Cycles>, Option<(u32, Cycles)>);

    /// Everything `t` answers about line `l` without changing it.
    fn peek(t: &impl LineTables, l: u32, lines: u32) -> LineState {
        let (id, a) = at(l, lines);
        (t.owner_get(id, a), t.wb_get(id, a), t.nt_get(id, a), t.release_get(id, a))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Random interleavings of every op, fresh runs and mid-run growth
        /// included: the flat tables answer exactly like the address-keyed
        /// reference after every op, on every covered line, and hold one
        /// write-lifetime row for each line ever marked or wb-set in the
        /// run, and none for any other line.
        #[test]
        fn flat_tables_match_hash_tables_under_random_ops(
            first in 1u32..16,
            ops in proptest::collection::vec(any_table_op(), 1..300),
        ) {
            let mut lines = first;
            let mut flat = FlatTables::new(lines as usize);
            let mut hash = HashTables::default();
            // The lines this run has marked or wb-set.
            let mut written = std::collections::BTreeSet::new();
            for op in ops {
                match op {
                    TableOp::OwnerSet(l, c) => {
                        let (id, a) = at(l, lines);
                        flat.owner_set(id, a, c);
                        hash.owner_set(id, a, c);
                    }
                    TableOp::OwnerClear(l) => {
                        let (id, a) = at(l, lines);
                        flat.owner_clear(id, a);
                        hash.owner_clear(id, a);
                    }
                    TableOp::WbSet(l, t) => {
                        let (id, a) = at(l, lines);
                        flat.wb_set(id, a, t);
                        hash.wb_set(id, a, t);
                        written.insert(id.0);
                    }
                    TableOp::WbClear(l) => {
                        let (id, a) = at(l, lines);
                        flat.wb_clear(id, a);
                        hash.wb_clear(id, a);
                    }
                    TableOp::NtSet(l, t) => {
                        let (id, a) = at(l, lines);
                        flat.nt_set(id, a, t);
                        hash.nt_set(id, a, t);
                    }
                    TableOp::NtClear(l) => {
                        let (id, a) = at(l, lines);
                        flat.nt_clear(id, a);
                        hash.nt_clear(id, a);
                    }
                    TableOp::ReleaseBump(l, t) => {
                        let (id, a) = at(l, lines);
                        flat.release_bump(id, a, t);
                        hash.release_bump(id, a, t);
                    }
                    TableOp::ReleaseRestore(l, n) => {
                        let (id, a) = at(l, lines);
                        flat.release_restore(id, a, n);
                        hash.release_restore(id, a, n);
                    }
                    TableOp::DirtMark(l, f, s) => {
                        let (id, a) = at(l, lines);
                        flat.dirt_mark(id, a, FuncId(f), s);
                        hash.dirt_mark(id, a, FuncId(f), s);
                        written.insert(id.0);
                    }
                    TableOp::DirtTake(l) => {
                        let (id, a) = at(l, lines);
                        prop_assert_eq!(flat.dirt_take(id, a), hash.dirt_take(id, a));
                    }
                    TableOp::Fresh => {
                        flat = FlatTables::new(lines as usize);
                        hash = HashTables::default();
                        written.clear();
                    }
                    TableOp::Grow(n) => {
                        lines += n;
                        flat.grow(lines as usize);
                    }
                }
                for l in 0..lines {
                    let (f, h) = (peek(&flat, l, lines), peek(&hash, l, lines));
                    prop_assert_eq!(f, h, "line {l} after {op:?}");
                    let has_row = flat.hot[l as usize].life != 0;
                    prop_assert_eq!(has_row, written.contains(&l), "row of line {l} after {op:?}");
                }
                prop_assert_eq!(flat.life.len(), written.len(), "rows after {op:?}");
            }
            // The tags left standing agree too.
            for l in 0..lines {
                let (id, a) = at(l, lines);
                prop_assert_eq!(flat.dirt_take(id, a), hash.dirt_take(id, a), "dirt of {l}");
            }
        }
    }

    /// Heap bytes `flat` holds: capacity × element size, summed over
    /// every table.
    fn heap_bytes(flat: &FlatTables) -> usize {
        fn bytes<T>(v: &Vec<T>) -> usize {
            v.capacity() * std::mem::size_of::<T>()
        }
        bytes(&flat.hot) + bytes(&flat.life) + bytes(&flat.nt) + bytes(&flat.rel)
    }

    /// Lends a replay the tables under test: the engine drops only the
    /// borrow, so the test reads the tables the replay left behind.
    impl LineTables for &mut FlatTables {
        fn owner_get(&self, id: LineId, line: Addr) -> Option<CoreId> {
            (**self).owner_get(id, line)
        }
        fn owner_set(&mut self, id: LineId, line: Addr, cid: CoreId) {
            (**self).owner_set(id, line, cid)
        }
        fn owner_clear(&mut self, id: LineId, line: Addr) {
            (**self).owner_clear(id, line)
        }
        fn wb_get(&self, id: LineId, line: Addr) -> Option<Cycles> {
            (**self).wb_get(id, line)
        }
        fn wb_set(&mut self, id: LineId, line: Addr, done: Cycles) {
            (**self).wb_set(id, line, done)
        }
        fn wb_clear(&mut self, id: LineId, line: Addr) {
            (**self).wb_clear(id, line)
        }
        fn nt_get(&self, id: LineId, line: Addr) -> Option<Cycles> {
            (**self).nt_get(id, line)
        }
        fn nt_set(&mut self, id: LineId, line: Addr, done: Cycles) {
            (**self).nt_set(id, line, done)
        }
        fn nt_clear(&mut self, id: LineId, line: Addr) {
            (**self).nt_clear(id, line)
        }
        fn release_get(&self, id: LineId, line: Addr) -> Option<(u32, Cycles)> {
            (**self).release_get(id, line)
        }
        fn release_bump(&mut self, id: LineId, line: Addr, now: Cycles) {
            (**self).release_bump(id, line, now)
        }
        fn release_restore(&mut self, id: LineId, line: Addr, count: u32) {
            (**self).release_restore(id, line, count)
        }
        fn dirt_mark(&mut self, id: LineId, line: Addr, site: FuncId, step: u64) {
            (**self).dirt_mark(id, line, site, step)
        }
        fn dirt_take(&mut self, id: LineId, line: Addr) -> Option<(FuncId, u64)> {
            (**self).dirt_take(id, line)
        }
        fn live_lines(&self) -> Option<usize> {
            (**self).live_lines()
        }
        fn grow(&mut self, lines: usize) {
            (**self).grow(lines)
        }
    }

    /// The per-line budget: every line pays its hot entry, and a line the
    /// replay writes also pays a write-lifetime row (8 + 16 B); growth adds
    /// at most an eighth on top. A line that is only read has no row.
    #[test]
    fn kv_replay_fits_the_per_line_budget() {
        use prestore::PrestoreMode;
        use simcore::EventKind;
        use workloads::kv::{serving, KvServingSource, ServingParams};
        let cfg = crate::MachineConfig::machine_a();
        for read_fraction in [0.9, 1.0] {
            let params = ServingParams {
                read_fraction,
                ..ServingParams::new(12_500, 200_000, 2, PrestoreMode::Clean)
            };
            let threads = serving::materialize(&mut KvServingSource::new(params.clone()), 4096);
            let interned = simcore::trace::validate_and_intern(&threads, cfg.line_size)
                .expect("the KV stream is valid");
            let lines = interned.interner().len();
            let mut written = vec![false; lines];
            for (tid, t) in threads.iter().enumerate() {
                for (i, ev) in t.events.iter().enumerate() {
                    if ev.kind == EventKind::Write {
                        for id in interned.ids_for(tid, i) {
                            written[id.index()] = true;
                        }
                    }
                }
            }
            let writes = written.iter().filter(|&&w| w).count();
            // Small refills: the tables grow across ~25 of them per thread.
            let mut flat = FlatTables::new(0);
            let mut src = KvServingSource::new(params);
            crate::engine::replay_stream_on(&cfg, &mut src, 4096, &mut flat)
                .expect("the KV stream replays");
            let bytes = heap_bytes(&flat);
            let budget = 9 * (8 * lines + 16 * writes) / 8;
            assert!(
                bytes <= budget,
                "read fraction {read_fraction}: {bytes} B of line state for {lines} lines, \
                 {writes} written (budget {budget} B)"
            );
            // Every store marks its line, so each written line has a row;
            // as many rows as written lines leaves none for a line that is
            // only read.
            assert_eq!(flat.life.len(), writes, "read fraction {read_fraction}: rows");
            let rare = (flat.nt.capacity(), flat.rel.capacity());
            assert_eq!(rare, (0, 0), "no NT stores or atomics, no NT or release table");
        }
    }

    #[test]
    fn growth_is_geometric_by_an_eighth() {
        let mut flat = FlatTables::new(0);
        let (mut reallocs, mut cap) = (0, 0);
        let (mut row_reallocs, mut row_cap) = (0, 0);
        for lines in (1..=10_000).step_by(7) {
            flat.grow(lines);
            assert!(flat.hot.len() >= lines);
            let now = flat.hot.capacity();
            assert!(now <= lines + lines / 8, "{now} entries for {lines} lines");
            reallocs += usize::from(now != cap);
            cap = now;
            // Write the newest line: the row arena grows the same way.
            flat.wb_set(LineId(lines as u32 - 1), 0, 1);
            let rows = flat.life.len();
            let now = flat.life.capacity();
            assert!(now <= rows + rows / 8 + 16, "{now} rows for {rows} written lines");
            row_reallocs += usize::from(now != row_cap);
            row_cap = now;
        }
        // 1,429 calls; exact growth would reallocate on every one.
        assert!(reallocs < 80, "{reallocs} reallocations");
        assert!(row_reallocs < 80, "{row_reallocs} row reallocations");
    }

    #[test]
    fn flat_tables_match_hash_tables() {
        let mut interner = LineInterner::new(64);
        let lines: Vec<Addr> = (0..32).map(|i| i * 64).collect();
        for &l in &lines {
            interner.try_intern(l).expect("within the id space");
        }
        let mut flat = FlatTables::new(interner.len());
        let mut hash = HashTables::default();
        // Interleave the full op set over both implementations.
        for (i, &line) in lines.iter().enumerate() {
            let id = interner.id_of(line).expect("every test line was interned above");
            let t = i as Cycles;
            assert_eq!(flat.owner_get(id, line), hash.owner_get(id, line));
            flat.owner_set(id, line, i % 3);
            hash.owner_set(id, line, i % 3);
            assert_eq!(flat.owner_get(id, line), Some(i % 3));
            assert_eq!(flat.owner_get(id, line), hash.owner_get(id, line));
            if i % 2 == 0 {
                flat.owner_clear(id, line);
                hash.owner_clear(id, line);
            }
            assert_eq!(flat.owner_get(id, line), hash.owner_get(id, line));
            flat.wb_set(id, line, t + 100);
            hash.wb_set(id, line, t + 100);
            assert_eq!(flat.wb_get(id, line), hash.wb_get(id, line));
            flat.wb_clear(id, line);
            hash.wb_clear(id, line);
            assert_eq!(flat.wb_get(id, line), None);
            flat.nt_set(id, line, t + 7);
            hash.nt_set(id, line, t + 7);
            assert_eq!(flat.nt_get(id, line), hash.nt_get(id, line));
            assert_eq!(flat.release_get(id, line), hash.release_get(id, line));
            flat.release_bump(id, line, t);
            flat.release_bump(id, line, t + 1);
            hash.release_bump(id, line, t);
            hash.release_bump(id, line, t + 1);
            assert_eq!(flat.release_get(id, line), Some((2, t + 1)));
            assert_eq!(flat.release_get(id, line), hash.release_get(id, line));
        }
    }

    #[test]
    fn dirt_tags_match_between_flat_and_hash() {
        let mut interner = LineInterner::new(8);
        let lines: Vec<Addr> = (0..4).map(|i| i * 64).collect();
        for &l in &lines {
            interner.try_intern(l).expect("within the id space");
        }
        let mut flat = FlatTables::new(interner.len());
        let mut hash = HashTables::default();
        for (i, &line) in lines.iter().enumerate() {
            let id = interner.id_of(line).expect("interned above");
            let site = FuncId(i as u16);
            assert_eq!(flat.dirt_take(id, line), hash.dirt_take(id, line));
            flat.dirt_mark(id, line, site, 10);
            hash.dirt_mark(id, line, site, 10);
            // Second mark must not overwrite: first-dirty wins.
            flat.dirt_mark(id, line, FuncId(99), 20);
            hash.dirt_mark(id, line, FuncId(99), 20);
            assert_eq!(flat.dirt_take(id, line), Some((site, 10)));
            assert_eq!(hash.dirt_take(id, line), Some((site, 10)));
            // Taken: the tag is gone until the next mark.
            assert_eq!(flat.dirt_take(id, line), None);
            assert_eq!(hash.dirt_take(id, line), None);
        }
    }

    #[test]
    fn release_restore_seeds_counts_in_both_implementations() {
        let mut interner = LineInterner::new(8);
        let line = 0x140;
        let id = interner.try_intern(line).expect("within the id space");
        let mut flat = FlatTables::new(interner.len());
        let mut hash = HashTables::default();
        flat.release_restore(id, line, 7);
        hash.release_restore(id, line, 7);
        assert_eq!(flat.release_get(id, line), Some((7, 0)));
        assert_eq!(flat.release_get(id, line), hash.release_get(id, line));
        // Post-restore bumps continue from the restored count.
        flat.release_bump(id, line, 42);
        hash.release_bump(id, line, 42);
        assert_eq!(flat.release_get(id, line), Some((8, 42)));
        assert_eq!(flat.release_get(id, line), hash.release_get(id, line));
    }

    #[test]
    fn live_lines_counts_entries_with_flags() {
        let mut flat = FlatTables::new(40);
        assert_eq!(flat.live_lines(), Some(0));
        for i in 0..10u32 {
            flat.owner_set(LineId(i), 0, 1);
        }
        flat.wb_set(LineId(20), 0, 5);
        assert_eq!(flat.live_lines(), Some(11));
        // Clearing the only concern of a line makes it dead again; its
        // write-lifetime row stays for the rest of the run.
        flat.wb_clear(LineId(20), 0);
        assert_eq!(flat.live_lines(), Some(10));
        assert_eq!(flat.life.len(), 1);
        // The hashed reference opts out.
        assert_eq!(LineTables::live_lines(&HashTables::default()), None);
    }
}
