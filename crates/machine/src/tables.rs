//! Per-line engine state: flat id-indexed tables vs. the hashed reference.
//!
//! The replay engine keeps six pieces of per-line bookkeeping (dirty-line
//! ownership, in-flight writebacks, in-flight non-temporal stores,
//! release sequencing, first-dirty site tags, and per-function cycle
//! attribution). Historically each was an `FxHashMap` consulted on every
//! replayed event — the hot loop re-hashed the same line addresses
//! millions of times.
//!
//! [`LineTables`] abstracts that state behind the two implementations this
//! module provides:
//!
//! * [`FlatTables`] — the production path. Every line address has been
//!   interned to a dense [`LineId`] during validation
//!   ([`simcore::trace::validate_and_intern`]), so each table is a plain
//!   `Vec` indexed by id. Entries are *epoch-stamped*: resetting all
//!   tables for the next run is a single epoch bump, no clearing, which
//!   lets one thread-local [`EngineScratch`] be recycled across the
//!   thousands of replays a parameter sweep performs.
//! * [`HashTables`] — the pre-interning reference, byte-for-byte the old
//!   behaviour. Kept for the equivalence suite
//!   (`crates/bench/tests/intern_equivalence.rs`) and the
//!   `intern_vs_hash` microbenchmark, so the flat path is always testable
//!   against a known-good twin.
//!
//! The engine is generic over `T: LineTables`, so its one replay loop
//! compiles once per implementation. Both replay the same interned feed;
//! the reference tables ignore its ids.

use crate::stats::SITE_COLS;
use cachesim::wcbuf::WcFlush;
use simcore::telemetry::SiteTable;
use simcore::{Addr, CoreId, Cycles, FuncId, FxHashMap, LineId};
use std::cell::RefCell;

/// The engine's per-line (and per-function) bookkeeping state.
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

    /// Number of lines carrying live table state (the epoch-validity
    /// sweep), when the implementation can answer without walking a map —
    /// `None` for the hashed reference. End-of-run telemetry only.
    fn live_lines(&self) -> Option<usize> {
        None
    }

    /// Extend the id-indexed tables to cover `lines` ids *mid-run* without
    /// touching existing entries. Streaming replays intern lines
    /// chunk-by-chunk, so the dense id space grows while the run's state
    /// must survive; a no-op for address-keyed implementations.
    fn grow(&mut self, _lines: usize) {}

    /// Attribute `spent` cycles to function `f` (`spent > 0`).
    fn func_add(&mut self, f: FuncId, spent: Cycles);
    /// Drain the per-function attribution accumulated this run.
    fn take_func_cycles(&mut self) -> Vec<(FuncId, Cycles)>;

    /// Hand reusable allocations back for the next run on this thread
    /// (no-op for the reference tables).
    fn recycle(self, wc_buf: Vec<WcFlush>, residual: Vec<Addr>, sites: SiteTable<SITE_COLS>);
}

/// The always-touched part of a line's state: an epoch stamp plus a packed
/// flags word. 8 bytes per line, so eight lines of state share one
/// hardware cache line — this is the table every per-line lookup hits,
/// and on footprint-sized traces its density is what decides whether the
/// flat path beats hashing.
///
/// A stale `epoch` means the whole entry (and its side-table rows) is
/// logically absent. Within the current epoch, `flags` packs:
///
/// | bits  | field |
/// |-------|-------|
/// | 0–4   | presence: [`OWNER`], [`WB`], [`NT`], [`REL`], [`DIRT`] |
/// | 8–15  | the owning core, valid under [`OWNER`] ([`MAX_CORES`] ids) |
/// | 16–31 | the first-dirty [`FuncId`], valid under [`DIRT`] |
///
/// A field whose presence bit is clear is zero, so a line carries live
/// state exactly when its current-epoch flags word is nonzero — except
/// that a cleared owner keeps its core id: the epoch-validity sweep's
/// count is a gated telemetry figure, and zeroing the id would move it.
///
/// `repr(C)` so the epoch-validity sweep ([`FlatTables::live_lines`]) can
/// view the hot table as `[epoch, flags]` pairs for the vectorized scan.
#[derive(Debug, Clone, Copy, Default)]
#[repr(C)]
struct HotEntry {
    epoch: u32,
    flags: u32,
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
/// dirtied it (valid under [`DIRT`]). One 16-byte row, so a write → clean
/// lifetime touches two per-line host lines — this one and the hot entry.
/// Each field is fully written before its flag bit is set, so the row
/// needs no epoch of its own; replays that never write never size it.
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

/// Dense, epoch-stamped per-line state tables (the production path).
///
/// The hot table covers every interned line; the side tables (`life`,
/// `nt`, `rel`) are gated by [`HotEntry`] flag bits and sized to the hot
/// table's length by their first setter, so a trace that never writes,
/// NT-stores or releases never allocates the matching table. A `clean`
/// write workload holds 8 + 16 = 24 bytes per line, a read-only one 8.
#[derive(Debug, Default)]
pub struct FlatTables {
    epoch: u32,
    /// Per line id: epoch + packed flags, owner and site (touched by
    /// every lookup).
    hot: Vec<HotEntry>,
    /// Per line id: writeback completion and first-dirty step.
    life: Vec<LifeEntry>,
    /// Per line id: in-flight NT-store completion times, under [`NT`].
    nt: Vec<Cycles>,
    /// Per line id: release count and time.
    rel: Vec<RelEntry>,
    /// Per function index: cycles attributed this run.
    func: Vec<Cycles>,
    /// Functions with a non-zero entry in `func` (for O(touched) drain).
    func_touched: Vec<FuncId>,
    /// Cycles attributed to [`FuncId::UNKNOWN`] (kept out of `func` so the
    /// sentinel id does not force a 64 Ki-entry table).
    unknown: Cycles,
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
    /// Prepare the tables for a run over `lines` interned lines. All
    /// per-line entries become logically absent in O(1) via an epoch bump;
    /// the per-function table is drained by
    /// [`LineTables::take_func_cycles`] at the end of each run.
    pub(crate) fn reset(&mut self, lines: usize) {
        crate::probes::TABLE_EPOCHS.inc();
        self.cover(lines);
        self.epoch = match self.epoch.checked_add(1) {
            Some(e) => e,
            None => {
                // Epoch wrap: pay one O(lines) re-zero and restart. A
                // stale stamp could otherwise collide with the new epoch.
                // (The side tables are flag-gated, so they need no re-zero.)
                crate::probes::TABLE_EPOCH_WRAPS.inc();
                self.hot.iter_mut().for_each(|e| *e = HotEntry::default());
                1
            }
        };
        debug_assert!(self.func_touched.is_empty() && self.unknown == 0, "undrained run");
    }

    /// Make the hot table cover `lines` ids. It grows geometrically by an
    /// eighth (or straight to `lines` if that is further), never by `Vec`
    /// doubling: a streaming replay calls this after every refill, so
    /// exact growth would copy quadratically, and doubling would leave up
    /// to half the table as slack. The side tables follow the hot table's
    /// length when their setters next reach past their end.
    fn cover(&mut self, lines: usize) {
        let len = self.hot.len();
        if len < lines {
            extend_exact(&mut self.hot, lines.max(len + len / 8));
        }
    }

    /// The current-epoch flags for `id` (0 = entry absent).
    ///
    /// Branchless: the epoch comparison becomes an all-ones/all-zeros mask
    /// select instead of a data-dependent branch — this accessor runs on
    /// every per-line lookup of the replay hot loop, where the mix of
    /// stale and current entries makes the branch unpredictable.
    #[inline]
    fn flags(&self, id: LineId) -> u32 {
        let e = &self.hot[id.index()];
        e.flags & ((e.epoch == self.epoch) as u32).wrapping_neg()
    }

    /// The flags word for `id`, re-stamped empty if stale. Mutating
    /// accessors go through here so a first touch within an epoch never
    /// sees leftover flags from a previous run.
    ///
    /// Branchless like [`FlatTables::flags`]: stale flags are zeroed via
    /// the same mask select and the epoch stamp is written unconditionally
    /// (idempotent when already current).
    #[inline]
    fn flags_mut(&mut self, id: LineId) -> &mut u32 {
        let epoch = self.epoch;
        let e = &mut self.hot[id.index()];
        e.flags &= ((e.epoch == epoch) as u32).wrapping_neg();
        e.epoch = epoch;
        &mut e.flags
    }

    /// Number of lines carrying live state this epoch: the epoch-validity
    /// sweep, vectorized over the `[epoch, flags]` pairs of the hot table.
    /// O(lines) — called for end-of-run telemetry only, never on the step
    /// path.
    pub(crate) fn epoch_live_lines(&self) -> usize {
        // SAFETY: `HotEntry` is `repr(C)` with exactly two `u32` fields
        // and no padding, so `&[HotEntry]` and `&[[u32; 2]]` have
        // identical layout.
        let pairs = unsafe {
            std::slice::from_raw_parts(self.hot.as_ptr().cast::<[u32; 2]>(), self.hot.len())
        };
        simcore::simd::count_live_pairs(pairs, self.epoch)
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
        // Via the branchless re-stamp: clearing a bit of a stale entry
        // leaves it at 0 flags, exactly like the historical no-op.
        *self.flags_mut(id) &= !OWNER;
    }

    #[inline]
    fn wb_get(&self, id: LineId, _line: Addr) -> Option<Cycles> {
        // `then` (not `then_some`): the side table is only touched when
        // the flag says the state exists.
        (self.flags(id) & WB != 0).then(|| self.life[id.index()].wb_done)
    }

    #[inline]
    fn wb_set(&mut self, id: LineId, _line: Addr, done: Cycles) {
        *self.flags_mut(id) |= WB;
        side_mut(&mut self.life, self.hot.len(), id).wb_done = done;
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
        side_mut(&mut self.life, self.hot.len(), id).dirt_step = step;
    }

    #[inline]
    fn dirt_take(&mut self, id: LineId, _line: Addr) -> Option<(FuncId, u64)> {
        // The branchless re-stamp folds the epoch check into a mask, so
        // the only remaining branch is on the DIRT bit itself (which gates
        // the lazily-sized life table, so it cannot be removed).
        let f = self.flags_mut(id);
        if *f & DIRT != 0 {
            let site = FuncId((*f >> SITE_SHIFT) as u16);
            // Zero the site with its bit: an untagged line's flags word
            // reads as it did before the site moved into it.
            *f &= !(DIRT | SITE_MASK);
            Some((site, self.life[id.index()].dirt_step))
        } else {
            None
        }
    }

    #[inline]
    fn live_lines(&self) -> Option<usize> {
        Some(self.epoch_live_lines())
    }

    fn grow(&mut self, lines: usize) {
        // New entries carry epoch 0, which never matches the current epoch
        // (≥ 1 after any `reset`), so they read as logically absent — no
        // epoch bump, existing entries keep their state. The side tables
        // stay lazily sized by their setters.
        self.cover(lines);
    }

    #[inline]
    fn func_add(&mut self, f: FuncId, spent: Cycles) {
        if f == FuncId::UNKNOWN {
            self.unknown += spent;
            return;
        }
        let idx = f.0 as usize;
        if idx >= self.func.len() {
            self.func.resize(idx + 1, 0);
        }
        if self.func[idx] == 0 {
            self.func_touched.push(f);
        }
        self.func[idx] += spent;
    }

    fn take_func_cycles(&mut self) -> Vec<(FuncId, Cycles)> {
        let mut out = Vec::with_capacity(
            self.func_touched.len() + usize::from(self.unknown > 0),
        );
        for f in self.func_touched.drain(..) {
            out.push((f, std::mem::take(&mut self.func[f.0 as usize])));
        }
        if self.unknown > 0 {
            out.push((FuncId::UNKNOWN, std::mem::take(&mut self.unknown)));
        }
        out
    }

    fn recycle(self, wc_buf: Vec<WcFlush>, residual: Vec<Addr>, sites: SiteTable<SITE_COLS>) {
        put_scratch(EngineScratch { flat: self, wc_buf, residual, sites });
    }
}

/// The hashed reference tables: the engine's exact pre-interning state
/// representation, one `FxHashMap` per concern, keyed by line address.
#[derive(Debug, Default)]
pub struct HashTables {
    owner: FxHashMap<Addr, CoreId>,
    wb_inflight: FxHashMap<Addr, Cycles>,
    nt_inflight: FxHashMap<Addr, Cycles>,
    releases: FxHashMap<Addr, (u32, Cycles)>,
    func_cycles: FxHashMap<FuncId, Cycles>,
    dirt: FxHashMap<Addr, (FuncId, u64)>,
}

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

    #[inline]
    fn func_add(&mut self, f: FuncId, spent: Cycles) {
        *self.func_cycles.entry(f).or_insert(0) += spent;
    }

    fn take_func_cycles(&mut self) -> Vec<(FuncId, Cycles)> {
        self.func_cycles.drain().collect()
    }

    fn recycle(self, _wc_buf: Vec<WcFlush>, _residual: Vec<Addr>, _sites: SiteTable<SITE_COLS>) {}
}

/// Reusable per-thread replay allocations: the flat tables and the
/// engine's flush/residual buffers.
#[derive(Debug, Default)]
pub(crate) struct EngineScratch {
    pub(crate) flat: FlatTables,
    pub(crate) wc_buf: Vec<WcFlush>,
    pub(crate) residual: Vec<Addr>,
    /// Per-site attribution rows, epoch-reset like the flat tables.
    pub(crate) sites: SiteTable<SITE_COLS>,
}

thread_local! {
    /// One scratch set per thread: the sweep runner replays on a pool of
    /// worker threads, each recycling its own tables run to run.
    static SCRATCH: RefCell<Option<EngineScratch>> = const { RefCell::new(None) };
}

/// Take this thread's scratch set (or a fresh one).
pub(crate) fn take_scratch() -> EngineScratch {
    SCRATCH.with(|s| s.borrow_mut().take()).unwrap_or_default()
}

/// Return a scratch set for the next run on this thread.
pub(crate) fn put_scratch(scratch: EngineScratch) {
    SCRATCH.with(|s| *s.borrow_mut() = Some(scratch));
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
        FuncAdd(u16, Cycles),
        /// Drain the per-function cycles, then start a new run.
        Reset,
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
            (any_site(), 1u64..1000).prop_map(|(f, c)| TableOp::FuncAdd(f, c)),
            Just(TableOp::Reset),
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

    /// One implementation's per-function cycles, drained and sorted.
    fn drain_funcs(t: &mut impl LineTables) -> Vec<(FuncId, Cycles)> {
        let mut v = t.take_func_cycles();
        v.sort_unstable();
        v
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Random interleavings of every op, epoch resets and mid-run
        /// growth included: the flat tables answer exactly like the
        /// address-keyed reference after every op, on every covered line.
        #[test]
        fn flat_tables_match_hash_tables_under_random_ops(
            first in 1u32..16,
            ops in proptest::collection::vec(any_table_op(), 1..300),
        ) {
            let mut lines = first;
            let mut flat = FlatTables::default();
            flat.reset(lines as usize);
            let mut hash = HashTables::default();
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
                    }
                    TableOp::DirtTake(l) => {
                        let (id, a) = at(l, lines);
                        prop_assert_eq!(flat.dirt_take(id, a), hash.dirt_take(id, a));
                    }
                    TableOp::FuncAdd(f, c) => {
                        flat.func_add(FuncId(f), c);
                        hash.func_add(FuncId(f), c);
                    }
                    TableOp::Reset => {
                        prop_assert_eq!(drain_funcs(&mut flat), drain_funcs(&mut hash));
                        flat.reset(lines as usize);
                        hash = HashTables::default();
                    }
                    TableOp::Grow(n) => {
                        lines += n;
                        flat.grow(lines as usize);
                    }
                }
                for l in 0..lines {
                    let (f, h) = (peek(&flat, l, lines), peek(&hash, l, lines));
                    prop_assert_eq!(f, h, "line {l} after {op:?}");
                }
            }
            // The tags left standing, and the attribution, agree too.
            for l in 0..lines {
                let (id, a) = at(l, lines);
                prop_assert_eq!(flat.dirt_take(id, a), hash.dirt_take(id, a), "dirt of {l}");
            }
            prop_assert_eq!(drain_funcs(&mut flat), drain_funcs(&mut hash));
        }
    }

    /// Heap bytes `flat` holds: capacity × element size, summed over
    /// every table.
    fn heap_bytes(flat: &FlatTables) -> usize {
        fn bytes<T>(v: &Vec<T>) -> usize {
            v.capacity() * std::mem::size_of::<T>()
        }
        bytes(&flat.hot)
            + bytes(&flat.life)
            + bytes(&flat.nt)
            + bytes(&flat.rel)
            + bytes(&flat.func)
            + bytes(&flat.func_touched)
    }

    /// The per-line budget: a `clean`-mode KV stream pays the hot entry
    /// and the write-lifetime row (8 + 16 B per line), a read-only one only
    /// the hot entry; growth adds at most an eighth on top.
    #[test]
    fn kv_replay_fits_the_per_line_budget() {
        use prestore::PrestoreMode;
        use workloads::kv::{serving, KvServingSource, ServingParams};
        let cfg = crate::MachineConfig::machine_a();
        for (read_fraction, budget) in [(0.9, 27), (1.0, 9)] {
            let params = ServingParams {
                read_fraction,
                ..ServingParams::new(12_500, 200_000, 2, PrestoreMode::Clean)
            };
            let mut src = KvServingSource::new(params);
            let threads = serving::materialize(&mut src, 4096);
            let lines = simcore::trace::validate_and_intern(&threads, cfg.line_size)
                .expect("the KV stream is valid")
                .interner()
                .len();
            // Small refills: the tables grow across ~25 of them per thread.
            put_scratch(EngineScratch::default());
            let opts = crate::StreamOptions { chunk_events: 4096 };
            crate::try_simulate_stream_opts(&cfg, &mut src, opts).expect("the KV stream replays");
            let flat = take_scratch().flat;
            let bytes = heap_bytes(&flat);
            assert!(
                bytes <= budget * lines,
                "read fraction {read_fraction}: {bytes} B of line state for {lines} lines"
            );
            let rare = (flat.nt.capacity(), flat.rel.capacity());
            assert_eq!(rare, (0, 0), "no NT stores or atomics, no NT or release table");
        }
    }

    #[test]
    fn growth_is_geometric_by_an_eighth() {
        let mut flat = FlatTables::default();
        flat.reset(0);
        let mut reallocs = 0;
        let mut cap = 0;
        for lines in (1..=10_000).step_by(7) {
            flat.grow(lines);
            assert!(flat.hot.len() >= lines);
            let now = flat.hot.capacity();
            assert!(now <= lines + lines / 8, "{now} entries for {lines} lines");
            reallocs += usize::from(now != cap);
            cap = now;
        }
        // 1,429 calls; exact growth would reallocate on every one.
        assert!(reallocs < 80, "{reallocs} reallocations");
    }

    #[test]
    fn flat_tables_match_hash_tables() {
        let mut interner = LineInterner::new(64);
        let lines: Vec<Addr> = (0..32).map(|i| i * 64).collect();
        for &l in &lines {
            interner.intern(l);
        }
        let mut flat = FlatTables::default();
        flat.reset(interner.len());
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
    fn flat_reset_is_an_epoch_bump() {
        let mut flat = FlatTables::default();
        flat.reset(4);
        let id = LineId(2);
        flat.owner_set(id, 0x80, 1);
        flat.release_bump(id, 0x80, 10);
        assert_eq!(flat.owner_get(id, 0x80), Some(1));
        flat.reset(4);
        assert_eq!(flat.owner_get(id, 0x80), None, "epoch bump clears owners");
        assert_eq!(flat.release_get(id, 0x80), None, "epoch bump clears releases");
        flat.release_bump(id, 0x80, 5);
        assert_eq!(flat.release_get(id, 0x80), Some((1, 5)), "count restarts at 1");
    }

    #[test]
    fn dirt_tags_match_between_flat_and_hash() {
        let mut interner = LineInterner::new(8);
        let lines: Vec<Addr> = (0..4).map(|i| i * 64).collect();
        for &l in &lines {
            interner.intern(l);
        }
        let mut flat = FlatTables::default();
        flat.reset(interner.len());
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
        // An epoch bump forgets flat tags, like a fresh HashTables.
        let id = interner.id_of(lines[0]).expect("interned above");
        flat.dirt_mark(id, lines[0], FuncId(1), 1);
        flat.reset(interner.len());
        assert_eq!(flat.dirt_take(id, lines[0]), None);
    }

    #[test]
    fn release_restore_seeds_counts_in_both_implementations() {
        let mut interner = LineInterner::new(8);
        let line = 0x140;
        interner.intern(line);
        let id = interner.id_of(line).expect("interned above");
        let mut flat = FlatTables::default();
        flat.reset(interner.len());
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
    fn epoch_live_lines_counts_only_current_epoch_state() {
        let mut flat = FlatTables::default();
        flat.reset(40);
        assert_eq!(flat.epoch_live_lines(), 0);
        for i in 0..10u32 {
            flat.owner_set(LineId(i), 0, 1);
        }
        flat.wb_set(LineId(20), 0, 5);
        assert_eq!(flat.epoch_live_lines(), 11);
        assert_eq!(LineTables::live_lines(&flat), Some(11));
        // Clearing the only concern of a line makes it dead again (the
        // entry stays current-epoch but carries no flags).
        flat.wb_clear(LineId(20), 0);
        assert_eq!(flat.epoch_live_lines(), 10);
        // An epoch bump kills everything without touching the entries.
        flat.reset(40);
        assert_eq!(flat.epoch_live_lines(), 0);
        // The hashed reference opts out.
        assert_eq!(LineTables::live_lines(&HashTables::default()), None);
    }

    #[test]
    fn func_cycles_drain_and_reset() {
        let mut flat = FlatTables::default();
        flat.reset(1);
        flat.func_add(FuncId(3), 10);
        flat.func_add(FuncId(3), 5);
        flat.func_add(FuncId(0), 2);
        flat.func_add(FuncId::UNKNOWN, 99);
        let mut got = flat.take_func_cycles();
        got.sort_unstable();
        assert_eq!(got, vec![(FuncId(0), 2), (FuncId(3), 15), (FuncId::UNKNOWN, 99)]);
        // Drained: the next run starts from zero without a reallocation.
        flat.reset(1);
        assert!(flat.take_func_cycles().is_empty());
        flat.func_add(FuncId(3), 1);
        assert_eq!(flat.take_func_cycles(), vec![(FuncId(3), 1)]);
    }

    #[test]
    fn scratch_round_trips_through_tls() {
        let mut s = take_scratch();
        s.wc_buf.reserve(123);
        let cap = s.wc_buf.capacity();
        s.flat.reset(8);
        s.flat.recycle(s.wc_buf, s.residual, s.sites);
        let s2 = take_scratch();
        assert!(s2.wc_buf.capacity() >= cap, "allocation survives the round trip");
        // Leave TLS clean for other tests on this thread.
        put_scratch(s2);
    }
}
