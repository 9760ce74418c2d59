//! Per-line engine state: flat id-indexed tables vs. the hashed reference.
//!
//! The replay engine keeps five pieces of per-line bookkeeping (dirty-line
//! ownership, in-flight writebacks, in-flight non-temporal stores,
//! release sequencing, and per-function cycle attribution). Historically
//! each was an `FxHashMap` consulted on every replayed event — the hot
//! loop re-hashed the same line addresses millions of times.
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
//! The engine is generic over `T: LineTables` and compiles to two
//! monomorphised replay loops; `T::USE_IDS` selects at compile time
//! whether ids are resolved at all.

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
    /// Whether ids are meaningful: the engine reads real [`LineId`]s from
    /// the trace's pre-resolved id streams only when this is true.
    const USE_IDS: bool;

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

/// The always-touched half of a line's state: an epoch stamp plus a packed
/// flags-and-owner word. 8 bytes per line, so eight lines of state share
/// one hardware cache line — this is the table every per-line lookup hits,
/// and on footprint-sized traces its density is what decides whether the
/// flat path beats hashing.
///
/// A stale `epoch` means the whole entry (hot and cold) is logically
/// absent. Within the current epoch, bits [`OWNER`] | [`WB`] | [`NT`] |
/// [`REL`] of `flags` say which concerns are present; the owning core is
/// packed into `flags >> OWNER_SHIFT`.
/// `repr(C)` so the epoch-validity sweep ([`FlatTables::live_lines`]) can
/// view the hot table as `[epoch, flags]` pairs for the vectorized scan.
#[derive(Debug, Clone, Copy, Default)]
#[repr(C)]
struct HotEntry {
    epoch: u32,
    flags: u32,
}

/// The rarely-present half of a line's state: in-flight writeback and
/// NT-store completion times and the release count/time. Only read when
/// the matching [`HotEntry`] flag bit is set, and always fully written on
/// set, so it needs no epoch of its own — replay paths that never clean,
/// NT-store or release (the common case) never touch this table at all.
#[derive(Debug, Clone, Copy, Default)]
struct ColdEntry {
    wb_done: Cycles,
    nt_done: Cycles,
    rel_when: Cycles,
    rel_count: u32,
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
/// The owning core lives in `flags >> OWNER_SHIFT` (24 bits of core id).
const OWNER_SHIFT: u32 = 8;

/// First-dirty attribution tag: which trace site dirtied the line and at
/// which replay step. Lives in its own lazily-sized table (like the cold
/// timestamps) gated by the [`DIRT`] flag, and is always fully written
/// before the flag is set, so it needs no epoch of its own.
#[derive(Debug, Clone, Copy)]
struct DirtEntry {
    site: FuncId,
    step: u64,
}

impl Default for DirtEntry {
    fn default() -> Self {
        Self { site: FuncId::UNKNOWN, step: 0 }
    }
}

/// Dense, epoch-stamped per-line state tables (the production path).
#[derive(Debug, Default)]
pub struct FlatTables {
    epoch: u32,
    /// Per line id: presence flags + owner (hot: touched by every lookup).
    hot: Vec<HotEntry>,
    /// Per line id: timestamps gated by `hot` flags (cold: rare concerns).
    cold: Vec<ColdEntry>,
    /// Per line id: first-dirty site tags gated by the [`DIRT`] flag
    /// (lazily sized like `cold`).
    dirt: Vec<DirtEntry>,
    /// Per function index: cycles attributed this run.
    func: Vec<Cycles>,
    /// Functions with a non-zero entry in `func` (for O(touched) drain).
    func_touched: Vec<FuncId>,
    /// Cycles attributed to [`FuncId::UNKNOWN`] (kept out of `func` so the
    /// sentinel id does not force a 64 Ki-entry table).
    unknown: Cycles,
}

impl FlatTables {
    /// Prepare the tables for a run over `lines` interned lines. All
    /// per-line entries become logically absent in O(1) via an epoch bump;
    /// the per-function table is drained by
    /// [`LineTables::take_func_cycles`] at the end of each run.
    pub(crate) fn reset(&mut self, lines: usize) {
        crate::probes::TABLE_EPOCHS.inc();
        if self.hot.len() < lines {
            self.hot.resize(lines, HotEntry::default());
            // `cold` is sized lazily by the first wb/nt/release setter:
            // replays that never clean, NT-store or release (most figure
            // workloads) skip faulting in the whole cold table.
        }
        self.epoch = match self.epoch.checked_add(1) {
            Some(e) => e,
            None => {
                // Epoch wrap: pay one O(lines) re-zero and restart. A
                // stale stamp could otherwise collide with the new epoch.
                // (The cold table is flag-gated, so it needs no re-zero.)
                crate::probes::TABLE_EPOCH_WRAPS.inc();
                self.hot.iter_mut().for_each(|e| *e = HotEntry::default());
                1
            }
        };
        debug_assert!(self.func_touched.is_empty() && self.unknown == 0, "undrained run");
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

    /// The cold entry for `id`, growing the table on first use. Cold state
    /// is always fully written before its flag bit is set, so the getters
    /// (which are flag-gated) can index unconditionally.
    #[inline]
    fn cold_mut(&mut self, id: LineId) -> &mut ColdEntry {
        let idx = id.index();
        if idx >= self.cold.len() {
            self.cold.resize(self.hot.len().max(idx + 1), ColdEntry::default());
        }
        &mut self.cold[idx]
    }

    /// The dirt entry for `id`, growing the table on first use (same
    /// full-write-before-flag discipline as [`FlatTables::cold_mut`]).
    #[inline]
    fn dirt_mut(&mut self, id: LineId) -> &mut DirtEntry {
        let idx = id.index();
        if idx >= self.dirt.len() {
            self.dirt.resize(self.hot.len().max(idx + 1), DirtEntry::default());
        }
        &mut self.dirt[idx]
    }
}

impl LineTables for FlatTables {
    const USE_IDS: bool = true;

    #[inline]
    fn owner_get(&self, id: LineId, _line: Addr) -> Option<CoreId> {
        let f = self.flags(id);
        (f & OWNER != 0).then_some((f >> OWNER_SHIFT) as CoreId)
    }

    #[inline]
    fn owner_set(&mut self, id: LineId, _line: Addr, cid: CoreId) {
        debug_assert!(cid < (1 << (32 - OWNER_SHIFT)), "core id overflows packed owner");
        let f = self.flags_mut(id);
        // Replace the packed owner, keep the other presence bits.
        *f = (*f & ((1 << OWNER_SHIFT) - 1)) | OWNER | ((cid as u32) << OWNER_SHIFT);
    }

    #[inline]
    fn owner_clear(&mut self, id: LineId, _line: Addr) {
        // Via the branchless re-stamp: clearing a bit of a stale entry
        // leaves it at 0 flags, exactly like the historical no-op.
        *self.flags_mut(id) &= !OWNER;
    }

    #[inline]
    fn wb_get(&self, id: LineId, _line: Addr) -> Option<Cycles> {
        // `then` (not `then_some`): the cold table is only touched when the
        // flag says the state exists.
        (self.flags(id) & WB != 0).then(|| self.cold[id.index()].wb_done)
    }

    #[inline]
    fn wb_set(&mut self, id: LineId, _line: Addr, done: Cycles) {
        *self.flags_mut(id) |= WB;
        self.cold_mut(id).wb_done = done;
    }

    #[inline]
    fn wb_clear(&mut self, id: LineId, _line: Addr) {
        *self.flags_mut(id) &= !WB;
    }

    #[inline]
    fn nt_get(&self, id: LineId, _line: Addr) -> Option<Cycles> {
        (self.flags(id) & NT != 0).then(|| self.cold[id.index()].nt_done)
    }

    #[inline]
    fn nt_set(&mut self, id: LineId, _line: Addr, done: Cycles) {
        *self.flags_mut(id) |= NT;
        self.cold_mut(id).nt_done = done;
    }

    #[inline]
    fn nt_clear(&mut self, id: LineId, _line: Addr) {
        *self.flags_mut(id) &= !NT;
    }

    #[inline]
    fn release_get(&self, id: LineId, _line: Addr) -> Option<(u32, Cycles)> {
        (self.flags(id) & REL != 0).then(|| {
            let c = &self.cold[id.index()];
            (c.rel_count, c.rel_when)
        })
    }

    #[inline]
    fn release_bump(&mut self, id: LineId, _line: Addr, now: Cycles) {
        let f = self.flags_mut(id);
        let first = *f & REL == 0;
        *f |= REL;
        let c = self.cold_mut(id);
        c.rel_count = if first { 1 } else { c.rel_count + 1 };
        c.rel_when = now;
    }

    #[inline]
    fn release_restore(&mut self, id: LineId, _line: Addr, count: u32) {
        *self.flags_mut(id) |= REL;
        let c = self.cold_mut(id);
        c.rel_count = count;
        c.rel_when = 0;
    }

    #[inline]
    fn dirt_mark(&mut self, id: LineId, _line: Addr, site: FuncId, step: u64) {
        let f = self.flags_mut(id);
        if *f & DIRT != 0 {
            return; // first-dirty wins
        }
        *f |= DIRT;
        *self.dirt_mut(id) = DirtEntry { site, step };
    }

    #[inline]
    fn dirt_take(&mut self, id: LineId, _line: Addr) -> Option<(FuncId, u64)> {
        // The branchless re-stamp folds the epoch check into a mask, so
        // the only remaining branch is on the DIRT bit itself (which gates
        // the lazily-sized dirt table, so it cannot be removed).
        let f = self.flags_mut(id);
        if *f & DIRT != 0 {
            *f &= !DIRT;
            let d = self.dirt[id.index()];
            Some((d.site, d.step))
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
        // epoch bump, existing entries keep their state. `cold` and `dirt`
        // stay lazily sized by their accessors.
        if self.hot.len() < lines {
            self.hot.resize(lines, HotEntry::default());
        }
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
    const USE_IDS: bool = false;

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
    use simcore::LineInterner;

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
