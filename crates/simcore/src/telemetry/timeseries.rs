//! Simulated-time delta series: a bounded ring of per-window counter
//! deltas keyed to *simulated* cycles, never wall-clock.
//!
//! End-of-run aggregates hide phase behaviour: a store-buffer stall storm
//! in the middle third of a replay averages away in `RunStats` totals.
//! This module gives the engine (and anything else with a monotone
//! simulated clock) a temporal axis: the caller picks a window width `W`
//! in cycles, the series tiles simulated time into `[k*W, (k+1)*W)`
//! windows, and every closed window holds the *delta* of each tracked
//! channel across that window.
//!
//! # Determinism
//!
//! Nothing here reads a clock, allocates after construction, or depends
//! on thread scheduling: the output is a pure function of the
//! `(cycle, totals)` observation sequence. The engine feeds observations
//! in retire order, which is itself identical across `--jobs` and
//! streaming/materialized replay — so the windows are byte-identical
//! across both axes (like [`super::SiteTable`], it feeds `RunStats`-style
//! results, not the wall-clock metrics registry).
//!
//! # Attribution convention
//!
//! Observations are cumulative totals. When an observation lands past
//! the open window's end, the accumulated delta is attributed to the
//! window that was open when accumulation began, and any fully-skipped
//! windows in between are emitted as explicit zero windows — the tiling
//! is gap-free and window starts are strictly monotone (pinned by
//! property tests). Per channel, the sum of all emitted windows plus the
//! still-open remainder equals the final totals.
//!
//! # Examples
//!
//! ```
//! use simcore::telemetry::timeseries::TimeSeries;
//!
//! let mut ts: TimeSeries<2> = TimeSeries::new(100, 16);
//! ts.observe(40, &[1, 0]);   // still inside [0, 100): nothing closes
//! ts.observe(150, &[5, 2]);  // closes [0, 100) with its deltas
//! let windows = ts.finish(150, &[6, 2]); // closes the partial [100, 200)
//! assert_eq!(windows.len(), 2);
//! assert_eq!((windows[0].start, windows[0].values), (0, [5, 2]));
//! assert_eq!((windows[1].start, windows[1].values), (100, [1, 0]));
//! ```

/// One closed window of a [`TimeSeries`]: per-channel deltas over
/// `[start, start + window_cycles)` simulated cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window<const CH: usize> {
    /// Inclusive first cycle of the window (a multiple of the series'
    /// window width).
    pub start: u64,
    /// Per-channel delta accumulated over the window. The channel schema
    /// is the caller's (the engine documents its own in
    /// `machine::stats`).
    pub values: [u64; CH],
}

/// Bounded ring of per-window counter deltas keyed to simulated cycles.
///
/// Holds at most `capacity` closed windows; older windows are evicted
/// (counted by [`TimeSeries::dropped`]) so a pathologically long run with
/// a tiny window cannot grow memory. All storage is allocated up front:
/// [`TimeSeries::observe`] never allocates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimeSeries<const CH: usize> {
    window: u64,
    /// Ring storage: logically `buf[head..] ++ buf[..head]` once full.
    buf: Vec<Window<CH>>,
    head: usize,
    /// Windows evicted from the ring (or skipped because they could only
    /// have been evicted immediately).
    dropped: u64,
    /// Index of the currently open window.
    cur: u64,
    /// Channel totals at the last window close.
    last: [u64; CH],
}

impl<const CH: usize> TimeSeries<CH> {
    /// A series tiling simulated time into `window_cycles`-wide windows,
    /// retaining at most `capacity` closed windows.
    ///
    /// # Panics
    ///
    /// Panics if `window_cycles` or `capacity` is zero.
    pub fn new(window_cycles: u64, capacity: usize) -> Self {
        assert!(window_cycles > 0, "window width must be positive");
        assert!(capacity > 0, "ring capacity must be positive");
        Self {
            window: window_cycles,
            buf: Vec::with_capacity(capacity),
            head: 0,
            dropped: 0,
            cur: 0,
            last: [0; CH],
        }
    }

    /// The window width in simulated cycles.
    pub fn window_cycles(&self) -> u64 {
        self.window
    }

    /// First cycle at or past which the next [`TimeSeries::observe`]
    /// closes a window. Callers on a hot path cache this and compare
    /// before calling in.
    pub fn next_boundary(&self) -> u64 {
        (self.cur + 1).saturating_mul(self.window)
    }

    /// Windows evicted from the bounded ring so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Number of closed windows currently retained.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether no window has been closed (or all were evicted).
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    #[inline]
    fn push(&mut self, w: Window<CH>) {
        if self.buf.len() < self.buf.capacity() {
            self.buf.push(w);
        } else {
            self.buf[self.head] = w;
            self.head = (self.head + 1) % self.buf.len();
            self.dropped += 1;
        }
    }

    #[inline]
    fn delta(&self, totals: &[u64; CH]) -> [u64; CH] {
        let mut d = [0u64; CH];
        for (i, v) in d.iter_mut().enumerate() {
            // Totals are monotone for counters; saturate rather than
            // panic if a caller hands a non-monotone gauge.
            *v = totals[i].saturating_sub(self.last[i]);
        }
        d
    }

    /// Close every window that fully precedes the window containing
    /// `cycle`, attributing the accumulated delta to the window that was
    /// open when accumulation began and emitting explicit zero windows
    /// for fully-skipped spans. A `cycle` inside the open window is a
    /// no-op.
    pub fn observe(&mut self, cycle: u64, totals: &[u64; CH]) {
        let k = cycle / self.window;
        if k <= self.cur {
            return;
        }
        let values = self.delta(totals);
        self.push(Window { start: self.cur * self.window, values });
        self.fill_zeros(self.cur + 1, k);
        self.cur = k;
        self.last = *totals;
    }

    /// Emit zero windows for `[from, to)`, skipping (and counting as
    /// dropped) any that later pushes would immediately evict — the loop
    /// is bounded by the ring capacity, not by the simulated-time jump.
    fn fill_zeros(&mut self, from: u64, to: u64) {
        if to <= from {
            return;
        }
        let zeros = to - from;
        let skipped = zeros.saturating_sub(self.buf.capacity() as u64);
        self.dropped += skipped;
        for j in (from + skipped)..to {
            self.push(Window { start: j * self.window, values: [0; CH] });
        }
    }

    /// Close everything through the (possibly partial) window containing
    /// `cycle` and return all retained windows oldest-first. Terminal:
    /// call once, at end of run.
    pub fn finish(mut self, cycle: u64, totals: &[u64; CH]) -> Vec<Window<CH>> {
        let k = cycle / self.window;
        let values = self.delta(totals);
        self.push(Window { start: self.cur * self.window, values });
        self.fill_zeros(self.cur + 1, k + 1);
        let mut out = self.buf.split_off(self.head);
        out.append(&mut self.buf);
        out
    }
}

/// Group `windows` into runs of `k` consecutive windows and sum them
/// per channel; each group keeps its first window's start, and a final
/// partial group is kept. `downsample(w, 1)` is the identity, and the
/// per-channel totals are preserved (pinned by property tests).
///
/// # Panics
///
/// Panics if `k` is zero.
pub fn downsample<const CH: usize>(windows: &[Window<CH>], k: usize) -> Vec<Window<CH>> {
    assert!(k > 0, "downsample factor must be positive");
    windows
        .chunks(k)
        .map(|group| {
            let mut values = [0u64; CH];
            for w in group {
                for (acc, v) in values.iter_mut().zip(w.values.iter()) {
                    *acc += v;
                }
            }
            Window { start: group[0].start, values }
        })
        .collect()
}

/// Per-channel sums over `windows` — the series' contribution to
/// end-of-run totals.
pub fn totals<const CH: usize>(windows: &[Window<CH>]) -> [u64; CH] {
    let mut out = [0u64; CH];
    for w in windows {
        for (acc, v) in out.iter_mut().zip(w.values.iter()) {
            *acc += v;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_tile_gap_free() {
        let mut ts: TimeSeries<1> = TimeSeries::new(10, 64);
        ts.observe(5, &[1]);
        ts.observe(25, &[4]);
        ts.observe(71, &[9]);
        let ws = ts.finish(83, &[11]);
        let starts: Vec<u64> = ws.iter().map(|w| w.start).collect();
        assert_eq!(starts, (0..9).map(|k| k * 10).collect::<Vec<_>>());
        assert_eq!(totals(&ws), [11]);
    }

    #[test]
    fn delta_lands_in_the_window_open_when_it_began() {
        let mut ts: TimeSeries<1> = TimeSeries::new(100, 8);
        ts.observe(450, &[7]); // all 7 attributed to window 0
        let ws = ts.finish(450, &[7]);
        assert_eq!(ws[0], Window { start: 0, values: [7] });
        assert!(ws[1..].iter().all(|w| w.values == [0]));
        assert_eq!(ws.len(), 5);
    }

    #[test]
    fn ring_bounds_memory_and_counts_drops() {
        let mut ts: TimeSeries<1> = TimeSeries::new(1, 4);
        for c in 1..=10u64 {
            ts.observe(c, &[c]);
        }
        assert_eq!(ts.len(), 4);
        assert_eq!(ts.dropped(), 6);
        let ws = ts.finish(10, &[10]);
        assert_eq!(ws.len(), 4);
        let starts: Vec<u64> = ws.iter().map(|w| w.start).collect();
        assert_eq!(starts, vec![7, 8, 9, 10]);
    }

    #[test]
    fn huge_idle_jump_is_bounded_by_capacity() {
        let mut ts: TimeSeries<1> = TimeSeries::new(1, 8);
        ts.observe(1_000_000_000, &[3]);
        assert_eq!(ts.len(), 8);
        assert!(ts.dropped() >= 1_000_000_000 - 8);
        let ws = ts.finish(1_000_000_000, &[3]);
        // Retained windows are the most recent ones; starts stay monotone.
        for pair in ws.windows(2) {
            assert_eq!(pair[1].start, pair[0].start + 1);
        }
    }

    #[test]
    fn extra_observations_never_change_group_totals() {
        let feed = [(3u64, 1u64), (17, 4), (23, 9), (57, 12), (90, 40)];
        let mut sparse: TimeSeries<1> = TimeSeries::new(10, 64);
        let mut dense: TimeSeries<1> = TimeSeries::new(10, 64);
        for (c, v) in feed {
            sparse.observe(c, &[v]);
            dense.observe(c, &[v]);
        }
        // The dense series also sees a redundant same-window observation,
        // which must be a no-op for totals.
        dense.observe(91, &[40]);
        let a = sparse.finish(95, &[41]);
        let b = dense.finish(95, &[41]);
        assert_eq!(totals(&a), totals(&b));
        assert_eq!(totals(&a), [41]);
    }

    #[test]
    fn downsample_preserves_totals_and_identity() {
        let mut ts: TimeSeries<2> = TimeSeries::new(10, 64);
        for c in 1..=9u64 {
            ts.observe(c * 10, &[c * 2, c]);
        }
        let ws = ts.finish(95, &[20, 10]);
        assert_eq!(downsample(&ws, 1), ws);
        for k in [2usize, 3, 4, 100] {
            let d = downsample(&ws, k);
            assert_eq!(totals(&d), totals(&ws), "k={k}");
            assert_eq!(d.len(), ws.len().div_ceil(k), "k={k}");
            assert_eq!(d[0].start, ws[0].start);
        }
    }

    #[test]
    fn empty_run_yields_one_zero_window() {
        let ts: TimeSeries<3> = TimeSeries::new(1000, 4);
        let ws = ts.finish(0, &[0; 3]);
        assert_eq!(ws, vec![Window { start: 0, values: [0; 3] }]);
    }
}
