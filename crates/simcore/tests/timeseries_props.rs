//! Property tests for the delta-window time-series sampler
//! ([`simcore::telemetry::timeseries`]): for any monotone stream of
//! observation points the emitted windows tile the simulated-time axis
//! gap-free and monotone, the per-window deltas sum back to the final
//! totals (minus whatever the bounded ring provably dropped), and
//! downsampling preserves totals.

use proptest::prelude::*;
use simcore::telemetry::timeseries::{downsample, totals, TimeSeries};

/// Build cumulative totals from per-step increments: the sampler observes
/// monotone counter snapshots, never deltas.
fn cumulative(increments: &[(u64, u64, u64, u64)]) -> Vec<(u64, [u64; 3])> {
    let mut acc = [0u64; 3];
    let mut cycle = 0u64;
    increments
        .iter()
        .map(|&(dc, d0, d1, d2)| {
            cycle += dc;
            for (a, d) in acc.iter_mut().zip([d0, d1, d2]) {
                *a += d;
            }
            (cycle, acc)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Windows tile the axis: starts are strictly increasing multiples of
    /// the window size with no gaps, and no window starts after the final
    /// observed cycle.
    #[test]
    fn windows_tile_gap_free_and_monotone(
        window in 1u64..1000,
        steps in proptest::collection::vec((0u64..500, 0u64..100, 0u64..100, 0u64..100), 1..200),
    ) {
        let mut ts = TimeSeries::<3>::new(window, 64);
        let points = cumulative(&steps);
        for &(cycle, v) in &points {
            ts.observe(cycle, &v);
        }
        let (last_cycle, last_totals) = *points.last().unwrap();
        let dropped = ts.dropped();
        let windows = ts.finish(last_cycle, &last_totals);
        prop_assert!(!windows.is_empty(), "finish always closes the open window");
        for w in &windows {
            prop_assert_eq!(w.start % window, 0, "starts are window-aligned");
            prop_assert!(w.start <= last_cycle);
        }
        for pair in windows.windows(2) {
            prop_assert_eq!(
                pair[1].start, pair[0].start + window,
                "consecutive windows abut: no gap, no overlap"
            );
        }
        // `finish` itself may evict from a full ring, so `dropped` (read
        // before the consuming `finish`) is only authoritative when the
        // ring never filled: then nothing was ever evicted and coverage
        // starts at cycle 0.
        if dropped == 0 && windows.len() < 64 {
            prop_assert_eq!(windows[0].start, 0);
        }
    }

    /// The per-window deltas sum to the final totals exactly (nothing
    /// dropped: capacity covers the whole run).
    #[test]
    fn window_deltas_sum_to_final_totals(
        window in 1u64..300,
        steps in proptest::collection::vec((0u64..50, 0u64..100, 0u64..100, 0u64..100), 1..150),
    ) {
        let mut ts = TimeSeries::<3>::new(window, 8192);
        let points = cumulative(&steps);
        for &(cycle, v) in &points {
            ts.observe(cycle, &v);
        }
        let (last_cycle, last_totals) = *points.last().unwrap();
        let windows = ts.finish(last_cycle, &last_totals);
        prop_assert_eq!(totals(&windows), last_totals);
    }

    /// Downsampling by any factor preserves totals and tiles at the
    /// coarser granularity — merging windows is concatenation of deltas.
    #[test]
    fn downsample_preserves_totals_and_tiling(
        window in 1u64..100,
        k in 1usize..10,
        steps in proptest::collection::vec((0u64..30, 0u64..50, 0u64..50, 0u64..50), 1..100),
    ) {
        let mut ts = TimeSeries::<3>::new(window, 8192);
        let points = cumulative(&steps);
        for &(cycle, v) in &points {
            ts.observe(cycle, &v);
        }
        let (last_cycle, last_totals) = *points.last().unwrap();
        let fine = ts.finish(last_cycle, &last_totals);
        let coarse = downsample(&fine, k);
        prop_assert_eq!(totals(&coarse), totals(&fine), "downsample conserves mass");
        prop_assert_eq!(coarse.len(), fine.len().div_ceil(k));
        for pair in coarse.windows(2) {
            prop_assert_eq!(pair[1].start, pair[0].start + window * k as u64);
        }
    }

    /// Observations that do not cross a window boundary are no-ops:
    /// feeding every point equals feeding only the first point of each
    /// newly-entered window (exactly the points at which the engine's
    /// cached `ts_next_boundary` compare fires).
    #[test]
    fn non_crossing_observations_are_no_ops(
        window in 2u64..50,
        steps in proptest::collection::vec((1u64..10, 0u64..20, 0u64..20, 0u64..20), 1..80),
    ) {
        let points = cumulative(&steps);
        let (last_cycle, last_totals) = *points.last().unwrap();
        let mut every = TimeSeries::<3>::new(window, 8192);
        for &(cycle, v) in &points {
            every.observe(cycle, &v);
        }
        // Sparse: only the boundary-crossing observations.
        let mut sparse = TimeSeries::<3>::new(window, 8192);
        let mut max_k = 0u64;
        for &(cycle, v) in &points {
            if cycle / window > max_k {
                max_k = cycle / window;
                sparse.observe(cycle, &v);
            }
        }
        prop_assert_eq!(
            every.finish(last_cycle, &last_totals),
            sparse.finish(last_cycle, &last_totals)
        );
    }
}
