//! Property tests for the log-linear histogram bucket math
//! ([`simcore::telemetry`]): the bucket index is monotone in the value,
//! the reported percentiles bracket the true quantile within one bucket,
//! and merging two histograms equals recording the concatenated value
//! stream.

use proptest::prelude::*;
use simcore::telemetry::{
    bucket_index, bucket_lower_bound, bucket_upper_bound, Histogram, HIST_BUCKETS,
};

/// The exact `q`-th percentile of `values` under the rank definition the
/// histogram uses: the `ceil(q/100 · n)`-th smallest value (1-based).
fn exact_quantile(values: &[u64], q: f64) -> u64 {
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let rank = ((q / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank - 1]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `bucket_index` is monotone: a larger value never lands in a
    /// smaller bucket, and every value lies within its bucket's bounds.
    #[test]
    fn bucket_index_is_monotone_and_bounds_bracket(a in any::<u64>(), b in any::<u64>()) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(bucket_index(lo) <= bucket_index(hi));
        for v in [lo, hi] {
            let i = bucket_index(v);
            prop_assert!(i < HIST_BUCKETS);
            prop_assert!(bucket_lower_bound(i) <= v);
            prop_assert!(v <= bucket_upper_bound(i));
        }
    }

    /// The bucket layout tiles `u64` exactly: each bucket starts one past
    /// the previous bucket's end.
    #[test]
    fn buckets_tile_without_gaps(i in 1usize..HIST_BUCKETS) {
        prop_assert_eq!(bucket_lower_bound(i), bucket_upper_bound(i - 1) + 1);
    }

    /// The reported percentile brackets the true quantile within one
    /// bucket: it is an upper bound, and the true quantile is at least
    /// the reporting bucket's lower bound.
    #[test]
    fn percentile_brackets_true_quantile(
        values in proptest::collection::vec(0u64..1 << 48, 1..64),
        q_pct in 1u64..100,
    ) {
        let q = q_pct as f64;
        let mut h = Histogram::new("t");
        for &v in &values {
            h.record(v);
        }
        let reported = h.percentile(q);
        let truth = exact_quantile(&values, q);
        prop_assert!(reported >= truth, "reported {} < true quantile {}", reported, truth);
        // The result is the reporting bucket's upper bound clamped to the
        // recorded max, so the true quantile shares that bucket (or the
        // clamp hit and the report is exactly the max).
        prop_assert!(
            bucket_lower_bound(bucket_index(reported)) <= truth || reported == h.max,
            "true quantile {} below reporting bucket of {}", truth, reported
        );
        prop_assert!(reported <= h.max);
    }

    /// `merge(a, b)` is indistinguishable from recording both value
    /// streams into one histogram — count, sum, max, every bucket, and
    /// therefore every percentile.
    #[test]
    fn merge_equals_recording_concatenation(
        xs in proptest::collection::vec(any::<u32>(), 0..48),
        ys in proptest::collection::vec(any::<u32>(), 0..48),
    ) {
        let mut a = Histogram::new("t");
        let mut b = Histogram::new("t");
        let mut both = Histogram::new("t");
        for &v in &xs {
            a.record(v as u64);
            both.record(v as u64);
        }
        for &v in &ys {
            b.record(v as u64);
            both.record(v as u64);
        }
        a.merge(&b);
        prop_assert_eq!(&a, &both);
        for q in [1.0, 50.0, 90.0, 99.0, 100.0] {
            prop_assert_eq!(a.percentile(q), both.percentile(q));
        }
    }
}
