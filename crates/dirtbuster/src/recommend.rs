//! Step 3: choosing the right pre-store (§6.2.3, "Guiding developers").
//!
//! The paper's decision procedure:
//!
//! * A function qualifies only if it writes sequentially or writes before
//!   fences.
//! * If the data is **re-written**, suggest `demote` when the writes are
//!   fence-bound (visibility matters but the data must stay cached for the
//!   re-write); suggest nothing otherwise — cleaning frequently rewritten
//!   data causes redundant memory writes (the Listing-3 / `fftz2` pitfall).
//! * If the data is only **re-read**, suggest `clean`: the writeback starts
//!   early but the cached copy keeps serving the reads.
//! * If the data is neither re-read nor re-written, suggest **skipping**
//!   the cache with non-temporal stores (falling back to `clean` when NT
//!   stores are impractical, as in the paper's Fortran kernels).

use crate::patterns::{BucketStat, FuncPatterns};
use simcore::stats::{fmt_bytes, fmt_distance};
use simcore::{FuncId, FuncRegistry};

/// Minimum fraction of a function's writes that must fall in
/// sequentiality contexts for the function to count as a sequential
/// writer.
pub const SEQ_THRESHOLD: f64 = 0.3;

/// Fraction of writes that must be fence-covered for the
/// writes-before-fence pattern to hold.
pub const FENCE_FRACTION_THRESHOLD: f64 = 0.3;

/// A mean re-write distance below this means the data is re-written
/// (cleaning it would cause redundant memory writes).
pub const REWRITE_SHORT: f64 = 50_000.0;

/// A mean re-read distance below this means the data is re-read
/// (skipping the cache would force reads from memory).
pub const REREAD_SHORT: f64 = 1_000_000.0;

/// DirtBuster's verdict for one write site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Recommendation {
    /// Insert a `demote` pre-store after the writes.
    Demote,
    /// Insert a `clean` pre-store after the writes.
    Clean,
    /// Rewrite the store sequence with non-temporal stores.
    Skip,
    /// Leave the code alone; a pre-store would not help (or would hurt).
    NoPrestore,
}

impl Recommendation {
    /// Lowercase name used in the rendered reports.
    pub fn name(self) -> &'static str {
        match self {
            Self::Demote => "demote",
            Self::Clean => "clean",
            Self::Skip => "skip",
            Self::NoPrestore => "none",
        }
    }
}

/// The per-function report, in the structure of the paper's tool output.
#[derive(Debug, Clone)]
pub struct Report {
    /// The analysed function.
    pub func: FuncId,
    /// Whether the function writes sequentially.
    pub sequential: bool,
    /// Whether its writes are followed closely by fences.
    pub before_fence: bool,
    /// Percentage of writes in sequential contexts.
    pub seq_pct: f64,
    /// Context-size buckets (share, re-read, re-write).
    pub buckets: Vec<BucketStat>,
    /// The verdict.
    pub choice: Recommendation,
}

impl Report {
    /// Render in the paper's report format (§6.2, §7.2).
    pub fn render(&self, reg: &FuncRegistry) -> String {
        let mut out = String::new();
        out.push_str(&format!("{}\n", reg.name(self.func)));
        out.push_str(&format!("Location: {}\n", reg.location(self.func)));
        out.push_str(&format!("Perc. Seq. Writes: {:.0}%\n", self.seq_pct * 100.0));
        for b in &self.buckets {
            out.push_str(&format!(
                " Size: {} - {:.0}% - re-read {} - re-write {}\n",
                fmt_bytes(b.size_bytes),
                b.write_share * 100.0,
                fmt_distance(b.reread),
                fmt_distance(b.rewrite),
            ));
        }
        if self.before_fence {
            out.push_str(" Writes before fence: yes\n");
        }
        out.push_str(&format!("Pre-store choice: {}\n", self.choice.name()));
        out
    }
}

/// Decide the recommendation for one analysed function.
pub fn decide(fp: &FuncPatterns) -> Report {
    let sequential = fp.seq_pct >= SEQ_THRESHOLD;
    let before_fence = fp.fence_frac >= FENCE_FRACTION_THRESHOLD;

    let choice = if !sequential && !before_fence {
        Recommendation::NoPrestore
    } else {
        // Judge re-use on the dominant size bucket, like the paper does for
        // the TensorFlow evaluator (the 60% bucket with re-read distance 2
        // drives the `clean` choice).
        let primary = fp.buckets.first();
        let rewritten = primary.and_then(|b| b.rewrite).is_some_and(|d| d < REWRITE_SHORT);
        let reread = primary.and_then(|b| b.reread).is_some_and(|d| d < REREAD_SHORT);
        if rewritten {
            if before_fence {
                Recommendation::Demote
            } else {
                Recommendation::NoPrestore
            }
        } else if reread {
            Recommendation::Clean
        } else {
            Recommendation::Skip
        }
    };

    Report {
        func: fp.func,
        sequential,
        before_fence,
        seq_pct: fp.seq_pct,
        buckets: fp.buckets.clone(),
        choice,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(seq_pct: f64, fence_frac: f64, reread: Option<f64>, rewrite: Option<f64>) -> FuncPatterns {
        FuncPatterns {
            func: FuncId(0),
            writes: 1000,
            seq_writes: (seq_pct * 1000.0) as u64,
            seq_pct,
            buckets: vec![BucketStat { size_bytes: 2048, write_share: 1.0, reread, rewrite }],
            fence_covered: (fence_frac * 1000.0) as u64,
            fence_frac,
            min_fence_dist: (fence_frac > 0.0).then_some(5),
            mean_fence_dist: (fence_frac > 0.0).then_some(10.0),
        }
    }

    fn choice_of(p: &FuncPatterns) -> Recommendation {
        decide(p).choice
    }

    #[test]
    fn paper_decision_table() {
        // Sequential, never reused -> skip (MG psinv).
        assert_eq!(choice_of(&fp(1.0, 0.0, None, None)), Recommendation::Skip);
        // Sequential, re-read -> clean (MG resid, TensorFlow).
        assert_eq!(choice_of(&fp(1.0, 0.0, Some(23_800.0), None)), Recommendation::Clean);
        // Fence-bound and rewritten -> demote (X9 messages).
        assert_eq!(choice_of(&fp(1.0, 0.9, Some(100.0), Some(100.0))), Recommendation::Demote);
        // Rewritten without fences -> nothing (Listing 3 / fftz2).
        assert_eq!(choice_of(&fp(1.0, 0.0, Some(10.0), Some(10.0))), Recommendation::NoPrestore);
        // Neither sequential nor fence-bound -> nothing (IS rank).
        assert_eq!(choice_of(&fp(0.0, 0.0, None, None)), Recommendation::NoPrestore);
        // Fence-bound, not re-used -> skip (KV stores; clean as fallback).
        assert_eq!(choice_of(&fp(1.0, 0.9, None, None)), Recommendation::Skip);
    }

    #[test]
    fn long_distances_treated_as_infinite() {
        // A re-read far beyond the threshold behaves like "never re-read".
        let p = fp(1.0, 0.0, Some(REREAD_SHORT * 10.0), None);
        assert_eq!(choice_of(&p), Recommendation::Skip);
        // A re-write far beyond the threshold does not block cleaning.
        let p = fp(1.0, 0.0, Some(100.0), Some(REWRITE_SHORT * 10.0));
        assert_eq!(choice_of(&p), Recommendation::Clean);
    }

    #[test]
    fn report_renders_every_field() {
        let mut reg = FuncRegistry::new();
        let f = reg.register("resid", "mg.f90", 544);
        let mut p = fp(1.0, 0.0, Some(23_800.0), None);
        p.func = f;
        let r = decide(&p);
        let text = r.render(&reg);
        assert!(text.contains("Location: mg.f90 line 544"));
        assert!(text.contains("Perc. Seq. Writes: 100%"));
        assert!(text.contains("re-read 23.8K"));
        assert!(text.contains("re-write inf"));
        assert!(text.contains("Pre-store choice: clean"));
    }

    #[test]
    fn recommendation_names() {
        assert_eq!(Recommendation::Demote.name(), "demote");
        assert_eq!(Recommendation::Clean.name(), "clean");
        assert_eq!(Recommendation::Skip.name(), "skip");
        assert_eq!(Recommendation::NoPrestore.name(), "none");
    }
}
