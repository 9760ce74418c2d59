//! Property-based tests of DirtBuster: the classification must be stable
//! under sampling-interval changes (§6.1 uses sampling only for *ranking*)
//! and robust to arbitrary trace contents.

use dirtbuster::{analyze, DirtBusterConfig, Recommendation};
use proptest::prelude::*;
use simcore::{FuncRegistry, PrestoreOp, TraceSet, Tracer};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The write-intensive verdict and the recommendation for a clearly
    /// sequential writer do not depend on the sampling interval.
    #[test]
    fn classification_is_sampling_invariant(interval in 1usize..400) {
        let mut reg = FuncRegistry::new();
        let f = reg.register("writer", "a.rs", 1);
        let mut t = Tracer::new();
        {
            let mut g = t.enter(f);
            for i in 0..40_000u64 {
                g.write(i * 64, 64);
            }
        }
        let traces = TraceSet::new(vec![t.finish()]);
        let cfg = DirtBusterConfig { sample_interval: interval };
        let a = analyze(&traces, &reg, &cfg);
        prop_assert!(a.write_intensive(), "interval {interval}");
        prop_assert_eq!(
            a.report_for(f).map(|r| r.choice),
            Some(Recommendation::Skip),
            "interval {}", interval
        );
    }

    /// Analysis never panics on arbitrary traces, and report percentages
    /// stay in range.
    #[test]
    fn analysis_is_total(
        ops in proptest::collection::vec((0u64..1 << 18, 0u8..6), 1..1500),
    ) {
        let mut reg = FuncRegistry::new();
        let funcs = [
            reg.register("f0", "p.rs", 1),
            reg.register("f1", "p.rs", 2),
            reg.register("f2", "p.rs", 3),
        ];
        let mut t = Tracer::new();
        for (i, &(addr, kind)) in ops.iter().enumerate() {
            let mut g = t.enter(funcs[i % funcs.len()]);
            match kind {
                0 => g.read(addr, 8),
                1 => g.write(addr, 8),
                2 => g.write(addr, 512),
                3 => g.fence(),
                4 => g.atomic(addr, 8),
                _ => g.prestore(addr, 64, PrestoreOp::Clean),
            }
        }
        let traces = TraceSet::new(vec![t.finish()]);
        let a = analyze(&traces, &reg, &DirtBusterConfig::default());
        for r in &a.reports {
            prop_assert!((0.0..=1.0).contains(&r.seq_pct), "seq_pct {}", r.seq_pct);
            for b in &r.buckets {
                prop_assert!((0.0..=1.0 + 1e-9).contains(&b.write_share));
                if let Some(d) = b.reread {
                    prop_assert!(d >= 0.0);
                }
            }
            // Rendering must never panic either.
            let _ = r.render(&reg);
        }
    }

    /// A function that only reads is never reported.
    #[test]
    fn pure_readers_are_never_reported(n in 100u64..5_000) {
        let mut reg = FuncRegistry::new();
        let reader = reg.register("reader", "p.rs", 1);
        let writer = reg.register("writer", "p.rs", 2);
        let mut t = Tracer::new();
        for i in 0..n {
            {
                let mut g = t.enter(reader);
                g.read(i * 64, 8);
            }
            {
                let mut g = t.enter(writer);
                g.write((1 << 30) + i * 64, 64);
            }
        }
        let traces = TraceSet::new(vec![t.finish()]);
        let a = analyze(&traces, &reg, &DirtBusterConfig::default());
        prop_assert!(a.report_for(reader).is_none(), "readers must not be patched");
    }
}
