//! Applying DirtBuster's recommendations automatically.
//!
//! The paper's workflow is: profile, read the report, patch the source by
//! hand (§6.2.3, "it is usually obvious to infer which variables are
//! written, and so which variables to pre-store"). This module closes the
//! loop mechanically: a [`PrestorePlan`] maps each write-intensive
//! function to its recommended operation, and [`apply_plan`] rewrites a
//! recorded trace as the patched binary would have produced it —
//! inserting a `clean`/`demote` pre-store after each write of a planned
//! function, or converting its writes to non-temporal stores for `skip`.
//!
//! This lets the effect of a recommendation be *measured* (by replaying
//! the rewritten trace) without re-running or modifying the workload.

use crate::{Analysis, Recommendation};
use simcore::{Event, EventKind, FuncId, ThreadTrace, TraceSet};

/// The per-function patch decisions derived from an [`Analysis`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PrestorePlan {
    /// One actionable decision per function, sorted by id.
    per_func: Vec<(FuncId, Recommendation)>,
}

impl PrestorePlan {
    /// Build a plan from an analysis: every function with an actionable
    /// recommendation is included.
    pub fn from_analysis(analysis: &Analysis) -> Self {
        let mut plan = Self::empty();
        for r in analysis.reports.iter().filter(|r| r.choice != Recommendation::NoPrestore) {
            plan.force(r.func, r.choice);
        }
        plan
    }

    /// An empty plan (patches nothing).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Force a specific operation for `func` (overriding the analysis) —
    /// how the paper evaluates deliberately wrong patches (§7.4.2).
    pub fn force(&mut self, func: FuncId, op: Recommendation) -> &mut Self {
        match (self.per_func.binary_search_by_key(&func, |&(f, _)| f), op) {
            (Ok(i), Recommendation::NoPrestore) => {
                self.per_func.remove(i);
            }
            (Ok(i), op) => self.per_func[i].1 = op,
            (Err(_), Recommendation::NoPrestore) => {}
            (Err(i), op) => self.per_func.insert(i, (func, op)),
        }
        self
    }

    /// The planned operation for `func`, if any.
    #[inline]
    pub fn op_for(&self, func: FuncId) -> Option<Recommendation> {
        let i = self.per_func.binary_search_by_key(&func, |&(f, _)| f).ok()?;
        Some(self.per_func[i].1)
    }

    /// Number of patched functions.
    pub fn len(&self) -> usize {
        self.per_func.len()
    }

    /// Whether the plan patches nothing.
    pub fn is_empty(&self) -> bool {
        self.per_func.is_empty()
    }

    /// The plan's decisions in ascending [`FuncId`] order — the
    /// deterministic view used for rendering and cache keys.
    pub fn iter_sorted(&self) -> &[(FuncId, Recommendation)] {
        &self.per_func
    }

    /// Canonical signature string, e.g. `"f3=clean,f7=skip"` (`"-"` for
    /// the empty plan). Equal plans have equal signatures, so the
    /// signature can key a memoization cache of replay results.
    pub fn signature(&self) -> String {
        if self.per_func.is_empty() {
            return "-".to_owned();
        }
        self.iter_sorted()
            .iter()
            .map(|(f, r)| format!("f{}={}", f.0, r.name()))
            .collect::<Vec<_>>()
            .join(",")
    }
}

/// Rewrite one thread's trace according to `plan`.
///
/// * `Clean` / `Demote`: a pre-store event covering each write of the
///   planned function is inserted immediately after it (the paper's
///   one-line patches).
/// * `Skip`: the function's writes become non-temporal stores (the
///   `craftValue` rewrite of §7.2.3).
///
/// The rewrite is idempotent: applying the same plan to its own output
/// changes nothing. A write whose *next* event is already the exact
/// pre-store the plan would insert keeps its single pre-store instead of
/// gaining a duplicate, and `Skip`'s converted stores are no longer
/// writes at all. (The search loop always re-derives from the unpatched
/// base; this guards the public API against double application.)
pub fn apply_plan_thread(trace: &ThreadTrace, plan: &PrestorePlan) -> ThreadTrace {
    if plan.is_empty() {
        return trace.clone();
    }
    let mut events = Vec::with_capacity(trace.events.len() + trace.events.len() / 4);
    for (i, ev) in trace.events.iter().enumerate() {
        // Only writes are patched, so only they pay the plan lookup.
        let op = if ev.kind == EventKind::Write { plan.op_for(ev.func) } else { None };
        match op {
            Some(Recommendation::Skip) => {
                events.push(Event { kind: EventKind::NtWrite, ..*ev });
            }
            Some(op @ (Recommendation::Clean | Recommendation::Demote)) => {
                events.push(*ev);
                let kind = if op == Recommendation::Clean {
                    EventKind::PrestoreClean
                } else {
                    EventKind::PrestoreDemote
                };
                let prestore = Event { kind, ..*ev };
                if trace.events.get(i + 1) != Some(&prestore) {
                    events.push(prestore);
                }
            }
            _ => events.push(*ev),
        }
    }
    // The reservation covers one pre-store per four events; a recording
    // at rest holds no slack (as `Tracer::finish` leaves it). Counting
    // the insertions first to allocate once, exactly, costs a second pass
    // over the events that outweighs the regrowth it saves (DESIGN.md §8
    // "One probe per cache level").
    events.shrink_to_fit();
    ThreadTrace { events }
}

/// Rewrite a whole trace set according to `plan`.
pub fn apply_plan(traces: &TraceSet, plan: &PrestorePlan) -> TraceSet {
    TraceSet::new(traces.threads.iter().map(|t| apply_plan_thread(t, plan)).collect())
}

/// One-call convenience: analyse `traces` and return the auto-patched
/// version alongside the plan.
///
/// The rewritten trace is validated (at the analysis'
/// [`LINE_SIZE`](crate::patterns::LINE_SIZE) granularity)
/// before it is returned, so a malformed input — or a rewrite bug — is
/// reported as a typed [`simcore::ValidateError`] instead of surfacing
/// later as a replay failure.
///
/// # Errors
///
/// Returns the first [`simcore::ValidateError`] found in the patched
/// trace. The rewrite only duplicates or re-tags events, so on a valid
/// input this can only fire if the input itself was invalid.
///
/// # Examples
///
/// ```
/// use simcore::{FuncRegistry, TraceSet, Tracer};
///
/// let mut reg = FuncRegistry::new();
/// let f = reg.register("stream", "app.rs", 1);
/// let mut t = Tracer::new();
/// {
///     let mut g = t.enter(f);
///     for i in 0..20_000u64 {
///         g.write(i * 64, 64);
///         g.read(i * 64, 8);
///     }
/// }
/// let traces = TraceSet::new(vec![t.finish()]);
/// let (patched, plan) =
///     dirtbuster::auto_patch(&traces, &reg, &Default::default()).unwrap();
/// assert_eq!(plan.len(), 1); // the streaming writer gets patched
/// assert!(patched.total_events() > traces.total_events());
/// ```
pub fn auto_patch(
    traces: &TraceSet,
    registry: &simcore::FuncRegistry,
    cfg: &crate::DirtBusterConfig,
) -> Result<(TraceSet, PrestorePlan), simcore::ValidateError> {
    let analysis = crate::analyze(traces, registry, cfg);
    let plan = PrestorePlan::from_analysis(&analysis);
    let patched = apply_plan(traces, &plan);
    simcore::trace::validate(&patched, crate::patterns::LINE_SIZE)?;
    Ok((patched, plan))
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::{FuncRegistry, Tracer};

    fn seq_writer_trace() -> (TraceSet, FuncRegistry, FuncId) {
        let mut reg = FuncRegistry::new();
        let f = reg.register("writer", "app.rs", 1);
        let mut t = Tracer::new();
        {
            let mut g = t.enter(f);
            for i in 0..30_000u64 {
                g.write(i * 64, 64);
            }
        }
        (TraceSet::new(vec![t.finish()]), reg, f)
    }

    #[test]
    fn plan_from_analysis_includes_actionable_funcs() {
        let (traces, reg, f) = seq_writer_trace();
        let analysis = crate::analyze(&traces, &reg, &Default::default());
        let plan = PrestorePlan::from_analysis(&analysis);
        assert_eq!(plan.op_for(f), Some(Recommendation::Skip));
        assert_eq!(plan.len(), 1);
    }

    #[test]
    fn skip_plan_converts_writes_to_nt() {
        let (traces, _, f) = seq_writer_trace();
        let mut plan = PrestorePlan::empty();
        plan.force(f, Recommendation::Skip);
        let patched = apply_plan(&traces, &plan);
        assert_eq!(patched.total_events(), traces.total_events());
        assert!(patched.threads[0].events.iter().all(|e| e.kind != EventKind::Write));
        assert!(patched.threads[0].events.iter().any(|e| e.kind == EventKind::NtWrite));
    }

    #[test]
    fn clean_plan_inserts_prestores_after_writes() {
        let (traces, _, f) = seq_writer_trace();
        let mut plan = PrestorePlan::empty();
        plan.force(f, Recommendation::Clean);
        let patched = apply_plan(&traces, &plan);
        assert_eq!(patched.total_events(), 2 * traces.total_events());
        let evs = &patched.threads[0].events;
        for pair in evs.chunks(2) {
            assert_eq!(pair[0].kind, EventKind::Write);
            assert_eq!(pair[1].kind, EventKind::PrestoreClean);
            assert_eq!(pair[0].addr, pair[1].addr);
            assert_eq!(pair[0].size, pair[1].size);
        }
    }

    #[test]
    fn unplanned_functions_are_untouched() {
        let mut reg = FuncRegistry::new();
        let a = reg.register("a", "x.rs", 1);
        let b = reg.register("b", "x.rs", 2);
        let mut t = Tracer::new();
        {
            let mut g = t.enter(a);
            g.write(0, 64);
        }
        {
            let mut g = t.enter(b);
            g.write(64, 64);
        }
        let traces = TraceSet::new(vec![t.finish()]);
        let mut plan = PrestorePlan::empty();
        plan.force(a, Recommendation::Demote);
        let patched = apply_plan(&traces, &plan);
        let kinds: Vec<_> = patched.threads[0].events.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![EventKind::Write, EventKind::PrestoreDemote, EventKind::Write]
        );
    }

    #[test]
    fn force_noprestore_removes_from_plan() {
        let (_, _, f) = seq_writer_trace();
        let mut plan = PrestorePlan::empty();
        plan.force(f, Recommendation::Clean);
        assert_eq!(plan.len(), 1);
        plan.force(f, Recommendation::NoPrestore);
        assert!(plan.is_empty());
    }

    #[test]
    fn empty_plan_is_identity() {
        let (traces, _, _) = seq_writer_trace();
        let patched = apply_plan(&traces, &PrestorePlan::empty());
        assert_eq!(patched.threads[0].events, traces.threads[0].events);
    }

    #[test]
    fn auto_patch_validates_its_output() {
        let (mut traces, reg, _) = seq_writer_trace();
        // Corrupt the recorded trace: a zero-size write is never valid.
        traces.threads[0].events[7].size = 0;
        let err = auto_patch(&traces, &reg, &Default::default()).unwrap_err();
        assert!(matches!(err, simcore::ValidateError::ZeroSizeAccess { index: 7, .. }));
    }

    #[test]
    fn apply_plan_is_idempotent_for_every_operation() {
        let (traces, _, f) = seq_writer_trace();
        for op in [Recommendation::Clean, Recommendation::Demote, Recommendation::Skip] {
            let mut plan = PrestorePlan::empty();
            plan.force(f, op);
            let once = apply_plan(&traces, &plan);
            let twice = apply_plan(&once, &plan);
            assert_eq!(
                once.threads[0].events, twice.threads[0].events,
                "{op:?} must not duplicate pre-stores on an already-patched trace"
            );
        }
    }

    #[test]
    fn signature_is_sorted_and_canonical() {
        let mut plan = PrestorePlan::empty();
        assert_eq!(plan.signature(), "-");
        plan.force(FuncId(7), Recommendation::Skip);
        plan.force(FuncId(3), Recommendation::Clean);
        assert_eq!(plan.signature(), "f3=clean,f7=skip");
        assert_eq!(
            plan.iter_sorted(),
            vec![(FuncId(3), Recommendation::Clean), (FuncId(7), Recommendation::Skip)]
        );
        let mut same = PrestorePlan::empty();
        same.force(FuncId(3), Recommendation::Clean);
        same.force(FuncId(7), Recommendation::Skip);
        assert_eq!(plan, same);
        assert_eq!(plan.signature(), same.signature());
    }

    mod idempotence_props {
        use super::*;
        use proptest::prelude::*;

        /// A plannable trace operation in plain data form. Addresses are
        /// line-aligned-ish and sizes positive so every generated trace is
        /// valid; `func` indexes a small pool so plans actually hit.
        #[derive(Debug, Clone, Copy)]
        enum POp {
            Write(u8, u64, u32),
            Read(u8, u64, u32),
            Fence,
            Compute(u64),
        }

        fn any_pop() -> impl Strategy<Value = POp> {
            let addr = 0u64..(1 << 14);
            let size = 1u32..=128;
            prop_oneof![
                (0u8..4, addr.clone(), size.clone()).prop_map(|(f, a, s)| POp::Write(f, a, s)),
                (0u8..4, addr, size).prop_map(|(f, a, s)| POp::Read(f, a, s)),
                Just(POp::Fence),
                (1u64..50).prop_map(POp::Compute),
            ]
        }

        fn any_rec() -> impl Strategy<Value = Recommendation> {
            prop_oneof![
                Just(Recommendation::Clean),
                Just(Recommendation::Demote),
                Just(Recommendation::Skip),
                Just(Recommendation::NoPrestore),
            ]
        }

        fn build(ops: &[POp], funcs: &[FuncId]) -> TraceSet {
            let mut t = simcore::Tracer::new();
            for &op in ops {
                match op {
                    POp::Write(f, a, s) => {
                        let mut g = t.enter(funcs[f as usize]);
                        g.write(a, s);
                    }
                    POp::Read(f, a, s) => {
                        let mut g = t.enter(funcs[f as usize]);
                        g.read(a, s);
                    }
                    POp::Fence => t.fence(),
                    POp::Compute(c) => t.compute(c),
                }
            }
            TraceSet::new(vec![t.finish()])
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Satellite: `apply_plan(apply_plan(t, p), p) == apply_plan(t, p)`
            /// for arbitrary traces and plans — the search loop may hand an
            /// already-patched trace back to the rewriter without the
            /// pre-store count drifting.
            #[test]
            fn apply_plan_idempotent(
                ops in proptest::collection::vec(any_pop(), 0..300),
                recs in proptest::collection::vec(any_rec(), 4),
            ) {
                let mut reg = simcore::FuncRegistry::new();
                let funcs: Vec<FuncId> =
                    (0..4).map(|i| reg.register(&format!("p{i}"), "prop.rs", i + 1)).collect();
                let traces = build(&ops, &funcs);
                let mut plan = PrestorePlan::empty();
                for (f, r) in funcs.iter().zip(&recs) {
                    plan.force(*f, *r);
                }
                let once = apply_plan(&traces, &plan);
                let twice = apply_plan(&once, &plan);
                prop_assert_eq!(&once.threads[0].events, &twice.threads[0].events);
                // And the rewrite stays valid.
                prop_assert!(simcore::trace::validate(&once, 64).is_ok());
            }
        }
    }
}
