//! Deterministic, seeded fault injection for traces.
//!
//! The replay pipeline must degrade gracefully on malformed, truncated or
//! adversarial traces: every mutation here turns a well-formed
//! [`TraceSet`] into a damaged one, and the engine's contract is that
//! replaying the result either succeeds or returns a *typed* error — it
//! never panics and never hangs (the watchdog in `machine` bounds replay
//! steps).
//!
//! All mutators are driven by a [`SimRng`] seeded by the caller, so every
//! failure found by the fault-injection harness is reproducible from its
//! `(mutation, seed)` pair alone.
//!
//! # Examples
//!
//! ```
//! use simcore::faultinject::{mutate, Mutation};
//! use simcore::{TraceSet, Tracer};
//!
//! let mut t = Tracer::new();
//! for i in 0..100u64 {
//!     t.write(i * 64, 64);
//! }
//! let traces = TraceSet::new(vec![t.finish()]);
//! let broken = mutate(&traces, Mutation::DropEvents, 42, 64);
//! assert!(broken.total_events() < traces.total_events());
//! // Same seed, same damage.
//! let again = mutate(&traces, Mutation::DropEvents, 42, 64);
//! assert_eq!(broken.total_events(), again.total_events());
//! ```

use crate::rng::SimRng;
use crate::{align_down, Addr, Cycles, EventKind, TraceSet};
use std::collections::HashMap;

/// When a simulated power failure fires during a replay.
///
/// The replay engine honors a plan by freezing mid-run and partitioning
/// machine state into durable and volatile-lost (see `machine`'s
/// `try_run_until_crash`). All triggers fire immediately **after** the
/// triggering step retires, so every crash-and-resume segment consumes at
/// least one trace event — iterated crash-recovery always terminates.
/// Step, cycle and fence counts all restart at zero on each resumed
/// segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPlan {
    /// Crash after the `n`-th scheduler step of the run (1-based; a plan
    /// of `AtStep(0)` behaves like `AtStep(1)`).
    AtStep(u64),
    /// Crash after the first step that pushes any core's clock to `n`
    /// cycles or beyond.
    AtCycle(Cycles),
    /// Crash after every `k`-th fence retires (1-based; `0` behaves like
    /// `1`). Within one `try_run_until_crash` call this fires once, at
    /// the `k`-th fence; resumed segments count their fences afresh, so
    /// iterating crash-and-recover crashes at every `k`-th fence overall.
    EveryKFences(u32),
}

/// One kind of trace damage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mutation {
    /// Drop ~2% of events uniformly at random (lost instrumentation).
    DropEvents,
    /// Duplicate ~2% of events in place (double-counted instrumentation).
    DuplicateEvents,
    /// Swap ~2% of adjacent event pairs (reordered delivery).
    ReorderEvents,
    /// Bump the sequence number of some acquires by one, keeping each
    /// within the total number of releases of its line so that static
    /// validation still passes. The damage only surfaces at replay time:
    /// a consumer waits for a release that can no longer happen because
    /// the producer is (transitively) waiting on the consumer — the
    /// scenario the engine must report as a structured deadlock instead
    /// of asserting or spinning.
    DesyncAcquires,
    /// Cut one thread's trace short at a random point (truncated file,
    /// crashed recorder).
    TruncateThread,
    /// Zero the size field of ~2% of memory accesses (corrupted size
    /// fields; rejected by `trace::validate`).
    ZeroSizeAccesses,
}

impl Mutation {
    /// Every mutation kind, for exhaustive harness sweeps.
    pub const ALL: [Mutation; 6] = [
        Mutation::DropEvents,
        Mutation::DuplicateEvents,
        Mutation::ReorderEvents,
        Mutation::DesyncAcquires,
        Mutation::TruncateThread,
        Mutation::ZeroSizeAccesses,
    ];

    /// Short kebab-case name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Mutation::DropEvents => "drop-events",
            Mutation::DuplicateEvents => "duplicate-events",
            Mutation::ReorderEvents => "reorder-events",
            Mutation::DesyncAcquires => "desync-acquires",
            Mutation::TruncateThread => "truncate-thread",
            Mutation::ZeroSizeAccesses => "zero-size-accesses",
        }
    }
}

/// Fraction of events touched by the per-event mutators, as 1-in-N.
const TOUCH_1_IN: u64 = 50;

/// Apply `mutation` to a copy of `traces`, driven by `seed`.
///
/// `line_size` is the cache-line granularity used to pair acquires with
/// the atomics that release them (only [`Mutation::DesyncAcquires`] uses
/// it); pass the line size of the machine the trace will replay on.
///
/// The result is deterministic in `(mutation, seed)`. Mutations never
/// panic, even on empty trace sets — they may simply return an unchanged
/// copy when there is nothing to damage.
pub fn mutate(traces: &TraceSet, mutation: Mutation, seed: u64, line_size: u64) -> TraceSet {
    // Stir the mutation kind into the seed so the same seed damages
    // different sites under different mutations.
    let mut rng = SimRng::new(seed ^ (mutation as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut out = traces.clone();
    match mutation {
        Mutation::DropEvents => {
            for t in &mut out.threads {
                t.events.retain(|_| rng.gen_range(TOUCH_1_IN) != 0);
            }
        }
        Mutation::DuplicateEvents => {
            for t in &mut out.threads {
                let mut events = Vec::with_capacity(t.events.len() + t.events.len() / 32);
                for ev in &t.events {
                    events.push(*ev);
                    if rng.gen_range(TOUCH_1_IN) == 0 {
                        events.push(*ev);
                    }
                }
                t.events = events;
            }
        }
        Mutation::ReorderEvents => {
            for t in &mut out.threads {
                let n = t.events.len();
                let mut i = 1;
                while i < n {
                    if rng.gen_range(TOUCH_1_IN) == 0 {
                        t.events.swap(i - 1, i);
                        i += 1; // Never move the same event twice.
                    }
                    i += 1;
                }
            }
        }
        Mutation::DesyncAcquires => desync_acquires(&mut out, &mut rng, line_size),
        Mutation::TruncateThread => {
            if let Some(victim) = pick_nonempty_thread(&out, &mut rng) {
                let t = &mut out.threads[victim];
                let keep = rng.gen_range(t.events.len() as u64) as usize;
                t.events.truncate(keep);
            }
        }
        Mutation::ZeroSizeAccesses => {
            for t in &mut out.threads {
                for ev in &mut t.events {
                    if ev.kind.is_access() && rng.gen_range(TOUCH_1_IN) == 0 {
                        ev.size = 0;
                    }
                }
            }
        }
    }
    out
}

/// Index of a random thread with at least one event, if any.
fn pick_nonempty_thread(traces: &TraceSet, rng: &mut SimRng) -> Option<usize> {
    let candidates: Vec<usize> = traces
        .threads
        .iter()
        .enumerate()
        .filter(|(_, t)| !t.events.is_empty())
        .map(|(i, _)| i)
        .collect();
    if candidates.is_empty() {
        None
    } else {
        Some(candidates[rng.gen_range(candidates.len() as u64) as usize])
    }
}

/// Bump acquire sequence numbers by one where the bumped value still does
/// not exceed the total releases of the line, so `trace::validate` keeps
/// accepting the trace and the damage only manifests at replay time.
fn desync_acquires(traces: &mut TraceSet, rng: &mut SimRng, line_size: u64) {
    let mut releases: HashMap<Addr, u32> = HashMap::new();
    for t in &traces.threads {
        for ev in &t.events {
            if ev.kind == EventKind::Atomic {
                *releases.entry(align_down(ev.addr, line_size)).or_default() += 1;
            }
        }
    }
    // Damage roughly one in eight eligible acquires — dense enough that
    // short traces still get hit, sparse enough to leave the schedule
    // mostly intact (the interesting failures are partial desyncs).
    for t in &mut traces.threads {
        for ev in &mut t.events {
            if ev.kind != EventKind::Acquire {
                continue;
            }
            let line = align_down(ev.addr, line_size);
            let available = releases.get(&line).copied().unwrap_or(0);
            if ev.size < available && rng.gen_range(8) == 0 {
                ev.size += 1;
            }
        }
    }
}

/// Corrupt a serialized trace in place: flip `flips` random bytes, and
/// with probability ~1/4 also truncate the buffer at a random point.
///
/// Feeding the result to `serialize::read_traces` must yield either a
/// decoded trace set or an `io::Error` — never a panic or an
/// out-of-memory abort.
pub fn corrupt_bytes(bytes: &mut Vec<u8>, flips: usize, seed: u64) {
    let mut rng = SimRng::new(seed);
    if bytes.is_empty() {
        return;
    }
    for _ in 0..flips {
        let pos = rng.gen_range(bytes.len() as u64) as usize;
        bytes[pos] ^= rng.gen_range(255) as u8 + 1; // Never a zero XOR.
    }
    if rng.gen_range(4) == 0 {
        let keep = rng.gen_range(bytes.len() as u64) as usize;
        bytes.truncate(keep);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{trace::validate, Tracer};

    fn producer_consumer() -> TraceSet {
        let mut p = Tracer::new();
        let mut c = Tracer::new();
        for i in 0..200u64 {
            p.write(i * 64, 64);
            p.atomic(1 << 20, 8);
            c.acquire(1 << 20, (i + 1) as u32);
            c.read(i * 64, 64);
        }
        TraceSet::new(vec![p.finish(), c.finish()])
    }

    #[test]
    fn mutations_are_deterministic() {
        let traces = producer_consumer();
        for m in Mutation::ALL {
            let a = mutate(&traces, m, 7, 64);
            let b = mutate(&traces, m, 7, 64);
            for (ta, tb) in a.threads.iter().zip(&b.threads) {
                assert_eq!(ta.events, tb.events, "{m:?} not deterministic");
            }
        }
    }

    #[test]
    fn different_seeds_damage_differently() {
        let traces = producer_consumer();
        let a = mutate(&traces, Mutation::DropEvents, 1, 64);
        let b = mutate(&traces, Mutation::DropEvents, 2, 64);
        assert_ne!(
            a.threads.iter().map(|t| t.len()).collect::<Vec<_>>(),
            b.threads.iter().map(|t| t.len()).collect::<Vec<_>>(),
        );
    }

    #[test]
    fn drop_and_truncate_shrink_the_trace() {
        let traces = producer_consumer();
        assert!(mutate(&traces, Mutation::DropEvents, 3, 64).total_events() < traces.total_events());
        assert!(
            mutate(&traces, Mutation::TruncateThread, 3, 64).total_events()
                < traces.total_events()
        );
        assert!(
            mutate(&traces, Mutation::DuplicateEvents, 3, 64).total_events()
                > traces.total_events()
        );
    }

    #[test]
    fn desync_keeps_static_validation_passing() {
        let traces = producer_consumer();
        assert!(validate(&traces, 64).is_ok());
        let mut changed = false;
        for seed in 0..8u64 {
            let broken = mutate(&traces, Mutation::DesyncAcquires, seed, 64);
            assert!(
                validate(&broken, 64).is_ok(),
                "desync must stay statically valid (seed {seed})"
            );
            changed |= broken.threads[1].events != traces.threads[1].events;
        }
        assert!(changed, "no seed desynced anything");
    }

    #[test]
    fn zero_size_mutation_fails_validation() {
        let traces = producer_consumer();
        let mut rejected = false;
        for seed in 0..16u64 {
            let broken = mutate(&traces, Mutation::ZeroSizeAccesses, seed, 64);
            rejected |= validate(&broken, 64).is_err();
        }
        assert!(rejected, "no seed produced a zero-size access");
    }

    #[test]
    fn mutating_empty_trace_set_is_safe() {
        let empty = TraceSet::default();
        for m in Mutation::ALL {
            assert_eq!(mutate(&empty, m, 0, 64).total_events(), 0);
        }
    }

    #[test]
    fn corrupt_bytes_is_deterministic_and_changes_data() {
        let original: Vec<u8> = (0..=255u8).cycle().take(4096).collect();
        let mut a = original.clone();
        let mut b = original.clone();
        corrupt_bytes(&mut a, 8, 9);
        corrupt_bytes(&mut b, 8, 9);
        assert_eq!(a, b);
        assert_ne!(a, original);
        let mut empty: Vec<u8> = Vec::new();
        corrupt_bytes(&mut empty, 8, 9); // Must not panic.
    }

    #[test]
    fn names_cover_all_mutations() {
        let mut seen = std::collections::HashSet::new();
        for m in Mutation::ALL {
            assert!(seen.insert(m.name()), "duplicate name {}", m.name());
        }
    }
}
