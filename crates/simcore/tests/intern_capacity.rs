//! Property tests for the dense line-id capacity guard: a `LineInterner`
//! built with a synthetic small `max_lines` must hand out exactly that
//! many ids, fail any further distinct line with a *typed* error (never a
//! wrapped/aliased id), and keep already-interned state fully usable after
//! the failure.

use proptest::prelude::*;
use simcore::{Event, EventKind, FuncId, InternedTraces, LineInterner, ThreadTrace, ValidateError};

const LINE: u64 = 64;

fn distinct_lines(n: usize) -> Vec<u64> {
    (0..n as u64).map(|i| i * LINE).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Filling a `max_lines`-bounded interner succeeds exactly up to the
    /// bound; every line past it is a clean `TooManyLines`, and the error
    /// leaves the interner intact (same len, old ids still resolve, old
    /// lines still re-intern as hits).
    #[test]
    fn interning_past_the_bound_is_a_typed_error(
        cap in 1u32..24,
        extra in 1usize..16,
    ) {
        let mut it = LineInterner::with_max_lines(LINE, cap);
        let lines = distinct_lines(cap as usize + extra);
        for (i, &line) in lines.iter().take(cap as usize).enumerate() {
            let id = it.try_intern(line).expect("under capacity must intern");
            prop_assert_eq!(id.index(), i);
        }
        prop_assert_eq!(it.len(), cap as usize);

        for &line in &lines[cap as usize..] {
            match it.try_intern(line) {
                Err(ValidateError::TooManyLines { needed, limit }) => {
                    prop_assert_eq!(limit, cap as u64);
                    prop_assert_eq!(needed, cap as u64 + 1);
                }
                other => prop_assert!(false, "expected TooManyLines, got {other:?}"),
            }
            // The failure must not grow or corrupt the table.
            prop_assert_eq!(it.len(), cap as usize);
        }

        // Every pre-failure line still resolves and still re-interns to
        // its original id (a hit, not a new slot): line i holds id i, so
        // the interned lines cover `0..cap` once each. The refused lines
        // hold no id.
        for (i, &line) in lines.iter().take(cap as usize).enumerate() {
            prop_assert_eq!(it.id_of(line).map(|id| id.index()), Some(i));
            prop_assert_eq!(it.try_intern(line).expect("hits never fail").index(), i);
        }
        for &line in &lines[cap as usize..] {
            prop_assert_eq!(it.id_of(line), None);
        }
    }

    /// The same guard through the trace-level API: a thread touching more
    /// distinct lines than the interner's bound is rejected by
    /// `try_push_thread` with `TooManyLines`, and a thread that fits is
    /// accepted — including events that straddle line boundaries and so
    /// consume several ids each.
    #[test]
    fn try_push_thread_respects_the_bound(
        cap in 2u32..16,
        straddle in any::<bool>(),
    ) {
        let ev = |addr: u64, size: u32| Event {
            addr,
            size,
            kind: EventKind::Write,
            func: FuncId::UNKNOWN,
            caller: FuncId::UNKNOWN,
        };

        // `cap` distinct lines fit exactly.
        let fits = ThreadTrace {
            events: if straddle {
                // Each event straddles a boundary: cap/2 events, 2 lines each.
                (0..cap as u64 / 2).map(|i| ev(2 * i * LINE + LINE / 2, LINE as u32)).collect()
            } else {
                (0..cap as u64).map(|i| ev(i * LINE, 8)).collect()
            },
        };
        let mut ok = InternedTraces::empty_with_max_lines(LINE, cap);
        ok.try_push_thread(&fits).expect("within the bound must be accepted");
        prop_assert!(ok.interner().len() <= cap as usize);

        // One more distinct line than the bound is rejected with the
        // typed capacity error.
        let too_many = ThreadTrace {
            events: (0..cap as u64 + 1).map(|i| ev(i * LINE, 8)).collect(),
        };
        let mut full = InternedTraces::empty_with_max_lines(LINE, cap);
        match full.try_push_thread(&too_many) {
            Err(ValidateError::TooManyLines { limit, .. }) => {
                prop_assert_eq!(limit, cap as u64);
            }
            other => prop_assert!(false, "expected TooManyLines, got {other:?}"),
        }
    }
}
