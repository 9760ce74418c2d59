//! Property-based tests of the cache structures: capacity is never
//! exceeded, dirty data is never lost, and every policy produces valid
//! victims under arbitrary access sequences.

use cachesim::{Cache, CacheConfig, ReplacementKind, StoreBuffer};
use proptest::prelude::*;
use simcore::LineId;
use std::collections::HashSet;

fn any_policy() -> impl Strategy<Value = ReplacementKind> {
    prop_oneof![
        Just(ReplacementKind::Lru),
        Just(ReplacementKind::TreePlru),
        Just(ReplacementKind::Fifo),
        Just(ReplacementKind::Random),
        Just(ReplacementKind::NruRandom),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Dirty-data conservation: every line ever written is, at the end,
    /// either resident-dirty, or was evicted dirty, or was cleaned —
    /// no silent loss under any policy or access pattern.
    #[test]
    fn no_dirty_line_is_ever_lost(
        policy in any_policy(),
        accesses in proptest::collection::vec((0u64..1 << 14, any::<bool>()), 1..2000),
    ) {
        let mut cache = Cache::new(CacheConfig::from_capacity(4096, 4, 64, policy), 99);
        let mut written: HashSet<u64> = HashSet::new();
        let mut accounted: HashSet<u64> = HashSet::new();
        for &(addr, write) in &accesses {
            let line = addr & !63;
            if write {
                written.insert(line);
                accounted.remove(&line); // re-dirtied
            }
            if let Some(v) = cache.access(addr, write).victim {
                if v.dirty {
                    accounted.insert(v.line);
                }
            }
        }
        for v in cache.flush_all() {
            if v.dirty {
                accounted.insert(v.line);
            }
        }
        for line in &written {
            prop_assert!(
                accounted.contains(line),
                "dirty line {line:#x} lost under {policy:?}"
            );
        }
    }

    /// The cache never holds more lines than its capacity, and `probe`
    /// agrees with `access` hits.
    #[test]
    fn capacity_and_probe_consistency(
        policy in any_policy(),
        accesses in proptest::collection::vec(0u64..1 << 16, 1..1000),
    ) {
        let mut cache = Cache::new(CacheConfig::from_capacity(2048, 2, 64, policy), 5);
        for &addr in &accesses {
            let present_before = cache.probe(addr);
            let out = cache.access(addr, false);
            prop_assert_eq!(out.hit, present_before, "probe/access disagreement");
            prop_assert!(cache.probe(addr), "just-accessed line must be resident");
            prop_assert!(cache.resident() <= 32);
        }
    }

    /// `clean_line` is idempotent and never evicts.
    #[test]
    fn clean_is_idempotent(addrs in proptest::collection::vec(0u64..1 << 12, 1..200)) {
        let mut cache =
            Cache::new(CacheConfig::from_capacity(8192, 8, 64, ReplacementKind::Lru), 1);
        for &a in &addrs {
            cache.access(a, true);
            let resident = cache.resident();
            let first = cache.clean_line(a);
            prop_assert!(first, "a just-written line is dirty");
            prop_assert!(!cache.clean_line(a), "second clean is a no-op");
            prop_assert_eq!(cache.resident(), resident, "clean must not evict");
        }
    }

    /// Store-buffer drains complete in bounded time and retire every line
    /// exactly once.
    #[test]
    fn store_buffer_conserves_lines(
        lines in proptest::collection::vec(0u64..1 << 10, 1..300),
        cost in 1u64..500,
    ) {
        let mut sb = StoreBuffer::new(16);
        let mut left = 0usize;
        let mut pushed = 0usize;
        let mut now = 0;
        for &l in &lines {
            let line = l * 64;
            if sb.is_full() {
                // Capacity pressure, as the engine handles it: start every
                // pending drain, then wait for the head.
                while sb.next_unstarted().is_some() {
                    sb.schedule_next(now, cost);
                }
                now = now.max(sb.drain_head());
                left += 1;
            }
            if !sb.try_push_id(line, LineId(l as u32), now).expect("room after the head left") {
                pushed += 1;
            }
            now += 1;
        }
        left += sb.len();
        // A fence: schedule the rest and retire everything.
        while sb.next_unstarted().is_some() {
            sb.schedule_next(now, cost);
        }
        let done = sb.last_drain_done().max(now);
        sb.retire_all();
        prop_assert!(sb.is_empty());
        prop_assert_eq!(left, pushed, "every pushed entry leaves once");
        // The drain pipeline is bounded: total time <= pushes * (cost + 1).
        prop_assert!(done <= now + pushed as u64 * (cost + 1) + cost);
    }
}
