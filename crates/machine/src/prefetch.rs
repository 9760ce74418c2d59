//! The per-core hardware stream prefetcher's trackers.
//!
//! Each core remembers the next line of its last [`STREAM_TRACKERS`]
//! detected read streams. A read of a line some tracker expects continues
//! that stream: the tracker advances to the following line and becomes the
//! newest. Any other read starts a new tracker, replacing the oldest when
//! all are in use. Two trackers can expect the same line (two streams that
//! met); a read then continues the older one.

use simcore::Addr;

/// Streams tracked by the per-core hardware prefetcher.
const STREAM_TRACKERS: usize = 16;

/// One core's trackers in a fixed ring, oldest first from `head`.
///
/// A miss with every tracker in use overwrites the oldest in place and a
/// hit on the newest advances it in place, so the two common cases (the
/// KV streams miss with all trackers in use; a sequential reader hits the
/// tracker it just advanced) move no other tracker.
pub(crate) struct StreamTrackers {
    /// The line each tracker expects next, by physical slot.
    next: [Addr; STREAM_TRACKERS],
    /// Physical slot of the oldest tracker (0 until all are in use).
    head: usize,
    /// Trackers in use: the physical slots `0..len` until the ring fills.
    len: usize,
}

impl StreamTrackers {
    /// No streams detected yet.
    pub(crate) fn new() -> Self {
        Self { next: [0; STREAM_TRACKERS], head: 0, len: 0 }
    }

    /// Record a read of `line`. Returns whether it continued a tracked
    /// stream (the oldest tracker expecting it, which advances by
    /// `line_size` and becomes the newest); otherwise a tracker for the
    /// stream starting here becomes the newest, in place of the oldest
    /// when all are in use.
    #[inline]
    pub(crate) fn check(&mut self, line: Addr, line_size: u64) -> bool {
        let following = line + line_size;
        // Match every slot at once, then rotate the mask so bit `i` is
        // the `i`-th oldest tracker: its lowest set bit is the first match
        // of an oldest-first scan.
        let mut hits = 0u32;
        for (slot, &expect) in self.next.iter().enumerate() {
            hits |= u32::from(expect == line) << slot;
        }
        hits &= (1u32 << self.len) - 1;
        let n = STREAM_TRACKERS as u32;
        let by_age = (hits >> self.head | hits << (n - self.head as u32)) & ((1 << n) - 1);
        if by_age != 0 {
            // Move the hit tracker to the newest end: the newer ones each
            // shift one place toward the oldest (none when it is the
            // newest already).
            for i in by_age.trailing_zeros() as usize..self.len - 1 {
                self.next[self.slot(i)] = self.next[self.slot(i + 1)];
            }
            let newest = self.slot(self.len - 1);
            self.next[newest] = following;
            return true;
        }
        if self.len == STREAM_TRACKERS {
            self.next[self.head] = following;
            self.head = (self.head + 1) % STREAM_TRACKERS;
        } else {
            self.next[self.len] = following;
            self.len += 1;
        }
        false
    }

    /// Physical slot of the `i`-th oldest tracker.
    #[inline]
    fn slot(&self, i: usize) -> usize {
        (self.head + i) % STREAM_TRACKERS
    }

    /// The expected lines, oldest tracker first.
    #[cfg(test)]
    fn oldest_first(&self) -> Vec<Addr> {
        (0..self.len).map(|i| self.next[self.slot(i)]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    /// The `VecDeque` tracker this ring replaced: first match oldest-first,
    /// removed and re-pushed as the newest; a miss pops the oldest when
    /// full.
    fn deque_check(streams: &mut VecDeque<Addr>, line: Addr, line_size: u64) -> bool {
        if let Some(pos) = streams.iter().position(|&s| s == line) {
            streams.remove(pos);
            streams.push_back(line + line_size);
            return true;
        }
        if streams.len() >= STREAM_TRACKERS {
            streams.pop_front();
        }
        streams.push_back(line + line_size);
        false
    }

    #[test]
    fn sequential_reads_hit_the_newest_tracker() {
        let mut t = StreamTrackers::new();
        assert!(!t.check(0, 64), "first read starts a stream");
        for i in 1..100u64 {
            assert!(t.check(i * 64, 64), "read {i} continues the stream");
        }
        assert_eq!(t.oldest_first(), vec![100 * 64]);
    }

    #[test]
    fn duplicate_trackers_continue_the_older_one() {
        let mut t = StreamTrackers::new();
        t.check(0, 64); // expects 64
        t.check(1 << 20, 64); // another stream
        t.check(0, 64); // a second tracker expecting 64
        assert_eq!(t.oldest_first(), vec![64, (1 << 20) + 64, 64]);
        assert!(t.check(64, 64));
        assert_eq!(t.oldest_first(), vec![(1 << 20) + 64, 64, 128]);
    }

    /// Reads: half of them a line from a small range (so trackers repeat
    /// and collide), half the line after the previous read (so streams
    /// continue at every tracker age).
    fn reads() -> impl Strategy<Value = Vec<(bool, u64)>> {
        proptest::collection::vec((any::<bool>(), 0u64..40), 1..600)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn ring_matches_the_deque(ops in reads(), wide in any::<bool>()) {
            let line_size = if wide { 128 } else { 64 };
            let mut ring = StreamTrackers::new();
            let mut deque = VecDeque::new();
            let mut prev = 0u64;
            for (i, &(sequential, raw)) in ops.iter().enumerate() {
                let line = if sequential { prev + line_size } else { raw * line_size };
                prev = line;
                let hit = ring.check(line, line_size);
                prop_assert_eq!(hit, deque_check(&mut deque, line, line_size), "read {}", i);
                let want: Vec<Addr> = deque.iter().copied().collect();
                prop_assert_eq!(ring.oldest_first(), want, "read {}", i);
            }
        }
    }
}
