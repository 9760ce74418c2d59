//! Flight recorder: a bounded ring of recent events for post-mortem
//! dumps.
//!
//! When a replay crashes (deliberately, via a `CrashPlan`), the crash
//! report says *what* was lost but not *what led up to it*. A
//! [`FlightRing`] keeps the last N events at O(1) amortized cost per
//! event, its buffer growing toward N only as events arrive, so the crash
//! path can dump "the last 10k things that happened" next to the crash
//! report while a replay that crashes early holds only the events it
//! recorded.
//!
//! The one ring in use is the replay engine's own: while a crash plan is
//! armed it records one [`FlightEvent`] per retired trace event, stamped
//! with the engine's step counter. Pure simulated state, no wall-clock:
//! the dump is byte-identical across builds and determinism axes, and its
//! last event is the crash itself. There is no process-global ring; a
//! failed sweep job's trail is its `simcore::par::JobFailure` (its
//! attempts and last panic, or its time against the deadline).
//!
//! The ring is not part of the metrics registry: the cost is paid only by
//! the replays that arm it.

/// Default ring capacity: "the last 10k events".
pub const FLIGHT_CAPACITY: usize = 10_000;

/// What a [`FlightEvent`] records. The trace-event kinds mirror every
/// `simcore::event::EventKind` that touches memory or orders it (a
/// compute advances a clock only and is not recorded; both pre-store
/// kinds record as [`FlightKind::Prestore`]). For each of them the engine
/// records `a` = the event's address field and `b` = the core's clock
/// after the event retired. [`FlightKind::Crash`] is the engine's
/// closing marker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightKind {
    /// A retired read.
    Read,
    /// A retired write.
    Write,
    /// A retired non-temporal write.
    NtWrite,
    /// A retired fence; a fence has no address, so `a` is 0.
    Fence,
    /// A retired atomic RMW (the release side of an acquire hand-off).
    Atomic,
    /// A retired acquire: `a` is the line it waited on.
    Acquire,
    /// A retired `clean` or `demote` pre-store.
    Prestore,
    /// The injected crash fired; `a` = the frozen step, `b` = the latest
    /// core clock at the freeze.
    Crash,
}

impl FlightKind {
    /// Stable lowercase name for dumps.
    pub fn as_str(self) -> &'static str {
        match self {
            FlightKind::Read => "read",
            FlightKind::Write => "write",
            FlightKind::NtWrite => "nt_write",
            FlightKind::Fence => "fence",
            FlightKind::Atomic => "atomic",
            FlightKind::Acquire => "acquire",
            FlightKind::Prestore => "prestore",
            FlightKind::Crash => "crash",
        }
    }
}

/// One recorded event: a monotone sequence stamp (the engine's step)
/// plus two kind-specific operands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    /// Engine step at which the event retired. Monotone within a ring.
    pub seq: u64,
    /// What happened.
    pub kind: FlightKind,
    /// First operand (see [`FlightKind`] docs).
    pub a: u64,
    /// Second operand.
    pub b: u64,
}

/// Bounded ring of [`FlightEvent`]s: O(1) amortized push, oldest events
/// evicted silently once `capacity` are held. The buffer grows toward the
/// capacity as events arrive (never past it) and stays put once full.
///
/// # Examples
///
/// ```
/// use simcore::telemetry::flight::{FlightEvent, FlightKind, FlightRing};
///
/// let mut ring = FlightRing::new(2);
/// for seq in 0..5 {
///     ring.push(FlightEvent { seq, kind: FlightKind::Write, a: 64, b: 0 });
/// }
/// let kept: Vec<u64> = ring.to_vec().iter().map(|e| e.seq).collect();
/// assert_eq!(kept, vec![3, 4]);
/// ```
#[derive(Debug, Clone)]
pub struct FlightRing {
    buf: Vec<FlightEvent>,
    /// Most events retained; `buf` holds fewer until it first wraps.
    capacity: usize,
    head: usize,
}

impl FlightRing {
    /// A ring retaining at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "flight ring capacity must be positive");
        Self { buf: Vec::new(), capacity, head: 0 }
    }

    /// Record one event, evicting the oldest when full.
    #[inline]
    pub fn push(&mut self, ev: FlightEvent) {
        if self.buf.len() < self.capacity {
            if self.buf.len() == self.buf.capacity() {
                // Double, as `Vec::push` would, but stop at the capacity.
                let room = self.buf.len().max(16).min(self.capacity - self.buf.len());
                self.buf.reserve_exact(room);
            }
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % self.buf.len();
        }
    }

    /// Number of events currently retained.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been recorded (or capacity is unused).
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The most recently pushed event.
    pub fn last(&self) -> Option<&FlightEvent> {
        if self.buf.is_empty() {
            None
        } else if self.buf.len() < self.capacity || self.head == 0 {
            self.buf.last()
        } else {
            Some(&self.buf[self.head - 1])
        }
    }

    /// Retained events, oldest first.
    pub fn to_vec(&self) -> Vec<FlightEvent> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }
}

/// Render events as JSON Lines, one object per line — the dump format
/// written next to crash reports. Stable field order, no wall-clock
/// content, so dumps diff clean across builds.
pub fn render_jsonl(events: &[FlightEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 48);
    for e in events {
        out.push_str(&format!(
            "{{\"seq\":{},\"kind\":\"{}\",\"a\":{},\"b\":{}}}\n",
            e.seq,
            e.kind.as_str(),
            e.a,
            e.b
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(seq: u64, kind: FlightKind) -> FlightEvent {
        FlightEvent { seq, kind, a: seq * 10, b: 0 }
    }

    #[test]
    fn ring_keeps_the_most_recent_events() {
        let mut r = FlightRing::new(3);
        assert!(r.is_empty());
        assert_eq!(r.last(), None);
        for s in 0..7 {
            r.push(ev(s, FlightKind::Write));
        }
        assert_eq!(r.len(), 3);
        let seqs: Vec<u64> = r.to_vec().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![4, 5, 6]);
        assert_eq!(r.last().unwrap().seq, 6);
    }

    #[test]
    fn last_is_correct_before_and_after_wrap() {
        let mut r = FlightRing::new(4);
        r.push(ev(0, FlightKind::Read));
        assert_eq!(r.last().unwrap().seq, 0);
        for s in 1..4 {
            r.push(ev(s, FlightKind::Read));
        }
        // Exactly full, head still 0: last element of buf.
        assert_eq!(r.last().unwrap().seq, 3);
        r.push(ev(4, FlightKind::Crash));
        assert_eq!(r.last().unwrap().kind, FlightKind::Crash);
        assert_eq!(r.to_vec().last().unwrap().seq, 4);
    }

    #[test]
    fn ring_grows_with_its_events_and_wraps_at_its_capacity() {
        let mut r = FlightRing::new(FLIGHT_CAPACITY);
        for s in 0..5 {
            r.push(ev(s, FlightKind::Write));
        }
        assert!(r.buf.capacity() < 64, "5 events reserved {} slots", r.buf.capacity());
        for s in 5..FLIGHT_CAPACITY as u64 + 3 {
            r.push(ev(s, FlightKind::Write));
        }
        assert_eq!(r.buf.capacity(), FLIGHT_CAPACITY, "growth stops at the capacity");
        assert_eq!(r.len(), FLIGHT_CAPACITY);
        let seqs: Vec<u64> = r.to_vec().iter().map(|e| e.seq).collect();
        let want: Vec<u64> = (3..FLIGHT_CAPACITY as u64 + 3).collect();
        assert_eq!(seqs, want, "the oldest three were evicted");
        assert_eq!(r.last().unwrap().seq, FLIGHT_CAPACITY as u64 + 2);
    }

    #[test]
    fn jsonl_is_one_stable_object_per_line() {
        let events =
            vec![ev(1, FlightKind::Write), FlightEvent { seq: 2, kind: FlightKind::Crash, a: 2, b: 0 }];
        let s = render_jsonl(&events);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0], "{\"seq\":1,\"kind\":\"write\",\"a\":10,\"b\":0}");
        assert_eq!(lines[1], "{\"seq\":2,\"kind\":\"crash\",\"a\":2,\"b\":0}");
    }

    #[test]
    fn kind_names_are_stable() {
        assert_eq!(FlightKind::NtWrite.as_str(), "nt_write");
        assert_eq!(FlightKind::Prestore.as_str(), "prestore");
        assert_eq!(FlightKind::Crash.as_str(), "crash");
    }
}
