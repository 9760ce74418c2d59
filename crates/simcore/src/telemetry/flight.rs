//! Flight recorder: a bounded ring of recent events for post-mortem
//! dumps.
//!
//! When a replay crashes (deliberately, via a `CrashPlan`) or a
//! supervised sweep job dies, the end-of-run aggregates say *what* broke
//! but not *what led up to it*. A [`FlightRing`] keeps the last N events
//! at O(1) amortized cost per event, its buffer growing toward N only as
//! events arrive, so the crash path can dump "the last 10k things that
//! happened" next to the crash report while a replay that crashes early
//! holds only the events it recorded.
//!
//! Two rings exist in practice:
//!
//! * **Engine-local** — the replay engine records one [`FlightEvent`]
//!   per retired trace event while a crash plan is armed, stamped with
//!   the engine's own step counter. Pure simulated state, no wall-clock:
//!   the dump is byte-identical across builds and determinism axes, and
//!   its last event is the crash itself.
//! * **Process-global** ([`note`]) — supervised-job markers (start,
//!   retry, failure, completion) from the sweep runner, and nothing else,
//!   stamped with a global sequence number. Cheap because jobs are
//!   experiment-granular, and allocated only by a process that supervises
//!   jobs; dumped by `figures` only when a job actually fails. Replays
//!   note nothing here: a marker per streamed refill would push the job
//!   markers out of the ring.
//!
//! Neither ring is part of the metrics registry: like
//! [`super::SiteTable`], the cost is paid only by callers that use it.

use std::sync::Mutex;

/// Default ring capacity: "the last 10k events".
pub const FLIGHT_CAPACITY: usize = 10_000;

/// What a [`FlightEvent`] records. Trace-event kinds mirror
/// `simcore::event::EventKind`; the rest are engine milestones and sweep
/// runner markers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightKind {
    /// A retired read; `a` = address, `b` = core clock after retire.
    Read,
    /// A retired write; `a` = address, `b` = core clock after retire.
    Write,
    /// A retired non-temporal write.
    NtWrite,
    /// A retired fence; `a` = core id, `b` = clock after the drain.
    Fence,
    /// A retired atomic RMW.
    Atomic,
    /// A retired acquire.
    Acquire,
    /// A retired release.
    Release,
    /// A retired pre-store; `a` = address.
    Prestore,
    /// The injected crash fired; `a` = the frozen step.
    Crash,
    /// A supervised job started; `a` = job index, `b` = attempt.
    JobStart,
    /// A supervised job panicked and will be retried.
    JobRetry,
    /// A supervised job failed terminally; `a` = job index.
    JobFail,
    /// A supervised job completed; `a` = job index.
    JobDone,
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
            FlightKind::Release => "release",
            FlightKind::Prestore => "prestore",
            FlightKind::Crash => "crash",
            FlightKind::JobStart => "job_start",
            FlightKind::JobRetry => "job_retry",
            FlightKind::JobFail => "job_fail",
            FlightKind::JobDone => "job_done",
        }
    }
}

/// One recorded event: a monotone sequence stamp (engine step, or global
/// sequence for the process ring) plus two kind-specific operands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    /// Engine step (engine-local ring) or global sequence number
    /// (process ring). Monotone within a ring.
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
/// assert_eq!(ring.total(), 5);
/// ```
#[derive(Debug, Clone)]
pub struct FlightRing {
    buf: Vec<FlightEvent>,
    /// Most events retained; `buf` holds fewer until it first wraps.
    capacity: usize,
    head: usize,
    total: u64,
}

impl FlightRing {
    /// A ring retaining at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "flight ring capacity must be positive");
        Self { buf: Vec::new(), capacity, head: 0, total: 0 }
    }

    /// Record one event, evicting the oldest when full.
    #[inline]
    pub fn push(&mut self, ev: FlightEvent) {
        self.total += 1;
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

    /// Total events ever pushed (including evicted ones).
    pub fn total(&self) -> u64 {
        self.total
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

    /// Forget everything, keeping the allocation.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.head = 0;
        self.total = 0;
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

/// The process-global ring fed by [`note`]: the sweep runner's
/// supervised-job markers.
static GLOBAL: Mutex<Option<FlightRing>> = Mutex::new(None);

/// Record a marker in the process-global ring, stamping it with a global
/// sequence number. Intended for supervised-job lifecycle events, not for
/// replay progress — each call takes a lock.
pub fn note(kind: FlightKind, a: u64, b: u64) {
    let mut guard = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    let ring = guard.get_or_insert_with(|| FlightRing::new(FLIGHT_CAPACITY));
    let seq = ring.total();
    ring.push(FlightEvent { seq, kind, a, b });
}

/// Snapshot of the process-global ring, oldest first (empty if nothing
/// was ever noted).
pub fn global_snapshot() -> Vec<FlightEvent> {
    let guard = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    guard.as_ref().map(|r| r.to_vec()).unwrap_or_default()
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
        assert_eq!(r.total(), 7);
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
        assert_eq!(r.total(), FLIGHT_CAPACITY as u64 + 3);
        let seqs: Vec<u64> = r.to_vec().iter().map(|e| e.seq).collect();
        let want: Vec<u64> = (3..FLIGHT_CAPACITY as u64 + 3).collect();
        assert_eq!(seqs, want, "the oldest three were evicted");
        assert_eq!(r.last().unwrap().seq, FLIGHT_CAPACITY as u64 + 2);
    }

    #[test]
    fn clear_resets_but_keeps_capacity() {
        let mut r = FlightRing::new(2);
        r.push(ev(1, FlightKind::Fence));
        r.push(ev(2, FlightKind::Fence));
        r.push(ev(3, FlightKind::Fence));
        r.clear();
        assert!(r.is_empty());
        assert_eq!(r.total(), 0);
        r.push(ev(9, FlightKind::Atomic));
        assert_eq!(r.to_vec().len(), 1);
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
    fn global_ring_notes_and_snapshots() {
        note(FlightKind::JobStart, 42, 1);
        note(FlightKind::JobDone, 42, 0);
        let snap = global_snapshot();
        assert!(snap.len() >= 2);
        let start = snap.iter().find(|e| e.kind == FlightKind::JobStart && e.a == 42).unwrap();
        let done = snap.iter().find(|e| e.kind == FlightKind::JobDone && e.a == 42).unwrap();
        assert!(start.seq < done.seq);
    }

    #[test]
    fn kind_names_are_stable() {
        assert_eq!(FlightKind::NtWrite.as_str(), "nt_write");
        assert_eq!(FlightKind::JobRetry.as_str(), "job_retry");
        assert_eq!(FlightKind::Crash.as_str(), "crash");
    }
}
