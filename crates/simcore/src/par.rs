//! A small scoped-thread job pool with deterministic result collection.
//!
//! No external dependencies: plain `std::thread::scope` workers pulling
//! indices from a shared atomic counter (work-sharing). Results are
//! returned **in input order** regardless of which worker computed them,
//! so callers that serialize results (CSV/JSON writers) produce
//! byte-identical output at any parallelism level.
//!
//! Nested use is safe and bounded: a process-wide permit counter caps the
//! number of *extra* worker threads across all simultaneous [`map_indexed`]
//! calls, so an outer loop over experiments and inner loops over sweep
//! points share one budget instead of multiplying. When no permits are
//! available the calling thread simply runs its loop serially — same
//! results, no oversubscription. The pool never reads the clock to decide
//! where a job runs.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Telemetry probes for the pool (see [`crate::telemetry`]): one update
/// per map, per job or per supervision event, never per replayed event.
mod probes {
    use crate::telemetry::Metric;

    /// `map_indexed` calls.
    pub(super) static MAPS: Metric = Metric::counter("runner.maps");
    /// Jobs submitted across all maps.
    pub(super) static JOBS: Metric = Metric::counter("runner.jobs");
    /// Extra worker threads spawned (permits actually acquired).
    pub(super) static HELPERS: Metric = Metric::counter("runner.helpers_spawned");
    /// Multi-job maps that ran serially because the permit budget was
    /// exhausted — the pool's contention signal.
    pub(super) static SERIAL_FALLBACKS: Metric = Metric::counter("runner.serial_fallbacks");
    /// The budget configured by the last `set_parallelism` call.
    pub(super) static CONFIGURED_JOBS: Metric = Metric::gauge("runner.configured_jobs");
    /// Time from map start to each job being picked up (queue wait).
    pub(super) static JOB_QUEUE_WAIT: Metric = Metric::span("runner.job_queue_wait");
    /// Time spent inside each job body.
    pub(super) static JOB_RUN: Metric = Metric::span("runner.job_run");
    /// Supervised jobs that panicked (counted once per panic, including
    /// panics that a retry later recovered from).
    pub(super) static JOB_PANICS: Metric = Metric::counter("runner.job_panics");
    /// Supervised jobs retried after a panic.
    pub(super) static JOB_RETRIES: Metric = Metric::counter("runner.job_retries");
    /// Supervised jobs that finished but blew their soft deadline.
    pub(super) static JOB_DEADLINE_MISSES: Metric = Metric::counter("runner.job_deadline_misses");
}

/// Extra worker threads currently allowed process-wide (budget minus
/// threads running). The calling thread never needs a permit.
static EXTRA_PERMITS: AtomicUsize = AtomicUsize::new(0);

/// The budget configured by [`set_parallelism`] (for reporting).
static CONFIGURED: AtomicUsize = AtomicUsize::new(1);

/// The number of hardware threads, or 1 when it cannot be determined.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Set the process-wide parallelism budget to `jobs` total threads
/// (`jobs = 1` disables threading entirely). Call once, before spawning
/// parallel work; calling while maps are in flight skews the budget.
pub fn set_parallelism(jobs: usize) {
    let jobs = jobs.max(1);
    CONFIGURED.store(jobs, Ordering::Relaxed);
    EXTRA_PERMITS.store(jobs - 1, Ordering::Relaxed);
    probes::CONFIGURED_JOBS.set(jobs as u64);
}

/// The budget configured by the last [`set_parallelism`] call (default 1).
pub fn parallelism() -> usize {
    CONFIGURED.load(Ordering::Relaxed)
}

/// Take up to `want` extra-worker permits from the global budget.
fn acquire_permits(want: usize) -> usize {
    let mut cur = EXTRA_PERMITS.load(Ordering::Relaxed);
    loop {
        let take = want.min(cur);
        if take == 0 {
            return 0;
        }
        match EXTRA_PERMITS.compare_exchange_weak(
            cur,
            cur - take,
            Ordering::Relaxed,
            Ordering::Relaxed,
        ) {
            Ok(_) => return take,
            Err(seen) => cur = seen,
        }
    }
}

fn release_permits(n: usize) {
    if n > 0 {
        EXTRA_PERMITS.fetch_add(n, Ordering::Relaxed);
    }
}

/// Returns the held permits on drop, so a panic unwinding out of
/// [`map_indexed`] (a panicking job body re-raised by the scope join)
/// cannot leak them and permanently shrink the process-wide budget.
struct PermitGuard(usize);

impl Drop for PermitGuard {
    fn drop(&mut self) {
        release_permits(self.0);
    }
}

/// Evaluate `f(0..n)` and return the results in index order.
///
/// Runs on the calling thread plus however many extra workers the global
/// budget currently allows (possibly none). `f` must be deterministic for
/// the output to be; the pool itself never reorders results.
///
/// # Examples
///
/// ```
/// simcore::par::set_parallelism(4);
/// let squares = simcore::par::map_indexed(5, |i| i * i);
/// assert_eq!(squares, vec![0, 1, 4, 9, 16]);
/// ```
pub fn map_indexed<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    probes::MAPS.inc();
    probes::JOBS.add(n as u64);
    let run_job = |i: usize| {
        let _timed = crate::telemetry::span(&probes::JOB_RUN);
        f(i)
    };
    if n <= 1 {
        return (0..n).map(run_job).collect();
    }
    let helpers = acquire_permits(n - 1);
    if helpers == 0 {
        probes::SERIAL_FALLBACKS.inc();
        return (0..n).map(run_job).collect();
    }
    probes::HELPERS.add(helpers as u64);
    let _permits = PermitGuard(helpers);
    let queue_start = std::time::Instant::now();
    let next = AtomicUsize::new(0);
    let worker = |out: &mut Vec<(usize, T)>| loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        probes::JOB_QUEUE_WAIT.record_ns(queue_start.elapsed().as_nanos() as u64);
        out.push((i, run_job(i)));
    };
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..helpers)
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    worker(&mut out);
                    out
                })
            })
            .collect();
        let mut own = Vec::new();
        worker(&mut own);
        for (i, v) in own {
            slots[i] = Some(v);
        }
        for h in handles {
            // A panicking job body unwinds the worker; re-raise it here so
            // the caller sees the original panic. The `PermitGuard` above
            // (and the scope itself, which joins remaining workers) keep
            // the permit budget and thread accounting intact either way.
            match h.join() {
                Ok(out) => {
                    for (i, v) in out {
                        slots[i] = Some(v);
                    }
                }
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("every index computed exactly once"))
        .collect()
}

/// How [`supervised_map`] handles misbehaving jobs: a soft per-job
/// deadline and a bounded number of retries after a panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Supervision {
    /// Soft wall-clock deadline per job. Checked *after* the job body
    /// returns (jobs are never interrupted mid-flight — replay is pure
    /// CPU work with no cancellation points), so an over-budget job still
    /// runs to completion but its result is discarded and reported as
    /// [`JobFailure::DeadlineExceeded`]. `None` disables the check.
    pub deadline: Option<std::time::Duration>,
    /// Retries after a panic before giving up. The job body receives the
    /// attempt number, so retried runs can reseed themselves.
    pub retries: u32,
}

impl Default for Supervision {
    /// No deadline, one retry after a panic.
    fn default() -> Self {
        Self { deadline: None, retries: 1 }
    }
}

/// Why a supervised job's result is missing. This is the failed job's
/// whole trail: the attempts it made and its last panic, or the time it
/// took against its deadline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobFailure {
    /// Every attempt panicked; `message` is the last panic's payload.
    Panicked {
        /// Rendered payload of the final panic.
        message: String,
        /// Attempts made (1 + retries).
        attempts: u32,
    },
    /// The job finished but took longer than the soft deadline.
    DeadlineExceeded {
        /// Wall-clock the job actually took, in milliseconds.
        elapsed_ms: u64,
        /// The configured soft deadline, in milliseconds.
        deadline_ms: u64,
    },
}

impl std::fmt::Display for JobFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobFailure::Panicked { message, attempts } => {
                write!(f, "panicked on all {attempts} attempt(s): {message}")
            }
            JobFailure::DeadlineExceeded { elapsed_ms, deadline_ms } => {
                write!(f, "exceeded soft deadline: ran {elapsed_ms} ms, budget {deadline_ms} ms")
            }
        }
    }
}

impl std::error::Error for JobFailure {}

/// Render a panic payload into a human-readable message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// [`map_indexed`] with fail-soft jobs: each job runs under
/// `catch_unwind`, panics are retried up to `sup.retries` times, and
/// jobs that panic every attempt or overrun the soft deadline yield a
/// typed [`JobFailure`] instead of tearing down the whole map.
///
/// The job body receives `(index, attempt)`; `attempt` starts at 0 and
/// increments per retry so stochastic jobs can reseed. Results keep input
/// order, like [`map_indexed`].
///
/// # Examples
///
/// ```
/// use simcore::par::{supervised_map, JobFailure, Supervision};
/// let r = supervised_map(3, Supervision::default(), |i, _attempt| {
///     if i == 1 { panic!("job {i} is broken") }
///     i * 10
/// });
/// assert_eq!(r[0], Ok(0));
/// assert!(matches!(r[1], Err(JobFailure::Panicked { .. })));
/// assert_eq!(r[2], Ok(20));
/// ```
pub fn supervised_map<T, F>(n: usize, sup: Supervision, f: F) -> Vec<Result<T, JobFailure>>
where
    T: Send,
    F: Fn(usize, u32) -> T + Sync,
{
    map_indexed(n, |i| {
        let mut attempt = 0u32;
        loop {
            let start = std::time::Instant::now();
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(i, attempt))) {
                Ok(v) => {
                    if let Some(deadline) = sup.deadline {
                        let elapsed = start.elapsed();
                        if elapsed > deadline {
                            probes::JOB_DEADLINE_MISSES.inc();
                            return Err(JobFailure::DeadlineExceeded {
                                elapsed_ms: u64::try_from(elapsed.as_millis())
                                    .unwrap_or(u64::MAX),
                                deadline_ms: u64::try_from(deadline.as_millis())
                                    .unwrap_or(u64::MAX),
                            });
                        }
                    }
                    return Ok(v);
                }
                Err(payload) => {
                    probes::JOB_PANICS.inc();
                    if attempt >= sup.retries {
                        return Err(JobFailure::Panicked {
                            message: panic_message(&*payload),
                            attempts: attempt + 1,
                        });
                    }
                    probes::JOB_RETRIES.inc();
                    attempt += 1;
                }
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The budget is process-global; serialize the tests that change it.
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn serial_budget_runs_inline() {
        let _g = LOCK.lock().expect("no test panicked while holding the budget lock");
        set_parallelism(1);
        let v = map_indexed(8, |i| i + 1);
        assert_eq!(v, vec![1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn parallel_results_keep_input_order() {
        let _g = LOCK.lock().expect("no test panicked while holding the budget lock");
        set_parallelism(4);
        // Uneven per-item cost to force out-of-order completion.
        let v = map_indexed(64, |i| {
            if i % 7 == 0 {
                std::thread::yield_now();
            }
            i * 3
        });
        assert_eq!(v, (0..64).map(|i| i * 3).collect::<Vec<_>>());
        set_parallelism(1);
    }

    #[test]
    fn nested_maps_share_the_budget_and_stay_ordered() {
        let _g = LOCK.lock().expect("no test panicked while holding the budget lock");
        set_parallelism(3);
        let v = map_indexed(4, |i| map_indexed(4, move |j| i * 10 + j));
        for (i, inner) in v.into_iter().enumerate() {
            assert_eq!(inner, (0..4).map(|j| i * 10 + j).collect::<Vec<_>>());
        }
        // All permits returned.
        assert_eq!(EXTRA_PERMITS.load(Ordering::Relaxed), 2);
        set_parallelism(1);
    }

    #[test]
    fn empty_and_single_inputs() {
        let _g = LOCK.lock().expect("no test panicked while holding the budget lock");
        set_parallelism(2);
        assert_eq!(map_indexed(0, |i| i), Vec::<usize>::new());
        assert_eq!(map_indexed(1, |i| i), vec![0]);
        set_parallelism(1);
    }

    #[test]
    fn panicking_job_does_not_leak_permits() {
        let _g = LOCK.lock().expect("no test panicked while holding the budget lock");
        set_parallelism(4);
        // An unsupervised map re-raises the job panic — but the permit
        // guard must still return every permit, or the budget shrinks for
        // the rest of the process.
        let result = std::panic::catch_unwind(|| {
            map_indexed(8, |i| {
                if i == 5 {
                    panic!("deliberate test panic in job {i}")
                }
                i
            })
        });
        assert!(result.is_err(), "the job panic must propagate to the caller");
        assert_eq!(EXTRA_PERMITS.load(Ordering::Relaxed), 3, "permits leaked");
        // The pool is still fully usable afterwards.
        assert_eq!(map_indexed(4, |i| i * 2), vec![0, 2, 4, 6]);
        assert_eq!(EXTRA_PERMITS.load(Ordering::Relaxed), 3);
        set_parallelism(1);
    }

    #[test]
    fn supervised_panics_surface_as_failures_and_keep_the_budget() {
        let _g = LOCK.lock().expect("no test panicked while holding the budget lock");
        set_parallelism(4);
        let sup = Supervision { deadline: None, retries: 2 };
        let r = supervised_map(8, sup, |i, _attempt| {
            if i % 3 == 0 {
                panic!("job {i} dies")
            }
            i
        });
        for (i, res) in r.iter().enumerate() {
            if i % 3 == 0 {
                match res {
                    Err(JobFailure::Panicked { message, attempts }) => {
                        assert_eq!(*attempts, 3, "1 try + 2 retries");
                        assert!(message.contains(&format!("job {i} dies")), "{message}");
                    }
                    other => panic!("job {i} yielded {other:?}"),
                }
            } else {
                assert_eq!(*res, Ok(i));
            }
        }
        assert_eq!(EXTRA_PERMITS.load(Ordering::Relaxed), 3, "permits leaked");
        set_parallelism(1);
    }

    #[test]
    fn supervised_retry_recovers_flaky_jobs() {
        let _g = LOCK.lock().expect("no test panicked while holding the budget lock");
        set_parallelism(2);
        // Every job panics on its first attempt and succeeds on retry;
        // the attempt number is how jobs would reseed themselves.
        let r = supervised_map(4, Supervision::default(), |i, attempt| {
            if attempt == 0 {
                panic!("flaky first attempt")
            }
            (i, attempt)
        });
        assert_eq!(r, (0..4).map(|i| Ok((i, 1))).collect::<Vec<_>>());
        assert_eq!(EXTRA_PERMITS.load(Ordering::Relaxed), 1);
        set_parallelism(1);
    }

    #[test]
    fn supervised_deadline_miss_is_reported_not_fatal() {
        let _g = LOCK.lock().expect("no test panicked while holding the budget lock");
        set_parallelism(2);
        let sup = Supervision {
            deadline: Some(std::time::Duration::from_millis(5)),
            retries: 0,
        };
        let r = supervised_map(3, sup, |i, _attempt| {
            if i == 1 {
                std::thread::sleep(std::time::Duration::from_millis(40));
            }
            i
        });
        assert_eq!(r[0], Ok(0));
        match &r[1] {
            Err(JobFailure::DeadlineExceeded { elapsed_ms, deadline_ms }) => {
                assert_eq!(*deadline_ms, 5);
                assert!(*elapsed_ms >= *deadline_ms, "{elapsed_ms} < {deadline_ms}");
            }
            other => panic!("over-budget job yielded {other:?}"),
        }
        assert_eq!(r[2], Ok(2));
        assert_eq!(EXTRA_PERMITS.load(Ordering::Relaxed), 1, "permits leaked");
        set_parallelism(1);
    }

    #[test]
    fn job_failures_render() {
        let p = JobFailure::Panicked { message: "boom".into(), attempts: 2 };
        assert!(p.to_string().contains("boom"));
        let d = JobFailure::DeadlineExceeded { elapsed_ms: 120, deadline_ms: 100 };
        assert!(d.to_string().contains("120"));
    }
}
