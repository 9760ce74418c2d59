//! Typed replay-engine errors.
//!
//! [`EngineError`] is the single error type of the replay pipeline: trace
//! validation failures ([`simcore::ValidateError`]) are wrapped, and the
//! runtime failure modes of the engine itself — deadlocked acquires, a
//! tripped step-budget watchdog, store-buffer state corruption — are
//! reported with enough structure to name the blocked core, line and
//! sequence number instead of a bare panic message.
//!
//! The panicking entry points ([`crate::simulate`],
//! [`crate::simulate_single`]) format an [`EngineError`] into their panic
//! payload, so the legacy behaviour (and the `"deadlock"` substring tests
//! match on) is preserved while [`crate::try_simulate`] and the other
//! fallible entry points return the typed value.

use simcore::{Addr, CoreId, ValidateError};
use std::fmt;

/// One core stuck on an acquire: `(core, line, awaited release sequence)`.
pub type BlockedAcquire = (CoreId, Addr, u64);

/// Why a replay could not produce [`crate::RunStats`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The trace set has no threads; there is nothing to replay.
    EmptyTraceSet,
    /// The trace set has more threads than the engine can name as cores:
    /// each thread replays on its own core, and the per-line dirty-owner
    /// field holds [`crate::MAX_CORES`] core ids.
    TooManyCores {
        /// Threads in the trace set (one core each).
        cores: usize,
        /// The most cores a replay may have.
        limit: usize,
    },
    /// The trace set failed static validation (zero-size or implausibly
    /// large accesses, acquires of release #0).
    MalformedTrace(ValidateError),
    /// An acquire waits for more releases of its line than the whole
    /// trace set performs: replay would inevitably deadlock. Detected
    /// statically, before any cycle is simulated.
    AcquireUnsatisfiable {
        /// Thread/core containing the acquire.
        core: CoreId,
        /// Index of the event within the thread.
        index: usize,
        /// The line (aligned address) being acquired.
        line: Addr,
        /// The release sequence number the acquire waits for.
        seq: u32,
        /// How many atomics actually target the line.
        available: u32,
    },
    /// Every remaining core is blocked on an acquire whose release can no
    /// longer happen: the classic circular wait, detected at replay time.
    ReplayDeadlock {
        /// The stuck cores: `(core, line, awaited sequence)`.
        blocked: Vec<BlockedAcquire>,
    },
    /// The progress watchdog fired: the engine executed more steps than
    /// the configured (or derived) budget allows. See
    /// [`crate::MachineConfig::step_budget`].
    StepBudgetExceeded {
        /// Steps executed when the watchdog fired.
        steps: u64,
        /// The budget that was exceeded.
        budget: u64,
        /// Cores blocked on acquires at that moment.
        blocked: Vec<BlockedAcquire>,
        /// Per-core replay progress: `(core, next event, events)`. The
        /// third field is the thread's total event count on materialized
        /// input; on a streamed replay it is the number of the thread's
        /// events fetched so far.
        progress: Vec<(CoreId, usize, usize)>,
    },
    /// A crash image from [`crate::Machine::try_run_until_crash`] was
    /// handed to [`crate::Machine::recover_and_resume`] with a trace set
    /// of a different shape: recovery replays the *same* trace the crash
    /// interrupted, so the per-core resume points must line up.
    CrashImageMismatch {
        /// Cores recorded in the crash image.
        image_cores: usize,
        /// Threads in the trace set being resumed.
        trace_threads: usize,
    },
    /// A crash image was handed to [`crate::Machine::recover_and_resume`]
    /// on a machine with a different cache-line size: the image's lost,
    /// durable and released lines are the crashed machine's lines.
    CrashImageLineSize {
        /// Line size recorded in the crash image, in bytes.
        image_line_size: u64,
        /// Line size of the machine asked to resume, in bytes.
        machine_line_size: u64,
    },
    /// A store could not be placed because the core's store buffer was
    /// full even after a forced head drain — engine state corruption,
    /// reported instead of asserted.
    StoreBufferOverflow {
        /// The core whose buffer overflowed.
        core: CoreId,
        /// The line being stored.
        line: Addr,
        /// The buffer's capacity in entries.
        capacity: usize,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::EmptyTraceSet => write!(f, "empty trace set: nothing to replay"),
            EngineError::TooManyCores { cores, limit } => write!(
                f,
                "too many cores: the trace set has {cores} threads, but a replay \
                 holds at most {limit} cores"
            ),
            EngineError::MalformedTrace(e) => write!(f, "malformed trace: {e}"),
            EngineError::AcquireUnsatisfiable { core, index, line, seq, available } => write!(
                f,
                "unsatisfiable acquire: core {core} event {index} waits for release #{seq} \
                 of line {line:#x}, but only {available} atomics target it \
                 (replay would deadlock)"
            ),
            EngineError::ReplayDeadlock { blocked } => {
                write!(f, "replay deadlock: {} core(s) blocked on acquires:", blocked.len())?;
                for (core, line, seq) in blocked {
                    write!(f, " core {core} waits for release #{seq} of line {line:#x};")?;
                }
                Ok(())
            }
            EngineError::StepBudgetExceeded { steps, budget, blocked, progress } => {
                let replayed: usize = progress.iter().map(|&(_, pc, _)| pc).sum();
                let total: usize = progress.iter().map(|&(_, _, n)| n).sum();
                write!(
                    f,
                    "step budget exceeded: {steps} steps > budget {budget}, \
                     {replayed}/{total} events replayed"
                )?;
                if !blocked.is_empty() {
                    write!(f, ", {} core(s) blocked on acquires:", blocked.len())?;
                    for (core, line, seq) in blocked {
                        write!(f, " core {core} waits for release #{seq} of line {line:#x};")?;
                    }
                }
                Ok(())
            }
            EngineError::CrashImageMismatch { image_cores, trace_threads } => write!(
                f,
                "crash image mismatch: image records {image_cores} core(s) but the trace \
                 set being resumed has {trace_threads} thread(s)"
            ),
            EngineError::CrashImageLineSize { image_line_size, machine_line_size } => write!(
                f,
                "crash image mismatch: image was recorded with {image_line_size} B lines but \
                 the resuming machine uses {machine_line_size} B lines"
            ),
            EngineError::StoreBufferOverflow { core, line, capacity } => write!(
                f,
                "store buffer overflow on core {core}: no room for line {line:#x} \
                 in {capacity} entries even after a forced drain"
            ),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::MalformedTrace(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ValidateError> for EngineError {
    /// Wrap a validation failure; unsatisfiable acquires get their own
    /// variant so consumers can match the deadlock family directly.
    fn from(e: ValidateError) -> Self {
        match e {
            ValidateError::AcquireUnsatisfiable { thread, index, line, seq, available } => {
                EngineError::AcquireUnsatisfiable { core: thread, index, line, seq, available }
            }
            other => EngineError::MalformedTrace(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::EventKind;

    #[test]
    fn deadlock_display_names_core_line_and_sequence() {
        let e = EngineError::ReplayDeadlock { blocked: vec![(1, 0x1000, 3), (2, 0x2000, 7)] };
        let msg = e.to_string();
        assert!(msg.contains("deadlock"), "{msg}");
        assert!(msg.contains("core 1"), "{msg}");
        assert!(msg.contains("0x1000"), "{msg}");
        assert!(msg.contains("#3"), "{msg}");
        assert!(msg.contains("core 2"), "{msg}");
    }

    #[test]
    fn watchdog_display_summarizes_progress() {
        let e = EngineError::StepBudgetExceeded {
            steps: 1001,
            budget: 1000,
            blocked: vec![(0, 0x40, 2)],
            progress: vec![(0, 5, 10), (1, 10, 10)],
        };
        let msg = e.to_string();
        assert!(msg.contains("1001"), "{msg}");
        assert!(msg.contains("budget 1000"), "{msg}");
        assert!(msg.contains("15/20"), "{msg}");
        assert!(msg.contains("core 0"), "{msg}");
    }

    #[test]
    fn too_many_cores_display_names_count_and_limit() {
        let msg = EngineError::TooManyCores { cores: 300, limit: 256 }.to_string();
        assert!(msg.contains("300 threads"), "{msg}");
        assert!(msg.contains("at most 256 cores"), "{msg}");
    }

    #[test]
    fn unsatisfiable_validate_error_maps_to_its_own_variant() {
        let v = ValidateError::AcquireUnsatisfiable {
            thread: 2,
            index: 9,
            line: 0x80,
            seq: 4,
            available: 1,
        };
        assert_eq!(
            EngineError::from(v),
            EngineError::AcquireUnsatisfiable { core: 2, index: 9, line: 0x80, seq: 4, available: 1 }
        );
        let z = ValidateError::ZeroSizeAccess { thread: 0, index: 0, kind: EventKind::Read, addr: 0 };
        assert_eq!(EngineError::from(z), EngineError::MalformedTrace(z));
    }

    #[test]
    fn source_chains_to_validate_error() {
        use std::error::Error;
        let z = ValidateError::ZeroSizeAccess { thread: 0, index: 0, kind: EventKind::Write, addr: 4 };
        let e = EngineError::MalformedTrace(z);
        assert!(e.source().is_some());
        assert!(EngineError::EmptyTraceSet.source().is_none());
    }
}
