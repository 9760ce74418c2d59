//! Machine assembly and trace-replay execution for the pre-stores
//! simulator.
//!
//! The crate exposes:
//!
//! * [`MachineConfig`] — descriptions of the paper's evaluation platforms:
//!   [`MachineConfig::machine_a`] (Xeon + Optane PMEM, §3 "Machine A") and
//!   [`MachineConfig::machine_b_fast`] / [`MachineConfig::machine_b_slow`]
//!   (ThunderX + FPGA, "Machine B"), plus DRAM and CXL-SSD variants.
//! * [`simulate`] — replay a [`simcore::TraceSet`] on a machine, producing
//!   [`RunStats`]: run time in cycles, fence/atomic stall breakdowns, cache
//!   counters and device-side write amplification.
//! * [`try_simulate`] — the panic-free pipeline: traces are statically
//!   validated, replay runs under a deadlock detector and a step-budget
//!   watchdog, and every failure is a typed [`EngineError`] instead of a
//!   panic or a hang. [`try_simulate_stream`] replays an
//!   [`simcore::EventSource`] chunk by chunk without materializing it, and
//!   [`Machine::try_run_until_crash`] / [`Machine::recover_and_resume`]
//!   inject power failures and recover from them. All of them step events
//!   through one scheduler loop.
//!
//! # Examples
//!
//! ```
//! use machine::{simulate_single, MachineConfig};
//! use simcore::Tracer;
//!
//! let mut t = Tracer::new();
//! for i in 0..1024u64 {
//!     t.write(i * 64, 64);
//! }
//! let stats = simulate_single(&MachineConfig::machine_a(), &t.finish());
//! assert!(stats.cycles > 0);
//! ```

pub mod config;
pub mod crash;
pub mod engine;
pub mod error;
mod prefetch;
mod probes;
pub mod report;
pub mod stats;
pub mod tables;

pub use config::{CostModel, MachineConfig, MemModel};
pub use crash::{render_flight_jsonl, CrashImage, CrashOutcome, CrashReport, LostSite};
pub use engine::{
    simulate, simulate_single, try_simulate, try_simulate_stream, try_simulate_stream_classified,
    try_simulate_stream_opts, try_simulate_threads, try_simulate_threads_classified,
    try_simulate_threads_reference, Machine, StreamOptions, StreamReport,
};
pub use error::{BlockedAcquire, EngineError};
pub use simcore::faultinject::CrashPlan;
pub use tables::MAX_CORES;
pub use stats::{
    ts_channel, CoreStats, RunStats, SiteCounters, SiteScore, TsWindow, TS_CAPACITY, TS_CHANNELS,
};
