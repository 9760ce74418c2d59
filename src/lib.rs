//! Facade crate for the Pre-Stores reproduction.
//!
//! Re-exports the public API of every workspace crate so that examples and
//! downstream users can depend on a single crate:
//!
//! * [`simcore`] — traces, tracer, address space, deterministic RNG.
//! * [`cachesim`] — cache models, replacement policies, store buffer.
//! * [`memdev`] — the device model, with DRAM / Optane PMEM / FPGA / CXL SSD
//!   presets.
//! * [`machine`] — Machine A / Machine B assemblies and the replay engine.
//! * [`prestore`] — the pre-store API (the paper's core contribution).
//! * [`dirtbuster`] — the DirtBuster analysis tool.
//! * [`workloads`] — trace-emitting benchmark applications.

pub use cachesim;
pub use dirtbuster;
pub use machine;
pub use memdev;
pub use prestore;
pub use simcore;
pub use workloads;
