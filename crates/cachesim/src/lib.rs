//! Cache models for the pre-stores simulator.
//!
//! This crate provides the hardware structures whose behaviour the paper's
//! two problem scenarios hinge on:
//!
//! * [`Cache`] — a set-associative, write-back/write-allocate cache with
//!   configurable line size and pluggable [`replacement`] policies. Modern
//!   LLCs evict in a pseudo-random order (§4.1); the tree-PLRU and random
//!   policies reproduce that, which is what turns sequential application
//!   writes into non-sequential device writes and causes write
//!   amplification on large-granularity memories.
//! * [`StoreBuffer`] — the private CPU buffer that holds retired stores
//!   before they become globally visible (§4.2). Under a weak memory model
//!   the buffer drains lazily, so a fence pays the full
//!   ownership-acquisition latency "at the last minute"; a *demote*
//!   pre-store starts the drain early.
//! * [`WriteCombiningBuffer`] — the buffer through which *clean*
//!   pre-stores and non-temporal stores reach memory in program order.

pub mod cache;
pub mod replacement;
pub mod storebuf;
pub mod wcbuf;

pub use cache::{AccessOutcome, Cache, CacheConfig, CacheStats, Victim};
pub use replacement::ReplacementKind;
pub use storebuf::{SbEntry, StoreBuffer, StoreBufferOverflow};
pub use wcbuf::WriteCombiningBuffer;
