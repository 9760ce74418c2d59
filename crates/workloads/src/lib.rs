//! Trace-emitting workloads: the applications of the paper's evaluation.
//!
//! Every workload here is *functionally real* — the key-value stores store
//! and retrieve actual bytes, the FFT computes a verifiable transform, the
//! multigrid kernel smooths a real grid — while mirroring its logical
//! memory behaviour into per-thread [`simcore::ThreadTrace`]s. The same
//! trace is (a) replayed by the `machine` crate on Machine A / Machine B
//! models and (b) analysed by `dirtbuster`.
//!
//! Workload inventory (§7.1, Table 2):
//!
//! * [`microbench`] — Listings 1, 2 and 3 of the paper.
//! * [`tensor`] — an Eigen-style `TensorEvaluator` driven by a mini CNN
//!   training step (the `pts/tensorflow` stand-in).
//! * [`nas`] — nine NAS-benchmark mini-kernels (MG, FT, SP, BT, UA, IS,
//!   LU, EP, CG).
//! * [`kv`] — CLHT- and Masstree-style key-value stores under YCSB.
//! * [`x9`] — the X9 message-passing ring.
//! * [`phoronix`] — synthetic stand-ins for the non-write-intensive
//!   Phoronix applications of Table 2 (pytorch, numpy, lzma, ...), used to
//!   exercise DirtBuster's classifier.

pub mod kv;
pub mod microbench;
pub mod nas;
pub mod phoronix;
pub mod tensor;
pub mod x9;

use simcore::{FuncRegistry, TraceSet};

/// The product of running one workload: traces plus the registry that
/// resolves the "instruction pointers" in them, plus the number of
/// application-level operations performed (for throughput metrics).
#[derive(Debug)]
pub struct WorkloadOutput {
    /// Per-thread traces.
    pub traces: TraceSet,
    /// Function registry for DirtBuster reports.
    pub registry: FuncRegistry,
    /// Application-level operations performed (requests, messages,
    /// iterations — workload-defined).
    pub ops: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use prestore::PrestoreMode;

    /// Every workload must produce a non-empty trace in every mode, and a
    /// finished recording holds its events and no growth slack.
    #[test]
    fn all_workloads_produce_traces() {
        let ycsb = kv::ycsb::YcsbParams::quick();
        let outs: Vec<(&str, WorkloadOutput)> = vec![
            ("listing1", microbench::listing1(&microbench::Listing1Params::quick(), PrestoreMode::None)),
            ("listing2", microbench::listing2(&microbench::Listing2Params::quick(), false)),
            ("listing3", microbench::listing3(1000, false)),
            ("tensor", tensor::training_step(&tensor::TensorParams::quick(), PrestoreMode::None)),
            ("mg", nas::mg::run(&nas::mg::MgParams::quick(), PrestoreMode::None)),
            ("ft", nas::ft::run(&nas::ft::FtParams::quick(), PrestoreMode::None)),
            ("is", nas::is::run(&nas::is::IsParams::quick(), PrestoreMode::None)),
            ("x9", x9::run(&x9::X9Params::quick(), PrestoreMode::None)),
            ("clht", kv::ycsb::run_clht(&ycsb, PrestoreMode::None)),
            ("masstree", kv::ycsb::run_masstree(&ycsb, PrestoreMode::None)),
        ];
        for (name, out) in outs {
            assert!(out.traces.total_events() > 0, "{name} produced an empty trace");
            assert!(out.ops > 0, "{name} reported zero ops");
            for (tid, t) in out.traces.threads.iter().enumerate() {
                assert_eq!(t.events.capacity(), t.len(), "{name} thread {tid}");
            }
        }
    }
}
