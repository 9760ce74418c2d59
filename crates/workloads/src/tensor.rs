//! An Eigen-style tensor evaluator — the TensorFlow workload (§7.2.1).
//!
//! The paper's hot function is the templated
//! `Eigen::TensorEvaluator<...<op>...>::run()`, a manually unrolled packet
//! loop that evaluates an elementwise expression and writes the result
//! tensor (Listing 4). Two properties drive the pre-store analysis:
//!
//! * The same template serves both huge activation tensors (16.2 MB,
//!   written once, never re-used) and tiny bias tensors (240 B, re-read by
//!   the next operation ~2 instructions later). The tiny tensors dominate
//!   the *write count* (60%), which is why DirtBuster recommends `clean`
//!   rather than `skip` — a developer looking only at the big tensors would
//!   pick non-temporal stores and lose 20%.
//! * `evalPacket` *reads a previously written packet* of the destination
//!   (`a[x] = f(a[x - 4*PacketSize])`), so skipping the cache forces those
//!   dependent loads to come from memory.
//!
//! The evaluator below is functionally real: it computes elementwise sums /
//! products over `f32` data (verified by unit tests) while emitting the
//! corresponding trace events.

use crate::WorkloadOutput;
use prestore::{PrestoreMode, PrestoreOp};
use simcore::{Addr, AddressSpace, FuncId, FuncRegistry, TraceSet, Tracer};

/// SIMD packet width in `f32` lanes (AVX: 8 lanes = 32 bytes).
pub const PACKET: usize = 8;

/// Bytes covered by one unrolled group of four packets.
pub const GROUP_BYTES: u64 = (4 * PACKET * 4) as u64;

/// How often an unrolled group reads the previously-written destination
/// packet (`1` = every group, as in the paper's `evalPacket`, which starts
/// by loading the packet written `4*PacketSize` earlier).
const DEP_LOAD_EVERY: u64 = 1;

/// A tensor: simulated address range plus real data.
#[derive(Debug, Clone)]
pub struct Tensor {
    /// Base simulated address (element `i` lives at `base + 4 * i`).
    pub base: Addr,
    /// The actual values.
    pub data: Vec<f32>,
}

impl Tensor {
    /// Allocate a tensor of `len` elements filled with `fill`.
    pub fn new(space: &mut AddressSpace, name: &str, len: usize, fill: f32) -> Self {
        let base = space.alloc(name, (len * 4) as u64, 64);
        Self { base, data: vec![fill; len] }
    }

    /// Length in elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Size in bytes.
    pub fn bytes(&self) -> u64 {
        (self.data.len() * 4) as u64
    }
}

/// The elementwise operation evaluated over packets, mirroring Eigen's
/// `scalar_sum_op` / `scalar_product_op` template parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TensorOp {
    /// `dst[i] = a[i] + b[i]`.
    Sum,
    /// `dst[i] = a[i] * b[i]`.
    Product,
    /// `dst[i] = a[i] + 0.5 * dst[i - 4*PACKET]` — the self-dependent form
    /// the paper describes for `evalPacket`.
    SumWithPrev,
}

/// The Eigen-style evaluator.
///
/// `run` evaluates `op` over `a` (and `b` where applicable) into `dst`,
/// emitting one read/compute/write event group per 128 B of output, plus
/// the configured pre-store. The trace is attributed to a single function
/// id — the evaluator is "templated", all instantiations share the
/// instruction pointer, exactly the situation DirtBuster faces in §7.2.1.
#[derive(Debug)]
pub struct TensorEvaluator {
    /// The evaluator's function id in the registry.
    pub func: FuncId,
}

impl TensorEvaluator {
    /// Register the evaluator function.
    pub fn new(registry: &mut FuncRegistry) -> Self {
        Self {
            func: registry.register(
                "Eigen::TensorEvaluator<...<op>...>::run",
                "TensorExecutor.h",
                272,
            ),
        }
    }

    /// Evaluate `op` into `dst`.
    ///
    /// # Panics
    ///
    /// Panics if the tensors disagree in length.
    pub fn run(
        &self,
        t: &mut Tracer,
        dst: &mut Tensor,
        a: &Tensor,
        b: &Tensor,
        op: TensorOp,
        mode: PrestoreMode,
    ) {
        let n = dst.len();
        self.run_slice(t, dst, a, b, op, mode, 0, n);
    }

    /// Evaluate `op` over the element range `[lo, hi)` only — the slice an
    /// intra-op worker thread handles.
    ///
    /// # Panics
    ///
    /// Panics if the tensors disagree in length or the range is invalid.
    #[allow(clippy::too_many_arguments)]
    pub fn run_slice(
        &self,
        t: &mut Tracer,
        dst: &mut Tensor,
        a: &Tensor,
        b: &Tensor,
        op: TensorOp,
        mode: PrestoreMode,
        lo: usize,
        hi: usize,
    ) {
        assert_eq!(dst.len(), a.len(), "shape mismatch");
        assert_eq!(dst.len(), b.len(), "shape mismatch");
        assert!(lo <= hi && hi <= dst.len(), "invalid slice");
        let mut g = t.enter(self.func);
        let n = hi;
        let group_elems = 4 * PACKET;
        let mut group_idx = 0u64;
        let mut i = lo;
        while i < n {
            let count = group_elems.min(n - i);
            // Real math, element by element.
            for j in i..i + count {
                dst.data[j] = match op {
                    TensorOp::Sum => a.data[j] + b.data[j],
                    TensorOp::Product => a.data[j] * b.data[j],
                    TensorOp::SumWithPrev => {
                        let prev = if j >= group_elems { dst.data[j - group_elems] } else { 0.0 };
                        a.data[j] + 0.5 * prev
                    }
                };
            }
            let bytes = (count * 4) as u32;
            // Trace: load the inputs, occasionally the previously written
            // destination packet, compute, store the output.
            g.read(a.base + (i * 4) as u64, bytes);
            if op != TensorOp::SumWithPrev {
                g.read(b.base + (i * 4) as u64, bytes);
            }
            if op == TensorOp::SumWithPrev
                && i >= group_elems
                && group_idx.is_multiple_of(DEP_LOAD_EVERY)
            {
                g.read(dst.base + ((i - group_elems) * 4) as u64, (PACKET * 4) as u32);
            }
            g.compute(16);
            match mode {
                PrestoreMode::Skip => g.nt_write(dst.base + (i * 4) as u64, bytes),
                PrestoreMode::None => g.write(dst.base + (i * 4) as u64, bytes),
                PrestoreMode::Clean | PrestoreMode::Demote => {
                    g.write(dst.base + (i * 4) as u64, bytes);
                    // Listing 4 line 8: prestore(&evaluator.data()[i], ..., clean).
                    let opk = if mode == PrestoreMode::Clean {
                        PrestoreOp::Clean
                    } else {
                        PrestoreOp::Demote
                    };
                    g.prestore(dst.base + (i * 4) as u64, bytes, opk);
                }
            }
            i += count;
            group_idx += 1;
        }
    }
}

/// Parameters of the CNN-training-step workload.
#[derive(Debug, Clone)]
pub struct TensorParams {
    /// Batch size (the paper sweeps 1-250; controls the share of writes
    /// performed outside the evaluator).
    pub batch: u32,
    /// Elements of each large activation tensor.
    pub large_elems: usize,
    /// Number of large-tensor operations per step.
    pub large_ops: usize,
    /// Elements of each small bias tensor (60 f32 = 240 B, as in §7.2.1).
    pub small_elems: usize,
    /// Number of small-tensor operations per step.
    pub small_ops: usize,
    /// Training steps.
    pub steps: usize,
    /// Intra-op worker threads (TensorFlow's thread pool).
    pub threads: usize,
    /// RNG seed for the SGD traffic.
    pub seed: u64,
}

impl TensorParams {
    /// Paper-shaped configuration for a given batch size.
    pub fn new(batch: u32) -> Self {
        Self {
            batch,
            large_elems: 1 << 20, // 4 MB activations (scaled from 16.2 MB)
            large_ops: 2,
            small_elems: 60, // 240 B bias tensors
            small_ops: 40_000,
            steps: 1,
            threads: 6,
            seed: 7,
        }
    }

    /// Tiny configuration for unit tests.
    pub fn quick() -> Self {
        Self {
            batch: 1,
            large_elems: 1 << 12,
            large_ops: 1,
            small_elems: 60,
            small_ops: 100,
            steps: 1,
            threads: 2,
            seed: 7,
        }
    }
}

/// Share of total write traffic performed *outside* the evaluator at this
/// batch size, interpolated so that the evaluator accounts for ~50% of the
/// writes at batch 1 and ~30% at batch 250 (§7.2.1).
fn other_traffic_ratio(batch: u32) -> f64 {
    let x = (batch.max(1) as f64).ln() / 250f64.ln();
    1.0 + 1.33 * x.clamp(0.0, 1.0)
}

/// One TensorFlow training step: evaluator ops (patched by `mode`) plus
/// unpatched optimizer traffic.
pub fn training_step(p: &TensorParams, mode: PrestoreMode) -> WorkloadOutput {
    let mut registry = FuncRegistry::new();
    let eval = TensorEvaluator::new(&mut registry);
    let sgd = registry.register("sgd_update", "optimizer.cc", 88);

    let mut space = AddressSpace::new();
    let mut dst = Tensor::new(&mut space, "activation_out", p.large_elems, 0.0);
    let a = Tensor::new(&mut space, "activation_in", p.large_elems, 1.0);
    let b = Tensor::new(&mut space, "weights", p.large_elems, 2.0);
    let mut bias_out = Tensor::new(&mut space, "bias_out", p.small_elems, 0.0);
    let bias_a = Tensor::new(&mut space, "bias_a", p.small_elems, 0.5);
    let bias_b = Tensor::new(&mut space, "bias_b", p.small_elems, 0.25);
    // Each small operation produces a *distinct* output tensor (a CNN has
    // many bias/scale tensors); cycle through an arena of bases so the
    // small outputs are written once and re-read, never re-written.
    let bias_arena_slots = (p.small_ops as u64).max(1);
    let bias_slot_bytes = simcore::align_up(bias_out.bytes(), 64);
    let bias_arena = space.alloc("bias_arena", bias_arena_slots * bias_slot_bytes, 64);
    // Optimizer state: large, touched non-sequentially.
    let opt_elems = (p.large_elems * 4).max(1 << 20);
    let opt = space.alloc("optimizer_state", (opt_elems * 4) as u64, 64);

    let mut rng = simcore::rng::SimRng::new(p.seed);
    let nthreads = p.threads.max(1);
    // No capacity hint: the event count depends on six parameters, so no
    // fixed guess fits (2^20 slots were 317x the quick trace). `Vec`
    // doubling grows the trace and `Tracer::finish` trims its slack.
    let mut ts: Vec<Tracer> = (0..nthreads).map(|_| Tracer::new()).collect();
    let mut ops = 0u64;
    for _ in 0..p.steps {
        for k in 0..p.large_ops {
            let op = if k % 2 == 0 { TensorOp::SumWithPrev } else { TensorOp::Sum };
            // Intra-op parallelism: each worker evaluates a contiguous
            // slice of the output tensor.
            let chunk = p.large_elems.div_ceil(nthreads);
            for (tid, t) in ts.iter_mut().enumerate() {
                let lo = (tid * chunk).min(p.large_elems);
                let hi = ((tid + 1) * chunk).min(p.large_elems);
                if lo < hi {
                    eval.run_slice(t, &mut dst, &a, &b, op, mode, lo, hi);
                }
            }
            ops += 1;
        }
        for s in 0..p.small_ops {
            let t = &mut ts[s % nthreads];
            bias_out.base = bias_arena + (s as u64 % bias_arena_slots) * bias_slot_bytes;
            eval.run(t, &mut bias_out, &bias_a, &bias_b, TensorOp::Sum, mode);
            // The next operation consumes the bias immediately: the
            // re-read distance of the 240 B tensors is ~2 instructions.
            t.read(bias_out.base, bias_out.bytes() as u32);
            ops += 1;
        }
        // Unpatched optimizer traffic: scattered read-modify-writes over
        // the optimizer state, proportional to the evaluator's bytes.
        let eval_bytes =
            p.large_ops as u64 * dst.bytes() + p.small_ops as u64 * bias_out.bytes();
        let other_bytes = (eval_bytes as f64 * other_traffic_ratio(p.batch)) as u64;
        for chunk_i in 0..other_bytes / 64 {
            let g = &mut ts[(chunk_i % nthreads as u64) as usize];
            g.enter_raw(sgd);
            let idx = rng.gen_range(opt_elems as u64 / 16) * 16;
            g.read(opt + idx * 4, 64);
            g.compute(6);
            g.write(opt + idx * 4, 64);
            g.leave();
        }
    }

    let threads: Vec<simcore::ThreadTrace> = ts.into_iter().map(Tracer::finish).collect();
    WorkloadOutput { traces: TraceSet::new(threads), registry, ops }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(len: usize) -> (AddressSpace, Tensor, Tensor, Tensor) {
        let mut space = AddressSpace::new();
        let dst = Tensor::new(&mut space, "dst", len, 0.0);
        let a = Tensor::new(&mut space, "a", len, 3.0);
        let b = Tensor::new(&mut space, "b", len, 4.0);
        (space, dst, a, b)
    }

    #[test]
    fn sum_is_correct() {
        let (_s, mut dst, a, b) = setup(1000);
        let mut reg = FuncRegistry::new();
        let ev = TensorEvaluator::new(&mut reg);
        let mut t = Tracer::new();
        ev.run(&mut t, &mut dst, &a, &b, TensorOp::Sum, PrestoreMode::None);
        assert!(dst.data.iter().all(|&x| x == 7.0));
    }

    #[test]
    fn product_is_correct() {
        let (_s, mut dst, a, b) = setup(77); // non-multiple of the group
        let mut reg = FuncRegistry::new();
        let ev = TensorEvaluator::new(&mut reg);
        let mut t = Tracer::new();
        ev.run(&mut t, &mut dst, &a, &b, TensorOp::Product, PrestoreMode::Skip);
        assert!(dst.data.iter().all(|&x| x == 12.0));
    }

    #[test]
    fn sum_with_prev_uses_destination() {
        let (_s, mut dst, a, b) = setup(64);
        let mut reg = FuncRegistry::new();
        let ev = TensorEvaluator::new(&mut reg);
        let mut t = Tracer::new();
        ev.run(&mut t, &mut dst, &a, &b, TensorOp::SumWithPrev, PrestoreMode::None);
        // First group: a + 0; second group: a + 0.5 * first group.
        assert_eq!(dst.data[0], 3.0);
        assert_eq!(dst.data[32], 3.0 + 0.5 * 3.0);
    }

    #[test]
    fn writes_cover_whole_tensor_sequentially() {
        let (_s, mut dst, a, b) = setup(4096);
        let mut reg = FuncRegistry::new();
        let ev = TensorEvaluator::new(&mut reg);
        let mut t = Tracer::new();
        ev.run(&mut t, &mut dst, &a, &b, TensorOp::Sum, PrestoreMode::None);
        let tr = t.finish();
        let writes: Vec<_> = tr
            .events
            .iter()
            .filter(|e| e.kind == simcore::EventKind::Write)
            .collect();
        let total: u64 = writes.iter().map(|e| e.size as u64).sum();
        assert_eq!(total, 4096 * 4);
        // Strictly increasing addresses: a clean sequential stream.
        for w in writes.windows(2) {
            assert_eq!(w[0].end(), w[1].addr);
        }
    }

    #[test]
    fn clean_mode_emits_prestores_per_group() {
        let (_s, mut dst, a, b) = setup(1024);
        let mut reg = FuncRegistry::new();
        let ev = TensorEvaluator::new(&mut reg);
        let mut t = Tracer::new();
        ev.run(&mut t, &mut dst, &a, &b, TensorOp::Sum, PrestoreMode::Clean);
        let tr = t.finish();
        let cleans =
            tr.events.iter().filter(|e| e.kind == simcore::EventKind::PrestoreClean).count();
        assert_eq!(cleans, 1024 / (4 * PACKET));
    }

    #[test]
    fn training_step_mixes_large_and_small() {
        let out = training_step(&TensorParams::quick(), PrestoreMode::None);
        assert!(out.ops > 100);
        let events = &out.traces.threads[0].events;
        // Small bias writes (240 B = one 128 B group plus a 112 B tail)
        // and large streaming writes coexist.
        let has_small = events.iter().any(|e| e.kind.is_store() && e.size == 112);
        assert!(has_small, "240B bias writes missing");
        let has_large = events.iter().any(|e| e.kind.is_store() && e.size == 128);
        assert!(has_large, "streaming writes missing");
    }

    #[test]
    fn higher_batch_has_more_unpatched_traffic() {
        let lo = training_step(&TensorParams { batch: 1, ..TensorParams::quick() }, PrestoreMode::None);
        let hi =
            training_step(&TensorParams { batch: 200, ..TensorParams::quick() }, PrestoreMode::None);
        assert!(hi.traces.bytes_written() > lo.traces.bytes_written());
    }
}
