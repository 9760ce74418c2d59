//! Machine descriptions: Machine A (x86 + Optane) and Machine B (ARM +
//! FPGA), as evaluated in §3 and §7 of the paper.

use cachesim::{CacheConfig, ReplacementKind};
use memdev::Device;
use simcore::Cycles;

/// The memory ordering model of the CPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemModel {
    /// Total store order (x86): the store buffer drains eagerly, in order.
    /// Writes are rarely kept private for long, so *demote* pre-stores gain
    /// little (§6.2.3).
    Tso,
    /// Weakly ordered (ARM): stores sit in private buffers until a fence,
    /// an atomic, capacity pressure — or a *demote* pre-store.
    Weak,
}

/// Fixed per-operation costs of the pipeline model, in cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    /// L1 hit latency.
    pub l1_hit: Cycles,
    /// Shared-cache (LLC / L2 point of unification) hit latency.
    pub llc_hit: Cycles,
    /// Issue cost of one store into the store buffer.
    pub store_issue: Cycles,
    /// Issue cost of a pre-store ("on average 1 cycle on our machines", §5).
    pub prestore_issue: Cycles,
    /// Execution cost of an atomic RMW once the line is owned.
    pub atomic_op: Cycles,
    /// Interconnect cost of a dirty cache-to-cache transfer, on top of the
    /// directory lookup.
    pub remote_transfer: Cycles,
}

impl Default for CostModel {
    fn default() -> Self {
        Self {
            l1_hit: 4,
            llc_hit: 40,
            store_issue: 1,
            prestore_issue: 1,
            atomic_op: 15,
            remote_transfer: 60,
        }
    }
}

/// Full description of a simulated machine.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Display name ("Machine A").
    pub name: &'static str,
    /// CPU cache line size in bytes.
    pub line_size: u64,
    /// Memory ordering model.
    pub mem_model: MemModel,
    /// Private L1 geometry (per core).
    pub l1: CacheConfig,
    /// Shared last-level cache geometry.
    pub llc: CacheConfig,
    /// Store buffer entries per core.
    pub store_buffer_entries: usize,
    /// Memory-level parallelism of store-buffer drains (outstanding
    /// ownership requests; the in-order ThunderX sustains far fewer than a
    /// Xeon).
    pub sb_mlp: u64,
    /// Write-combining buffers per core.
    pub wc_buffers: usize,
    /// Pipeline cost model.
    pub costs: CostModel,
    /// The cached memory device backing the workload's data.
    pub device: Device,
    /// CPU frequency in GHz (for converting cycles to wall time).
    pub freq_ghz: f64,
    /// Random seed for replacement policies.
    pub seed: u64,
    /// Progress watchdog: maximum engine steps per replay, or `None` to
    /// derive a generous budget from the trace size (4x the total event
    /// count plus one million — a valid replay executes at most ~2 steps
    /// per event, so the derived budget never fires on sane traces).
    /// When the budget is exceeded the engine reports
    /// [`crate::EngineError::StepBudgetExceeded`] instead of spinning.
    pub step_budget: Option<u64>,
    /// Simulated-time telemetry sampling: `Some(w)` makes the engine close
    /// one delta window of its temporal counters every `w` simulated
    /// cycles, collected into [`crate::RunStats::timeseries`]. `None` (the
    /// default) disables sampling entirely — the step loop then pays one
    /// integer compare and `RunStats` is byte-identical to builds that
    /// never heard of sampling. Keyed to *simulated* cycles, never
    /// wall-clock, so the windows are deterministic across `--jobs` and
    /// streaming/materialized replay.
    pub timeseries_window: Option<Cycles>,
}

impl MachineConfig {
    /// Machine A: two-socket Xeon Gold 6230 with Optane NV-DIMMs (§3).
    ///
    /// 64 B lines, TSO, pseudo-random LLC replacement. Cache sizes are
    /// scaled down ~16x together with the workload working sets so that
    /// steady-state eviction behaviour appears within simulable trace
    /// lengths.
    pub fn machine_a() -> Self {
        Self {
            name: "Machine A (Xeon + Optane PMEM)",
            line_size: 64,
            mem_model: MemModel::Tso,
            l1: CacheConfig::from_capacity(32 * 1024, 8, 64, ReplacementKind::TreePlru),
            llc: CacheConfig::from_capacity(2 * 1024 * 1024, 16, 64, ReplacementKind::NruRandom),
            store_buffer_entries: 56,
            sb_mlp: 10,
            wc_buffers: 10,
            costs: CostModel::default(),
            device: Device::optane(256),
            freq_ghz: 2.1,
            seed: 0xA,
            step_budget: None,
            timeseries_window: None,
        }
    }

    /// Machine A with plain DRAM instead of Optane (sanity baseline: the
    /// §4.1 problems should disappear).
    pub fn machine_a_dram() -> Self {
        Self {
            name: "Machine A (Xeon + DRAM)",
            device: Device::dram(),
            ..Self::machine_a()
        }
    }

    /// Machine A variant backed by a CXL SSD (256 or 512 B granularity).
    pub fn machine_a_cxl_ssd(block: u64) -> Self {
        Self {
            name: "Machine A (Xeon + CXL SSD)",
            device: Device::cxl_ssd(block),
            ..Self::machine_a()
        }
    }

    fn machine_b(name: &'static str, device: Device) -> Self {
        Self {
            name,
            line_size: 128,
            mem_model: MemModel::Weak,
            l1: CacheConfig::from_capacity(32 * 1024, 8, 128, ReplacementKind::Lru),
            // The ThunderX L2 is the point of unification (16 MB on the
            // real machine; scaled down with the workload working sets).
            llc: CacheConfig::from_capacity(2 * 1024 * 1024, 16, 128, ReplacementKind::Random),
            store_buffer_entries: 32,
            sb_mlp: 3,
            wc_buffers: 8,
            costs: CostModel { llc_hit: 37, ..CostModel::default() },
            device,
            freq_ghz: 2.0,
            seed: 0xB,
            step_budget: None,
            timeseries_window: None,
        }
    }

    /// Machine B-Fast: Enzian with the FPGA at 60 cycles / 10 GB/s (§3).
    pub fn machine_b_fast() -> Self {
        Self::machine_b("Machine B-Fast (ThunderX + FPGA, low latency)", Device::fpga_fast())
    }

    /// Machine B-Slow: Enzian with the FPGA at 200 cycles / 1.5 GB/s (§3).
    pub fn machine_b_slow() -> Self {
        Self::machine_b("Machine B-Slow (ThunderX + FPGA, high latency)", Device::fpga_slow())
    }

    /// Convert a cycle count to seconds at this machine's frequency.
    pub fn cycles_to_seconds(&self, cycles: Cycles) -> f64 {
        cycles as f64 / (self.freq_ghz * 1e9)
    }

    /// The effective step budget for a replay of `total_events` events:
    /// the explicit [`MachineConfig::step_budget`], or the derived default
    /// (4x the event count plus one million — a valid replay executes at
    /// most ~2 steps per event, so the derived budget never fires on sane
    /// traces).
    pub fn effective_step_budget(&self, total_events: usize) -> u64 {
        self.step_budget.unwrap_or_else(|| {
            (total_events as u64)
                .saturating_mul(4)
                .saturating_add(crate::engine::STEP_BUDGET_FLOOR)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn machine_a_shape() {
        let m = MachineConfig::machine_a();
        assert_eq!(m.line_size, 64);
        assert_eq!(m.mem_model, MemModel::Tso);
        assert_eq!(m.device.internal_granularity(), 256);
    }

    #[test]
    fn machine_b_shape() {
        let fast = MachineConfig::machine_b_fast();
        let slow = MachineConfig::machine_b_slow();
        assert_eq!(fast.line_size, 128);
        assert_eq!(fast.mem_model, MemModel::Weak);
        assert!(fast.device.read_latency() < slow.device.read_latency());
        // No granularity mismatch on Machine B: line == internal unit.
        assert_eq!(fast.device.internal_granularity(), fast.line_size);
    }

    #[test]
    fn cycles_to_seconds() {
        let m = MachineConfig::machine_a();
        let s = m.cycles_to_seconds(2_100_000_000);
        assert!((s - 1.0).abs() < 1e-9);
    }

    #[test]
    fn dram_variant_swaps_device_only() {
        let a = MachineConfig::machine_a();
        let d = MachineConfig::machine_a_dram();
        assert_eq!(a.line_size, d.line_size);
        assert_eq!(d.device.internal_granularity(), 64);
    }
}
