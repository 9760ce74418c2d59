//! One module per reproduced table/figure.

pub mod ablation;
pub mod autotune;
pub mod crash_figs;
pub mod microbench_figs;
pub mod kv_figs;
pub mod nas_figs;
pub mod overhead;
pub mod serving_figs;
pub mod tables;
pub mod tensor_figs;
pub mod x9_figs;

pub use ablation::{cxl_kv, dram_sanity, fpga_latency_sweep, granularity_sweep, replacement_policy_sweep, ycsb_mix_sweep};
pub use autotune::autotune;
pub use crash_figs::crashbuster;
pub use kv_figs::{fig10, fig11, fig12, fig13, fig14};
pub use microbench_figs::{fig3a, fig3b, fig5, listing3_pitfall, skip_variant};
pub use nas_figs::fig9;
pub use overhead::{bad_prestores, overhead_on_machine_b, prestore_issue_cost};
pub use serving_figs::kv_serving;
pub use tables::{table1, table2, dirtbuster_reports};
pub use tensor_figs::{fig7, fig8};
pub use x9_figs::x9_latency;

