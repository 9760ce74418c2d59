//! Outputs pinned for the default seeds and the fixed inputs. A run whose outputs differ counts
//! each difference as a failed operation. Regenerate a value only with a
//! change that is meant to change the simulated results, from the
//! mismatch message the benchmark prints.

/// `kv_read` (`read`) or `kv_write` at seed 29: the work-count
/// fingerprint of one sample (with its 65,530-event refills) and its
/// stream digest, which does not depend on the refill size. The full-scale
/// `kv_read` digest is the one `kv_serving --users 65536 --events 1000000
/// --mode clean` prints.
pub fn kv(read: bool, smoke: bool) -> (u64, u64) {
    match (read, smoke) {
        (true, false) => (0x9ff9_7242_6fca_d5f5, 0xd69c_cf36_c75c_e7dd),
        (false, false) => (0xd4d1_78cc_5f07_e820, 0xc820_b010_55d9_6931),
        (true, true) => (0x21ae_7e0a_41fd_153a, 0xda2f_d476_31fc_cec0),
        (false, true) => (0x1a7f_4a55_aefd_5346, 0xe28a_3e0c_3783_c7bd),
    }
}

/// `advisor` (fixed inputs): per subject, the best plan's signature and its
/// score (attributed media bytes). At these sizes no plan beats the
/// unpatched trace on Machine A, so each search returns the empty plan.
pub const ADVISOR: [(&str, &str, f64); 7] = [
    ("mg", "-", 501_760.0),
    ("tensorflow", "-", 184_576.0),
    ("clht", "-", 62_720.0),
    ("masstree", "-", 68_864.0),
    ("x9", "-", 0.0),
    ("listing1", "-", 239_616.0),
    ("listing3", "-", 0.0),
];

/// `figures_quick`: the FNV-1a of every experiment's CSV, byte-identical
/// to what `figures --quick` writes (the smoke scale runs a subset).
pub const FIGURES: [(&str, u64); 29] = [
    ("table1", 0x6fb9_9057_7714_a3a3),
    ("table2", 0x9e47_9719_91c6_f55f),
    ("fig3a", 0x23ce_8b66_3d60_15fa),
    ("fig3b", 0xbea3_0dc6_b91a_d466),
    ("fig5", 0xc7b7_8b1e_5890_6c44),
    ("fig7", 0xc4de_40ab_36a1_d295),
    ("fig8", 0x2e98_3d67_713a_4f4c),
    ("fig9", 0x9dfc_11ac_9ed6_4e63),
    ("fig10", 0x72d8_3bd6_6522_2fa5),
    ("fig11", 0xbc47_1294_0eeb_6c7d),
    ("fig12", 0x8dff_6728_94bd_f33e),
    ("fig13", 0x7164_a2d5_604d_375b),
    ("fig14", 0x8c2d_661f_4ef6_4729),
    ("x9", 0x4c13_5f7f_c319_7b09),
    ("listing3", 0xa78a_d416_7b23_aa1e),
    ("skipvariant", 0x29cb_1cc0_4b3f_a05c),
    ("issuecost", 0x37e9_5854_b341_e154),
    ("overheadB", 0xf964_888a_5797_5f8e),
    ("badprestores", 0x0446_baa8_223e_b9d4),
    ("dbreports", 0xcdf0_491e_afc8_304c),
    ("abl_granularity", 0x1499_098d_097f_da17),
    ("abl_replacement", 0x9b30_59dc_dc33_d02e),
    ("abl_latency", 0x1473_b5bf_e46f_048b),
    ("abl_ycsb_mix", 0xeea2_4a5a_7bf7_0edf),
    ("abl_dram", 0xe80c_d358_655b_ba58),
    ("ext_cxl_kv", 0x2111_3d96_ea94_4180),
    ("crashbuster", 0x6495_5cbe_dd45_9ca4),
    ("kv_serving", 0xf6c9_07bd_9e99_6e57),
    ("autotune", 0x6d98_67f5_48d1_ecdd),
];
