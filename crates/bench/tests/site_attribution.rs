//! The per-site attribution must account for (nearly) all device traffic:
//! replaying real workloads on Machine A, the site rows of [`machine::RunStats`]
//! must attribute at least 95% of the device's write-amplified media bytes
//! and of the cores' stall cycles to concrete trace sites — the property
//! that makes the dirtbuster Table-3 report trustworthy. The remainder is
//! the `<unattributed>` row (end-of-run device-buffer flushes and traffic
//! outside any traced function).

use machine::{try_simulate, MachineConfig};
use prestore::PrestoreMode;
use workloads::WorkloadOutput;

fn assert_attribution_coverage(name: &str, out: &WorkloadOutput) {
    let cfg = MachineConfig::machine_a();
    let stats = try_simulate(&cfg, &out.traces).expect("workload trace must replay");

    let media = stats.device.media_bytes_written;
    let attributed = stats.attributed_media_bytes();
    assert!(media > 0, "{name}: workload produced no media writes");
    assert!(
        attributed as f64 >= 0.95 * media as f64,
        "{name}: only {attributed}/{media} media bytes \
         ({:.1}%) attributed to trace sites",
        attributed as f64 * 100.0 / media as f64
    );

    let stalls: u64 = stats.cores.iter().map(|c| c.total_stall_cycles()).sum();
    let attr_stalls = stats.attributed_stall_cycles();
    if stalls > 0 {
        assert!(
            attr_stalls as f64 >= 0.95 * stalls as f64,
            "{name}: only {attr_stalls}/{stalls} stall cycles \
             ({:.1}%) attributed to trace sites",
            attr_stalls as f64 * 100.0 / stalls as f64
        );
    }

    // The rows are sorted and consistent: every attributed site resolves
    // through the run's registry, and the ranked report renders with a
    // coverage footer.
    assert!(
        stats.sites.windows(2).all(|w| w[0].0 < w[1].0),
        "{name}: site rows must be sorted by id"
    );
    let table = machine::report::render_site_table(&stats, &out.registry, 10);
    assert!(table.contains("coverage:"), "{name}: report footer missing:\n{table}");
}

#[test]
fn mg_attributes_device_traffic_to_sites() {
    let out = workloads::nas::mg::run(
        &workloads::nas::mg::MgParams { n: 32, iters: 1, threads: 1 },
        PrestoreMode::None,
    );
    assert_attribution_coverage("mg", &out);
}

#[test]
fn tensor_training_attributes_device_traffic_to_sites() {
    let mut p = workloads::tensor::TensorParams::new(8);
    p.large_elems = 1 << 15;
    p.small_ops = 2_000;
    let out = workloads::tensor::training_step(&p, PrestoreMode::None);
    assert_attribution_coverage("tensor", &out);
}
