//! Cross-axis byte-identity for the temporal-observability surface: the
//! sampled time-series windows and the per-class request-latency
//! histograms must be *identical* — full struct equality, which for these
//! plain-old-data vectors is byte identity — across every determinism
//! axis the repo guarantees:
//!
//!   * streaming vs materialized replay,
//!   * every chunk size of the streaming pipeline.
//!
//! The sampler keys off simulated cycles and the classifier observes
//! retired events in per-thread program order, so neither axis may
//! perturb a single window or histogram bucket.

use machine::{MachineConfig, StreamOptions};
use prestore::PrestoreMode;
use simcore::TraceSet;
use workloads::kv::{KvServingSource, ServingParams};

const CHUNKS: [usize; 4] = [1, 7, 1024, 65_536];

fn serving_params() -> ServingParams {
    let mut p = ServingParams::new(2_000, 40_000, 3, PrestoreMode::Clean);
    p.seed = 7;
    p
}

fn sampled_config() -> MachineConfig {
    let mut cfg = MachineConfig::machine_a();
    cfg.timeseries_window = Some(2_048);
    cfg
}

#[test]
fn timeseries_and_latency_are_identical_across_all_axes() {
    let cfg = sampled_config();

    // Golden: materialized classified replay of the same stream.
    let mut source = KvServingSource::new(serving_params());
    let threads = workloads::kv::serving::materialize(&mut source, 4096);
    let classifier = Box::new(source.classifier());
    let golden = machine::try_simulate_threads_classified(&cfg, &threads, classifier)
        .expect("materialized classified replay");
    assert!(!golden.timeseries.is_empty(), "sampler must emit windows");
    assert!(
        golden.request_latency.iter().any(|h| h.count > 0),
        "classifier must observe requests"
    );

    // Both axes: streaming replay at every chunk size.
    for chunk_events in CHUNKS {
        let mut source = KvServingSource::new(serving_params());
        let classifier = Box::new(source.classifier());
        let report = machine::try_simulate_stream_classified(
            &cfg,
            &mut source,
            StreamOptions { chunk_events },
            classifier,
        )
        .unwrap_or_else(|e| panic!("stream replay failed at chunk {chunk_events}: {e}"));
        assert_eq!(
            report.stats, golden,
            "stats diverge at chunk_events={chunk_events}"
        );
    }
}

#[test]
fn disabling_the_sampler_changes_nothing_else() {
    // Telemetry-off byte-identity: a run without the sampler must agree
    // with the sampled run on every other field of RunStats.
    let mut source = KvServingSource::new(serving_params());
    let threads = workloads::kv::serving::materialize(&mut source, 4096);

    let plain = machine::try_simulate(&MachineConfig::machine_a(), &TraceSet::new(threads.clone()))
        .expect("plain replay");
    let mut sampled = machine::try_simulate_threads_classified(
        &sampled_config(),
        &threads,
        Box::new(source.classifier()),
    )
    .expect("sampled replay");

    assert!(!sampled.timeseries.is_empty());
    sampled.timeseries = Vec::new();
    sampled.timeseries_window_cycles = 0;
    sampled.request_latency = Vec::new();
    assert_eq!(sampled, plain, "observability must be a pure overlay on the schedule");
}
