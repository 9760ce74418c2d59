//! A streamed replay notes nothing in the process-global flight ring: the
//! ring holds the sweep runner's supervised-job markers only. The file
//! holds this one test, so no other test in its process notes into the
//! ring either.

use machine::{try_simulate_stream_opts, MachineConfig, StreamOptions};
use simcore::telemetry::flight;
use simcore::{SliceSource, Tracer};

#[test]
fn a_streamed_replay_leaves_the_global_flight_ring_empty() {
    let threads: Vec<_> = (0..2u64)
        .map(|t| {
            let mut tr = Tracer::new();
            for i in 0..500u64 {
                tr.write((t << 20) + i * 64, 64);
                tr.read((t << 20) + (i / 2) * 64, 8);
            }
            tr.fence();
            tr.finish()
        })
        .collect();
    let mut source = SliceSource::new(&threads);
    // Windows of 16 events: dozens of refills per thread.
    let report = try_simulate_stream_opts(
        &MachineConfig::machine_a(),
        &mut source,
        StreamOptions { chunk_events: 16 },
    )
    .expect("the trace replays");
    assert!(report.chunks > 100, "{} chunks", report.chunks);
    let noted = flight::global_snapshot();
    assert!(noted.is_empty(), "{} markers noted, the first {:?}", noted.len(), noted.first());
}
