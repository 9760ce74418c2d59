//! Criterion microbenches for the simulator substrates themselves: cache
//! access throughput per replacement policy, store-buffer operations,
//! Optane media accounting, zipfian sampling, replay-engine throughput
//! and DirtBuster's passes. These track the cost of the building blocks
//! the figure benches sit on.

use cachesim::{Cache, CacheConfig, ReplacementKind, StoreBuffer, WriteCombiningBuffer};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use memdev::{MemDevice, OptanePmem};
use simcore::rng::{SimRng, Zipfian};
use simcore::Tracer;
use std::time::Duration;

fn cache_access(c: &mut Criterion) {
    let mut g = c.benchmark_group("cache_access");
    g.sample_size(20).measurement_time(Duration::from_secs(4));
    for kind in [
        ReplacementKind::Lru,
        ReplacementKind::TreePlru,
        ReplacementKind::Fifo,
        ReplacementKind::Random,
        ReplacementKind::NruRandom,
    ] {
        g.bench_function(BenchmarkId::new("stream_64k_lines", format!("{kind:?}")), |b| {
            b.iter(|| {
                let mut cache =
                    Cache::new(CacheConfig::from_capacity(1 << 20, 16, 64, kind), 7);
                let mut dirty_evictions = 0u64;
                for i in 0..65_536u64 {
                    if let Some(v) = cache.access(i * 64, true).victim {
                        dirty_evictions += v.dirty as u64;
                    }
                }
                dirty_evictions
            });
        });
    }
    g.finish();
}

fn store_buffer(c: &mut Criterion) {
    let mut g = c.benchmark_group("store_buffer");
    g.sample_size(20).measurement_time(Duration::from_secs(4));
    g.bench_function("push_drain_cycle", |b| {
        b.iter(|| {
            let mut sb = StoreBuffer::new(56);
            let mut done = 0u64;
            for i in 0..10_000u64 {
                if sb.is_full() {
                    done = done.max(sb.drain_head(i, |_| 400));
                }
                sb.push(i * 64, i);
                sb.start_all(i, |_| 400);
                sb.collect_completed(i);
                let _ = sb.take_retired();
            }
            done
        });
    });
    g.finish();
}

fn optane_accounting(c: &mut Criterion) {
    let mut g = c.benchmark_group("optane_accounting");
    g.sample_size(20).measurement_time(Duration::from_secs(4));
    for (label, stride) in [("sequential", 64u64), ("strided_4k", 4096u64)] {
        g.bench_function(BenchmarkId::new("writes_64k", label), |b| {
            b.iter(|| {
                let mut dev = OptanePmem::default();
                for i in 0..65_536u64 {
                    dev.receive_write(i * stride, 64);
                }
                dev.flush();
                dev.stats().media_bytes_written
            });
        });
    }
    g.finish();
}

fn write_combining(c: &mut Criterion) {
    let mut g = c.benchmark_group("write_combining");
    g.sample_size(20).measurement_time(Duration::from_secs(4));
    g.bench_function("nt_stream_64k", |b| {
        b.iter(|| {
            let mut wc = WriteCombiningBuffer::new(64, 10);
            let mut flushes = 0usize;
            for i in 0..65_536u64 {
                flushes += wc.nt_write(i * 16, 16).len();
            }
            flushes + wc.flush_all().len()
        });
    });
    g.finish();
}

fn zipfian_sampling(c: &mut Criterion) {
    let mut g = c.benchmark_group("zipfian");
    g.sample_size(20).measurement_time(Duration::from_secs(4));
    g.bench_function("sample_1m", |b| {
        let z = Zipfian::new(1_000_000, 0.99);
        b.iter(|| {
            let mut rng = SimRng::new(11);
            let mut acc = 0u64;
            for _ in 0..1_000_000 {
                acc = acc.wrapping_add(z.sample(&mut rng));
            }
            acc
        });
    });
    g.finish();
}

fn tracer_throughput(c: &mut Criterion) {
    let mut g = c.benchmark_group("tracer");
    g.sample_size(20).measurement_time(Duration::from_secs(4));
    g.bench_function("record_1m_events", |b| {
        b.iter(|| {
            let mut t = Tracer::with_capacity(1 << 20);
            for i in 0..1_000_000u64 {
                t.write(i * 64, 64);
            }
            t.finish().len()
        });
    });
    g.finish();
}

fn engine_replay(c: &mut Criterion) {
    use machine::{simulate, MachineConfig};

    let mut g = c.benchmark_group("engine_replay");
    g.sample_size(10).measurement_time(Duration::from_secs(6));

    // Map-lookup-heavy replay: 1M events over a wide zipfian footprint, so
    // the engine's per-line state tables dominate. Replayed through the
    // production entry point (`simulate` on a `TraceSet`), which interns
    // line ids once per trace set and replays on flat tables — the same
    // amortization a parameter sweep gets when it re-runs one memoized
    // trace across many machine configs.
    let scattered = {
        let mut t = Tracer::with_capacity(1 << 20);
        let mut rng = SimRng::new(17);
        let z = Zipfian::new(1 << 20, 0.99);
        for _ in 0..500_000u64 {
            let line = z.sample(&mut rng) * 64;
            t.write(line, 64);
            t.read(z.sample(&mut rng) * 64, 8);
        }
        simcore::TraceSet::new(vec![t.finish()])
    };
    let cfg = MachineConfig::machine_a();
    g.bench_function("scattered_1m_events", |b| {
        b.iter(|| simulate(&cfg, &scattered).cycles);
    });

    // Step throughput on a sequential stream: large multi-line writes
    // exercise the single-pass blocks_touched accounting in `step`.
    let stream = {
        let mut t = Tracer::with_capacity(1 << 20);
        for i in 0..500_000u64 {
            t.write(i * 1024, 1024);
            t.compute(2);
        }
        simcore::TraceSet::new(vec![t.finish()])
    };
    g.bench_function("stream_1m_events", |b| {
        b.iter(|| simulate(&cfg, &stream).cycles);
    });
    g.finish();
}

fn intern_vs_hash(c: &mut Criterion) {
    use machine::{try_simulate, try_simulate_threads_reference, MachineConfig};

    let mut g = c.benchmark_group("intern_vs_hash");
    g.sample_size(10).measurement_time(Duration::from_secs(6));

    // Identical map-lookup-heavy workload to `engine_replay/scattered`,
    // replayed through both engine monomorphisations: the flat id-indexed
    // tables versus the hashed reference. Both rows validate and intern
    // first, so the gap between them is exactly what the ids buy at
    // replay time.
    let traces = {
        let mut t = Tracer::with_capacity(1 << 20);
        let mut rng = SimRng::new(17);
        let z = Zipfian::new(1 << 20, 0.99);
        for _ in 0..500_000u64 {
            let line = z.sample(&mut rng) * 64;
            t.write(line, 64);
            t.read(z.sample(&mut rng) * 64, 8);
        }
        simcore::TraceSet::new(vec![t.finish()])
    };
    let cfg = MachineConfig::machine_a();
    g.bench_function(BenchmarkId::new("scattered_1m_events", "flat"), |b| {
        b.iter(|| try_simulate(&cfg, &traces).expect("valid trace").cycles);
    });
    g.bench_function(BenchmarkId::new("scattered_1m_events", "hashed"), |b| {
        b.iter(|| {
            try_simulate_threads_reference(&cfg, &traces.threads).expect("valid trace").cycles
        });
    });
    g.finish();
}

fn nt_write_path(c: &mut Criterion) {
    let mut g = c.benchmark_group("nt_write_path");
    g.sample_size(20).measurement_time(Duration::from_secs(4));

    // The allocating legacy API: every nt_write returns a fresh Vec of
    // flushes (usually empty, but the allocation-per-call shows up at
    // engine scale).
    g.bench_function(BenchmarkId::new("nt_stream_64k", "alloc_per_call"), |b| {
        b.iter(|| {
            let mut wc = WriteCombiningBuffer::new(64, 10);
            let mut flushes = 0usize;
            for i in 0..65_536u64 {
                flushes += wc.nt_write(i * 16, 16).len();
            }
            flushes + wc.flush_all().len()
        });
    });

    // The caller-buffer API the engine uses: one Vec reused for the whole
    // stream, cleared between calls.
    g.bench_function(BenchmarkId::new("nt_stream_64k", "reused_buffer"), |b| {
        b.iter(|| {
            let mut wc = WriteCombiningBuffer::new(64, 10);
            let mut buf = Vec::new();
            let mut flushes = 0usize;
            for i in 0..65_536u64 {
                buf.clear();
                wc.nt_write_into(i * 16, 16, &mut buf);
                flushes += buf.len();
            }
            buf.clear();
            wc.flush_all_into(&mut buf);
            flushes + buf.len()
        });
    });
    g.finish();
}

fn streaming_replay(c: &mut Criterion) {
    use machine::{try_simulate_stream_opts, try_simulate_threads, MachineConfig, StreamOptions};
    use workloads::kv::{KvServingSource, ServingParams};

    let mut g = c.benchmark_group("streaming_replay");
    g.sample_size(10).measurement_time(Duration::from_secs(6));

    // Events/sec through the fused generate→validate→intern→replay
    // pipeline at fixed memory budgets: the chunk size is what a
    // `--mem-budget` of 4 MiB / 64 MiB derives for two threads (the
    // kv_serving binary's 64 B/event rule). Smaller chunks pay more
    // refill/grow overhead per event; this group tracks that tax.
    let cfg = MachineConfig::machine_b_fast();
    let params = ServingParams::new(100_000, 400_000, 2, prestore::PrestoreMode::Clean);
    for (label, chunk_events) in [("budget_4mib", 32_768usize), ("budget_64mib", 524_288)] {
        g.bench_function(BenchmarkId::new("kv_serving_400k", label), |b| {
            b.iter(|| {
                let mut src = KvServingSource::new(params.clone());
                let opts = StreamOptions { chunk_events };
                try_simulate_stream_opts(&cfg, &mut src, opts).unwrap().events
            });
        });
    }

    // The same stream materialized then replayed conventionally — the
    // baseline the streaming path must stay near while using a fraction
    // of the memory.
    let materialized = {
        let mut src = KvServingSource::new(params.clone());
        workloads::kv::serving::materialize(&mut src, 65_536)
    };
    g.bench_function("kv_serving_400k/materialized", |b| {
        b.iter(|| try_simulate_threads(&cfg, &materialized).unwrap().cycles);
    });
    g.finish();
}

fn dirtbuster_passes(c: &mut Criterion) {
    let mut g = c.benchmark_group("dirtbuster_passes");
    g.sample_size(10).measurement_time(Duration::from_secs(6));
    // A 500K-event trace with mixed patterns.
    let mut reg = simcore::FuncRegistry::new();
    let f = reg.register("writer", "bench.rs", 1);
    let mut t = Tracer::with_capacity(500_000);
    {
        let mut guard = t.enter(f);
        let mut rng = SimRng::new(3);
        for i in 0..250_000u64 {
            guard.write(i * 64, 64);
            guard.read(rng.gen_range(1 << 24) * 64, 8);
        }
    }
    let traces = simcore::TraceSet::new(vec![t.finish()]);
    g.bench_function("sampling_500k", |b| {
        b.iter(|| dirtbuster::sampling::profile(&traces, &Default::default()));
    });
    g.bench_function("full_analysis_500k", |b| {
        b.iter(|| dirtbuster::analyze(&traces, &reg, &Default::default()));
    });
    g.finish();
}

criterion_group!(
    benches,
    cache_access,
    store_buffer,
    optane_accounting,
    write_combining,
    zipfian_sampling,
    tracer_throughput,
    engine_replay,
    intern_vs_hash,
    nt_write_path,
    streaming_replay,
    dirtbuster_passes
);
criterion_main!(benches);
