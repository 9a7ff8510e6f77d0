//! Criterion benchmarks of the flat-object codecs: the wire frames of a
//! VGG-19-sized session and the record lines of a zoo-sized store — the
//! per-layer numbers behind `wire.*_us`, `records.*_us` and
//! `shard.load_ms` of the repository benchmark, without its 20 s run.

use criterion::{criterion_group, criterion_main, Criterion};
use iolb_autotune::plan::{algo_candidates, fast_config};
use iolb_cnn::models;
use iolb_core::epilogue::Epilogue;
use iolb_dataflow::config::ScheduleConfig;
use iolb_gpusim::DeviceSpec;
use iolb_records::{jsonl, RecordStore, TuningRecord, Workload};
use iolb_service::wire::{self, Request, Response};
use iolb_service::{ServeResult, ServeSource, TuneRequest};
use std::hint::black_box;

/// Every layer × algorithm candidate of a network, as a client submits it.
fn session(net: &iolb_cnn::Network) -> Vec<TuneRequest> {
    net.layers
        .iter()
        .flat_map(|l| algo_candidates(&l.shape).into_iter().map(|(kind, _)| (l.shape, kind)))
        .map(|(shape, kind)| TuneRequest::bare(shape, kind))
        .collect()
}

/// A hit result per request: the analytic config at a cost with a full
/// mantissa, as a warm daemon answers.
fn results(requests: &[TuneRequest], device: &DeviceSpec) -> Vec<Option<ServeResult>> {
    requests
        .iter()
        .enumerate()
        .map(|(i, r)| {
            fast_config(&r.shape, r.kind, device).map(|config| ServeResult {
                config,
                cost_ms: (i + 1) as f64 / 7.0,
                source: ServeSource::ShardHit,
                fresh_measurements: 0,
                cache_hits: 0,
                fused: false,
            })
        })
        .collect()
}

fn wire_frames(c: &mut Criterion) {
    let device = DeviceSpec::v100();
    let requests = session(&models::vgg19());
    let submit = Request::Submit { device: device.clone(), requests: requests.clone() };
    let answer = Response::Results { results: results(&requests, &device) };
    let submit_text = String::from_utf8(wire::encode_request(&submit)).expect("frames are UTF-8");
    let answer_text = String::from_utf8(wire::encode_response(&answer)).expect("frames are UTF-8");
    println!(
        "vgg19 session: {} requests, submit frame {} B, results frame {} B",
        requests.len(),
        submit_text.len(),
        answer_text.len()
    );

    let mut group = c.benchmark_group("wire-decode");
    group.bench_function("submit", |b| b.iter(|| black_box(wire::decode_request(&submit_text))));
    group.bench_function("results", |b| b.iter(|| black_box(wire::decode_response(&answer_text))));
    group.finish();

    // Into a warm buffer, as a connection's `Scratch` holds one.
    let mut out = String::new();
    let mut group = c.benchmark_group("wire-encode");
    group.bench_function("submit", |b| {
        b.iter(|| {
            out.clear();
            wire::encode_request_into(&submit, &mut out);
            black_box(out.len())
        })
    });
    group.bench_function("results", |b| {
        b.iter(|| {
            out.clear();
            wire::encode_response_into(&answer, &mut out);
            black_box(out.len())
        })
    });
    group.finish();
}

/// Sixteen records per zoo workload, bare and under a fused ReLU, as the
/// repository benchmark's budget-16 pre-fill leaves them.
fn zoo_store(device: &DeviceSpec) -> RecordStore {
    let mut store = RecordStore::new();
    let requests = models::all_networks().iter().flat_map(session).collect::<Vec<_>>();
    for epilogue in [Epilogue::None, Epilogue::Relu] {
        for request in &requests {
            let Some(config) = fast_config(&request.shape, request.kind, device) else { continue };
            let workload =
                Workload::new(request.shape, request.kind, device.name, device.smem_per_sm)
                    .with_epilogue(epilogue);
            for k in 1..=16usize {
                let cost_ms = (k * request.shape.cin) as f64 / 7.0;
                let config = ScheduleConfig { nzt: k, ..config };
                store.insert(
                    TuningRecord::new(workload.clone(), config, cost_ms, 7).expect("positive cost"),
                );
            }
        }
    }
    store
}

fn record_lines(c: &mut Criterion) {
    let store = zoo_store(&DeviceSpec::v100());
    let text = store.to_jsonl();
    let line = text.lines().nth(store.len() / 2).expect("non-empty store");
    let mut group = c.benchmark_group("records-decode");
    group.bench_function("line", |b| b.iter(|| black_box(jsonl::decode(line))));
    group.finish();
    let mut group = c.benchmark_group("records-from-jsonl");
    group.sample_size(20);
    group.bench_function(store.len().to_string(), |b| {
        b.iter(|| black_box(RecordStore::from_jsonl(&text)))
    });
    group.finish();
}

criterion_group!(benches, wire_frames, record_lines);
criterion_main!(benches);
