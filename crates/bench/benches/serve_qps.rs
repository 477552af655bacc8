//! ISSUE 10 serve-layer throughput: the what-if/placement query engine
//! over a v=1000 / R=100 mid-run scenario (the BENCH_SERVE.json numbers).
//!
//! * `serve_qps` — the headline batch-size × threads matrix: a stream of
//!   *warm* what-if queries (the monitoring-dashboard shape: "what if
//!   node k fails?" polled across the pool — 128 distinct removal
//!   questions cycled over a 256-line log, so repeats hit the engine's
//!   per-version response cache). Per-query time = mean / 256.
//! * `serve_payload` — the same matrix shape at t1/b16 but with half the
//!   log carrying 1000-entry hypothetical cost columns: throughput here
//!   is bound by parsing the ~5 KB request payloads, not by scheduling.
//! * `serve_miss` — every query distinct (cache-defeating): the marginal
//!   cost of a *new* what-if under a warm per-worker workspace.
//! * `serve_cold` — the pre-serve baseline: one library `what_if` call
//!   with a fresh `ScheduleWorkspace::new()` per query, the shape a
//!   one-shot caller pays. The ≥10x acceptance arm.
//! * `serve_delta` — apply-delta publication rate (copy-on-write snapshot
//!   clone + version bump + cache invalidation).

use aheft_core::aheft::{AheftConfig, ScheduleWorkspace};
use aheft_core::whatif::{what_if, WhatIfQuery};
use aheft_serve::engine::QueryEngine;
use aheft_serve::scenario::ScenarioParams;
use aheft_workflow::ResourceId;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

const JOBS: usize = 1000;
const RESOURCES: usize = 100;
const DISTINCT: usize = 128;
const LOG_LEN: usize = 256;

fn params() -> ScenarioParams {
    ScenarioParams { jobs: JOBS, resources: RESOURCES, seed: 42, finished: 0.5 }
}

/// The headline warm log: `LOG_LEN` lines cycling over `DISTINCT`
/// distinct pool-failure questions — every single-node removal plus a
/// band of two-node removals, the shape a monitoring dashboard polls on
/// every refresh.
fn query_log() -> Vec<String> {
    let distinct: Vec<String> = (0..DISTINCT)
        .map(|k| {
            if k < RESOURCES {
                format!(r#"{{"id":{k},"op":"whatif","remove":[{k}]}}"#)
            } else {
                let a = (k * 3) % RESOURCES;
                let b = (k * 3 + 7) % RESOURCES;
                format!(r#"{{"id":{k},"op":"whatif","remove":[{a},{b}]}}"#)
            }
        })
        .collect();
    (0..LOG_LEN).map(|i| distinct[i % DISTINCT].clone()).collect()
}

/// The payload-heavy warm log: half the lines carry a 1000-entry
/// hypothetical cost column (~5 KB of JSON each), so even a cache hit
/// pays the full request parse.
fn payload_log() -> Vec<String> {
    let distinct: Vec<String> = (0..32)
        .map(|k| {
            if k % 2 == 0 {
                format!(r#"{{"id":{k},"op":"whatif","remove":[{}]}}"#, k % RESOURCES)
            } else {
                let col = vec![format!("{}", 20 + k % 7); JOBS].join(",");
                format!(r#"{{"id":{k},"op":"whatif","add":[[{col}]]}}"#)
            }
        })
        .collect();
    (0..LOG_LEN).map(|i| distinct[i % 32].clone()).collect()
}

fn bench_serve_qps(c: &mut Criterion) {
    let log = query_log();
    let mut group = c.benchmark_group("serve_qps");
    group.sample_size(10);
    for threads in [1usize, 2, 4] {
        for batch in [1usize, 16, 64] {
            let engine = QueryEngine::new(params().build(), threads);
            let mut out = String::new();
            // Warm-up: every distinct query evaluated once, caches filled.
            engine.process_batch(log.iter().map(String::as_str), &mut out);
            group.bench_function(format!("warm_whatif_t{threads}_b{batch}_q{LOG_LEN}"), |b| {
                b.iter(|| {
                    out.clear();
                    for chunk in log.chunks(batch) {
                        engine.process_batch(chunk.iter().map(String::as_str), &mut out);
                    }
                    black_box(out.len())
                })
            });
        }
    }
    group.finish();
}

fn bench_serve_payload(c: &mut Criterion) {
    // Same engine, but the request lines themselves are ~5 KB (1000-entry
    // add columns): throughput is bound by JSON parsing, not scheduling.
    let log = payload_log();
    let engine = QueryEngine::new(params().build(), 1);
    let mut out = String::new();
    engine.process_batch(log.iter().map(String::as_str), &mut out);
    let mut group = c.benchmark_group("serve_payload");
    group.sample_size(10);
    group.bench_function(format!("warm_addcol_t1_b16_q{LOG_LEN}"), |b| {
        b.iter(|| {
            out.clear();
            for chunk in log.chunks(16) {
                engine.process_batch(chunk.iter().map(String::as_str), &mut out);
            }
            black_box(out.len())
        })
    });
    group.finish();
}

fn bench_serve_miss(c: &mut Criterion) {
    // Cache-defeating: every query names a different removal set, so each
    // one pays a real evaluation on a warm per-worker workspace.
    let engine = QueryEngine::new(params().build(), 1);
    let mut out = String::new();
    engine.process_line(r#"{"id":0,"op":"replan"}"#, &mut out);
    let mut k = 0usize;
    let mut group = c.benchmark_group("serve_miss");
    group.sample_size(10);
    group.bench_function("warm_ws_distinct_whatif", |b| {
        b.iter(|| {
            k += 1;
            let line = format!(
                r#"{{"id":{k},"op":"whatif","remove":[{},{}]}}"#,
                k % RESOURCES,
                (k + 7) % RESOURCES
            );
            out.clear();
            engine.process_line(&line, &mut out);
            black_box(out.len())
        })
    });
    group.finish();
}

fn bench_serve_cold(c: &mut Criterion) {
    // The pre-serve shape: a fresh workspace per query, no caching of any
    // kind — what a one-shot `whatif::what_if` caller pays.
    let scen = params().build();
    let config = AheftConfig::default();
    let mut k = 0usize;
    let mut group = c.benchmark_group("serve_cold");
    group.sample_size(10);
    group.bench_function("new_ws_per_query_whatif", |b| {
        b.iter(|| {
            k += 1;
            let mut ws = ScheduleWorkspace::new();
            let query = WhatIfQuery::RemoveResource(ResourceId::from(k % RESOURCES));
            black_box(
                what_if(
                    &scen.dag,
                    &scen.costs,
                    &scen.snapshot,
                    &scen.alive,
                    &config,
                    &query,
                    &mut ws,
                )
                .unwrap(),
            )
        })
    });
    group.finish();
}

fn bench_serve_delta(c: &mut Criterion) {
    let engine = QueryEngine::new(params().build(), 1);
    let mut out = String::new();
    let mut t = 500.0f64;
    let mut group = c.benchmark_group("serve_delta");
    group.sample_size(10);
    group.bench_function("clock_delta_publish", |b| {
        b.iter(|| {
            t += 0.25;
            let line = format!(r#"{{"id":1,"op":"delta","event":"clock","clock":{t}}}"#);
            out.clear();
            engine.process_line(&line, &mut out);
            black_box(out.len())
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_serve_qps,
    bench_serve_payload,
    bench_serve_miss,
    bench_serve_cold,
    bench_serve_delta
);
criterion_main!(benches);
