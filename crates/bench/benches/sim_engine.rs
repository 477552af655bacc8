//! Criterion benchmarks of the discrete-event substrate: event-queue
//! throughput and complete end-to-end workflow simulations — the Executor
//! side of the paper's architecture.

use aheft_core::policy::run_named_policy;
use aheft_core::runner::RunConfig;
use aheft_gridsim::engine::EventQueue;
use aheft_gridsim::event::Event;
use aheft_gridsim::pool::PoolDynamics;
use aheft_gridsim::time::SimTime;
use aheft_workflow::generators::random::{generate, RandomDagParams};
use aheft_workflow::JobId;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_event_queue(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue");
    for &n in &[1_000usize, 10_000] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                let mut q = EventQueue::new();
                for i in 0..n {
                    q.schedule(
                        SimTime::new((i % 97) as f64),
                        Event::JobFinished { job: JobId((i % 64) as u32) },
                    );
                }
                let mut count = 0u64;
                while let Some((t, _)) = q.pop() {
                    count += 1;
                    black_box(t);
                }
                count
            })
        });
    }
    group.finish();
}

/// Cost of aborting running jobs mid-simulation: each abort must cancel the
/// job's pending completion event in the future-event list. With lazy
/// tombstones this is O(1) per abort instead of O(pending events).
fn bench_event_queue_abort(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue_abort");
    for &n in &[1_000usize, 10_000] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                let mut q = EventQueue::new();
                let mut tokens = Vec::with_capacity(100);
                for i in 0..n {
                    let tok = q.schedule(
                        SimTime::new(i as f64),
                        Event::JobFinished { job: JobId(i as u32) },
                    );
                    if i < 100 {
                        tokens.push(tok);
                    }
                }
                for tok in tokens {
                    q.cancel(tok);
                }
                let mut count = 0u64;
                while q.pop().is_some() {
                    count += 1;
                }
                count
            })
        });
    }
    group.finish();
}

fn bench_full_runs(c: &mut Criterion) {
    let mut group = c.benchmark_group("end_to_end_run");
    let mut rng = StdRng::seed_from_u64(4);
    let p = RandomDagParams { jobs: 60, ..RandomDagParams::paper_default() };
    let wf = generate(&p, &mut rng);
    let costs = wf.sample_table(10, &mut rng);
    let dynamics = PoolDynamics::periodic_growth(10, 400.0, 0.25);
    let cfg = RunConfig::default();
    let run = |name| run_named_policy(name, &wf.dag, &costs, &wf.costgen, &dynamics, 5, &cfg);

    group.bench_function("static_heft_v60_r10", |b| b.iter(|| run("heft")));
    group.bench_function("aheft_v60_r10", |b| b.iter(|| run("aheft")));
    group.bench_function("dynamic_minmin_v60_r10", |b| b.iter(|| run("minmin")));
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_event_queue, bench_event_queue_abort, bench_full_runs
}
criterion_main!(benches);
