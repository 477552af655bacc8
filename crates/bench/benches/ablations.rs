//! Criterion benchmarks of the design-choice ablations (DESIGN.md §4):
//! the runtime cost of each algorithm variant on identical inputs, so the
//! quality ablation (`experiments -- ablations`) can be weighed against
//! planner overhead.

use aheft_core::aheft::AheftConfig;
use aheft_core::policy::run_named_policy;
use aheft_core::runner::RunConfig;
use aheft_core::SlotPolicy;
use aheft_gridsim::pool::PoolDynamics;
use aheft_workflow::generators::blast::{self, AppDagParams};
use aheft_workflow::generators::random::{generate, RandomDagParams};
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_slot_policy(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_slot_policy");
    let mut rng = StdRng::seed_from_u64(11);
    let p = RandomDagParams { jobs: 100, ..RandomDagParams::paper_default() };
    let wf = generate(&p, &mut rng);
    let costs = wf.sample_table(20, &mut rng);
    let fixed = PoolDynamics::fixed(20);
    for (name, policy) in
        [("insertion", SlotPolicy::Insertion), ("end_of_queue", SlotPolicy::EndOfQueue)]
    {
        let cfg = RunConfig {
            aheft: AheftConfig { slot_policy: policy, ..Default::default() },
            ..Default::default()
        };
        group.bench_function(name, |b| {
            b.iter(|| {
                black_box(run_named_policy("heft", &wf.dag, &costs, &wf.costgen, &fixed, 1, &cfg))
            })
        });
    }
    group.finish();
}

fn bench_reschedulable_set(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_running_jobs");
    group.sample_size(10);
    let mut rng = StdRng::seed_from_u64(12);
    let p = AppDagParams { parallelism: 100, ..AppDagParams::paper_default() };
    let wf = blast::generate(&p, &mut rng);
    let costs = wf.sample_table(10, &mut rng);
    let dynamics = PoolDynamics::periodic_growth(10, 400.0, 0.25);
    let cfg = RunConfig::default();
    for (name, policy) in [("abort_running", "aheft"), ("pin_running", "aheft-pin")] {
        group.bench_function(name, |b| {
            b.iter(|| {
                black_box(run_named_policy(
                    policy,
                    &wf.dag,
                    &costs,
                    &wf.costgen,
                    &dynamics,
                    1,
                    &cfg,
                ))
            })
        });
    }
    group.finish();
}

fn bench_dynamic_heuristics(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_dynamic_heuristics");
    group.sample_size(10);
    let mut rng = StdRng::seed_from_u64(13);
    let p = RandomDagParams { jobs: 60, ccr: 5.0, ..RandomDagParams::paper_default() };
    let wf = generate(&p, &mut rng);
    let costs = wf.sample_table(10, &mut rng);
    let fixed = PoolDynamics::fixed(10);
    let cfg = RunConfig::default();
    for name in ["minmin", "maxmin", "sufferage"] {
        group.bench_function(name, |b| {
            b.iter(|| {
                black_box(run_named_policy(name, &wf.dag, &costs, &wf.costgen, &fixed, 1, &cfg))
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_slot_policy, bench_reschedulable_set, bench_dynamic_heuristics
}
criterion_main!(benches);
