//! Criterion micro-benchmarks of the scheduling algorithms themselves:
//! how expensive is one HEFT pass, one AHEFT rescheduling pass, and one
//! dynamic Min-Min batch selection, as `v` and `R` grow. These are the
//! planner-side costs the paper's architecture pays per event.

use aheft_core::aheft::{aheft_reschedule, aheft_schedule_into, AheftConfig, ScheduleWorkspace};
use aheft_core::heft::heft_schedule;
use aheft_core::minmin::{select_batch, DynamicHeuristic};
use aheft_core::SlotPolicy;
use aheft_gridsim::executor::{ExecState, Snapshot};
use aheft_workflow::generators::random::{generate, RandomDagParams};
use aheft_workflow::ResourceId;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_heft(c: &mut Criterion) {
    let mut group = c.benchmark_group("heft_schedule");
    for &(jobs, resources) in &[(20usize, 10usize), (60, 10), (100, 30), (100, 50)] {
        let mut rng = StdRng::seed_from_u64(1);
        let p = RandomDagParams { jobs, ..RandomDagParams::paper_default() };
        let wf = generate(&p, &mut rng);
        let costs = wf.sample_table(resources, &mut rng);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("v{jobs}_r{resources}")),
            &(&wf.dag, &costs),
            |b, (dag, costs)| {
                b.iter(|| heft_schedule(black_box(dag), black_box(costs), SlotPolicy::Insertion))
            },
        );
    }
    group.finish();
}

fn bench_aheft_reschedule(c: &mut Criterion) {
    let mut group = c.benchmark_group("aheft_reschedule_mid_execution");
    for &jobs in &[60usize, 100] {
        let resources = 20;
        let mut rng = StdRng::seed_from_u64(2);
        let p = RandomDagParams { jobs, ..RandomDagParams::paper_default() };
        let wf = generate(&p, &mut rng);
        let costs = wf.sample_table(resources, &mut rng);
        // Mid-execution snapshot: the first third of the topo order done.
        let mut snap = Snapshot::initial(resources);
        snap.clock = 500.0;
        snap.resource_avail = vec![500.0; resources];
        for &j in wf.dag.topo_order().iter().take(jobs / 3) {
            snap.set_finished(j, ResourceId(0), 400.0);
        }
        let alive: Vec<ResourceId> = (0..resources).map(ResourceId::from).collect();
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("v{jobs}")),
            &(&wf.dag, &costs, &snap, &alive),
            |b, (dag, costs, snap, alive)| {
                b.iter(|| {
                    aheft_reschedule(
                        black_box(dag),
                        black_box(costs),
                        black_box(snap),
                        black_box(alive),
                        &AheftConfig::default(),
                    )
                })
            },
        );
    }
    group.finish();
}

/// The ISSUE-2 headline benchmark: a *large* mid-run snapshot (half the DAG
/// finished, committed transfers in the ledger) at the paper's sweep scale.
/// This is the hot path of the 500k-case evaluation: one planner evaluation
/// per resource-pool change.
fn bench_aheft_reschedule_large(c: &mut Criterion) {
    let mut group = c.benchmark_group("aheft_reschedule_midrun_large");
    let (jobs, resources) = (1000usize, 100usize);
    let mut rng = StdRng::seed_from_u64(7);
    let p = RandomDagParams { jobs, ..RandomDagParams::paper_default() };
    let wf = generate(&p, &mut rng);
    let costs = wf.sample_table(resources, &mut rng);
    // Half the topo order finished, spread round-robin over the pool, with
    // one committed transfer per outgoing edge (a realistic file ledger).
    let mut snap = Snapshot::initial(resources);
    snap.clock = 1_000.0;
    snap.resource_avail = vec![1_000.0; resources];
    for (k, &j) in wf.dag.topo_order().iter().take(jobs / 2).enumerate() {
        let r = ResourceId::from(k % resources);
        snap.set_finished(j, r, 900.0);
        for &(_, e) in wf.dag.succs(j) {
            snap.add_transfer(e, ResourceId::from((k + 1) % resources), 950.0);
        }
    }
    let alive: Vec<ResourceId> = (0..resources).map(ResourceId::from).collect();
    // Cold path: a fresh workspace (and an owned output plan) per call.
    group.bench_function("v1000_r100_half_finished", |b| {
        b.iter(|| {
            aheft_reschedule(
                black_box(&wf.dag),
                black_box(&costs),
                black_box(&snap),
                black_box(&alive),
                &AheftConfig::default(),
            )
        })
    });
    // Warm path: the planner's steady state — reused workspace, zero heap
    // allocations per evaluation (see tests/zero_alloc.rs).
    let mut ws = ScheduleWorkspace::new();
    group.bench_function("v1000_r100_half_finished_warm_workspace", |b| {
        b.iter(|| {
            aheft_schedule_into(
                black_box(&wf.dag),
                black_box(&costs),
                black_box(snap.view()),
                black_box(&alive),
                &AheftConfig::default(),
                &mut ws,
            )
        })
    });
    group.finish();
}

fn bench_minmin_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("minmin_select_batch");
    for &jobs in &[10usize, 50, 200] {
        let resources = 20;
        let mut rng = StdRng::seed_from_u64(3);
        let p = RandomDagParams { jobs, ..RandomDagParams::paper_default() };
        let wf = generate(&p, &mut rng);
        let costs = wf.sample_table(resources, &mut rng);
        let state = ExecState::new(jobs);
        let ready: Vec<_> = wf.dag.entry_jobs();
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("v{jobs}_ready{}", ready.len())),
            &(&wf.dag, &costs, &state, &ready),
            |b, (dag, costs, state, ready)| {
                b.iter(|| {
                    let mut avail: Vec<Option<f64>> = vec![Some(0.0); resources];
                    select_batch(
                        black_box(dag),
                        black_box(costs),
                        black_box(state),
                        0.0,
                        &mut avail,
                        black_box(ready),
                        DynamicHeuristic::MinMin,
                    )
                })
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_heft, bench_aheft_reschedule, bench_aheft_reschedule_large, bench_minmin_batch
}
criterion_main!(benches);
