//! Raw-speed frontier benchmarks: the v=20k / R=1024 decade.
//!
//! * `xl_pass` — one full AHEFT rescheduling pass over a half-finished
//!   v=20 000 / R=1024 snapshot, from a fresh workspace and warm (mirror
//!   and rank caches hot). This is the headline number recorded in
//!   `BENCH_XL.json`.
//! * `rank_sweep` — rank rebuilds on wide layered DAGs at v ∈ {5k, 20k}.
//! * `event_queue` — 20k-event abort/drain storms, lazy tombstones vs
//!   threshold compaction.
//!
//! Bench names keep their `tiled` and `t1` labels so they match the rows
//! already recorded in `BENCH_XL.json`.

use aheft_core::aheft::{aheft_schedule_into, AheftConfig, ScheduleWorkspace};
use aheft_gridsim::engine::EventQueue;
use aheft_gridsim::event::Event;
use aheft_gridsim::executor::Snapshot;
use aheft_gridsim::time::SimTime;
use aheft_workflow::generators::random::{generate, RandomDagParams};
use aheft_workflow::rank_engine::RankEngine;
use aheft_workflow::{CostTable, Dag, DagBuilder, JobId, ResourceId};
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

/// The frontier instance: v=20 000, R=1024, half the DAG finished
/// round-robin across the pool with one committed transfer per finished
/// out-edge — the planner's worst realistic mid-run evaluation.
fn xl_instance(jobs: usize, resources: usize) -> (Dag, CostTable, Snapshot, Vec<ResourceId>) {
    let mut rng = StdRng::seed_from_u64(9);
    // `out_degree` is a *fraction* of v; the paper default (0.2) yields
    // ~25M edges at v=20k (avg in-degree ~2500), which makes every pass
    // edge-classification-bound — identical work in all kernels. Real XL
    // workflows (Montage/LIGO-style) have bounded degree, so pin the max
    // out-degree at 8 absolute.
    let p =
        RandomDagParams { jobs, out_degree: 8.0 / jobs as f64, ..RandomDagParams::paper_default() };
    let wf = generate(&p, &mut rng);
    let costs = wf.sample_table(resources, &mut rng);
    let mut snap = Snapshot::initial(resources);
    snap.clock = 500.0;
    snap.resource_avail = vec![500.0; resources];
    for (k, &j) in wf.dag.topo_order().to_vec().iter().take(jobs / 2).enumerate() {
        snap.set_finished(j, ResourceId::from(k % resources), 400.0);
        for &(_, e) in wf.dag.succs(j) {
            snap.add_transfer(e, ResourceId::from((k + 1) % resources), 450.0);
        }
    }
    let alive = (0..resources).map(ResourceId::from).collect();
    (wf.dag, costs, snap, alive)
}

fn bench_xl_pass(c: &mut Criterion) {
    let (dag, costs, snap, alive) = xl_instance(20_000, 1024);
    let config = AheftConfig::default();
    let mut group = c.benchmark_group("xl_pass");
    group.sample_size(10);
    group.bench_function("v20k_r1024_tiled_fromscratch", |b| {
        b.iter(|| {
            let mut ws = ScheduleWorkspace::new();
            black_box(aheft_schedule_into(
                black_box(&dag),
                black_box(&costs),
                snap.view(),
                &alive,
                &config,
                &mut ws,
            ))
        })
    });
    let mut ws = ScheduleWorkspace::new();
    aheft_schedule_into(&dag, &costs, snap.view(), &alive, &config, &mut ws);
    group.bench_function("v20k_r1024_tiled_warm", |b| {
        b.iter(|| {
            black_box(aheft_schedule_into(
                black_box(&dag),
                black_box(&costs),
                snap.view(),
                &alive,
                &config,
                &mut ws,
            ))
        })
    });
    group.finish();
}

/// Wide layered DAG (width per level, `depth` levels, each job feeding 4
/// jobs of the next level).
fn layered(width: usize, depth: usize, resources: usize) -> (Dag, CostTable) {
    let mut b = DagBuilder::new();
    let ids: Vec<JobId> = (0..width * depth).map(|i| b.add_job(format!("j{i}"))).collect();
    for d in 0..depth - 1 {
        for w in 0..width {
            for k in 0..4 {
                let dst = (w * 7 + k * 13 + 1) % width;
                b.add_edge(ids[d * width + w], ids[(d + 1) * width + dst], 1.0).unwrap();
            }
        }
    }
    let dag = b.build().unwrap();
    let rows: Vec<Vec<f64>> = (0..width * depth)
        .map(|i| (0..resources).map(|r| 1.0 + ((i * 31 + r * 17) % 97) as f64).collect())
        .collect();
    let costs = CostTable::from_dag_comm(&dag, &rows, 1.0).unwrap();
    (dag, costs)
}

fn bench_rank_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("rank_sweep");
    group.sample_size(10);
    for (v_label, width, depth) in [("v5k", 1000usize, 5usize), ("v20k", 1000, 20)] {
        let resources = 256;
        let (dag, costs) = layered(width, depth, resources);
        let full: Vec<ResourceId> = (0..resources).map(ResourceId::from).collect();
        let minus_one: Vec<ResourceId> = (0..resources - 1).map(ResourceId::from).collect();
        let mut engine = RankEngine::new();
        let mut flip = false;
        group.bench_function(format!("{v_label}_rebuild_t1"), |b| {
            b.iter(|| {
                // Alternate the alive set so every update takes the full
                // rebuild path (fold + forced sweep).
                flip = !flip;
                let alive = if flip { &full } else { &minus_one };
                black_box(engine.update(black_box(&dag), black_box(&costs), alive, |_| false))
            })
        });
    }
    group.finish();
}

fn bench_event_queue(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue");
    group.sample_size(10);
    let n = 20_000usize;
    for (label, compact_min) in [("lazy", usize::MAX), ("compacting", 1024)] {
        group.bench_function(format!("abort_storm_n20k_{label}"), |b| {
            b.iter(|| {
                let mut q = EventQueue::new();
                q.set_compaction_min(compact_min);
                let tokens: Vec<_> = (0..n)
                    .map(|i| {
                        q.schedule(
                            SimTime::new(((i * 37) % n) as f64),
                            Event::JobFinished { job: JobId(i as u32) },
                        )
                    })
                    .collect();
                // Cancel three quarters (plan replacement aborting
                // queued work), then drain the survivors.
                for (i, t) in tokens.into_iter().enumerate() {
                    if i % 4 != 0 {
                        q.cancel(t);
                    }
                }
                let mut popped = 0u64;
                while let Some((t, _)) = q.pop() {
                    popped += 1;
                    black_box(t);
                }
                black_box((popped, q.compactions()))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_event_queue, bench_rank_sweep, bench_xl_pass);
criterion_main!(benches);
