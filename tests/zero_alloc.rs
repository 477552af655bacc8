//! Pins the ISSUE-2 acceptance criterion: after planner warm-up, one AHEFT
//! scheduling pass performs **zero heap allocations** — every piece of
//! scratch state lives in the reused [`ScheduleWorkspace`].
//!
//! A counting global allocator wraps the system allocator; this lives in
//! its own integration-test binary so other tests' allocations don't bleed
//! into the counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// The allocation counter is process-global, but the libtest harness runs
/// `#[test]` fns concurrently — one test's warm-up allocations must not
/// land inside another's measured window. Every test takes this lock.
static SERIAL: Mutex<()> = Mutex::new(());

use aheft::core::aheft::{
    aheft_reschedule, aheft_schedule_into, AheftConfig, ReschedulableSet, ScheduleWorkspace,
};
use aheft::core::planner::{AdaptivePlanner, Decision, ReschedulePolicy};
use aheft::core::policy::PlanQueues;
use aheft::gridsim::executor::Snapshot;
use aheft::gridsim::reservation::SlotPolicy;
use aheft::prelude::*;
use aheft::workflow::generators::random::{generate, RandomDagParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Assert that `measure` performs zero heap allocations, tolerating rare
/// *ambient* process allocations (the counter is global: allocator
/// machinery, harness threads): a genuine per-pass allocation shows up in
/// **every** window, so it suffices that one of a few windows is clean.
fn assert_alloc_free(label: &str, mut measure: impl FnMut()) {
    let mut last = 0;
    for _ in 0..5 {
        let before = allocations();
        measure();
        last = allocations() - before;
        if last == 0 {
            return;
        }
    }
    panic!("{label}: {last} heap allocations in every measured window");
}

type Instance = (Dag, CostTable, Snapshot, Vec<ResourceId>);

fn midrun_instance(jobs: usize, resources: usize) -> Instance {
    midrun(&RandomDagParams { jobs, ..RandomDagParams::paper_default() }, resources)
}

/// A half-finished snapshot of a DAG drawn from `p` on `resources` alive
/// resources, with one committed transfer per finished out-edge.
fn midrun(p: &RandomDagParams, resources: usize) -> Instance {
    let mut rng = StdRng::seed_from_u64(42);
    let wf = generate(p, &mut rng);
    let costs = wf.sample_table(resources, &mut rng);
    let mut snap = Snapshot::initial(resources);
    snap.clock = 500.0;
    for (k, &j) in wf.dag.topo_order().to_vec().iter().take(p.jobs / 2).enumerate() {
        snap.set_finished(j, ResourceId::from(k % resources), 400.0);
        for &(_, e) in wf.dag.succs(j) {
            snap.add_transfer(e, ResourceId::from((k + 1) % resources), 450.0);
        }
    }
    let alive = (0..resources).map(ResourceId::from).collect();
    (wf.dag, costs, snap, alive)
}

#[test]
fn aheft_pass_allocates_nothing_after_warmup() {
    let _serial = SERIAL.lock().unwrap();
    let (dag, costs, snap, alive) = midrun_instance(120, 16);
    for config in [
        AheftConfig::default(),
        AheftConfig { slot_policy: SlotPolicy::EndOfQueue, ..Default::default() },
        AheftConfig { reschedulable: ReschedulableSet::NotStarted, ..Default::default() },
    ] {
        let mut ws = ScheduleWorkspace::new();
        // Warm-up: buffers grow to steady-state capacity.
        let warm = aheft_schedule_into(&dag, &costs, snap.view(), &alive, &config, &mut ws);
        aheft_schedule_into(&dag, &costs, snap.view(), &alive, &config, &mut ws);
        let mut last = 0.0;
        assert_alloc_free(&format!("{config:?}"), || {
            for _ in 0..10 {
                last = aheft_schedule_into(&dag, &costs, snap.view(), &alive, &config, &mut ws);
            }
        });
        assert_eq!(warm.to_bits(), last.to_bits(), "reuse changed the result");
    }
}

#[test]
fn large_pass_allocates_nothing_after_warmup() {
    // A large instance: warm passes stay zero-alloc at this size too.
    // v=1100 with out-degree at most 8 keeps the edge count realistic.
    let _serial = SERIAL.lock().unwrap();
    let (jobs, resources) = (1100, 480);
    let p =
        RandomDagParams { jobs, out_degree: 8.0 / jobs as f64, ..RandomDagParams::paper_default() };
    let (dag, costs, snap, alive) = midrun(&p, resources);
    let config = AheftConfig::default();
    let mut ws = ScheduleWorkspace::new();
    let warm = aheft_schedule_into(&dag, &costs, snap.view(), &alive, &config, &mut ws);
    aheft_schedule_into(&dag, &costs, snap.view(), &alive, &config, &mut ws);
    let mut last = 0.0;
    assert_alloc_free("large pass", || {
        for _ in 0..3 {
            last = aheft_schedule_into(&dag, &costs, snap.view(), &alive, &config, &mut ws);
        }
    });
    assert_eq!(warm.to_bits(), last.to_bits(), "reuse changed the result");
}

#[test]
fn warm_what_if_queries_allocate_nothing_after_warmup() {
    // ISSUE 10: a stream of what-if queries against one scenario version
    // must be allocation-free after the first query grows the scratch
    // buffers — the hypothetical table is built by appending columns to a
    // clone cached on the workspace and truncating them back off in place
    // (`CostTable::truncate_resources`), never by cloning per query. The
    // window runs the baseline pass and then every hypothetical pass.
    let _serial = SERIAL.lock().unwrap();
    let (dag, costs, snap, alive) = midrun_instance(120, 16);
    let config = AheftConfig::default();
    let column = vec![25.0; dag.job_count()];
    let queries = [
        WhatIfQuery::AddResources { columns: vec![column.clone()] },
        WhatIfQuery::RemoveResource(ResourceId(3)),
        WhatIfQuery::Modify { add: vec![column], remove: vec![ResourceId(5)] },
    ];
    let mut ws = ScheduleWorkspace::new();
    let mut ask = |answers: &mut Vec<f64>| {
        answers.clear();
        answers.push(aheft_schedule_into(&dag, &costs, snap.view(), &alive, &config, &mut ws));
        for q in &queries {
            answers.push(what_if(&dag, &costs, &snap, &alive, &config, q, &mut ws).unwrap());
        }
    };
    // Warm-up: scratch table synced, pool buffers grown, rank caches hot.
    let mut warm = Vec::new();
    ask(&mut warm);
    ask(&mut warm);
    let mut last = Vec::with_capacity(queries.len() + 1);
    assert_alloc_free("warm what-if window", || {
        for _ in 0..5 {
            ask(&mut last);
        }
    });
    for (w, l) in warm.iter().zip(&last) {
        assert_eq!(w.to_bits(), l.to_bits());
    }
}

#[test]
fn plan_adoption_allocates_nothing_after_warmup() {
    // The runner's plan-replacement path: adopting a new plan into the
    // per-resource execution queues must reuse the queue buffers (ISSUE 5
    // satellite — previously every adoption rebuilt Vec<Vec<_>> from
    // scratch).
    let _serial = SERIAL.lock().unwrap();
    let (dag, costs, snap, alive) = midrun_instance(120, 16);
    let initial = aheft_reschedule(
        &dag,
        &costs,
        &aheft::gridsim::executor::Snapshot::initial(16),
        &alive,
        &AheftConfig::default(),
    );
    let midrun = aheft_reschedule(&dag, &costs, &snap, &alive, &AheftConfig::default());
    let mut queues = PlanQueues::new();
    // Warm-up: queue buffers grow to the larger of the two plans.
    queues.adopt(&initial.plan, 16);
    queues.adopt(&midrun.plan, 16);
    assert_alloc_free("plan adoption", || {
        // Alternate plans so every adoption genuinely rewrites the queues.
        queues.adopt(&initial.plan, 16);
        queues.adopt(&midrun.plan, 16);
    });
}

#[test]
fn planner_keep_evaluation_allocates_nothing_after_warmup() {
    // The runner's per-event path: planner evaluation ending in `Keep`
    // (the overwhelmingly common case across a sweep) must be free.
    let _serial = SERIAL.lock().unwrap();
    let (dag, costs, snap, alive) = midrun_instance(80, 8);
    let mut planner = AdaptivePlanner::new(AheftConfig::default(), ReschedulePolicy::default());
    planner.initial_plan(&dag, &costs);
    // Warm up the evaluation path (first call may also accept; later
    // identical candidates are always Keep).
    planner.evaluate(&dag, &costs, snap.view(), &alive);
    planner.evaluate(&dag, &costs, snap.view(), &alive);
    assert_alloc_free("Keep evaluation", || {
        for _ in 0..10 {
            let decision = planner.evaluate(&dag, &costs, snap.view(), &alive);
            assert!(matches!(decision, Decision::Keep { .. }), "identical candidate must be kept");
        }
    });
}
