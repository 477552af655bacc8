//! Differential pinning of the dense-state scheduler refactor (ISSUE 2).
//!
//! The paired-comparison methodology of the paper depends on the scheduler
//! being *deterministic*, and the refactor to dense, workspace-reused state
//! must be *behaviour-preserving bit for bit*. This suite checks the
//! production scheduler against an independent **oracle** implementation
//! that mirrors the pre-refactor hot path exactly: hash-map keyed snapshot
//! state, per-(job, resource, predecessor) FEA classification, fresh
//! allocations per pass — the straightforward transcription of the paper's
//! Fig. 3 + Eq. 1 that the seed repository shipped.
//!
//! Over seeded random DAGs × mid-run snapshots × pool subsets, plans must
//! be **byte-identical** (same jobs, same resources, same f64 start/finish
//! bits) whether produced by the oracle, by a fresh workspace, or by a
//! dirty workspace reused across unrelated instances.
//!
//! The oracle never prunes the EFT scan and reads costs one `comp(i, r)` at
//! a time, so it is the reference for the production pass: its
//! unconditional lower-bound prune, its group-fold Eq. 2 and its per-job
//! cost rows. A table grown by joins (row padding, re-strides, branched
//! clones, truncations) is checked against one built at once from the same
//! columns.

use std::collections::HashMap;

use aheft::core::aheft::{
    aheft_reschedule, aheft_schedule_into, AheftConfig, ReschedulableSet, ScheduleWorkspace,
};
use aheft::gridsim::executor::Snapshot;
use aheft::gridsim::plan::Assignment;
use aheft::gridsim::reservation::{SlotPolicy, SlotTable};
use aheft::prelude::*;
use aheft::workflow::generators::random::{generate, RandomDagParams};
use aheft::workflow::rank::{priority_order_from_ranks, rank_upward_over};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Pre-refactor reference: hash-map state, FEA classified per
/// (job, resource, predecessor). Returns (assignments, predicted makespan).
fn oracle_reschedule(
    dag: &Dag,
    costs: &CostTable,
    snapshot: &Snapshot,
    alive: &[ResourceId],
    config: &AheftConfig,
) -> (Vec<Assignment>, f64) {
    let clock = snapshot.clock;
    let total_resources = costs.resource_count();

    let mut floor = vec![f64::INFINITY; total_resources];
    for &r in alive {
        let reported = snapshot.resource_avail.get(r.idx()).copied().unwrap_or(clock);
        floor[r.idx()] = reported.max(clock);
    }

    let mut pinned: HashMap<JobId, (ResourceId, f64)> = HashMap::new();
    if config.reschedulable == ReschedulableSet::NotStarted {
        for j in dag.job_ids() {
            if let aheft::gridsim::JobState::Running { resource, expected_finish, .. } =
                snapshot.state.state(j)
            {
                pinned.insert(j, (resource, expected_finish));
                if resource.idx() < floor.len() {
                    floor[resource.idx()] = floor[resource.idx()].max(expected_finish);
                }
            }
        }
    }

    let ranks = rank_upward_over(dag, costs, alive);
    let order = priority_order_from_ranks(dag, &ranks);

    let mut tables: Vec<SlotTable> = vec![SlotTable::new(); total_resources];
    let mut placed: HashMap<JobId, (ResourceId, f64)> = HashMap::new();
    let mut assignments = Vec::new();

    for &job in &order {
        if snapshot.is_finished(job) || pinned.contains_key(&job) {
            continue;
        }
        let mut best: Option<(f64, f64, ResourceId)> = None;
        for &r in alive {
            let w = costs.comp(job, r);
            let mut ready = clock;
            for &(p, e) in dag.preds(job) {
                // Eq. 1, classified from scratch for every (job, r, pred).
                let t = if snapshot.is_finished(p) {
                    match snapshot.state.edge_data_available(p, e, r) {
                        Some(t) => t,
                        None => clock + costs.comm(e),
                    }
                } else if let Some(&(rp, ef)) = pinned.get(&p) {
                    if rp == r {
                        ef
                    } else {
                        ef + costs.comm(e)
                    }
                } else {
                    let &(rp, sft) = placed.get(&p).expect("topological order");
                    if rp == r {
                        sft
                    } else {
                        sft + costs.comm(e)
                    }
                };
                if t > ready {
                    ready = t;
                }
            }
            let start =
                tables[r.idx()].earliest_start(ready.max(floor[r.idx()]), w, config.slot_policy);
            let eft = start + w;
            if best.is_none_or(|(b, _, _)| eft < b) {
                best = Some((eft, start, r));
            }
        }
        let (eft, start, r) = best.expect("alive is non-empty");
        tables[r.idx()].reserve(start, eft - start, job);
        placed.insert(job, (r, eft));
        assignments.push(Assignment { job, resource: r, start, finish: eft });
    }

    let mut predicted = assignments.iter().map(|a| a.finish).fold(0.0, f64::max);
    for j in dag.job_ids() {
        if let aheft::gridsim::JobState::Finished { aft, .. } = snapshot.state.state(j) {
            predicted = predicted.max(aft);
        }
    }
    for &(_, ef) in pinned.values() {
        predicted = predicted.max(ef);
    }
    (assignments, predicted)
}

/// Byte-exact assignment comparison (f64 compared by bit pattern).
fn assert_identical(kind: &str, seed: u64, a: &[Assignment], b: &[Assignment]) {
    assert_eq!(a.len(), b.len(), "{kind} (seed {seed}): plan lengths differ");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.job, y.job, "{kind} (seed {seed})");
        assert_eq!(x.resource, y.resource, "{kind} (seed {seed}): {} placed differently", x.job);
        assert_eq!(
            x.start.to_bits(),
            y.start.to_bits(),
            "{kind} (seed {seed}): {} start {} vs {}",
            x.job,
            x.start,
            y.start
        );
        assert_eq!(
            x.finish.to_bits(),
            y.finish.to_bits(),
            "{kind} (seed {seed}): {} finish {} vs {}",
            x.job,
            x.finish,
            y.finish
        );
    }
}

/// Fabricate a plausible mid-run snapshot: a topo prefix finished (spread
/// over resources, with committed transfers for some out-edges), a couple
/// of jobs running, the rest waiting. The reported availability floors
/// are absent, one per resource, or fewer than the pool, and lie above the
/// clock on some resources and at or below it on others.
fn fabricate_snapshot(
    dag: &Dag,
    costs: &CostTable,
    resources: usize,
    rng: &mut StdRng,
) -> Snapshot {
    let clock = 100.0 + rng.random_range(0.0..200.0);
    let mut snap = Snapshot::initial(resources);
    snap.clock = clock;
    let reported = match rng.random_range(0..3) {
        0 => 0,
        1 => resources,
        _ => rng.random_range(1..resources),
    };
    snap.resource_avail = (0..reported)
        .map(|_| match rng.random_range(0..3) {
            0 => clock + rng.random_range(1.0..60.0),
            1 => clock,
            _ => clock - rng.random_range(1.0..60.0),
        })
        .collect();
    let done = rng.random_range(0..=dag.job_count() / 2);
    let topo: Vec<JobId> = dag.topo_order().to_vec();
    for (k, &j) in topo.iter().take(done).enumerate() {
        let r = ResourceId::from(k % resources);
        let aft = clock * (0.2 + 0.6 * (k as f64 / done.max(1) as f64));
        snap.set_finished(j, r, aft);
        for &(_, e) in dag.succs(j) {
            if rng.random_range(0.0..1.0) < 0.5 {
                let dest = ResourceId::from(rng.random_range(0..resources));
                snap.add_transfer(e, dest, aft + costs.comm(e));
            }
        }
    }
    // Up to two running jobs whose predecessors are all in the done prefix.
    let mut running = 0;
    for &j in topo.iter().skip(done) {
        if running >= 2 {
            break;
        }
        if dag.preds(j).iter().all(|&(p, _)| snap.is_finished(p)) {
            let r = ResourceId::from(rng.random_range(0..resources));
            snap.set_running(j, r, clock - 5.0, clock + rng.random_range(1.0..50.0));
            running += 1;
        }
    }
    snap
}

/// Like [`fabricate_snapshot`], but every finished out-edge carries 0–3
/// committed transfers, arriving at the producer's AFT, at `aft + comm`, at
/// the retransmit time `clock + comm` or at a fixed later time. Repeated
/// destinations keep the earliest arrival.
fn fabricate_multi_transfer_snapshot(
    dag: &Dag,
    costs: &CostTable,
    resources: usize,
    rng: &mut StdRng,
) -> Snapshot {
    let clock = 100.0 + rng.random_range(0.0..200.0);
    let mut snap = Snapshot::initial(resources);
    snap.clock = clock;
    let done = rng.random_range(dag.job_count() / 4..=dag.job_count() * 3 / 4);
    let topo: Vec<JobId> = dag.topo_order().to_vec();
    for (k, &j) in topo.iter().take(done).enumerate() {
        let aft = clock * (0.2 + 0.6 * (k as f64 / done.max(1) as f64));
        snap.set_finished(j, ResourceId::from(rng.random_range(0..resources)), aft);
        for &(_, e) in dag.succs(j) {
            for _ in 0..rng.random_range(0..=3) {
                let dest = ResourceId::from(rng.random_range(0..resources));
                let arrival = match rng.random_range(0..4) {
                    0 => aft,
                    1 => aft + costs.comm(e),
                    2 => clock + costs.comm(e),
                    _ => clock + 40.0,
                };
                snap.add_transfer(e, dest, arrival);
            }
        }
    }
    for &j in topo.iter().skip(done).take(8) {
        if dag.preds(j).iter().all(|&(p, _)| snap.is_finished(p)) {
            let r = ResourceId::from(rng.random_range(0..resources));
            snap.set_running(j, r, clock - 5.0, clock + rng.random_range(1.0..50.0));
            break;
        }
    }
    snap
}

/// The size corners of the random range below (jobs 4–80, R 2–20), run
/// first so every bound is hit whatever the draws.
const CORNERS: [(usize, usize); 4] = [(4, 2), (4, 20), (80, 2), (80, 20)];

#[test]
fn scheduler_matches_prerefactor_oracle_on_random_instances() {
    let mut ws = ScheduleWorkspace::new(); // deliberately reused across all cases
    for seed in 0..48u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let (jobs, resources) = CORNERS
            .get(seed as usize)
            .copied()
            .unwrap_or_else(|| (rng.random_range(4..=80), rng.random_range(2..=20)));
        let p = RandomDagParams {
            jobs,
            ccr: [0.1, 1.0, 5.0][seed as usize % 3],
            ..RandomDagParams::paper_default()
        };
        let wf = generate(&p, &mut rng);
        let costs = wf.sample_table(resources, &mut rng);
        let snap = fabricate_snapshot(&wf.dag, &costs, resources, &mut rng);
        // Pool subset: drop one resource on odd seeds (a departed resource).
        let alive: Vec<ResourceId> = (0..resources)
            .filter(|&r| !(seed % 2 == 1 && r == seed as usize % resources))
            .map(ResourceId::from)
            .collect();
        for config in [
            AheftConfig::default(),
            AheftConfig { slot_policy: SlotPolicy::EndOfQueue, ..Default::default() },
            AheftConfig { reschedulable: ReschedulableSet::NotStarted, ..Default::default() },
        ] {
            let (oracle_plan, oracle_predicted) =
                oracle_reschedule(&wf.dag, &costs, &snap, &alive, &config);
            let fresh = aheft_reschedule(&wf.dag, &costs, &snap, &alive, &config);
            assert_identical("fresh-vs-oracle", seed, fresh.plan.assignments(), &oracle_plan);
            assert_eq!(
                fresh.predicted_makespan.to_bits(),
                oracle_predicted.to_bits(),
                "seed {seed}: predicted makespan diverged"
            );
            // The reused workspace runs the same instance twice: the second
            // pass hits the warm rank cache and skips the priority sort.
            for kind in ["reused-vs-oracle", "warm-vs-oracle"] {
                let reused =
                    aheft_schedule_into(&wf.dag, &costs, snap.view(), &alive, &config, &mut ws);
                assert_identical(kind, seed, ws.assignments(), &oracle_plan);
                assert_eq!(reused.to_bits(), oracle_predicted.to_bits());
            }
        }
    }
}

#[test]
fn finished_fold_matches_the_oracle_with_many_transfers_and_ties() {
    // Finished predecessors whose out-edges reach several resources, with
    // arrivals that tie the retransmit time or each other. At CCR 0 every
    // retransmit is `clock`, so the top retransmitter is a tie.
    let mut ws = ScheduleWorkspace::new();
    for seed in 0..40u64 {
        let mut rng = StdRng::seed_from_u64(5000 + seed);
        let (jobs, resources) = (rng.random_range(20..=80), rng.random_range(2..=8));
        let p = RandomDagParams {
            jobs,
            out_degree: 0.3,
            ccr: [0.0, 0.1, 1.0, 5.0][seed as usize % 4],
            ..RandomDagParams::paper_default()
        };
        let wf = generate(&p, &mut rng);
        let costs = wf.sample_table(resources, &mut rng);
        let snap = fabricate_multi_transfer_snapshot(&wf.dag, &costs, resources, &mut rng);
        let alive: Vec<ResourceId> = (0..resources).map(ResourceId::from).collect();
        for config in [
            AheftConfig::default(),
            AheftConfig { reschedulable: ReschedulableSet::NotStarted, ..Default::default() },
        ] {
            let (oracle_plan, oracle_predicted) =
                oracle_reschedule(&wf.dag, &costs, &snap, &alive, &config);
            let fresh = aheft_reschedule(&wf.dag, &costs, &snap, &alive, &config);
            assert_identical("fresh-vs-oracle", seed, fresh.plan.assignments(), &oracle_plan);
            assert_eq!(fresh.predicted_makespan.to_bits(), oracle_predicted.to_bits());
            let reused =
                aheft_schedule_into(&wf.dag, &costs, snap.view(), &alive, &config, &mut ws);
            assert_identical("reused-vs-oracle", seed, ws.assignments(), &oracle_plan);
            assert_eq!(reused.to_bits(), oracle_predicted.to_bits());
        }
    }
}

#[test]
fn large_pass_matches_the_oracle_before_and_after_a_join() {
    // A large mid-run instance on one reused workspace, then again after a
    // resource joins, which re-strides the tight sampled table.
    let (jobs, resources) = (1100usize, 480usize);
    let mut rng = StdRng::seed_from_u64(900);
    let p =
        RandomDagParams { jobs, out_degree: 8.0 / jobs as f64, ..RandomDagParams::paper_default() };
    let wf = generate(&p, &mut rng);
    let mut costs = wf.sample_table(resources, &mut rng);
    let snap = fabricate_snapshot(&wf.dag, &costs, resources, &mut rng);
    // One departed resource.
    let mut alive: Vec<ResourceId> =
        (0..resources).filter(|&r| r != 7).map(ResourceId::from).collect();
    let mut ws = ScheduleWorkspace::new();
    let mut check = |costs: &CostTable, alive: &[ResourceId], step: &str| {
        for config in [
            AheftConfig::default(),
            AheftConfig { reschedulable: ReschedulableSet::NotStarted, ..Default::default() },
        ] {
            let (oracle_plan, oracle_predicted) =
                oracle_reschedule(&wf.dag, costs, &snap, alive, &config);
            let got = aheft_schedule_into(&wf.dag, costs, snap.view(), alive, &config, &mut ws);
            let kind = format!("{step}/{config:?}");
            assert_identical(&kind, 900, ws.assignments(), &oracle_plan);
            assert_eq!(got.to_bits(), oracle_predicted.to_bits(), "{kind}");
        }
    };
    check(&costs, &alive, "before join");
    let joined = costs.add_resource(&wf.costgen.sample_column(&mut rng)).unwrap();
    alive.push(joined);
    check(&costs, &alive, "after join");
}

#[test]
fn reused_workspace_follows_the_table_lineage() {
    // One reused workspace follows a table through joins inside the row
    // padding, a batch of joins that forces a re-stride, a clone that
    // branched off before the last join, and a `truncate_resources` round
    // trip. Every pass must equal, bit for bit, a fresh pass over a table
    // built at once from the same columns: a fresh pass over the grown
    // table itself would share any layout bug.
    let (jobs, resources) = (1100usize, 500usize); // first re-stride: 512
    let mut rng = StdRng::seed_from_u64(901);
    let p =
        RandomDagParams { jobs, out_degree: 8.0 / jobs as f64, ..RandomDagParams::paper_default() };
    let wf = generate(&p, &mut rng);
    // The columns `sample_table` draws, drawn again from a copy of its RNG.
    let mut columns: Vec<Vec<f64>> = {
        let mut draw = rng.clone();
        (0..resources).map(|_| wf.costgen.sample_column(&mut draw)).collect()
    };
    let mut costs = wf.sample_table(resources, &mut rng);
    let snap = fabricate_snapshot(&wf.dag, &costs, resources, &mut rng);
    let config = AheftConfig::default();
    let mut ws = ScheduleWorkspace::new();
    let mut check = |costs: &CostTable, columns: &[Vec<f64>], step: &str| {
        assert_eq!(costs.resource_count(), columns.len(), "{step}");
        let rows: Vec<Vec<f64>> =
            (0..jobs).map(|i| columns.iter().map(|c| c[i]).collect()).collect();
        let built = CostTable::from_dag_comm(&wf.dag, &rows, 1.0).unwrap();
        let alive: Vec<ResourceId> = (0..columns.len()).map(ResourceId::from).collect();
        let fresh = aheft_reschedule(&wf.dag, &built, &snap, &alive, &config);
        let got = aheft_schedule_into(&wf.dag, costs, snap.view(), &alive, &config, &mut ws);
        assert_identical(step, 901, ws.assignments(), fresh.plan.assignments());
        assert_eq!(got.to_bits(), fresh.predicted_makespan.to_bits(), "{step}");
    };
    let join = |costs: &mut CostTable, columns: &mut Vec<Vec<f64>>, column: Vec<f64>| {
        costs.add_resource(&column).unwrap();
        columns.push(column);
    };
    // A resource ten times cheaper than the others draws work, so a stale
    // or misplaced column would change the plan.
    let cheap = |rng: &mut StdRng| -> Vec<f64> {
        wf.costgen.sample_column(rng).iter().map(|w| w / 10.0).collect()
    };
    check(&costs, &columns, "first pass");
    for k in 1..=3 {
        join(&mut costs, &mut columns, wf.costgen.sample_column(&mut rng));
        check(&costs, &columns, &format!("join {k}: re-stride, then into the padding"));
    }
    while costs.resource_count() < 512 {
        join(&mut costs, &mut columns, wf.costgen.sample_column(&mut rng));
    }
    let (mut branch, mut branch_columns) = (costs.clone(), columns.clone());
    join(&mut costs, &mut columns, wf.costgen.sample_column(&mut rng));
    check(&costs, &columns, "joins past the stride");
    check(&branch, &branch_columns, "branch at its fork point");
    check(&costs, &columns, "original after its ancestor");
    join(&mut branch, &mut branch_columns, cheap(&mut rng));
    check(&branch, &branch_columns, "branch after its own join");
    check(&costs, &columns, "original after the branch");
    assert!(costs.truncate_resources(512));
    columns.truncate(512);
    check(&costs, &columns, "truncated");
    join(&mut costs, &mut columns, cheap(&mut rng));
    check(&costs, &columns, "joined again after the truncation");
}

#[test]
fn end_to_end_runs_are_reproducible_and_strategy_invariants_hold() {
    // Full simulated executions (pool growth + reschedules) must be exactly
    // reproducible run to run, and AHEFT must still dominate static HEFT.
    for seed in 0..10u64 {
        let mut rng = StdRng::seed_from_u64(1000 + seed);
        let p = RandomDagParams { jobs: 30, ..RandomDagParams::paper_default() };
        let wf = generate(&p, &mut rng);
        let costs = wf.sample_table(5, &mut rng);
        let dynamics = PoolDynamics::periodic_growth(5, 250.0, 0.2);
        let cfg = RunConfig::default();
        let run =
            |name| run_named_policy(name, &wf.dag, &costs, &wf.costgen, &dynamics, seed, &cfg);
        let a1 = run("aheft");
        let a2 = run("aheft");
        assert_eq!(a1.makespan.to_bits(), a2.makespan.to_bits(), "seed {seed}: not reproducible");
        assert_eq!(a1.reschedules, a2.reschedules);
        assert_eq!(a1.events_processed, a2.events_processed);
        let h = run("heft");
        assert!(a1.makespan <= h.makespan + 1e-6, "seed {seed}: AHEFT lost to HEFT");
    }
}
