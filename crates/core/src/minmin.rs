//! Dynamic just-in-time baselines.
//!
//! The paper's dynamic comparator is **Min-Min** \[4\] applied
//! just-in-time: a job is considered only once it becomes *ready* (all
//! predecessors finished), and — per §4.1 assumption 2 — its input files
//! start moving only after the executor decides which resource will run it.
//! No global DAG knowledge is used: these are the "local just-in-time
//! decisions" of §1.
//!
//! [`select_batch`] implements the classic batch selection loop over the
//! current ready set; Max-Min and Sufferage are included as additional
//! baselines for the ablation benches. The simulation-side executor for
//! these heuristics is [`crate::policy::JitPolicy`], a
//! [`crate::policy::SchedulingPolicy`] on the generic event pump.

use aheft_gridsim::executor::ExecState;
use aheft_workflow::{CostTable, Dag, JobId, ResourceId};

/// Which batch heuristic the dynamic executor applies to the ready set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DynamicHeuristic {
    /// Repeatedly assign the (job, resource) pair with the globally minimum
    /// completion time — the paper's dynamic baseline.
    #[default]
    MinMin,
    /// Repeatedly assign the job whose *best* completion time is largest.
    MaxMin,
    /// Repeatedly assign the job with the largest sufferage (second-best
    /// minus best completion time).
    Sufferage,
}

/// Completion-time estimate of `job` on `r` if mapped *now*.
///
/// The start time is bounded by the resource's queue (`avail`) and by input
/// arrivals: data already on `r` (or in flight) arrives at its recorded
/// time; everything else is transferred from `clock` (decision time) taking
/// the edge's communication cost.
pub fn completion_time(
    dag: &Dag,
    costs: &CostTable,
    state: &ExecState,
    clock: f64,
    avail_r: f64,
    job: JobId,
    r: ResourceId,
) -> f64 {
    let mut start = clock.max(avail_r);
    for &(p, e) in dag.preds(job) {
        let arrival = match state.edge_data_available(p, e, r) {
            Some(t) => t,
            None => clock + costs.comm(e),
        };
        if arrival > start {
            start = arrival;
        }
    }
    start + costs.comp(job, r)
}

/// Map every job of `ready` to a resource using `heuristic`.
///
/// `avail` is a dense, resource-indexed busy-until array (`None` = the
/// resource is dead / not in the pool). It is updated as the batch is
/// constructed (each placement delays later ones on the same resource),
/// mirroring how the executor will actually enqueue them. Returns
/// `(job, resource, estimated completion)` in assignment order.
pub fn select_batch(
    dag: &Dag,
    costs: &CostTable,
    state: &ExecState,
    clock: f64,
    avail: &mut [Option<f64>],
    ready: &[JobId],
    heuristic: DynamicHeuristic,
) -> Vec<(JobId, ResourceId, f64)> {
    let mut remaining: Vec<JobId> = ready.to_vec();
    let mut out = Vec::with_capacity(remaining.len());

    while !remaining.is_empty() {
        // Best and second-best completion times per remaining job.
        let mut choice: Option<(usize, ResourceId, f64, f64)> = None; // (idx, r, best_ct, score)
        for (idx, &job) in remaining.iter().enumerate() {
            let mut best: Option<(ResourceId, f64)> = None;
            let mut second = f64::INFINITY;
            for (ri, slot) in avail.iter().enumerate() {
                let Some(a) = *slot else { continue };
                let r = ResourceId::from(ri);
                let ct = completion_time(dag, costs, state, clock, a, job, r);
                match best {
                    None => best = Some((r, ct)),
                    Some((_, b)) if ct < b => {
                        second = b;
                        best = Some((r, ct));
                    }
                    Some(_) => second = second.min(ct),
                }
            }
            let (r, best_ct) = best.expect("at least one alive resource");
            let score = match heuristic {
                DynamicHeuristic::MinMin => -best_ct, // maximise -ct = minimise ct
                DynamicHeuristic::MaxMin => best_ct,
                DynamicHeuristic::Sufferage => {
                    if second.is_finite() {
                        second - best_ct
                    } else {
                        f64::INFINITY // single resource: any order
                    }
                }
            };
            // Strict improvement keeps the first (lowest ready-index) job
            // on ties, and id-order iteration keeps resource choice
            // deterministic on equal completion times.
            if choice.is_none_or(|(_, _, _, s)| score > s + 1e-12) {
                choice = Some((idx, r, best_ct, score));
            }
        }
        let (idx, r, ct, _) = choice.expect("remaining is non-empty");
        let job = remaining.swap_remove(idx);
        avail[r.idx()] = Some(ct);
        out.push((job, r, ct));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use aheft_workflow::DagBuilder;

    /// Three independent jobs, two resources.
    fn indep3() -> (Dag, CostTable) {
        let mut b = DagBuilder::new();
        for n in ["a", "b", "c"] {
            b.add_job(n);
        }
        let dag = b.build().unwrap();
        let costs = CostTable::from_dag_comm(
            &dag,
            &[vec![10.0, 20.0], vec![30.0, 15.0], vec![50.0, 60.0]],
            1.0,
        )
        .unwrap();
        (dag, costs)
    }

    fn avail2() -> Vec<Option<f64>> {
        vec![Some(0.0), Some(0.0)]
    }

    #[test]
    fn minmin_assigns_shortest_first() {
        let (dag, costs) = indep3();
        let state = ExecState::new(3);
        let mut avail = avail2();
        let ready: Vec<JobId> = dag.job_ids().collect();
        let batch =
            select_batch(&dag, &costs, &state, 0.0, &mut avail, &ready, DynamicHeuristic::MinMin);
        assert_eq!(batch.len(), 3);
        // First pick: job a on r0 (ct 10); then b on r1 (ct 15); then c:
        // r0 at 10+50=60 vs r1 at 15+60=75 -> r0.
        assert_eq!(batch[0], (JobId(0), ResourceId(0), 10.0));
        assert_eq!(batch[1], (JobId(1), ResourceId(1), 15.0));
        assert_eq!(batch[2], (JobId(2), ResourceId(0), 60.0));
    }

    #[test]
    fn maxmin_assigns_longest_first() {
        let (dag, costs) = indep3();
        let state = ExecState::new(3);
        let mut avail = avail2();
        let ready: Vec<JobId> = dag.job_ids().collect();
        let batch =
            select_batch(&dag, &costs, &state, 0.0, &mut avail, &ready, DynamicHeuristic::MaxMin);
        // c has the largest best-ct (50 on r0): placed first.
        assert_eq!(batch[0].0, JobId(2));
        assert_eq!(batch[0].1, ResourceId(0));
    }

    #[test]
    fn sufferage_prefers_jobs_with_most_to_lose() {
        let (dag, costs) = indep3();
        let state = ExecState::new(3);
        let mut avail = avail2();
        let ready: Vec<JobId> = dag.job_ids().collect();
        let batch = select_batch(
            &dag,
            &costs,
            &state,
            0.0,
            &mut avail,
            &ready,
            DynamicHeuristic::Sufferage,
        );
        // Sufferages: a = 10, b = 15, c = 10 -> b first.
        assert_eq!(batch[0].0, JobId(1));
    }

    #[test]
    fn completion_time_defers_transfers_to_decision_time() {
        // a -> b with comm 40; a finished on r0 at t=10; decision at t=100.
        let mut bld = DagBuilder::new();
        let a = bld.add_job("a");
        let b = bld.add_job("b");
        bld.add_edge(a, b, 40.0).unwrap();
        let dag = bld.build().unwrap();
        let costs =
            CostTable::from_dag_comm(&dag, &[vec![10.0, 10.0], vec![20.0, 20.0]], 1.0).unwrap();
        let mut state = ExecState::new(2);
        state.start(a, ResourceId(0), 0.0, 10.0);
        state.finish(a, 10.0);
        // On r0: data local since t=10 -> ct = 100 + 20.
        let ct0 = completion_time(&dag, &costs, &state, 100.0, 0.0, b, ResourceId(0));
        assert!((ct0 - 120.0).abs() < 1e-9);
        // On r1: transfer starts at decision time -> 100 + 40 + 20.
        let ct1 = completion_time(&dag, &costs, &state, 100.0, 0.0, b, ResourceId(1));
        assert!((ct1 - 160.0).abs() < 1e-9);
    }

    #[test]
    fn busy_resource_delays_start() {
        let (dag, costs) = indep3();
        let state = ExecState::new(3);
        let ct = completion_time(&dag, &costs, &state, 0.0, 95.0, JobId(0), ResourceId(0));
        assert!((ct - 105.0).abs() < 1e-9);
    }
}
