//! AHEFT — the paper's HEFT-based adaptive rescheduling algorithm (§3.4).
//!
//! [`aheft_reschedule`] implements the `schedule(S0, P, H)` procedure of the
//! paper's Fig. 3 over an execution [`SnapshotView`] taken at the
//! rescheduling instant `clock`:
//!
//! 1. compute `rank_u` for the remaining jobs against the *current* pool,
//! 2. walk the jobs in non-increasing rank order,
//! 3. for each job evaluate `EFT(n_i, r_j, S0, clock, R)` on every alive
//!    resource, where the earliest start honours the **FEA** cases of
//!    Eq. 1:
//!    * *Case 1* — the predecessor finished and its output file is already
//!      on `r_j` (or a committed transfer will deliver it at a known time):
//!      the file's availability time;
//!    * *Case 2* — the predecessor finished but no transfer to `r_j`
//!      exists: retransmit now, `clock + c_{m,i}`;
//!    * *Case 3 / otherwise* — the predecessor is itself (re)scheduled:
//!      its new `SFT`, plus `c_{m,i}` when placed on a different resource;
//! 4. assign the job to the EFT-minimising resource.
//!
//! With the initial snapshot (`clock = 0`, nothing executed) the procedure
//! is *identical to HEFT* — the paper's observation at the end of §3.4 — and
//! [`crate::heft::heft_schedule`] is exactly that specialization.
//!
//! Jobs already **running** at `clock` are handled per
//! [`ReschedulableSet`]: the paper's Fig. 5 walk-through reschedules "all
//! jobs but n1" (i.e. running jobs may be aborted and restarted), which is
//! [`ReschedulableSet::AllUnfinished`]; [`ReschedulableSet::NotStarted`]
//! pins running jobs to their resources instead (DESIGN.md §4.2).
//!
//! ## Dense, allocation-free hot path
//!
//! `schedule(S0, P, H)` re-runs at **every** resource-pool change, and the
//! paper's evaluation sweeps ~500k simulated cases — this module is the hot
//! path of the whole repository. All mutable state lives in a reusable
//! [`ScheduleWorkspace`] (job-indexed slices, per-resource slot tables,
//! rank/order buffers): after its buffers reach steady-state capacity, a
//! scheduling pass performs **zero heap allocations**
//! (`tests/zero_alloc.rs` pins this with a counting allocator). The FEA
//! case of each predecessor (Eq. 1) is classified **once per job** before
//! the resource loop — O(preds) state lookups instead of O(R · preds) —
//! and the inner loop touches only dense arrays.
//!
//! A pass runs one sequential code path, whatever the instance. The EFT
//! scan reads each job's costs as one contiguous row of the row-major cost
//! table. Per job, Eq. 2's inner max reduces to a few scalars and a sparse
//! overlay, so the scan computes each resource's data-ready time itself:
//! one R-wide loop per job. The scan also skips every resource whose lower
//! bound `est + w` cannot beat the best EFT found so far.

use aheft_gridsim::executor::{JobState, Snapshot, SnapshotView};
use aheft_gridsim::plan::{Assignment, Plan};
use aheft_gridsim::reservation::{SlotPolicy, SlotTable};
use aheft_workflow::rank::priority_order_from_ranks_into;
use aheft_workflow::rank_engine::RankEngine;
use aheft_workflow::{CostTable, Dag, EdgeId, JobId, ResourceId};

/// Which not-yet-finished jobs a reschedule may move.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReschedulableSet {
    /// Paper semantics: every unfinished job is rescheduled; running jobs
    /// are aborted (their progress is lost) and restarted per the new plan.
    #[default]
    AllUnfinished,
    /// Conservative semantics: running jobs finish where they are; only
    /// waiting jobs are rescheduled.
    NotStarted,
}

/// AHEFT configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AheftConfig {
    /// Slot search policy; [`SlotPolicy::Insertion`] reproduces HEFT \[19\].
    pub slot_policy: SlotPolicy,
    /// Treatment of running jobs at reschedule time.
    pub reschedulable: ReschedulableSet,
}

/// Result of one (re)scheduling pass.
#[derive(Debug, Clone)]
pub struct RescheduleOutcome {
    /// The new plan `S1`, covering exactly the rescheduled jobs.
    pub plan: Plan,
    /// Predicted completion time of the *whole* DAG under `S1`: max over
    /// scheduled `SFT`s, pinned running jobs' expected finishes and already
    /// finished jobs' `AFT`s (paper Eq. 4).
    pub predicted_makespan: f64,
}

/// Sentinel for "no resource recorded" in the dense placement arrays.
const UNPLACED: u32 = u32::MAX;

/// Eq. 1 case of one predecessor, classified once per job (outside the
/// resource loop).
#[derive(Debug, Clone, Copy)]
enum PredFea {
    /// The predecessor finished: its file sits on `home` since `aft`;
    /// elsewhere it is either a committed transfer (checked per resource
    /// against the ledger) or retransmitted from `clock` (Case 2), arriving
    /// at `retransmit`.
    Finished { home: ResourceId, aft: f64, edge: EdgeId, retransmit: f64 },
    /// The predecessor is pinned or was placed earlier in this pass on `r`,
    /// finishing at `t`; its file reaches any other resource at `t + comm`.
    Scheduled { r: ResourceId, t: f64, comm: f64 },
}

/// Eq. 2's inner max for one job, reduced to what the EFT scan needs per
/// resource: the scheduled group's two values and the finished group's
/// value away from its exception overlay.
#[derive(Debug, Clone, Copy)]
struct ReadyFold {
    clock: f64,
    /// Largest `t + comm` among the scheduled predecessors (`-∞` when
    /// none): their value on every resource but `top1_rp`.
    top1: f64,
    /// Resource of the first scheduled predecessor reaching `top1`.
    top1_rp: ResourceId,
    /// The scheduled group's value on `top1_rp`: the largest local `t`
    /// there against the largest `t + comm` of predecessors elsewhere.
    special: f64,
    /// Largest retransmit among the finished predecessors (`-∞` when
    /// none): their value on every resource the overlay leaves untouched.
    fin_top: f64,
}

impl ReadyFold {
    /// Earliest data-ready time on `r`, given the finalized overlay entry
    /// `overlay` at `r` (`-∞` when untouched). Starts at `clock`, then
    /// folds the scheduled and the finished group, each under a strict
    /// `>`: the comparison sequence of a per-resource `ready` array.
    #[inline]
    fn ready_at(&self, r: ResourceId, overlay: f64) -> f64 {
        let mut ready = self.clock;
        let scheduled = if r == self.top1_rp { self.special } else { self.top1 };
        if scheduled > ready {
            ready = scheduled;
        }
        let finished = if overlay == f64::NEG_INFINITY { self.fin_top } else { overlay };
        if finished > ready {
            ready = finished;
        }
        ready
    }
}

/// Reusable scratch memory for the scheduling hot path, owned by
/// [`crate::planner::AdaptivePlanner`] and threaded through
/// [`aheft_schedule_into`] and [`crate::whatif::what_if`]. Every buffer is
/// dense and indexed by job or resource id; nothing is allocated per pass
/// once the buffers have grown to the problem size.
#[derive(Debug, Clone, Default)]
pub struct ScheduleWorkspace {
    /// Incrementally maintained `rank_u` against the current pool: pool
    /// deltas are applied in `O(jobs + edges)` instead of a from-scratch
    /// `O(jobs · R)` recomputation, and evaluations with an unchanged pool
    /// (job-completion deltas) are pure cache hits.
    rank_engine: RankEngine,
    /// Jobs in non-increasing rank order.
    order: Vec<JobId>,
    /// [`RankEngine::epoch`] that `order` was sorted for; when the epoch
    /// is unchanged the ranks are bit-identical, so the sort is skipped.
    order_epoch: Option<u64>,
    /// Per-resource reservation timelines (cleared, not reallocated).
    tables: Vec<SlotTable>,
    /// Earliest availability floor per resource (∞ for dead resources).
    floor: Vec<f64>,
    /// Dense placement state: resource of a pinned/placed job ([`UNPLACED`]
    /// when neither) and its (expected) finish time.
    slot_res: Vec<u32>,
    slot_time: Vec<f64>,
    /// Per-job FEA classification scratch (Eq. 1, hoisted out of the
    /// resource loop).
    pred_fea: Vec<PredFea>,
    /// Per-resource finished-group value of the current job at the
    /// resources some finished predecessor excepts (the producer's home,
    /// committed transfer destinations); `NEG_INFINITY` = no exception.
    /// Reset via `exc_touched`.
    exc_val: Vec<f64>,
    /// Indices of `exc_val` touched for the current job.
    exc_touched: Vec<u32>,
    /// Assignments of the most recent pass, in placement (rank) order.
    assignments: Vec<Assignment>,
    /// What-if scratch table (see [`crate::whatif`]): a lazily-synced clone
    /// of the caller's base cost table that hypothetical columns are
    /// appended to and truncated back off via
    /// [`CostTable::truncate_resources`], so warm queries reuse one buffer
    /// instead of cloning the table per query.
    pub(crate) whatif_table: Option<CostTable>,
    /// `state_id` of the base table `whatif_table` was cloned from; a
    /// mismatch (the scenario moved on) re-syncs the scratch clone.
    pub(crate) whatif_base: Option<u64>,
    /// Scratch hypothetical pool (alive set) buffer.
    pub(crate) whatif_alive: Vec<ResourceId>,
}

impl ScheduleWorkspace {
    /// Fresh, empty workspace; buffers grow to steady-state capacity during
    /// the first passes and are reused afterwards.
    pub fn new() -> Self {
        Self::default()
    }

    /// Assignments produced by the most recent scheduling pass, in
    /// placement (non-increasing rank) order.
    pub fn assignments(&self) -> &[Assignment] {
        &self.assignments
    }

    /// Build the executable [`Plan`] of the most recent pass (the only
    /// allocating step, deferred until a candidate is actually accepted).
    pub fn to_plan(&self, clock: f64) -> Plan {
        Plan::from_assignments(clock, self.assignments.clone())
    }
}

/// Run one AHEFT scheduling pass over an owned snapshot, allocating a fresh
/// workspace, and package the result as a [`RescheduleOutcome`]. A
/// one-shot convenience for tests and one-off callers; hot paths hold a
/// [`ScheduleWorkspace`] and call [`aheft_schedule_into`].
///
/// `alive` lists the resources currently in the pool (cost-table columns of
/// departed resources are skipped). For the initial schedule pass use
/// [`Snapshot::initial`] and the full resource list.
///
/// # Panics
/// Panics if `alive` is empty or references columns outside the cost table.
pub fn aheft_reschedule(
    dag: &Dag,
    costs: &CostTable,
    snapshot: &Snapshot,
    alive: &[ResourceId],
    config: &AheftConfig,
) -> RescheduleOutcome {
    let mut ws = ScheduleWorkspace::new();
    let predicted_makespan =
        aheft_schedule_into(dag, costs, snapshot.view(), alive, config, &mut ws);
    RescheduleOutcome { plan: ws.to_plan(snapshot.clock), predicted_makespan }
}

/// The allocation-free core: one AHEFT pass over `view` writing the new
/// assignments into `ws` and returning the predicted whole-DAG makespan
/// (paper Eq. 4). After `ws` has reached steady-state capacity this
/// performs no heap allocation at all, which is what lets the adaptive
/// planner evaluate candidates at every pool change for free.
///
/// # Panics
/// Panics if `alive` is empty or references columns outside the cost table.
// analyzer: hot
pub fn aheft_schedule_into(
    dag: &Dag,
    costs: &CostTable,
    view: SnapshotView<'_>,
    alive: &[ResourceId],
    config: &AheftConfig,
    ws: &mut ScheduleWorkspace,
) -> f64 {
    assert!(!alive.is_empty(), "cannot schedule on an empty resource pool");
    let clock = view.clock;
    let total_resources = costs.resource_count();
    let jobs = dag.job_count();

    // Earliest availability floor per resource: never before `clock`, and
    // never before a reported floor; a resource with no entry is free from
    // `clock`.
    ws.floor.clear();
    ws.floor.resize(total_resources, f64::INFINITY);
    for &r in alive {
        let reported = view.resource_avail.get(r.idx()).copied().unwrap_or(clock);
        ws.floor[r.idx()] = reported.max(clock);
    }

    // Dense placement state; pinned running jobs (NotStarted mode) are
    // pre-filled — they keep their resource and expected finish, and block
    // their resource until then.
    ws.slot_res.clear();
    ws.slot_res.resize(jobs, UNPLACED);
    ws.slot_time.clear();
    ws.slot_time.resize(jobs, 0.0);
    let mut pinned_max = 0.0f64;
    if config.reschedulable == ReschedulableSet::NotStarted {
        for (i, s) in view.state.job_states().iter().enumerate() {
            if let JobState::Running { resource, expected_finish, .. } = *s {
                ws.slot_res[i] = resource.0;
                ws.slot_time[i] = expected_finish;
                if resource.idx() < ws.floor.len() {
                    ws.floor[resource.idx()] = ws.floor[resource.idx()].max(expected_finish);
                }
                pinned_max = pinned_max.max(expected_finish);
            }
        }
    }

    // Paper Fig. 3, lines 2-3: upward ranks against the current pool, jobs
    // sorted by non-increasing rank (a topological order). The engine
    // applies pool deltas incrementally and prunes finished jobs; with an
    // unchanged pool (epoch stable) the previous sort is still exact.
    let epoch = ws.rank_engine.update(dag, costs, alive, |j| view.state.is_finished(j));
    if ws.order_epoch != Some(epoch) {
        priority_order_from_ranks_into(dag, ws.rank_engine.ranks(), &mut ws.order);
        ws.order_epoch = Some(epoch);
    }

    if ws.tables.len() < total_resources {
        ws.tables.resize_with(total_resources, SlotTable::new);
    }
    for t in &mut ws.tables[..total_resources] {
        t.clear();
    }
    if ws.exc_val.len() < total_resources {
        ws.exc_val.resize(total_resources, f64::NEG_INFINITY);
    }
    // Invariant: every touched overlay entry is reset after each job; the
    // drain here only matters if a previous pass unwound mid-job.
    reset_overlay(&mut ws.exc_val, &mut ws.exc_touched);
    ws.assignments.clear();

    for oi in 0..ws.order.len() {
        let job = ws.order[oi];
        // Pinned jobs were pre-filled in `slot_res`; placed jobs cannot
        // recur (each job appears once in the order).
        if view.state.is_finished(job) || ws.slot_res[job.idx()] != UNPLACED {
            continue;
        }
        let fold = fold_preds(
            dag,
            costs,
            view,
            clock,
            job,
            &ws.slot_res,
            &ws.slot_time,
            &mut ws.pred_fea,
            &mut ws.exc_val,
            &mut ws.exc_touched,
        );
        let row = costs.row(job);
        let mut best: Option<(f64, f64, ResourceId)> = None; // (eft, start, resource)
        for &r in alive {
            let w = row[r.idx()];
            let est = fold.ready_at(r, ws.exc_val[r.idx()]).max(ws.floor[r.idx()]);
            // EFT lower-bound prune: `start >= est`, so `eft >= est + w`; a
            // candidate only replaces the running best under strict `<`, so
            // skipping every resource with `est + w >= best` selects the
            // identical (eft, start, resource) without its slot-gap scan.
            if let Some((b, _, _)) = best {
                if est + w >= b {
                    continue;
                }
            }
            let start = ws.tables[r.idx()].earliest_start(est, w, config.slot_policy);
            let eft = start + w;
            // Strict `<` with in-order iteration = deterministic lowest-id
            // tie-break, matching HEFT's first-minimum selection.
            if best.is_none_or(|(b, _, _)| eft < b) {
                best = Some((eft, start, r));
            }
        }
        reset_overlay(&mut ws.exc_val, &mut ws.exc_touched);
        // analyzer::allow(panic-in-hot-path): `best` is Some for any non-empty
        // `alive`, which the pass asserts on entry (documented panic contract).
        let (eft, start, r) = best.expect("alive is non-empty");
        ws.tables[r.idx()].reserve(start, eft - start, job);
        ws.slot_res[job.idx()] = r.0;
        ws.slot_time[job.idx()] = eft;
        ws.assignments.push(Assignment { job, resource: r, start, finish: eft });
    }

    // Predicted whole-DAG makespan (Eq. 4 over every job's completion).
    let mut predicted = ws.assignments.iter().map(|a| a.finish).fold(0.0, f64::max);
    for s in view.state.job_states() {
        if let JobState::Finished { aft, .. } = *s {
            predicted = predicted.max(aft);
        }
    }
    predicted.max(pinned_max)
}

/// Clear the exception overlay entries touched for the last job.
fn reset_overlay(exc_val: &mut [f64], exc_touched: &mut Vec<u32>) {
    for &i in exc_touched.iter() {
        exc_val[i as usize] = f64::NEG_INFINITY;
    }
    exc_touched.clear();
}

/// Does finished predecessor data (produced on `home`, carried by `edge`)
/// sit on `r` other than by retransmission: on the producer's home or by a
/// committed transfer?
#[inline]
fn excepts(view: SnapshotView<'_>, home: ResourceId, edge: EdgeId, r: ResourceId) -> bool {
    home == r || view.state.transfers_of(edge).iter().any(|&(rt, _)| rt == r)
}

/// Classify every predecessor's Eq. 1 case into `pred_fea` and reduce the
/// inner max of Eq. 2 for `job` to a [`ReadyFold`] plus a finalized
/// exception overlay in `exc_val` (entries listed in `exc_touched`), in
/// O(preds + exceptions) per job. [`ReadyFold::ready_at`] then gives each
/// resource the max over the same value multiset a per-resource
/// rederivation would fold; max over f64 copies is order-independent, so
/// the values are bit-identical to it.
#[allow(clippy::too_many_arguments)]
// analyzer: hot
fn fold_preds(
    dag: &Dag,
    costs: &CostTable,
    view: SnapshotView<'_>,
    clock: f64,
    job: JobId,
    slot_res: &[u32],
    slot_time: &[f64],
    pred_fea: &mut Vec<PredFea>,
    exc_val: &mut [f64],
    exc_touched: &mut Vec<u32>,
) -> ReadyFold {
    // Eq. 1 case of each predecessor, classified once per job instead
    // of once per (job, resource).
    pred_fea.clear();
    for &(p, e) in dag.preds(job) {
        pred_fea.push(if let Some((home, aft)) = view.state.finished_on(p) {
            PredFea::Finished { home, aft, edge: e, retransmit: clock + costs.comm(e) }
        } else {
            let res = slot_res[p.idx()];
            assert!(res != UNPLACED, "rank_u order schedules predecessors before successors");
            PredFea::Scheduled { r: ResourceId(res), t: slot_time[p.idx()], comm: costs.comm(e) }
        });
    }
    // Case 3 / otherwise (pinned or (re)scheduled predecessors) as one
    // closed-form group: such a predecessor contributes `t` on its own
    // resource and `t + comm` elsewhere, and `t <= t + comm`, so the
    // group's per-resource max is the largest `t + comm` (`top1`)
    // everywhere except on `top1`'s own resource, where the runner-up
    // `t + comm` competes with the local `t` terms.
    let mut top1 = f64::NEG_INFINITY;
    let mut top1_rp = ResourceId(u32::MAX);
    for pf in pred_fea.iter() {
        if let PredFea::Scheduled { r, t, comm } = *pf {
            let v = t + comm;
            if v > top1 {
                top1 = v;
                top1_rp = r;
            }
        }
    }
    let mut local_at_top = f64::NEG_INFINITY; // max t of preds on top1_rp
    let mut top2 = f64::NEG_INFINITY; // max t + comm of preds elsewhere
    for pf in pred_fea.iter() {
        if let PredFea::Scheduled { r, t, comm } = *pf {
            if r == top1_rp {
                if t > local_at_top {
                    local_at_top = t;
                }
            } else {
                let v = t + comm;
                if v > top2 {
                    top2 = v;
                }
            }
        }
    }
    let special = local_at_top.max(top2);
    // Finished predecessors (Cases 1–2) as one group: predecessor `m`
    // contributes its retransmission arrival `clock + c_m` everywhere
    // except at its *exceptional* resources — the producer's home (AFT)
    // and committed transfer destinations (ledger arrival). So per
    // resource the group max is
    //   max( largest retransmit among preds NOT excepting r,
    //        largest exceptional value at r ).
    // The second term accumulates in the sparse overlay. The first is the
    // largest retransmit overall, except where the predecessor holding it
    // (the top retransmitter) excepts `r`: only there are the predecessors
    // scanned again. O(preds + exceptions) per job, no sort.
    let mut fin_top = f64::NEG_INFINITY;
    let mut top_pred: Option<(ResourceId, EdgeId)> = None;
    for pf in pred_fea.iter() {
        if let PredFea::Finished { home, aft, edge, retransmit } = *pf {
            if retransmit > fin_top {
                fin_top = retransmit;
                top_pred = Some((home, edge));
            }
            let mut touch = |r: ResourceId, v: f64| {
                if let Some(slot) = exc_val.get_mut(r.idx()) {
                    if *slot == f64::NEG_INFINITY {
                        exc_touched.push(r.idx() as u32);
                    }
                    if v > *slot {
                        *slot = v;
                    }
                }
            };
            touch(home, aft);
            for &(rt, arrival) in view.state.transfers_of(edge) {
                if rt != home {
                    touch(rt, arrival);
                }
            }
        }
    }
    // Finalize the overlay: each touched entry becomes the group max there.
    if let Some((top_home, top_edge)) = top_pred {
        for &i in exc_touched.iter() {
            let r = ResourceId(i);
            let base = if excepts(view, top_home, top_edge, r) {
                let mut base = f64::NEG_INFINITY;
                for pf in pred_fea.iter() {
                    if let PredFea::Finished { home, edge, retransmit, .. } = *pf {
                        if retransmit > base && !excepts(view, home, edge, r) {
                            base = retransmit;
                        }
                    }
                }
                base
            } else {
                fin_top
            };
            exc_val[i as usize] = base.max(exc_val[i as usize]);
        }
    }
    ReadyFold { clock, top1, top1_rp, special, fin_top }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aheft_workflow::sample;
    use aheft_workflow::DagBuilder;

    fn fig4() -> (Dag, CostTable) {
        (sample::fig4_dag(), sample::fig4_costs_initial())
    }

    fn alive(n: usize) -> Vec<ResourceId> {
        (0..n).map(ResourceId::from).collect()
    }

    #[test]
    fn initial_schedule_reproduces_heft_80() {
        // Paper Fig. 5(a): HEFT on r1..r3 gives makespan 80.
        let (dag, costs) = fig4();
        let out = aheft_reschedule(
            &dag,
            &costs,
            &Snapshot::initial(3),
            &alive(3),
            &AheftConfig::default(),
        );
        assert!(out.plan.validate(&dag, &costs).is_empty());
        assert!(
            (out.predicted_makespan - 80.0).abs() < 1e-9,
            "expected makespan 80, got {}",
            out.predicted_makespan
        );
    }

    #[test]
    fn end_of_queue_policy_is_no_better() {
        let (dag, costs) = fig4();
        let cfg = AheftConfig { slot_policy: SlotPolicy::EndOfQueue, ..Default::default() };
        let out = aheft_reschedule(&dag, &costs, &Snapshot::initial(3), &alive(3), &cfg);
        assert!(out.plan.validate(&dag, &costs).is_empty());
        assert!(out.predicted_makespan >= 80.0 - 1e-9);
    }

    #[test]
    fn schedule_covers_all_jobs_initially() {
        let (dag, costs) = fig4();
        let out = aheft_reschedule(
            &dag,
            &costs,
            &Snapshot::initial(3),
            &alive(3),
            &AheftConfig::default(),
        );
        assert_eq!(out.plan.len(), dag.job_count());
        // Every job's finish = start + w on its resource.
        for a in out.plan.assignments() {
            let w = costs.comp(a.job, a.resource);
            assert!((a.finish - a.start - w).abs() < 1e-9);
        }
    }

    #[test]
    fn workspace_reuse_is_bit_identical() {
        // The same workspace threaded through passes over *different*
        // problems must leak no state between them.
        let (dag, costs) = fig4();
        let mut ws = ScheduleWorkspace::new();
        // Warm the workspace on an unrelated larger instance.
        let mut b = DagBuilder::new();
        for i in 0..20 {
            b.add_job(format!("j{i}"));
        }
        let big = b.build().unwrap();
        let big_costs =
            CostTable::from_dag_comm(&big, &vec![vec![7.0, 9.0, 4.0, 5.0, 6.0]; 20], 1.0).unwrap();
        let cfg = AheftConfig::default();
        aheft_schedule_into(
            &big,
            &big_costs,
            Snapshot::initial(5).view(),
            &alive(5),
            &cfg,
            &mut ws,
        );
        // Now the Fig. 4 instance through the dirty workspace.
        let fresh = aheft_reschedule(&dag, &costs, &Snapshot::initial(3), &alive(3), &cfg);
        let reused = aheft_schedule_into(
            &dag,
            &costs,
            Snapshot::initial(3).view(),
            &alive(3),
            &cfg,
            &mut ws,
        );
        assert_eq!(fresh.plan.assignments(), ws.assignments());
        assert_eq!(fresh.predicted_makespan, reused);
    }

    #[test]
    fn reschedule_excludes_finished_jobs() {
        let (dag, costs) = fig4();
        // Simulate: n1 finished on r3 at t=9 (its HEFT placement), clock 15.
        let mut snap = Snapshot::initial(3);
        snap.clock = 15.0;
        snap.set_finished(JobId(0), ResourceId(2), 9.0);
        let out = aheft_reschedule(&dag, &costs, &snap, &alive(3), &AheftConfig::default());
        assert_eq!(out.plan.len(), dag.job_count() - 1);
        assert!(out.plan.assignment(JobId(0)).is_none());
        // Nothing may start before the clock.
        for a in out.plan.assignments() {
            assert!(a.start >= 15.0 - 1e-9, "{} starts at {}", a.job, a.start);
        }
    }

    #[test]
    fn case2_retransmits_from_clock() {
        // Two jobs a -> b; a finished on r0 at t=5; file only on r0.
        // Scheduling b on r1 must wait clock + c, not aft + c.
        let mut b = DagBuilder::new();
        let a = b.add_job("a");
        let c = b.add_job("b");
        b.add_edge(a, c, 10.0).unwrap();
        let dag = b.build().unwrap();
        // r0 slow for b (100), r1 fast (10): b goes to r1 via retransmission.
        let costs =
            CostTable::from_dag_comm(&dag, &[vec![5.0, 5.0], vec![100.0, 10.0]], 1.0).unwrap();
        let mut snap = Snapshot::initial(2);
        snap.clock = 50.0;
        snap.set_finished(a, ResourceId(0), 5.0);
        let out = aheft_reschedule(&dag, &costs, &snap, &alive(2), &AheftConfig::default());
        let asg = out.plan.assignment(c).unwrap();
        assert_eq!(asg.resource, ResourceId(1));
        // Case 2: file retransmitted at clock 50, arrives 60, EFT 70.
        assert!((asg.start - 60.0).abs() < 1e-9);
        assert!((asg.finish - 70.0).abs() < 1e-9);
    }

    #[test]
    fn case1_uses_in_flight_transfer() {
        // As above but a transfer to r1 is already in flight, arriving at 52.
        let mut b = DagBuilder::new();
        let a = b.add_job("a");
        let c = b.add_job("b");
        b.add_edge(a, c, 10.0).unwrap();
        let dag = b.build().unwrap();
        let costs =
            CostTable::from_dag_comm(&dag, &[vec![5.0, 5.0], vec![100.0, 10.0]], 1.0).unwrap();
        let mut snap = Snapshot::initial(2);
        snap.clock = 50.0;
        snap.set_finished(a, ResourceId(0), 5.0);
        snap.add_transfer(EdgeId(0), ResourceId(1), 52.0); // in flight
        let out = aheft_reschedule(&dag, &costs, &snap, &alive(2), &AheftConfig::default());
        let asg = out.plan.assignment(c).unwrap();
        assert_eq!(asg.resource, ResourceId(1));
        assert!((asg.start - 52.0).abs() < 1e-9, "start {}", asg.start);
    }

    #[test]
    fn pinned_running_jobs_block_their_resource() {
        // a running on r0 until t=30 (pinned); b (independent) should either
        // go to r1 or wait until 30 on r0.
        let mut bld = DagBuilder::new();
        let a = bld.add_job("a");
        let b = bld.add_job("b");
        let _ = a;
        let dag = bld.build().unwrap();
        let costs =
            CostTable::from_dag_comm(&dag, &[vec![20.0, 20.0], vec![10.0, 50.0]], 1.0).unwrap();
        let mut snap = Snapshot::initial(2);
        snap.clock = 10.0;
        snap.set_running(a, ResourceId(0), 10.0, 30.0);
        let cfg = AheftConfig { reschedulable: ReschedulableSet::NotStarted, ..Default::default() };
        let out = aheft_reschedule(&dag, &costs, &snap, &alive(2), &cfg);
        // Only b is scheduled; a is pinned.
        assert_eq!(out.plan.len(), 1);
        let asg = out.plan.assignment(b).unwrap();
        // r0: start 30 (after pinned a), EFT 40. r1: start 10, EFT 60.
        assert_eq!(asg.resource, ResourceId(0));
        assert!((asg.start - 30.0).abs() < 1e-9);
        // Predicted makespan covers the pinned job too.
        assert!(out.predicted_makespan >= 30.0);
    }

    #[test]
    fn all_unfinished_aborts_and_restarts_running_jobs() {
        // Same setup, paper semantics: a is rescheduled from scratch.
        let mut bld = DagBuilder::new();
        let a = bld.add_job("a");
        let _b = bld.add_job("b");
        let dag = bld.build().unwrap();
        let costs =
            CostTable::from_dag_comm(&dag, &[vec![20.0, 20.0], vec![10.0, 50.0]], 1.0).unwrap();
        let mut snap = Snapshot::initial(2);
        snap.clock = 10.0;
        snap.set_running(a, ResourceId(0), 10.0, 30.0);
        let out = aheft_reschedule(&dag, &costs, &snap, &alive(2), &AheftConfig::default());
        // Both jobs are in the new plan; a restarts at or after clock.
        assert_eq!(out.plan.len(), 2);
        let asg = out.plan.assignment(a).unwrap();
        assert!(asg.start >= 10.0 - 1e-9);
    }

    #[test]
    fn respects_alive_subset() {
        let (dag, costs_full) = (sample::fig4_dag(), sample::fig4_costs_full());
        // Schedule with r4's column present but only r1..r3 alive: must
        // never use r4.
        let out = aheft_reschedule(
            &dag,
            &costs_full,
            &Snapshot::initial(4),
            &alive(3),
            &AheftConfig::default(),
        );
        assert!(out.plan.assignments().iter().all(|a| a.resource.idx() < 3));
        assert!((out.predicted_makespan - 80.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "empty resource pool")]
    fn empty_pool_panics() {
        let (dag, costs) = fig4();
        let _ = aheft_reschedule(&dag, &costs, &Snapshot::initial(3), &[], &AheftConfig::default());
    }
}
