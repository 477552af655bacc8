//! Pluggable scheduling policies — the strategy layer of the engine.
//!
//! The paper compares three strategies (static HEFT, adaptive AHEFT,
//! just-in-time dynamic mapping); the seed implementation hard-coded each
//! as its own event loop. This module inverts that: ONE generic event pump
//! ([`crate::runner::run_policy`]) owns the simulation fabric — transfers,
//! pool dynamics, trace recording, RNG discipline — and a
//! [`SchedulingPolicy`] plugs in the strategy:
//!
//! * [`SchedulingPolicy::initial_plan`] — called once at `t = 0`, before
//!   any event; planned strategies build and adopt their full schedule
//!   here and return its predicted makespan (JIT strategies return `0.0`).
//! * [`SchedulingPolicy::on_event`] — called after the pump applied an
//!   event's fabric-level effects (job completion bookkeeping, pool
//!   membership, aborting the running job of a departed resource); the
//!   policy reacts by replanning, re-routing data, or updating its queues.
//! * [`SchedulingPolicy::dispatch_ready`] — called before the first event
//!   and after every event: map ready jobs (JIT) and start whatever the
//!   policy's queues allow.
//!
//! Two families cover the paper and its ablations:
//!
//! * [`PlannedPolicy`] — executes a full-lookahead plan and optionally
//!   re-evaluates it through an [`AdaptivePlanner`]; static HEFT is the
//!   `Never`-trigger special case. Variants: slot policy, reschedulable
//!   set, trigger policy.
//! * [`JitPolicy`] — local just-in-time mapping of ready jobs: the paper's
//!   Min-Min comparator plus Max-Min, Sufferage, and the rank-ordered
//!   hybrid [`JitPolicy::rank_ordered`] (HEFT's global priority order, JIT
//!   placement decisions).
//!
//! Policies are registered by name ([`POLICY_NAMES`], [`make_policy`],
//! [`run_named_policy`]) so the experiment harness exposes a `--policy`
//! axis without new code per strategy.

use aheft_gridsim::plan::{Assignment, Plan};
use aheft_gridsim::reservation::SlotPolicy;
use aheft_gridsim::trace::TraceEvent;
use aheft_workflow::rank::{priority_order_from_ranks, rank_upward};
use aheft_workflow::{CostGenerator, CostTable, Dag, EdgeId, JobId, ResourceId};

use crate::aheft::{AheftConfig, ReschedulableSet};
use crate::minmin::{completion_time, select_batch, DynamicHeuristic};
use crate::planner::{AdaptivePlanner, Decision, ReschedulePolicy};
use crate::runner::{run_policy, ExecCtx, RunConfig, RunReport};

/// What just happened on the simulation fabric, as seen by a policy: the
/// engine event plus the pump's bookkeeping outcomes (which job finished
/// where, who was aborted when a resource departed, how many resources
/// actually joined under the pool cap).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PolicyEvent {
    /// A job completed; `deviation` is `|actual - estimate| / estimate`.
    JobFinished {
        /// The finished job.
        job: JobId,
        /// The resource it ran on.
        resource: ResourceId,
        /// Relative deviation of the actual runtime from its estimate.
        deviation: f64,
    },
    /// A previously initiated transfer arrived (the ledger was already
    /// updated at send time; policies rarely react).
    TransferArrived {
        /// Producer of the transferred file.
        producer: JobId,
        /// Destination resource.
        to: ResourceId,
    },
    /// `joined` new resources entered the pool (cost columns sampled, ids
    /// contiguous — the new total is `ExecCtx::pool_total`).
    PoolGrew {
        /// Number of resources that actually joined (pool cap respected).
        joined: usize,
    },
    /// A resource departed/failed; its running job (if any) was aborted by
    /// the pump before this hook runs.
    ResourceLeft {
        /// The departed resource.
        resource: ResourceId,
        /// The job that was aborted on it, if one was running.
        aborted: Option<JobId>,
    },
    /// A transiently failed resource repaired and rejoined the pool; its
    /// cost column and id are unchanged.
    ResourceRejoined {
        /// The repaired resource.
        resource: ResourceId,
    },
    /// A running job was killed by a fault (crash fault or straggler kill)
    /// while its resource survived. The pump already applied the recovery
    /// bookkeeping (wasted-work/checkpoint accounting, backoff hold); the
    /// job is back in Waiting state at its current queue position.
    JobFaulted {
        /// The killed job.
        job: JobId,
        /// The resource it was running on (still alive).
        resource: ResourceId,
    },
    /// A fault-killed job's retry backoff expired; the dispatch pass after
    /// this event may start it again.
    JobReleased {
        /// The released job.
        job: JobId,
    },
    /// Performance-variance notification emitted via
    /// [`ExecCtx::emit_variance`].
    PerformanceVariance {
        /// The deviating job.
        job: JobId,
        /// The resource it ran on.
        resource: ResourceId,
    },
    /// Periodic wake-up armed via [`ExecCtx::schedule_wake_in`].
    Wake,
}

/// Planner-side counters a policy reports into the final
/// [`RunReport`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PolicyStats {
    /// Scheduling passes evaluated (0 for JIT policies).
    pub evaluations: usize,
    /// Plan replacements adopted (accepted or forced).
    pub reschedules: usize,
}

/// A scheduling strategy plugged into the generic event pump
/// ([`crate::runner::run_policy`]). See the module docs for the hook
/// contract and call order.
pub trait SchedulingPolicy {
    /// Called once at `t = 0` before any event. Planned strategies build
    /// and adopt their initial schedule here and return its predicted
    /// makespan (reported as [`RunReport::initial_predicted`]); JIT
    /// strategies initialise their per-resource state and return `0.0`.
    fn initial_plan(&mut self, ctx: &mut ExecCtx<'_, '_>) -> f64;

    /// React to an event after the pump applied its fabric-level effects.
    fn on_event(&mut self, ev: &PolicyEvent, ctx: &mut ExecCtx<'_, '_>);

    /// Map ready jobs and start startable ones. Called before the first
    /// event and again after every processed event.
    fn dispatch_ready(&mut self, ctx: &mut ExecCtx<'_, '_>);

    /// Counters for the final report.
    fn stats(&self) -> PolicyStats {
        PolicyStats::default()
    }
}

// ---------------------------------------------------------------------------
// Plan-driven execution (static HEFT, adaptive AHEFT and their variants)
// ---------------------------------------------------------------------------

/// Per-resource execution queues derived from the current plan.
///
/// The buffers are **reused across plan adoptions**: [`PlanQueues::adopt`]
/// clears and refills the per-resource vectors in place (a stable
/// insertion by start time), so adopting a replacement plan allocates
/// nothing once the queues have reached steady-state capacity
/// (`tests/zero_alloc.rs` pins this).
#[derive(Debug, Clone, Default)]
pub struct PlanQueues {
    queues: Vec<Vec<Assignment>>,
    next: Vec<usize>,
}

impl PlanQueues {
    /// Empty queues; buffers grow on the first adoption.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuild the per-resource queues from `plan` in place.
    ///
    /// Equivalent to grouping the plan's assignments by resource and
    /// stable-sorting each group by ascending start (ties keep placement
    /// order), but without reallocating: existing buffers are cleared and
    /// refilled via stable binary-less insertion — O(k) shifts per
    /// insertion in the worst case, which is irrelevant at adoption
    /// frequency (plans are adopted only when a reschedule is accepted or
    /// forced) and buys an allocation-free steady state.
    // analyzer: hot
    pub fn adopt(&mut self, plan: &Plan, total_resources: usize) {
        for q in &mut self.queues {
            q.clear();
        }
        if self.queues.len() < total_resources {
            // analyzer::allow(alloc-in-hot-path): grows only when the pool
            // exceeds every previously adopted size; steady-state adoptions
            // reuse the buffers (pinned by tests/zero_alloc.rs).
            self.queues.resize_with(total_resources, Vec::new);
        }
        self.next.clear();
        self.next.resize(self.queues.len(), 0);
        for &a in plan.assignments() {
            let q = &mut self.queues[a.resource.idx()];
            // Stable insertion: strictly-later starts shift right; equal
            // starts keep placement (rank) order, matching a stable sort.
            let mut i = q.len();
            while i > 0 && q[i - 1].start > a.start {
                i -= 1;
            }
            q.insert(i, a);
        }
    }

    /// Number of per-resource queues (the pool size at the last adoption).
    pub fn resource_count(&self) -> usize {
        self.queues.len()
    }
}

/// Full-lookahead plan execution with optional adaptive rescheduling — the
/// paper's static HEFT (trigger [`ReschedulePolicy::Never`]) and AHEFT
/// (trigger on pool change), plus the slot-policy / reschedulable-set
/// variants used by the ablations.
///
/// Resource failures force a plan replacement for *every* planned variant
/// (the paper notes HEFT and AHEFT "react identically to the resource
/// failure"); if the pool emptied, the replan retries at the next pool
/// change (`pending_forced`).
#[derive(Debug, Clone)]
pub struct PlannedPolicy {
    /// The planner also carries the trigger (`planner.policy`) — the one
    /// source of truth for both evaluation triggering and Wake re-arming.
    planner: AdaptivePlanner,
    variance_threshold: Option<f64>,
    plan: Plan,
    queues: PlanQueues,
    pending_forced: bool,
    reschedules: usize,
    /// Reusable buffers so the per-event hot path allocates nothing.
    abort_scratch: Vec<JobId>,
    transfer_scratch: Vec<(JobId, EdgeId, ResourceId, ResourceId)>,
}

impl PlannedPolicy {
    /// A planned policy with an explicit scheduling config and trigger.
    pub fn new(aheft: AheftConfig, trigger: ReschedulePolicy, variance: Option<f64>) -> Self {
        Self {
            planner: AdaptivePlanner::new(aheft, trigger),
            variance_threshold: variance,
            plan: Plan::new(0.0),
            queues: PlanQueues::new(),
            pending_forced: false,
            reschedules: 0,
            abort_scratch: Vec::new(),
            transfer_scratch: Vec::new(),
        }
    }

    /// Traditional static scheduling: one full HEFT plan at `t = 0`,
    /// executed as-is (new resources are ignored; failures still force a
    /// replacement).
    pub fn static_heft(cfg: &RunConfig) -> Self {
        Self::new(cfg.aheft, ReschedulePolicy::Never, cfg.variance_threshold)
    }

    /// The paper's adaptive rescheduling strategy: re-evaluate per
    /// `cfg.policy` and replace the plan whenever the prediction improves.
    pub fn adaptive(cfg: &RunConfig) -> Self {
        Self::new(cfg.aheft, cfg.policy, cfg.variance_threshold)
    }

    /// Access to the underlying planner, e.g. to read its evaluation and
    /// acceptance counts after a run.
    pub fn planner_mut(&mut self) -> &mut AdaptivePlanner {
        &mut self.planner
    }

    /// One planner evaluation; on acceptance, swap the plan, abort running
    /// jobs when the config reschedules them, and re-route finished
    /// outputs to the new consumer placements (FEA Case 2
    /// retransmissions). Returns `true` when a plan was adopted.
    fn evaluate_and_maybe_replace(&mut self, ctx: &mut ExecCtx<'_, '_>, forced: bool) -> bool {
        let clock = ctx.clock();
        let old_predicted = self.planner.current_predicted();
        let decision = {
            // Borrowed dense view of the execution state — no snapshot
            // cloning. None = the pool is empty; wait for it to recover.
            let Some(pv) = ctx.eval_view() else { return false };
            self.planner.evaluate(pv.dag, pv.costs, pv.view, pv.alive)
        };
        let accept = match (&decision, forced) {
            (Decision::Replace(_), _) => true,
            (Decision::Keep { .. }, true) => true,
            (Decision::Keep { .. }, false) => false,
        };
        if !accept {
            if let Decision::Keep { candidate_makespan } = decision {
                ctx.push_trace(TraceEvent::PlanKept {
                    t: clock,
                    current_makespan: old_predicted,
                    candidate_makespan,
                });
            }
            return false;
        }
        // A forced (failure) replacement adopts the just-evaluated
        // candidate — the kept plan may use a dead resource — straight
        // from the planner's workspace, without re-running the scheduler.
        let outcome = match decision {
            Decision::Replace(out) => out,
            Decision::Keep { .. } => {
                self.planner.last_candidate_outcome().expect("an evaluation just ran")
            }
        };
        // Abort running jobs that the new plan re-places.
        if self.planner.config.reschedulable == ReschedulableSet::AllUnfinished {
            self.abort_scratch.clear();
            for j in ctx.dag().job_ids() {
                if ctx.state().is_running(j) && outcome.plan.assignment(j).is_some() {
                    self.abort_scratch.push(j);
                }
            }
            for &job in &self.abort_scratch {
                ctx.abort_job(job);
            }
        }
        ctx.push_trace(TraceEvent::PlanReplaced {
            t: clock,
            old_makespan: old_predicted,
            new_makespan: outcome.predicted_makespan,
        });
        self.plan = outcome.plan;
        self.queues.adopt(&self.plan, ctx.pool_total());
        self.reschedules += 1;
        // Re-route finished producers' outputs to the new consumer
        // placements.
        self.transfer_scratch.clear();
        for a in self.plan.assignments() {
            for &(p, e) in ctx.dag().preds(a.job) {
                if let Some((rp, _)) = ctx.state().finished_on(p) {
                    self.transfer_scratch.push((p, e, rp, a.resource));
                }
            }
        }
        for &(p, e, from, to) in &self.transfer_scratch {
            ctx.send_transfer(p, e, from, to);
        }
        true
    }
}

impl SchedulingPolicy for PlannedPolicy {
    fn initial_plan(&mut self, ctx: &mut ExecCtx<'_, '_>) -> f64 {
        let initial = self.planner.initial_plan(ctx.dag(), ctx.costs());
        let predicted = initial.predicted_makespan;
        self.plan = initial.plan;
        self.queues.adopt(&self.plan, ctx.pool_total());
        if let ReschedulePolicy::Periodic { period } = self.planner.policy {
            ctx.schedule_wake_in(period);
        }
        predicted
    }

    fn on_event(&mut self, ev: &PolicyEvent, ctx: &mut ExecCtx<'_, '_>) {
        match *ev {
            PolicyEvent::JobFinished { job, resource, deviation } => {
                // §4.1 assumption 2 (planned strategies): push outputs
                // immediately to where successors are planned.
                self.transfer_scratch.clear();
                for &(s, e) in ctx.dag().succs(job) {
                    if !ctx.state().is_finished(s) {
                        if let Some(rs) = self.plan.resource_of(s) {
                            self.transfer_scratch.push((job, e, resource, rs));
                        }
                    }
                }
                for &(p, e, from, to) in &self.transfer_scratch {
                    ctx.send_transfer(p, e, from, to);
                }
                if let Some(threshold) = self.variance_threshold {
                    if deviation > threshold {
                        ctx.emit_variance(job, resource);
                    }
                }
            }
            PolicyEvent::TransferArrived { .. } => { /* ledger updated at send time */ }
            PolicyEvent::PoolGrew { .. } | PolicyEvent::ResourceRejoined { .. } => {
                // Growth and a repaired rejoin both enlarge the alive set;
                // a replan deferred on an empty pool retries here.
                if self.pending_forced {
                    self.pending_forced = !self.evaluate_and_maybe_replace(ctx, true);
                } else if self.planner.policy.triggers(ev) {
                    self.evaluate_and_maybe_replace(ctx, false);
                }
            }
            PolicyEvent::ResourceLeft { resource, aborted } => {
                // Fault tolerance by rescheduling — forced for every
                // planned variant, but only when the departed resource
                // still carries unfinished planned work: in a large churny
                // pool most failures hit resources the plan never uses, and
                // replanning on those would keep re-placing waiting jobs
                // (restarting their input transfers) faster than any
                // transfer can complete. If the pool emptied, retry at the
                // next pool change.
                let plan_uses = ctx.dag().job_ids().any(|j| {
                    !ctx.state().is_finished(j) && self.plan.resource_of(j) == Some(resource)
                });
                // A job the `NotStarted` reschedulable set pinned as
                // running is absent from the adopted plan; once killed it
                // has no slot to restart from, so its death must force a
                // replacement even though the plan never used the resource.
                let orphaned = aborted.is_some_and(|j| self.plan.resource_of(j).is_none());
                if plan_uses || orphaned {
                    self.pending_forced = !self.evaluate_and_maybe_replace(ctx, true);
                }
            }
            PolicyEvent::JobFaulted { job, .. } => {
                // A crash/straggler kill normally leaves the plan
                // executable (the job is Waiting again at its queue
                // position) — but a job the `NotStarted` reschedulable set
                // pinned as running has no queue position in the adopted
                // plan, so its kill forces a replacement to re-cover it.
                // Otherwise re-placing recoveries let an adaptive planner
                // treat the kill as new information (accept-if-better);
                // retrying recoveries — and static HEFT — restart the job
                // in place.
                if self.plan.resource_of(job).is_none() {
                    self.pending_forced = !self.evaluate_and_maybe_replace(ctx, true);
                } else if ctx.recovery().replaces_on_crash()
                    && self.planner.policy != ReschedulePolicy::Never
                {
                    self.evaluate_and_maybe_replace(ctx, false);
                }
            }
            PolicyEvent::JobReleased { .. } => { /* dispatch_ready restarts it */ }
            PolicyEvent::PerformanceVariance { .. } | PolicyEvent::Wake => {
                if self.planner.policy.triggers(ev) {
                    self.evaluate_and_maybe_replace(ctx, false);
                }
                if let (PolicyEvent::Wake, ReschedulePolicy::Periodic { period }) =
                    (ev, self.planner.policy)
                {
                    if !ctx.all_finished() {
                        ctx.schedule_wake_in(period);
                    }
                }
            }
        }
    }

    fn dispatch_ready(&mut self, ctx: &mut ExecCtx<'_, '_>) {
        start_queue_heads(ctx, &self.queues.queues, &mut self.queues.next, |a| a.job);
    }

    fn stats(&self) -> PolicyStats {
        PolicyStats { evaluations: self.planner.evaluations(), reschedules: self.reschedules }
    }
}

/// Start every queue-head job whose inputs are on its resource — the one
/// start protocol shared by the planned and JIT families. `queues[r]` is
/// resource `r`'s execution queue (`job_of` projects its element type to
/// the job) and `next[r]` its consumed prefix, advanced past entries that
/// finished under an older plan epoch (defensive for planned strategies;
/// replacement plans only contain unfinished jobs).
fn start_queue_heads<T: Copy>(
    ctx: &mut ExecCtx<'_, '_>,
    queues: &[Vec<T>],
    next: &mut [usize],
    job_of: impl Fn(T) -> JobId,
) {
    let clock = ctx.clock();
    for r in 0..queues.len() {
        let rid = ResourceId::from(r);
        if ctx.running_on(rid).is_some() {
            continue;
        }
        if !ctx.resource_alive(rid) {
            continue;
        }
        let q = &queues[r];
        while next[r] < q.len() && ctx.state().is_finished(job_of(q[next[r]])) {
            next[r] += 1;
        }
        if next[r] >= q.len() {
            continue;
        }
        let job = job_of(q[next[r]]);
        if ctx.state().is_waiting(job)
            && ctx.job_released(job)
            && ctx.state().inputs_ready_on(ctx.dag(), job, rid, clock)
        {
            ctx.start_job(job, rid);
        }
    }
}

// ---------------------------------------------------------------------------
// Just-in-time execution (Min-Min and friends, rank-ordered hybrid)
// ---------------------------------------------------------------------------

/// How a [`JitPolicy`] orders and places the ready set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JitOrder {
    /// Batch selection over the ready set ([`select_batch`]): Min-Min,
    /// Max-Min or Sufferage.
    Heuristic(DynamicHeuristic),
    /// HEFT-order JIT hybrid: ready jobs are mapped in non-increasing
    /// upward-rank order (computed once over the initial pool), each to
    /// its completion-time-minimising resource at decision time.
    RankUpward,
}

/// Local just-in-time mapping: jobs are considered only once ready (all
/// predecessors finished) and — per the paper's §4.1 assumption 2 — their
/// input transfers start only after the mapping decision.
#[derive(Debug, Clone)]
pub struct JitPolicy {
    order: JitOrder,
    /// Chosen resource per job (`None` = unmapped or re-mappable).
    assigned: Vec<Option<ResourceId>>,
    /// Per-resource FIFO execution queues and their consumed prefix.
    fifo: Vec<Vec<JobId>>,
    fifo_next: Vec<usize>,
    /// Dense resource-indexed busy-until floor (`None` = departed).
    avail: Vec<Option<f64>>,
    /// Ready-set scratch, rebuilt each dispatch.
    ready: Vec<JobId>,
    /// All jobs in non-increasing upward-rank order ([`JitOrder::RankUpward`]).
    rank_order: Vec<JobId>,
    /// Transfer scratch (producer, edge, producer's resource).
    transfer_scratch: Vec<(JobId, EdgeId, ResourceId)>,
}

impl JitPolicy {
    fn with_order(order: JitOrder) -> Self {
        Self {
            order,
            assigned: Vec::new(),
            fifo: Vec::new(),
            fifo_next: Vec::new(),
            avail: Vec::new(),
            ready: Vec::new(),
            rank_order: Vec::new(),
            transfer_scratch: Vec::new(),
        }
    }

    /// The classic batch-heuristic dynamic executor (the paper's Min-Min
    /// baseline and its Max-Min / Sufferage variants).
    pub fn heuristic(h: DynamicHeuristic) -> Self {
        Self::with_order(JitOrder::Heuristic(h))
    }

    /// The rank-ordered JIT hybrid: HEFT's global priority order combined
    /// with just-in-time local placement.
    pub fn rank_ordered() -> Self {
        Self::with_order(JitOrder::RankUpward)
    }

    /// Map `job` onto `r`: enqueue it and start its input transfers
    /// (transfers begin only now that the resource is known).
    fn map_job(&mut self, ctx: &mut ExecCtx<'_, '_>, job: JobId, r: ResourceId) {
        self.assigned[job.idx()] = Some(r);
        self.fifo[r.idx()].push(job);
        self.transfer_scratch.clear();
        for &(p, e) in ctx.dag().preds(job) {
            if let Some((rp, _)) = ctx.state().finished_on(p) {
                self.transfer_scratch.push((p, e, rp));
            }
        }
        for &(p, e, rp) in &self.transfer_scratch {
            ctx.send_transfer(p, e, rp, r);
        }
    }
}

impl SchedulingPolicy for JitPolicy {
    fn initial_plan(&mut self, ctx: &mut ExecCtx<'_, '_>) -> f64 {
        let jobs = ctx.dag().job_count();
        let total = ctx.pool_total();
        self.assigned.clear();
        self.assigned.resize(jobs, None);
        self.fifo.clear();
        self.fifo.resize_with(total, Vec::new);
        self.fifo_next.clear();
        self.fifo_next.resize(total, 0);
        self.avail.clear();
        self.avail.resize(total, Some(0.0));
        if self.order == JitOrder::RankUpward {
            let ranks = rank_upward(ctx.dag(), ctx.costs());
            self.rank_order = priority_order_from_ranks(ctx.dag(), &ranks);
        }
        0.0 // no upfront plan: nothing is predicted
    }

    fn on_event(&mut self, ev: &PolicyEvent, ctx: &mut ExecCtx<'_, '_>) {
        match *ev {
            PolicyEvent::PoolGrew { .. } => {
                let clock = ctx.clock();
                let total = ctx.pool_total();
                while self.avail.len() < total {
                    self.fifo.push(Vec::new());
                    self.fifo_next.push(0);
                    self.avail.push(Some(clock));
                }
            }
            PolicyEvent::ResourceLeft { resource, aborted } => {
                let rid = resource.idx();
                self.avail[rid] = None;
                if let Some(job) = aborted {
                    self.assigned[job.idx()] = None; // re-mapped when ready
                }
                // Unstarted jobs queued on the dead resource are re-mapped.
                for &job in &self.fifo[rid][self.fifo_next[rid]..] {
                    if ctx.state().is_waiting(job) {
                        self.assigned[job.idx()] = None;
                    }
                }
                self.fifo[rid].clear();
                self.fifo_next[rid] = 0;
            }
            PolicyEvent::ResourceRejoined { resource } => {
                // Same id, same cost column; its queue was cleared at the
                // failure, so it simply becomes a mapping target again.
                self.avail[resource.idx()] = Some(ctx.clock());
            }
            PolicyEvent::JobFaulted { job, resource } => {
                // Re-placing recoveries put the job back through the JIT
                // mapper; retrying recoveries keep it queued where it was.
                if ctx.recovery().replaces_on_crash() {
                    self.assigned[job.idx()] = None;
                    let rid = resource.idx();
                    let queued = self.fifo[rid][self.fifo_next[rid]..]
                        .iter()
                        .position(|&j| j == job)
                        .map(|p| p + self.fifo_next[rid]);
                    if let Some(pos) = queued {
                        self.fifo[rid].remove(pos);
                    }
                }
            }
            PolicyEvent::JobFinished { .. }
            | PolicyEvent::TransferArrived { .. }
            | PolicyEvent::JobReleased { .. }
            | PolicyEvent::PerformanceVariance { .. }
            | PolicyEvent::Wake => {}
        }
    }

    fn dispatch_ready(&mut self, ctx: &mut ExecCtx<'_, '_>) {
        // Map newly ready jobs (just-in-time local decisions). The ready
        // set is walked in job-id order for the batch heuristics (they
        // re-order internally) and in upward-rank order for the hybrid.
        self.ready.clear();
        {
            let state = ctx.state();
            let dag = ctx.dag();
            match self.order {
                JitOrder::Heuristic(_) => {
                    for j in dag.job_ids() {
                        if self.assigned[j.idx()].is_none()
                            && state.is_waiting(j)
                            && dag.preds(j).iter().all(|&(p, _)| state.is_finished(p))
                        {
                            self.ready.push(j);
                        }
                    }
                }
                JitOrder::RankUpward => {
                    for i in 0..self.rank_order.len() {
                        let j = self.rank_order[i];
                        if self.assigned[j.idx()].is_none()
                            && state.is_waiting(j)
                            && dag.preds(j).iter().all(|&(p, _)| state.is_finished(p))
                        {
                            self.ready.push(j);
                        }
                    }
                }
            }
        }
        // Graceful degradation: with the whole pool down (transient
        // failures can empty it), there is nothing to map onto — stall and
        // resume at the next rejoin/join instead of panicking.
        if !self.ready.is_empty() && self.avail.iter().any(Option::is_some) {
            let clock = ctx.clock();
            // Refresh availability floor: nothing can start in the past.
            for a in self.avail.iter_mut().flatten() {
                *a = a.max(clock);
            }
            match self.order {
                JitOrder::Heuristic(h) => {
                    let batch = select_batch(
                        ctx.dag(),
                        ctx.costs(),
                        ctx.state(),
                        clock,
                        &mut self.avail,
                        &self.ready,
                        h,
                    );
                    for (job, r, _ct) in batch {
                        self.map_job(ctx, job, r);
                    }
                }
                JitOrder::RankUpward => {
                    // Highest-rank job first; each takes its EFT-minimising
                    // resource given the floors accumulated so far.
                    for idx in 0..self.ready.len() {
                        let job = self.ready[idx];
                        let mut best: Option<(ResourceId, f64)> = None;
                        for (ri, slot) in self.avail.iter().enumerate() {
                            let Some(a) = *slot else { continue };
                            let r = ResourceId::from(ri);
                            let ct = completion_time(
                                ctx.dag(),
                                ctx.costs(),
                                ctx.state(),
                                clock,
                                a,
                                job,
                                r,
                            );
                            // Strict `<` keeps the lowest-id resource on
                            // ties, matching the other schedulers.
                            if best.is_none_or(|(_, b)| ct < b) {
                                best = Some((r, ct));
                            }
                        }
                        // The alive set was non-empty entering the loop,
                        // so a candidate always exists; stall defensively
                        // if it ever does not.
                        let Some((r, ct)) = best else { break };
                        self.avail[r.idx()] = Some(ct);
                        self.map_job(ctx, job, r);
                    }
                }
            }
        }

        // Start whatever is startable.
        start_queue_heads(ctx, &self.fifo, &mut self.fifo_next, |j| j);
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// Every registered policy name, in presentation order. The first three
/// are the paper's §4 strategies; the rest are the ablation and hybrid
/// policies the trait makes cheap.
pub const POLICY_NAMES: [&str; 8] =
    ["heft", "aheft", "minmin", "maxmin", "sufferage", "aheft-noinsert", "aheft-pin", "ranked-jit"];

/// True if `name` is a registered policy.
pub fn is_policy(name: &str) -> bool {
    POLICY_NAMES.contains(&name)
}

/// Instantiate a registered policy by name under `cfg` (slot policy,
/// trigger, variance threshold). Returns `None` for unknown names.
pub fn make_policy(name: &str, cfg: &RunConfig) -> Option<Box<dyn SchedulingPolicy>> {
    Some(match name {
        "minmin" => Box::new(JitPolicy::heuristic(DynamicHeuristic::MinMin)),
        "maxmin" => Box::new(JitPolicy::heuristic(DynamicHeuristic::MaxMin)),
        "sufferage" => Box::new(JitPolicy::heuristic(DynamicHeuristic::Sufferage)),
        "ranked-jit" => Box::new(JitPolicy::rank_ordered()),
        _ => {
            let cfg = RunConfig { aheft: planning_config(name, cfg)?, ..*cfg };
            if name == "heft" {
                Box::new(PlannedPolicy::static_heft(&cfg))
            } else {
                Box::new(PlannedPolicy::adaptive(&cfg))
            }
        }
    })
}

/// The AHEFT scheduling configuration a *planned* policy evaluates plans
/// with under `cfg` — exactly what [`make_policy`] hands the policy's
/// planner, so what-if queries hypothesise about the plan that policy
/// would actually produce. `None` for JIT policies (they keep no plan to
/// hypothesise about).
pub fn planning_config(name: &str, cfg: &RunConfig) -> Option<AheftConfig> {
    match name {
        "heft" | "aheft" => Some(cfg.aheft),
        "aheft-noinsert" => Some(AheftConfig { slot_policy: SlotPolicy::EndOfQueue, ..cfg.aheft }),
        "aheft-pin" => {
            Some(AheftConfig { reschedulable: ReschedulableSet::NotStarted, ..cfg.aheft })
        }
        _ => None,
    }
}

/// Execute `dag` under the named policy: [`make_policy`] +
/// [`run_policy`].
///
/// # Panics
/// Panics if `name` is not in [`POLICY_NAMES`]; callers taking names from
/// outside the program check [`is_policy`] first.
#[allow(clippy::too_many_arguments)]
pub fn run_named_policy(
    name: &str,
    dag: &Dag,
    costs: &CostTable,
    costgen: &CostGenerator,
    dynamics: &aheft_gridsim::pool::PoolDynamics,
    seed: u64,
    cfg: &RunConfig,
) -> RunReport {
    let mut policy = make_policy(name, cfg).unwrap_or_else(|| panic!("unknown policy '{name}'"));
    run_policy(dag, costs, costgen, dynamics, seed, cfg, policy.as_mut())
}

#[cfg(test)]
mod tests {
    use super::*;
    use aheft_gridsim::pool::PoolDynamics;
    use aheft_workflow::generators::random::{generate, RandomDagParams};
    use aheft_workflow::sample;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn registry_is_consistent() {
        let cfg = RunConfig::default();
        for name in POLICY_NAMES {
            assert!(is_policy(name));
            assert!(make_policy(name, &cfg).is_some(), "{name} must instantiate");
        }
        assert!(!is_policy("bogus"));
        assert!(make_policy("bogus", &cfg).is_none());
    }

    #[test]
    fn named_policies_match_their_wrapper_entry_points() {
        // The registry must build exactly the policies the constructors do:
        // callers that hold a policy value (a decorator around it, say) rely
        // on `run_policy` over a constructor reproducing the named run.
        let mut rng = StdRng::seed_from_u64(9);
        let p = RandomDagParams { jobs: 30, ..RandomDagParams::paper_default() };
        let wf = generate(&p, &mut rng);
        let costs = wf.sample_table(4, &mut rng);
        let dynamics = PoolDynamics::periodic_growth(4, 250.0, 0.25);
        let cfg = RunConfig::default();
        let constructed: [(&str, Box<dyn SchedulingPolicy>); 3] = [
            ("heft", Box::new(PlannedPolicy::static_heft(&cfg))),
            ("aheft", Box::new(PlannedPolicy::adaptive(&cfg))),
            ("minmin", Box::new(JitPolicy::heuristic(DynamicHeuristic::MinMin))),
        ];
        for (name, mut policy) in constructed {
            let direct =
                run_policy(&wf.dag, &costs, &wf.costgen, &dynamics, 3, &cfg, policy.as_mut());
            let named = run_named_policy(name, &wf.dag, &costs, &wf.costgen, &dynamics, 3, &cfg);
            assert_eq!(named.makespan.to_bits(), direct.makespan.to_bits(), "{name}");
            assert_eq!(named.events_processed, direct.events_processed, "{name}");
            assert_eq!(named.reschedules, direct.reschedules, "{name}");
        }
    }

    #[test]
    fn every_policy_completes_the_fig4_workflow() {
        let dag = sample::fig4_dag();
        let costs = sample::fig4_costs_initial();
        let costgen = aheft_workflow::CostGenerator::new(sample::fig4_r4_column(), 0.0).unwrap();
        let dynamics = PoolDynamics::periodic_growth(3, 15.0, 1.0 / 3.0).with_cap(5);
        let cfg = RunConfig::default();
        for name in POLICY_NAMES {
            let r = run_named_policy(name, &dag, &costs, &costgen, &dynamics, 1, &cfg);
            assert!(r.makespan > 0.0, "{name} must finish the workflow");
            assert_eq!(r.final_pool_size, 5, "{name} saw the grown pool");
        }
    }

    #[test]
    fn ranked_jit_is_deterministic_and_distinct_from_minmin() {
        let mut rng = StdRng::seed_from_u64(77);
        let p = RandomDagParams { jobs: 50, ccr: 5.0, ..RandomDagParams::paper_default() };
        let wf = generate(&p, &mut rng);
        let costs = wf.sample_table(6, &mut rng);
        let dynamics = PoolDynamics::fixed(6);
        let cfg = RunConfig::default();
        let run = |name| run_named_policy(name, &wf.dag, &costs, &wf.costgen, &dynamics, 5, &cfg);
        let a = run("ranked-jit");
        let b = run("ranked-jit");
        assert_eq!(a.makespan.to_bits(), b.makespan.to_bits(), "not reproducible");
        let m = run("minmin");
        // Both complete; the orderings genuinely differ on a 50-job DAG.
        assert!(m.makespan > 0.0);
        assert_ne!(a.makespan.to_bits(), m.makespan.to_bits(), "hybrid should differ");
    }

    #[test]
    fn plan_queues_adopt_matches_resource_queues() {
        let dag = sample::fig4_dag();
        let costs = sample::fig4_costs_initial();
        let schedule = crate::heft::heft_schedule(&dag, &costs, SlotPolicy::Insertion);
        let mut q = PlanQueues::new();
        q.adopt(&schedule, 3);
        let reference = schedule.resource_queues(3);
        assert_eq!(q.resource_count(), 3);
        for (r, expect) in reference.iter().enumerate() {
            assert_eq!(&q.queues[r], expect, "queue {r} diverged");
        }
        // Re-adoption reuses buffers and reaches the same state.
        q.adopt(&schedule, 3);
        for (r, expect) in reference.iter().enumerate() {
            assert_eq!(&q.queues[r], expect, "re-adopted queue {r} diverged");
        }
    }
}
