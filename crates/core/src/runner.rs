//! The Planner/Executor collaboration loop — ONE event pump for every
//! strategy.
//!
//! [`run_policy`] executes a workflow on the `aheft-gridsim` substrate
//! under resource-pool dynamics and returns the *actual* makespan. It owns
//! everything strategy-independent — the event queue, transfer semantics,
//! pool dynamics, failure injection, trace recording and the RNG
//! discipline — and delegates every strategy decision to a pluggable
//! [`SchedulingPolicy`] (see [`crate::policy`]).
//!
//! Strategies are run by name through
//! [`crate::policy::run_named_policy`]; the paper's §4 comparison
//! strategies are three of its registered policies:
//!
//! * `heft` — [`crate::policy::PlannedPolicy::static_heft`]: one full HEFT
//!   plan at `t = 0`, executed as-is; new resources are ignored ("the
//!   static scheduling approach can not utilize new resources after the
//!   plan is made", §3.1).
//! * `aheft` — [`crate::policy::PlannedPolicy::adaptive`]: the same
//!   initial plan, but the Planner listens for resource-pool-change
//!   events, re-runs AHEFT over the execution snapshot and replaces the
//!   plan whenever the predicted makespan improves (Fig. 2).
//! * `minmin` — [`crate::policy::JitPolicy`]: local just-in-time
//!   decisions; jobs are mapped only when ready and input transfers start
//!   only after mapping (§4.1 assumption 2).
//!
//! Because the fabric is shared, *any* two policies run against the same
//! seed see byte-identical grids (the RNG is consumed only by
//! late-resource column sampling and, under [`ActualModel::Noisy`],
//! actual-runtime draws) — the paper's paired-comparison methodology
//! extends to every registered policy.

use aheft_gridsim::engine::{EventQueue, EventToken};
use aheft_gridsim::event::Event;
use aheft_gridsim::executor::{ExecState, JobState, SnapshotView};
use aheft_gridsim::fault::{derive_stream, FailureModel, JobFaultModel};
use aheft_gridsim::pool::{PoolDynamics, PoolState};
use aheft_gridsim::predictor::ActualModel;
use aheft_gridsim::stats::FaultStats;
use aheft_gridsim::time::SimTime;
use aheft_gridsim::trace::{Trace, TraceEvent};
use aheft_workflow::{CostGenerator, CostTable, Dag, EdgeId, JobId, ResourceId};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::aheft::AheftConfig;
use crate::planner::ReschedulePolicy;
use crate::policy::{PolicyEvent, SchedulingPolicy};
use crate::recovery::{backoff_delay, checkpoint_credit, RecoveryPolicy};

/// Stream tag of the dedicated fault RNG (see [`derive_stream`]): fault
/// sampling must never perturb the cost-column / noise draws of `Sim::rng`,
/// so fault-free sweeps stay byte-identical with the machinery present.
const FAULT_STREAM_TAG: u64 = 0xFA17;

/// Hard bound on injected kills per job (crash faults and straggler
/// kills): keeps even pathological configurations — `CrashOnStart
/// { prob: 1.0 }`, a straggler factor below the noise band — terminating.
/// Past the bound an attempt runs to completion, modulo resource failures.
const MAX_CRASHES_PER_JOB: u32 = 64;

/// Full run configuration (paper defaults via [`Default`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunConfig {
    /// AHEFT scheduling configuration (slot policy, running-job handling).
    pub aheft: AheftConfig,
    /// When the adaptive planner evaluates (ignored by static/dynamic).
    pub policy: ReschedulePolicy,
    /// Actual-runtime model; [`ActualModel::Exact`] is §4.1 assumption 1.
    pub actual: ActualModel,
    /// Emit a performance-variance planner event when a job's actual
    /// runtime deviates from its estimate by more than this fraction.
    pub variance_threshold: Option<f64>,
    /// Resource failure injection, covering the initial pool and every
    /// late joiner (extension; `None` in all paper experiments).
    pub failures: FailureModel,
    /// Job-level crash faults: the job dies, its resource survives
    /// (extension; `None` in all paper experiments).
    pub job_faults: JobFaultModel,
    /// What the execution layer does with fault-killed jobs.
    pub recovery: RecoveryPolicy,
    /// Record a full execution trace (Gantt-able); off for big sweeps.
    pub record_trace: bool,
}

impl Default for RunConfig {
    fn default() -> Self {
        Self {
            aheft: AheftConfig::default(),
            policy: ReschedulePolicy::OnPoolChange,
            actual: ActualModel::Exact,
            variance_threshold: None,
            failures: FailureModel::None,
            job_faults: JobFaultModel::None,
            recovery: RecoveryPolicy::Resubmit,
            record_trace: false,
        }
    }
}

/// Outcome of one simulated workflow execution.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Actual makespan (max `AFT`; paper Eq. 4).
    pub makespan: f64,
    /// Predicted makespan of the initial schedule (the static baseline's
    /// final answer under exact estimates; `0.0` for JIT policies).
    pub initial_predicted: f64,
    /// Planner evaluations performed.
    pub evaluations: usize,
    /// Accepted plan replacements.
    pub reschedules: usize,
    /// Running jobs aborted by replacements.
    pub aborted_jobs: usize,
    /// Total resources ever in the pool (initial + joined).
    pub final_pool_size: usize,
    /// Discrete events processed.
    pub events_processed: u64,
    /// Jobs never finished: non-zero only when faults left the run
    /// provably unschedulable (empty pool, no pending recovery events).
    pub unfinished_jobs: usize,
    /// Fault-tolerance metrics (all-zero/goodput-1 for fault-free runs).
    pub faults: FaultStats,
    /// Execution trace (empty unless `record_trace`).
    pub trace: Trace,
}

/// Shared simulation fabric: the Executor side of Fig. 1.
struct Sim<'a> {
    dag: &'a Dag,
    costs: CostTable,
    costgen: &'a CostGenerator,
    dynamics: PoolDynamics,
    engine: EventQueue,
    state: ExecState,
    pool: PoolState,
    rng: StdRng,
    trace: Trace,
    actual: ActualModel,
    running_on: Vec<Option<JobId>>,
    aborted_jobs: usize,
    /// Cancellation token of each running job's pending completion event,
    /// so aborts revoke exactly that event instance in O(1).
    finish_token: Vec<Option<EventToken>>,
    /// Reusable per-evaluation buffer of the alive pool handed to the
    /// planner. Nothing is allocated per planner evaluation.
    alive_scratch: Vec<ResourceId>,
    // --- fault-tolerance state (inert when both fault models are None) ---
    /// Dedicated fault RNG stream: fault sampling never touches `rng`.
    fault_rng: StdRng,
    failures: FailureModel,
    job_faults: JobFaultModel,
    recovery: RecoveryPolicy,
    /// True when either fault model is enabled; gates the graceful
    /// unschedulable exit (fault-free runs keep the deadlock diagnostic).
    faults_enabled: bool,
    /// Per-job release time under retry backoff (0 = not held).
    held_until: Vec<f64>,
    /// Per-job checkpointed work credited toward the next attempt.
    saved_work: Vec<f64>,
    /// Per-job memoized full duration under checkpoint-restart (a restart
    /// resumes the same execution rather than redrawing its noise).
    full_duration: Vec<Option<f64>>,
    /// Per-job fault-kill count (drives the backoff exponent and the crash
    /// injection bound).
    kills: Vec<u32>,
    /// Kill time of a fault-killed job awaiting restart (recovery latency).
    fault_time: Vec<Option<f64>>,
    /// Pending crash / straggler-watchdog events of running jobs.
    crash_token: Vec<Option<EventToken>>,
    straggler_token: Vec<Option<EventToken>>,
    fault_kills: usize,
    retries: usize,
    recoveries: usize,
    wasted_work: f64,
    recovery_latency: f64,
}

impl<'a> Sim<'a> {
    fn new(
        dag: &'a Dag,
        costs: &CostTable,
        costgen: &'a CostGenerator,
        dynamics: &PoolDynamics,
        seed: u64,
        cfg: &RunConfig,
    ) -> Self {
        assert_eq!(
            costs.resource_count(),
            dynamics.initial,
            "cost table must cover exactly the initial pool"
        );
        assert_eq!(costgen.job_count(), dag.job_count(), "cost generator/DAG mismatch");
        let mut sim = Self {
            dag,
            costs: costs.clone(),
            costgen,
            dynamics: *dynamics,
            engine: EventQueue::new(),
            state: ExecState::with_edges(dag.job_count(), dag.edge_count()),
            pool: PoolState::new(dynamics.initial),
            rng: StdRng::seed_from_u64(seed),
            trace: if cfg.record_trace { Trace::enabled() } else { Trace::disabled() },
            actual: cfg.actual,
            running_on: vec![None; dynamics.initial],
            aborted_jobs: 0,
            finish_token: vec![None; dag.job_count()],
            alive_scratch: Vec::new(),
            fault_rng: StdRng::seed_from_u64(derive_stream(seed, FAULT_STREAM_TAG)),
            failures: cfg.failures,
            job_faults: cfg.job_faults,
            recovery: cfg.recovery,
            faults_enabled: cfg.failures != FailureModel::None
                || cfg.job_faults != JobFaultModel::None,
            held_until: vec![0.0; dag.job_count()],
            saved_work: vec![0.0; dag.job_count()],
            full_duration: vec![None; dag.job_count()],
            kills: vec![0; dag.job_count()],
            fault_time: vec![None; dag.job_count()],
            crash_token: vec![None; dag.job_count()],
            straggler_token: vec![None; dag.job_count()],
            fault_kills: 0,
            retries: 0,
            recoveries: 0,
            wasted_work: 0.0,
            recovery_latency: 0.0,
        };
        if let Some(first) = sim.dynamics.first_event() {
            sim.engine.schedule(
                SimTime::new(first),
                Event::ResourcesJoined { count: sim.dynamics.batch_size() as u32 },
            );
        }
        // Failure injection for the initial pool (late joiners are sampled
        // in `handle_join` over their own lifetimes).
        for r in 0..dynamics.initial {
            sim.arm_failure(ResourceId::from(r), 0.0);
        }
        sim
    }

    /// Sample and schedule the next failure of `r`, which is alive from
    /// `birth`. Draws come from the dedicated fault stream only.
    fn arm_failure(&mut self, r: ResourceId, birth: f64) {
        if let Some(t) = self.failures.sample_from(birth, &mut self.fault_rng) {
            self.engine.schedule(SimTime::new(t), Event::ResourceLeft { resource: r });
        }
    }

    #[inline]
    fn clock(&self) -> f64 {
        self.engine.clock().value()
    }

    /// Resources joining: extend pool, cost table and executor bookkeeping,
    /// then arm the next pool-change event. Returns how many actually
    /// joined (the pool cap may truncate the batch).
    fn handle_join(&mut self, count: u32) -> usize {
        let clock = self.clock();
        let mut joined = 0usize;
        for _ in 0..count {
            if self.pool.total() >= self.dynamics.max_size {
                break;
            }
            let column = self.costgen.sample_column(&mut self.rng);
            let id = self.pool.join(clock);
            let cid = self.costs.add_resource(&column).expect("column matches job count");
            debug_assert_eq!(id, cid);
            self.running_on.push(None);
            // Late joiners are failure candidates too, injected over their
            // own lifetime (the initial pool is sampled in `Sim::new`).
            self.arm_failure(id, clock);
            joined += 1;
        }
        self.trace.push(TraceEvent::ResourcesJoined { t: clock, count: joined as u32 });
        if let Some(interval) = self.dynamics.interval {
            if self.pool.total() < self.dynamics.max_size {
                self.engine.schedule_in(
                    interval,
                    Event::ResourcesJoined { count: self.dynamics.batch_size() as u32 },
                );
            }
        }
        joined
    }

    /// Initiate (or skip, when redundant) the transfer of edge `e`'s data
    /// from the producer's resource to `to`.
    fn send_transfer(&mut self, producer: JobId, e: EdgeId, from: ResourceId, to: ResourceId) {
        if from == to || self.state.transfer_to(e, to).is_some() {
            return;
        }
        let clock = self.clock();
        let arrival = clock + self.costs.comm(e);
        self.state.record_transfer(e, to, arrival);
        self.engine.schedule(SimTime::new(arrival), Event::TransferArrived { producer, to });
        self.trace.push(TraceEvent::TransferStarted { t: clock, producer, from, to, arrival });
    }

    /// Start `job` on `r` now; arms its completion event (plus, when
    /// faults/recovery are configured, the crash and straggler-watchdog
    /// events) and closes out recovery-latency accounting for a retry.
    fn start_job(&mut self, job: JobId, r: ResourceId) {
        debug_assert!(self.running_on[r.idx()].is_none(), "{r} is busy");
        let clock = self.clock();
        let estimate = self.costs.comp(job, r);
        // Checkpoint-restart resumes the same execution: the full duration
        // is drawn once per job and each restart owes only the remainder.
        let duration = if let RecoveryPolicy::Checkpoint { .. } = self.recovery {
            let full = match self.full_duration[job.idx()] {
                Some(full) => full,
                None => {
                    let full = self.actual.actual(estimate, &mut self.rng);
                    self.full_duration[job.idx()] = Some(full);
                    full
                }
            };
            (full - self.saved_work[job.idx()]).max(0.0)
        } else {
            self.actual.actual(estimate, &mut self.rng)
        };
        let finish = self.state.start(job, r, clock, duration);
        self.running_on[r.idx()] = Some(job);
        let token = self.engine.schedule(SimTime::new(finish), Event::JobFinished { job });
        self.finish_token[job.idx()] = Some(token);
        if let Some(t0) = self.fault_time[job.idx()].take() {
            self.retries += 1;
            self.recoveries += 1;
            self.recovery_latency += clock - t0;
        }
        if self.kills[job.idx()] < MAX_CRASHES_PER_JOB {
            if let Some(offset) = self.job_faults.sample_crash_offset(duration, &mut self.fault_rng)
            {
                let token =
                    self.engine.schedule(SimTime::new(clock + offset), Event::JobCrashed { job });
                self.crash_token[job.idx()] = Some(token);
            }
        }
        if let RecoveryPolicy::StragglerKill { factor } = self.recovery {
            if estimate > 0.0 && self.kills[job.idx()] < MAX_CRASHES_PER_JOB {
                let deadline = clock + factor * estimate;
                let token =
                    self.engine.schedule(SimTime::new(deadline), Event::StragglerCheck { job });
                self.straggler_token[job.idx()] = Some(token);
            }
        }
        self.trace.push(TraceEvent::JobStarted { t: clock, job, resource: r });
    }

    /// Complete `job`; returns its resource and its actual/estimated
    /// deviation fraction.
    fn finish_job(&mut self, job: JobId) -> (ResourceId, f64) {
        let clock = self.clock();
        let r = self.state.finish(job, clock);
        self.running_on[r.idx()] = None;
        self.finish_token[job.idx()] = None;
        if let Some(t) = self.crash_token[job.idx()].take() {
            self.engine.cancel(t);
        }
        if let Some(t) = self.straggler_token[job.idx()].take() {
            self.engine.cancel(t);
        }
        self.trace.push(TraceEvent::JobFinished { t: clock, job, resource: r });
        let estimate = self.costs.comp(job, r);
        let deviation = match self.state.finished_on(job) {
            Some((_, aft)) if estimate > 0.0 => {
                let aheft_gridsim::executor::JobState::Finished { ast, .. } = self.state.state(job)
                else {
                    unreachable!("just finished")
                };
                ((aft - ast) - estimate).abs() / estimate
            }
            _ => 0.0,
        };
        (r, deviation)
    }

    /// Abort a running job (plan replacement). O(1): the pending completion
    /// event is tombstoned by token, not searched for.
    fn abort_job(&mut self, job: JobId) {
        self.kill_running(job, false);
    }

    /// Kill a running job (no-op if it is not running): shared teardown of
    /// policy aborts (`fault = false`) and fault kills — resource failure,
    /// crash fault, straggler kill (`fault = true`). Discarded progress is
    /// charged to wasted work (net of checkpoint credit); fault kills
    /// additionally drive the recovery policy (backoff hold, retry event,
    /// recovery-latency accounting).
    fn kill_running(&mut self, job: JobId, fault: bool) {
        let JobState::Running { ast, .. } = self.state.state(job) else { return };
        let clock = self.clock();
        let r = self.state.abort(job).expect("running job aborts");
        self.running_on[r.idx()] = None;
        let token = self.finish_token[job.idx()].take().expect("running job has an event");
        self.engine.cancel(token);
        if let Some(t) = self.crash_token[job.idx()].take() {
            self.engine.cancel(t);
        }
        if let Some(t) = self.straggler_token[job.idx()].take() {
            self.engine.cancel(t);
        }
        let progress = clock - ast;
        if let RecoveryPolicy::Checkpoint { interval } = self.recovery {
            let (kept, wasted) = checkpoint_credit(self.saved_work[job.idx()], progress, interval);
            self.saved_work[job.idx()] = kept;
            self.wasted_work += wasted;
        } else {
            self.wasted_work += progress;
        }
        self.aborted_jobs += 1;
        self.trace.push(TraceEvent::JobAborted { t: clock, job, resource: r });
        if fault {
            self.fault_kills += 1;
            self.kills[job.idx()] = self.kills[job.idx()].saturating_add(1);
            self.fault_time[job.idx()] = Some(clock);
            if let RecoveryPolicy::RetryBackoff { base, cap } = self.recovery {
                let delay = backoff_delay(base, cap, self.kills[job.idx()]);
                self.held_until[job.idx()] = clock + delay;
                self.engine.schedule_in(delay, Event::JobRetry { job });
            }
        }
    }

    /// Diagnostic panic on deadlock — indicates a simulator bug or an
    /// unexecutable plan; never expected in a correct run.
    fn deadlock(&self) -> ! {
        let waiting: Vec<String> = self
            .dag
            .job_ids()
            .filter(|&j| !self.state.is_finished(j))
            .map(|j| format!("{j}"))
            .take(10)
            .collect();
        let recent: Vec<String> =
            self.trace.events().iter().rev().take(30).map(|e| format!("{e:?}")).collect();
        panic!(
            "simulation deadlock at t={}: {}/{} jobs finished; stuck: {:?}; alive pool: {:?}; running_on: {:?}; recent trace (newest first): {:#?}",
            self.clock(),
            self.state.finished_count(),
            self.dag.job_count(),
            waiting,
            self.pool.alive(),
            self.running_on,
            recent
        );
    }

    fn report(self, initial_predicted: f64, evaluations: usize, reschedules: usize) -> RunReport {
        let makespan = self.state.makespan();
        // Useful work = sum of finished execution intervals; goodput
        // relates it to the progress discarded by kills.
        let mut useful = 0.0;
        for j in self.dag.job_ids() {
            if let JobState::Finished { ast, aft, .. } = self.state.state(j) {
                useful += aft - ast;
            }
        }
        let denom = useful + self.wasted_work;
        let goodput = if denom > 0.0 { useful / denom } else { 1.0 };
        // Downtime: completed repair outages accumulated on the resource,
        // plus the open-ended tail of resources still dead at the end.
        let mut downtime = 0.0;
        for r in 0..self.pool.total() {
            let res = self.pool.resource(ResourceId::from(r));
            downtime += res.downtime;
            if let Some(left) = res.left_at {
                downtime += (makespan - left).max(0.0);
            }
        }
        RunReport {
            makespan,
            initial_predicted,
            evaluations,
            reschedules,
            aborted_jobs: self.aborted_jobs,
            final_pool_size: self.pool.total(),
            events_processed: self.engine.processed(),
            unfinished_jobs: self.dag.job_count() - self.state.finished_count(),
            faults: FaultStats {
                fault_kills: self.fault_kills,
                retries: self.retries,
                wasted_work: self.wasted_work,
                recovery_latency: self.recovery_latency,
                recoveries: self.recoveries,
                downtime,
                goodput,
            },
            trace: self.trace,
        }
    }
}

// ---------------------------------------------------------------------------
// The policy-facing fabric handle
// ---------------------------------------------------------------------------

/// Everything a [`SchedulingPolicy`] may read or do on the simulation
/// fabric — and nothing it may not: the event queue, the pool membership
/// bookkeeping and the RNG stay owned by the pump, so no policy can
/// perturb the shared grid another policy would see under the same seed.
pub struct ExecCtx<'s, 'a> {
    sim: &'s mut Sim<'a>,
}

/// The borrowed planner-evaluation inputs prepared by
/// [`ExecCtx::eval_view`]: a dense zero-copy snapshot of the execution
/// state, the alive pool, and the problem description.
pub struct PlannerView<'v> {
    /// Execution state at the current clock; every resource is free for
    /// new work from the clock.
    pub view: SnapshotView<'v>,
    /// Resources currently alive, in id order.
    pub alive: &'v [ResourceId],
    /// The workflow DAG.
    pub dag: &'v Dag,
    /// The current cost table (initial + joined columns).
    pub costs: &'v CostTable,
}

impl<'s, 'a> ExecCtx<'s, 'a> {
    /// Current simulation time.
    #[inline]
    pub fn clock(&self) -> f64 {
        self.sim.clock()
    }

    /// The workflow DAG (borrowed for the whole run, not from the ctx).
    #[inline]
    pub fn dag(&self) -> &'a Dag {
        self.sim.dag
    }

    /// The current cost table: initial columns plus one per joined
    /// resource.
    #[inline]
    pub fn costs(&self) -> &CostTable {
        &self.sim.costs
    }

    /// The execution state (job lifecycle + transfer ledger).
    #[inline]
    pub fn state(&self) -> &ExecState {
        &self.sim.state
    }

    /// Total resources ever in the pool (alive + departed).
    #[inline]
    pub fn pool_total(&self) -> usize {
        self.sim.pool.total()
    }

    /// True if `r` is currently in the pool.
    #[inline]
    pub fn resource_alive(&self, r: ResourceId) -> bool {
        self.sim.pool.resource(r).alive()
    }

    /// The job currently running on `r`, if any.
    #[inline]
    pub fn running_on(&self, r: ResourceId) -> Option<JobId> {
        self.sim.running_on[r.idx()]
    }

    /// True when every job has finished.
    #[inline]
    pub fn all_finished(&self) -> bool {
        self.sim.state.all_finished()
    }

    /// The configured recovery policy (so scheduling policies can decide
    /// whether a fault-killed job should be re-placed or retried in
    /// place).
    #[inline]
    pub fn recovery(&self) -> RecoveryPolicy {
        self.sim.recovery
    }

    /// True unless `job` is held by a retry backoff; held jobs must not be
    /// started (their release arrives as [`PolicyEvent::JobReleased`]).
    #[inline]
    pub fn job_released(&self, job: JobId) -> bool {
        self.sim.held_until[job.idx()] <= self.sim.clock()
    }

    /// Start `job` on `r` now (the resource must be idle and alive).
    pub fn start_job(&mut self, job: JobId, r: ResourceId) {
        self.sim.start_job(job, r);
    }

    /// Initiate (or skip, when redundant) the transfer of edge `e`'s data
    /// from `from` to `to`.
    pub fn send_transfer(&mut self, producer: JobId, e: EdgeId, from: ResourceId, to: ResourceId) {
        self.sim.send_transfer(producer, e, from, to);
    }

    /// Abort a running job (no-op if it is not running).
    pub fn abort_job(&mut self, job: JobId) {
        self.sim.abort_job(job);
    }

    /// Emit a performance-variance planner notification at the current
    /// clock (delivered back through [`SchedulingPolicy::on_event`]).
    pub fn emit_variance(&mut self, job: JobId, resource: ResourceId) {
        let clock = self.sim.clock();
        self.sim.engine.schedule(SimTime::new(clock), Event::PerformanceVariance { job, resource });
    }

    /// Arm a [`PolicyEvent::Wake`] `delay` time units from now (periodic
    /// rescheduling policies).
    pub fn schedule_wake_in(&mut self, delay: f64) {
        self.sim.engine.schedule_in(delay, Event::Wake);
    }

    /// Append a policy-level record (plan kept/replaced) to the trace.
    pub fn push_trace(&mut self, ev: TraceEvent) {
        self.sim.trace.push(ev);
    }

    /// Prepare the planner-evaluation inputs at the current clock: the
    /// alive set is refreshed in the fabric's reusable scratch buffer
    /// (nothing is allocated after warm-up). Returns `None` when the pool
    /// is empty — nothing to schedule on until it recovers.
    pub fn eval_view(&mut self) -> Option<PlannerView<'_>> {
        self.sim.pool.alive_into(&mut self.sim.alive_scratch);
        if self.sim.alive_scratch.is_empty() {
            return None;
        }
        Some(PlannerView {
            view: self.sim.state.view(self.sim.clock()),
            alive: &self.sim.alive_scratch,
            dag: self.sim.dag,
            costs: &self.sim.costs,
        })
    }
}

// ---------------------------------------------------------------------------
// The one event pump
// ---------------------------------------------------------------------------

/// Execute `dag` under `policy` — the single event-pump implementation
/// every strategy runs on.
///
/// The pump applies each event's fabric-level effects (job completion
/// bookkeeping, pool membership, aborting the running job of a departed
/// resource, transfer arrivals) and then hands a [`PolicyEvent`] to the
/// policy; between events it calls
/// [`SchedulingPolicy::dispatch_ready`] so the policy can map and start
/// work. `costs` must have exactly `dynamics.initial` columns; `seed`
/// drives the cost columns of late-arriving resources (and noisy runtime
/// draws under [`ActualModel::Noisy`]).
#[allow(clippy::too_many_arguments)]
pub fn run_policy(
    dag: &Dag,
    costs: &CostTable,
    costgen: &CostGenerator,
    dynamics: &PoolDynamics,
    seed: u64,
    cfg: &RunConfig,
    policy: &mut dyn SchedulingPolicy,
) -> RunReport {
    let mut sim = Sim::new(dag, costs, costgen, dynamics, seed, cfg);
    let initial_predicted = policy.initial_plan(&mut ExecCtx { sim: &mut sim });
    loop {
        policy.dispatch_ready(&mut ExecCtx { sim: &mut sim });
        if sim.state.all_finished() {
            break;
        }
        let Some((_, ev)) = sim.engine.pop() else {
            if sim.faults_enabled && !sim.state.all_finished() {
                // Provably unschedulable under the injected faults: no
                // pending events can ever revive the pool or release work.
                break;
            }
            sim.deadlock()
        };
        let pe = match ev {
            Event::JobFinished { job } => {
                let (resource, deviation) = sim.finish_job(job);
                PolicyEvent::JobFinished { job, resource, deviation }
            }
            Event::TransferArrived { producer, to } => {
                // The ledger was updated at send time; arrival only wakes
                // the dispatch loop.
                PolicyEvent::TransferArrived { producer, to }
            }
            Event::ResourcesJoined { count } => {
                let joined = sim.handle_join(count);
                PolicyEvent::PoolGrew { joined }
            }
            Event::ResourceLeft { resource } => {
                sim.pool.leave(resource, sim.clock());
                sim.trace.push(TraceEvent::ResourceLeft { t: sim.clock(), resource });
                let aborted = sim.running_on[resource.idx()];
                if let Some(job) = aborted {
                    sim.kill_running(job, true);
                }
                // Transient failures repair: schedule the rejoin now so the
                // downtime draw is adjacent to the failure's in the stream.
                if let Some(dt) = sim.failures.sample_downtime(&mut sim.fault_rng) {
                    sim.engine.schedule_in(dt, Event::ResourceRejoined { resource });
                }
                PolicyEvent::ResourceLeft { resource, aborted }
            }
            Event::ResourceRejoined { resource } => {
                let clock = sim.clock();
                sim.pool.rejoin(resource, clock);
                sim.trace.push(TraceEvent::ResourceRejoined { t: clock, resource });
                // The repaired resource is a failure candidate again.
                sim.arm_failure(resource, clock);
                PolicyEvent::ResourceRejoined { resource }
            }
            Event::JobCrashed { job } => {
                // The fired event consumed its own token; clear it before
                // the kill path tries to cancel a non-pending event.
                sim.crash_token[job.idx()] = None;
                let JobState::Running { resource, .. } = sim.state.state(job) else {
                    unreachable!("crash events are cancelled when {job} stops running")
                };
                sim.trace.push(TraceEvent::JobCrashed { t: sim.clock(), job, resource });
                sim.kill_running(job, true);
                PolicyEvent::JobFaulted { job, resource }
            }
            Event::StragglerCheck { job } => {
                // Still pending at its deadline ⇒ the job overran k× its
                // prediction; kill and resubmit it.
                sim.straggler_token[job.idx()] = None;
                let JobState::Running { resource, .. } = sim.state.state(job) else {
                    unreachable!("straggler checks are cancelled when {job} stops running")
                };
                sim.trace.push(TraceEvent::JobKilled { t: sim.clock(), job, resource });
                sim.kill_running(job, true);
                PolicyEvent::JobFaulted { job, resource }
            }
            Event::JobRetry { job } => PolicyEvent::JobReleased { job },
            Event::PerformanceVariance { job, resource } => {
                PolicyEvent::PerformanceVariance { job, resource }
            }
            Event::Wake => PolicyEvent::Wake,
        };
        policy.on_event(&pe, &mut ExecCtx { sim: &mut sim });
    }
    let stats = policy.stats();
    sim.report(initial_predicted, stats.evaluations, stats.reschedules)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::run_named_policy;
    use aheft_gridsim::trace::TraceEvent;
    use aheft_workflow::generators::random::{generate, RandomDagParams};
    use aheft_workflow::sample;
    use rand::rngs::StdRng;

    fn fig4_setup() -> (Dag, CostTable, CostGenerator) {
        let dag = sample::fig4_dag();
        let costs = sample::fig4_costs_initial();
        // A generator that reproduces exactly r4's column (beta = 0 makes
        // every sampled column equal the nominal costs).
        let costgen = CostGenerator::new(sample::fig4_r4_column(), 0.0).unwrap();
        (dag, costs, costgen)
    }

    #[test]
    fn static_run_reproduces_planned_makespan() {
        let (dag, costs, costgen) = fig4_setup();
        let cfg = RunConfig::default();
        let report =
            run_named_policy("heft", &dag, &costs, &costgen, &PoolDynamics::fixed(3), 1, &cfg);
        assert!((report.makespan - 80.0).abs() < 1e-9, "makespan {}", report.makespan);
        assert!((report.makespan - report.initial_predicted).abs() < 1e-9);
        assert_eq!(report.reschedules, 0);
    }

    #[test]
    fn static_run_ignores_new_resources() {
        let (dag, costs, costgen) = fig4_setup();
        let dynamics = PoolDynamics::periodic_growth(3, 15.0, 0.34);
        let report =
            run_named_policy("heft", &dag, &costs, &costgen, &dynamics, 1, &RunConfig::default());
        assert!((report.makespan - 80.0).abs() < 1e-9);
        assert!(report.final_pool_size > 3);
    }

    #[test]
    fn fig5b_worked_example_r4_at_15() {
        // The paper's worked example: r4 joins at t=15 and the paper's
        // hand-built reschedule reaches 76. Under our fully specified
        // semantics the t=15 candidates are 81 (abort-and-restart n3) and
        // 80 (pin n3) — the 4-column rank averages reorder n7/n9, which
        // costs the candidate the paper's 4-unit win (see EXPERIMENTS.md).
        // The guarantee that *does* hold, and the one the paper's Fig. 2
        // line 7 enforces, is makespan(AHEFT) <= makespan(HEFT): the
        // planner evaluates the event and keeps the better plan.
        let (dag, costs, costgen) = fig4_setup();
        let dynamics = PoolDynamics::periodic_growth(3, 15.0, 1.0 / 3.0).with_cap(4);
        let cfg = RunConfig::default();
        let run = |name| run_named_policy(name, &dag, &costs, &costgen, &dynamics, 1, &cfg);
        let report = run("aheft");
        assert_eq!(report.evaluations, 1);
        assert!(report.makespan <= 80.0 + 1e-9, "never worse than HEFT, got {}", report.makespan);
        // Pinning running jobs evaluates a candidate of exactly 80.
        let pinned = run("aheft-pin");
        assert!((pinned.makespan - 80.0).abs() < 1e-9);
    }

    #[test]
    fn aheft_accepts_improvement_on_wide_workflow() {
        // A wide workflow on a small pool: resources arriving early *must*
        // be exploited. 16 independent jobs of cost 100 on 2 resources
        // (makespan 800); two more join at t=100.
        let mut b = aheft_workflow::DagBuilder::new();
        for i in 0..16 {
            b.add_job(format!("j{i}"));
        }
        let dag = b.build().unwrap();
        let costs = CostTable::from_dag_comm(&dag, &vec![vec![100.0, 100.0]; 16], 1.0).unwrap();
        let costgen = CostGenerator::new(vec![100.0; 16], 0.0).unwrap();
        let dynamics = PoolDynamics::periodic_growth(2, 100.0, 1.0).with_cap(4);
        let cfg = RunConfig::default();
        let run = |name| run_named_policy(name, &dag, &costs, &costgen, &dynamics, 1, &cfg);
        let h = run("heft");
        assert!((h.makespan - 800.0).abs() < 1e-9);
        let a = run("aheft");
        assert!(a.reschedules >= 1);
        // 2 jobs done by t=100; 14 remain over 4 resources, two of which
        // are mid-job: finish = 100 + 4 rounds of 100 on the new resources
        // / staggered on the old ones -> well under 800.
        assert!(a.makespan < 600.0, "expected a large win, got {}", a.makespan);
    }

    #[test]
    fn aheft_never_worse_than_static_exact() {
        let mut rng = StdRng::seed_from_u64(1234);
        let cfg = RunConfig::default();
        for case in 0..20u64 {
            let p = RandomDagParams { jobs: 30, ..RandomDagParams::paper_default() };
            let wf = generate(&p, &mut rng);
            let costs = wf.sample_table(5, &mut rng);
            let dynamics = PoolDynamics::periodic_growth(5, 300.0, 0.2);
            let run =
                |name| run_named_policy(name, &wf.dag, &costs, &wf.costgen, &dynamics, case, &cfg);
            let h = run("heft");
            let a = run("aheft");
            assert!(
                a.makespan <= h.makespan + 1e-6,
                "case {case}: AHEFT {} vs HEFT {}",
                a.makespan,
                h.makespan
            );
        }
    }

    #[test]
    fn dynamic_minmin_completes_all_jobs() {
        let mut rng = StdRng::seed_from_u64(5678);
        let p = RandomDagParams { jobs: 40, ..RandomDagParams::paper_default() };
        let wf = generate(&p, &mut rng);
        let costs = wf.sample_table(6, &mut rng);
        let cfg = RunConfig::default();
        let report = run_named_policy(
            "minmin",
            &wf.dag,
            &costs,
            &wf.costgen,
            &PoolDynamics::fixed(6),
            9,
            &cfg,
        );
        assert!(report.makespan > 0.0);
        assert_eq!(report.reschedules, 0);
    }

    #[test]
    fn dynamic_is_worse_than_planned_on_data_intensive() {
        // High CCR punishes just-in-time transfer deferral (§4.2: Min-Min
        // averages 12352 vs HEFT's 4075).
        let mut rng = StdRng::seed_from_u64(42);
        let p = RandomDagParams { jobs: 50, ccr: 5.0, ..RandomDagParams::paper_default() };
        let wf = generate(&p, &mut rng);
        let costs = wf.sample_table(8, &mut rng);
        let fixed = PoolDynamics::fixed(8);
        let cfg = RunConfig::default();
        let run = |name| run_named_policy(name, &wf.dag, &costs, &wf.costgen, &fixed, 3, &cfg);
        let h = run("heft");
        let m = run("minmin");
        assert!(
            m.makespan > h.makespan,
            "Min-Min {} should lose to HEFT {}",
            m.makespan,
            h.makespan
        );
    }

    #[test]
    fn trace_records_reschedule() {
        let mut b = aheft_workflow::DagBuilder::new();
        for i in 0..16 {
            b.add_job(format!("j{i}"));
        }
        let dag = b.build().unwrap();
        let costs = CostTable::from_dag_comm(&dag, &vec![vec![100.0, 100.0]; 16], 1.0).unwrap();
        let costgen = CostGenerator::new(vec![100.0; 16], 0.0).unwrap();
        let dynamics = PoolDynamics::periodic_growth(2, 100.0, 1.0).with_cap(4);
        let cfg = RunConfig { record_trace: true, ..Default::default() };
        let report = run_named_policy("aheft", &dag, &costs, &costgen, &dynamics, 1, &cfg);
        assert!(report.trace.reschedule_count() >= 1);
        let intervals = report.trace.completed_intervals();
        assert_eq!(intervals.len(), dag.job_count());
    }

    #[test]
    fn failure_forces_replan_and_completes() {
        // Failures can kill the whole initial pool (prob 0.5 each of 3), so
        // pair them with pool growth: the run must recover and finish via
        // forced rescheduling once new resources join. The paper's
        // fault-tolerance equivalence: static and adaptive react identically.
        let (dag, costs, costgen) = fig4_setup();
        let dynamics = PoolDynamics::periodic_growth(3, 50.0, 1.0 / 3.0);
        let cfg = RunConfig {
            failures: FailureModel::UniformOnce { prob: 0.5, horizon: 40.0 },
            record_trace: true,
            ..Default::default()
        };
        for seed in 0..5u64 {
            for name in ["aheft", "heft"] {
                let r = run_named_policy(name, &dag, &costs, &costgen, &dynamics, seed, &cfg);
                assert!(r.makespan > 0.0);
            }
        }
    }

    #[test]
    fn noisy_execution_still_completes() {
        let (dag, costs, costgen) = fig4_setup();
        let cfg = RunConfig {
            actual: ActualModel::Noisy { spread: 0.4 },
            variance_threshold: Some(0.2),
            policy: ReschedulePolicy::OnAnyPlannerEvent,
            ..Default::default()
        };
        let report =
            run_named_policy("aheft", &dag, &costs, &costgen, &PoolDynamics::fixed(3), 7, &cfg);
        assert!(report.makespan > 0.0);
    }

    /// ISSUE 7 satellite (a) regression: resources that join mid-run must
    /// sample their failure over their *own* lifetime, not keep the seed
    /// pool's horizon-anchored draw. With `prob: 1.0` every resource born
    /// before the horizon fails, so a late joiner shedding a `ResourceLeft`
    /// proves the per-resource injection.
    #[test]
    fn late_joiners_draw_failures_over_their_own_lifetime() {
        let (dag, costs, costgen) = fig4_setup();
        let initial = 3usize;
        let dynamics = PoolDynamics::periodic_growth(initial, 20.0, 1.0);
        let cfg = RunConfig {
            failures: FailureModel::UniformOnce { prob: 1.0, horizon: 200.0 },
            record_trace: true,
            ..Default::default()
        };
        let mut late_failures = 0usize;
        for seed in 0..6u64 {
            let r = run_named_policy("aheft", &dag, &costs, &costgen, &dynamics, seed, &cfg);
            late_failures += r
                .trace
                .events()
                .iter()
                .filter(|ev| {
                    matches!(ev, TraceEvent::ResourceLeft { resource, .. }
                        if resource.idx() >= initial)
                })
                .count();
        }
        assert!(late_failures > 0, "no late joiner ever failed across 6 seeds");
    }

    #[test]
    fn transient_failures_rejoin_and_accrue_downtime() {
        let (dag, costs, costgen) = fig4_setup();
        let cfg = RunConfig {
            failures: FailureModel::Transient { mtbf: 60.0, mttr: 15.0 },
            record_trace: true,
            ..Default::default()
        };
        let mut rejoins = 0usize;
        let mut downtime = 0.0f64;
        for seed in 0..6u64 {
            let r = run_named_policy(
                "aheft",
                &dag,
                &costs,
                &costgen,
                &PoolDynamics::fixed(3),
                seed,
                &cfg,
            );
            assert_eq!(
                r.unfinished_jobs, 0,
                "transient outages must not strand jobs (seed {seed})"
            );
            rejoins += r
                .trace
                .events()
                .iter()
                .filter(|ev| matches!(ev, TraceEvent::ResourceRejoined { .. }))
                .count();
            downtime += r.faults.downtime;
        }
        assert!(rejoins > 0, "no repair ever observed across 6 seeds");
        assert!(downtime > 0.0, "repairs must accrue downtime");
    }

    #[test]
    fn crash_faults_recover_under_every_recovery_policy() {
        let (dag, costs, costgen) = fig4_setup();
        for name in crate::recovery::RECOVERY_NAMES {
            let cfg = RunConfig {
                job_faults: JobFaultModel::CrashOnStart { prob: 0.3 },
                recovery: crate::recovery::make_recovery(name).unwrap(),
                ..Default::default()
            };
            let mut kills = 0usize;
            for seed in 0..4u64 {
                let run = |policy| {
                    run_named_policy(
                        policy,
                        &dag,
                        &costs,
                        &costgen,
                        &PoolDynamics::fixed(3),
                        seed,
                        &cfg,
                    )
                };
                let r = run("aheft");
                assert_eq!(r.unfinished_jobs, 0, "{name}/seed{seed} stranded jobs");
                kills += r.faults.fault_kills;
                if r.faults.fault_kills > 0 {
                    assert_eq!(r.faults.recoveries, r.faults.retries);
                    assert!(r.faults.wasted_work >= 0.0);
                    assert!(r.faults.goodput < 1.0 + 1e-12);
                    assert!(r.faults.recovery_latency >= 0.0);
                }
                let d = run("minmin");
                assert_eq!(d.unfinished_jobs, 0, "minmin/{name}/seed{seed} stranded jobs");
            }
            assert!(kills > 0, "{name}: prob 0.3 over 4 seeds must kill something");
        }
    }

    #[test]
    fn certain_crash_terminates_via_retry_bound() {
        // prob 1.0 crashes every attempt; the MAX_CRASHES_PER_JOB bound
        // stops scheduling crash faults after 64 kills, so the 65th attempt
        // of each job runs clean and the workflow still completes.
        let (dag, costs, costgen) = fig4_setup();
        let cfg = RunConfig {
            job_faults: JobFaultModel::CrashOnStart { prob: 1.0 },
            recovery: RecoveryPolicy::RetryBackoff { base: 1.0, cap: 8.0 },
            ..Default::default()
        };
        let r = run_named_policy("aheft", &dag, &costs, &costgen, &PoolDynamics::fixed(3), 3, &cfg);
        assert_eq!(r.unfinished_jobs, 0);
        assert_eq!(r.faults.fault_kills, dag.job_count() * MAX_CRASHES_PER_JOB as usize);
        assert!(r.faults.goodput < 1.0);
    }

    #[test]
    fn straggler_watchdog_kills_and_recovers() {
        let (dag, costs, costgen) = fig4_setup();
        let cfg = RunConfig {
            actual: ActualModel::Noisy { spread: 0.5 },
            recovery: RecoveryPolicy::StragglerKill { factor: 1.1 },
            ..Default::default()
        };
        let mut kills = 0usize;
        for seed in 0..6u64 {
            let r = run_named_policy(
                "aheft",
                &dag,
                &costs,
                &costgen,
                &PoolDynamics::fixed(3),
                seed,
                &cfg,
            );
            assert_eq!(r.unfinished_jobs, 0, "seed {seed} stranded jobs");
            kills += r.faults.fault_kills;
        }
        assert!(kills > 0, "spread 0.5 vs factor 1.1 must catch a straggler somewhere");
    }

    #[test]
    fn dead_pool_degrades_gracefully_instead_of_panicking() {
        // One resource, aggressive permanent failures, no growth: the pool
        // dies and stays dead. The run must end with unfinished jobs
        // reported, not panic on the drained event queue.
        let (dag, costs, costgen) = fig4_setup();
        let cfg =
            RunConfig { failures: FailureModel::Exponential { mtbf: 5.0 }, ..Default::default() };
        let mut stranded = 0usize;
        for seed in 0..4u64 {
            let r = run_named_policy(
                "aheft",
                &dag,
                &costs,
                &costgen,
                &PoolDynamics::fixed(3),
                seed,
                &cfg,
            );
            stranded += r.unfinished_jobs;
        }
        assert!(stranded > 0, "mtbf 5 across three resources must strand at least one run");
    }
}
