//! Multi-tenant workflow service: continuous arrivals on a shared pool.
//!
//! Everything below this module simulates **one** workflow in isolation;
//! the setting the paper's adaptive rescheduling was designed for is a
//! grid serving many users' workflows at once. [`run_service`] closes that
//! gap with a two-level simulation:
//!
//! * the **outer** level is a deterministic service-time event loop:
//!   a Poisson or trace-driven arrival process emits random workflows
//!   tagged with tenants, an admission/fairness layer decides which queued
//!   workflow gets the next free slice of the shared pool
//!   ([`aheft_gridsim::share::SharedPool`]), and completions free slices
//!   for the next admission;
//! * the **inner** level executes each admitted workflow with the
//!   unmodified single-workflow event pump ([`crate::runner::run_policy`])
//!   on its leased slice — its own [`SchedulingPolicy`] instance, its own
//!   decorrelated RNG streams — and the returned makespan schedules the
//!   outer completion event.
//!
//! Because the inner level *is* `run_policy`, a one-tenant service run
//! with a single arrival at `t = 0` reproduces the direct `run_policy`
//! report bit for bit (`tests/service_regression.rs` pins this): the
//! service layer is a strict generalization, not a parallel code path.
//!
//! ## RNG discipline
//!
//! Mirroring the fault layer's dedicated stream (PR 7), the service draws
//! from coordinate-derived sub-streams of the master seed only:
//!
//! * arrival sampling (interarrival gaps + tenant tags) uses
//!   `derive_stream(seed, ARRIVAL_STREAM_TAG)` — one dedicated stream, so
//!   switching arrival processes never perturbs workflow generation;
//! * workflow `i` derives its DAG/cost/simulator seeds from
//!   [`workflow_streams`]`(seed, i)` — a function of the workflow *index*,
//!   never of admission order, so fairness policies reorder execution
//!   without changing what executes.
//!
//! ## Fairness policies
//!
//! Admission is mediated by a [`FairnessPolicy`] from a by-name registry
//! ([`FAIRNESS_NAMES`] / [`make_fairness`], the same upfront-validation
//! pattern as the scheduling and recovery registries):
//!
//! * `fcfs` — strict arrival order; the queue head blocks everyone behind
//!   it until a slice frees up;
//! * `fair-share` — admit the queued workflow whose tenant has consumed
//!   the least resource-time so far (ties in arrival order);
//! * `priority` — lower tenant id = higher priority; a blocked
//!   high-priority workflow preempts the lowest-priority running
//!   workflows, whose progress is discarded and who re-queue.
//!
//! [`SchedulingPolicy`]: crate::policy::SchedulingPolicy

use aheft_gridsim::fault::derive_stream;
use aheft_gridsim::pool::PoolDynamics;
use aheft_gridsim::share::SharedPool;
use aheft_workflow::generators::random::{self, RandomDagParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::policy::{is_policy, run_named_policy, POLICY_NAMES};
use crate::runner::{RunConfig, RunReport};

/// Tag of the dedicated arrival-process RNG stream (interarrival gaps and
/// tenant tags), decorrelated from every workflow's own streams.
const ARRIVAL_STREAM_TAG: u64 = 0xCA11;

/// Tag under which per-workflow base streams are derived from the master
/// seed (see [`workflow_streams`]).
const WORKFLOW_STREAM_TAG: u64 = 0xF10E;

/// Decorrelated RNG streams for workflow `index` of a service run:
/// `(dag_seed, cost_seed, sim_seed)`.
///
/// A pure function of `(seed, index)` — never of admission or execution
/// order — so preemption and fairness reordering cannot change which DAG a
/// workflow is, what its costs are, or how its simulation unfolds. Public
/// so tests can reconstruct the exact single-workflow run the service
/// executed (the strict-generalization regression gate).
pub fn workflow_streams(seed: u64, index: u64) -> (u64, u64, u64) {
    let base = derive_stream(derive_stream(seed, WORKFLOW_STREAM_TAG), index);
    (derive_stream(base, 0xDA6), derive_stream(base, 0xC057), derive_stream(base, 0x51A1))
}

// ---------------------------------------------------------------------------
// Fairness registry
// ---------------------------------------------------------------------------

/// How the admission layer picks the next workflow for a free slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FairnessPolicy {
    /// Strict arrival order; the queue head blocks everyone behind it.
    Fcfs,
    /// Admit the queued workflow whose tenant has consumed the least
    /// resource-time so far (ties broken by arrival order).
    FairShare,
    /// Lower tenant id = higher priority. A blocked higher-priority
    /// workflow preempts the lowest-priority running workflows; preempted
    /// work is discarded and the victims re-queue.
    Priority,
}

/// Every registered fairness-policy name, in canonical order.
pub const FAIRNESS_NAMES: [&str; 3] = ["fcfs", "fair-share", "priority"];

/// Construct a fairness policy by registry name; `None` for unknown names.
pub fn make_fairness(name: &str) -> Option<FairnessPolicy> {
    match name {
        "fcfs" => Some(FairnessPolicy::Fcfs),
        "fair-share" => Some(FairnessPolicy::FairShare),
        "priority" => Some(FairnessPolicy::Priority),
        _ => None,
    }
}

/// Is `name` a registered fairness policy?
pub fn is_fairness(name: &str) -> bool {
    make_fairness(name).is_some()
}

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// How workflow arrival times are generated.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalProcess {
    /// Poisson arrivals: i.i.d. `Exp(1/rate)` interarrival gaps.
    Poisson {
        /// Expected arrivals per unit time; must be positive.
        rate: f64,
    },
    /// Explicit absolute arrival times, sorted non-decreasing. Fewer trace
    /// entries than `workflows` means fewer arrivals.
    Trace(Vec<f64>),
}

/// Configuration of one multi-tenant service run.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Number of tenants sharing the pool; arrivals are tagged uniformly.
    pub tenants: usize,
    /// The arrival process.
    pub arrivals: ArrivalProcess,
    /// Number of workflow arrivals to generate.
    pub workflows: usize,
    /// Total resources in the shared pool.
    pub capacity: usize,
    /// Resources leased to each admitted workflow (its inner pool size).
    pub slice: usize,
    /// The admission/fairness policy.
    pub fairness: FairnessPolicy,
    /// Registered scheduling-policy name every workflow runs under
    /// (each admission gets its own policy instance).
    pub policy: String,
    /// Parameters of the random workflows the arrival process emits.
    pub workload: RandomDagParams,
    /// Inner per-workflow run configuration (faults, recovery, tracing).
    pub run: RunConfig,
    /// Observation horizon: events after this time are not processed and
    /// queued/running workflows stay in flight. `None` drains fully.
    pub horizon: Option<f64>,
    /// Master seed; every stream below it is coordinate-derived.
    pub seed: u64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            tenants: 1,
            arrivals: ArrivalProcess::Poisson { rate: 0.002 },
            workflows: 4,
            capacity: 4,
            slice: 2,
            fairness: FairnessPolicy::Fcfs,
            policy: "aheft".into(),
            workload: RandomDagParams::paper_default(),
            run: RunConfig::default(),
            horizon: None,
            seed: 0,
        }
    }
}

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

/// One record of the service-level trace (always recorded; it is small —
/// a handful of events per workflow).
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceEvent {
    /// A workflow entered the service queue.
    Arrived {
        /// Arrival time.
        t: f64,
        /// Workflow index (arrival order).
        workflow: usize,
        /// Owning tenant.
        tenant: usize,
    },
    /// A workflow was granted a slice and its inner run began.
    Started {
        /// Admission time.
        t: f64,
        /// Workflow index.
        workflow: usize,
        /// Leased slice size.
        slice: usize,
    },
    /// A running workflow was preempted; its progress is discarded and it
    /// re-queues.
    Preempted {
        /// Preemption time.
        t: f64,
        /// The victim workflow.
        workflow: usize,
        /// The higher-priority workflow that claimed the slice.
        by: usize,
    },
    /// A workflow's inner run completed with every job finished.
    Finished {
        /// Completion time.
        t: f64,
        /// Workflow index.
        workflow: usize,
    },
    /// A workflow's inner run ended with unfinished jobs (faults left it
    /// unschedulable); it leaves the system as failed.
    Stranded {
        /// End time of the stranded run.
        t: f64,
        /// Workflow index.
        workflow: usize,
    },
}

/// Per-workflow outcome on the [`ServiceReport`].
#[derive(Debug, Clone)]
pub struct WorkflowOutcome {
    /// Workflow index (arrival order).
    pub index: usize,
    /// Owning tenant.
    pub tenant: usize,
    /// Arrival time.
    pub arrival: f64,
    /// First admission time (`None` = still queued at the horizon).
    pub first_start: Option<f64>,
    /// Time the workflow left the system (`None` = in flight at the
    /// horizon).
    pub finish: Option<f64>,
    /// Makespan of the completed inner run (zero while in flight).
    pub makespan: f64,
    /// Times this workflow was preempted.
    pub preemptions: usize,
    /// The completed inner run left unfinished jobs.
    pub failed: bool,
    /// Full report of the completed inner run.
    pub report: Option<RunReport>,
}

impl WorkflowOutcome {
    /// Response time (finish − arrival), once the workflow left the system.
    pub fn latency(&self) -> Option<f64> {
        self.finish.map(|f| f - self.arrival)
    }

    /// Slowdown: response time over the workflow's own makespan (≥ 1 for
    /// non-preempted workflows). `None` while in flight or for a run whose
    /// makespan is zero (nothing ever executed).
    pub fn slowdown(&self) -> Option<f64> {
        match self.finish {
            Some(f) if self.makespan > 0.0 => Some((f - self.arrival) / self.makespan),
            _ => None,
        }
    }
}

/// Per-tenant aggregates on the [`ServiceReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct TenantStats {
    /// Tenant id.
    pub tenant: usize,
    /// Workflows of this tenant admitted to the service.
    pub admitted: usize,
    /// Workflows that left the system (finished or failed).
    pub completed: usize,
    /// Mean slowdown over completed workflows (0 when none completed).
    pub mean_slowdown: f64,
    /// Worst slowdown over completed workflows (0 when none completed).
    pub max_slowdown: f64,
    /// Nearest-rank p50 of response times (0 when none completed).
    pub p50_latency: f64,
    /// Nearest-rank p99 of response times (0 when none completed).
    pub p99_latency: f64,
    /// Resource-time this tenant consumed on the shared pool.
    pub busy_time: f64,
}

/// Outcome of one multi-tenant service run.
#[derive(Debug, Clone)]
pub struct ServiceReport {
    /// Arrivals processed (admitted to the queue) before the horizon.
    pub admitted: usize,
    /// Workflows that completed with every job finished.
    pub finished: usize,
    /// Workflows whose inner run ended with unfinished jobs.
    pub failed: usize,
    /// Workflows still queued or running at the horizon.
    pub in_flight: usize,
    /// Total preemptions across all workflows.
    pub preemptions: usize,
    /// Mean busy fraction of the shared pool over `[0, end]`.
    pub utilization: f64,
    /// End of observation: the horizon, or the last event time when
    /// draining.
    pub end: f64,
    /// Per-workflow outcomes, in arrival order (admitted arrivals only).
    pub outcomes: Vec<WorkflowOutcome>,
    /// Per-tenant aggregates, indexed by tenant id.
    pub tenants: Vec<TenantStats>,
    /// The service-level trace, in event order.
    pub trace: Vec<ServiceEvent>,
}

/// Nearest-rank percentile of an ascending-sorted sample; 0 when empty.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

impl ServiceReport {
    /// Worst slowdown over all completed workflows (0 when none).
    pub fn max_slowdown(&self) -> f64 {
        self.outcomes.iter().filter_map(WorkflowOutcome::slowdown).fold(0.0, f64::max)
    }

    /// Mean slowdown over all completed workflows (0 when none).
    pub fn mean_slowdown(&self) -> f64 {
        let mut sum = 0.0;
        let mut n = 0usize;
        for s in self.outcomes.iter().filter_map(WorkflowOutcome::slowdown) {
            sum += s;
            n += 1;
        }
        if n > 0 {
            sum / n as f64
        } else {
            0.0
        }
    }

    /// Nearest-rank percentile of response times over all completed
    /// workflows (0 when none completed).
    pub fn latency_percentile(&self, q: f64) -> f64 {
        let mut lat: Vec<f64> = self.outcomes.iter().filter_map(WorkflowOutcome::latency).collect();
        lat.sort_by(f64::total_cmp);
        percentile(&lat, q)
    }
}

// ---------------------------------------------------------------------------
// The service loop
// ---------------------------------------------------------------------------

/// Memoized result of a workflow's inner run. The inner run is a pure
/// function of the workflow index, so a preempted workflow that restarts
/// from scratch replays exactly this result.
struct InnerRun {
    makespan: f64,
    failed: bool,
    report: RunReport,
}

/// A workflow currently holding a slice of the shared pool.
struct InFlight {
    workflow: usize,
    finish: f64,
    slice: usize,
}

/// Outer-loop state (the service-side analogue of the runner's `Sim`).
struct Service<'a> {
    cfg: &'a ServiceConfig,
    /// Precomputed `(arrival_time, tenant)` per workflow, in time order.
    arrivals: Vec<(f64, usize)>,
    /// Waiting workflow indices, in arrival order (re-queued victims at
    /// the tail).
    queue: Vec<usize>,
    running: Vec<InFlight>,
    memo: Vec<Option<InnerRun>>,
    outcomes: Vec<WorkflowOutcome>,
    pool: SharedPool,
    trace: Vec<ServiceEvent>,
    preemptions: usize,
}

/// Sample the arrival sequence from the dedicated arrival stream: one
/// `(time, tenant)` pair per workflow, in non-decreasing time order.
fn sample_arrivals(cfg: &ServiceConfig) -> Vec<(f64, usize)> {
    let mut rng = StdRng::seed_from_u64(derive_stream(cfg.seed, ARRIVAL_STREAM_TAG));
    let mut arrivals = Vec::with_capacity(cfg.workflows);
    let mut t = 0.0;
    for i in 0..cfg.workflows {
        let at = match &cfg.arrivals {
            ArrivalProcess::Poisson { rate } => {
                assert!(*rate > 0.0, "Poisson arrival rate must be positive");
                let u: f64 = rng.random_range(0.0..1.0);
                t += -(1.0 - u).ln() / rate;
                t
            }
            ArrivalProcess::Trace(times) => match times.get(i) {
                Some(&at) => at,
                None => break,
            },
        };
        let tenant = rng.random_range(0..cfg.tenants);
        arrivals.push((at, tenant));
    }
    for w in arrivals.windows(2) {
        assert!(w[0].0 <= w[1].0, "arrival trace must be sorted: {} > {}", w[0].0, w[1].0);
    }
    arrivals
}

impl<'a> Service<'a> {
    /// Materialize and execute workflow `w`'s inner run (memoized).
    fn ensure_inner(&mut self, w: usize) {
        if self.memo[w].is_some() {
            return;
        }
        let (dag_seed, cost_seed, sim_seed) = workflow_streams(self.cfg.seed, w as u64);
        let mut rng = StdRng::seed_from_u64(dag_seed);
        let wf = random::generate(&self.cfg.workload, &mut rng);
        let costs = wf.sample_table_seeded(self.cfg.slice, cost_seed);
        let report = run_named_policy(
            &self.cfg.policy,
            &wf.dag,
            &costs,
            &wf.costgen,
            &PoolDynamics::fixed(self.cfg.slice),
            sim_seed,
            &self.cfg.run,
        );
        let failed = report.unfinished_jobs > 0;
        self.memo[w] = Some(InnerRun { makespan: report.makespan, failed, report });
    }

    /// Lease a slice to `w` at time `t` and schedule its completion.
    fn start(&mut self, t: f64, w: usize) {
        self.ensure_inner(w);
        let tenant = self.outcomes[w].tenant;
        let granted = self.pool.lease(t, tenant, self.cfg.slice);
        debug_assert!(granted, "start() without a free slice");
        let makespan = self.memo[w].as_ref().expect("ensured above").makespan;
        if self.outcomes[w].first_start.is_none() {
            self.outcomes[w].first_start = Some(t);
        }
        self.trace.push(ServiceEvent::Started { t, workflow: w, slice: self.cfg.slice });
        self.running.push(InFlight { workflow: w, finish: t + makespan, slice: self.cfg.slice });
    }

    /// The queued workflow with the least-served tenant (ties: earliest
    /// arrival), as a queue position.
    fn fair_share_pick(&self) -> usize {
        let mut best = 0usize;
        for i in 1..self.queue.len() {
            let served = self.pool.tenant_service(self.outcomes[self.queue[i]].tenant);
            if served < self.pool.tenant_service(self.outcomes[self.queue[best]].tenant) {
                best = i;
            }
        }
        best
    }

    /// The queued workflow with the highest priority — lowest tenant id,
    /// ties by arrival order — as a queue position.
    fn priority_pick(&self) -> usize {
        let mut best = 0usize;
        for i in 1..self.queue.len() {
            if self.outcomes[self.queue[i]].tenant < self.outcomes[self.queue[best]].tenant {
                best = i;
            }
        }
        best
    }

    /// Preempt strictly-lower-priority running workflows until a slice is
    /// free for the tenant-`wt` candidate `w`. Returns `false` (changing
    /// nothing) when even preempting every eligible victim would not free
    /// a slice.
    fn preempt_for(&mut self, t: f64, w: usize, wt: usize) -> bool {
        let reclaimable: usize = self
            .running
            .iter()
            .filter(|r| self.outcomes[r.workflow].tenant > wt)
            .map(|r| r.slice)
            .sum::<usize>();
        if self.pool.free() + reclaimable < self.cfg.slice {
            return false;
        }
        while self.pool.free() < self.cfg.slice {
            let victim = self
                .running
                .iter()
                .enumerate()
                .filter(|(_, r)| self.outcomes[r.workflow].tenant > wt)
                .max_by(|(_, a), (_, b)| {
                    let ta = self.outcomes[a.workflow].tenant;
                    let tb = self.outcomes[b.workflow].tenant;
                    ta.cmp(&tb).then(a.workflow.cmp(&b.workflow))
                })
                .map(|(i, _)| i)
                .expect("reclaimable capacity checked above");
            let r = self.running.remove(victim);
            self.pool.release(t, self.outcomes[r.workflow].tenant, r.slice);
            self.outcomes[r.workflow].preemptions += 1;
            self.preemptions += 1;
            self.trace.push(ServiceEvent::Preempted { t, workflow: r.workflow, by: w });
            self.queue.push(r.workflow);
        }
        true
    }

    /// Admit queued workflows at time `t` until the fairness policy finds
    /// nothing more to start.
    fn admit(&mut self, t: f64) {
        loop {
            if self.queue.is_empty() {
                return;
            }
            match self.cfg.fairness {
                FairnessPolicy::Fcfs => {
                    if self.pool.free() < self.cfg.slice {
                        return;
                    }
                    let w = self.queue.remove(0);
                    self.start(t, w);
                }
                FairnessPolicy::FairShare => {
                    if self.pool.free() < self.cfg.slice {
                        return;
                    }
                    let w = self.queue.remove(self.fair_share_pick());
                    self.start(t, w);
                }
                FairnessPolicy::Priority => {
                    let pick = self.priority_pick();
                    let w = self.queue[pick];
                    let wt = self.outcomes[w].tenant;
                    if self.pool.free() < self.cfg.slice && !self.preempt_for(t, w, wt) {
                        return;
                    }
                    // `preempt_for` only appends to the queue, so `pick`
                    // still addresses `w`.
                    self.queue.remove(pick);
                    self.start(t, w);
                }
            }
        }
    }

    /// Run the outer event loop and aggregate the report.
    fn run(mut self) -> ServiceReport {
        let mut next_arrival = 0usize;
        let mut last_t = 0.0f64;
        loop {
            let completion = self
                .running
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| {
                    a.finish.total_cmp(&b.finish).then(a.workflow.cmp(&b.workflow))
                })
                .map(|(i, r)| (r.finish, i));
            let arrival = self.arrivals.get(next_arrival).map(|&(at, _)| at);
            // Completions before arrivals on ties: a freed slice must be
            // offered to a same-instant arrival.
            let take_completion = match (completion, arrival) {
                (None, None) => break,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (Some((ct, _)), Some(at)) => ct <= at,
            };
            let t = if take_completion {
                completion.expect("chosen above").0
            } else {
                arrival.expect("chosen above")
            };
            if let Some(h) = self.cfg.horizon {
                if t > h {
                    break;
                }
            }
            last_t = t;
            if take_completion {
                let idx = completion.expect("chosen above").1;
                let fin = self.running.remove(idx);
                let w = fin.workflow;
                self.pool.release(t, self.outcomes[w].tenant, fin.slice);
                let inner = self.memo[w].as_ref().expect("ran before completing");
                self.outcomes[w].finish = Some(t);
                self.outcomes[w].makespan = inner.makespan;
                self.outcomes[w].failed = inner.failed;
                self.trace.push(if inner.failed {
                    ServiceEvent::Stranded { t, workflow: w }
                } else {
                    ServiceEvent::Finished { t, workflow: w }
                });
            } else {
                let (at, tenant) = self.arrivals[next_arrival];
                let w = next_arrival;
                next_arrival += 1;
                self.trace.push(ServiceEvent::Arrived { t: at, workflow: w, tenant });
                self.queue.push(w);
            }
            self.admit(t);
        }
        if self.cfg.horizon.is_none() {
            debug_assert!(self.queue.is_empty() && self.running.is_empty(), "drain left work");
        }

        let end = self.cfg.horizon.unwrap_or(last_t);
        self.pool.advance_to(end.max(last_t));
        let admitted = next_arrival;
        let in_flight = self.queue.len() + self.running.len();
        // Attach the memoized inner reports to completed outcomes.
        for (w, memo) in self.memo.iter_mut().enumerate().take(admitted) {
            if self.outcomes[w].finish.is_some() {
                self.outcomes[w].report = memo.take().map(|m| m.report);
            }
        }
        let mut outcomes = self.outcomes;
        outcomes.truncate(admitted);
        let finished = outcomes.iter().filter(|o| o.finish.is_some() && !o.failed).count();
        let failed = outcomes.iter().filter(|o| o.finish.is_some() && o.failed).count();

        let mut tenants = Vec::with_capacity(self.cfg.tenants);
        for tenant in 0..self.cfg.tenants {
            let mut latencies: Vec<f64> = Vec::new();
            let mut admitted_t = 0usize;
            let mut slow_sum = 0.0;
            let mut slow_n = 0usize;
            let mut slow_max = 0.0f64;
            for o in outcomes.iter().filter(|o| o.tenant == tenant) {
                admitted_t += 1;
                if let Some(l) = o.latency() {
                    latencies.push(l);
                }
                if let Some(s) = o.slowdown() {
                    slow_sum += s;
                    slow_n += 1;
                    slow_max = slow_max.max(s);
                }
            }
            latencies.sort_by(f64::total_cmp);
            tenants.push(TenantStats {
                tenant,
                admitted: admitted_t,
                completed: latencies.len(),
                mean_slowdown: if slow_n > 0 { slow_sum / slow_n as f64 } else { 0.0 },
                max_slowdown: slow_max,
                p50_latency: percentile(&latencies, 0.50),
                p99_latency: percentile(&latencies, 0.99),
                busy_time: self.pool.tenant_service(tenant),
            });
        }

        ServiceReport {
            admitted,
            finished,
            failed,
            in_flight,
            preemptions: self.preemptions,
            utilization: self.pool.utilization(end),
            end,
            outcomes,
            tenants,
            trace: self.trace,
        }
    }
}

/// Execute one multi-tenant service run.
///
/// Panics on malformed configuration (zero tenants/capacity, a slice that
/// does not fit the pool, or an unregistered scheduling-policy name) —
/// callers validate names upfront, like every other registry user.
pub fn run_service(cfg: &ServiceConfig) -> ServiceReport {
    assert!(cfg.tenants > 0, "service needs at least one tenant");
    assert!(cfg.capacity > 0, "service needs a non-empty pool");
    assert!(
        cfg.slice >= 1 && cfg.slice <= cfg.capacity,
        "slice {} does not fit the pool capacity {}",
        cfg.slice,
        cfg.capacity
    );
    assert!(
        is_policy(&cfg.policy),
        "unknown scheduling policy '{}' (known: {})",
        cfg.policy,
        POLICY_NAMES.join(" ")
    );
    let arrivals = sample_arrivals(cfg);
    let outcomes = arrivals
        .iter()
        .enumerate()
        .map(|(index, &(arrival, tenant))| WorkflowOutcome {
            index,
            tenant,
            arrival,
            first_start: None,
            finish: None,
            makespan: 0.0,
            preemptions: 0,
            failed: false,
            report: None,
        })
        .collect();
    let memo = (0..arrivals.len()).map(|_| None).collect();
    Service {
        cfg,
        pool: SharedPool::new(cfg.capacity, cfg.tenants),
        arrivals,
        queue: Vec::new(),
        running: Vec::new(),
        memo,
        outcomes,
        trace: Vec::new(),
        preemptions: 0,
    }
    .run()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(fairness: FairnessPolicy) -> ServiceConfig {
        ServiceConfig {
            tenants: 2,
            arrivals: ArrivalProcess::Poisson { rate: 0.01 },
            workflows: 6,
            capacity: 4,
            slice: 2,
            fairness,
            workload: RandomDagParams { jobs: 10, ..RandomDagParams::paper_default() },
            seed: 42,
            ..ServiceConfig::default()
        }
    }

    #[test]
    fn fairness_registry_is_consistent() {
        for name in FAIRNESS_NAMES {
            assert!(make_fairness(name).is_some(), "{name} constructs");
            assert!(is_fairness(name), "{name} registered");
        }
        assert_eq!(make_fairness("nope"), None);
        assert!(!is_fairness("FCFS"), "names are case-sensitive");
        assert_eq!(make_fairness("fcfs"), Some(FairnessPolicy::Fcfs));
    }

    #[test]
    fn workflow_streams_decorrelate_indices_and_roles() {
        let (d0, c0, s0) = workflow_streams(7, 0);
        let (d1, c1, s1) = workflow_streams(7, 1);
        assert!(d0 != d1 && c0 != c1 && s0 != s1, "indices share a stream");
        assert!(d0 != c0 && c0 != s0 && d0 != s0, "roles share a stream");
        assert_eq!(workflow_streams(7, 0), (d0, c0, s0), "streams are deterministic");
        assert_ne!(workflow_streams(8, 0).0, d0, "seeds share a stream");
    }

    #[test]
    fn drain_conserves_workflows_and_orders_events() {
        for fairness in FAIRNESS_NAMES {
            let cfg = small(make_fairness(fairness).expect("registered"));
            let r = run_service(&cfg);
            assert_eq!(r.admitted, 6, "{fairness}");
            assert_eq!(r.in_flight, 0, "{fairness}: drain leaves nothing in flight");
            assert_eq!(r.admitted, r.finished + r.failed, "{fairness}");
            for o in &r.outcomes {
                let start = o.first_start.expect("drained");
                let finish = o.finish.expect("drained");
                assert!(o.arrival <= start && start <= finish, "{fairness}: event order");
                assert!(o.slowdown().expect("completed") >= 1.0 - 1e-9, "{fairness}");
            }
            assert!(r.utilization > 0.0 && r.utilization <= 1.0, "{fairness}");
        }
    }

    #[test]
    fn service_is_deterministic_for_a_seed() {
        let cfg = small(FairnessPolicy::FairShare);
        let a = run_service(&cfg);
        let b = run_service(&cfg);
        assert_eq!(format!("{:?}", a.trace), format!("{:?}", b.trace));
        assert_eq!(a.utilization.to_bits(), b.utilization.to_bits());
    }

    #[test]
    fn horizon_leaves_work_in_flight_but_conserves() {
        // A tight horizon cuts the run mid-stream; whatever was admitted
        // must be exactly partitioned into finished/failed/in-flight.
        let cfg = ServiceConfig { horizon: Some(600.0), ..small(FairnessPolicy::Fcfs) };
        let r = run_service(&cfg);
        assert!(r.admitted <= 6);
        assert_eq!(r.admitted, r.finished + r.failed + r.in_flight);
        assert_eq!(r.end, 600.0);
    }

    #[test]
    fn single_tenant_single_arrival_has_unit_slowdown() {
        let cfg = ServiceConfig {
            tenants: 1,
            arrivals: ArrivalProcess::Trace(vec![0.0]),
            workflows: 1,
            workload: RandomDagParams { jobs: 10, ..RandomDagParams::paper_default() },
            ..ServiceConfig::default()
        };
        let r = run_service(&cfg);
        assert_eq!((r.admitted, r.finished, r.in_flight), (1, 1, 0));
        let o = &r.outcomes[0];
        assert_eq!(o.first_start, Some(0.0));
        assert_eq!(o.finish, Some(o.makespan));
        assert_eq!(o.slowdown(), Some(1.0));
        let report = o.report.as_ref().expect("completed outcome keeps its report");
        assert_eq!(report.makespan.to_bits(), o.makespan.to_bits());
    }

    #[test]
    fn priority_preempts_lower_tenants() {
        // Force contention: tenant order in the arrival stream is random,
        // so scan seeds for a run where a lower-id tenant arrives while
        // higher-id work holds the whole pool. With slice == capacity any
        // concurrent pair contends.
        let mut saw_preemption = false;
        for seed in 0..20 {
            let cfg = ServiceConfig {
                tenants: 3,
                arrivals: ArrivalProcess::Poisson { rate: 0.02 },
                workflows: 8,
                capacity: 2,
                slice: 2,
                fairness: FairnessPolicy::Priority,
                workload: RandomDagParams { jobs: 10, ..RandomDagParams::paper_default() },
                seed,
                ..ServiceConfig::default()
            };
            let r = run_service(&cfg);
            assert_eq!(r.admitted, r.finished + r.failed, "drain conserves under preemption");
            if r.preemptions > 0 {
                saw_preemption = true;
                assert!(
                    r.trace.iter().any(|e| matches!(e, ServiceEvent::Preempted { .. })),
                    "preemption count without trace record"
                );
                // A victim's slowdown reflects the discarded work: it was
                // started, preempted, and restarted from scratch.
                let victim = r.outcomes.iter().find(|o| o.preemptions > 0).expect("victim");
                assert!(victim.slowdown().expect("drained") > 1.0);
            }
        }
        assert!(saw_preemption, "no seed in 0..20 triggered a preemption");
    }

    #[test]
    fn fair_share_tracks_tenant_service() {
        let cfg = ServiceConfig {
            tenants: 2,
            arrivals: ArrivalProcess::Trace(vec![0.0; 8]),
            workflows: 8,
            capacity: 2,
            slice: 2,
            fairness: FairnessPolicy::FairShare,
            workload: RandomDagParams { jobs: 10, ..RandomDagParams::paper_default() },
            seed: 3,
            ..ServiceConfig::default()
        };
        let r = run_service(&cfg);
        assert_eq!(r.finished + r.failed, 8);
        // Both tenants got service (no starvation with a batch arrival).
        for t in &r.tenants {
            if t.admitted > 0 {
                assert!(t.completed > 0, "tenant {} starved", t.tenant);
                assert!(t.busy_time > 0.0, "tenant {} never held the pool", t.tenant);
            }
        }
    }

    #[test]
    fn trace_arrivals_shorter_than_workflows_truncate() {
        let cfg = ServiceConfig {
            arrivals: ArrivalProcess::Trace(vec![0.0, 5.0]),
            workflows: 10,
            ..small(FairnessPolicy::Fcfs)
        };
        let r = run_service(&cfg);
        assert_eq!(r.admitted, 2);
    }

    #[test]
    #[should_panic(expected = "unknown scheduling policy")]
    fn unknown_policy_panics_upfront() {
        let cfg = ServiceConfig { policy: "bogus".into(), ..ServiceConfig::default() };
        run_service(&cfg);
    }

    #[test]
    #[should_panic(expected = "slice")]
    fn oversized_slice_panics() {
        let cfg = ServiceConfig { capacity: 2, slice: 3, ..ServiceConfig::default() };
        run_service(&cfg);
    }
}
