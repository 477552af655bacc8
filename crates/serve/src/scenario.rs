//! Versioned, copy-on-write scenario state shared by every worker.
//!
//! A [`Scenario`] is an immutable value: the workflow [`Dag`], the
//! [`CostTable`], the execution [`Snapshot`] and the alive pool, each
//! behind an [`Arc`]. Applying a [`Delta`] builds the *next* version by
//! cloning only the pieces that change and sharing the rest — readers
//! holding the previous `Arc<Scenario>` are never stalled or mutated
//! under.

use std::fmt;
use std::sync::{Arc, RwLock};

use aheft_gridsim::executor::Snapshot;
use aheft_workflow::generators::random::{generate, RandomDagParams};
use aheft_workflow::{CostTable, Dag, JobId, ResourceId, WorkflowError};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One immutable scenario version.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Monotonic version counter; bumped by every applied [`Delta`].
    pub version: u64,
    /// The workflow DAG (shared across every version — deltas never edit
    /// the graph).
    pub dag: Arc<Dag>,
    /// Estimated cost table; cloned copy-on-write when a resource joins.
    pub costs: Arc<CostTable>,
    /// Execution state; cloned copy-on-write by job/clock deltas. It
    /// reports no availability floors: every resource, joined ones too, is
    /// free for new work from the clock.
    pub snapshot: Arc<Snapshot>,
    /// The alive pool; cloned copy-on-write when membership changes.
    pub alive: Arc<Vec<ResourceId>>,
}

/// Deterministic parameters the daemon builds its initial scenario from.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioParams {
    /// DAG size `v` (paper generator, default shape parameters).
    pub jobs: usize,
    /// Pool size `R`.
    pub resources: usize,
    /// Seed for the DAG/cost sampling.
    pub seed: u64,
    /// Fraction of the DAG fabricated as already finished (round-robin
    /// across the pool, one committed transfer per finished out-edge) —
    /// the planner's realistic mid-run shape.
    pub finished: f64,
}

impl Default for ScenarioParams {
    fn default() -> Self {
        Self { jobs: 1000, resources: 100, seed: 42, finished: 0.5 }
    }
}

impl ScenarioParams {
    /// Build version 0 of the scenario. Pure function of the parameters:
    /// the same params always produce bit-identical state.
    pub fn build(&self) -> Scenario {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let p = RandomDagParams { jobs: self.jobs, ..RandomDagParams::paper_default() };
        let wf = generate(&p, &mut rng);
        let costs = wf.sample_table(self.resources, &mut rng);
        let mut snap = Snapshot::initial(self.resources);
        snap.clock = 500.0;
        let done = ((self.jobs as f64) * self.finished.clamp(0.0, 1.0)) as usize;
        let order = wf.dag.topo_order().to_vec();
        for (k, &j) in order.iter().take(done).enumerate() {
            snap.set_finished(j, ResourceId::from(k % self.resources), 400.0);
            for &(_, e) in wf.dag.succs(j) {
                snap.add_transfer(e, ResourceId::from((k + 1) % self.resources), 450.0);
            }
        }
        let alive = (0..self.resources).map(ResourceId::from).collect();
        Scenario {
            version: 0,
            dag: Arc::new(wf.dag),
            costs: Arc::new(costs),
            snapshot: Arc::new(snap),
            alive: Arc::new(alive),
        }
    }
}

/// An execution-state change published through [`ScenarioStore::apply`].
#[derive(Debug, Clone)]
pub enum Delta {
    /// `job` finished on `resource` at `time`; its output transfers are
    /// committed to every successor edge at `time` and the resource is
    /// free from `time`. The job must not have finished already, and all
    /// of its predecessors must have.
    JobFinished {
        /// The finished job.
        job: JobId,
        /// Where it ran.
        resource: ResourceId,
        /// Actual finish time (also advances the clock monotonically);
        /// must be finite.
        time: f64,
    },
    /// A new resource joins with the given estimated cost column, free
    /// from the current clock.
    ResourceJoined {
        /// `column[i]` = estimated cost of job `i` on the new resource.
        column: Vec<f64>,
    },
    /// `resource` leaves the alive pool (its cost column stays in the
    /// table; history never shrinks).
    ResourceLeft {
        /// The departing resource.
        resource: ResourceId,
    },
    /// Advance the rescheduling clock (monotonic; a smaller value is a
    /// no-op on the clock). The value must be finite.
    AdvanceClock {
        /// New clock value.
        clock: f64,
    },
}

/// A rejected delta; the scenario is left unchanged.
#[derive(Debug, Clone, PartialEq)]
pub enum DeltaError {
    /// The job id is outside the DAG.
    UnknownJob(JobId),
    /// The resource is not in the alive pool.
    UnknownResource(ResourceId),
    /// The joining resource's cost column was rejected.
    BadColumn(WorkflowError),
    /// The removal would empty the pool.
    EmptyPool,
    /// A `time` or `clock` value is NaN or infinite.
    NonFiniteTime(f64),
    /// The job already finished.
    AlreadyFinished(JobId),
    /// The job has a predecessor that has not finished. Accepting it would
    /// break the predecessor-closed finished set the planner relies on.
    UnfinishedPredecessor {
        /// The job the delta tried to finish.
        job: JobId,
        /// Its first unfinished predecessor.
        pred: JobId,
    },
}

impl fmt::Display for DeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeltaError::UnknownJob(j) => write!(f, "unknown job {j}"),
            DeltaError::UnknownResource(r) => write!(f, "{r} is not in the alive pool"),
            DeltaError::BadColumn(e) => write!(f, "bad cost column: {e}"),
            DeltaError::EmptyPool => write!(f, "delta would empty the pool"),
            DeltaError::NonFiniteTime(t) => write!(f, "time {t} is not finite"),
            DeltaError::AlreadyFinished(j) => write!(f, "{j} already finished"),
            DeltaError::UnfinishedPredecessor { job, pred } => {
                write!(f, "{job} cannot finish before its predecessor {pred}")
            }
        }
    }
}

impl std::error::Error for DeltaError {}

impl Scenario {
    /// Build the next version with `delta` applied, copy-on-write: only
    /// the changed components are cloned, the rest share their `Arc`s
    /// with `self`.
    pub fn apply(&self, delta: &Delta) -> Result<Scenario, DeltaError> {
        let mut next = self.clone();
        next.version = self.version + 1;
        match delta {
            Delta::JobFinished { job, resource, time } => {
                if job.idx() >= self.dag.job_count() {
                    return Err(DeltaError::UnknownJob(*job));
                }
                if !self.alive.contains(resource) {
                    return Err(DeltaError::UnknownResource(*resource));
                }
                if !time.is_finite() {
                    return Err(DeltaError::NonFiniteTime(*time));
                }
                if self.snapshot.is_finished(*job) {
                    return Err(DeltaError::AlreadyFinished(*job));
                }
                let unfinished =
                    self.dag.preds(*job).iter().find(|&&(p, _)| !self.snapshot.is_finished(p));
                if let Some(&(pred, _)) = unfinished {
                    return Err(DeltaError::UnfinishedPredecessor { job: *job, pred });
                }
                let mut snap = (*self.snapshot).clone();
                snap.set_finished(*job, *resource, *time);
                for &(_, e) in self.dag.succs(*job) {
                    snap.add_transfer(e, *resource, *time);
                }
                snap.clock = snap.clock.max(*time);
                next.snapshot = Arc::new(snap);
            }
            Delta::ResourceJoined { column } => {
                let mut costs = (*self.costs).clone();
                let id = costs.add_resource(column).map_err(DeltaError::BadColumn)?;
                let mut alive = (*self.alive).clone();
                alive.push(id);
                next.costs = Arc::new(costs);
                next.alive = Arc::new(alive);
            }
            Delta::ResourceLeft { resource } => {
                if !self.alive.contains(resource) {
                    return Err(DeltaError::UnknownResource(*resource));
                }
                let alive: Vec<ResourceId> =
                    self.alive.iter().copied().filter(|r| r != resource).collect();
                if alive.is_empty() {
                    return Err(DeltaError::EmptyPool);
                }
                next.alive = Arc::new(alive);
            }
            Delta::AdvanceClock { clock } => {
                if !clock.is_finite() {
                    return Err(DeltaError::NonFiniteTime(*clock));
                }
                let mut snap = (*self.snapshot).clone();
                snap.clock = snap.clock.max(*clock);
                next.snapshot = Arc::new(snap);
            }
        }
        Ok(next)
    }
}

/// The daemon's single source of truth: the current [`Scenario`] behind a
/// [`RwLock`]ed [`Arc`]. Readers [`load`](Self::load) an `Arc` clone and
/// evaluate against it lock-free; [`apply`](Self::apply) swaps in the
/// next version without waiting for those readers to finish.
#[derive(Debug)]
pub struct ScenarioStore {
    current: RwLock<Arc<Scenario>>,
}

impl ScenarioStore {
    /// Wrap `scenario` as the current version.
    pub fn new(scenario: Scenario) -> Self {
        Self { current: RwLock::new(Arc::new(scenario)) }
    }

    /// The current scenario (an `Arc` clone; never blocks on writers for
    /// longer than the pointer swap).
    pub fn load(&self) -> Arc<Scenario> {
        Arc::clone(&self.current.read().expect("scenario lock poisoned"))
    }

    /// Apply `delta` to the current version and publish the result.
    /// Returns the new version number.
    pub fn apply(&self, delta: &Delta) -> Result<u64, DeltaError> {
        let mut slot = self.current.write().expect("scenario lock poisoned");
        let next = slot.apply(delta)?;
        let version = next.version;
        *slot = Arc::new(next);
        Ok(version)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scenario {
        ScenarioParams { jobs: 30, resources: 4, seed: 7, finished: 0.5 }.build()
    }

    #[test]
    fn build_is_deterministic() {
        let a = tiny();
        let b = tiny();
        assert_eq!(a.dag.job_count(), b.dag.job_count());
        assert_ne!(a.costs.state_id(), b.costs.state_id(), "state ids are process-unique");
        for j in 0..a.dag.job_count() {
            assert_eq!(a.costs.row(JobId::from(j)), b.costs.row(JobId::from(j)));
        }
        assert_eq!(a.snapshot.clock, b.snapshot.clock);
    }

    #[test]
    fn deltas_are_copy_on_write() {
        let store = ScenarioStore::new(tiny());
        let v0 = store.load();
        let v1 =
            store.apply(&Delta::ResourceJoined { column: vec![10.0; v0.dag.job_count()] }).unwrap();
        assert_eq!(v1, 1);
        let now = store.load();
        // The old reader still sees version 0, untouched.
        assert_eq!(v0.version, 0);
        assert_eq!(v0.costs.resource_count(), 4);
        assert_eq!(now.costs.resource_count(), 5);
        assert_eq!(now.alive.len(), 5);
        // The DAG is shared, not copied.
        assert!(Arc::ptr_eq(&v0.dag, &now.dag));
    }

    #[test]
    fn each_delta_clones_only_what_it_changes() {
        let v0 = tiny();
        let (ready, _) = ready_and_blocked(&v0);
        let shares = |a: &Scenario, b: &Scenario| {
            [
                Arc::ptr_eq(&a.dag, &b.dag),
                Arc::ptr_eq(&a.costs, &b.costs),
                Arc::ptr_eq(&a.snapshot, &b.snapshot),
                Arc::ptr_eq(&a.alive, &b.alive),
            ]
        };
        // [dag, costs, snapshot, alive]: a join shares the snapshot, since
        // the joined resource is free from the clock like every other.
        let column = vec![10.0; v0.dag.job_count()];
        let joined = v0.apply(&Delta::ResourceJoined { column }).unwrap();
        assert_eq!(shares(&v0, &joined), [true, false, true, false]);
        let finish = Delta::JobFinished { job: ready, resource: ResourceId(1), time: 600.0 };
        let finished = joined.apply(&finish).unwrap();
        assert_eq!(shares(&joined, &finished), [true, true, false, true]);
        let left = finished.apply(&Delta::ResourceLeft { resource: ResourceId(0) }).unwrap();
        assert_eq!(shares(&finished, &left), [true, true, true, false]);
        let later = left.apply(&Delta::AdvanceClock { clock: 700.0 }).unwrap();
        assert_eq!(shares(&left, &later), [true, true, false, true]);
        assert_eq!(later.version, 4);
    }

    #[test]
    fn bad_deltas_leave_the_store_untouched() {
        let store = ScenarioStore::new(tiny());
        let err = store.apply(&Delta::ResourceLeft { resource: ResourceId(9) }).unwrap_err();
        assert_eq!(err, DeltaError::UnknownResource(ResourceId(9)));
        let err = store.apply(&Delta::JobFinished {
            job: JobId(999),
            resource: ResourceId(0),
            time: 1.0,
        });
        assert!(matches!(err, Err(DeltaError::UnknownJob(_))));
        let err = store.apply(&Delta::ResourceJoined { column: vec![1.0] }).unwrap_err();
        assert!(matches!(err, DeltaError::BadColumn(_)));
        assert_eq!(store.load().version, 0);
    }

    #[test]
    fn removing_the_whole_pool_is_rejected() {
        let store = ScenarioStore::new(tiny());
        for r in 0..3 {
            store.apply(&Delta::ResourceLeft { resource: ResourceId(r) }).unwrap();
        }
        let err = store.apply(&Delta::ResourceLeft { resource: ResourceId(3) }).unwrap_err();
        assert_eq!(err, DeltaError::EmptyPool);
        assert_eq!(store.load().alive.len(), 1);
    }

    #[test]
    fn job_finish_commits_transfers_and_frees_the_resource() {
        let scen = tiny();
        // Find a not-yet-finished job.
        let job = (0..scen.dag.job_count())
            .map(JobId::from)
            .find(|&j| !scen.snapshot.is_finished(j))
            .expect("half the DAG is unfinished");
        let next =
            scen.apply(&Delta::JobFinished { job, resource: ResourceId(1), time: 600.0 }).unwrap();
        assert!(next.snapshot.is_finished(job));
        assert_eq!(next.snapshot.clock, 600.0);
        for &(_, e) in scen.dag.succs(job) {
            assert_eq!(next.snapshot.state.transfer_to(e, ResourceId(1)), Some(600.0));
        }
        // No floor is reported: the resource is free from the clock.
        assert!(next.snapshot.resource_avail.is_empty());
        assert_eq!(next.version, 1);
    }

    /// The first unfinished job (in topological order) whose predecessors
    /// have all finished, and the first with an unfinished predecessor.
    fn ready_and_blocked(scen: &Scenario) -> (JobId, JobId) {
        let finished = |j: JobId| scen.snapshot.is_finished(j);
        let inputs_done = |j: JobId| scen.dag.preds(j).iter().all(|&(p, _)| finished(p));
        let topo = scen.dag.topo_order();
        let ready = topo.iter().copied().find(|&j| !finished(j) && inputs_done(j));
        let blocked = topo.iter().copied().find(|&j| !inputs_done(j));
        (ready.expect("a ready job"), blocked.expect("a blocked job"))
    }

    #[test]
    fn non_finite_times_are_rejected() {
        let store = ScenarioStore::new(tiny());
        let (ready, _) = ready_and_blocked(&store.load());
        for t in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            let err = store.apply(&Delta::AdvanceClock { clock: t }).unwrap_err();
            assert!(matches!(err, DeltaError::NonFiniteTime(_)), "{err}");
            let finish = Delta::JobFinished { job: ready, resource: ResourceId(0), time: t };
            let err = store.apply(&finish).unwrap_err();
            assert!(matches!(err, DeltaError::NonFiniteTime(_)), "{err}");
        }
        let now = store.load();
        assert_eq!(now.version, 0);
        assert_eq!(now.snapshot.clock, 500.0);
        assert!(!now.snapshot.is_finished(ready));
    }

    #[test]
    fn finishing_out_of_order_or_twice_is_rejected() {
        let store = ScenarioStore::new(tiny());
        let scen = store.load();
        let (ready, blocked) = ready_and_blocked(&scen);
        let finish = |job| Delta::JobFinished { job, resource: ResourceId(1), time: 600.0 };
        let err = store.apply(&finish(blocked)).unwrap_err();
        assert!(
            matches!(err, DeltaError::UnfinishedPredecessor { job, pred }
                if job == blocked && !scen.snapshot.is_finished(pred)),
            "{err}"
        );
        // The first job of the fabricated finished prefix.
        let done = scen.dag.topo_order()[0];
        assert_eq!(store.apply(&finish(done)), Err(DeltaError::AlreadyFinished(done)));
        assert_eq!(store.load().version, 0);
        // A job whose inputs are all done finishes once, not twice.
        assert_eq!(store.apply(&finish(ready)), Ok(1));
        assert_eq!(store.apply(&finish(ready)), Err(DeltaError::AlreadyFinished(ready)));
        assert_eq!(store.load().version, 1);
    }
}
