//! Execution Manager state: job lifecycle, file ledger, and planner
//! snapshots.
//!
//! [`ExecState`] tracks each job through `Waiting → Running → Finished`
//! (with `Running → Waiting` aborts for the paper's reschedule-everything
//! semantics) and keeps the **file ledger**. A producer's output is
//! available on its own resource from its `AFT`; every cross-resource copy
//! is a *per-edge* transfer (edge `(m, i)` carries its own volume
//! `data_{m,i}`), recorded when the transfer is initiated — in-flight
//! arrivals are known because transfer durations are deterministic. This is
//! exactly the information the paper's Eq. 1 (`FEA`) cases distinguish.
//!
//! All of it is **dense, index-addressed state**: job lifecycle in a
//! `Vec<JobState>` indexed by [`JobId`], the transfer ledger in per-edge
//! destination lists indexed by [`aheft_workflow::EdgeId`]. `ExecState` is
//! the only store of that state. The planner reads it through
//! [`SnapshotView`], which borrows an `ExecState` at a rescheduling instant
//! (`clock` in the paper's notation) — no hash maps, no cloned ledgers,
//! nothing allocated per planner evaluation. [`Snapshot`] owns an
//! `ExecState` at a clock, for tests, what-if queries and benches that
//! fabricate mid-run states from scratch.

use aheft_workflow::{Dag, EdgeId, JobId, ResourceId};

/// Lifecycle state of one job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum JobState {
    /// Not yet started (possibly not yet ready).
    Waiting,
    /// Executing on `resource` since `ast`, expected to finish at
    /// `expected_finish`.
    Running {
        /// Resource the job is executing on.
        resource: ResourceId,
        /// Actual start time.
        ast: f64,
        /// Predicted finish time at dispatch.
        expected_finish: f64,
    },
    /// Finished on `resource`; `ast`/`aft` are the actual start/finish times
    /// of the paper's Table 1.
    Finished {
        /// Resource the job ran on.
        resource: ResourceId,
        /// Actual start time.
        ast: f64,
        /// Actual finish time.
        aft: f64,
    },
}

/// Committed transfers of one edge's data: `(destination, arrival)` pairs.
/// Almost every edge has zero or one destination, so a short unsorted list
/// beats a hash table on both lookup cost and memory.
type EdgeTransfers = Vec<(ResourceId, f64)>;

/// Execution state of one workflow run: job lifecycle and the transfer
/// ledger. Jobs beyond the job vector read as `Waiting`, so a fabricated
/// state grows on demand.
#[derive(Debug, Clone, Default)]
pub struct ExecState {
    states: Vec<JobState>,
    /// `transfers[e]` — committed/in-flight arrivals of edge `e`'s data,
    /// indexed by edge.
    transfers: Vec<EdgeTransfers>,
    finished: usize,
}

impl ExecState {
    /// Fresh state for a DAG of `jobs` jobs; the transfer ledger grows on
    /// demand as edges are first transferred.
    pub fn new(jobs: usize) -> Self {
        Self { states: vec![JobState::Waiting; jobs], transfers: Vec::new(), finished: 0 }
    }

    /// Fresh state with the transfer ledger pre-sized for `edges` edges so
    /// mid-run recording never reallocates the outer index.
    pub fn with_edges(jobs: usize, edges: usize) -> Self {
        Self {
            states: vec![JobState::Waiting; jobs],
            transfers: vec![Vec::new(); edges],
            finished: 0,
        }
    }

    /// Current state of `job` (`Waiting` when never recorded).
    #[inline]
    pub fn state(&self, job: JobId) -> JobState {
        self.states.get(job.idx()).copied().unwrap_or(JobState::Waiting)
    }

    /// Dense job-state slice; jobs at or beyond its length are `Waiting`.
    #[inline]
    pub fn job_states(&self) -> &[JobState] {
        &self.states
    }

    /// True if `job` has finished.
    #[inline]
    pub fn is_finished(&self, job: JobId) -> bool {
        matches!(self.state(job), JobState::Finished { .. })
    }

    /// True if `job` is waiting (not started or aborted).
    #[inline]
    pub fn is_waiting(&self, job: JobId) -> bool {
        matches!(self.state(job), JobState::Waiting)
    }

    /// True if `job` is currently running.
    #[inline]
    pub fn is_running(&self, job: JobId) -> bool {
        matches!(self.state(job), JobState::Running { .. })
    }

    /// Resource and actual finish time of a finished job.
    #[inline]
    pub fn finished_on(&self, job: JobId) -> Option<(ResourceId, f64)> {
        match self.state(job) {
            JobState::Finished { resource, aft, .. } => Some((resource, aft)),
            _ => None,
        }
    }

    /// Number of finished jobs.
    #[inline]
    pub fn finished_count(&self) -> usize {
        self.finished
    }

    /// True when every job has finished.
    #[inline]
    pub fn all_finished(&self) -> bool {
        self.finished == self.states.len()
    }

    /// Actual finish time of the whole workflow so far (max `AFT`).
    pub fn makespan(&self) -> f64 {
        self.states
            .iter()
            .map(|s| match s {
                JobState::Finished { aft, .. } => *aft,
                _ => 0.0,
            })
            .fold(0.0, f64::max)
    }

    /// Set `job`'s state, growing the job vector on demand and keeping
    /// [`ExecState::finished_count`] exact.
    fn put(&mut self, job: JobId, state: JobState) {
        if job.idx() >= self.states.len() {
            self.states.resize(job.idx() + 1, JobState::Waiting);
        }
        let slot = &mut self.states[job.idx()];
        let was = matches!(*slot, JobState::Finished { .. });
        let now = matches!(state, JobState::Finished { .. });
        *slot = state;
        self.finished = self.finished + usize::from(now) - usize::from(was);
    }

    /// Mark `job` started on `resource` at `now` with `duration`.
    ///
    /// # Panics
    /// Panics if the job is not `Waiting`.
    pub fn start(&mut self, job: JobId, resource: ResourceId, now: f64, duration: f64) -> f64 {
        assert!(self.is_waiting(job), "{job} started while in state {:?}", self.state(job));
        let expected_finish = now + duration;
        self.put(job, JobState::Running { resource, ast: now, expected_finish });
        expected_finish
    }

    /// Mark `job` finished at `now`. Its output is implicitly available on
    /// its own resource from `now`.
    ///
    /// # Panics
    /// Panics if the job is not `Running`.
    pub fn finish(&mut self, job: JobId, now: f64) -> ResourceId {
        let JobState::Running { resource, ast, .. } = self.state(job) else {
            panic!("{job} finished while in state {:?}", self.state(job));
        };
        self.put(job, JobState::Finished { resource, ast, aft: now });
        resource
    }

    /// Abort a running job (AHEFT reschedule-everything semantics): progress
    /// is lost, the job returns to `Waiting`. Returns the resource it was
    /// running on, or `None` if it was not running.
    pub fn abort(&mut self, job: JobId) -> Option<ResourceId> {
        if let JobState::Running { resource, .. } = self.state(job) {
            self.put(job, JobState::Waiting);
            Some(resource)
        } else {
            None
        }
    }

    /// Mark `job` finished on `resource` at `aft`, whatever its state
    /// (fabricating a mid-run state for tests, what-if queries and benches).
    pub fn set_finished(&mut self, job: JobId, resource: ResourceId, aft: f64) {
        self.put(job, JobState::Finished { resource, ast: aft, aft });
    }

    /// Mark `job` running on `resource` since `ast`, expected to finish at
    /// `expected_finish`, whatever its state (fabrication, as
    /// [`ExecState::set_finished`]).
    pub fn set_running(
        &mut self,
        job: JobId,
        resource: ResourceId,
        ast: f64,
        expected_finish: f64,
    ) {
        self.put(job, JobState::Running { resource, ast, expected_finish });
    }

    /// Record that edge `e`'s data will be available on `resource` at
    /// `arrival`. An earlier existing entry wins (a duplicate transfer
    /// cannot make the data *later*).
    pub fn record_transfer(&mut self, e: EdgeId, resource: ResourceId, arrival: f64) {
        if e.idx() >= self.transfers.len() {
            self.transfers.resize_with(e.idx() + 1, Vec::new);
        }
        let dests = &mut self.transfers[e.idx()];
        match dests.iter_mut().find(|(r, _)| *r == resource) {
            Some((_, t)) => *t = t.min(arrival),
            None => dests.push((resource, arrival)),
        }
    }

    /// Committed arrival of edge `e`'s data on `resource` (completed or in
    /// flight), if any.
    #[inline]
    pub fn transfer_to(&self, e: EdgeId, resource: ResourceId) -> Option<f64> {
        self.transfers_of(e).iter().find(|&&(r, _)| r == resource).map(|&(_, t)| t)
    }

    /// All committed `(destination, arrival)` transfers of edge `e`, at
    /// most one entry per destination ([`ExecState::record_transfer`]
    /// dedupes). Lets the scheduler walk an edge's ledger once instead of
    /// probing [`ExecState::transfer_to`] per resource.
    #[inline]
    pub fn transfers_of(&self, e: EdgeId) -> &[(ResourceId, f64)] {
        self.transfers.get(e.idx()).map_or(&[], |v| v.as_slice())
    }

    /// Earliest availability on `resource` of the data carried by edge `e`
    /// from `producer`: the producer's own `AFT` when it finished there,
    /// else the committed transfer arrival (possibly in the future), else
    /// `None`.
    pub fn edge_data_available(
        &self,
        producer: JobId,
        e: EdgeId,
        resource: ResourceId,
    ) -> Option<f64> {
        match self.finished_on(producer) {
            Some((home, aft)) if home == resource => Some(aft),
            _ => self.transfer_to(e, resource),
        }
    }

    /// True if every predecessor of `job` has finished and its edge data is
    /// on `resource` by `now`.
    pub fn inputs_ready_on(&self, dag: &Dag, job: JobId, resource: ResourceId, now: f64) -> bool {
        dag.preds(job).iter().all(|&(p, e)| {
            self.is_finished(p)
                && self.edge_data_available(p, e, resource).is_some_and(|t| t <= now + 1e-9)
        })
    }

    /// Borrow the state as a planner view at rescheduling instant `clock` —
    /// the zero-copy, zero-allocation path the adaptive planner evaluates
    /// on. It reports no availability floors: every resource is free for
    /// new work from `clock`.
    pub fn view(&self, clock: f64) -> SnapshotView<'_> {
        SnapshotView { clock, state: self, resource_avail: &[] }
    }
}

/// An owned [`ExecState`] at a rescheduling instant, for call sites that
/// fabricate mid-run states (tests, what-if queries, benches).
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// The rescheduling instant (`clock`).
    pub clock: f64,
    /// Job lifecycle and transfer ledger.
    pub state: ExecState,
    /// Reported earliest availability of each resource, indexed by
    /// resource id. The pass starts no job on resource `r` before
    /// `max(resource_avail[r], clock)`; a resource with no entry is free
    /// from `clock`.
    pub resource_avail: Vec<f64>,
}

impl Snapshot {
    /// The initial-scheduling snapshot: clock 0, nothing executed, every
    /// resource free from the clock. `_resources` is not read.
    pub fn initial(_resources: usize) -> Self {
        Self::default()
    }

    /// True if `job` already finished.
    pub fn is_finished(&self, job: JobId) -> bool {
        self.state.is_finished(job)
    }

    /// Mark `job` finished on `resource` at `aft` (test/bench fabrication).
    pub fn set_finished(&mut self, job: JobId, resource: ResourceId, aft: f64) {
        self.state.set_finished(job, resource, aft);
    }

    /// Mark `job` running on `resource` since `ast`, expected to finish at
    /// `expected_finish` (test/bench fabrication).
    pub fn set_running(
        &mut self,
        job: JobId,
        resource: ResourceId,
        ast: f64,
        expected_finish: f64,
    ) {
        self.state.set_running(job, resource, ast, expected_finish);
    }

    /// Record a committed transfer of edge `e`'s data towards `resource`,
    /// arriving at `arrival`. An earlier existing entry wins, as in
    /// [`ExecState::record_transfer`].
    pub fn add_transfer(&mut self, e: EdgeId, resource: ResourceId, arrival: f64) {
        self.state.record_transfer(e, resource, arrival);
    }

    /// Borrow this snapshot as a planner view.
    pub fn view(&self) -> SnapshotView<'_> {
        SnapshotView { clock: self.clock, state: &self.state, resource_avail: &self.resource_avail }
    }
}

/// Borrowed planner view of the execution state at a rescheduling instant
/// — everything the AHEFT equations (paper Eqs. 1–3) read, with no
/// per-evaluation copying.
#[derive(Debug, Clone, Copy)]
pub struct SnapshotView<'a> {
    /// The rescheduling instant (`clock`).
    pub clock: f64,
    /// Job lifecycle and transfer ledger.
    pub state: &'a ExecState,
    /// Reported earliest availability of each resource (see
    /// [`Snapshot::resource_avail`]).
    pub resource_avail: &'a [f64],
}

#[cfg(test)]
mod tests {
    use super::*;
    use aheft_workflow::DagBuilder;

    fn pair_dag() -> Dag {
        let mut b = DagBuilder::new();
        let a = b.add_job("a");
        let c = b.add_job("b");
        b.add_edge(a, c, 4.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn lifecycle_start_finish() {
        let mut s = ExecState::new(2);
        let ft = s.start(JobId(0), ResourceId(1), 0.0, 10.0);
        assert_eq!(ft, 10.0);
        assert!(matches!(s.state(JobId(0)), JobState::Running { .. }));
        let r = s.finish(JobId(0), 10.0);
        assert_eq!(r, ResourceId(1));
        assert!(s.is_finished(JobId(0)));
        assert_eq!(s.finished_count(), 1);
        assert!(!s.all_finished());
        assert_eq!(s.finished_on(JobId(0)), Some((ResourceId(1), 10.0)));
        // Output is on its own resource at finish time.
        assert_eq!(s.edge_data_available(JobId(0), EdgeId(0), ResourceId(1)), Some(10.0));
        assert_eq!(s.makespan(), 10.0);
    }

    #[test]
    fn abort_returns_to_waiting() {
        let mut s = ExecState::new(1);
        s.start(JobId(0), ResourceId(0), 5.0, 10.0);
        assert_eq!(s.abort(JobId(0)), Some(ResourceId(0)));
        assert!(s.is_waiting(JobId(0)));
        assert_eq!(s.abort(JobId(0)), None);
    }

    #[test]
    #[should_panic(expected = "started while in state")]
    fn double_start_panics() {
        let mut s = ExecState::new(1);
        s.start(JobId(0), ResourceId(0), 0.0, 1.0);
        s.start(JobId(0), ResourceId(0), 0.5, 1.0);
    }

    #[test]
    fn record_transfer_keeps_earliest() {
        let mut s = ExecState::new(1);
        s.record_transfer(EdgeId(0), ResourceId(2), 20.0);
        s.record_transfer(EdgeId(0), ResourceId(2), 15.0);
        s.record_transfer(EdgeId(0), ResourceId(2), 30.0);
        assert_eq!(s.transfer_to(EdgeId(0), ResourceId(2)), Some(15.0));
        assert_eq!(s.transfers_of(EdgeId(0)), &[(ResourceId(2), 15.0)]);
        assert_eq!(s.transfer_to(EdgeId(0), ResourceId(3)), None);
        assert_eq!(s.transfer_to(EdgeId(9), ResourceId(2)), None);
    }

    #[test]
    fn with_edges_presizes_ledger() {
        let mut s = ExecState::with_edges(2, 3);
        s.record_transfer(EdgeId(2), ResourceId(0), 5.0);
        assert_eq!(s.transfer_to(EdgeId(2), ResourceId(0)), Some(5.0));
        assert_eq!(s.transfer_to(EdgeId(1), ResourceId(0)), None);
    }

    #[test]
    fn inputs_ready_requires_edge_data_on_target() {
        let dag = pair_dag();
        let mut s = ExecState::new(2);
        s.start(JobId(0), ResourceId(0), 0.0, 10.0);
        s.finish(JobId(0), 10.0);
        // On the producing resource: ready at 10.
        assert!(s.inputs_ready_on(&dag, JobId(1), ResourceId(0), 10.0));
        // On another resource: not until a transfer is recorded.
        assert!(!s.inputs_ready_on(&dag, JobId(1), ResourceId(1), 10.0));
        s.record_transfer(EdgeId(0), ResourceId(1), 14.0);
        assert!(!s.inputs_ready_on(&dag, JobId(1), ResourceId(1), 12.0));
        assert!(s.inputs_ready_on(&dag, JobId(1), ResourceId(1), 14.0));
    }

    #[test]
    fn unfinished_pred_blocks_readiness() {
        let dag = pair_dag();
        let mut s = ExecState::new(2);
        s.start(JobId(0), ResourceId(0), 0.0, 10.0);
        assert!(!s.inputs_ready_on(&dag, JobId(1), ResourceId(0), 20.0));
    }

    #[test]
    fn view_partitions_job_states() {
        let mut s = ExecState::new(3);
        s.start(JobId(0), ResourceId(0), 0.0, 5.0);
        s.finish(JobId(0), 5.0);
        s.start(JobId(1), ResourceId(1), 5.0, 10.0);
        let view = s.view(8.0);
        assert_eq!(view.clock, 8.0);
        assert!(view.resource_avail.is_empty(), "the live view reports no floors");
        assert_eq!(view.state.finished_on(JobId(0)), Some((ResourceId(0), 5.0)));
        assert!(matches!(
            view.state.state(JobId(1)),
            JobState::Running { resource: ResourceId(1), ast, expected_finish }
                if ast == 5.0 && expected_finish == 15.0
        ));
        assert!(!view.state.is_finished(JobId(2)));
        assert!(view.state.is_finished(JobId(0)));
        // Edge data availability flows through the view.
        assert_eq!(view.state.edge_data_available(JobId(0), EdgeId(0), ResourceId(0)), Some(5.0));
        assert_eq!(view.state.edge_data_available(JobId(0), EdgeId(0), ResourceId(1)), None);
    }

    #[test]
    fn owned_snapshot_matches_view_semantics() {
        // The lifecycle writers (start/finish) and the fabrication writers
        // (set_finished) of the one store read back alike.
        let mut s = ExecState::new(3);
        s.start(JobId(0), ResourceId(0), 0.0, 5.0);
        s.finish(JobId(0), 5.0);
        s.record_transfer(EdgeId(0), ResourceId(1), 9.0);
        let live = s.view(8.0);
        let mut snap = Snapshot::initial(2);
        snap.clock = 8.0;
        snap.set_finished(JobId(0), ResourceId(0), 5.0);
        snap.add_transfer(EdgeId(0), ResourceId(1), 9.0);
        let owned = snap.view();
        assert_eq!(owned.clock, live.clock);
        assert!(snap.is_finished(JobId(0)));
        for r in [ResourceId(0), ResourceId(1)] {
            assert_eq!(
                owned.state.edge_data_available(JobId(0), EdgeId(0), r),
                live.state.edge_data_available(JobId(0), EdgeId(0), r)
            );
        }
        assert_eq!(owned.state.finished_on(JobId(0)), live.state.finished_on(JobId(0)));
        assert_eq!(owned.state.transfers_of(EdgeId(0)), live.state.transfers_of(EdgeId(0)));
        assert_eq!(owned.state.finished_count(), live.state.finished_count());
    }

    #[test]
    fn fabrication_keeps_finished_count_exact() {
        let mut s = ExecState::default();
        s.set_finished(JobId(3), ResourceId(0), 10.0);
        s.set_finished(JobId(1), ResourceId(1), 12.0);
        assert_eq!(s.finished_count(), 2);
        // Re-finishing a finished job does not count it twice.
        s.set_finished(JobId(3), ResourceId(1), 11.0);
        assert_eq!(s.finished_count(), 2);
        assert_eq!(s.finished_on(JobId(3)), Some((ResourceId(1), 11.0)));
        // Running again un-finishes it; running a waiting job counts nothing.
        s.set_running(JobId(3), ResourceId(0), 12.0, 20.0);
        s.set_running(JobId(7), ResourceId(0), 12.0, 20.0);
        assert_eq!(s.finished_count(), 1);
        // The lifecycle writers agree with the fabricated states.
        s.finish(JobId(3), 20.0);
        assert_eq!(s.finished_count(), 2);
        assert_eq!(s.abort(JobId(7)), Some(ResourceId(0)));
        assert_eq!(s.finished_count(), 2);
        let counted = s.job_states().iter().filter(|st| matches!(st, JobState::Finished { .. }));
        assert_eq!(counted.count(), s.finished_count());
    }

    #[test]
    fn fabricated_snapshot_grows_on_demand() {
        let mut snap = Snapshot::initial(2);
        snap.clock = 30.0;
        snap.set_finished(JobId(4), ResourceId(1), 25.0);
        snap.set_running(JobId(2), ResourceId(0), 20.0, 40.0);
        snap.add_transfer(EdgeId(3), ResourceId(0), 33.0);
        assert!(snap.is_finished(JobId(4)));
        assert!(!snap.is_finished(JobId(0)));
        assert!(!snap.is_finished(JobId(9)));
        assert_eq!(snap.state.transfer_to(EdgeId(3), ResourceId(0)), Some(33.0));
        assert_eq!(snap.state.transfer_to(EdgeId(0), ResourceId(0)), None);
        assert!(matches!(snap.state.state(JobId(2)), JobState::Running { .. }));
        // Duplicate recordings keep the earliest arrival (ExecState parity).
        snap.add_transfer(EdgeId(3), ResourceId(0), 40.0);
        assert_eq!(snap.state.transfer_to(EdgeId(3), ResourceId(0)), Some(33.0));
        snap.add_transfer(EdgeId(3), ResourceId(0), 20.0);
        assert_eq!(snap.state.transfer_to(EdgeId(3), ResourceId(0)), Some(20.0));
    }

    #[test]
    fn initial_snapshot_is_empty() {
        let snap = Snapshot::initial(4);
        assert_eq!(snap.clock, 0.0);
        assert!(!snap.is_finished(JobId(0)));
        assert_eq!(snap.state.finished_count(), 0);
        // No floors: every resource is free from the clock.
        assert!(snap.resource_avail.is_empty());
    }
}
