//! Executable plans (schedules) exchanged between Planner and Executor.
//!
//! A [`Plan`] maps every (remaining) job to a resource with a reserved
//! `[start, finish)` window — the output of HEFT/AHEFT in `aheft-core` and
//! the input of the Execution Manager. The plan also exposes per-resource
//! execution queues (assignments in start order), which is what the advance
//! reservations in the paper's Resource Manager hold.

use aheft_workflow::{Dag, JobId, ResourceId};

/// Sentinel in [`Plan`]'s dense job lookup: job not scheduled by this plan.
const UNASSIGNED: u32 = u32::MAX;

/// One job's placement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Assignment {
    /// The placed job.
    pub job: JobId,
    /// Target resource.
    pub resource: ResourceId,
    /// Scheduled start time (`EST` at planning time).
    pub start: f64,
    /// Scheduled finish time (`SFT(n_i)` in the paper's Table 1).
    pub finish: f64,
}

/// A complete or partial schedule: the Planner's product.
#[derive(Debug, Clone, Default)]
pub struct Plan {
    assignments: Vec<Assignment>,
    /// Dense job-id -> assignment-index lookup (`UNASSIGNED` = not in this
    /// plan).
    by_job: Vec<u32>,
    /// The makespan predicted at planning time (absolute simulation time).
    predicted_makespan: f64,
    /// Clock at which this plan was produced (0 for initial schedules).
    planned_at: f64,
}

impl Plan {
    /// Empty plan (used before the first schedule is produced).
    pub fn new(planned_at: f64) -> Self {
        Self { planned_at, ..Self::default() }
    }

    /// Build from a list of assignments.
    pub fn from_assignments(planned_at: f64, assignments: Vec<Assignment>) -> Self {
        let jobs = assignments.iter().map(|a| a.job.idx() + 1).max().unwrap_or(0);
        let mut by_job = vec![UNASSIGNED; jobs];
        for (i, a) in assignments.iter().enumerate() {
            by_job[a.job.idx()] = i as u32;
        }
        let predicted_makespan = assignments.iter().map(|a| a.finish).fold(0.0, f64::max);
        Self { assignments, by_job, predicted_makespan, planned_at }
    }

    /// All assignments, in the order the scheduler placed them
    /// (non-increasing rank order for HEFT/AHEFT).
    pub fn assignments(&self) -> &[Assignment] {
        &self.assignments
    }

    /// Look up a job's assignment.
    pub fn assignment(&self, job: JobId) -> Option<&Assignment> {
        match self.by_job.get(job.idx()) {
            Some(&i) if i != UNASSIGNED => Some(&self.assignments[i as usize]),
            _ => None,
        }
    }

    /// The resource a job is mapped to, if scheduled.
    pub fn resource_of(&self, job: JobId) -> Option<ResourceId> {
        self.assignment(job).map(|a| a.resource)
    }

    /// Number of scheduled jobs.
    pub fn len(&self) -> usize {
        self.assignments.len()
    }

    /// True when no job is scheduled.
    pub fn is_empty(&self) -> bool {
        self.assignments.is_empty()
    }

    /// Predicted makespan (max scheduled finish; paper Eq. 4).
    pub fn predicted_makespan(&self) -> f64 {
        self.predicted_makespan
    }

    /// Clock value when the plan was made.
    pub fn planned_at(&self) -> f64 {
        self.planned_at
    }

    /// Per-resource execution queues: assignments grouped by resource in
    /// ascending start order. `queues[r]` may be empty.
    pub fn resource_queues(&self, total_resources: usize) -> Vec<Vec<Assignment>> {
        let mut queues = vec![Vec::new(); total_resources];
        for a in &self.assignments {
            queues[a.resource.idx()].push(*a);
        }
        for q in &mut queues {
            q.sort_by(|x, y| x.start.total_cmp(&y.start));
        }
        queues
    }

    /// Validate the plan against a DAG and communication model: no
    /// overlapping reservations on a resource, and every job starts no
    /// earlier than each predecessor's finish plus the cross-resource
    /// communication cost (for predecessors scheduled in the same plan).
    ///
    /// Returns a list of human-readable violations (empty = valid). Used by
    /// tests and debug assertions rather than the hot path.
    pub fn validate(&self, dag: &Dag, costs: &aheft_workflow::CostTable) -> Vec<String> {
        let mut problems = Vec::new();
        let r_total = self.assignments.iter().map(|a| a.resource.idx() + 1).max().unwrap_or(0);
        for q in self.resource_queues(r_total) {
            for w in q.windows(2) {
                if w[0].finish > w[1].start + 1e-6 {
                    problems.push(format!(
                        "overlap on {}: {} [{:.2},{:.2}) vs {} [{:.2},{:.2})",
                        w[0].resource,
                        w[0].job,
                        w[0].start,
                        w[0].finish,
                        w[1].job,
                        w[1].start,
                        w[1].finish
                    ));
                }
            }
        }
        for a in &self.assignments {
            if a.finish < a.start - 1e-9 {
                problems.push(format!("{} finishes before it starts", a.job));
            }
            for &(p, e) in dag.preds(a.job) {
                if let Some(pa) = self.assignment(p) {
                    let c = costs.comm_between(e, pa.resource, a.resource);
                    if pa.finish + c > a.start + 1e-6 {
                        problems.push(format!(
                            "{} starts at {:.2} before input from {} arrives at {:.2}",
                            a.job,
                            a.start,
                            p,
                            pa.finish + c
                        ));
                    }
                }
            }
        }
        problems
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aheft_workflow::{CostTable, DagBuilder};

    fn two_job_dag() -> (Dag, CostTable) {
        let mut b = DagBuilder::new();
        let a = b.add_job("a");
        let c = b.add_job("b");
        b.add_edge(a, c, 5.0).unwrap();
        let dag = b.build().unwrap();
        let costs =
            CostTable::from_dag_comm(&dag, &[vec![10.0, 12.0], vec![8.0, 9.0]], 1.0).unwrap();
        (dag, costs)
    }

    #[test]
    fn from_assignments_indexes_jobs() {
        let p = Plan::from_assignments(
            0.0,
            vec![
                Assignment { job: JobId(0), resource: ResourceId(0), start: 0.0, finish: 10.0 },
                Assignment { job: JobId(1), resource: ResourceId(1), start: 15.0, finish: 24.0 },
            ],
        );
        assert_eq!(p.resource_of(JobId(1)), Some(ResourceId(1)));
        assert_eq!(p.assignment(JobId(0)).map(|a| a.finish), Some(10.0));
        assert_eq!(p.predicted_makespan(), 24.0);
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn validate_accepts_comm_respecting_plan() {
        let (dag, costs) = two_job_dag();
        let p = Plan::from_assignments(
            0.0,
            vec![
                Assignment { job: JobId(0), resource: ResourceId(0), start: 0.0, finish: 10.0 },
                Assignment { job: JobId(1), resource: ResourceId(1), start: 15.0, finish: 24.0 },
            ],
        );
        assert!(p.validate(&dag, &costs).is_empty());
    }

    #[test]
    fn validate_flags_early_start() {
        let (dag, costs) = two_job_dag();
        let p = Plan::from_assignments(
            0.0,
            vec![
                Assignment { job: JobId(0), resource: ResourceId(0), start: 0.0, finish: 10.0 },
                // starts at 12 < 10 + 5 cross-resource arrival
                Assignment { job: JobId(1), resource: ResourceId(1), start: 12.0, finish: 21.0 },
            ],
        );
        assert_eq!(p.validate(&dag, &costs).len(), 1);
    }

    #[test]
    fn validate_flags_overlap() {
        let (dag, costs) = two_job_dag();
        let p = Plan::from_assignments(
            0.0,
            vec![
                Assignment { job: JobId(0), resource: ResourceId(0), start: 0.0, finish: 10.0 },
                Assignment { job: JobId(1), resource: ResourceId(0), start: 5.0, finish: 13.0 },
            ],
        );
        assert!(!p.validate(&dag, &costs).is_empty());
    }

    #[test]
    fn colocated_jobs_need_no_comm_delay() {
        let (dag, costs) = two_job_dag();
        let p = Plan::from_assignments(
            0.0,
            vec![
                Assignment { job: JobId(0), resource: ResourceId(0), start: 0.0, finish: 10.0 },
                Assignment { job: JobId(1), resource: ResourceId(0), start: 10.0, finish: 18.0 },
            ],
        );
        assert!(p.validate(&dag, &costs).is_empty());
    }

    #[test]
    fn resource_queues_sorted_by_start() {
        let p = Plan::from_assignments(
            0.0,
            vec![
                Assignment { job: JobId(1), resource: ResourceId(0), start: 9.0, finish: 12.0 },
                Assignment { job: JobId(0), resource: ResourceId(0), start: 0.0, finish: 9.0 },
            ],
        );
        let q = p.resource_queues(1);
        assert_eq!(q[0][0].job, JobId(0));
        assert_eq!(q[0][1].job, JobId(1));
    }
}
