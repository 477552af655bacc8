//! Simulation events.
//!
//! These are the run-time events of the paper's Fig. 1 architecture: job
//! completions and file arrivals flow from the Execution Manager, resource
//! arrivals/departures from the Resource Manager, and performance-variance
//! notifications from the Performance Monitor. The Planner subscribes to
//! the subset it cares about (paper §3.3: *Resource Pool Change* and
//! *Resource Performance Variance*).

use aheft_workflow::{JobId, ResourceId};

/// A discrete event in the grid simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    /// A job finished executing on its resource.
    JobFinished {
        /// The job that finished.
        job: JobId,
    },
    /// The output file of `producer` arrived on resource `to`.
    TransferArrived {
        /// Job whose output file was transferred.
        producer: JobId,
        /// Resource the file arrived on.
        to: ResourceId,
    },
    /// `count` new resources joined the pool (Resource Pool Change).
    ResourcesJoined {
        /// Number of resources that joined at once.
        count: u32,
    },
    /// A resource left the pool / failed (Resource Pool Change).
    ResourceLeft {
        /// The departed resource.
        resource: ResourceId,
    },
    /// A transiently failed resource finished repairing and rejoined the
    /// pool (Resource Pool Change).
    ResourceRejoined {
        /// The repaired resource.
        resource: ResourceId,
    },
    /// A running job crashed (job-level fault); its resource survives.
    JobCrashed {
        /// The crashed job.
        job: JobId,
    },
    /// A fault-killed job's retry backoff expired; it may start again.
    JobRetry {
        /// The job released for retry.
        job: JobId,
    },
    /// Straggler watchdog: check whether `job` is still running past its
    /// kill deadline (the event is cancelled when the job finishes first).
    StragglerCheck {
        /// The watched job.
        job: JobId,
    },
    /// A job's actual runtime deviated from its estimate by more than the
    /// monitor's threshold (Resource Performance Variance).
    PerformanceVariance {
        /// The job whose runtime deviated.
        job: JobId,
        /// Resource the job ran on.
        resource: ResourceId,
    },
    /// Generic wake-up used by periodic rescheduling policies.
    Wake,
}

impl Event {
    /// True for the events the paper's adaptive planner subscribes to.
    pub fn interests_planner(&self) -> bool {
        matches!(
            self,
            Event::ResourcesJoined { .. }
                | Event::ResourceLeft { .. }
                | Event::ResourceRejoined { .. }
                | Event::PerformanceVariance { .. }
                | Event::Wake
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn planner_interest_set() {
        assert!(Event::ResourcesJoined { count: 1 }.interests_planner());
        assert!(Event::ResourceLeft { resource: ResourceId(0) }.interests_planner());
        assert!(Event::ResourceRejoined { resource: ResourceId(0) }.interests_planner());
        assert!(!Event::JobFinished { job: JobId(0) }.interests_planner());
        assert!(!Event::JobCrashed { job: JobId(0) }.interests_planner());
        assert!(!Event::JobRetry { job: JobId(0) }.interests_planner());
        assert!(!Event::StragglerCheck { job: JobId(0) }.interests_planner());
        assert!(
            !Event::TransferArrived { producer: JobId(0), to: ResourceId(0) }.interests_planner()
        );
    }
}
