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
