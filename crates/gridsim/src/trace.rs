//! Execution traces and ASCII Gantt rendering (paper Fig. 5).

use aheft_workflow::{Dag, JobId, ResourceId};

/// One trace record.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// Job started.
    JobStarted {
        /// Simulation time of the start.
        t: f64,
        /// The started job.
        job: JobId,
        /// Resource it started on.
        resource: ResourceId,
    },
    /// Job finished.
    JobFinished {
        /// Simulation time of the finish.
        t: f64,
        /// The finished job.
        job: JobId,
        /// Resource it ran on.
        resource: ResourceId,
    },
    /// Job aborted by a reschedule.
    JobAborted {
        /// Simulation time of the abort.
        t: f64,
        /// The aborted job.
        job: JobId,
        /// Resource it was running on.
        resource: ResourceId,
    },
    /// File transfer initiated.
    TransferStarted {
        /// Simulation time the transfer began.
        t: f64,
        /// Job whose output file is transferred.
        producer: JobId,
        /// Source resource.
        from: ResourceId,
        /// Destination resource.
        to: ResourceId,
        /// Time the file will arrive at `to`.
        arrival: f64,
    },
    /// Resources joined the pool.
    ResourcesJoined {
        /// Simulation time of the arrival.
        t: f64,
        /// Number of resources that joined.
        count: u32,
    },
    /// A resource left the pool.
    ResourceLeft {
        /// Simulation time of the departure.
        t: f64,
        /// The departed resource.
        resource: ResourceId,
    },
    /// A transiently failed resource repaired and rejoined the pool.
    ResourceRejoined {
        /// Simulation time of the rejoin.
        t: f64,
        /// The repaired resource.
        resource: ResourceId,
    },
    /// A running job crashed (job-level fault); its resource survives.
    JobCrashed {
        /// Simulation time of the crash.
        t: f64,
        /// The crashed job.
        job: JobId,
        /// Resource it was running on.
        resource: ResourceId,
    },
    /// The straggler watchdog killed a job that overran its deadline.
    JobKilled {
        /// Simulation time of the kill.
        t: f64,
        /// The killed job.
        job: JobId,
        /// Resource it was running on.
        resource: ResourceId,
    },
    /// The planner replaced the current plan (accepted reschedule).
    PlanReplaced {
        /// Simulation time of the adoption.
        t: f64,
        /// Predicted makespan of the replaced plan.
        old_makespan: f64,
        /// Predicted makespan of the adopted plan.
        new_makespan: f64,
    },
    /// The planner evaluated a reschedule and kept the current plan.
    PlanKept {
        /// Simulation time of the evaluation.
        t: f64,
        /// Predicted makespan of the retained plan.
        current_makespan: f64,
        /// Predicted makespan of the rejected candidate.
        candidate_makespan: f64,
    },
}

impl TraceEvent {
    /// Timestamp of the record.
    pub fn time(&self) -> f64 {
        match *self {
            TraceEvent::JobStarted { t, .. }
            | TraceEvent::JobFinished { t, .. }
            | TraceEvent::JobAborted { t, .. }
            | TraceEvent::TransferStarted { t, .. }
            | TraceEvent::ResourcesJoined { t, .. }
            | TraceEvent::ResourceLeft { t, .. }
            | TraceEvent::ResourceRejoined { t, .. }
            | TraceEvent::JobCrashed { t, .. }
            | TraceEvent::JobKilled { t, .. }
            | TraceEvent::PlanReplaced { t, .. }
            | TraceEvent::PlanKept { t, .. } => t,
        }
    }
}

/// An append-only execution trace. Recording can be disabled for large
/// experiment sweeps (events are simply dropped).
#[derive(Debug, Clone, Default)]
pub struct Trace {
    events: Vec<TraceEvent>,
    enabled: bool,
}

impl Trace {
    /// A recording trace.
    pub fn enabled() -> Self {
        Self { events: Vec::new(), enabled: true }
    }

    /// A no-op trace for hot experiment loops.
    pub fn disabled() -> Self {
        Self { events: Vec::new(), enabled: false }
    }

    /// Append `ev` if recording is enabled.
    #[inline]
    pub fn push(&mut self, ev: TraceEvent) {
        if self.enabled {
            self.events.push(ev);
        }
    }

    /// Recorded events in order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of accepted reschedules.
    pub fn reschedule_count(&self) -> usize {
        self.events.iter().filter(|e| matches!(e, TraceEvent::PlanReplaced { .. })).count()
    }

    /// Completed `(job, resource, start, finish)` intervals, from paired
    /// start/finish records.
    pub fn completed_intervals(&self) -> Vec<(JobId, ResourceId, f64, f64)> {
        let mut out = Vec::new();
        for e in &self.events {
            if let TraceEvent::JobFinished { t, job, resource } = *e {
                // Find the matching (latest) start of this job.
                let start = self
                    .events
                    .iter()
                    .rev()
                    .find_map(|s| match *s {
                        TraceEvent::JobStarted { t: ts, job: j, resource: r }
                            if j == job && r == resource && ts <= t =>
                        {
                            Some(ts)
                        }
                        _ => None,
                    })
                    .unwrap_or(t);
                out.push((job, resource, start, t));
            }
        }
        out
    }

    /// Render an ASCII Gantt chart of completed intervals, one row per
    /// resource, `cols` characters wide. Small runs only (e.g. the Fig. 5
    /// worked example).
    pub fn gantt(&self, dag: &Dag, resources: usize, cols: usize) -> String {
        let intervals = self.completed_intervals();
        let horizon = intervals.iter().map(|&(_, _, _, f)| f).fold(0.0, f64::max);
        if horizon <= 0.0 || cols == 0 {
            return String::from("(empty trace)\n");
        }
        let scale = cols as f64 / horizon;
        let mut out = String::new();
        for r in 0..resources {
            let mut row = vec![b'.'; cols];
            for &(job, res, s, f) in &intervals {
                if res.idx() != r {
                    continue;
                }
                let a = (s * scale).floor() as usize;
                let b = ((f * scale).ceil() as usize).clamp(a + 1, cols);
                let label = dag.job(job).name.as_bytes();
                for (k, slot) in row[a..b].iter_mut().enumerate() {
                    *slot = if k < label.len() { label[k] } else { b'#' };
                }
            }
            out.push_str(&format!("r{:<2} |", r + 1));
            out.push_str(std::str::from_utf8(&row).expect("ascii"));
            out.push_str("|\n");
        }
        out.push_str(&format!("     0{horizon:>cols$.1}\n"));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aheft_workflow::DagBuilder;

    fn one_job_dag() -> Dag {
        let mut b = DagBuilder::new();
        b.add_job("n1");
        b.build().unwrap()
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::disabled();
        t.push(TraceEvent::ResourcesJoined { t: 1.0, count: 2 });
        assert!(t.events().is_empty());
    }

    #[test]
    fn completed_intervals_pair_start_finish() {
        let mut t = Trace::enabled();
        t.push(TraceEvent::JobStarted { t: 2.0, job: JobId(0), resource: ResourceId(0) });
        t.push(TraceEvent::JobFinished { t: 7.0, job: JobId(0), resource: ResourceId(0) });
        assert_eq!(t.completed_intervals(), vec![(JobId(0), ResourceId(0), 2.0, 7.0)]);
    }

    #[test]
    fn aborted_restart_uses_latest_start() {
        let mut t = Trace::enabled();
        t.push(TraceEvent::JobStarted { t: 0.0, job: JobId(0), resource: ResourceId(0) });
        t.push(TraceEvent::JobAborted { t: 3.0, job: JobId(0), resource: ResourceId(0) });
        t.push(TraceEvent::JobStarted { t: 5.0, job: JobId(0), resource: ResourceId(0) });
        t.push(TraceEvent::JobFinished { t: 9.0, job: JobId(0), resource: ResourceId(0) });
        assert_eq!(t.completed_intervals(), vec![(JobId(0), ResourceId(0), 5.0, 9.0)]);
    }

    #[test]
    fn gantt_renders_rows() {
        let dag = one_job_dag();
        let mut t = Trace::enabled();
        t.push(TraceEvent::JobStarted { t: 0.0, job: JobId(0), resource: ResourceId(0) });
        t.push(TraceEvent::JobFinished { t: 10.0, job: JobId(0), resource: ResourceId(0) });
        let g = t.gantt(&dag, 2, 20);
        assert!(g.contains("r1"));
        assert!(g.contains("r2"));
        assert!(g.contains("n1"));
    }

    #[test]
    fn reschedule_count() {
        let mut t = Trace::enabled();
        t.push(TraceEvent::PlanReplaced { t: 15.0, old_makespan: 80.0, new_makespan: 76.0 });
        t.push(TraceEvent::PlanKept { t: 30.0, current_makespan: 76.0, candidate_makespan: 78.0 });
        assert_eq!(t.reschedule_count(), 1);
    }
}
