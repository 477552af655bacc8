//! Streaming statistics (Welford) used by the experiment harness to
//! aggregate makespans over thousands of simulation cases without storing
//! them all.

/// Online mean accumulator (Welford's update — numerically stable for long
/// sweeps).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Running {
    n: u64,
    mean: f64,
}

impl Running {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self { n: 0, mean: 0.0 }
    }

    /// Add one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }
}

/// Fault-tolerance metrics of one simulation run, reported alongside the
/// makespan so chaos sweeps can quantify recovery behaviour per case.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultStats {
    /// Job executions killed by a fault (resource failure, crash fault, or
    /// straggler kill). Policy-initiated reschedule aborts do not count.
    pub fault_kills: usize,
    /// Job starts that re-ran a previously fault-killed job.
    pub retries: usize,
    /// Simulation-time of execution progress discarded by kills of any
    /// kind (fault kills *and* reschedule aborts), net of checkpoint
    /// credit.
    pub wasted_work: f64,
    /// Total sim-time between a job's fault kill and its next start,
    /// summed over recoveries.
    pub recovery_latency: f64,
    /// Number of fault-killed jobs that started again.
    pub recoveries: usize,
    /// Total resource downtime: completed repair outages plus, for
    /// resources still dead at the end, the tail up to the makespan.
    pub downtime: f64,
    /// Useful work / (useful + wasted work); `1.0` for a fault-free run.
    pub goodput: f64,
}

impl Default for FaultStats {
    /// The metrics of a run where nothing went wrong (goodput 1.0).
    fn default() -> Self {
        Self {
            fault_kills: 0,
            retries: 0,
            wasted_work: 0.0,
            recovery_latency: 0.0,
            recoveries: 0,
            downtime: 0.0,
            goodput: 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_stats_default_is_clean() {
        let f = FaultStats::default();
        assert_eq!(f.fault_kills, 0);
        assert_eq!(f.retries, 0);
        assert_eq!(f.wasted_work, 0.0);
        assert_eq!(f.goodput, 1.0);
    }

    #[test]
    fn mean_and_variance() {
        let mut r = Running::new();
        assert_eq!(r.mean(), 0.0);
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            r.push(x);
        }
        assert!((r.mean() - 5.0).abs() < 1e-12);
    }
}
