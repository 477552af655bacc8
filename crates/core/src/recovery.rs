//! Recovery policies: what the execution layer does with a fault-killed
//! job, orthogonal to the [`SchedulingPolicy`](crate::policy::SchedulingPolicy)
//! that decides placement.
//!
//! The paper's §3.3 delegates fault tolerance to the Execution Manager
//! without specifying it; this module supplies the standard menu. A
//! recovery policy is pure configuration — the mechanics (backoff holds,
//! checkpoint credit, straggler watchdog events) live in the event pump
//! ([`runner`](crate::runner)) so every scheduling policy gets them for
//! free.

/// What to do with a job killed by a fault (resource failure, crash fault,
/// or straggler kill).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RecoveryPolicy {
    /// Resubmit elsewhere: the killed job goes back to the ready set and
    /// the scheduling policy re-decides its placement (planned policies
    /// re-evaluate via the workspace replan; JIT policies re-map).
    Resubmit,
    /// Retry in place with capped exponential backoff: the job is held for
    /// `min(cap, base·2^(kills−1))` sim-time units, then restarts in its
    /// current queue position (same resource for crash faults; resource
    /// failures still force a replan — there is no "same" left to retry).
    RetryBackoff {
        /// Backoff before the first retry.
        base: f64,
        /// Upper bound on any single backoff.
        cap: f64,
    },
    /// Checkpoint-restart: execution progress is checkpointed every
    /// `interval` sim-time units; a killed job restarts with only the work
    /// since its last checkpoint lost.
    Checkpoint {
        /// Sim-time between checkpoints (work surviving a kill is rounded
        /// down to a multiple of this).
        interval: f64,
    },
    /// Straggler detection: in addition to resubmitting fault-killed jobs,
    /// a watchdog kills and resubmits any job still running past
    /// `factor ×` its predicted runtime.
    StragglerKill {
        /// Kill deadline as a multiple of the predicted runtime
        /// (must exceed 1, and under noisy execution should exceed the
        /// noise band's upper edge for the watchdog to only catch genuine
        /// stragglers).
        factor: f64,
    },
}

impl Default for RecoveryPolicy {
    /// Resubmit-elsewhere: the behaviour the substrate always had for
    /// resource failures.
    fn default() -> Self {
        RecoveryPolicy::Resubmit
    }
}

impl RecoveryPolicy {
    /// True when a crash-killed job should be re-placed by the scheduling
    /// policy rather than retried in its current queue position.
    pub fn replaces_on_crash(&self) -> bool {
        matches!(self, RecoveryPolicy::Resubmit | RecoveryPolicy::StragglerKill { .. })
    }
}

/// Capped exponential backoff before retry number `kills` (1-based: the
/// first retry waits `base`).
// analyzer: hot
pub fn backoff_delay(base: f64, cap: f64, kills: u32) -> f64 {
    let exp = kills.saturating_sub(1).min(63);
    (base * (1u64 << exp) as f64).min(cap)
}

/// Checkpoint arithmetic for a kill: given the work credited before this
/// attempt, the progress of the killed attempt and the checkpoint
/// interval, returns `(new_saved, wasted)` — total work rounded down to a
/// checkpoint boundary, and the remainder lost.
// analyzer: hot
pub fn checkpoint_credit(saved: f64, progress: f64, interval: f64) -> (f64, f64) {
    let done = saved + progress;
    if interval <= 0.0 {
        return (done, 0.0);
    }
    let kept = interval * (done / interval).floor();
    (kept, done - kept)
}

/// Registered recovery policy names, in presentation order.
pub const RECOVERY_NAMES: [&str; 4] = ["resubmit", "retry", "checkpoint", "straggler"];

/// Construct a recovery policy by registry name with its canonical
/// parameters; `None` for unknown names.
pub fn make_recovery(name: &str) -> Option<RecoveryPolicy> {
    match name {
        "resubmit" => Some(RecoveryPolicy::Resubmit),
        "retry" => Some(RecoveryPolicy::RetryBackoff { base: 5.0, cap: 80.0 }),
        "checkpoint" => Some(RecoveryPolicy::Checkpoint { interval: 10.0 }),
        "straggler" => Some(RecoveryPolicy::StragglerKill { factor: 1.25 }),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_caps() {
        assert_eq!(backoff_delay(5.0, 80.0, 1), 5.0);
        assert_eq!(backoff_delay(5.0, 80.0, 2), 10.0);
        assert_eq!(backoff_delay(5.0, 80.0, 4), 40.0);
        assert_eq!(backoff_delay(5.0, 80.0, 5), 80.0);
        assert_eq!(backoff_delay(5.0, 80.0, 50), 80.0, "cap holds far out");
        assert_eq!(backoff_delay(5.0, 80.0, u32::MAX), 80.0, "no shift overflow");
    }

    #[test]
    fn checkpoint_credit_rounds_down() {
        let (kept, wasted) = checkpoint_credit(0.0, 27.0, 10.0);
        assert_eq!(kept, 20.0);
        assert_eq!(wasted, 7.0);
        // Credit accumulates across attempts.
        let (kept, wasted) = checkpoint_credit(20.0, 15.0, 10.0);
        assert_eq!(kept, 30.0);
        assert_eq!(wasted, 5.0);
        // Degenerate interval: keep everything.
        assert_eq!(checkpoint_credit(1.0, 2.0, 0.0), (3.0, 0.0));
    }

    #[test]
    fn registry_round_trips() {
        for name in RECOVERY_NAMES {
            assert!(make_recovery(name).is_some(), "{name} constructs");
        }
        assert_eq!(make_recovery("nope"), None);
        assert_eq!(make_recovery("resubmit"), Some(RecoveryPolicy::default()));
    }

    #[test]
    fn crash_replacement_split() {
        assert!(RecoveryPolicy::Resubmit.replaces_on_crash());
        assert!(RecoveryPolicy::StragglerKill { factor: 2.0 }.replaces_on_crash());
        assert!(!RecoveryPolicy::RetryBackoff { base: 1.0, cap: 2.0 }.replaces_on_crash());
        assert!(!RecoveryPolicy::Checkpoint { interval: 10.0 }.replaces_on_crash());
    }
}
