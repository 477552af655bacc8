//! # aheft-core
//!
//! The schedulers of the reproduction:
//!
//! * [`heft`] — static HEFT (Topcuoglu et al. \[19\]), insertion-based by
//!   default, as the traditional full-plan-ahead baseline,
//! * [`aheft`] — the paper's contribution: HEFT-based **adaptive
//!   rescheduling** with the clock-aware `FEA`/`EST`/`EFT` equations
//!   (Eqs. 1–3) that schedule the *remaining* jobs of a partially executed
//!   workflow,
//! * [`minmin`] — dynamic just-in-time baselines (Min-Min as in the paper,
//!   plus Max-Min and Sufferage),
//! * [`planner`] — the Planner of Fig. 1: event subscription, reschedule
//!   evaluation and the accept-if-better rule of the generic algorithm
//!   (Fig. 2),
//! * [`policy`] — the pluggable strategy layer: the [`SchedulingPolicy`]
//!   trait, the planned/JIT policy families, and the by-name registry
//!   (`--policy` in the experiment harness),
//! * [`recovery`] — fault-recovery policies orthogonal to scheduling:
//!   resubmit-elsewhere, capped-backoff retry, checkpoint-restart, and the
//!   straggler watchdog, with their own by-name registry,
//! * [`runner`] — the ONE generic event pump ([`runner::run_policy`]):
//!   executes a workflow on the `aheft-gridsim` substrate under pool
//!   dynamics, driving any [`SchedulingPolicy`], and returns a
//!   [`runner::RunReport`],
//! * [`service`] — the multi-tenant workflow service: continuous arrivals
//!   of tenant-tagged workflows contending for one shared pool through an
//!   admission/fairness layer (FCFS, fair-share, priority-preemption, with
//!   their own by-name registry), each admission executed by `run_policy`
//!   on its leased slice,
//! * [`whatif`] — the "What…if…" evaluation API sketched in §3.3 (predicted
//!   makespan when a resource is added/removed),
//! * [`metrics`] — makespan, SLR, improvement rate.

#![warn(missing_docs)]

pub mod aheft;
pub mod heft;
pub mod metrics;
pub mod minmin;
pub mod planner;
pub mod policy;
pub mod recovery;
pub mod runner;
pub mod schedule;
pub mod service;
pub mod whatif;

pub use aheft::{
    aheft_reschedule, aheft_schedule_into, AheftConfig, ReschedulableSet, RescheduleOutcome,
    ScheduleWorkspace,
};
pub use heft::heft_schedule;
pub use minmin::DynamicHeuristic;
pub use planner::{AdaptivePlanner, ReschedulePolicy};
pub use policy::{
    make_policy, run_named_policy, JitPolicy, PlannedPolicy, PolicyEvent, PolicyStats,
    SchedulingPolicy, POLICY_NAMES,
};
pub use recovery::{make_recovery, RecoveryPolicy, RECOVERY_NAMES};
pub use runner::{run_policy, ExecCtx, RunConfig, RunReport};
pub use schedule::Schedule;
pub use service::{
    is_fairness, make_fairness, run_service, workflow_streams, ArrivalProcess, FairnessPolicy,
    ServiceConfig, ServiceReport, FAIRNESS_NAMES,
};

// Re-export the slot policy so downstream users configure schedulers without
// importing the substrate crate.
pub use aheft_gridsim::reservation::SlotPolicy;
