//! # aheft — Adaptive Rescheduling for Grid Workflow Applications
//!
//! Facade crate re-exporting the full reproduction of Yu & Shi,
//! *"An Adaptive Rescheduling Strategy for Grid Workflow Applications"*
//! (IPPS 2007):
//!
//! * [`workflow`] — DAG model, heterogeneous costs, ranks, workload
//!   generators (random §4.2; BLAST/WIEN2K §4.3; Montage/Gauss extras),
//! * [`gridsim`] — discrete-event grid simulator substrate (resources,
//!   pool dynamics, reservations, transfers, executor, predictor),
//! * [`core`] — the schedulers: static HEFT, the paper's **AHEFT**
//!   adaptive rescheduler, dynamic Min-Min/Max-Min/Sufferage baselines,
//!   the planner/executor collaboration loop and what-if queries,
//! * [`parcomp`] — the ordered parallel map behind the experiment sweeps and
//!   `served`'s cache misses.
//!
//! ## Quickstart
//!
//! ```
//! use aheft::prelude::*;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! // A random workflow in the paper's parameter space.
//! let mut rng = StdRng::seed_from_u64(1);
//! let params = RandomDagParams { jobs: 40, ..RandomDagParams::paper_default() };
//! let wf = aheft::workflow::generators::random::generate(&params, &mut rng);
//! let costs = wf.sample_table(8, &mut rng);
//!
//! // A grid whose pool grows by 10% of 8 resources every 400 time units.
//! let dynamics = PoolDynamics::periodic_growth(8, 400.0, 0.10);
//!
//! // Every strategy is a named `SchedulingPolicy` on one generic event
//! // pump; compare static HEFT with adaptive AHEFT on the same grid.
//! let cfg = RunConfig::default();
//! let run = |name| run_named_policy(name, &wf.dag, &costs, &wf.costgen, &dynamics, 1, &cfg);
//! let (heft, aheft) = (run("heft"), run("aheft"));
//! assert!(aheft.makespan <= heft.makespan + 1e-9);
//!
//! // The registry also carries ablation and hybrid policies.
//! assert!(run("ranked-jit").makespan > 0.0);
//! ```

#![warn(missing_docs)]

pub use aheft_core as core;
pub use aheft_gridsim as gridsim;
pub use aheft_parcomp as parcomp;
pub use aheft_workflow as workflow;

/// Convenient re-exports of the most commonly used items.
pub mod prelude {
    pub use aheft_core::aheft::AheftConfig;
    pub use aheft_core::heft::heft_schedule;
    pub use aheft_core::metrics::{improvement_rate, schedule_length_ratio};
    pub use aheft_core::policy::{run_named_policy, SchedulingPolicy, POLICY_NAMES};
    pub use aheft_core::runner::{run_policy, RunConfig, RunReport};
    pub use aheft_core::schedule::Schedule;
    pub use aheft_core::service::{
        make_fairness, run_service, ArrivalProcess, FairnessPolicy, ServiceConfig, ServiceReport,
        FAIRNESS_NAMES,
    };
    pub use aheft_core::whatif::{what_if, WhatIfError, WhatIfQuery};
    pub use aheft_core::{DynamicHeuristic, SlotPolicy};
    pub use aheft_gridsim::pool::PoolDynamics;
    pub use aheft_workflow::generators::blast::AppDagParams;
    pub use aheft_workflow::generators::random::RandomDagParams;
    pub use aheft_workflow::generators::GeneratedWorkflow;
    pub use aheft_workflow::{CostGenerator, CostTable, Dag, DagBuilder, JobId, ResourceId};
}
