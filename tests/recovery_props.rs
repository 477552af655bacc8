//! Property-based termination gate for the fault-tolerant execution layer
//! (ISSUE 7): every registered scheduling policy crossed with every
//! recovery policy must terminate under aggressive random fault injection
//! — and, when failures are transient (every resource eventually repairs),
//! must finish every job.
//!
//! The properties are about the *shape* of the run, not its numbers:
//!
//! * the pump returns (no livelock/deadlock) for any policy × recovery
//!   combination under transient churn, permanent failures, and job-level
//!   crash faults up to 30%;
//! * transient-only scenarios leave zero unfinished jobs (the pool always
//!   recovers, so graceful degradation must never give up early);
//! * the fault accounting stays internally consistent: every recovery is
//!   a retry, goodput stays in (0, 1], and wasted work is non-negative.

use aheft::core::runner::RunConfig;
use aheft::core::{make_recovery, run_named_policy, POLICY_NAMES, RECOVERY_NAMES};
use aheft::gridsim::fault::{FailureModel, JobFaultModel};
use aheft::gridsim::pool::PoolDynamics;
use aheft::gridsim::predictor::ActualModel;
use aheft::workflow::generators::random::{generate, RandomDagParams};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One aggressive fault scenario: workload size, pool, churn rates.
#[derive(Debug, Clone, Copy)]
struct Scenario {
    jobs: usize,
    resources: usize,
    mtbf: f64,
    mttr: f64,
    crash_prob: f64,
    transient: bool,
    seed: u64,
}

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    (
        8usize..24,   // jobs
        2usize..5,    // initial resources
        50f64..500.0, // MTBF — aggressive relative to job runtimes
        10f64..100.0, // MTTR
        0f64..0.3,    // job crash probability
        prop_oneof![Just(true), Just(false)],
        0u64..1_000_000,
    )
        .prop_map(|(jobs, resources, mtbf, mttr, crash_prob, transient, seed)| Scenario {
            jobs,
            resources,
            mtbf,
            mttr,
            crash_prob,
            transient,
            seed,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn every_policy_and_recovery_terminates_under_aggressive_faults(s in arb_scenario()) {
        let mut rng = StdRng::seed_from_u64(s.seed);
        let params = RandomDagParams { jobs: s.jobs, ..RandomDagParams::paper_default() };
        let wf = generate(&params, &mut rng);
        let costs = wf.sample_table(s.resources, &mut rng);
        let dynamics = PoolDynamics::fixed(s.resources);
        let failures = if s.transient {
            FailureModel::Transient { mtbf: s.mtbf, mttr: s.mttr }
        } else {
            FailureModel::Exponential { mtbf: s.mtbf }
        };
        for policy in POLICY_NAMES {
            for rname in RECOVERY_NAMES {
                let cfg = RunConfig {
                    actual: ActualModel::Noisy { spread: 0.5 },
                    failures,
                    job_faults: JobFaultModel::CrashOnStart { prob: s.crash_prob },
                    recovery: make_recovery(rname).expect("registered recovery"),
                    ..Default::default()
                };
                // Termination is the property: a livelock in any policy ×
                // recovery combination hangs here instead of returning.
                let r = run_named_policy(
                    policy, &wf.dag, &costs, &wf.costgen, &dynamics, s.seed, &cfg,
                );
                let label = format!("{policy}+{rname} ({s:?})");
                if s.transient {
                    prop_assert_eq!(r.unfinished_jobs, 0, "pool always repairs: {}", &label);
                    prop_assert!(r.makespan.is_finite() && r.makespan > 0.0, "{}", &label);
                } else {
                    // Permanent failures may strand work; the run must still
                    // come back with a coherent report.
                    prop_assert!(r.unfinished_jobs <= s.jobs, "{}", &label);
                }
                prop_assert_eq!(r.faults.recoveries, r.faults.retries, "{}", &label);
                prop_assert!(r.faults.wasted_work >= 0.0, "{}", &label);
                // Goodput 0 is legitimate: a permanently stranded run may
                // finish nothing while kills discarded real progress.
                prop_assert!(
                    (0.0..=1.0).contains(&r.faults.goodput),
                    "goodput out of range: {}", &label
                );
            }
        }
    }
}
