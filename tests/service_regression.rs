//! Strict-generalization gate for the multi-tenant service (ISSUE 8).
//!
//! A one-tenant service run with a single arrival at `t = 0` must
//! reproduce the direct `run_policy` report **bit for bit**: same DAG
//! (from the workflow's own dag stream), same cost table (cost stream),
//! same simulation (sim stream), same fault draws. If the service layer
//! ever grows a parallel code path — its own pump, its own sampling
//! order, an off-by-one in the derived streams — this gate fails.
//!
//! The equivalence must hold for every fairness policy (with one workflow
//! there is nothing to arbitrate), for planned and JIT scheduling
//! policies, and under fault injection (the inner run owns the fault
//! stream, the service only observes the returned report).

use aheft::core::runner::{RunConfig, RunReport};
use aheft::core::service::{
    make_fairness, run_service, workflow_streams, ArrivalProcess, ServiceConfig, FAIRNESS_NAMES,
};
use aheft::core::{make_recovery, run_named_policy};
use aheft::gridsim::fault::{FailureModel, JobFaultModel};
use aheft::gridsim::pool::PoolDynamics;
use aheft::workflow::generators::random::{generate, RandomDagParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Field-by-field bit comparison of two run reports (f64s via `to_bits`,
/// fault stats and trace via their debug rendering).
fn assert_bit_identical(service: &RunReport, direct: &RunReport, label: &str) {
    assert_eq!(service.makespan.to_bits(), direct.makespan.to_bits(), "{label}: makespan");
    assert_eq!(
        service.initial_predicted.to_bits(),
        direct.initial_predicted.to_bits(),
        "{label}: initial_predicted"
    );
    assert_eq!(service.evaluations, direct.evaluations, "{label}: evaluations");
    assert_eq!(service.reschedules, direct.reschedules, "{label}: reschedules");
    assert_eq!(service.aborted_jobs, direct.aborted_jobs, "{label}: aborted_jobs");
    assert_eq!(service.final_pool_size, direct.final_pool_size, "{label}: final_pool_size");
    assert_eq!(service.events_processed, direct.events_processed, "{label}: events_processed");
    assert_eq!(service.unfinished_jobs, direct.unfinished_jobs, "{label}: unfinished_jobs");
    assert_eq!(
        format!("{:?}", service.faults),
        format!("{:?}", direct.faults),
        "{label}: fault stats"
    );
    assert_eq!(
        format!("{:?}", service.trace),
        format!("{:?}", direct.trace),
        "{label}: execution trace"
    );
}

/// The direct single-workflow run the service must reproduce: workflow 0
/// of master seed `seed`, on a fixed pool of `slice` resources.
fn direct_run(
    seed: u64,
    slice: usize,
    policy: &str,
    workload: &RandomDagParams,
    run: &RunConfig,
) -> RunReport {
    let (dag_seed, cost_seed, sim_seed) = workflow_streams(seed, 0);
    let mut rng = StdRng::seed_from_u64(dag_seed);
    let wf = generate(workload, &mut rng);
    let costs = wf.sample_table_seeded(slice, cost_seed);
    run_named_policy(
        policy,
        &wf.dag,
        &costs,
        &wf.costgen,
        &PoolDynamics::fixed(slice),
        sim_seed,
        run,
    )
}

fn single_workflow_config(seed: u64, slice: usize, policy: &str, run: RunConfig) -> ServiceConfig {
    ServiceConfig {
        tenants: 1,
        arrivals: ArrivalProcess::Trace(vec![0.0]),
        workflows: 1,
        capacity: slice,
        slice,
        policy: policy.into(),
        workload: RandomDagParams { jobs: 20, ..RandomDagParams::paper_default() },
        run,
        horizon: None,
        seed,
        ..ServiceConfig::default()
    }
}

#[test]
fn single_workflow_service_reproduces_run_policy_bit_for_bit() {
    for policy in ["heft", "aheft", "minmin", "ranked-jit"] {
        for seed in [0u64, 7, 123456] {
            for fairness in FAIRNESS_NAMES {
                let mut cfg = single_workflow_config(seed, 3, policy, RunConfig::default());
                cfg.fairness = make_fairness(fairness).expect("registered");
                let sr = run_service(&cfg);
                assert_eq!((sr.admitted, sr.finished, sr.in_flight), (1, 1, 0));
                let outcome = &sr.outcomes[0];
                let service_report =
                    outcome.report.as_ref().expect("completed outcome keeps its inner report");
                let direct = direct_run(seed, 3, policy, &cfg.workload, &cfg.run);
                let label = format!("{policy}/{fairness}/seed {seed}");
                assert_bit_identical(service_report, &direct, &label);
                // The outer observables must agree with the inner run too.
                assert_eq!(outcome.first_start, Some(0.0), "{label}");
                assert_eq!(
                    outcome.finish.expect("drained").to_bits(),
                    direct.makespan.to_bits(),
                    "{label}: finish == makespan for an arrival at t=0"
                );
            }
        }
    }
}

#[test]
fn single_workflow_equivalence_holds_under_fault_injection() {
    // The inner run owns the fault stream; layering the service on top
    // must not shift a single draw. Transient churn + crash faults +
    // retry recovery exercises every fault path.
    let run = RunConfig {
        failures: FailureModel::Transient { mtbf: 300.0, mttr: 60.0 },
        job_faults: JobFaultModel::CrashOnStart { prob: 0.10 },
        recovery: make_recovery("retry").expect("registered"),
        record_trace: true,
        ..RunConfig::default()
    };
    for seed in [1u64, 99] {
        let cfg = single_workflow_config(seed, 2, "aheft", run);
        let sr = run_service(&cfg);
        let service_report = sr.outcomes[0].report.as_ref().expect("drained");
        let direct = direct_run(seed, 2, "aheft", &cfg.workload, &cfg.run);
        assert_bit_identical(service_report, &direct, &format!("faulty seed {seed}"));
        assert!(direct.faults.retries > 0 || direct.faults.wasted_work == 0.0);
    }
}

#[test]
fn trace_recording_passes_through_the_service_layer() {
    let run = RunConfig { record_trace: true, ..RunConfig::default() };
    let cfg = single_workflow_config(5, 3, "heft", run);
    let sr = run_service(&cfg);
    let report = sr.outcomes[0].report.as_ref().expect("drained");
    assert!(!report.trace.events().is_empty(), "record_trace must reach the inner run");
    let direct = direct_run(5, 3, "heft", &cfg.workload, &cfg.run);
    assert_bit_identical(report, &direct, "traced heft");
}
