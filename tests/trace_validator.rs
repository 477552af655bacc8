//! Independent trace validator: every run of the policy × recovery ×
//! fault-level matrix must leave an execution trace that is physically
//! possible.
//!
//! The validator replays `RunReport::trace` from nothing but the DAG and
//! the initial pool size — it never consults `ExecState`, the runner or
//! the policies, so it cannot inherit their bugs. It checks that:
//!
//! * trace times never decrease;
//! * a job starts only on a resource that is alive and idle (liveness is
//!   tracked from the initial ids, `ResourcesJoined` appending ids, and
//!   `ResourceLeft` / `ResourceRejoined`), and only while it is neither
//!   running nor finished;
//! * a run ends only by `JobFinished` or `JobAborted` of the job holding
//!   the resource (`JobCrashed` / `JobKilled` name that holder too);
//! * every predecessor finished before the start, and its data is on the
//!   start resource by then: either the producer finished there, or a
//!   `TransferStarted` from it to that resource arrives by then;
//! * every transfer leaves the producer's finish resource after the
//!   producer finished;
//! * the number of never-finished jobs equals `unfinished_jobs`, and the
//!   last finish equals `makespan` bit for bit.

use std::collections::HashSet;

use aheft::core::{make_recovery, RECOVERY_NAMES};
use aheft::gridsim::fault::{FailureModel, JobFaultModel};
use aheft::gridsim::predictor::ActualModel;
use aheft::gridsim::trace::TraceEvent;
use aheft::prelude::*;
use aheft::workflow::generators::random::generate;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Tolerance on "by then" comparisons, matching the executor's readiness
/// test.
const EPS: f64 = 1e-9;

/// Initial pool size of every validated run.
const INITIAL: usize = 4;

/// Replay `trace` for `dag` on a pool of `initial` resources against the
/// run's reported `unfinished_jobs` and `makespan`; returns the first
/// violated invariant.
fn validate(
    dag: &Dag,
    initial: usize,
    trace: &[TraceEvent],
    unfinished_jobs: usize,
    makespan: f64,
) -> Result<(), String> {
    let jobs = dag.job_count();
    let mut alive = vec![true; initial];
    let mut holder: Vec<Option<JobId>> = vec![None; initial];
    let mut running: Vec<Option<ResourceId>> = vec![None; jobs];
    let mut finished: Vec<Option<(ResourceId, f64)>> = vec![None; jobs];
    // Per producer: every (destination, arrival) its output was sent to.
    let mut arrivals: Vec<Vec<(ResourceId, f64)>> = vec![Vec::new(); jobs];
    let mut last_t = 0.0_f64;
    let mut last_finish = 0.0_f64;

    for (k, ev) in trace.iter().enumerate() {
        let t = ev.time();
        if t < last_t {
            return Err(format!("#{k} {ev:?}: time went back from {last_t}"));
        }
        last_t = t;
        let known = |r: ResourceId| r.idx() < alive.len();
        match *ev {
            TraceEvent::JobStarted { job, resource: r, .. } => {
                if !known(r) || !alive[r.idx()] {
                    return Err(format!("#{k} {ev:?}: resource not alive"));
                }
                if let Some(other) = holder[r.idx()] {
                    return Err(format!("#{k} {ev:?}: resource busy with {other}"));
                }
                if running[job.idx()].is_some() || finished[job.idx()].is_some() {
                    return Err(format!("#{k} {ev:?}: job already running or finished"));
                }
                for &(p, _) in dag.preds(job) {
                    let Some((on, at)) = finished[p.idx()] else {
                        return Err(format!("#{k} {ev:?}: predecessor {p} not finished"));
                    };
                    if at > t + EPS {
                        return Err(format!("#{k} {ev:?}: predecessor {p} finishes at {at}"));
                    }
                    let here = on == r
                        || arrivals[p.idx()].iter().any(|&(to, arr)| to == r && arr <= t + EPS);
                    if !here {
                        return Err(format!("#{k} {ev:?}: data of {p} not on {r}"));
                    }
                }
                holder[r.idx()] = Some(job);
                running[job.idx()] = Some(r);
            }
            TraceEvent::JobFinished { job, resource: r, .. }
            | TraceEvent::JobAborted { job, resource: r, .. } => {
                if !known(r) || holder[r.idx()] != Some(job) {
                    return Err(format!("#{k} {ev:?}: job does not hold the resource"));
                }
                holder[r.idx()] = None;
                running[job.idx()] = None;
                if let TraceEvent::JobFinished { .. } = ev {
                    finished[job.idx()] = Some((r, t));
                    last_finish = t;
                }
            }
            TraceEvent::JobCrashed { job, resource: r, .. }
            | TraceEvent::JobKilled { job, resource: r, .. } => {
                if !known(r) || holder[r.idx()] != Some(job) {
                    return Err(format!("#{k} {ev:?}: job does not hold the resource"));
                }
            }
            TraceEvent::TransferStarted { producer, from, to, arrival, .. } => {
                match finished[producer.idx()] {
                    Some((on, at)) if on == from && at <= t + EPS => {}
                    state => {
                        return Err(format!("#{k} {ev:?}: producer finish is {state:?}"));
                    }
                }
                if !known(to) || arrival < t {
                    return Err(format!("#{k} {ev:?}: bad destination or arrival"));
                }
                arrivals[producer.idx()].push((to, arrival));
            }
            TraceEvent::ResourcesJoined { count, .. } => {
                alive.extend(std::iter::repeat_n(true, count as usize));
                holder.extend(std::iter::repeat_n(None, count as usize));
            }
            TraceEvent::ResourceLeft { resource: r, .. } => {
                if !known(r) || !alive[r.idx()] {
                    return Err(format!("#{k} {ev:?}: resource was not alive"));
                }
                alive[r.idx()] = false;
            }
            TraceEvent::ResourceRejoined { resource: r, .. } => {
                if !known(r) || alive[r.idx()] {
                    return Err(format!("#{k} {ev:?}: resource was not down"));
                }
                alive[r.idx()] = true;
            }
            TraceEvent::PlanReplaced { .. } | TraceEvent::PlanKept { .. } => {}
        }
    }

    let never_finished = finished.iter().filter(|f| f.is_none()).count();
    if never_finished != unfinished_jobs {
        return Err(format!("{never_finished} jobs never finished, report says {unfinished_jobs}"));
    }
    if last_finish.to_bits() != makespan.to_bits() {
        return Err(format!("last finish {last_finish} != makespan {makespan}"));
    }
    Ok(())
}

/// The three fault levels: none; transient resource failures with job
/// crashes; permanent resource failures with rarer crashes.
fn fault_levels() -> [(&'static str, FailureModel, JobFaultModel); 3] {
    [
        ("none", FailureModel::None, JobFaultModel::None),
        (
            "transient",
            FailureModel::Transient { mtbf: 300.0, mttr: 60.0 },
            JobFaultModel::CrashOnStart { prob: 0.1 },
        ),
        (
            "exponential",
            FailureModel::Exponential { mtbf: 400.0 },
            JobFaultModel::CrashOnStart { prob: 0.05 },
        ),
    ]
}

#[test]
fn every_policy_recovery_and_fault_level_leaves_a_valid_trace() {
    let dynamics = PoolDynamics::periodic_growth(INITIAL, 300.0, 0.25);
    // Every kind of trace record the matrix produced, so no check above
    // can pass vacuously.
    let mut kinds = HashSet::new();
    for seed in 1..=4u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let params = RandomDagParams { jobs: 30, ..RandomDagParams::paper_default() };
        let wf = generate(&params, &mut rng);
        let costs = wf.sample_table(INITIAL, &mut rng);
        for (level, failures, job_faults) in fault_levels() {
            for recovery in RECOVERY_NAMES {
                let cfg = RunConfig {
                    actual: ActualModel::Noisy { spread: 0.5 },
                    failures,
                    job_faults,
                    recovery: make_recovery(recovery).expect("registered recovery"),
                    record_trace: true,
                    ..RunConfig::default()
                };
                for policy in POLICY_NAMES {
                    let report = run_named_policy(
                        policy,
                        &wf.dag,
                        &costs,
                        &wf.costgen,
                        &dynamics,
                        seed,
                        &cfg,
                    );
                    let trace = report.trace.events();
                    let verdict =
                        validate(&wf.dag, INITIAL, trace, report.unfinished_jobs, report.makespan);
                    if let Err(why) = verdict {
                        panic!("{policy}+{recovery}, faults {level}, seed {seed}: {why}");
                    }
                    kinds.extend(trace.iter().map(std::mem::discriminant));
                }
            }
        }
    }
    assert_eq!(kinds.len(), 11, "every TraceEvent variant occurs in the matrix");
}

#[test]
fn validator_rejects_a_start_before_the_input_arrives() {
    // Two jobs, one edge: the consumer runs on another resource, so its
    // input must travel. Starting it before the transfer arrives is caught.
    let mut b = DagBuilder::new();
    let (a, c) = (b.add_job("a"), b.add_job("c"));
    b.add_edge(a, c, 5.0).unwrap();
    let dag = b.build().unwrap();
    let (r0, r1) = (ResourceId(0), ResourceId(1));
    let mut trace = vec![
        TraceEvent::JobStarted { t: 0.0, job: a, resource: r0 },
        TraceEvent::JobFinished { t: 2.0, job: a, resource: r0 },
        TraceEvent::TransferStarted { t: 2.0, producer: a, from: r0, to: r1, arrival: 7.0 },
        TraceEvent::JobStarted { t: 7.0, job: c, resource: r1 },
        TraceEvent::JobFinished { t: 9.0, job: c, resource: r1 },
    ];
    assert_eq!(validate(&dag, 2, &trace, 0, 9.0), Ok(()));
    trace[3] = TraceEvent::JobStarted { t: 6.0, job: c, resource: r1 };
    trace[4] = TraceEvent::JobFinished { t: 8.0, job: c, resource: r1 };
    let why = validate(&dag, 2, &trace, 0, 8.0).unwrap_err();
    assert!(why.contains("data of"), "{why}");
}
