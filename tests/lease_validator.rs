//! Independent lease-ledger validator: every run of the fairness × arrival
//! rate × tenant count matrix must leave a service trace whose leases add
//! up.
//!
//! The validator replays `ServiceReport::trace` from nothing but the
//! `ServiceConfig` — it never consults `SharedPool`, the admission loop or
//! the fairness policies, so it cannot inherit their bugs. It checks that:
//!
//! * trace times never decrease and never pass the report's `end`, which
//!   is the horizon, or the last event when the run drains;
//! * workflows arrive once each, in index order, tagged with a tenant
//!   below `tenants`;
//! * a workflow starts only while queued (arrived, holding no lease, not
//!   departed), leases `slice` resources, and the leased total never
//!   exceeds `capacity` after any event;
//! * every lease is released exactly once — by `Preempted`, `Finished` or
//!   `Stranded` of its workflow — or is still open at `end`; nothing is
//!   released without being held, and a preempted workflow queues again;
//! * only the `priority` policy preempts, and only a workflow of a
//!   strictly higher tenant id than the queued workflow it yields to;
//! * `admitted`, `finished`, `failed` and `preemptions` equal the event
//!   counts, and `in_flight` equals the open leases plus the queued
//!   workflows;
//! * each tenant's `busy_time` equals Σ slice × held time, open leases
//!   counted up to `end`, and `utilization` equals that total over
//!   `capacity × end`, both to 1e-9 relative.

use aheft::core::runner::RunConfig;
use aheft::core::service::{
    make_fairness, run_service, ArrivalProcess, FairnessPolicy, ServiceConfig, ServiceEvent,
    ServiceReport, FAIRNESS_NAMES,
};
use aheft::gridsim::fault::{FailureModel, JobFaultModel};
use aheft::workflow::generators::random::RandomDagParams;

/// Relative tolerance of the busy-time and utilization checks: the ledger
/// integrates piecewise between events, the validator per lease, so the
/// two sums round differently.
const REL: f64 = 1e-9;

/// A workflow's place in the replayed ledger.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Lease {
    /// Arrived (or preempted) and waiting for a slice.
    Queued,
    /// Holding `slice` resources since `since`.
    Held { since: f64, slice: usize },
    /// Left the system by `Finished` or `Stranded`.
    Departed,
}

fn close(got: f64, want: f64) -> bool {
    (got - want).abs() <= REL * got.abs().max(want.abs())
}

/// Replay `report.trace` against `cfg`; returns the number of leases still
/// open at `end`, or the first violated invariant.
fn validate(cfg: &ServiceConfig, report: &ServiceReport) -> Result<usize, String> {
    let mut tenant_of: Vec<usize> = Vec::new();
    let mut lease: Vec<Lease> = Vec::new();
    let mut leased = 0usize;
    let mut busy = vec![0.0_f64; cfg.tenants];
    let (mut finished, mut failed, mut preemptions) = (0usize, 0usize, 0usize);
    let mut last_t = 0.0_f64;

    for (k, ev) in report.trace.iter().enumerate() {
        let (t, w) = match *ev {
            ServiceEvent::Arrived { t, workflow, .. }
            | ServiceEvent::Started { t, workflow, .. }
            | ServiceEvent::Preempted { t, workflow, .. }
            | ServiceEvent::Finished { t, workflow }
            | ServiceEvent::Stranded { t, workflow } => (t, workflow),
        };
        if t < last_t || t > report.end {
            return Err(format!("#{k} {ev:?}: time outside [{last_t}, end {}]", report.end));
        }
        last_t = t;
        if let ServiceEvent::Arrived { tenant, .. } = *ev {
            if w != tenant_of.len() || tenant >= cfg.tenants {
                return Err(format!(
                    "#{k} {ev:?}: expected workflow {} of a known tenant",
                    lease.len()
                ));
            }
            tenant_of.push(tenant);
            lease.push(Lease::Queued);
            continue;
        }
        if w >= lease.len() {
            return Err(format!("#{k} {ev:?}: workflow never arrived"));
        }
        match *ev {
            ServiceEvent::Started { slice, .. } => {
                if lease[w] != Lease::Queued {
                    return Err(format!("#{k} {ev:?}: workflow is {:?}, not queued", lease[w]));
                }
                if slice != cfg.slice {
                    return Err(format!("#{k} {ev:?}: slice is not {}", cfg.slice));
                }
                leased += slice;
                if leased > cfg.capacity {
                    return Err(format!(
                        "#{k} {ev:?}: {leased} leased > capacity {}",
                        cfg.capacity
                    ));
                }
                lease[w] = Lease::Held { since: t, slice };
                continue;
            }
            ServiceEvent::Preempted { by, .. } => {
                if cfg.fairness != FairnessPolicy::Priority {
                    return Err(format!("#{k} {ev:?}: {:?} never preempts", cfg.fairness));
                }
                if lease.get(by) != Some(&Lease::Queued) || tenant_of[by] >= tenant_of[w] {
                    return Err(format!(
                        "#{k} {ev:?}: the claimant is not a queued, higher-priority workflow"
                    ));
                }
            }
            _ => {}
        }
        // Every remaining event releases `w`'s lease.
        let Lease::Held { since, slice } = lease[w] else {
            return Err(format!("#{k} {ev:?}: releases a lease the workflow does not hold"));
        };
        busy[tenant_of[w]] += slice as f64 * (t - since);
        leased -= slice;
        lease[w] = match *ev {
            ServiceEvent::Preempted { .. } => {
                preemptions += 1;
                Lease::Queued
            }
            ServiceEvent::Finished { .. } => {
                finished += 1;
                Lease::Departed
            }
            _ => {
                failed += 1;
                Lease::Departed
            }
        };
    }

    let want_end = cfg.horizon.unwrap_or(last_t);
    if report.end.to_bits() != want_end.to_bits() {
        return Err(format!("end {} is not {want_end}", report.end));
    }
    let (mut open, mut queued) = (0usize, 0usize);
    for (w, l) in lease.iter().enumerate() {
        match *l {
            Lease::Held { since, slice } => {
                busy[tenant_of[w]] += slice as f64 * (report.end - since);
                open += 1;
            }
            Lease::Queued => queued += 1,
            Lease::Departed => {}
        }
    }
    let counts = (report.admitted, report.finished, report.failed, report.preemptions);
    let want = (lease.len(), finished, failed, preemptions);
    if counts != want {
        return Err(format!(
            "(admitted, finished, failed, preemptions) {counts:?}, trace says {want:?}"
        ));
    }
    if report.in_flight != open + queued {
        return Err(format!("in_flight {}, trace leaves {open} + {queued}", report.in_flight));
    }
    if report.tenants.len() != cfg.tenants {
        return Err(format!("{} tenant rows for {} tenants", report.tenants.len(), cfg.tenants));
    }
    for (row, &want) in report.tenants.iter().zip(&busy) {
        if !close(row.busy_time, want) {
            return Err(format!(
                "tenant {} busy_time {}, leases sum to {want}",
                row.tenant, row.busy_time
            ));
        }
    }
    let total: f64 = busy.iter().sum();
    let want_util = if report.end > 0.0 { total / (cfg.capacity as f64 * report.end) } else { 0.0 };
    if !close(report.utilization, want_util) {
        return Err(format!("utilization {}, leases give {want_util}", report.utilization));
    }
    Ok(open)
}

const RATES: [f64; 3] = [0.0005, 0.002, 0.01];
const TENANTS: [usize; 3] = [1, 2, 4];
const WORKFLOWS: usize = 8;

/// How a matrix cell's run is observed.
#[derive(Debug, Clone, Copy)]
enum Variant {
    /// Fault-free, drained to the last event.
    Drain,
    /// Fault-free, cut at half the expected arrival window, so leases are
    /// still held and workflows still queued at the end.
    Horizon,
    /// Permanent resource failures on every slice: some inner runs lose
    /// their whole slice and end `Stranded`.
    Faults,
}

fn config(fairness: &str, rate: f64, tenants: usize, seed: u64, variant: Variant) -> ServiceConfig {
    let run = match variant {
        Variant::Faults => RunConfig {
            failures: FailureModel::Exponential { mtbf: 1000.0 },
            job_faults: JobFaultModel::CrashOnStart { prob: 0.05 },
            ..RunConfig::default()
        },
        Variant::Drain | Variant::Horizon => RunConfig::default(),
    };
    ServiceConfig {
        tenants,
        arrivals: ArrivalProcess::Poisson { rate },
        workflows: WORKFLOWS,
        capacity: 5,
        slice: 2,
        fairness: make_fairness(fairness).expect("registered fairness"),
        workload: RandomDagParams { jobs: 10, ..RandomDagParams::paper_default() },
        run,
        horizon: match variant {
            Variant::Horizon => Some(0.5 * WORKFLOWS as f64 / rate),
            Variant::Drain | Variant::Faults => None,
        },
        seed,
        ..ServiceConfig::default()
    }
}

#[test]
fn every_fairness_policy_rate_and_tenant_count_keeps_a_consistent_lease_ledger() {
    // How often the matrix exercised each branch, so no check above can
    // pass vacuously.
    let (mut preempted, mut stranded, mut open_at_end) = (0usize, 0usize, 0usize);
    for fairness in FAIRNESS_NAMES {
        for rate in RATES {
            for tenants in TENANTS {
                for seed in 1..=4u64 {
                    for variant in [Variant::Drain, Variant::Horizon, Variant::Faults] {
                        let cfg = config(fairness, rate, tenants, seed, variant);
                        let report = run_service(&cfg);
                        match validate(&cfg, &report) {
                            Ok(open) => open_at_end += open,
                            Err(why) => panic!(
                                "{fairness}, rate {rate}, {tenants} tenants, seed {seed}, \
                                 {variant:?}: {why}"
                            ),
                        }
                        preempted += report.preemptions;
                        stranded += report.failed;
                    }
                }
            }
        }
    }
    assert!(preempted > 0, "the matrix never preempted");
    assert!(stranded > 0, "the matrix never stranded a workflow");
    assert!(open_at_end > 0, "no lease was still open at a horizon");
}

#[test]
fn validator_rejects_a_preemption_that_keeps_its_lease() {
    // A real priority run that preempts, with one Preempted record
    // dropped: the victim still holds its lease when the claimant starts
    // (over capacity) or when it starts again itself (double lease).
    let cfg = (1..=4u64)
        .map(|seed| config("priority", 0.01, 4, seed, Variant::Drain))
        .find(|cfg| run_service(cfg).preemptions > 0)
        .expect("a preempting run among the seeds");
    let mut report = run_service(&cfg);
    assert!(validate(&cfg, &report).is_ok());
    let first = report
        .trace
        .iter()
        .position(|e| matches!(e, ServiceEvent::Preempted { .. }))
        .expect("the run preempts");
    report.trace.remove(first);
    let why = validate(&cfg, &report).unwrap_err();
    assert!(why.contains("capacity") || why.contains("not queued"), "{why}");
}
