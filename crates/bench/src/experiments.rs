//! One function per paper artifact. Each returns [`TextTable`]s ready to
//! print and persist; the binary in `src/bin/experiments.rs` dispatches.
//!
//! Every artifact expands its parameter grid into an ordered list of **row
//! groups** — one group of independent [`Case`] descriptors per output row
//! — and executes them as a single flat parallel sweep through
//! [`run_sharded`]. Case seeds are functions of the grid coordinates, so
//! results are bit-identical for any `--threads` value and any `--shard`
//! split (pinned by `tests/sweep_determinism.rs`).
//!
//! Absolute makespans use `ω_DAG = 100` time units (the paper never states
//! its unit), so only *shapes* — orderings, trends, crossovers — are
//! comparable to the paper's absolute numbers. Each table's note carries
//! the paper's reference values.

use aheft_core::aheft::AheftConfig;
use aheft_core::policy::run_named_policy;
use aheft_core::recovery::{make_recovery, RECOVERY_NAMES};
use aheft_core::runner::RunConfig;
use aheft_core::{ReschedulePolicy, SlotPolicy};
use aheft_gridsim::fault::{FailureModel, JobFaultModel};
use aheft_gridsim::stats::Running;
use aheft_workflow::generators::blast::AppDagParams;
use aheft_workflow::generators::random::RandomDagParams;
use aheft_workflow::sample;

use crate::harness::{
    mix_seed, run_case, run_policy_case, run_robustness_case, Case, CaseResult, Workload,
    ROBUSTNESS_NOISE_SPREAD,
};
use crate::scale::Scale;
use crate::sweep::{run_sharded, SweepConfig};
use crate::tables::{mk, pct, TextTable};

// The multi-tenant service artifact lives in its own module; re-exported
// here so every artifact is reachable as `experiments::<name>`.
pub use crate::multitenant::table as multitenant;

/// Subsample `values` with the scale's stride, always keeping the first and
/// last (the extremes define the trend).
fn strided<T: Copy>(values: &[T], scale: Scale) -> Vec<T> {
    let stride = scale.stride();
    let mut out: Vec<T> = values.iter().copied().step_by(stride).collect();
    if let (Some(&last), Some(&tail)) = (values.last(), out.last()) {
        let _ = tail;
        let keep_last = !(values.len() - 1).is_multiple_of(stride);
        if keep_last {
            out.push(last);
        }
    }
    out
}

// Paper Table 2 values.
const JOBS: [usize; 5] = [20, 40, 60, 80, 100];
const CCR: [f64; 5] = [0.1, 0.5, 1.0, 5.0, 10.0];
const OUT_DEGREE: [f64; 5] = [0.1, 0.2, 0.3, 0.4, 1.0];
const BETA: [f64; 5] = [0.1, 0.25, 0.5, 0.75, 1.0];
const POOL: [usize; 5] = [10, 20, 30, 40, 50];
const DELTA: [f64; 4] = [400.0, 800.0, 1200.0, 1600.0];
const FRACTION: [f64; 4] = [0.10, 0.15, 0.20, 0.25];

// Paper Table 5 values (applications).
const APP_CCR: [f64; 5] = [0.1, 0.5, 1.0, 5.0, 10.0];
const APP_POOL: [usize; 5] = [20, 40, 60, 80, 100];

/// Build the random-DAG case grid, optionally pinning one axis.
fn random_cases(scale: Scale, pin_ccr: Option<f64>, pin_jobs: Option<usize>) -> Vec<Case> {
    let jobs = pin_jobs.map_or_else(|| strided(&JOBS, scale), |v| vec![v]);
    let ccrs = pin_ccr.map_or_else(|| strided(&CCR, scale), |c| vec![c]);
    let outs = strided(&OUT_DEGREE, scale);
    let betas = strided(&BETA, scale);
    let pools = strided(&POOL, scale);
    let deltas = strided(&DELTA, scale);
    let fracs = strided(&FRACTION, scale);
    let mut cases = Vec::new();
    for &v in &jobs {
        for &ccr in &ccrs {
            for &out in &outs {
                for &beta in &betas {
                    for inst in 0..scale.instances() as u64 {
                        for (&r, (&dl, &fr)) in
                            pools.iter().zip(deltas.iter().cycle().zip(fracs.iter().cycle()))
                        {
                            let seed = mix_seed(
                                mix_seed(v as u64, (ccr * 10.0) as u64),
                                mix_seed(
                                    (out * 10.0) as u64 + 1000 * (beta * 100.0) as u64,
                                    inst + 31 * r as u64,
                                ),
                            );
                            cases.push(Case {
                                workload: Workload::Random(RandomDagParams {
                                    jobs: v,
                                    out_degree: out,
                                    ccr,
                                    beta,
                                    omega_dag: 100.0,
                                }),
                                resources: r,
                                delta_interval: Some(dl),
                                delta_fraction: fr,
                                seed,
                            });
                        }
                    }
                }
            }
        }
    }
    cases
}

/// Build the application case grid for one workload constructor.
#[allow(clippy::too_many_arguments)]
fn app_cases(
    scale: Scale,
    make: fn(AppDagParams) -> Workload,
    parallelism: &[usize],
    ccrs: &[f64],
    betas: &[f64],
    pools: &[usize],
    deltas: &[f64],
    fracs: &[f64],
) -> Vec<Case> {
    let mut cases = Vec::new();
    for &n in parallelism {
        for &ccr in ccrs {
            for &beta in betas {
                for &r in pools {
                    for &dl in deltas {
                        for &fr in fracs {
                            for s in 0..scale.seeds() {
                                let seed = mix_seed(
                                    mix_seed(n as u64, (ccr * 10.0) as u64 + 7 * r as u64),
                                    mix_seed((beta * 100.0) as u64 + dl as u64, s),
                                );
                                cases.push(Case {
                                    workload: make(AppDagParams {
                                        parallelism: n,
                                        ccr,
                                        beta,
                                        omega_dag: 100.0,
                                    }),
                                    resources: r,
                                    delta_interval: Some(dl),
                                    delta_fraction: fr,
                                    seed,
                                });
                            }
                        }
                    }
                }
            }
        }
    }
    cases
}

/// Swept application axes `(ccr, beta, pool, delta, fraction)`.
type AppAxes = (Vec<f64>, Vec<f64>, Vec<usize>, Vec<f64>, Vec<f64>);

/// An application-workload constructor (BLAST, WIEN2K, …).
type MakeApp = fn(AppDagParams) -> Workload;

/// Default (non-swept) application axes: a light average representative of
/// Table 5's grid.
fn app_defaults(scale: Scale) -> AppAxes {
    match scale {
        Scale::Smoke => (vec![1.0], vec![0.5], vec![20], vec![400.0], vec![0.10]),
        Scale::Default => (vec![1.0], vec![0.5], vec![20, 60], vec![400.0, 1200.0], vec![0.10]),
        Scale::Full => {
            (APP_CCR.to_vec(), BETA.to_vec(), APP_POOL.to_vec(), DELTA.to_vec(), FRACTION.to_vec())
        }
    }
}

fn mean_improvement(results: &[CaseResult]) -> (Running, Running, f64) {
    let mut heft = Running::new();
    let mut aheft = Running::new();
    let mut imp = Running::new();
    for r in results {
        heft.push(r.heft);
        aheft.push(r.aheft);
        imp.push(r.improvement());
    }
    (heft, aheft, imp.mean())
}

/// Concatenate the two application series of one row group (paper Tables
/// 7/8, Fig. 8): BLAST cases first, WIEN2K after the returned split index.
fn two_app_group(blast: Vec<Case>, wien2k: Vec<Case>) -> (Vec<Case>, usize) {
    let split = blast.len();
    let mut cases = blast;
    cases.extend(wien2k);
    (cases, split)
}

// ---------------------------------------------------------------------------
// Paper artifacts
// ---------------------------------------------------------------------------

/// Fig. 4/5 — the worked example, with ASCII Gantt charts.
pub fn fig5() -> Vec<TextTable> {
    use aheft_workflow::CostGenerator;
    let dag = sample::fig4_dag();
    let costs = sample::fig4_costs_initial();
    let costgen = CostGenerator::new(sample::fig4_r4_column(), 0.0).expect("valid");
    let dynamics =
        aheft_gridsim::pool::PoolDynamics::periodic_growth(3, sample::FIG4_R4_ARRIVAL, 1.0 / 3.0)
            .with_cap(4);
    let cfg = RunConfig { record_trace: true, ..Default::default() };
    let run = |name| run_named_policy(name, &dag, &costs, &costgen, &dynamics, 1, &cfg);
    let (heft, aheft, pinned) = (run("heft"), run("aheft"), run("aheft-pin"));

    let mut t = TextTable::new(
        "Fig. 5 — worked example (r4 joins at t=15)",
        &["strategy", "makespan", "evaluations", "reschedules"],
    );
    t.row(vec!["HEFT (static)".into(), mk(heft.makespan), "0".into(), "0".into()]);
    t.row(vec![
        "AHEFT (abort running)".into(),
        mk(aheft.makespan),
        aheft.evaluations.to_string(),
        aheft.reschedules.to_string(),
    ]);
    t.row(vec![
        "AHEFT (pin running)".into(),
        mk(pinned.makespan),
        pinned.evaluations.to_string(),
        pinned.reschedules.to_string(),
    ]);
    t.note = format!(
        "paper: HEFT 80, AHEFT 76. Our candidates at t=15 are 81/80 (see EXPERIMENTS.md); \
         the accept-if-better rule keeps the 80 plan. Gantt (HEFT):\n{}",
        heft.trace.gantt(&dag, 3, 60)
    );
    vec![t]
}

/// §4.2 headline — average makespans of HEFT, AHEFT and dynamic Min-Min
/// over the random-DAG campaign. One row group: the whole campaign.
pub fn headline(scale: Scale, cfg: &SweepConfig) -> TextTable {
    let groups = vec![random_cases(scale, None, None)];
    let total = groups[0].len();
    let mut t = TextTable::new(
        "§4.2 headline — average makespan over random DAGs",
        &["strategy", "avg makespan", "vs HEFT"],
    );
    for (_, results) in run_sharded(&groups, cfg, |c| run_case(c, true)) {
        let mut heft = Running::new();
        let mut aheft = Running::new();
        let mut minmin = Running::new();
        for r in &results {
            heft.push(r.heft);
            aheft.push(r.aheft);
            minmin.push(r.minmin.expect("headline runs min-min"));
        }
        t.row(vec!["HEFT".into(), mk(heft.mean()), "-".into()]);
        t.row(vec![
            "AHEFT".into(),
            mk(aheft.mean()),
            pct(aheft_core::metrics::improvement_rate(heft.mean(), aheft.mean())),
        ]);
        t.row(vec![
            "Min-Min (dynamic)".into(),
            mk(minmin.mean()),
            pct(aheft_core::metrics::improvement_rate(heft.mean(), minmin.mean())),
        ]);
    }
    t.note = format!(
        "paper: HEFT 4075, AHEFT 3911, Min-Min 12352 ({total} cases here; paper used 500,000)"
    );
    t
}

/// Table 3 — improvement rate of AHEFT over HEFT vs CCR (random DAGs).
/// One row group per CCR value.
pub fn table3(scale: Scale, cfg: &SweepConfig) -> TextTable {
    let mut t = TextTable::new(
        "Table 3 — improvement rate vs CCR (random DAGs)",
        &["CCR", "HEFT", "AHEFT", "improvement"],
    );
    let groups: Vec<Vec<Case>> =
        CCR.iter().map(|&ccr| random_cases(scale, Some(ccr), None)).collect();
    let total: usize = groups.iter().map(Vec::len).sum::<usize>();
    for (gi, results) in run_sharded(&groups, cfg, |c| run_case(c, false)) {
        let (h, a, imp) = mean_improvement(&results);
        t.row(vec![format!("{}", CCR[gi]), mk(h.mean()), mk(a.mean()), pct(imp)]);
    }
    t.note = format!(
        "paper: 0.4% / 0.5% / 0.7% / 3.2% / 7.7% — improvement rises with CCR ({total} cases)"
    );
    t
}

/// Table 4 — improvement rate vs total number of jobs (random DAGs).
/// One row group per DAG size.
pub fn table4(scale: Scale, cfg: &SweepConfig) -> TextTable {
    let mut t = TextTable::new(
        "Table 4 — improvement rate vs number of jobs (random DAGs)",
        &["jobs", "HEFT", "AHEFT", "improvement"],
    );
    let groups: Vec<Vec<Case>> = JOBS.iter().map(|&v| random_cases(scale, None, Some(v))).collect();
    let total: usize = groups.iter().map(Vec::len).sum::<usize>();
    for (gi, results) in run_sharded(&groups, cfg, |c| run_case(c, false)) {
        let (h, a, imp) = mean_improvement(&results);
        t.row(vec![JOBS[gi].to_string(), mk(h.mean()), mk(a.mean()), pct(imp)]);
    }
    t.note =
        format!("paper: 2.9% / 3.9% / 4.3% / 4.2% / 4.1% — jumps then stabilises ({total} cases)");
    t
}

/// Table 6 — average makespan and improvement for BLAST and WIEN2K.
/// One row group per application.
pub fn table6(scale: Scale, cfg: &SweepConfig) -> TextTable {
    let (ccrs, betas, pools, deltas, fracs) = app_defaults(scale);
    let mut t = TextTable::new(
        "Table 6 — BLAST / WIEN2K average makespan",
        &["application", "HEFT", "AHEFT", "improvement"],
    );
    let apps =
        [("BLAST", Workload::Blast as fn(AppDagParams) -> Workload), ("WIEN2K", Workload::Wien2k)];
    let groups: Vec<Vec<Case>> = apps
        .iter()
        .map(|&(_, make)| {
            app_cases(scale, make, &scale.app_parallelism(), &ccrs, &betas, &pools, &deltas, &fracs)
        })
        .collect();
    let total: usize = groups.iter().map(Vec::len).sum::<usize>();
    for (gi, results) in run_sharded(&groups, cfg, |c| run_case(c, false)) {
        let (h, a, imp) = mean_improvement(&results);
        t.row(vec![apps[gi].0.into(), mk(h.mean()), mk(a.mean()), pct(imp)]);
    }
    t.note = format!("paper: BLAST 4939->3933 (20.4%), WIEN2K 3452->3234 (6.3%) ({total} cases)");
    t
}

/// Table 7 — improvement rate vs parallelism for BLAST and WIEN2K.
/// One row group per parallelism value (both applications in the group).
pub fn table7(scale: Scale, cfg: &SweepConfig) -> TextTable {
    let (ccrs, betas, pools, deltas, fracs) = app_defaults(scale);
    let mut t = TextTable::new(
        "Table 7 — improvement rate vs number of jobs (applications)",
        &["parallelism", "BLAST", "WIEN2K"],
    );
    let ns = scale.app_parallelism();
    let (groups, splits): (Vec<Vec<Case>>, Vec<usize>) = ns
        .iter()
        .map(|&n| {
            two_app_group(
                app_cases(scale, Workload::Blast, &[n], &ccrs, &betas, &pools, &deltas, &fracs),
                app_cases(scale, Workload::Wien2k, &[n], &ccrs, &betas, &pools, &deltas, &fracs),
            )
        })
        .unzip();
    for (gi, results) in run_sharded(&groups, cfg, |c| run_case(c, false)) {
        let (blast, wien2k) = results.split_at(splits[gi]);
        let mut cells = vec![ns[gi].to_string()];
        for series in [blast, wien2k] {
            let (_, _, imp) = mean_improvement(series);
            cells.push(pct(imp));
        }
        t.row(cells);
    }
    t.note = "paper: BLAST 15.9->23.6% rising; WIEN2K 2.2->9.4% rising".into();
    t
}

/// Table 8 — improvement rate vs CCR for BLAST and WIEN2K.
/// One row group per CCR value (both applications in the group).
pub fn table8(scale: Scale, cfg: &SweepConfig) -> TextTable {
    let (_, betas, pools, deltas, fracs) = app_defaults(scale);
    let mut t = TextTable::new(
        "Table 8 — improvement rate vs CCR (applications)",
        &["CCR", "BLAST", "WIEN2K"],
    );
    let ns = scale.app_parallelism();
    let (groups, splits): (Vec<Vec<Case>>, Vec<usize>) = APP_CCR
        .iter()
        .map(|&ccr| {
            two_app_group(
                app_cases(scale, Workload::Blast, &ns, &[ccr], &betas, &pools, &deltas, &fracs),
                app_cases(scale, Workload::Wien2k, &ns, &[ccr], &betas, &pools, &deltas, &fracs),
            )
        })
        .unzip();
    for (gi, results) in run_sharded(&groups, cfg, |c| run_case(c, false)) {
        let (blast, wien2k) = results.split_at(splits[gi]);
        let mut cells = vec![format!("{}", APP_CCR[gi])];
        for series in [blast, wien2k] {
            let (_, _, imp) = mean_improvement(series);
            cells.push(pct(imp));
        }
        t.row(cells);
    }
    t.note = "paper: BLAST 16.1/15.5/14.3/19.1/26.1%; WIEN2K 7.3/7.3/6.6/5.3/6.4%".into();
    t
}

/// Fig. 8 — average makespan of HEFT1/AHEFT1 (BLAST) and HEFT2/AHEFT2
/// (WIEN2K) against one swept parameter (`which` in `'a'..='f'`).
/// One row group per x-value (both applications in the group).
pub fn fig8(scale: Scale, which: char, cfg: &SweepConfig) -> TextTable {
    // Defaults for the non-swept axes.
    let default_n = match scale {
        Scale::Smoke => 50,
        _ => 200,
    };
    let base = AppDagParams { parallelism: default_n, ccr: 1.0, beta: 0.5, omega_dag: 100.0 };
    let (def_r, def_delta, def_frac) = (20usize, 400.0f64, 0.10f64);

    let (title, xlabel, xs): (&str, &str, Vec<f64>) = match which {
        'a' => ("Fig. 8(a) — makespan vs CCR", "CCR", APP_CCR.to_vec()),
        'b' => ("Fig. 8(b) — makespan vs beta", "beta", BETA.to_vec()),
        'c' => (
            "Fig. 8(c) — makespan vs number of jobs",
            "parallelism",
            scale.app_parallelism().iter().map(|&n| n as f64).collect(),
        ),
        'd' => (
            "Fig. 8(d) — makespan vs initial resource pool",
            "R",
            APP_POOL.iter().map(|&r| r as f64).collect(),
        ),
        'e' => ("Fig. 8(e) — makespan vs change interval", "delta", DELTA.to_vec()),
        'f' => ("Fig. 8(f) — makespan vs change fraction", "fraction", FRACTION.to_vec()),
        _ => panic!("fig8 sub-figure must be a..f"),
    };

    let series_cases = |make: fn(AppDagParams) -> Workload, x: f64| -> Vec<Case> {
        let mut params = base;
        let (mut r, mut dl, mut fr) = (def_r, def_delta, def_frac);
        match which {
            'a' => params.ccr = x,
            'b' => params.beta = x,
            'c' => params.parallelism = x as usize,
            'd' => r = x as usize,
            'e' => dl = x,
            'f' => fr = x,
            _ => unreachable!(),
        }
        (0..scale.seeds().max(2))
            .map(|s| Case {
                workload: make(params),
                resources: r,
                delta_interval: Some(dl),
                delta_fraction: fr,
                seed: mix_seed((x * 1000.0) as u64 + which as u64, s),
            })
            .collect()
    };

    let mut t = TextTable::new(title, &[xlabel, "HEFT1", "AHEFT1", "HEFT2", "AHEFT2"]);
    let (groups, splits): (Vec<Vec<Case>>, Vec<usize>) = xs
        .iter()
        .map(|&x| {
            two_app_group(series_cases(Workload::Blast, x), series_cases(Workload::Wien2k, x))
        })
        .unzip();
    for (gi, results) in run_sharded(&groups, cfg, |c| run_case(c, false)) {
        let (blast, wien2k) = results.split_at(splits[gi]);
        let mut cells = vec![format!("{}", xs[gi])];
        for series in [blast, wien2k] {
            let (h, a, _) = mean_improvement(series);
            cells.push(mk(h.mean()));
            cells.push(mk(a.mean()));
        }
        t.row(cells);
    }
    t.note = "series: HEFT1/AHEFT1 = BLAST, HEFT2/AHEFT2 = WIEN2K (paper Fig. 8)".into();
    t
}

// ---------------------------------------------------------------------------
// Policy matrix
// ---------------------------------------------------------------------------

/// Policy matrix (ours) — every requested policy executed on one *shared*
/// random-DAG grid and paired against static HEFT on identical grids (the
/// paper's paired methodology extended to the whole registry).
///
/// `policies` comes from the `--policy` flag (already validated); empty
/// means the full registry. One row group per policy, in request order, so
/// `--shard` partitions rows exactly like the paper tables. The grid pins
/// CCR to 1.0 (the paper's balanced regime) and sweeps the remaining
/// random-DAG axes at the given scale.
pub fn policy_matrix(scale: Scale, cfg: &SweepConfig, policies: &[String]) -> TextTable {
    let names: Vec<String> = if policies.is_empty() {
        aheft_core::policy::POLICY_NAMES.iter().map(|s| s.to_string()).collect()
    } else {
        policies.to_vec()
    };
    let mut t = TextTable::new(
        "Policy matrix — registered policies on the shared random-DAG grid",
        &["policy", "avg makespan", "vs HEFT", "avg reschedules"],
    );
    let grid = random_cases(scale, Some(1.0), None);
    let per_policy = grid.len();
    let groups: Vec<Vec<(usize, Case)>> =
        (0..names.len()).map(|pi| grid.iter().map(|&c| (pi, c)).collect()).collect();
    for (gi, results) in run_sharded(&groups, cfg, |(pi, c)| run_policy_case(c, &names[*pi])) {
        let mut mks = Running::new();
        let mut heft = Running::new();
        let mut resch = Running::new();
        for r in &results {
            mks.push(r.makespan);
            heft.push(r.heft);
            resch.push(r.reschedules as f64);
        }
        t.row(vec![
            names[gi].clone(),
            mk(mks.mean()),
            pct(aheft_core::metrics::improvement_rate(heft.mean(), mks.mean())),
            format!("{:.1}", resch.mean()),
        ]);
    }
    t.note = format!(
        "paired vs static HEFT on identical grids; CCR pinned to 1.0 \
         ({per_policy} cases per policy)"
    );
    t
}

// ---------------------------------------------------------------------------
// Robustness (chaos matrix)
// ---------------------------------------------------------------------------

/// The chaos matrix's failure levels: `(label, resource failures, job
/// faults)`. Transient MTBF/MTTR are in the same `ω_DAG = 100` time units
/// as the makespans; MTTR is pinned to MTBF/5 so availability stays at
/// ~83% across levels and only the churn *rate* varies.
const FAULT_LEVELS: [(&str, FailureModel, JobFaultModel); 3] = [
    (
        "low",
        FailureModel::Transient { mtbf: 2000.0, mttr: 400.0 },
        JobFaultModel::CrashOnStart { prob: 0.02 },
    ),
    (
        "med",
        FailureModel::Transient { mtbf: 800.0, mttr: 160.0 },
        JobFaultModel::CrashOnStart { prob: 0.05 },
    ),
    (
        "high",
        FailureModel::Transient { mtbf: 300.0, mttr: 60.0 },
        JobFaultModel::CrashOnStart { prob: 0.10 },
    ),
];

/// The scheduling policies the chaos matrix crosses with every failure
/// level and recovery policy: both planned families and both JIT families.
const ROBUSTNESS_POLICIES: [&str; 4] = ["heft", "aheft", "minmin", "ranked-jit"];

/// Robustness (ours) — the chaos matrix: failure level × recovery policy ×
/// scheduling policy on one shared random-DAG grid, every chaos run paired
/// with a fault-free run of the same policy on the identical grid. One row
/// group per matrix cell, in `level → recovery → policy` order, so
/// `--shard` partitions rows round-robin exactly like the paper tables.
pub fn robustness(scale: Scale, cfg: &SweepConfig) -> TextTable {
    let mut t = TextTable::new(
        "Robustness — makespan degradation under fault injection",
        &[
            "level",
            "recovery",
            "policy",
            "makespan",
            "clean",
            "degradation",
            "wasted",
            "retries",
            "rec latency",
            "downtime",
            "goodput",
            "unfinished",
        ],
    );
    let grid = random_cases(scale, Some(1.0), Some(40));
    let per_cell = grid.len();
    // A row coordinate (level, recovery, policy) rides along with each case.
    type Coord = (usize, usize, usize);
    let mut coords: Vec<Coord> = Vec::new();
    for li in 0..FAULT_LEVELS.len() {
        for ri in 0..RECOVERY_NAMES.len() {
            for pi in 0..ROBUSTNESS_POLICIES.len() {
                coords.push((li, ri, pi));
            }
        }
    }
    let groups: Vec<Vec<(Coord, Case)>> =
        coords.iter().map(|&co| grid.iter().map(|&c| (co, c)).collect()).collect();
    for (gi, results) in run_sharded(&groups, cfg, |&((li, ri, pi), ref c)| {
        let (_, failures, job_faults) = FAULT_LEVELS[li];
        let recovery = make_recovery(RECOVERY_NAMES[ri]).expect("registered recovery");
        run_robustness_case(c, ROBUSTNESS_POLICIES[pi], recovery, failures, job_faults)
    }) {
        let (li, ri, pi) = coords[gi];
        let mut chaos = Running::new();
        let mut clean = Running::new();
        let mut wasted = Running::new();
        let mut retries = Running::new();
        let mut latency = Running::new();
        let mut downtime = Running::new();
        let mut goodput = Running::new();
        let mut unfinished = 0usize;
        for r in &results {
            chaos.push(r.makespan);
            clean.push(r.clean);
            wasted.push(r.faults.wasted_work);
            retries.push(r.faults.retries as f64);
            latency.push(r.faults.recovery_latency);
            downtime.push(r.faults.downtime);
            goodput.push(r.faults.goodput);
            unfinished += r.unfinished;
        }
        let degradation = (chaos.mean() - clean.mean()) / clean.mean();
        t.row(vec![
            FAULT_LEVELS[li].0.into(),
            RECOVERY_NAMES[ri].into(),
            ROBUSTNESS_POLICIES[pi].into(),
            mk(chaos.mean()),
            mk(clean.mean()),
            pct(degradation),
            mk(wasted.mean()),
            format!("{:.1}", retries.mean()),
            mk(latency.mean()),
            mk(downtime.mean()),
            format!("{:.3}", goodput.mean()),
            unfinished.to_string(),
        ]);
    }
    t.note = format!(
        "transient resource failures (MTBF/MTTR per level) + job crash faults; \
         every chaos run paired with a fault-free run of the same policy on the \
         identical grid, both under x{ROBUSTNESS_NOISE_SPREAD} execution noise \
         ({per_cell} cases per cell)"
    );
    t
}

// ---------------------------------------------------------------------------
// Ablations
// ---------------------------------------------------------------------------

/// Which scheduler variant an ablation case evaluates.
#[derive(Clone, Copy)]
enum AblationRun {
    /// A registered policy under a run configuration; reports makespan,
    /// reschedules and evaluations.
    Named(&'static str, RunConfig),
    /// The standard HEFT-vs-AHEFT paired run.
    Paired,
}

/// One ablation case: a grid scenario plus the variant to evaluate.
#[derive(Clone, Copy)]
struct AblationCase {
    case: Case,
    run: AblationRun,
}

/// Uniform ablation result; each table reads the fields it reports.
#[derive(Clone, Copy, Default)]
struct AblationResult {
    makespan: f64,
    reschedules: f64,
    evaluations: f64,
    /// `(heft, aheft)` for [`AblationRun::Paired`] rows.
    paired: Option<(f64, f64, usize)>,
}

fn run_ablation(ac: &AblationCase) -> AblationResult {
    let AblationRun::Named(name, cfg) = ac.run else {
        let r = run_case(&ac.case, false);
        return AblationResult {
            paired: Some((r.heft, r.aheft, r.jobs)),
            makespan: r.aheft,
            reschedules: r.reschedules as f64,
            ..Default::default()
        };
    };
    let (wf, costs, sim_seed) = ac.case.materialize();
    let dynamics = ac.case.dynamics();
    let rep = run_named_policy(name, &wf.dag, &costs, &wf.costgen, &dynamics, sim_seed, &cfg);
    AblationResult {
        makespan: rep.makespan,
        reschedules: rep.reschedules as f64,
        evaluations: rep.evaluations as f64,
        paired: None,
    }
}

/// Design-choice ablations (ours; DESIGN.md §4). Five tables; every row is
/// one row group and each table runs as its own flat sweep, so `--shard`
/// partitions each table's rows by `row_index % m` exactly like the
/// single-table artifacts.
pub fn ablations(scale: Scale, sweep_cfg: &SweepConfig) -> Vec<TextTable> {
    let seeds = scale.seeds().max(2);
    let n = match scale {
        Scale::Smoke => 30,
        _ => 100,
    };

    let random_case = |jobs: usize, ccr: Option<f64>, dyn_pool: bool, tag: u64, s: u64| Case {
        workload: Workload::Random(RandomDagParams {
            jobs,
            ccr: ccr.unwrap_or(RandomDagParams::paper_default().ccr),
            ..RandomDagParams::paper_default()
        }),
        resources: 10,
        delta_interval: dyn_pool.then_some(400.0),
        delta_fraction: if dyn_pool { 0.10 } else { 0.0 },
        seed: mix_seed(tag, s),
    };
    let blast_case = |frac: f64, tag: u64, s: u64| Case {
        workload: Workload::Blast(AppDagParams { parallelism: n, ..AppDagParams::paper_default() }),
        resources: 10,
        delta_interval: Some(400.0),
        delta_fraction: frac,
        seed: mix_seed(tag, s),
    };

    // Row definitions: (row label, variant). Group order is the row order,
    // so shard splits partition whole rows.
    let slot = |slot_policy| {
        let aheft = AheftConfig { slot_policy, ..Default::default() };
        AblationRun::Named("heft", RunConfig { aheft, ..Default::default() })
    };
    let trigger = |policy| AblationRun::Named("aheft", RunConfig { policy, ..Default::default() });
    let named = |name| AblationRun::Named(name, RunConfig::default());
    let slot_rows = [
        ("insertion (HEFT [19])", slot(SlotPolicy::Insertion)),
        ("end-of-queue (Fig. 3)", slot(SlotPolicy::EndOfQueue)),
    ];
    let set_rows =
        [("abort running (paper text)", named("aheft")), ("pin running", named("aheft-pin"))];
    let policy_rows = [
        ("on pool change (paper)", trigger(ReschedulePolicy::OnPoolChange)),
        ("periodic 200", trigger(ReschedulePolicy::Periodic { period: 200.0 })),
        ("never (= static)", trigger(ReschedulePolicy::Never)),
    ];
    let dyn_rows = [
        ("Min-Min (paper)", named("minmin")),
        ("Max-Min", named("maxmin")),
        ("Sufferage", named("sufferage")),
    ];
    let shape_rows: Vec<(&str, MakeApp)> = vec![
        ("BLAST (wide)", Workload::Blast),
        ("WIEN2K (bottlenecked)", Workload::Wien2k),
        ("Montage (mixed)", Workload::Montage),
        ("Gauss (narrowing)", Workload::Gauss),
    ];

    // Each table shards independently (its row i belongs to shard i % m),
    // so the row ↔ shard rule of single-table artifacts holds for every
    // ablation table too and sharded CSVs merge the same way everywhere.
    let run_table = |groups: Vec<Vec<AblationCase>>| -> Vec<(usize, Vec<AblationResult>)> {
        run_sharded(&groups, sweep_cfg, run_ablation)
    };
    let mean = |rs: &[AblationResult], get: fn(&AblationResult) -> f64| -> f64 {
        let mut acc = Running::new();
        for r in rs {
            acc.push(get(r));
        }
        acc.mean()
    };

    let mut out = Vec::new();

    // 1. Insertion vs end-of-queue slot policy (HEFT on random DAGs).
    let mut t1 = TextTable::new(
        "Ablation — slot policy (static HEFT, random DAGs)",
        &["policy", "avg makespan"],
    );
    let groups = slot_rows
        .iter()
        .map(|&(_, run)| {
            (0..seeds * 8)
                .map(|s| AblationCase { case: random_case(n, None, false, 901, s), run })
                .collect()
        })
        .collect();
    for (gi, rs) in run_table(groups) {
        t1.row(vec![slot_rows[gi].0.into(), mk(mean(&rs, |r| r.makespan))]);
    }
    out.push(t1);

    // 2. Abort-and-restart vs pin-running at reschedule.
    let mut t2 = TextTable::new(
        "Ablation — running jobs at reschedule (AHEFT, BLAST)",
        &["mode", "avg makespan", "avg reschedules"],
    );
    let groups = set_rows
        .iter()
        .map(|&(_, run)| {
            (0..seeds * 4).map(|s| AblationCase { case: blast_case(0.25, 902, s), run }).collect()
        })
        .collect();
    for (gi, rs) in run_table(groups) {
        t2.row(vec![
            set_rows[gi].0.into(),
            mk(mean(&rs, |r| r.makespan)),
            format!("{:.1}", mean(&rs, |r| r.reschedules)),
        ]);
    }
    out.push(t2);

    // 3. Rescheduling trigger policy.
    let mut t3 = TextTable::new(
        "Ablation — rescheduling trigger (AHEFT, BLAST)",
        &["policy", "avg makespan", "avg evaluations"],
    );
    let groups = policy_rows
        .iter()
        .map(|&(_, run)| {
            (0..seeds * 4).map(|s| AblationCase { case: blast_case(0.25, 903, s), run }).collect()
        })
        .collect();
    for (gi, rs) in run_table(groups) {
        t3.row(vec![
            policy_rows[gi].0.into(),
            mk(mean(&rs, |r| r.makespan)),
            format!("{:.1}", mean(&rs, |r| r.evaluations)),
        ]);
    }
    out.push(t3);

    // 4. Dynamic heuristics.
    let mut t4 = TextTable::new(
        "Ablation — dynamic heuristics (random DAGs, CCR=5)",
        &["heuristic", "avg makespan"],
    );
    let groups = dyn_rows
        .iter()
        .map(|&(_, run)| {
            (0..seeds * 4)
                .map(|s| AblationCase {
                    case: random_case(n.min(60), Some(5.0), true, 904, s),
                    run,
                })
                .collect()
        })
        .collect();
    for (gi, rs) in run_table(groups) {
        t4.row(vec![dyn_rows[gi].0.into(), mk(mean(&rs, |r| r.makespan))]);
    }
    out.push(t4);

    // 5. Improvement by DAG shape (narrowing vs wide vs bottlenecked).
    let mut t5 = TextTable::new(
        "Ablation — improvement rate by DAG shape",
        &["shape", "HEFT", "AHEFT", "improvement"],
    );
    let groups = shape_rows
        .iter()
        .map(|&(_, make)| {
            (0..seeds * 4)
                .map(|s| AblationCase {
                    case: Case {
                        workload: make(AppDagParams {
                            parallelism: n.min(60),
                            ..AppDagParams::paper_default()
                        }),
                        resources: 10,
                        delta_interval: Some(400.0),
                        delta_fraction: 0.25,
                        seed: mix_seed(905, s),
                    },
                    run: AblationRun::Paired,
                })
                .collect()
        })
        .collect();
    for (gi, rs) in run_table(groups) {
        let paired: Vec<CaseResult> = rs
            .iter()
            .filter_map(|r| r.paired)
            .map(|(heft, aheft, jobs)| CaseResult {
                heft,
                aheft,
                minmin: None,
                reschedules: 0,
                jobs,
            })
            .collect();
        let (h, a, imp) = mean_improvement(&paired);
        t5.row(vec![shape_rows[gi].0.into(), mk(h.mean()), mk(a.mean()), pct(imp)]);
    }
    out.push(t5);

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::Shard;

    #[test]
    fn strided_keeps_extremes() {
        assert_eq!(strided(&[1, 2, 3, 4, 5], Scale::Default), vec![1, 3, 5]);
        assert_eq!(strided(&[1, 2, 3, 4, 5], Scale::Smoke), vec![1, 5]);
        assert_eq!(strided(&[1, 2, 3, 4, 5], Scale::Full), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn random_case_grid_is_nonempty_and_pinnable() {
        let all = random_cases(Scale::Smoke, None, None);
        assert!(!all.is_empty());
        let pinned = random_cases(Scale::Smoke, Some(5.0), Some(20));
        for c in &pinned {
            match c.workload {
                Workload::Random(p) => {
                    assert_eq!(p.ccr, 5.0);
                    assert_eq!(p.jobs, 20);
                }
                _ => panic!("random grid produced a non-random case"),
            }
        }
    }

    #[test]
    fn fig5_reports_three_strategies() {
        let tables = fig5();
        assert_eq!(tables[0].rows.len(), 3);
        assert_eq!(tables[0].rows[0][1], "80");
    }

    #[test]
    fn table3_rows_are_independent_of_thread_count() {
        let seq = table3(Scale::Smoke, &SweepConfig::sequential());
        let par = table3(Scale::Smoke, &SweepConfig::with_threads(4));
        assert_eq!(seq.rows, par.rows);
        assert_eq!(seq.rows.len(), CCR.len());
    }

    #[test]
    fn policy_matrix_rows_follow_request_order_and_are_deterministic() {
        let names: Vec<String> = vec!["ranked-jit".into(), "heft".into()];
        let seq = policy_matrix(Scale::Smoke, &SweepConfig::sequential(), &names);
        assert_eq!(seq.rows.len(), 2);
        assert_eq!(seq.rows[0][0], "ranked-jit");
        assert_eq!(seq.rows[1][0], "heft");
        // heft vs its own paired baseline is exactly 0.0%.
        assert!(seq.rows[1][2].starts_with("0.0"), "heft row: {:?}", seq.rows[1]);
        let par = policy_matrix(Scale::Smoke, &SweepConfig::with_threads(4), &names);
        assert_eq!(seq.rows, par.rows);
        // Empty request = the full registry, in registry order.
        let full = policy_matrix(Scale::Smoke, &SweepConfig::sequential(), &[]);
        assert_eq!(full.rows.len(), aheft_core::policy::POLICY_NAMES.len());
        for (row, name) in full.rows.iter().zip(aheft_core::policy::POLICY_NAMES) {
            assert_eq!(row[0], name);
        }
    }

    #[test]
    fn sharded_table_rows_union_to_full_run() {
        let full = table4(Scale::Smoke, &SweepConfig::sequential());
        let shard =
            |index| SweepConfig { shard: Shard { index, count: 2 }, ..SweepConfig::sequential() };
        let s0 = table4(Scale::Smoke, &shard(0));
        let s1 = table4(Scale::Smoke, &shard(1));
        // Groups are split round-robin, so interleave the shards' rows.
        let mut merged = Vec::new();
        let (mut i0, mut i1) = (s0.rows.iter(), s1.rows.iter());
        for gi in 0..full.rows.len() {
            let row = if gi % 2 == 0 { i0.next() } else { i1.next() };
            merged.push(row.expect("shard owns this row").clone());
        }
        assert_eq!(merged, full.rows);
    }
}
