//! Case definition and parallel sweep execution.
//!
//! A [`Case`] is one simulated grid scenario: a workload (random / BLAST /
//! WIEN2K / Montage / Gauss, with its parameters), an initial pool `R`, a
//! resource-change model `(Δ, δ)`, and a seed. [`run_case`] executes the
//! strategies on *the same* generated grid (identical DAG, identical cost
//! table, identical late-arrival columns), which is the paper's paired
//! methodology. Sweeps fan out through [`crate::sweep::run_sharded`].
//!
//! ## Seed streams
//!
//! A case's master seed is mixed from its grid *coordinates* (via
//! [`mix_seed`]), never from execution order, and [`case_streams`] splits
//! it into decorrelated sub-streams — one for DAG generation, one for
//! cost-table sampling, one for the simulator. Cost sampling therefore
//! does not depend on how many draws the DAG generator consumed, and the
//! AHEFT-vs-HEFT paired comparison sees an identical grid no matter which
//! thread, shard, or process evaluates the case.

use aheft_core::policy::run_named_policy;
use aheft_core::runner::RunConfig;
use aheft_core::RecoveryPolicy;
use aheft_gridsim::fault::{FailureModel, JobFaultModel};
use aheft_gridsim::pool::PoolDynamics;
use aheft_gridsim::predictor::ActualModel;
use aheft_gridsim::stats::FaultStats;
use aheft_workflow::generators::blast::AppDagParams;
use aheft_workflow::generators::random::RandomDagParams;
use aheft_workflow::generators::{blast, gauss, montage, random, wien2k, GeneratedWorkflow};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Which workload generator a case uses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Workload {
    /// Parametric random DAG (§4.2).
    Random(RandomDagParams),
    /// BLAST (§4.3).
    Blast(AppDagParams),
    /// WIEN2K (§4.3).
    Wien2k(AppDagParams),
    /// Montage-like (ablations).
    Montage(AppDagParams),
    /// Gaussian elimination (ablations).
    Gauss(AppDagParams),
}

impl Workload {
    /// Generate the workflow for this case.
    pub fn generate(&self, rng: &mut StdRng) -> GeneratedWorkflow {
        match self {
            Workload::Random(p) => random::generate(p, rng),
            Workload::Blast(p) => blast::generate(p, rng),
            Workload::Wien2k(p) => wien2k::generate(p, rng),
            Workload::Montage(p) => montage::generate(p, rng),
            Workload::Gauss(p) => gauss::generate(p, rng),
        }
    }

    /// Short label for tables.
    pub fn label(&self) -> &'static str {
        match self {
            Workload::Random(_) => "random",
            Workload::Blast(_) => "BLAST",
            Workload::Wien2k(_) => "WIEN2K",
            Workload::Montage(_) => "Montage",
            Workload::Gauss(_) => "Gauss",
        }
    }
}

/// One grid scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Case {
    /// The workload generator and its parameters.
    pub workload: Workload,
    /// Initial resource pool size `R`.
    pub resources: usize,
    /// Resource change interval `Δ` (`None` = static pool).
    pub delta_interval: Option<f64>,
    /// Resource change fraction `δ`.
    pub delta_fraction: f64,
    /// Master seed: drives DAG generation, cost sampling and late arrivals.
    pub seed: u64,
}

impl Case {
    /// The pool dynamics of this case.
    pub fn dynamics(&self) -> PoolDynamics {
        match self.delta_interval {
            Some(iv) => PoolDynamics::periodic_growth(self.resources, iv, self.delta_fraction),
            None => PoolDynamics::fixed(self.resources),
        }
    }

    /// Generate the grid this case describes: the workflow, its sampled
    /// cost table, and the simulator seed — each from its own sub-stream
    /// of the master seed (see [`case_streams`]).
    pub fn materialize(&self) -> (GeneratedWorkflow, aheft_workflow::CostTable, u64) {
        let (dag_seed, cost_seed, sim_seed) = case_streams(self.seed);
        let mut rng = StdRng::seed_from_u64(dag_seed);
        let wf = self.workload.generate(&mut rng);
        let costs = wf.sample_table_seeded(self.resources, cost_seed);
        (wf, costs, sim_seed)
    }
}

/// Makespans of the three strategies on one case (same grid for all).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CaseResult {
    /// Static HEFT makespan.
    pub heft: f64,
    /// Adaptive AHEFT makespan.
    pub aheft: f64,
    /// Dynamic Min-Min makespan (`None` when not requested).
    pub minmin: Option<f64>,
    /// Accepted reschedules in the AHEFT run.
    pub reschedules: usize,
    /// Jobs in the DAG.
    pub jobs: usize,
}

impl CaseResult {
    /// The paper's improvement rate of AHEFT over HEFT.
    pub fn improvement(&self) -> f64 {
        aheft_core::metrics::improvement_rate(self.heft, self.aheft)
    }
}

/// The decorrelated RNG streams of one case, all derived from the master
/// seed: `(dag, costs, sim)`. See the module docs ("Seed streams").
pub fn case_streams(seed: u64) -> (u64, u64, u64) {
    // Fixed stream tags; any distinct constants work, mix_seed decorrelates.
    (mix_seed(seed, 0xDA6), mix_seed(seed, 0xC057), mix_seed(seed, 0x51A1))
}

/// Execute one case. `with_minmin` also runs the dynamic baseline (it can
/// be an order of magnitude slower on data-intensive cases, exactly as the
/// paper reports, so tables that do not need it skip it).
pub fn run_case(case: &Case, with_minmin: bool) -> CaseResult {
    let (wf, costs, sim_seed) = case.materialize();
    let dynamics = case.dynamics();
    let cfg = RunConfig::default();
    let run =
        |name| run_named_policy(name, &wf.dag, &costs, &wf.costgen, &dynamics, sim_seed, &cfg);
    let heft = run("heft");
    let aheft = run("aheft");
    let minmin = with_minmin.then(|| run("minmin").makespan);
    CaseResult {
        heft: heft.makespan,
        aheft: aheft.makespan,
        minmin,
        reschedules: aheft.reschedules,
        jobs: wf.dag.job_count(),
    }
}

/// One named policy's makespan on a case, paired with the static-HEFT
/// baseline on the *same* generated grid (the paper's methodology extended
/// to the whole policy registry).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicyCaseResult {
    /// Makespan of the named policy.
    pub makespan: f64,
    /// Static-HEFT makespan on the identical grid.
    pub heft: f64,
    /// Plan replacements the policy adopted (0 for JIT policies).
    pub reschedules: usize,
}

/// Execute one case under a registered policy name (see
/// [`aheft_core::policy::POLICY_NAMES`]), pairing it with static HEFT.
/// The `"heft"` policy is its own baseline (the run is deterministic), so
/// it is simulated once, not twice.
///
/// # Panics
/// Panics on unknown names — the `experiments` CLI validates the
/// `--policy` list before any sweep starts.
pub fn run_policy_case(case: &Case, policy: &str) -> PolicyCaseResult {
    let (wf, costs, sim_seed) = case.materialize();
    let dynamics = case.dynamics();
    let cfg = RunConfig::default();
    let run =
        |name| run_named_policy(name, &wf.dag, &costs, &wf.costgen, &dynamics, sim_seed, &cfg);
    let report = run(policy);
    let heft = if policy == "heft" { report.makespan } else { run("heft").makespan };
    PolicyCaseResult { makespan: report.makespan, heft, reschedules: report.reschedules }
}

/// One policy's run on a case under fault injection, paired with the same
/// policy on the *same* grid with faults disabled (the chaos analogue of
/// the paper's paired methodology: the degradation column isolates what
/// the failures cost, not what the workload costs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RobustnessCaseResult {
    /// Makespan under fault injection.
    pub makespan: f64,
    /// Makespan of the identical grid with `FailureModel::None` and
    /// `JobFaultModel::None` (noise model unchanged).
    pub clean: f64,
    /// Fault metrics of the chaos run.
    pub faults: FaultStats,
    /// Jobs left unfinished when the chaos run ended (graceful
    /// degradation instead of completion).
    pub unfinished: usize,
}

/// The execution-noise spread both robustness runs use. Non-zero so the
/// straggler watchdog has genuine stragglers to catch and checkpoint
/// credit rounds non-trivial progress.
pub const ROBUSTNESS_NOISE_SPREAD: f64 = 0.5;

/// Execute one case under a registered policy with fault injection, paired
/// with a fault-free run of the same policy on the identical materialized
/// grid and simulator seed.
///
/// # Panics
/// Panics on unknown policy names (the CLI validates upfront).
pub fn run_robustness_case(
    case: &Case,
    policy: &str,
    recovery: RecoveryPolicy,
    failures: FailureModel,
    job_faults: JobFaultModel,
) -> RobustnessCaseResult {
    let (wf, costs, sim_seed) = case.materialize();
    let dynamics = case.dynamics();
    let chaos_cfg = RunConfig {
        actual: ActualModel::Noisy { spread: ROBUSTNESS_NOISE_SPREAD },
        failures,
        job_faults,
        recovery,
        ..Default::default()
    };
    let chaos =
        run_named_policy(policy, &wf.dag, &costs, &wf.costgen, &dynamics, sim_seed, &chaos_cfg);
    // The clean baseline keeps the noise model (so the delta is the fault
    // cost, not the noise cost); disabled fault models draw nothing, so
    // the baseline's non-fault streams match the chaos run draw for draw.
    let clean_cfg = RunConfig {
        actual: ActualModel::Noisy { spread: ROBUSTNESS_NOISE_SPREAD },
        ..Default::default()
    };
    let clean =
        run_named_policy(policy, &wf.dag, &costs, &wf.costgen, &dynamics, sim_seed, &clean_cfg);
    RobustnessCaseResult {
        makespan: chaos.makespan,
        clean: clean.makespan,
        faults: chaos.faults,
        unfinished: chaos.unfinished_jobs,
    }
}

/// Mix two seed components into one master seed (splitmix-style), so case
/// grids get decorrelated streams.
pub fn mix_seed(a: u64, b: u64) -> u64 {
    let mut z = a.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(b).wrapping_add(0xD1B54A32D192ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_case(seed: u64) -> Case {
        Case {
            workload: Workload::Random(RandomDagParams {
                jobs: 20,
                ..RandomDagParams::paper_default()
            }),
            resources: 4,
            delta_interval: Some(400.0),
            delta_fraction: 0.25,
            seed,
        }
    }

    #[test]
    fn case_is_deterministic() {
        let c = small_case(3);
        let a = run_case(&c, true);
        let b = run_case(&c, true);
        assert_eq!(a.heft, b.heft);
        assert_eq!(a.aheft, b.aheft);
        assert_eq!(a.minmin, b.minmin);
    }

    #[test]
    fn aheft_never_loses_in_harness() {
        for seed in 0..10 {
            let r = run_case(&small_case(seed), false);
            assert!(r.aheft <= r.heft + 1e-6, "seed {seed}: {r:?}");
            assert!(r.improvement() >= -1e-9);
        }
    }

    #[test]
    fn policy_case_matches_paired_run_for_paper_strategies() {
        let c = small_case(5);
        let paired = run_case(&c, true);
        let aheft = run_policy_case(&c, "aheft");
        assert_eq!(aheft.makespan, paired.aheft);
        assert_eq!(aheft.heft, paired.heft);
        assert_eq!(aheft.reschedules, paired.reschedules);
        let minmin = run_policy_case(&c, "minmin");
        assert_eq!(Some(minmin.makespan), paired.minmin);
        let heft = run_policy_case(&c, "heft");
        assert_eq!(heft.makespan, paired.heft);
        assert_eq!(heft.reschedules, 0);
    }

    #[test]
    #[should_panic(expected = "unknown policy")]
    fn unknown_policy_case_panics() {
        let _ = run_policy_case(&small_case(0), "bogus");
    }

    #[test]
    fn robustness_case_is_deterministic_and_paired() {
        let c = small_case(11);
        let run = || {
            run_robustness_case(
                &c,
                "aheft",
                RecoveryPolicy::Resubmit,
                FailureModel::Transient { mtbf: 800.0, mttr: 160.0 },
                JobFaultModel::CrashOnStart { prob: 0.05 },
            )
        };
        let a = run();
        assert_eq!(a, run(), "robustness case must be a pure function of its inputs");
        assert!(a.makespan > 0.0 && a.clean > 0.0);
        // No faults at all ⇒ the chaos run IS the clean run.
        let calm = run_robustness_case(
            &c,
            "aheft",
            RecoveryPolicy::Resubmit,
            FailureModel::None,
            JobFaultModel::None,
        );
        assert_eq!(calm.makespan, calm.clean);
        assert_eq!(calm.faults, FaultStats::default());
        assert_eq!(calm.unfinished, 0);
    }

    #[test]
    fn mix_seed_spreads() {
        assert_ne!(mix_seed(1, 2), mix_seed(2, 1));
        assert_ne!(mix_seed(0, 0), 0);
    }
}
