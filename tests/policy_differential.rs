//! Differential gate for the policy-generic engine refactor (ISSUE 5).
//!
//! The tentpole collapsed `run_planned` + `run_dynamic_loop` into ONE
//! generic `run_policy` event pump driving pluggable [`SchedulingPolicy`]
//! implementations. This suite pins that the rework is behaviour-preserving
//! **bit for bit**: the golden fingerprints below were captured from the
//! pre-refactor entry points (commit 413c3d4) over a seed grid covering all
//! three paper strategies, both reschedulable-set modes, both slot
//! policies, periodic/variance triggers, failure injection and the extra
//! dynamic heuristics.
//!
//! ISSUE 7 intentionally re-captured the `*-fail` rows (failure times are
//! now drawn from a dedicated fault RNG stream, so fault-free behaviour is
//! untouched but failure timing shifted) and added one `{policy}-chaos`
//! scenario per registered policy: transient failures with repair, job
//! crash faults, and a rotating recovery policy.
//!
//! A fingerprint folds every observable of a [`RunReport`]: makespan and
//! initial-prediction f64 *bits*, evaluation/reschedule/abort counters,
//! final pool size, processed event count, and an FNV-1a hash over the full
//! execution trace (`record_trace = true`), so even a reordering of two
//! same-timestamp trace records fails the gate.
//!
//! ISSUE 8 added `SERVICE_GOLDEN`: fingerprints of whole multi-tenant
//! *service* runs (per-tenant latency percentile bits + an FNV-1a hash of
//! the admission/preemption event trace) pinning the outer arrival /
//! fairness / shared-pool layer the same way `GOLDEN` pins the inner
//! engine.
//!
//! To regenerate after an *intentional* semantic change, run
//! `GOLDEN_PRINT=1 cargo test --test policy_differential -- --nocapture`
//! and replace the `GOLDEN` (and/or `SERVICE_GOLDEN`) table.

use aheft::core::planner::ReschedulePolicy;
use aheft::core::runner::{RunConfig, RunReport};
use aheft::core::service::{
    make_fairness, run_service, ArrivalProcess, ServiceConfig, ServiceReport, FAIRNESS_NAMES,
};
use aheft::core::{make_recovery, run_named_policy, POLICY_NAMES, RECOVERY_NAMES};
use aheft::gridsim::fault::{FailureModel, JobFaultModel};
use aheft::gridsim::predictor::ActualModel;
use aheft::prelude::*;
use aheft::workflow::generators::random::{generate, RandomDagParams};
use aheft::workflow::sample;
use aheft::workflow::CostGenerator;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// FNV-1a over the debug rendering of every trace record, in order.
fn trace_hash(report: &RunReport) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for ev in report.trace.events() {
        for b in format!("{ev:?}").bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

/// Every observable of a run, folded into a comparable string.
fn fingerprint(report: &RunReport) -> String {
    format!(
        "mk={:016x} ip={:016x} ev={} rs={} ab={} pool={} events={} trace={:016x}",
        report.makespan.to_bits(),
        report.initial_predicted.to_bits(),
        report.evaluations,
        report.reschedules,
        report.aborted_jobs,
        report.final_pool_size,
        report.events_processed,
        trace_hash(report)
    )
}

fn random_grid(
    jobs: usize,
    ccr: f64,
    resources: usize,
    seed: u64,
) -> (Dag, CostTable, CostGenerator) {
    let mut rng = StdRng::seed_from_u64(seed);
    let p = RandomDagParams { jobs, ccr, ..RandomDagParams::paper_default() };
    let wf = generate(&p, &mut rng);
    let costs = wf.sample_table(resources, &mut rng);
    (wf.dag, costs, wf.costgen)
}

fn traced(cfg: RunConfig) -> RunConfig {
    RunConfig { record_trace: true, ..cfg }
}

/// Run every golden scenario, producing `(label, fingerprint)` in a fixed
/// order. The labels both document the scenario and key the comparison.
fn compute_fingerprints() -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = Vec::new();
    let base = traced(RunConfig::default());

    // --- paper strategies over a random grid (growth dynamics) ----------
    for &ccr in &[0.8, 5.0] {
        for seed in 0..3u64 {
            let (dag, costs, costgen) = random_grid(25, ccr, 4, seed);
            let dynamics = PoolDynamics::periodic_growth(4, 300.0, 0.25);
            for name in ["heft", "aheft", "minmin", "maxmin", "sufferage"] {
                let r = run_named_policy(name, &dag, &costs, &costgen, &dynamics, seed, &base);
                out.push((format!("{name}/ccr{ccr}/seed{seed}"), fingerprint(&r)));
            }
        }
    }

    // --- configuration variants the new named policies must reproduce ---
    {
        let (dag, costs, costgen) = random_grid(25, 0.8, 4, 1);
        let dynamics = PoolDynamics::periodic_growth(4, 300.0, 0.25);
        let periodic = traced(RunConfig {
            policy: ReschedulePolicy::Periodic { period: 200.0 },
            ..Default::default()
        });
        for (label, name, cfg) in [
            ("aheft-pin", "aheft-pin", &base),
            ("aheft-noinsert", "aheft-noinsert", &base),
            ("aheft-periodic200", "aheft", &periodic),
        ] {
            let r = run_named_policy(name, &dag, &costs, &costgen, &dynamics, 1, cfg);
            out.push((format!("{label}/ccr0.8/seed1"), fingerprint(&r)));
        }
    }

    // --- noisy execution + performance-variance notifications -----------
    {
        let dag = sample::fig4_dag();
        let costs = sample::fig4_costs_initial();
        let costgen = CostGenerator::new(sample::fig4_r4_column(), 0.0).unwrap();
        let cfg = traced(RunConfig {
            actual: ActualModel::Noisy { spread: 0.4 },
            variance_threshold: Some(0.2),
            policy: ReschedulePolicy::OnAnyPlannerEvent,
            ..Default::default()
        });
        for seed in [7u64, 8] {
            // Static under a Never trigger still *processes* variance events.
            for name in ["aheft", "heft"] {
                let r = run_named_policy(
                    name,
                    &dag,
                    &costs,
                    &costgen,
                    &PoolDynamics::fixed(3),
                    seed,
                    &cfg,
                );
                out.push((format!("{name}-noisy/seed{seed}"), fingerprint(&r)));
            }
        }
    }

    // --- failure injection: forced replans, pending_forced retry --------
    {
        let dag = sample::fig4_dag();
        let costs = sample::fig4_costs_initial();
        let costgen = CostGenerator::new(sample::fig4_r4_column(), 0.0).unwrap();
        let dynamics = PoolDynamics::periodic_growth(3, 50.0, 1.0 / 3.0);
        let cfg = traced(RunConfig {
            failures: FailureModel::UniformOnce { prob: 0.5, horizon: 40.0 },
            ..Default::default()
        });
        for seed in 0..4u64 {
            for name in ["aheft", "heft"] {
                let r = run_named_policy(name, &dag, &costs, &costgen, &dynamics, seed, &cfg);
                out.push((format!("{name}-fail/seed{seed}"), fingerprint(&r)));
            }
            // (No dynamic runs here: the JIT mapper requires an alive pool,
            // and this failure model can empty it — a pre-existing
            // limitation shared by the pre- and post-refactor engines.)
        }
    }

    // --- chaos: transient failures + crash faults + recovery policies ---
    // One scenario per registered scheduling policy, rotating through the
    // recovery registry so every (policy family, recovery family) pairing
    // is exercised somewhere in the grid.
    {
        let (dag, costs, costgen) = random_grid(25, 0.8, 4, 9);
        let dynamics = PoolDynamics::periodic_growth(4, 300.0, 0.25);
        for (i, name) in POLICY_NAMES.iter().enumerate() {
            let recovery = make_recovery(RECOVERY_NAMES[i % RECOVERY_NAMES.len()])
                .expect("registered recovery");
            let cfg = traced(RunConfig {
                failures: FailureModel::Transient { mtbf: 400.0, mttr: 80.0 },
                job_faults: JobFaultModel::CrashOnStart { prob: 0.15 },
                recovery,
                ..Default::default()
            });
            let r = run_named_policy(name, &dag, &costs, &costgen, &dynamics, 9, &cfg);
            out.push((format!("{name}-chaos"), fingerprint(&r)));
        }
    }

    out
}

/// `(label, fingerprint)` pairs captured from the pre-refactor runner.
const GOLDEN: &[(&str, &str)] = &[
    ("heft/ccr0.8/seed0", "mk=40886cf351dd9fcc ip=40886cf351dd9fcc ev=0 rs=0 ab=0 pool=6 events=62 trace=0f0a0a61c5b31db2"),
    ("aheft/ccr0.8/seed0", "mk=40886cf351dd9fcc ip=40886cf351dd9fcc ev=2 rs=0 ab=0 pool=6 events=62 trace=70e487c5a4a1e68f"),
    ("minmin/ccr0.8/seed0", "mk=408fdb3a15e3e2a7 ip=0000000000000000 ev=0 rs=0 ab=0 pool=7 events=62 trace=16a997ca56d95617"),
    ("maxmin/ccr0.8/seed0", "mk=409072c63a8faee2 ip=0000000000000000 ev=0 rs=0 ab=0 pool=7 events=67 trace=37c81b3e22d95c5d"),
    ("sufferage/ccr0.8/seed0", "mk=408ec4c07ec61737 ip=0000000000000000 ev=0 rs=0 ab=0 pool=7 events=69 trace=f81a8e4e02dbf9b2"),
    ("heft/ccr0.8/seed1", "mk=40866b9e15317d71 ip=40866b9e15317d71 ev=0 rs=0 ab=0 pool=6 events=57 trace=7b1fa709c3c5e7df"),
    ("aheft/ccr0.8/seed1", "mk=40866b9e15317d71 ip=40866b9e15317d71 ev=2 rs=0 ab=0 pool=6 events=57 trace=fda245368d9a233b"),
    ("minmin/ccr0.8/seed1", "mk=40916b327fda922a ip=0000000000000000 ev=0 rs=0 ab=0 pool=7 events=60 trace=8fb53a43ce8d737c"),
    ("maxmin/ccr0.8/seed1", "mk=40901a299922dac9 ip=0000000000000000 ev=0 rs=0 ab=0 pool=7 events=58 trace=61cc7c0e9a2aaf28"),
    ("sufferage/ccr0.8/seed1", "mk=408f6796292fbcba ip=0000000000000000 ev=0 rs=0 ab=0 pool=7 events=57 trace=88a9c920a95c3a9d"),
    ("heft/ccr0.8/seed2", "mk=4085db31f7d47b35 ip=4085db31f7d47b35 ev=0 rs=0 ab=0 pool=6 events=66 trace=47233986a3e49ab1"),
    ("aheft/ccr0.8/seed2", "mk=4084734264f1deac ip=4085db31f7d47b35 ev=2 rs=1 ab=3 pool=6 events=73 trace=fc1a8d873b337933"),
    ("minmin/ccr0.8/seed2", "mk=408bf0e63b4a6b24 ip=0000000000000000 ev=0 rs=0 ab=0 pool=6 events=64 trace=905a012670fe225e"),
    ("maxmin/ccr0.8/seed2", "mk=4089af7d1e5b4049 ip=0000000000000000 ev=0 rs=0 ab=0 pool=6 events=70 trace=5db92c88cc61dfea"),
    ("sufferage/ccr0.8/seed2", "mk=408c00c52f9e67ae ip=0000000000000000 ev=0 rs=0 ab=0 pool=6 events=64 trace=8c25efabf6f7adf2"),
    ("heft/ccr5/seed0", "mk=409864ebccad01b3 ip=409864ebccad01b3 ev=0 rs=0 ab=0 pool=9 events=62 trace=7bc32dad7f290401"),
    ("aheft/ccr5/seed0", "mk=409864ebccad01b3 ip=409864ebccad01b3 ev=5 rs=0 ab=0 pool=9 events=62 trace=1439d5b77e39d69d"),
    ("minmin/ccr5/seed0", "mk=40a29e2edaa0a886 ip=0000000000000000 ev=0 rs=0 ab=0 pool=11 events=64 trace=694085656ba969a3"),
    ("maxmin/ccr5/seed0", "mk=40a2ec92b979a4e7 ip=0000000000000000 ev=0 rs=0 ab=0 pool=12 events=65 trace=4ce9c31284edac4f"),
    ("sufferage/ccr5/seed0", "mk=40a22d1c76d0144e ip=0000000000000000 ev=0 rs=0 ab=0 pool=11 events=65 trace=b965f0807e15abbd"),
    ("heft/ccr5/seed1", "mk=4097867b9a3b43b0 ip=4097867b9a3b43b0 ev=0 rs=0 ab=0 pool=9 events=55 trace=fb49252ec80410ad"),
    ("aheft/ccr5/seed1", "mk=4097867b9a3b43b0 ip=4097867b9a3b43b0 ev=5 rs=0 ab=0 pool=9 events=55 trace=eb5572aa8e23cb1b"),
    ("minmin/ccr5/seed1", "mk=40a7bf66d5144a7c ip=0000000000000000 ev=0 rs=0 ab=0 pool=14 events=60 trace=df6bfc1ef79c279a"),
    ("maxmin/ccr5/seed1", "mk=40a4ee541dd37e86 ip=0000000000000000 ev=0 rs=0 ab=0 pool=12 events=57 trace=1269f69cf4d4b06a"),
    ("sufferage/ccr5/seed1", "mk=40a59d3ac08bb394 ip=0000000000000000 ev=0 rs=0 ab=0 pool=13 events=61 trace=3a3d62aadef670f9"),
    ("heft/ccr5/seed2", "mk=4099f27bbe35ce9c ip=4099f27bbe35ce9c ev=0 rs=0 ab=0 pool=9 events=63 trace=aea4cb6069188743"),
    ("aheft/ccr5/seed2", "mk=4099f27bbe35ce9c ip=4099f27bbe35ce9c ev=5 rs=0 ab=0 pool=9 events=63 trace=6aac48ef39c37c44"),
    ("minmin/ccr5/seed2", "mk=40a12c701245a9b1 ip=0000000000000000 ev=0 rs=0 ab=0 pool=11 events=65 trace=390558b5de1faf68"),
    ("maxmin/ccr5/seed2", "mk=40a1095494f04983 ip=0000000000000000 ev=0 rs=0 ab=0 pool=11 events=70 trace=c33616c4b6102e81"),
    ("sufferage/ccr5/seed2", "mk=40a16ab98f3534dd ip=0000000000000000 ev=0 rs=0 ab=0 pool=11 events=65 trace=295b87b5ef5eb646"),
    ("aheft-pin/ccr0.8/seed1", "mk=40866b9e15317d71 ip=40866b9e15317d71 ev=2 rs=0 ab=0 pool=6 events=57 trace=255792e0b45c4ac4"),
    ("aheft-noinsert/ccr0.8/seed1", "mk=40866b9e15317d71 ip=40866b9e15317d71 ev=2 rs=0 ab=0 pool=6 events=58 trace=fa9dbf271e696b0a"),
    ("aheft-periodic200/ccr0.8/seed1", "mk=40866b9e15317d71 ip=40866b9e15317d71 ev=3 rs=0 ab=0 pool=6 events=60 trace=16147764a0b08a0a"),
    ("aheft-noisy/seed7", "mk=405399a13bfbda1e ip=4054000000000000 ev=4 rs=1 ab=1 pool=3 events=23 trace=fb0777ab4fc72bb5"),
    ("heft-noisy/seed7", "mk=4053b72035612af9 ip=4054000000000000 ev=0 rs=0 ab=0 pool=3 events=23 trace=3bc199a7d559127a"),
    ("aheft-noisy/seed8", "mk=4054a346fd258421 ip=4054000000000000 ev=1 rs=0 ab=0 pool=3 events=20 trace=7014dced15a3293a"),
    ("heft-noisy/seed8", "mk=4054a346fd258421 ip=4054000000000000 ev=0 rs=0 ab=0 pool=3 events=20 trace=aaf4a014263f8e8f"),
    ("aheft-fail/seed0", "mk=4058252607d03f42 ip=4054000000000000 ev=2 rs=1 ab=2 pool=4 events=19 trace=6f598b13e29ab408"),
    ("heft-fail/seed0", "mk=4058252607d03f42 ip=4054000000000000 ev=1 rs=1 ab=2 pool=4 events=19 trace=f897f0e8b70fb709"),
    ("aheft-fail/seed1", "mk=4054000000000000 ip=4054000000000000 ev=1 rs=0 ab=0 pool=4 events=20 trace=84d53f0b5110db46"),
    ("heft-fail/seed1", "mk=4054000000000000 ip=4054000000000000 ev=0 rs=0 ab=0 pool=4 events=20 trace=b88a74d845452e42"),
    ("aheft-fail/seed2", "mk=4054000000000000 ip=4054000000000000 ev=1 rs=0 ab=0 pool=4 events=20 trace=84d53f0b5110db46"),
    ("heft-fail/seed2", "mk=4054000000000000 ip=4054000000000000 ev=0 rs=0 ab=0 pool=4 events=20 trace=b88a74d845452e42"),
    ("aheft-fail/seed3", "mk=406296bc5909012d ip=4054000000000000 ev=4 rs=2 ab=3 pool=5 events=20 trace=26c28722e86d9124"),
    ("heft-fail/seed3", "mk=406296bc5909012d ip=4054000000000000 ev=2 rs=2 ab=3 pool=5 events=20 trace=50c0badd8b40ede8"),
    ("heft-chaos", "mk=4092af0b1ad1064e ip=4080d878a9c5be98 ev=9 rs=9 ab=28 pool=7 events=151 trace=c81c6ac9bb5b096b"),
    ("aheft-chaos", "mk=409777be96e8589e ip=4080d878a9c5be98 ev=32 rs=11 ab=28 pool=9 events=201 trace=7150a35ffdde7a57"),
    ("minmin-chaos", "mk=4090a58742650223 ip=0000000000000000 ev=0 rs=0 ab=9 pool=7 events=115 trace=0cf56dc08dd029b8"),
    ("maxmin-chaos", "mk=4091461234168815 ip=0000000000000000 ev=0 rs=0 ab=7 pool=7 events=148 trace=51173fbff0009dda"),
    ("sufferage-chaos", "mk=40903497c57ae009 ip=0000000000000000 ev=0 rs=0 ab=7 pool=7 events=99 trace=2917084b33fef932"),
    ("aheft-noinsert-chaos", "mk=40a51024868485f1 ip=408216543afece65 ev=74 rs=25 ab=63 pool=12 events=319 trace=08eb4ed8a2733716"),
    ("aheft-pin-chaos", "mk=408aa08d168cb42d ip=4080d878a9c5be98 ev=12 rs=4 ab=7 pool=6 events=122 trace=9ab5ed892499ae67"),
    ("ranked-jit-chaos", "mk=40949c61f47cc288 ip=0000000000000000 ev=0 rs=0 ab=10 pool=8 events=116 trace=d8c3c84ffb6d3883"),
];

#[test]
fn trait_driven_engine_matches_prerefactor_fingerprints() {
    let got = compute_fingerprints();
    if std::env::var_os("GOLDEN_PRINT").is_some() {
        for (label, fp) in &got {
            println!("    (\"{label}\", \"{fp}\"),");
        }
        return;
    }
    assert_eq!(GOLDEN.len(), got.len(), "scenario grid changed; regenerate the golden table");
    for ((glabel, gfp), (label, fp)) in GOLDEN.iter().zip(&got) {
        assert_eq!(glabel, label, "scenario order changed; regenerate the golden table");
        assert_eq!(
            gfp, fp,
            "{label}: run diverged from the pre-refactor engine\n  golden: {gfp}\n  got:    {fp}"
        );
    }
}

// ---------------------------------------------------------------------
// Multi-tenant service fingerprints (ISSUE 8)
// ---------------------------------------------------------------------

/// Every observable of a service run folded into a comparable string:
/// admission/completion counters, pool utilization bits, per-tenant
/// latency percentile *bits*, and an FNV-1a hash over the debug rendering
/// of the full admission/start/preemption/finish event trace — so even a
/// reordering of two same-time service events fails the gate.
fn service_fingerprint(r: &ServiceReport) -> String {
    let mut h: u64 = 0xcbf29ce484222325;
    for ev in &r.trace {
        for b in format!("{ev:?}").bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    let mut out = format!(
        "adm={} fin={} fail={} inflight={} pre={} util={:016x}",
        r.admitted,
        r.finished,
        r.failed,
        r.in_flight,
        r.preemptions,
        r.utilization.to_bits()
    );
    for t in &r.tenants {
        out.push_str(&format!(
            " t{}=p50:{:016x}/p99:{:016x}",
            t.tenant,
            t.p50_latency.to_bits(),
            t.p99_latency.to_bits()
        ));
    }
    out.push_str(&format!(" trace={h:016x}"));
    out
}

/// One fault-free and one chaos service scenario per fairness policy.
fn compute_service_fingerprints() -> Vec<(String, String)> {
    let mut out = Vec::new();
    for fairness in FAIRNESS_NAMES {
        let calm = ServiceConfig {
            tenants: 2,
            arrivals: ArrivalProcess::Poisson { rate: 0.004 },
            workflows: 6,
            capacity: 4,
            slice: 2,
            fairness: make_fairness(fairness).expect("registered fairness"),
            workload: RandomDagParams { jobs: 12, ..RandomDagParams::paper_default() },
            seed: 11,
            ..ServiceConfig::default()
        };
        out.push((format!("service-{fairness}-calm"), service_fingerprint(&run_service(&calm))));
        let chaos = ServiceConfig {
            tenants: 3,
            arrivals: ArrivalProcess::Trace(vec![0.0, 40.0, 80.0, 120.0, 500.0, 900.0]),
            run: RunConfig {
                failures: FailureModel::Transient { mtbf: 400.0, mttr: 80.0 },
                job_faults: JobFaultModel::CrashOnStart { prob: 0.10 },
                recovery: make_recovery("retry").expect("registered recovery"),
                ..RunConfig::default()
            },
            seed: 12,
            ..calm
        };
        out.push((format!("service-{fairness}-chaos"), service_fingerprint(&run_service(&chaos))));
    }
    out
}

/// `(label, fingerprint)` pairs captured when the service layer landed.
const SERVICE_GOLDEN: &[(&str, &str)] = &[
    ("service-fcfs-calm", "adm=6 fin=6 fail=0 inflight=0 pre=0 util=3fe478ae2ede155e t0=p50:40821b2b14ec1dab/p99:40932f09bdcc5fe7 t1=p50:4092f06b8f049b1e/p99:409dd080fde0d907 trace=fa81a0ae07c97e34"),
    ("service-fcfs-chaos", "adm=6 fin=6 fail=0 inflight=0 pre=0 util=3feb4eaa88b2c68f t0=p50:40a80b7639b783f2/p99:40b009f27982fc58 t1=p50:0000000000000000/p99:0000000000000000 t2=p50:4097bff4ae3c96fd/p99:40aa1c2845a89dfc trace=e215f87cd442111d"),
    ("service-fair-share-calm", "adm=6 fin=6 fail=0 inflight=0 pre=0 util=3fe500202f90bc0e t0=p50:40821b2b14ec1dab/p99:409edb43a0f5a917 t1=p50:409169ca83865174/p99:409224471ab78fd7 trace=43c9efdc4f356cd3"),
    ("service-fair-share-chaos", "adm=6 fin=6 fail=0 inflight=0 pre=0 util=3fed14a1a150361c t0=p50:40a1a63d23052d9d/p99:40a74df9d0628850 t1=p50:0000000000000000/p99:0000000000000000 t2=p50:4097bff4ae3c96fd/p99:40b1e4b0ae2d7a28 trace=1a2075aa75ee6f1c"),
    ("service-priority-calm", "adm=6 fin=6 fail=0 inflight=0 pre=0 util=3fe478ae2ede155e t0=p50:40821b2b14ec1dab/p99:40932f09bdcc5fe7 t1=p50:4092f06b8f049b1e/p99:409dd080fde0d907 trace=fa81a0ae07c97e34"),
    ("service-priority-chaos", "adm=6 fin=6 fail=0 inflight=0 pre=2 util=3fef67b36d84ecb6 t0=p50:40951fc673151760/p99:40a0379fe6e7e664 t1=p50:0000000000000000/p99:0000000000000000 t2=p50:40b18fcd1f0318f1/p99:40b19be0775ba560 trace=bf4c561958bd0997"),
];

#[test]
fn multitenant_service_matches_golden_fingerprints() {
    let got = compute_service_fingerprints();
    if std::env::var_os("GOLDEN_PRINT").is_some() {
        for (label, fp) in &got {
            println!("    (\"{label}\", \"{fp}\"),");
        }
        return;
    }
    assert_eq!(
        SERVICE_GOLDEN.len(),
        got.len(),
        "service scenario grid changed; regenerate the golden table"
    );
    for ((glabel, gfp), (label, fp)) in SERVICE_GOLDEN.iter().zip(&got) {
        assert_eq!(glabel, label, "service scenario order changed; regenerate the golden table");
        assert_eq!(
            gfp, fp,
            "{label}: service run diverged from the golden capture\n  golden: {gfp}\n  got:    {fp}"
        );
    }
}
