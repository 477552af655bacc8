//! Smoke tests: every workload generator, under the paper's default
//! parameters, produces an acyclic DAG with cost tables consistent with it.

use aheft::prelude::*;
use aheft::workflow::generators::{blast, gauss, montage, random, wien2k, GeneratedWorkflow};
use rand::rngs::StdRng;
use rand::SeedableRng;

const RESOURCES: usize = 8;

/// The structural/cost invariants every generated workload must satisfy.
fn check_workflow(name: &str, wf: &GeneratedWorkflow, rng: &mut StdRng) {
    let dag = &wf.dag;
    assert!(dag.job_count() > 0, "{name}: empty DAG");

    // Acyclic with complete coverage: the cached topological order visits
    // every job exactly once and every edge goes forward in it.
    let topo = dag.topo_order();
    assert_eq!(topo.len(), dag.job_count(), "{name}: topo order misses jobs");
    let mut seen = vec![false; dag.job_count()];
    for &j in topo {
        assert!(!seen[j.idx()], "{name}: job {j} repeated in topo order");
        seen[j.idx()] = true;
    }
    for e in dag.edges() {
        assert!(
            dag.topo_position(e.src) < dag.topo_position(e.dst),
            "{name}: edge {} -> {} goes backwards",
            e.src,
            e.dst
        );
        assert!(e.data.is_finite() && e.data >= 0.0, "{name}: bad edge volume {}", e.data);
    }

    // Entry and exit jobs exist (the DAG has somewhere to start and finish).
    assert!(!dag.entry_jobs().is_empty(), "{name}: no entry jobs");
    assert!(!dag.exit_jobs().is_empty(), "{name}: no exit jobs");

    // Cost generator dimensions match the DAG, and sampled tables are
    // consistent: one column per resource, positive finite computation
    // costs, non-negative finite communication costs per edge.
    assert_eq!(wf.costgen.job_count(), dag.job_count(), "{name}: costgen/DAG job mismatch");
    let costs = wf.sample_table(RESOURCES, rng);
    assert_eq!(costs.job_count(), dag.job_count(), "{name}: table rows != jobs");
    assert_eq!(costs.resource_count(), RESOURCES, "{name}: table cols != resources");
    for j in dag.job_ids() {
        for r in 0..RESOURCES {
            let w = costs.comp(j, ResourceId::from(r));
            assert!(w.is_finite() && w > 0.0, "{name}: comp({j}, r{r}) = {w}");
        }
    }
    for (i, _) in dag.edges().iter().enumerate() {
        let c = costs.comm(aheft::workflow::EdgeId(i as u32));
        assert!(c.is_finite() && c >= 0.0, "{name}: comm(e{i}) = {c}");
    }
}

/// Same seed must give the same workload (seeds are the reproducibility
/// handle of the whole experiment harness).
fn check_determinism(name: &str, gen: impl Fn(&mut StdRng) -> GeneratedWorkflow) {
    let a = gen(&mut StdRng::seed_from_u64(77));
    let b = gen(&mut StdRng::seed_from_u64(77));
    assert_eq!(a.dag.job_count(), b.dag.job_count(), "{name}: job count not deterministic");
    assert_eq!(a.dag.edge_count(), b.dag.edge_count(), "{name}: edge count not deterministic");
    assert_eq!(a.dag.total_data(), b.dag.total_data(), "{name}: edge volumes not deterministic");
}

#[test]
fn random_generator_smoke() {
    let params = RandomDagParams::paper_default();
    for seed in 0..5 {
        let mut rng = StdRng::seed_from_u64(seed);
        let wf = random::generate(&params, &mut rng);
        check_workflow("random", &wf, &mut rng);
    }
    check_determinism("random", |rng| random::generate(&params, rng));
}

#[test]
fn blast_generator_smoke() {
    let params = AppDagParams::paper_default();
    for seed in 0..5 {
        let mut rng = StdRng::seed_from_u64(seed);
        let wf = blast::generate(&params, &mut rng);
        check_workflow("blast", &wf, &mut rng);
    }
    check_determinism("blast", |rng| blast::generate(&params, rng));
}

#[test]
fn wien2k_generator_smoke() {
    let params = AppDagParams::paper_default();
    for seed in 0..5 {
        let mut rng = StdRng::seed_from_u64(seed);
        let wf = wien2k::generate(&params, &mut rng);
        check_workflow("wien2k", &wf, &mut rng);
    }
    check_determinism("wien2k", |rng| wien2k::generate(&params, rng));
}

#[test]
fn montage_generator_smoke() {
    let params = AppDagParams::paper_default();
    for seed in 0..5 {
        let mut rng = StdRng::seed_from_u64(seed);
        let wf = montage::generate(&params, &mut rng);
        check_workflow("montage", &wf, &mut rng);
    }
    check_determinism("montage", |rng| montage::generate(&params, rng));
}

#[test]
fn gauss_generator_smoke() {
    let params = AppDagParams::paper_default();
    for seed in 0..5 {
        let mut rng = StdRng::seed_from_u64(seed);
        let wf = gauss::generate(&params, &mut rng);
        check_workflow("gauss", &wf, &mut rng);
    }
    check_determinism("gauss", |rng| gauss::generate(&params, rng));
}

#[test]
fn generators_schedule_end_to_end() {
    // Each generated workload must actually schedule: HEFT produces a valid
    // full plan over it (ties the generators to the scheduler contract).
    let mut rng = StdRng::seed_from_u64(5);
    let apps = AppDagParams::paper_default();
    let workloads: Vec<(&str, GeneratedWorkflow)> = vec![
        ("random", random::generate(&RandomDagParams::paper_default(), &mut rng)),
        ("blast", blast::generate(&apps, &mut rng)),
        ("wien2k", wien2k::generate(&apps, &mut rng)),
        ("montage", montage::generate(&apps, &mut rng)),
        ("gauss", gauss::generate(&apps, &mut rng)),
    ];
    for (name, wf) in &workloads {
        let costs = wf.sample_table(RESOURCES, &mut rng);
        let s = heft_schedule(&wf.dag, &costs, SlotPolicy::Insertion);
        assert_eq!(s.len(), wf.dag.job_count(), "{name}: schedule misses jobs");
        let problems = s.validate(&wf.dag, &costs);
        assert!(problems.is_empty(), "{name}: invalid schedule: {problems:?}");
    }
}
