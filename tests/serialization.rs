//! Serde round-trips for the persistable artifacts: generated workflows,
//! cost tables and plans can be written to JSON (experiment caching,
//! cross-run comparisons) and read back without loss.

use aheft::gridsim::plan::{Assignment, Plan};
use aheft::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn dag_round_trips_through_json() {
    let mut rng = StdRng::seed_from_u64(5);
    let params = RandomDagParams { jobs: 25, ..RandomDagParams::paper_default() };
    let wf = aheft::workflow::generators::random::generate(&params, &mut rng);
    let json = serde_json::to_string(&wf.dag).expect("serialize");
    let back: Dag = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(back.job_count(), wf.dag.job_count());
    assert_eq!(back.edge_count(), wf.dag.edge_count());
    assert_eq!(back.topo_order(), wf.dag.topo_order());
    for (a, b) in wf.dag.edges().iter().zip(back.edges()) {
        assert_eq!(a.src, b.src);
        assert_eq!(a.dst, b.dst);
        // serde_json's default float parsing is not bit-exact (that needs
        // its `float_roundtrip` feature); 1e-12 relative is lossless for
        // scheduling purposes.
        assert!((a.data - b.data).abs() <= 1e-12 * a.data.abs().max(1.0));
    }
}

#[test]
fn cost_table_round_trips_through_json() {
    let mut rng = StdRng::seed_from_u64(6);
    let params = RandomDagParams { jobs: 10, ..RandomDagParams::paper_default() };
    let wf = aheft::workflow::generators::random::generate(&params, &mut rng);
    let costs = wf.sample_table(4, &mut rng);
    let json = serde_json::to_string(&costs).expect("serialize");
    let back: CostTable = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(back.resource_count(), 4);
    for j in wf.dag.job_ids() {
        for r in 0..4 {
            let (a, b) = (back.comp(j, ResourceId::from(r)), costs.comp(j, ResourceId::from(r)));
            assert!((a - b).abs() <= 1e-12 * b.abs().max(1.0));
        }
    }
}

#[test]
fn cost_generator_round_trips_and_stays_deterministic() {
    let mut rng = StdRng::seed_from_u64(7);
    let params = RandomDagParams { jobs: 12, ..RandomDagParams::paper_default() };
    let wf = aheft::workflow::generators::random::generate(&params, &mut rng);
    let json = serde_json::to_string(&wf.costgen).expect("serialize");
    let back: CostGenerator = serde_json::from_str(&json).expect("deserialize");
    // Same RNG stream -> same sampled column (up to JSON float parsing).
    let mut r1 = StdRng::seed_from_u64(99);
    let mut r2 = StdRng::seed_from_u64(99);
    for (a, b) in wf.costgen.sample_column(&mut r1).iter().zip(back.sample_column(&mut r2)) {
        assert!((a - b).abs() <= 1e-9 * a.abs().max(1.0));
    }
}

#[test]
fn plan_round_trips_through_json() {
    let plan = Plan::from_assignments(
        15.0,
        vec![
            Assignment { job: JobId(0), resource: ResourceId(2), start: 15.0, finish: 24.0 },
            Assignment { job: JobId(3), resource: ResourceId(0), start: 20.0, finish: 33.0 },
        ],
    );
    let json = serde_json::to_string(&plan).expect("serialize");
    let back: Plan = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(back.len(), 2);
    assert_eq!(back.planned_at(), 15.0);
    assert_eq!(back.predicted_makespan(), 33.0);
    assert_eq!(back.resource_of(JobId(3)), Some(ResourceId(0)));
    assert_eq!(back.sft(JobId(0)), Some(24.0));
}

#[test]
fn heft_schedule_of_fig4_serializes_losslessly() {
    let dag = aheft::workflow::sample::fig4_dag();
    let costs = aheft::workflow::sample::fig4_costs_initial();
    let s = heft_schedule(&dag, &costs, SlotPolicy::Insertion);
    let json = serde_json::to_string(&s).expect("serialize");
    let back: Schedule = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(back.predicted_makespan(), s.predicted_makespan());
    assert!(back.validate(&dag, &costs).is_empty());
}
