//! Integration tests of the grid-dynamics substrate seen through full runs:
//! pool caps, growth accounting, and the determinism of paired comparisons.

use aheft::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn blast(n: usize, seed: u64) -> (GeneratedWorkflow, CostTable) {
    let mut rng = StdRng::seed_from_u64(seed);
    let params = AppDagParams { parallelism: n, ..AppDagParams::paper_default() };
    let wf = aheft::workflow::generators::blast::generate(&params, &mut rng);
    let costs = wf.sample_table(6, &mut rng);
    (wf, costs)
}

#[test]
fn pool_cap_limits_growth() {
    let (wf, costs) = blast(40, 1);
    let capped = PoolDynamics::periodic_growth(6, 200.0, 0.5).with_cap(10);
    let cfg = RunConfig::default();
    let report = run_named_policy("aheft", &wf.dag, &costs, &wf.costgen, &capped, 1, &cfg);
    assert!(report.final_pool_size <= 10, "cap violated: {}", report.final_pool_size);
}

#[test]
fn uncapped_growth_tracks_delta_schedule() {
    let (wf, costs) = blast(40, 2);
    let dynamics = PoolDynamics::periodic_growth(6, 400.0, 0.5); // +3 every 400
    let cfg = RunConfig::default();
    let report = run_named_policy("aheft", &wf.dag, &costs, &wf.costgen, &dynamics, 2, &cfg);
    // Joins happen at 400, 800, ... while the workflow runs; the pool must
    // have grown accordingly: initial + 3 * floor(makespan / 400) within one
    // batch of slack (the batch that fires exactly at completion time may or
    // may not be processed).
    let batches = (report.makespan / 400.0).floor() as usize;
    let expect = 6 + 3 * batches;
    assert!(
        report.final_pool_size >= expect.saturating_sub(3) && report.final_pool_size <= expect + 3,
        "pool {} vs expected ~{}",
        report.final_pool_size,
        expect
    );
}

#[test]
fn paired_runs_see_identical_grids() {
    // The paired methodology: HEFT and AHEFT on the same seed must observe
    // the same late-arrival columns. We verify via a proxy — running AHEFT
    // twice gives identical results, and static HEFT's makespan is
    // independent of the growth events it ignores.
    let (wf, costs) = blast(30, 3);
    let dynamics = PoolDynamics::periodic_growth(6, 300.0, 0.25);
    let cfg = RunConfig::default();
    let run =
        |name, dynamics| run_named_policy(name, &wf.dag, &costs, &wf.costgen, dynamics, 7, &cfg);
    let a1 = run("aheft", &dynamics);
    let a2 = run("aheft", &dynamics);
    assert_eq!(a1.makespan, a2.makespan);
    assert_eq!(a1.reschedules, a2.reschedules);
    let h_growing = run("heft", &dynamics);
    let h_fixed = run("heft", &PoolDynamics::fixed(6));
    assert!((h_growing.makespan - h_fixed.makespan).abs() < 1e-9);
}

#[test]
fn reschedule_counts_are_bounded_by_events() {
    let (wf, costs) = blast(60, 4);
    let dynamics = PoolDynamics::periodic_growth(6, 250.0, 0.25);
    let cfg = RunConfig { record_trace: true, ..Default::default() };
    let report = run_named_policy("aheft", &wf.dag, &costs, &wf.costgen, &dynamics, 4, &cfg);
    assert!(report.reschedules <= report.evaluations);
    // Every accepted reschedule appears in the trace.
    assert_eq!(report.trace.reschedule_count(), report.reschedules);
    // All jobs completed exactly once.
    assert_eq!(report.trace.completed_intervals().len(), wf.dag.job_count());
}

#[test]
fn makespan_decreases_monotonically_with_faster_growth() {
    // More aggressive growth can never hurt AHEFT *on average*; check a
    // paired instance across three growth fractions (same seed = same DAG
    // and initial pool; arrival columns differ, so allow tiny slack).
    let (wf, costs) = blast(80, 5);
    let cfg = RunConfig::default();
    let mut last = f64::INFINITY;
    for frac in [0.0, 0.25, 0.5] {
        let dynamics = if frac == 0.0 {
            PoolDynamics::fixed(6)
        } else {
            PoolDynamics::periodic_growth(6, 300.0, frac)
        };
        let report = run_named_policy("aheft", &wf.dag, &costs, &wf.costgen, &dynamics, 5, &cfg);
        assert!(
            report.makespan <= last * 1.02,
            "fraction {frac}: {} vs previous {last}",
            report.makespan
        );
        last = report.makespan;
    }
}
