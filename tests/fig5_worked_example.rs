//! Integration test for the paper's worked example (Fig. 4 / Fig. 5).

use aheft::core::aheft::{aheft_reschedule, AheftConfig, ScheduleWorkspace};
use aheft::gridsim::executor::Snapshot;
use aheft::prelude::*;
use aheft::workflow::sample;

fn setup() -> (Dag, CostTable, CostGenerator) {
    let dag = sample::fig4_dag();
    let costs = sample::fig4_costs_initial();
    let costgen = CostGenerator::new(sample::fig4_r4_column(), 0.0).expect("valid");
    (dag, costs, costgen)
}

#[test]
fn heft_reproduces_fig5a_makespan_80() {
    let (dag, costs, _) = setup();
    let schedule = heft_schedule(&dag, &costs, SlotPolicy::Insertion);
    assert!((schedule.predicted_makespan() - 80.0).abs() < 1e-9);
    assert!(schedule.validate(&dag, &costs).is_empty());
}

#[test]
fn simulated_execution_matches_planned_schedule_exactly() {
    // Under exact estimates the executor must realise the plan tick for
    // tick: same placements, same start times, same makespan.
    let (dag, costs, costgen) = setup();
    let schedule = heft_schedule(&dag, &costs, SlotPolicy::Insertion);
    let cfg = RunConfig { record_trace: true, ..Default::default() };
    let report = run_named_policy("heft", &dag, &costs, &costgen, &PoolDynamics::fixed(3), 0, &cfg);
    assert!((report.makespan - schedule.predicted_makespan()).abs() < 1e-9);
    for (job, resource, start, finish) in report.trace.completed_intervals() {
        let a = schedule.assignment(job).expect("all jobs scheduled");
        assert_eq!(a.resource, resource, "{job} placed differently");
        assert!((a.start - start).abs() < 1e-9, "{job} started at {start}, planned {}", a.start);
        assert!((a.finish - finish).abs() < 1e-9);
    }
}

#[test]
fn aheft_worked_example_never_worse_than_heft() {
    let (dag, costs, costgen) = setup();
    let dynamics = PoolDynamics::periodic_growth(3, sample::FIG4_R4_ARRIVAL, 1.0 / 3.0).with_cap(4);
    let cfg = RunConfig::default();
    for name in ["aheft", "aheft-pin"] {
        let report = run_named_policy(name, &dag, &costs, &costgen, &dynamics, 1, &cfg);
        assert_eq!(report.evaluations, 1, "r4's arrival must be evaluated");
        assert!(report.makespan <= 80.0 + 1e-9, "{name}: {}", report.makespan);
    }
}

#[test]
fn aheft_equals_heft_at_clock_zero() {
    // §3.4: "AHEFT is identical to HEFT when clock = 0".
    let (dag, costs, _) = setup();
    let heft = heft_schedule(&dag, &costs, SlotPolicy::Insertion);
    let aheft = aheft_reschedule(
        &dag,
        &costs,
        &Snapshot::initial(3),
        &(0..3).map(ResourceId::from).collect::<Vec<_>>(),
        &AheftConfig::default(),
    );
    assert_eq!(heft.len(), aheft.plan.len());
    for a in heft.assignments() {
        let b = aheft.plan.assignment(a.job).expect("same jobs");
        assert_eq!(a.resource, b.resource);
        assert!((a.start - b.start).abs() < 1e-12);
        assert!((a.finish - b.finish).abs() < 1e-12);
    }
}

#[test]
fn what_if_answers_match_heft_over_grown_pool() {
    // The what-if "add r4" answer must equal HEFT run on the 4-column table.
    let (dag, costs, _) = setup();
    let full = sample::fig4_costs_full();
    let heft4 = heft_schedule(&dag, &full, SlotPolicy::Insertion);
    let hypothetical = what_if(
        &dag,
        &costs,
        &Snapshot::initial(3),
        &(0..3).map(ResourceId::from).collect::<Vec<_>>(),
        &AheftConfig::default(),
        &WhatIfQuery::AddResources { columns: vec![sample::fig4_r4_column()] },
        &mut ScheduleWorkspace::new(),
    )
    .expect("well-formed query");
    assert!((hypothetical - heft4.predicted_makespan()).abs() < 1e-9);
}
