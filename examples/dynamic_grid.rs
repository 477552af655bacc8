//! A fully dynamic grid: arrivals, a failure, and a Gantt chart.
//!
//! ```sh
//! cargo run --release --example dynamic_grid
//! ```
//!
//! Executes the paper's Fig. 4 sample workflow on a grid where a fourth
//! resource joins at t=15 (the worked example) and, separately, where a
//! resource *fails* mid-run — exercising the fault-tolerance-by-rescheduling
//! path the paper describes in §3.3. Prints the execution trace and an
//! ASCII Gantt chart (the reproduction of Fig. 5).

use aheft::gridsim::fault::FailureModel;
use aheft::gridsim::trace::TraceEvent;
use aheft::prelude::*;
use aheft::workflow::sample;

fn main() {
    let dag = sample::fig4_dag();
    let costs = sample::fig4_costs_initial();
    let costgen = CostGenerator::new(sample::fig4_r4_column(), 0.0).expect("valid column");

    // --- the worked example: r4 joins at t=15 --------------------------
    let dynamics = PoolDynamics::periodic_growth(3, sample::FIG4_R4_ARRIVAL, 1.0 / 3.0).with_cap(4);
    let cfg = RunConfig { record_trace: true, ..Default::default() };
    let report = run_named_policy("aheft", &dag, &costs, &costgen, &dynamics, 1, &cfg);

    println!("== worked example: r4 joins at t=15 ==");
    println!(
        "makespan {}, {} evaluation(s), {} reschedule(s)\n",
        report.makespan, report.evaluations, report.reschedules
    );
    println!("{}", report.trace.gantt(&dag, 4, 64));

    // --- a failing grid -------------------------------------------------
    let cfg = RunConfig {
        failures: FailureModel::UniformOnce { prob: 0.6, horizon: 30.0 },
        record_trace: true,
        ..Default::default()
    };
    let growing = PoolDynamics::periodic_growth(3, 50.0, 1.0 / 3.0);
    let report = run_named_policy("aheft", &dag, &costs, &costgen, &growing, 11, &cfg);

    println!("== failure injection: each resource fails with p=0.6 before t=30 ==");
    println!(
        "makespan {:.1}, {} aborted job(s), pool ended at {} resources\n",
        report.makespan, report.aborted_jobs, report.final_pool_size
    );
    for e in report.trace.events() {
        match e {
            TraceEvent::ResourceLeft { t, resource } => {
                println!("  t={t:>6.1}  resource {resource:?} FAILED");
            }
            TraceEvent::ResourcesJoined { t, count } => {
                println!("  t={t:>6.1}  {count} resource(s) joined");
            }
            TraceEvent::JobAborted { t, job, resource } => {
                println!("  t={t:>6.1}  {job} aborted on {resource}");
            }
            TraceEvent::PlanReplaced { t, old_makespan, new_makespan } => {
                println!("  t={t:>6.1}  plan replaced: {old_makespan:.1} -> {new_makespan:.1}");
            }
            _ => {}
        }
    }
}
