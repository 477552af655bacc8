//! Quickstart: schedule one random grid workflow three ways.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! Generates a random DAG in the paper's parameter space, builds a grid of
//! 8 resources that grows by 10% every 400 time units, and compares:
//! static HEFT (ignores new resources), AHEFT (the paper's adaptive
//! rescheduling) and dynamic Min-Min (just-in-time local decisions).

use aheft::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let seed = 42;
    let mut rng = StdRng::seed_from_u64(seed);

    // A data-intensive workflow: 60 jobs, CCR 5 (the regime where the paper
    // reports the biggest gaps).
    let params = RandomDagParams { jobs: 60, ccr: 5.0, ..RandomDagParams::paper_default() };
    let wf = aheft::workflow::generators::random::generate(&params, &mut rng);
    let costs = wf.sample_table(8, &mut rng);

    println!(
        "workflow: {} jobs, {} edges, critical path {:.0}",
        wf.dag.job_count(),
        wf.dag.edge_count(),
        aheft::workflow::rank::critical_path(&wf.dag, &costs).1
    );

    let dynamics = PoolDynamics::periodic_growth(8, 400.0, 0.10);
    let cfg = RunConfig::default();
    let run = |name| run_named_policy(name, &wf.dag, &costs, &wf.costgen, &dynamics, seed, &cfg);

    let (heft, aheft, minmin) = (run("heft"), run("aheft"), run("minmin"));

    println!("\n  strategy          makespan   SLR");
    for (name, report) in
        [("HEFT (static)", &heft), ("AHEFT (adaptive)", &aheft), ("Min-Min (dynamic)", &minmin)]
    {
        println!(
            "  {name:<17} {:>8.0}  {:>5.2}",
            report.makespan,
            schedule_length_ratio(&wf.dag, &costs, report.makespan)
        );
    }
    println!(
        "\nAHEFT evaluated {} events, accepted {} reschedules; improvement over HEFT: {:.1}%",
        aheft.evaluations,
        aheft.reschedules,
        improvement_rate(heft.makespan, aheft.makespan) * 100.0
    );

    // The same engine runs every registered policy — the three above are
    // just named entries of the registry (`experiments --policy ...`).
    println!("\n  full policy registry on the same grid:");
    for name in POLICY_NAMES {
        let report = run(name);
        println!(
            "  {name:<15} {:>8.0}  ({:+.1}% vs HEFT)",
            report.makespan,
            improvement_rate(heft.makespan, report.makespan) * 100.0
        );
    }
}
