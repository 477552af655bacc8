//! WIEN2K what-if analysis (the paper's §3.3 "What…if…" queries).
//!
//! ```sh
//! cargo run --release --example wien2k_whatif
//! ```
//!
//! Before launching a WIEN2K workflow, asks the planner: *what would the
//! makespan be if k extra resources were acquired?* — and — *what if one of
//! the current resources were lost?* The answers come from the same AHEFT
//! scheduling pass the run-time planner uses, so they are exactly the
//! predictions the paper's online system-management extension would serve.
//! The baseline (the current pool's plan) is one pass, run once; each
//! question then costs one hypothetical pass.

use aheft::core::aheft::{aheft_schedule_into, AheftConfig, ScheduleWorkspace};
use aheft::gridsim::executor::Snapshot;
use aheft::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(7);
    let params = AppDagParams { parallelism: 64, ..AppDagParams::paper_default() };
    let wf = aheft::workflow::generators::wien2k::generate(&params, &mut rng);
    let resources = 8;
    let costs = wf.sample_table(resources, &mut rng);
    let alive: Vec<ResourceId> = (0..resources).map(ResourceId::from).collect();
    let snapshot = Snapshot::initial(resources);
    let config = AheftConfig::default();
    // One workspace answers every query; warm reuse never changes an answer.
    let mut ws = ScheduleWorkspace::new();
    let baseline = aheft_schedule_into(&wf.dag, &costs, snapshot.view(), &alive, &config, &mut ws);

    let shape = aheft::workflow::analysis::shape(&wf.dag);
    println!(
        "WIEN2K: {} jobs, depth {}, max width {} (LAPW2_FERMI bottleneck)\n",
        shape.jobs, shape.depth, shape.max_width
    );

    println!("What if we ADD k identical-distribution resources?");
    println!("  k   predicted makespan   gain");
    for k in 0..=4usize {
        let columns: Vec<Vec<f64>> = (0..k).map(|_| wf.costgen.sample_column(&mut rng)).collect();
        let hypothetical = what_if(
            &wf.dag,
            &costs,
            &snapshot,
            &alive,
            &config,
            &WhatIfQuery::AddResources { columns },
            &mut ws,
        )
        .expect("sampled columns are well-formed");
        println!(
            "  {k}   {hypothetical:>18.0}   {:>5.1}%",
            improvement_rate(baseline, hypothetical) * 100.0
        );
    }

    println!("\nWhat if we LOSE one resource (predictable failure, §3.3)?");
    println!("  removed   predicted makespan   cost");
    for r in 0..3u32 {
        let hypothetical = what_if(
            &wf.dag,
            &costs,
            &snapshot,
            &alive,
            &config,
            &WhatIfQuery::RemoveResource(ResourceId(r)),
            &mut ws,
        )
        .expect("r is in the pool");
        println!(
            "  r{:<8} {hypothetical:>18.0}   {:>5.1}%",
            r + 1,
            -improvement_rate(baseline, hypothetical) * 100.0
        );
    }
}
