//! BLAST campaign: how adaptive rescheduling scales with workflow
//! parallelism (the paper's flagship application, §4.3 / Table 7).
//!
//! ```sh
//! cargo run --release --example blast_campaign
//! ```
//!
//! Runs the six-step BLAST workflow of the paper's Fig. 6 at increasing
//! parallelism on a small initial pool with periodic resource arrivals and
//! prints the improvement rate of AHEFT over static HEFT.

use aheft::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    println!("BLAST (Fig. 6 shape) on R=10 initial resources, +25% every 400 time units\n");
    println!("  parallelism   jobs    HEFT   AHEFT  reschedules  improvement");

    for n in [25, 50, 100, 200, 400] {
        let mut heft_avg = 0.0;
        let mut aheft_avg = 0.0;
        let mut resched = 0usize;
        let seeds = 3u64;
        for seed in 0..seeds {
            let mut rng = StdRng::seed_from_u64(1000 + seed);
            let params = AppDagParams { parallelism: n, ..AppDagParams::paper_default() };
            let wf = aheft::workflow::generators::blast::generate(&params, &mut rng);
            let costs = wf.sample_table(10, &mut rng);
            let dynamics = PoolDynamics::periodic_growth(10, 400.0, 0.25);
            let cfg = RunConfig::default();
            let run =
                |name| run_named_policy(name, &wf.dag, &costs, &wf.costgen, &dynamics, seed, &cfg);
            let (h, a) = (run("heft"), run("aheft"));
            heft_avg += h.makespan / seeds as f64;
            aheft_avg += a.makespan / seeds as f64;
            resched += a.reschedules;
        }
        println!(
            "  {n:>11} {jobs:>6} {heft_avg:>7.0} {aheft_avg:>7.0}  {:>11.1}  {:>10.1}%",
            resched as f64 / seeds as f64,
            improvement_rate(heft_avg, aheft_avg) * 100.0,
            jobs = 2 * n + 2,
        );
    }
    println!("\npaper Table 7 (BLAST): improvement rises 15.9% -> 23.6% as v grows 200 -> 1000");
}
