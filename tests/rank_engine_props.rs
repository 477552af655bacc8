//! Property-based gate for the incremental rank engine (ISSUE 4): over
//! random DAGs and random *sequences* of pool add/remove and job-finish
//! deltas, `RankEngine` must produce ranks **exactly equal** (same f64
//! bits, i.e. the same summation order) to a from-scratch
//! `rank_upward_over_into` over the current alive set — for every
//! unfinished job, after every delta.
//!
//! Finished jobs are pruned from the engine's sweep (their ranks are never
//! consulted by the scheduler), so the comparison covers the unfinished
//! set, and additionally the *whole* job set while nothing has finished.

use aheft::prelude::*;
use aheft::workflow::generators::random::{generate, RandomDagParams};
use aheft::workflow::rank::rank_upward_over_into;
use aheft::workflow::rank_engine::RankEngine;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One step of grid dynamics applied to the engine's inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Delta {
    /// A resource joins: sample a column, append it, extend `alive`.
    Join,
    /// A resource departs: drop a random entry of `alive` (the cost table
    /// keeps its column, exactly like the runner).
    Leave,
    /// The next jobs of the topological order finish (the finished set
    /// stays predecessor-closed, as in any real execution).
    Finish(usize),
}

fn arb_scenario() -> impl Strategy<Value = (usize, usize, f64, u64, u32)> {
    (
        4usize..40,                                              // jobs
        1usize..6,                                               // initial resources
        prop_oneof![Just(0.0), Just(0.5), Just(1.0), Just(2.0)], // beta
        0u64..1_000_000,                                         // seed
        3u32..12,                                                // delta steps
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn random_delta_sequences_match_from_scratch_ranks(
        (jobs, resources, beta, seed, steps) in arb_scenario()
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let params = RandomDagParams { jobs, beta, ..RandomDagParams::paper_default() };
        let wf = generate(&params, &mut rng);
        let mut costs = wf.costgen.sample_table(&wf.dag, resources, &mut rng)
            .expect("generator matches DAG");
        let mut alive: Vec<ResourceId> =
            (0..resources).map(ResourceId::from).collect();
        let mut finished = vec![false; wf.dag.job_count()];
        let mut finished_count = 0usize;

        let mut engine = RankEngine::new();
        let mut oracle = Vec::new();
        for step in 0..steps {
            // Draw and apply one delta.
            let delta = match rng.random_range(0u32..4) {
                0 => Delta::Join,
                1 if alive.len() > 1 => Delta::Leave,
                _ => Delta::Finish(rng.random_range(0..=2)),
            };
            match delta {
                Delta::Join => {
                    let column = wf.costgen.sample_column(&mut rng);
                    let id = costs.add_resource(&column).expect("column matches");
                    alive.push(id);
                }
                Delta::Leave => {
                    let k = rng.random_range(0..alive.len());
                    alive.remove(k);
                }
                Delta::Finish(n) => {
                    // Finish a prefix extension of the topo order: the
                    // finished set stays predecessor-closed.
                    for _ in 0..n {
                        if finished_count < wf.dag.job_count() {
                            let j = wf.dag.topo_order()[finished_count];
                            finished[j.idx()] = true;
                            finished_count += 1;
                        }
                    }
                }
            }

            engine.update(&wf.dag, &costs, &alive, |j| finished[j.idx()]);
            rank_upward_over_into(&wf.dag, &costs, &alive, &mut oracle);
            for j in wf.dag.job_ids() {
                if finished[j.idx()] {
                    continue; // pruned: the scheduler never reads these
                }
                prop_assert_eq!(
                    engine.ranks()[j.idx()].to_bits(),
                    oracle[j.idx()].to_bits(),
                    "step {} ({:?}): rank of {} = {} diverged from from-scratch {}",
                    step, delta, j, engine.ranks()[j.idx()], oracle[j.idx()]
                );
            }
            if finished_count == 0 {
                // With nothing finished the equality is total.
                for j in wf.dag.job_ids() {
                    prop_assert_eq!(engine.ranks()[j.idx()].to_bits(), oracle[j.idx()].to_bits());
                }
            }

            // Idempotence: re-updating with unchanged inputs is a cache
            // hit — same epoch, bit-identical ranks.
            let epoch = engine.epoch();
            engine.update(&wf.dag, &costs, &alive, |j| finished[j.idx()]);
            prop_assert_eq!(engine.epoch(), epoch, "cache hit must not bump the epoch");
        }
    }

    /// One engine instance ping-ponged between two unrelated problems
    /// (the sweep harness reuses one workspace for thousands of cases)
    /// must never serve one problem's cached state to the other — even
    /// when job and resource counts collide exactly.
    #[test]
    fn engine_reuse_across_colliding_problems_never_confuses_caches(
        (jobs, resources, seed) in (4usize..30, 2usize..6, 0u64..1_000_000)
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let params = RandomDagParams { jobs, ..RandomDagParams::paper_default() };
        let wf_a = generate(&params, &mut rng);
        let wf_b = generate(&params, &mut rng);
        let mut costs_a = wf_a.costgen.sample_table(&wf_a.dag, resources, &mut rng).expect("a");
        let mut costs_b = wf_b.costgen.sample_table(&wf_b.dag, resources, &mut rng).expect("b");
        let mut alive_a: Vec<ResourceId> = (0..resources).map(ResourceId::from).collect();
        let mut alive_b = alive_a.clone();

        let mut engine = RankEngine::new();
        let mut oracle = Vec::new();
        for round in 0..4 {
            for (wf, costs, alive) in [
                (&wf_a, &mut costs_a, &mut alive_a),
                (&wf_b, &mut costs_b, &mut alive_b),
            ] {
                if round % 2 == 1 {
                    // Grow each problem's pool on alternating rounds so
                    // append deltas interleave with problem switches.
                    let column = wf.costgen.sample_column(&mut rng);
                    let id = costs.add_resource(&column).expect("column matches");
                    alive.push(id);
                }
                engine.update(&wf.dag, costs, alive, |_| false);
                rank_upward_over_into(&wf.dag, costs, alive, &mut oracle);
                for j in wf.dag.job_ids() {
                    prop_assert_eq!(
                        engine.ranks()[j.idx()].to_bits(),
                        oracle[j.idx()].to_bits(),
                        "round {}: rank of {} diverged after a problem switch",
                        round, j
                    );
                }
            }
        }
    }
}
