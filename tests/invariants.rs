//! Property-based integration tests: the invariants that make the
//! reproduction trustworthy, checked over randomly generated workloads.

use aheft::core::aheft::{aheft_reschedule, AheftConfig};
use aheft::gridsim::executor::Snapshot;
use aheft::prelude::*;
use aheft::workflow::generators::random::{generate, RandomDagParams};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn arb_params() -> impl Strategy<Value = (RandomDagParams, usize, u64)> {
    (
        5usize..60,
        prop_oneof![Just(0.1), Just(0.5), Just(1.0), Just(5.0)],
        prop_oneof![Just(0.1), Just(0.5), Just(1.0)],
        prop_oneof![Just(0.1), Just(0.5), Just(1.0)],
        2usize..10,
        0u64..1_000_000,
    )
        .prop_map(|(jobs, ccr, out_degree, beta, resources, seed)| {
            (RandomDagParams { jobs, ccr, out_degree, beta, omega_dag: 100.0 }, resources, seed)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every generated DAG is acyclic with consistent adjacency, and rank_u
    /// strictly decreases along edges (given positive costs).
    #[test]
    fn generator_and_ranks_are_sound((params, resources, seed) in arb_params()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let wf = generate(&params, &mut rng);
        let costs = wf.sample_table(resources, &mut rng);
        // Topological order covers all jobs exactly once.
        prop_assert_eq!(wf.dag.topo_order().len(), wf.dag.job_count());
        for e in wf.dag.edges() {
            prop_assert!(wf.dag.topo_position(e.src) < wf.dag.topo_position(e.dst));
        }
        let rank = aheft::workflow::rank::rank_upward(&wf.dag, &costs);
        for e in wf.dag.edges() {
            prop_assert!(rank[e.src.idx()] >= rank[e.dst.idx()]);
        }
    }

    /// HEFT schedules are valid: no overlap, precedence + communication
    /// respected, every job placed exactly once.
    #[test]
    fn heft_schedules_are_valid((params, resources, seed) in arb_params()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let wf = generate(&params, &mut rng);
        let costs = wf.sample_table(resources, &mut rng);
        let s = heft_schedule(&wf.dag, &costs, SlotPolicy::Insertion);
        prop_assert_eq!(s.len(), wf.dag.job_count());
        let problems = s.validate(&wf.dag, &costs);
        prop_assert!(problems.is_empty(), "{:?}", problems);
    }

    /// Under exact estimates the simulator realises the static plan
    /// exactly (sim makespan == predicted makespan).
    #[test]
    fn simulation_realises_static_plan((params, resources, seed) in arb_params()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let wf = generate(&params, &mut rng);
        let costs = wf.sample_table(resources, &mut rng);
        let s = heft_schedule(&wf.dag, &costs, SlotPolicy::Insertion);
        let report = run_named_policy(
            "heft", &wf.dag, &costs, &wf.costgen,
            &PoolDynamics::fixed(resources), seed, &RunConfig::default(),
        );
        prop_assert!((report.makespan - s.predicted_makespan()).abs() < 1e-6,
            "sim {} vs plan {}", report.makespan, s.predicted_makespan());
    }

    /// AHEFT never loses to static HEFT on the same growing grid
    /// (accept-if-better, Fig. 2 line 7).
    #[test]
    fn aheft_dominates_heft((params, resources, seed) in arb_params()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let wf = generate(&params, &mut rng);
        let costs = wf.sample_table(resources, &mut rng);
        let dynamics = PoolDynamics::periodic_growth(resources, 300.0, 0.25);
        let cfg = RunConfig::default();
        let run =
            |name| run_named_policy(name, &wf.dag, &costs, &wf.costgen, &dynamics, seed, &cfg);
        let (h, a) = (run("heft"), run("aheft"));
        prop_assert!(a.makespan <= h.makespan + 1e-6,
            "AHEFT {} > HEFT {}", a.makespan, h.makespan);
    }

    /// The dynamic executor completes every workflow (no deadlocks, no
    /// lost jobs) and its makespan is at least the best theoretical bound.
    #[test]
    fn dynamic_minmin_completes((params, resources, seed) in arb_params()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let wf = generate(&params, &mut rng);
        let costs = wf.sample_table(resources, &mut rng);
        let report = run_named_policy(
            "minmin", &wf.dag, &costs, &wf.costgen,
            &PoolDynamics::fixed(resources), seed, &RunConfig::default(),
        );
        // Lower bound: the fastest single job cannot finish before its own
        // minimum cost.
        let min_job = wf.dag.job_ids()
            .map(|j| (0..resources).map(|r| costs.comp(j, ResourceId::from(r)))
                .fold(f64::INFINITY, f64::min))
            .fold(f64::INFINITY, f64::min);
        prop_assert!(report.makespan >= min_job - 1e-9);
    }

    /// Rescheduling mid-execution never schedules a job before the clock,
    /// never places anything on a dead resource, and keeps precedence.
    #[test]
    fn reschedule_respects_clock_and_pool((params, resources, seed) in arb_params()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let wf = generate(&params, &mut rng);
        let costs = wf.sample_table(resources, &mut rng);
        // Fabricate a mid-execution snapshot: first topo job finished at 50.
        let first = wf.dag.topo_order()[0];
        let mut snap = Snapshot::initial(resources);
        snap.clock = 120.0;
        snap.set_finished(first, ResourceId(0), 50.0);
        let alive: Vec<ResourceId> = (1..resources).map(ResourceId::from).collect();
        if alive.is_empty() { return Ok(()); }
        let out = aheft_reschedule(&wf.dag, &costs, &snap, &alive, &AheftConfig::default());
        for a in out.plan.assignments() {
            prop_assert!(a.start >= 120.0 - 1e-9, "{} starts before clock", a.job);
            prop_assert!(alive.contains(&a.resource), "{} on dead resource", a.job);
        }
        prop_assert_eq!(out.plan.len(), wf.dag.job_count() - 1);
    }
}
