//! Property gate for one scheduling pass across tables and threads: over
//! random DAGs, pools, mid-run snapshots (finished jobs, committed
//! transfers, running jobs) and worker threads, one pass must produce
//! **byte-identical** results — same assignment sequence, same f64 bit
//! patterns, same predicted makespan — whether
//!
//! * the pass reads the sampled cost table, or a padded copy of it that
//!   also holds columns of departed resources (never alive, which a pass
//!   must ignore) at a wider row stride, with stale columns left in its
//!   row padding by a truncation,
//! * the pass runs on the calling thread or on other threads, each with a
//!   workspace of its own, as the query service's workers do,
//! * the workspace is cold, warm from the same instance, or warm from the
//!   other table.
//!
//! The fresh pass on the sampled table is the reference;
//! `tests/dense_refactor_differential.rs` checks that one against the
//! independent oracle.

use aheft::core::aheft::{
    aheft_reschedule, aheft_schedule_into, AheftConfig, ReschedulableSet, ScheduleWorkspace,
};
use aheft::gridsim::executor::Snapshot;
use aheft::gridsim::plan::Assignment;
use aheft::gridsim::reservation::SlotPolicy;
use aheft::prelude::*;
use aheft::workflow::generators::random::{generate, RandomDagParams};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Byte-exact assignment comparison (f64 compared by bit pattern).
fn assert_identical(label: &str, a: &[Assignment], b: &[Assignment]) {
    assert_eq!(a.len(), b.len(), "{label}: plan lengths differ");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.job, y.job, "{label}: placement order diverged");
        assert_eq!(x.resource, y.resource, "{label}: {} placed differently", x.job);
        assert_eq!(x.start.to_bits(), y.start.to_bits(), "{label}: {} start bits", x.job);
        assert_eq!(x.finish.to_bits(), y.finish.to_bits(), "{label}: {} finish bits", x.job);
    }
}

/// Fabricate a plausible mid-run snapshot: a topo prefix finished (spread
/// over resources, with committed transfers for some out-edges), a couple
/// of jobs running, the rest waiting.
fn fabricate_snapshot(
    dag: &Dag,
    costs: &CostTable,
    resources: usize,
    rng: &mut StdRng,
) -> Snapshot {
    let clock = 100.0 + rng.random_range(0.0..200.0);
    let mut snap = Snapshot::initial(resources);
    snap.clock = clock;
    let done = rng.random_range(0..=dag.job_count() / 2);
    let topo: Vec<JobId> = dag.topo_order().to_vec();
    for (k, &j) in topo.iter().take(done).enumerate() {
        let r = ResourceId::from(k % resources);
        let aft = clock * (0.2 + 0.6 * (k as f64 / done.max(1) as f64));
        snap.set_finished(j, r, aft);
        for &(_, e) in dag.succs(j) {
            if rng.random_range(0.0..1.0) < 0.5 {
                let dest = ResourceId::from(rng.random_range(0..resources));
                snap.add_transfer(e, dest, aft + costs.comm(e));
            }
        }
    }
    let mut running = 0;
    for &j in topo.iter().skip(done) {
        if running >= 2 {
            break;
        }
        if dag.preds(j).iter().all(|&(p, _)| snap.is_finished(p)) {
            let r = ResourceId::from(rng.random_range(0..resources));
            snap.set_running(j, r, clock - 5.0, clock + rng.random_range(1.0..50.0));
            running += 1;
        }
    }
    snap
}

/// `costs` plus sampled columns for departed resources. The first join
/// widens the row stride; the last two joins are truncated off again, so
/// their costs stay behind in the row padding.
fn pad(costs: &CostTable, gen: &CostGenerator, rng: &mut StdRng) -> CostTable {
    let mut padded = costs.clone();
    for _ in 0..5 {
        padded.add_resource(&gen.sample_column(rng)).unwrap();
    }
    assert!(padded.truncate_resources(costs.resource_count() + 3));
    padded
}

/// The tables a pass reads, by index into `[sampled, padded]`.
const TABLES: [&str; 2] = ["sampled", "padded"];

fn arb_instance() -> impl Strategy<Value = (usize, usize, f64, u64)> {
    (
        4usize..80,                                   // jobs
        2usize..20,                                   // resources
        prop_oneof![Just(0.1), Just(1.0), Just(5.0)], // ccr
        0u64..1_000_000,                              // seed
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn schedules_identical_across_tables_and_threads(
        (jobs, resources, ccr, seed) in arb_instance()
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let p = RandomDagParams { jobs, ccr, ..RandomDagParams::paper_default() };
        let wf = generate(&p, &mut rng);
        let costs = wf.sample_table(resources, &mut rng);
        let snap = fabricate_snapshot(&wf.dag, &costs, resources, &mut rng);
        let padded = pad(&costs, &wf.costgen, &mut rng);
        // Pool subset: drop one resource on odd seeds (a departed resource).
        let alive: Vec<ResourceId> = (0..resources)
            .filter(|&r| !(seed % 2 == 1 && r == seed as usize % resources))
            .map(ResourceId::from)
            .collect();
        let configs = [
            AheftConfig::default(),
            AheftConfig { slot_policy: SlotPolicy::EndOfQueue, ..Default::default() },
            AheftConfig { reschedulable: ReschedulableSet::NotStarted, ..Default::default() },
        ];
        let tables = [&costs, &padded];
        let base: Vec<_> = configs
            .iter()
            .map(|config| aheft_reschedule(&wf.dag, &costs, &snap, &alive, config))
            .collect();

        for threads in [1usize, 2, 4] {
            // Every worker owns one workspace and walks the (table, config)
            // grid from its own offset, so each workspace switches tables
            // in a different order. Each cell runs twice: the second pass
            // hits the warm rank cache.
            let runs = std::thread::scope(|s| {
                let workers: Vec<_> = (0..threads)
                    .map(|w| {
                        let (dag, snap, alive, configs) = (&wf.dag, &snap, &alive, &configs);
                        s.spawn(move || {
                            let mut ws = ScheduleWorkspace::new();
                            let cells = TABLES.len() * configs.len();
                            let mut out = Vec::new();
                            for k in 0..cells {
                                let cell = (k + w) % cells;
                                let ti = cell / configs.len();
                                let ci = cell % configs.len();
                                for pass in ["cold", "warm"] {
                                    let predicted = aheft_schedule_into(
                                        dag,
                                        tables[ti],
                                        snap.view(),
                                        alive,
                                        &configs[ci],
                                        &mut ws,
                                    );
                                    let got = ws.assignments().to_vec();
                                    out.push((w, ti, ci, pass, got, predicted));
                                }
                            }
                            out
                        })
                    })
                    .collect();
                workers.into_iter().map(|h| h.join().unwrap()).collect::<Vec<_>>()
            });
            for (w, ti, ci, pass, got, predicted) in runs.into_iter().flatten() {
                let label =
                    format!("{}/threads={threads}/worker={w}/{pass}/{:?}", TABLES[ti], configs[ci]);
                assert_identical(&label, base[ci].plan.assignments(), &got);
                prop_assert_eq!(
                    base[ci].predicted_makespan.to_bits(),
                    predicted.to_bits(),
                    "{}: predicted makespan bits", label
                );
            }
        }
    }
}
