//! Evaluation metrics.
//!
//! * **makespan** — total workflow completion time (paper Eq. 4),
//! * **improvement rate** — the paper's headline metric:
//!   `(makespan_HEFT − makespan_AHEFT) / makespan_HEFT`,
//! * **SLR** (schedule length ratio) — makespan normalised by the
//!   average-cost critical path (standard in the HEFT literature).

use aheft_workflow::rank::critical_path;
use aheft_workflow::{CostTable, Dag};

/// The paper's improvement rate of `new` over `base`:
/// `(base − new) / base`. Positive = `new` is better. Zero when `base` is 0.
///
/// ```
/// use aheft_core::metrics::improvement_rate;
/// // Paper Table 6: BLAST 4939 (HEFT) -> 3933 (AHEFT) is a 20.4% improvement.
/// let rate = improvement_rate(4939.0, 3933.0);
/// assert!((rate - 0.2036).abs() < 1e-3);
/// assert_eq!(improvement_rate(0.0, 10.0), 0.0); // degenerate base
/// ```
pub fn improvement_rate(base: f64, new: f64) -> f64 {
    if base == 0.0 {
        0.0
    } else {
        (base - new) / base
    }
}

/// Schedule length ratio: `makespan / critical_path_length` where the
/// critical path uses average costs. Lower is better; values can drop below
/// 1 because the CP uses *average* computation costs while a schedule can
/// pick faster-than-average resources.
pub fn schedule_length_ratio(dag: &Dag, costs: &CostTable, makespan: f64) -> f64 {
    let (_, cp) = critical_path(dag, costs);
    if cp == 0.0 {
        0.0
    } else {
        makespan / cp
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aheft_workflow::sample;

    #[test]
    fn improvement_rate_basic() {
        assert!((improvement_rate(100.0, 80.0) - 0.2).abs() < 1e-12);
        assert!((improvement_rate(80.0, 100.0) + 0.25).abs() < 1e-12);
        assert_eq!(improvement_rate(0.0, 5.0), 0.0);
    }

    #[test]
    fn paper_example_improvement() {
        // Fig. 5: 80 -> 76 is a 5% improvement.
        assert!((improvement_rate(80.0, 76.0) - 0.05).abs() < 1e-12);
    }

    #[test]
    fn slr_of_fig4() {
        let dag = sample::fig4_dag();
        let costs = sample::fig4_costs_initial();
        // Critical path (average costs) of the sample DAG is rank_u(n1) = 108.
        let slr = schedule_length_ratio(&dag, &costs, 80.0);
        assert!((slr - 80.0 / 108.0).abs() < 1e-9);
    }
}
