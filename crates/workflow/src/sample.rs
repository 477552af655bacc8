//! The worked example of the paper's Fig. 4 / Fig. 5.
//!
//! The sample DAG is the classic ten-job example of the HEFT paper
//! (Topcuoglu et al., TPDS 2002, Fig. 2), which the paper reuses with a
//! fourth resource column added. Resources `r1..r3` are present from the
//! start; `r4` joins the pool at time 15. Traditional HEFT on `r1..r3`
//! yields makespan **80** (paper Fig. 5a); AHEFT rescheduling when `r4`
//! appears yields makespan **76** (paper Fig. 5b).

use crate::build::DagBuilder;
use crate::costs::CostTable;
use crate::graph::Dag;
use crate::ids::JobId;

/// The ten-job sample DAG with the edge communication costs of Fig. 4.
pub fn fig4_dag() -> Dag {
    let mut b = DagBuilder::with_capacity(10, 15);
    for i in 1..=10 {
        b.add_job(format!("n{i}"));
    }
    let n = |i: u32| JobId(i - 1);
    let edges: [(u32, u32, f64); 15] = [
        (1, 2, 18.0),
        (1, 3, 12.0),
        (1, 4, 9.0),
        (1, 5, 11.0),
        (1, 6, 14.0),
        (2, 8, 19.0),
        (2, 9, 16.0),
        (3, 7, 23.0),
        (4, 8, 27.0),
        (4, 9, 23.0),
        (5, 9, 13.0),
        (6, 8, 15.0),
        (7, 10, 17.0),
        (8, 10, 11.0),
        (9, 10, 13.0),
    ];
    for (s, d, c) in edges {
        b.add_edge(n(s), n(d), c).expect("sample edges are valid");
    }
    b.build().expect("sample DAG is acyclic")
}

/// Full computation-cost matrix of Fig. 4 (10 jobs × 4 resources).
pub const FIG4_COMP: [[f64; 4]; 10] = [
    [14.0, 16.0, 9.0, 14.0],
    [13.0, 19.0, 18.0, 17.0],
    [11.0, 13.0, 19.0, 14.0],
    [13.0, 8.0, 17.0, 15.0],
    [12.0, 13.0, 10.0, 14.0],
    [13.0, 16.0, 9.0, 16.0],
    [7.0, 15.0, 11.0, 15.0],
    [5.0, 11.0, 14.0, 20.0],
    [18.0, 12.0, 20.0, 13.0],
    [21.0, 7.0, 16.0, 15.0],
];

/// The time at which resource `r4` joins the pool in the worked example.
pub const FIG4_R4_ARRIVAL: f64 = 15.0;

/// Cost table over the three initially available resources `r1..r3`.
pub fn fig4_costs_initial() -> CostTable {
    let dag = fig4_dag();
    let comp: Vec<Vec<f64>> = FIG4_COMP.iter().map(|row| row[..3].to_vec()).collect();
    CostTable::from_dag_comm(&dag, &comp, 1.0).expect("sample costs are valid")
}

/// Cost table over all four resources (after `r4` has joined).
pub fn fig4_costs_full() -> CostTable {
    let dag = fig4_dag();
    let comp: Vec<Vec<f64>> = FIG4_COMP.iter().map(|row| row.to_vec()).collect();
    CostTable::from_dag_comm(&dag, &comp, 1.0).expect("sample costs are valid")
}

/// The cost column of the late-arriving resource `r4`.
pub fn fig4_r4_column() -> Vec<f64> {
    FIG4_COMP.iter().map(|row| row[3]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rank::{priority_order_from_ranks, rank_upward};

    #[test]
    fn fig4_shape() {
        let d = fig4_dag();
        assert_eq!(d.job_count(), 10);
        assert_eq!(d.edge_count(), 15);
        assert_eq!(d.entry_jobs(), vec![JobId(0)]);
        assert_eq!(d.exit_jobs(), vec![JobId(9)]);
    }

    #[test]
    fn fig4_rank_u_matches_topcuoglu_table() {
        // Reference rank_u values for the 3-resource instance, from the HEFT
        // paper (Table 2 of Topcuoglu et al. 2002): n1=108.000, n2=77.000,
        // n3=80.000, n4=80.000, n5=69.000, n6=63.333, n7=42.667, n8=35.667,
        // n9=44.333, n10=14.667.
        let d = fig4_dag();
        let t = fig4_costs_initial();
        let r = rank_upward(&d, &t);
        let expect = [108.0, 77.0, 80.0, 80.0, 69.0, 63.333, 42.667, 35.667, 44.333, 14.667];
        for (i, &want) in expect.iter().enumerate() {
            assert!((r[i] - want).abs() < 0.01, "rank_u(n{}) = {}, want {}", i + 1, r[i], want);
        }
    }

    #[test]
    fn fig4_priority_order_matches_heft_paper() {
        // Descending rank_u: n1, n3/n4 (tie), n2, n5, n6, n9, n7, n8, n10.
        let d = fig4_dag();
        let t = fig4_costs_initial();
        let order = priority_order_from_ranks(&d, &rank_upward(&d, &t));
        assert_eq!(order[0], JobId(0));
        assert_eq!(order[9], JobId(9));
        // n3 and n4 tie at 80; topological position breaks the tie
        // deterministically.
        let pos = |j: u32| order.iter().position(|&x| x == JobId(j - 1)).unwrap();
        assert!(pos(3) < pos(2) && pos(4) < pos(2));
        assert!(pos(2) < pos(5));
        assert!(pos(9) < pos(7) && pos(7) < pos(8));
    }

    #[test]
    fn r4_column_matches_full_table() {
        let col = fig4_r4_column();
        let full = fig4_costs_full();
        for (i, &c) in col.iter().enumerate().take(10) {
            assert_eq!(c, full.comp(JobId(i as u32), crate::ids::ResourceId(3)));
        }
    }
}
