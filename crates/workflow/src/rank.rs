//! HEFT ranks (paper Eqs. 5–6) and the critical path.
//!
//! The **upward rank** of a job is the length of the longest path from the
//! job to an exit, counting average computation costs of nodes and average
//! communication costs of edges:
//!
//! ```text
//! rank_u(n_i) = w̄_i + max_{n_j ∈ succ(n_i)} ( c̄(i,j) + rank_u(n_j) )
//! rank_u(n_exit) = w̄_exit
//! ```
//!
//! Scheduling jobs in non-increasing `rank_u` order is a topological order
//! (a predecessor's rank strictly exceeds a successor's whenever costs are
//! positive), which both HEFT and AHEFT rely on.

use crate::costs::CostTable;
use crate::graph::Dag;
use crate::ids::{JobId, ResourceId};

/// Compute `rank_u` for every job, averaging over the full resource pool.
///
/// Delegates to [`rank_upward_over_into`] with every column alive, in
/// ascending id order: there is exactly one rank kernel.
pub fn rank_upward(dag: &Dag, costs: &CostTable) -> Vec<f64> {
    let alive: Vec<ResourceId> = (0..costs.resource_count()).map(ResourceId::from).collect();
    rank_upward_over(dag, costs, &alive)
}

/// As [`rank_upward`] but averaging computation costs over the `alive`
/// subset of resources only. AHEFT recomputes ranks at every rescheduling
/// instant against the *current* pool (paper Fig. 2, line 5).
pub fn rank_upward_over(dag: &Dag, costs: &CostTable, alive: &[ResourceId]) -> Vec<f64> {
    let mut rank = Vec::new();
    rank_upward_over_into(dag, costs, alive, &mut rank);
    rank
}

/// As [`rank_upward_over`], writing into a caller-provided buffer so the
/// planner hot path performs no allocation (after the buffer's first growth).
// analyzer: hot
pub fn rank_upward_over_into(
    dag: &Dag,
    costs: &CostTable,
    alive: &[ResourceId],
    rank: &mut Vec<f64>,
) {
    rank.clear();
    rank.resize(dag.job_count(), 0.0);
    // Prepass: fold each job's alive costs into its sum. Per job the
    // additions happen in the caller's left-to-right alive order: that
    // order is the Eq. 5 fold-order contract `RankEngine` replays.
    costs.fold_columns_into(alive, rank);
    let len_f = alive.len() as f64;
    // The sweep consumes each job's slot exactly once, at the job's own
    // turn: successors (already processed) hold ranks, predecessors still
    // hold sums, so the buffer converts in place without scratch.
    for &j in dag.topo_order().iter().rev() {
        let mut best = 0.0f64;
        for &(s, e) in dag.succs(j) {
            let cand = costs.avg_comm(e) + rank[s.idx()];
            if cand > best {
                best = cand;
            }
        }
        let avg = if alive.is_empty() { 0.0 } else { rank[j.idx()] / len_f };
        rank[j.idx()] = avg + best;
    }
}

/// Jobs sorted by non-increasing `rank_u`, ties broken by topological
/// position (so the order is always a valid topological order, even with
/// zero-cost jobs or edges).
pub fn priority_order_from_ranks(dag: &Dag, rank: &[f64]) -> Vec<JobId> {
    let mut order = Vec::new();
    priority_order_from_ranks_into(dag, rank, &mut order);
    order
}

/// As [`priority_order_from_ranks`], writing into a caller-provided buffer.
///
/// Uses an unstable (in-place, allocation-free) sort: the comparator is a
/// total order — rank ties are broken by the unique topological position —
/// so the result is identical to a stable sort.
// analyzer: hot
pub fn priority_order_from_ranks_into(dag: &Dag, rank: &[f64], order: &mut Vec<JobId>) {
    order.clear();
    order.extend(dag.job_ids());
    order.sort_unstable_by(|&a, &b| {
        rank[b.idx()]
            .partial_cmp(&rank[a.idx()])
            // analyzer::allow(panic-in-hot-path): ranks are sums/maxes of finite
            // validated costs; a NaN comparator would silently scramble the
            // priority order, so corruption must abort instead.
            .expect("ranks are finite")
            .then_with(|| dag.topo_position(a).cmp(&dag.topo_position(b)))
    });
}

/// The critical path: jobs on the longest average-cost entry→exit path.
/// Its length (`rank_u` of the first job) lower-bounds any schedule built
/// from average costs and is the denominator of the SLR metric.
pub fn critical_path(dag: &Dag, costs: &CostTable) -> (Vec<JobId>, f64) {
    let rank = rank_upward(dag, costs);
    let start = dag
        .entry_jobs()
        .into_iter()
        .max_by(|&a, &b| rank[a.idx()].partial_cmp(&rank[b.idx()]).expect("finite"))
        .expect("non-empty DAG has an entry");
    let length = rank[start.idx()];
    let mut path = vec![start];
    let mut cur = start;
    loop {
        let next = dag
            .succs(cur)
            .iter()
            .max_by(|&&(s1, e1), &&(s2, e2)| {
                let v1 = costs.avg_comm(e1) + rank[s1.idx()];
                let v2 = costs.avg_comm(e2) + rank[s2.idx()];
                v1.partial_cmp(&v2).expect("finite")
            })
            .map(|&(s, _)| s);
        match next {
            Some(s) => {
                path.push(s);
                cur = s;
            }
            None => break,
        }
    }
    (path, length)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::DagBuilder;
    use crate::costs::CostTable;

    /// chain a -> b -> c with unit comm, comp 10/20/30 on one resource.
    fn chain() -> (Dag, CostTable) {
        let mut b = DagBuilder::new();
        let ids: Vec<_> = (0..3).map(|i| b.add_job(format!("j{i}"))).collect();
        b.add_edge(ids[0], ids[1], 1.0).unwrap();
        b.add_edge(ids[1], ids[2], 2.0).unwrap();
        let dag = b.build().unwrap();
        let costs =
            CostTable::from_dag_comm(&dag, &[vec![10.0], vec![20.0], vec![30.0]], 1.0).unwrap();
        (dag, costs)
    }

    #[test]
    fn rank_u_on_chain() {
        let (dag, costs) = chain();
        let r = rank_upward(&dag, &costs);
        assert!((r[2] - 30.0).abs() < 1e-12);
        assert!((r[1] - (20.0 + 2.0 + 30.0)).abs() < 1e-12);
        assert!((r[0] - (10.0 + 1.0 + 52.0)).abs() < 1e-12);
    }

    #[test]
    fn priority_order_is_topological() {
        let (dag, costs) = chain();
        let order = priority_order_from_ranks(&dag, &rank_upward(&dag, &costs));
        assert_eq!(order, dag.topo_order().to_vec());
    }

    #[test]
    fn critical_path_spans_entry_to_exit() {
        let (dag, costs) = chain();
        let (path, len) = critical_path(&dag, &costs);
        assert_eq!(path.len(), 3);
        assert!((len - 63.0).abs() < 1e-12);
    }

    #[test]
    fn rank_decreases_along_edges() {
        let (dag, costs) = chain();
        let r = rank_upward(&dag, &costs);
        for e in dag.edges() {
            assert!(r[e.src.idx()] > r[e.dst.idx()]);
        }
    }
}
