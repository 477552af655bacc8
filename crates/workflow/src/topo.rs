//! Topological utilities: Kahn ordering and level assignment.

use crate::graph::{Dag, EdgeId};
use crate::ids::JobId;

/// Kahn topological sort over raw adjacency; returns `None` on a cycle.
///
/// Ties (multiple zero-indegree jobs) are broken by ascending job id, so the
/// order is deterministic.
pub(crate) fn kahn_order(
    v: usize,
    succs: &[Vec<(JobId, EdgeId)>],
    preds: &[Vec<(JobId, EdgeId)>],
) -> Option<Vec<JobId>> {
    let mut indeg: Vec<u32> = preds.iter().map(|p| p.len() as u32).collect();
    // A BinaryHeap of Reverse(job) would give the same order; with the small
    // frontiers typical of workflow DAGs a sorted Vec used as a stack is
    // cheaper and simpler.
    let mut ready: Vec<JobId> = (0..v).map(JobId::from).filter(|j| indeg[j.idx()] == 0).collect();
    ready.sort_unstable_by(|a, b| b.cmp(a)); // pop() takes the smallest id
    let mut order = Vec::with_capacity(v);
    while let Some(j) = ready.pop() {
        order.push(j);
        for &(s, _) in &succs[j.idx()] {
            indeg[s.idx()] -= 1;
            if indeg[s.idx()] == 0 {
                ready.push(s);
            }
        }
        // Keep `ready` sorted descending so pop() remains the smallest id.
        ready.sort_unstable_by(|a, b| b.cmp(a));
    }
    (order.len() == v).then_some(order)
}

/// Assign each job its level: entry jobs are level 0, and every other job is
/// `1 + max(level of predecessors)`. This is the "B-level by depth" layering
/// used to characterize DAG shape.
pub fn levels(dag: &Dag) -> Vec<u32> {
    let mut lvl = vec![0u32; dag.job_count()];
    for &j in dag.topo_order() {
        let l = dag.preds(j).iter().map(|&(p, _)| lvl[p.idx()] + 1).max().unwrap_or(0);
        lvl[j.idx()] = l;
    }
    lvl
}

/// Number of levels (depth) of the DAG.
pub fn depth(dag: &Dag) -> usize {
    levels(dag).into_iter().max().map_or(0, |m| m as usize + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::DagBuilder;

    fn fork_join() -> Dag {
        // 0 -> {1,2,3} -> 4
        let mut b = DagBuilder::new();
        for i in 0..5 {
            b.add_job(format!("j{i}"));
        }
        for m in 1..4u32 {
            b.add_edge(JobId(0), JobId(m), 1.0).unwrap();
            b.add_edge(JobId(m), JobId(4), 1.0).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn levels_of_fork_join() {
        let d = fork_join();
        assert_eq!(levels(&d), vec![0, 1, 1, 1, 2]);
        assert_eq!(depth(&d), 3);
    }

    #[test]
    fn topo_is_deterministic_smallest_first() {
        let d = fork_join();
        assert_eq!(d.topo_order().to_vec(), vec![JobId(0), JobId(1), JobId(2), JobId(3), JobId(4)]);
    }
}
