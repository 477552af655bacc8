//! Structural analysis of workflow DAGs.
//!
//! The paper's §4.3 attributes AHEFT's effectiveness to DAG *shape* —
//! specifically the degree of parallelism. These helpers quantify that:
//! level widths, maximum width, depth, and the average parallelism `v/depth`.

use crate::graph::Dag;
use crate::topo;

/// Summary of a DAG's shape.
#[derive(Debug, Clone, PartialEq)]
pub struct ShapeSummary {
    /// Number of jobs `v`.
    pub jobs: usize,
    /// Number of edges `e`.
    pub edges: usize,
    /// Number of levels (longest chain length in nodes).
    pub depth: usize,
    /// Widest level (an upper bound on exploitable parallelism at one instant
    /// under level-synchronous execution).
    pub max_width: usize,
    /// Mean level width.
    pub mean_width: f64,
    /// `v / depth` — the paper's informal "parallelism degree".
    pub avg_parallelism: f64,
    /// Number of entry jobs.
    pub entries: usize,
    /// Number of exit jobs.
    pub exits: usize,
}

/// Width of every level (level = longest distance from an entry).
pub fn width_profile(dag: &Dag) -> Vec<usize> {
    let lv = topo::levels(dag);
    let depth = lv.iter().copied().max().map_or(0, |m| m as usize + 1);
    let mut width = vec![0usize; depth];
    for l in lv {
        width[l as usize] += 1;
    }
    width
}

/// Compute the full [`ShapeSummary`].
pub fn shape(dag: &Dag) -> ShapeSummary {
    let widths = width_profile(dag);
    let depth = widths.len();
    let max_width = widths.iter().copied().max().unwrap_or(0);
    let mean_width = if depth == 0 { 0.0 } else { dag.job_count() as f64 / depth as f64 };
    ShapeSummary {
        jobs: dag.job_count(),
        edges: dag.edge_count(),
        depth,
        max_width,
        mean_width,
        avg_parallelism: mean_width,
        entries: dag.entry_jobs().len(),
        exits: dag.exit_jobs().len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::DagBuilder;

    fn fork_join(n: usize) -> Dag {
        let mut b = DagBuilder::new();
        let src = b.add_job("src");
        let mids: Vec<_> = (0..n).map(|i| b.add_job(format!("m{i}"))).collect();
        let dst = b.add_job("dst");
        for &m in &mids {
            b.add_edge(src, m, 1.0).unwrap();
            b.add_edge(m, dst, 1.0).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn widths_of_fork_join() {
        let d = fork_join(5);
        assert_eq!(width_profile(&d), vec![1, 5, 1]);
    }

    #[test]
    fn shape_summary_fields() {
        let d = fork_join(5);
        let s = shape(&d);
        assert_eq!(s.jobs, 7);
        assert_eq!(s.depth, 3);
        assert_eq!(s.max_width, 5);
        assert_eq!(s.entries, 1);
        assert_eq!(s.exits, 1);
        assert!((s.avg_parallelism - 7.0 / 3.0).abs() < 1e-12);
    }
}
