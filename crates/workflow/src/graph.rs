//! Core DAG representation.
//!
//! A [`Dag`] is immutable after construction (use [`crate::DagBuilder`]) and
//! caches predecessor/successor adjacency plus a topological order, so the
//! schedulers never re-derive structure in their hot loops.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::ids::JobId;

/// Source of process-unique [`Dag::uid`] values. Uniqueness is all that
/// matters (the ids never affect scheduling output, only cache validity),
/// so a relaxed fetch-add is enough even under the parallel sweep driver.
static NEXT_DAG_UID: AtomicU64 = AtomicU64::new(1);

pub(crate) fn fresh_dag_uid() -> u64 {
    NEXT_DAG_UID.fetch_add(1, Ordering::Relaxed)
}

/// Dense index of an edge in [`Dag::edges`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EdgeId(pub u32);

impl EdgeId {
    /// The edge's position as a `usize`, for vector indexing.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// Operation class of a job.
///
/// Scientific workflows are composed of many job *instances* of only a
/// handful of unique *operations* (the paper's §4.3 observation 2: Montage
/// has 11 unique executables; BLAST and WIEN2K likewise). Jobs of the same
/// class share the same nominal computation demand, which is what makes the
/// application DAG cost model realistic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OpClass(pub u16);

impl OpClass {
    /// Default class for DAGs whose jobs are all unique operations
    /// (the parametric random DAGs of §4.2 draw an independent nominal cost
    /// per job, which we model as one class per job).
    pub const UNIQUE: OpClass = OpClass(u16::MAX);
}

/// A node of the workflow DAG.
#[derive(Debug, Clone)]
pub struct Job {
    /// Human-readable name (e.g. `"LAPW1_K7"`, `"n4"`).
    pub name: String,
    /// Operation class; see [`OpClass`].
    pub op: OpClass,
}

/// A directed data dependency `src -> dst`.
#[derive(Debug, Clone)]
pub struct Edge {
    /// Producer job.
    pub src: JobId,
    /// Consumer job.
    pub dst: JobId,
    /// Abstract volume of data shipped from `src` to `dst`. The communication
    /// *cost* is derived by [`crate::CostTable`]; with the paper's uniform
    /// network model cost equals volume.
    pub data: f64,
}

/// An immutable, validated workflow DAG.
///
/// Construct with [`crate::DagBuilder`]; invalid inputs (cycles, duplicate
/// edges, unknown job ids) are rejected at build time so every `Dag` value
/// in the system is well formed.
#[derive(Debug, Clone)]
pub struct Dag {
    pub(crate) jobs: Vec<Job>,
    pub(crate) edges: Vec<Edge>,
    /// `succs[i]` — outgoing edges of job `i` as `(dst, edge)` pairs.
    pub(crate) succs: Vec<Vec<(JobId, EdgeId)>>,
    /// `preds[i]` — incoming edges of job `i` as `(src, edge)` pairs.
    pub(crate) preds: Vec<Vec<(JobId, EdgeId)>>,
    /// Topological order (every job appears after all its predecessors).
    pub(crate) topo: Vec<JobId>,
    /// `topo_pos[i]` — position of job `i` within `topo`.
    pub(crate) topo_pos: Vec<u32>,
    /// Process-unique structure id; see [`Dag::uid`].
    pub(crate) uid: u64,
}

impl Dag {
    /// Process-unique id of this DAG's structure, assigned at build time.
    /// Clones share the uid — they are structurally identical — so caches
    /// keyed on it (e.g. [`crate::rank_engine::RankEngine`]) stay valid
    /// across clones but never confuse two independently built DAGs that
    /// happen to share job/edge counts.
    #[inline]
    pub fn uid(&self) -> u64 {
        self.uid
    }

    /// Number of jobs `v`.
    #[inline]
    pub fn job_count(&self) -> usize {
        self.jobs.len()
    }

    /// Number of edges `e`.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Iterate over all job ids in index order.
    pub fn job_ids(&self) -> impl ExactSizeIterator<Item = JobId> + '_ {
        (0..self.jobs.len()).map(JobId::from)
    }

    /// The job record for `id`.
    #[inline]
    pub fn job(&self, id: JobId) -> &Job {
        &self.jobs[id.idx()]
    }

    /// The edge record for `id`.
    #[inline]
    pub fn edge(&self, id: EdgeId) -> &Edge {
        &self.edges[id.idx()]
    }

    /// All edges.
    #[inline]
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Outgoing `(successor, edge)` pairs of `id`.
    #[inline]
    pub fn succs(&self, id: JobId) -> &[(JobId, EdgeId)] {
        &self.succs[id.idx()]
    }

    /// Incoming `(predecessor, edge)` pairs of `id`.
    #[inline]
    pub fn preds(&self, id: JobId) -> &[(JobId, EdgeId)] {
        &self.preds[id.idx()]
    }

    /// Jobs with no predecessors (workflow entry points).
    pub fn entry_jobs(&self) -> Vec<JobId> {
        self.job_ids().filter(|&j| self.preds(j).is_empty()).collect()
    }

    /// Jobs with no successors (workflow exit points; the makespan is the
    /// latest finish time over these, paper Eq. 4).
    pub fn exit_jobs(&self) -> Vec<JobId> {
        self.job_ids().filter(|&j| self.succs(j).is_empty()).collect()
    }

    /// A topological order of the jobs (cached at build time).
    #[inline]
    pub fn topo_order(&self) -> &[JobId] {
        &self.topo
    }

    /// Position of `id` in the topological order; useful as a deterministic
    /// tie-breaker when sorting by rank.
    #[inline]
    pub fn topo_position(&self, id: JobId) -> usize {
        self.topo_pos[id.idx()] as usize
    }

    /// Sum of data volumes over all edges.
    pub fn total_data(&self) -> f64 {
        // analyzer::allow(float-reduction-discipline): edge-id order is fixed
        // at DAG construction; diagnostic total used by generator tests.
        self.edges.iter().map(|e| e.data).sum::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use crate::build::DagBuilder;
    use crate::ids::JobId;

    fn diamond() -> crate::Dag {
        // n1 -> n2, n1 -> n3, n2 -> n4, n3 -> n4
        let mut b = DagBuilder::new();
        for name in ["a", "b", "c", "d"] {
            b.add_job(name);
        }
        b.add_edge(JobId(0), JobId(1), 1.0).unwrap();
        b.add_edge(JobId(0), JobId(2), 2.0).unwrap();
        b.add_edge(JobId(1), JobId(3), 3.0).unwrap();
        b.add_edge(JobId(2), JobId(3), 4.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn adjacency_is_consistent() {
        let d = diamond();
        assert_eq!(d.job_count(), 4);
        assert_eq!(d.edge_count(), 4);
        assert_eq!(d.succs(JobId(0)).len(), 2);
        assert_eq!(d.preds(JobId(3)).len(), 2);
        assert_eq!(d.entry_jobs(), vec![JobId(0)]);
        assert_eq!(d.exit_jobs(), vec![JobId(3)]);
    }

    #[test]
    fn topo_order_respects_edges() {
        let d = diamond();
        for e in d.edges() {
            assert!(d.topo_position(e.src) < d.topo_position(e.dst));
        }
    }

    #[test]
    fn total_data_sums_edges() {
        let d = diamond();
        assert!((d.total_data() - 10.0).abs() < 1e-12);
    }
}
