//! Heterogeneous cost model.
//!
//! Follows the model of the paper (inherited from HEFT \[19\]):
//!
//! * `w[i][j]` — computation cost of job `n_i` on resource `r_j`. The nominal
//!   (average) cost `ω_i` of each job is drawn from `U[0, 2·ω_DAG]` and the
//!   per-resource cost from `ω_i · U[1 − β/2, 1 + β/2]`, where `β` is the
//!   resource heterogeneity factor.
//! * `c(i,k)` — communication cost of edge `(i,k)`, paid only when producer
//!   and consumer run on different resources. The paper's network is uniform
//!   (no per-link bandwidths), so the cost equals the edge's data volume
//!   scaled by a global unit cost.
//!
//! [`CostTable`] supports appending columns for resources that join the pool
//! mid-run, which is the central mechanic of the paper's grid dynamics;
//! [`CostGenerator`] retains the nominal `ω` vector so the new columns are
//! drawn from the *same* distribution as the original ones.

use std::sync::atomic::{AtomicU64, Ordering};

use rand::Rng;

use crate::error::WorkflowError;
use crate::graph::{Dag, EdgeId};
use crate::ids::{JobId, ResourceId};

/// Source of process-unique [`CostTable::state_id`] values; relaxed
/// ordering suffices (uniqueness only, the ids never reach an output).
static NEXT_TABLE_STATE: AtomicU64 = AtomicU64::new(1);

fn fresh_table_state() -> u64 {
    NEXT_TABLE_STATE.fetch_add(1, Ordering::Relaxed)
}

fn is_valid_cost(w: f64) -> bool {
    w.is_finite() && w >= 0.0
}

/// Edge communication costs: each edge's data volume times `unit_cost`
/// (uniform network).
fn comm_from_volumes(dag: &Dag, unit_cost: f64) -> Vec<f64> {
    dag.edges().iter().map(|e| e.data * unit_cost).collect()
}

/// Row-stride quantum of [`CostTable`]: a join that does not fit the row
/// stride widens it to the next multiple of this above the new column
/// count, so the joins after it write into the row padding.
const TRANSPOSE_TILE: usize = 64;

/// Columns [`CostGenerator::sample_table`] draws into a scratch block
/// before it transposes them into the rows: 64 bytes of each row.
/// Against drawing straight into a column-major buffer, 64-column blocks
/// sampled 1.1–1.4× slower at a few hundred to a few thousand jobs, where
/// the block is as large as the table; 8-column blocks are level there
/// and about as fast as 64-column ones at v = 20k / R = 1024.
const SAMPLE_BLOCK: usize = 8;

/// Rows [`CostTable::fold_columns_into`] folds side by side: their add
/// chains are independent, so they overlap instead of waiting on one
/// another's latency.
const FOLD_ROWS: usize = 8;

/// Computation and communication cost matrices for one DAG on one
/// (growable) resource pool.
///
/// Computation costs are stored **row-major in one contiguous buffer**
/// (`comp[i · stride + r]` = `w[i][r]`), because the scheduler reads one
/// job's costs across the pool: the EFT scan of Eqs. 1–3 and the rank
/// average of Eq. 5 both walk [`CostTable::row`]. A table starts with
/// `stride == resource_count`. [`CostTable::add_resource`] — the paper's
/// central pool-growth mechanic — writes the new column into the row
/// padding in O(jobs); when the padding is used up it first widens the
/// stride in place to the next multiple of `TRANSPOSE_TILE` (64).
#[derive(Debug, Clone)]
pub struct CostTable {
    /// Row-major `w`: `comp[i · stride + j]` is the cost of job `i` on
    /// resource `j < resources`; the rest of each row is padding, never
    /// read.
    comp: Vec<f64>,
    /// `comm[e]` — cost of edge `e` when endpoints are on different resources.
    comm: Vec<f64>,
    jobs: usize,
    resources: usize,
    /// Cells per row of `comp`, at least `resources`. Not part of the
    /// state: a truncated table keeps its wider stride.
    stride: usize,
    /// Process-unique id of the current column state; see
    /// [`CostTable::state_id`].
    state_id: u64,
    /// Append lineage of this value: `(state_id, resources)` pairs of the
    /// states this table passed through before earlier `add_resource`
    /// calls, oldest first. Bounded by the number of appends (≤ pool size).
    history: Vec<(u64, usize)>,
}

impl CostTable {
    /// Build from explicit matrices. `comp` must have one row per job with
    /// equal lengths; costs must be finite and non-negative.
    pub fn new(comp: &[Vec<f64>], comm: Vec<f64>) -> Result<Self, WorkflowError> {
        let resources = comp.first().map_or(0, Vec::len);
        if let Some(i) = comp.iter().position(|row| row.len() != resources) {
            // Rows are checked in order: a bad cost above the ragged row
            // is the error to report.
            Self::from_rows(comp[..i].concat(), i, resources, Vec::new())?;
            return Err(WorkflowError::DimensionMismatch(format!(
                "comp row {i} has {} columns, expected {resources}",
                comp[i].len()
            )));
        }
        Self::from_rows(comp.concat(), comp.len(), resources, comm)
    }

    /// Take ownership of a row-major `comp` buffer (`comp[i · resources +
    /// j]` = `w[i][j]`) after checking that every cost is finite and
    /// non-negative. The first bad cell is reported in row-major order.
    fn from_rows(
        comp: Vec<f64>,
        jobs: usize,
        resources: usize,
        comm: Vec<f64>,
    ) -> Result<Self, WorkflowError> {
        debug_assert_eq!(comp.len(), jobs * resources);
        if let Some(k) = comp.iter().position(|&w| !is_valid_cost(w)) {
            return Err(WorkflowError::InvalidCost(format!(
                "w[{}][{}] = {}",
                k / resources,
                k % resources,
                comp[k]
            )));
        }
        for (e, &c) in comm.iter().enumerate() {
            if !is_valid_cost(c) {
                return Err(WorkflowError::InvalidCost(format!("comm[{e}] = {c}")));
            }
        }
        Ok(Self {
            comp,
            comm,
            jobs,
            resources,
            stride: resources,
            state_id: fresh_table_state(),
            history: Vec::new(),
        })
    }

    /// Derive communication costs from a DAG's edge data volumes times a
    /// global `unit_cost` per volume unit (uniform network).
    pub fn from_dag_comm(
        dag: &Dag,
        comp: &[Vec<f64>],
        unit_cost: f64,
    ) -> Result<Self, WorkflowError> {
        if comp.len() != dag.job_count() {
            return Err(WorkflowError::DimensionMismatch(format!(
                "{} comp rows for {} jobs",
                comp.len(),
                dag.job_count()
            )));
        }
        Self::new(comp, comm_from_volumes(dag, unit_cost))
    }

    /// Number of resources currently covered by the table.
    #[inline]
    pub fn resource_count(&self) -> usize {
        self.resources
    }

    /// Number of jobs covered by the table.
    #[inline]
    pub fn job_count(&self) -> usize {
        self.jobs
    }

    /// Computation cost `w[i][j]`.
    ///
    /// # Panics
    /// Panics if `job` or `r` lies outside the table.
    #[inline]
    pub fn comp(&self, job: JobId, r: ResourceId) -> f64 {
        self.row(job)[r.idx()]
    }

    /// Job `job`'s costs on every resource of the table (`row[r] =
    /// w[job][r]`), one contiguous slice of exactly
    /// [`CostTable::resource_count`] cells: the per-job read of the EFT
    /// scan.
    ///
    /// # Panics
    /// Panics if `job` lies outside the table.
    #[inline]
    pub fn row(&self, job: JobId) -> &[f64] {
        &self.comp[job.idx() * self.stride..][..self.resources]
    }

    /// Process-unique id of this table's current column state. Columns are
    /// immutable once added, so two tables reporting the same `state_id`
    /// hold bit-identical costs, whatever their row strides (clones share
    /// the id; [`CostTable::add_resource`] draws a fresh one).
    #[inline]
    pub fn state_id(&self) -> u64 {
        self.state_id
    }

    /// If this table passed through state `state_id` on its append lineage
    /// (or is in it now), return the resource count it had then: columns
    /// `[0, count)` are bit-identical to that state's, and columns
    /// `[count, resource_count)` were appended since. Returns `None` for a
    /// state this value never was in — derived sums cached against it must
    /// be rebuilt from scratch.
    pub fn columns_since(&self, state_id: u64) -> Option<usize> {
        if state_id == self.state_id {
            return Some(self.resources);
        }
        self.history.iter().rev().find(|&&(id, _)| id == state_id).map(|&(_, n)| n)
    }

    /// Accumulate the listed resources' costs into `acc` (`acc[i] +=
    /// w[i][r]` for each `r` in list order), reading `FOLD_ROWS` rows side
    /// by side so their add chains overlap.
    ///
    /// **Bit-identical** to a one-job-at-a-time fold: each job's partial
    /// sum still sees the columns in exactly the caller's left-to-right
    /// order — interleaving only overlaps work across *different* jobs,
    /// never reorders the additions within one job. This is the Eq. 5
    /// fold-order contract of [`crate::rank::rank_upward_over_into`], which
    /// `RankEngine` replays.
    ///
    /// # Panics
    /// Panics if `acc.len()` differs from the job count or a resource id
    /// lies outside the table.
    // analyzer: hot
    pub fn fold_columns_into(&self, resources: &[ResourceId], acc: &mut [f64]) {
        assert_eq!(acc.len(), self.jobs, "accumulator length must equal the job count");
        let mut blocks = acc.chunks_exact_mut(FOLD_ROWS);
        let mut first = 0;
        for block in blocks.by_ref() {
            let rows: [&[f64]; FOLD_ROWS] =
                std::array::from_fn(|k| self.row(JobId::from(first + k)));
            let mut sums = [0.0; FOLD_ROWS];
            sums.copy_from_slice(block);
            for &r in resources {
                for (sum, row) in sums.iter_mut().zip(&rows) {
                    *sum += row[r.idx()];
                }
            }
            block.copy_from_slice(&sums);
            first += FOLD_ROWS;
        }
        for (sum, i) in blocks.into_remainder().iter_mut().zip(first..) {
            let row = self.row(JobId::from(i));
            for &r in resources {
                *sum += row[r.idx()];
            }
        }
    }

    /// Fill `rows` with the computation table at an unpadded stride:
    /// `rows[i * resource_count + r] = w[i][r]`, one row copy per job.
    pub fn write_row_major_into(&self, rows: &mut Vec<f64>) {
        rows.clear();
        rows.reserve(self.jobs * self.resources);
        for i in 0..self.jobs {
            rows.extend_from_slice(self.row(JobId::from(i)));
        }
    }

    /// Communication cost of `edge` between two *distinct* resources.
    #[inline]
    pub fn comm(&self, edge: EdgeId) -> f64 {
        self.comm[edge.idx()]
    }

    /// Effective communication cost of `edge` given a placement: zero when
    /// producer and consumer are co-located (paper §3.4).
    #[inline]
    pub fn comm_between(&self, edge: EdgeId, from: ResourceId, to: ResourceId) -> f64 {
        if from == to {
            0.0
        } else {
            self.comm[edge.idx()]
        }
    }

    /// Average communication cost `c̄` of `edge` as used by the upward rank.
    /// With the uniform network model this equals the raw edge cost.
    #[inline]
    pub fn avg_comm(&self, edge: EdgeId) -> f64 {
        self.comm[edge.idx()]
    }

    /// Append one resource column: `column[i]` is `w[i][new]`. O(jobs): the
    /// column is written into the row padding, after widening the stride
    /// when the rows are full.
    pub fn add_resource(&mut self, column: &[f64]) -> Result<ResourceId, WorkflowError> {
        if column.len() != self.jobs {
            return Err(WorkflowError::DimensionMismatch(format!(
                "column of {} entries for {} jobs",
                column.len(),
                self.jobs
            )));
        }
        for (i, &w) in column.iter().enumerate() {
            if !is_valid_cost(w) {
                return Err(WorkflowError::InvalidCost(format!("w[{i}][new] = {w}")));
            }
        }
        let r = self.resources;
        if r == self.stride {
            self.restride(((r + 1) / TRANSPOSE_TILE + 1) * TRANSPOSE_TILE);
        }
        for (cell, &w) in self.comp.iter_mut().skip(r).step_by(self.stride).zip(column) {
            *cell = w;
        }
        let id = ResourceId::from(r);
        self.history.push((self.state_id, r));
        self.state_id = fresh_table_state();
        self.resources += 1;
        Ok(id)
    }

    /// Widen the row stride to `stride` in place: grow the buffer, then
    /// move the rows from the last to the first, so each row lands on
    /// cells whose old contents have already moved (or are its own).
    fn restride(&mut self, stride: usize) {
        let old = self.stride;
        let len = self.jobs * stride;
        self.comp.reserve_exact(len - self.comp.len());
        self.comp.resize(len, 0.0);
        for i in (1..self.jobs).rev() {
            self.comp.copy_within(i * old..i * old + self.resources, i * stride);
        }
        self.stride = stride;
    }

    /// Truncate the table back to `r` resources **in place** by walking the
    /// append lineage backwards: each undone [`Self::add_resource`] pops its
    /// history entry and restores the `state_id` the table had before that
    /// append. The buffer and its stride stay as they are (the dropped
    /// columns become padding), so an append/evaluate/truncate cycle (the
    /// what-if scratch path) allocates nothing once the stride has room.
    ///
    /// Returns `true` when `r` was reached via the lineage. When `r` is not
    /// a recorded lineage state (below the oldest append, or above the
    /// current count) the table is left untouched and `false` is returned.
    pub fn truncate_resources(&mut self, r: usize) -> bool {
        if r == self.resources {
            return true;
        }
        if r > self.resources || !self.history.iter().any(|&(_, n)| n == r) {
            return false;
        }
        while self.resources > r {
            let (id, n) = self.history.pop().expect("lineage reaches r");
            self.state_id = id;
            self.resources = n;
        }
        true
    }
}

/// Generator that remembers each job's nominal cost `ω_i` and the
/// heterogeneity factor `β`, so resources joining the pool later draw their
/// cost column from the same distribution (DESIGN.md §4.6).
#[derive(Debug, Clone)]
pub struct CostGenerator {
    omega: Vec<f64>,
    beta: f64,
}

impl CostGenerator {
    /// Create from per-job nominal costs and heterogeneity `β ∈ [0, 2]`.
    /// `β = 0` makes the pool homogeneous.
    pub fn new(omega: Vec<f64>, beta: f64) -> Result<Self, WorkflowError> {
        if !(0.0..=2.0).contains(&beta) {
            return Err(WorkflowError::InvalidCost(format!("beta = {beta}")));
        }
        for (i, &w) in omega.iter().enumerate() {
            if !is_valid_cost(w) {
                return Err(WorkflowError::InvalidCost(format!("omega[{i}] = {w}")));
            }
        }
        Ok(Self { omega, beta })
    }

    /// Nominal cost of `job`.
    #[inline]
    pub fn omega(&self, job: JobId) -> f64 {
        self.omega[job.idx()]
    }

    /// Heterogeneity factor `β`.
    #[inline]
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// Number of jobs covered.
    #[inline]
    pub fn job_count(&self) -> usize {
        self.omega.len()
    }

    /// Sample one resource's cost column: `w[i] = ω_i · U[1−β/2, 1+β/2]`.
    pub fn sample_column<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<f64> {
        let mut column = vec![0.0; self.omega.len()];
        self.draw_column(rng, &mut column);
        column
    }

    /// Fill `column` (one cell per job) as [`CostGenerator::sample_column`]
    /// draws it.
    fn draw_column<R: Rng + ?Sized>(&self, rng: &mut R, column: &mut [f64]) {
        let lo = 1.0 - self.beta / 2.0;
        let hi = 1.0 + self.beta / 2.0;
        for (cell, &w) in column.iter_mut().zip(&self.omega) {
            *cell = if w == 0.0 {
                0.0
            } else if self.beta == 0.0 {
                w
            } else {
                w * rng.random_range(lo..hi)
            };
        }
    }

    /// Sample a full table for `resources` resources, taking communication
    /// costs from the DAG's edge volumes (unit network cost). Columns are
    /// drawn one after another, as [`CostGenerator::sample_column`] draws
    /// them, in blocks of `SAMPLE_BLOCK` (8) that are transposed into the
    /// table's rows.
    pub fn sample_table<R: Rng + ?Sized>(
        &self,
        dag: &Dag,
        resources: usize,
        rng: &mut R,
    ) -> Result<CostTable, WorkflowError> {
        let jobs = self.omega.len();
        if jobs != dag.job_count() {
            return Err(WorkflowError::DimensionMismatch(format!(
                "{jobs} omegas for {} jobs",
                dag.job_count()
            )));
        }
        let mut comp = vec![0.0; jobs * resources];
        let mut block = vec![0.0; jobs * resources.min(SAMPLE_BLOCK)];
        for r0 in (0..resources).step_by(SAMPLE_BLOCK) {
            let width = SAMPLE_BLOCK.min(resources - r0);
            for c in 0..width {
                self.draw_column(rng, &mut block[c * jobs..(c + 1) * jobs]);
            }
            for (i, row) in comp.chunks_exact_mut(resources).enumerate() {
                for (c, cell) in row[r0..r0 + width].iter_mut().enumerate() {
                    *cell = block[c * jobs + i];
                }
            }
        }
        CostTable::from_rows(comp, jobs, resources, comm_from_volumes(dag, 1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::DagBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_dag() -> Dag {
        let mut b = DagBuilder::new();
        let a = b.add_job("a");
        let c = b.add_job("b");
        b.add_edge(a, c, 8.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn comm_is_zero_when_colocated() {
        let d = tiny_dag();
        let t = CostTable::from_dag_comm(&d, &[vec![1.0, 2.0], vec![3.0, 4.0]], 1.0).unwrap();
        let e = EdgeId(0);
        assert_eq!(t.comm_between(e, ResourceId(0), ResourceId(0)), 0.0);
        assert_eq!(t.comm_between(e, ResourceId(0), ResourceId(1)), 8.0);
    }

    #[test]
    fn add_resource_extends_all_rows() {
        let d = tiny_dag();
        let mut t = CostTable::from_dag_comm(&d, &[vec![1.0], vec![2.0]], 1.0).unwrap();
        let id = t.add_resource(&[5.0, 6.0]).unwrap();
        assert_eq!(id, ResourceId(1));
        assert_eq!(t.resource_count(), 2);
        assert_eq!(t.comp(JobId(1), ResourceId(1)), 6.0);
    }

    #[test]
    fn add_resource_rejects_bad_column() {
        let d = tiny_dag();
        let mut t = CostTable::from_dag_comm(&d, &[vec![1.0], vec![2.0]], 1.0).unwrap();
        assert!(t.add_resource(&[5.0]).is_err());
        assert!(t.add_resource(&[5.0, -1.0]).is_err());
    }

    #[test]
    fn truncate_resources_restores_lineage_state() {
        let d = tiny_dag();
        let mut t = CostTable::from_dag_comm(&d, &[vec![1.0], vec![2.0]], 1.0).unwrap();
        let base_id = t.state_id();
        t.add_resource(&[5.0, 6.0]).unwrap();
        let mid_id = t.state_id();
        t.add_resource(&[7.0, 8.0]).unwrap();
        assert_eq!(t.resource_count(), 3);
        // Undo the second append only: back on the mid state, lineage intact.
        assert!(t.truncate_resources(2));
        assert_eq!(t.state_id(), mid_id);
        assert_eq!(t.resource_count(), 2);
        assert_eq!(t.comp(JobId(1), ResourceId(1)), 6.0);
        assert_eq!(t.columns_since(base_id), Some(1));
        // Undo the rest: identical id to the pre-append table, so caches
        // keyed on the state id treat the round trip as a no-op.
        assert!(t.truncate_resources(1));
        assert_eq!(t.state_id(), base_id);
        assert_eq!(t.resource_count(), 1);
        // No-op and unreachable targets.
        assert!(t.truncate_resources(1));
        assert!(!t.truncate_resources(0));
        assert!(!t.truncate_resources(5));
        assert_eq!(t.state_id(), base_id);
    }

    #[test]
    fn truncate_resources_keeps_capacity() {
        let d = tiny_dag();
        let mut t = CostTable::from_dag_comm(&d, &[vec![1.0], vec![2.0]], 1.0).unwrap();
        t.add_resource(&[5.0, 6.0]).unwrap();
        assert!(t.truncate_resources(1));
        let cap = t.comp.capacity();
        t.add_resource(&[5.0, 6.0]).unwrap();
        assert_eq!(t.comp.capacity(), cap, "re-append must reuse the buffer");
    }

    #[test]
    fn generator_respects_beta_bounds() {
        let mut rng = StdRng::seed_from_u64(42);
        let g = CostGenerator::new(vec![100.0, 50.0], 1.0).unwrap();
        for _ in 0..100 {
            let col = g.sample_column(&mut rng);
            assert!(col[0] >= 50.0 && col[0] <= 150.0);
            assert!(col[1] >= 25.0 && col[1] <= 75.0);
        }
    }

    #[test]
    fn generator_beta_zero_is_homogeneous() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = CostGenerator::new(vec![100.0], 0.0).unwrap();
        assert_eq!(g.sample_column(&mut rng), vec![100.0]);
    }

    #[test]
    fn sample_table_draws_like_column_by_column_sampling() {
        let mut b = DagBuilder::new();
        for i in 0..5 {
            b.add_job(format!("j{i}"));
        }
        let dag = b.build().unwrap();
        let g = CostGenerator::new(vec![10.0, 0.0, 7.5, 3.0, 12.0], 1.5).unwrap();
        // One block, and several with a partial last one.
        for resources in [4, 2 * SAMPLE_BLOCK + 3] {
            let table = g.sample_table(&dag, resources, &mut StdRng::seed_from_u64(5)).unwrap();
            let mut rng = StdRng::seed_from_u64(5);
            let columns: Vec<Vec<f64>> =
                (0..resources).map(|_| g.sample_column(&mut rng)).collect();
            let rows: Vec<Vec<f64>> =
                (0..5).map(|i| columns.iter().map(|c| c[i]).collect()).collect();
            let expected = CostTable::from_dag_comm(&dag, &rows, 1.0).unwrap();
            assert_eq!(table.comp, expected.comp, "{resources} resources");
            assert_eq!(table.resource_count(), resources);
            assert_eq!(table.stride, resources, "a sampled table is tight");
        }
        let mut rng = StdRng::seed_from_u64(5);
        assert!(g.sample_table(&tiny_dag(), 4, &mut rng).is_err(), "5 omegas for 2 jobs");
    }

    #[test]
    fn new_reports_the_first_bad_row_in_row_order() {
        let err = |rows: &[Vec<f64>]| CostTable::new(rows, vec![]).unwrap_err();
        // Row-major order: w[0][1] comes before w[1][0].
        let e = err(&[vec![1.0, -1.0], vec![f64::NAN, 1.0]]);
        assert_eq!(e, WorkflowError::InvalidCost("w[0][1] = -1".into()));
        // A bad cost above a ragged row is reported first, one below it not.
        let e = err(&[vec![1.0, f64::INFINITY], vec![1.0]]);
        assert_eq!(e, WorkflowError::InvalidCost("w[0][1] = inf".into()));
        let e = err(&[vec![1.0, 2.0], vec![1.0], vec![-3.0, 1.0]]);
        assert!(matches!(e, WorkflowError::DimensionMismatch(_)), "{e:?}");
        // Costs are checked before communication costs.
        let e = CostTable::new(&[vec![-1.0]], vec![-2.0]).unwrap_err();
        assert_eq!(e, WorkflowError::InvalidCost("w[0][0] = -1".into()));
        let e = CostTable::new(&[vec![1.0]], vec![-2.0]).unwrap_err();
        assert_eq!(e, WorkflowError::InvalidCost("comm[0] = -2".into()));
    }

    #[test]
    fn generator_rejects_invalid() {
        assert!(CostGenerator::new(vec![1.0], -0.5).is_err());
        assert!(CostGenerator::new(vec![-1.0], 0.5).is_err());
    }

    /// A table with distinct pseudo-random finite values, so order bugs
    /// cannot cancel out.
    fn big_table(jobs: usize, resources: usize) -> CostTable {
        let comp: Vec<Vec<f64>> =
            (0..jobs).map(|i| (0..resources).map(|r| cost_at(i, r)).collect()).collect();
        CostTable::new(&comp, vec![]).unwrap()
    }

    fn cost_at(i: usize, r: usize) -> f64 {
        (((i * 31 + r * 17 + 7) % 1000) as f64) / 8.0 + 0.5
    }

    /// Append `count` columns that continue [`cost_at`]'s pattern.
    fn join(t: &mut CostTable, count: usize) {
        for _ in 0..count {
            let r = t.resource_count();
            let column: Vec<f64> = (0..t.job_count()).map(|i| cost_at(i, r)).collect();
            t.add_resource(&column).unwrap();
        }
    }

    fn assert_costs(t: &CostTable, label: &str) {
        for i in 0..t.job_count() {
            for r in 0..t.resource_count() {
                let got = t.comp(JobId::from(i), ResourceId::from(r));
                assert_eq!(got.to_bits(), cost_at(i, r).to_bits(), "{label}: ({i}, {r})");
            }
        }
    }

    #[test]
    fn fold_columns_into_is_bit_identical_to_naive_fold() {
        // Job counts below, at and off a multiple of the interleave width,
        // on a padded table.
        for jobs in [3, FOLD_ROWS, 4 * FOLD_ROWS + 5] {
            let mut t = big_table(jobs, 5);
            join(&mut t, 2);
            let alive: Vec<ResourceId> = [4, 0, 6, 2].into_iter().map(ResourceId::from).collect();
            let mut naive = vec![0.25f64; jobs]; // non-zero seed: order matters
            for (i, a) in naive.iter_mut().enumerate() {
                for &r in &alive {
                    *a += t.comp(JobId::from(i), r);
                }
            }
            let mut folded = vec![0.25f64; jobs];
            t.fold_columns_into(&alive, &mut folded);
            for i in 0..jobs {
                assert_eq!(folded[i].to_bits(), naive[i].to_bits(), "{jobs} jobs: job {i}");
            }
        }
    }

    #[test]
    fn row_major_columns_fill_a_padded_stride() {
        // A tight table re-strides on its first join, fills the padding,
        // then re-strides again; every cost survives every move.
        let jobs = 7;
        let mut t = big_table(jobs, TRANSPOSE_TILE - 2);
        assert_eq!(t.stride, TRANSPOSE_TILE - 2);
        join(&mut t, 1);
        assert_eq!(t.stride, TRANSPOSE_TILE);
        assert_costs(&t, "first re-stride");
        join(&mut t, 1);
        assert_eq!(t.stride, TRANSPOSE_TILE, "a join that fits writes into the padding");
        assert_costs(&t, "join into the padding");
        join(&mut t, TRANSPOSE_TILE);
        assert_eq!(t.stride, 2 * TRANSPOSE_TILE);
        assert_costs(&t, "second re-stride");
        assert_eq!(t.row(JobId(3)).len(), t.resource_count());
    }

    #[test]
    fn write_row_major_into_copies_the_unpadded_rows() {
        // `write_row_major_into` writes the unpadded rows, even from a
        // padded table with stale columns past its count.
        let (jobs, resources) = (TRANSPOSE_TILE + 3, TRANSPOSE_TILE + 9);
        let mut t = big_table(jobs, resources);
        let base = t.resource_count();
        join(&mut t, 3);
        assert!(t.truncate_resources(base + 1));
        let mut rows = vec![1.0; 3]; // stale contents must be discarded
        t.write_row_major_into(&mut rows);
        let columns = t.resource_count();
        assert_eq!(rows.len(), jobs * columns);
        for i in 0..jobs {
            for r in 0..columns {
                assert_eq!(rows[i * columns + r].to_bits(), cost_at(i, r).to_bits(), "({i}, {r})");
            }
        }
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn comp_beyond_the_resource_count_panics_after_a_truncation() {
        let mut t = big_table(4, 3);
        join(&mut t, 2);
        assert!(t.truncate_resources(3));
        // Column 3 still sits in the row padding, but it is not in the table.
        let _ = t.comp(JobId(1), ResourceId(3));
    }
}
