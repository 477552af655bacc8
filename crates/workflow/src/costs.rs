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

/// Column-major copy of `rows`, each `resources` long.
fn column_major(rows: &[Vec<f64>], resources: usize) -> Vec<f64> {
    let mut flat = Vec::with_capacity(rows.len() * resources);
    for j in 0..resources {
        flat.extend(rows.iter().map(|row| row[j]));
    }
    flat
}

/// Edge communication costs: each edge's data volume times `unit_cost`
/// (uniform network).
fn comm_from_volumes(dag: &Dag, unit_cost: f64) -> Vec<f64> {
    dag.edges().iter().map(|e| e.data * unit_cost).collect()
}

/// Job-block width of [`CostTable::fold_columns_into`]: 4096 f64 = 32 KiB,
/// half a typical L1d, leaving room for the streamed column tile.
pub const FOLD_TILE_JOBS: usize = 4096;

/// Square tile edge of [`CostTable::write_row_major_columns`]: 64×64 f64 =
/// 32 KiB per tile side, L1/L2-resident for source and destination at once.
/// A mirror's row stride is padded to a multiple of it.
pub const TRANSPOSE_TILE: usize = 64;

/// Computation and communication cost matrices for one DAG on one
/// (growable) resource pool.
///
/// Computation costs are stored **column-major in one contiguous buffer**
/// (`comp[r · jobs + i]` = `w[i][r]`): [`CostTable::comp`] is a single
/// indexed load, and [`CostTable::add_resource`] — the paper's central
/// pool-growth mechanic — appends one `jobs`-length column in O(jobs)
/// without relayouting the existing columns.
#[derive(Debug, Clone)]
pub struct CostTable {
    /// Column-major `w`: `comp[j · jobs + i]` is the cost of job `i` on
    /// resource `j`.
    comp: Vec<f64>,
    /// `comm[e]` — cost of edge `e` when endpoints are on different resources.
    comm: Vec<f64>,
    jobs: usize,
    resources: usize,
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
        let jobs = comp.len();
        let resources = comp.first().map_or(0, |r| r.len());
        if let Some(i) = comp.iter().position(|row| row.len() != resources) {
            // Rows are checked in order: a bad cost above the ragged row
            // is the error to report.
            Self::from_columns(column_major(&comp[..i], resources), i, resources, Vec::new())?;
            return Err(WorkflowError::DimensionMismatch(format!(
                "comp row {i} has {} columns, expected {resources}",
                comp[i].len()
            )));
        }
        Self::from_columns(column_major(comp, resources), jobs, resources, comm)
    }

    /// Take ownership of a column-major `comp` buffer (`comp[j · jobs + i]`
    /// = `w[i][j]`) after checking that every cost is finite and
    /// non-negative. The first bad cell is reported in row-major order.
    fn from_columns(
        comp: Vec<f64>,
        jobs: usize,
        resources: usize,
        comm: Vec<f64>,
    ) -> Result<Self, WorkflowError> {
        debug_assert_eq!(comp.len(), jobs * resources);
        let first_bad = comp
            .iter()
            .enumerate()
            .filter(|&(_, &w)| !is_valid_cost(w))
            .map(|(k, _)| (k % jobs, k / jobs))
            .min();
        if let Some((i, j)) = first_bad {
            return Err(WorkflowError::InvalidCost(format!(
                "w[{i}][{j}] = {}",
                comp[j * jobs + i]
            )));
        }
        for (e, &c) in comm.iter().enumerate() {
            if !is_valid_cost(c) {
                return Err(WorkflowError::InvalidCost(format!("comm[{e}] = {c}")));
            }
        }
        Ok(Self { comp, comm, jobs, resources, state_id: fresh_table_state(), history: Vec::new() })
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

    /// Computation cost `w[i][j]` — a single indexed load into the
    /// contiguous column-major buffer.
    #[inline]
    pub fn comp(&self, job: JobId, r: ResourceId) -> f64 {
        self.comp[r.idx() * self.jobs + job.idx()]
    }

    /// Resource `r`'s whole cost column as a contiguous slice
    /// (`column[i] = w[i][r]`) — the streaming access the incremental rank
    /// engine uses to fold a joining resource into its per-job sums.
    #[inline]
    pub fn comp_column(&self, r: ResourceId) -> &[f64] {
        &self.comp[r.idx() * self.jobs..(r.idx() + 1) * self.jobs]
    }

    /// Process-unique id of this table's current column state. Columns are
    /// immutable once added, so two tables reporting the same `state_id`
    /// hold bit-identical `comp`/`comm` contents (clones share the id;
    /// [`CostTable::add_resource`] draws a fresh one).
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

    /// Accumulate the listed resources' cost columns into `acc`
    /// (`acc[i] += w[i][r]` for each `r` in list order), blocked over job
    /// tiles of [`FOLD_TILE_JOBS`] entries so the accumulator tile stays
    /// L1-resident across all columns. At v=20k/R=1024 the naive
    /// column-by-column fold re-streams the 160 KB accumulator once per
    /// column (~160 MB of avoidable traffic); the tiled fold reads it once.
    ///
    /// **Bit-identical** to the naive fold: each job's partial sum still
    /// sees the columns in exactly the caller's left-to-right order — tiling
    /// only interleaves work across *different* jobs, never reorders the
    /// additions within one job. This is the Eq. 5 fold-order contract of
    /// [`crate::rank::rank_upward_over_into`], which `RankEngine` replays.
    ///
    /// # Panics
    /// Panics if `acc.len()` differs from the job count or a resource id
    /// lies outside the table.
    // analyzer: hot
    pub fn fold_columns_into(&self, resources: &[ResourceId], acc: &mut [f64]) {
        assert_eq!(acc.len(), self.jobs, "accumulator length must equal the job count");
        for start in (0..self.jobs).step_by(FOLD_TILE_JOBS) {
            let end = (start + FOLD_TILE_JOBS).min(self.jobs);
            let tile = &mut acc[start..end];
            for &r in resources {
                let col = &self.comp[r.idx() * self.jobs + start..r.idx() * self.jobs + end];
                for (a, &w) in tile.iter_mut().zip(col) {
                    *a += w;
                }
            }
        }
    }

    /// Fill `rows` with the **row-major mirror** of the computation table:
    /// `rows[i * resource_count + r] = w[i][r]`. See
    /// [`CostTable::write_row_major_columns`].
    pub fn write_row_major_into(&self, rows: &mut Vec<f64>) {
        rows.clear();
        rows.resize(self.jobs * self.resources, 0.0);
        self.write_row_major_columns(rows, self.resources, 0);
    }

    /// Write columns `[from, resource_count)` of the **row-major mirror**
    /// into `rows`, whose rows start `stride` cells apart:
    /// `rows[i * stride + r] = w[i][r]`. Every other cell is left as it
    /// is, so a mirror kept at a padded stride absorbs appended columns in
    /// O(jobs) each. Blocked transpose ([`TRANSPOSE_TILE`]² tiles) so
    /// source columns and destination rows both stream through the cache
    /// instead of one side taking a `jobs`-stride miss per element.
    ///
    /// The scheduler's per-job EFT scan reads one job's costs across *all*
    /// resources; against the column-major table that is a `jobs · 8`-byte
    /// stride (one DRAM miss per resource at v=20k), against the mirror it
    /// is one contiguous `R · 8`-byte row. Values are exact copies, so a
    /// scan fed from the mirror is bit-identical to one fed from the table.
    ///
    /// # Panics
    /// Panics if `stride < resource_count` or `rows` is shorter than
    /// `job_count · stride`.
    // analyzer: hot
    pub fn write_row_major_columns(&self, rows: &mut [f64], stride: usize, from: usize) {
        assert!(stride >= self.resources, "stride {stride} below {} columns", self.resources);
        assert!(rows.len() >= self.jobs * stride, "mirror shorter than jobs · stride");
        for j0 in (0..self.jobs).step_by(TRANSPOSE_TILE) {
            let j1 = (j0 + TRANSPOSE_TILE).min(self.jobs);
            for r0 in (from..self.resources).step_by(TRANSPOSE_TILE) {
                let r1 = (r0 + TRANSPOSE_TILE).min(self.resources);
                for i in j0..j1 {
                    let row = &mut rows[i * stride + r0..i * stride + r1];
                    for (dst, r) in row.iter_mut().zip(r0..r1) {
                        *dst = self.comp[r * self.jobs + i];
                    }
                }
            }
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
    /// column is appended to the contiguous column-major buffer.
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
        self.comp.extend_from_slice(column);
        let id = ResourceId::from(self.resources);
        self.history.push((self.state_id, self.resources));
        self.state_id = fresh_table_state();
        self.resources += 1;
        Ok(id)
    }

    /// Truncate the table back to `r` resources **in place** by walking the
    /// append lineage backwards: each undone [`Self::add_resource`] pops its
    /// history entry and restores the `state_id` the table had before that
    /// append. The column buffer keeps its capacity, so an
    /// append/evaluate/truncate cycle (the what-if scratch path) allocates
    /// nothing once the buffer has grown to steady state — unlike
    /// [`Self::truncated`], which copies into a fresh, lineage-less table.
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
        self.comp.truncate(self.resources * self.jobs);
        true
    }

    /// Restrict the table to the first `r` resources (used to compare "what
    /// if the pool never grew" scenarios). O(jobs · r): a prefix copy of the
    /// column-major buffer.
    pub fn truncated(&self, r: usize) -> Self {
        let r = r.min(self.resources);
        Self {
            comp: self.comp[..r * self.jobs].to_vec(),
            comm: self.comm.clone(),
            jobs: self.jobs,
            resources: r,
            // A truncation is a new state outside the append lineage (its
            // column set shrank), so it gets a fresh, history-less id.
            state_id: fresh_table_state(),
            history: Vec::new(),
        }
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
        let mut column = Vec::with_capacity(self.omega.len());
        self.push_column(rng, &mut column);
        column
    }

    /// Append one sampled column to `out`, drawing as
    /// [`CostGenerator::sample_column`] does.
    fn push_column<R: Rng + ?Sized>(&self, rng: &mut R, out: &mut Vec<f64>) {
        let lo = 1.0 - self.beta / 2.0;
        let hi = 1.0 + self.beta / 2.0;
        out.extend(self.omega.iter().map(|&w| {
            if w == 0.0 {
                0.0
            } else if self.beta == 0.0 {
                w
            } else {
                w * rng.random_range(lo..hi)
            }
        }));
    }

    /// Sample a full table for `resources` resources, taking communication
    /// costs from the DAG's edge volumes (unit network cost). Columns are
    /// drawn one after another straight into the table's column-major
    /// buffer.
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
        let mut comp = Vec::with_capacity(jobs * resources);
        for _ in 0..resources {
            self.push_column(rng, &mut comp);
        }
        CostTable::from_columns(comp, jobs, resources, comm_from_volumes(dag, 1.0))
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
    fn truncated_drops_columns() {
        let d = tiny_dag();
        let t = CostTable::from_dag_comm(&d, &[vec![1.0, 9.0], vec![2.0, 9.0]], 1.0).unwrap();
        let t2 = t.truncated(1);
        assert_eq!(t2.resource_count(), 1);
        assert_eq!(t2.comp(JobId(0), ResourceId(0)), 1.0);
        assert_eq!(t2.comp(JobId(1), ResourceId(0)), 2.0);
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
        let table = g.sample_table(&dag, 4, &mut StdRng::seed_from_u64(5)).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let columns: Vec<Vec<f64>> = (0..4).map(|_| g.sample_column(&mut rng)).collect();
        let rows: Vec<Vec<f64>> = (0..5).map(|i| columns.iter().map(|c| c[i]).collect()).collect();
        let expected = CostTable::from_dag_comm(&dag, &rows, 1.0).unwrap();
        assert_eq!(table.comp, expected.comp);
        assert_eq!(table.resource_count(), 4);
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

    /// A table larger than one fold tile / transpose tile, with distinct
    /// pseudo-random finite values so order bugs cannot cancel out.
    fn big_table(jobs: usize, resources: usize) -> CostTable {
        let comp: Vec<Vec<f64>> = (0..jobs)
            .map(|i| {
                (0..resources)
                    .map(|r| (((i * 31 + r * 17 + 7) % 1000) as f64) / 8.0 + 0.5)
                    .collect()
            })
            .collect();
        CostTable::new(&comp, vec![]).unwrap()
    }

    #[test]
    fn fold_columns_into_is_bit_identical_to_naive_fold() {
        let jobs = FOLD_TILE_JOBS + 137; // straddle a tile boundary
        let t = big_table(jobs, 5);
        let alive: Vec<ResourceId> = [4, 0, 2].into_iter().map(ResourceId::from).collect();
        let mut naive = vec![0.25f64; jobs]; // non-zero seed: order matters
        for &r in &alive {
            for (a, &w) in naive.iter_mut().zip(t.comp_column(r)) {
                *a += w;
            }
        }
        let mut tiled = vec![0.25f64; jobs];
        t.fold_columns_into(&alive, &mut tiled);
        for i in 0..jobs {
            assert_eq!(tiled[i].to_bits(), naive[i].to_bits(), "job {i}");
        }
    }

    #[test]
    fn row_major_columns_fill_a_padded_stride() {
        let (jobs, resources) = (TRANSPOSE_TILE + 3, TRANSPOSE_TILE + 9);
        let mut t = big_table(jobs, resources - 1);
        let stride = 2 * TRANSPOSE_TILE;
        let mut rows = vec![-1.0; jobs * stride];
        t.write_row_major_columns(&mut rows, stride, 0);
        let column: Vec<f64> = (0..jobs).map(|i| i as f64 + 0.25).collect();
        t.add_resource(&column).unwrap();
        t.write_row_major_columns(&mut rows, stride, resources - 1);
        for i in 0..jobs {
            for r in 0..stride {
                let want = if r < resources {
                    t.comp(JobId::from(i), ResourceId::from(r))
                } else {
                    -1.0 // padding is never written
                };
                assert_eq!(rows[i * stride + r].to_bits(), want.to_bits(), "({i}, {r})");
            }
        }
    }

    #[test]
    fn row_major_mirror_matches_comp() {
        let (jobs, resources) = (TRANSPOSE_TILE + 3, TRANSPOSE_TILE + 9);
        let t = big_table(jobs, resources);
        let mut rows = vec![1.0; 3]; // stale contents must be discarded
        t.write_row_major_into(&mut rows);
        assert_eq!(rows.len(), jobs * resources);
        for i in 0..jobs {
            for r in 0..resources {
                assert_eq!(
                    rows[i * resources + r].to_bits(),
                    t.comp(JobId::from(i), ResourceId::from(r)).to_bits(),
                    "({i}, {r})"
                );
            }
        }
    }
}
