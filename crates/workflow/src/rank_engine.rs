//! Incremental upward-rank engine.
//!
//! AHEFT recomputes `rank_u` against the *current* resource pool at every
//! rescheduling instant (paper Fig. 2 line 5). Done from scratch that is
//! `O(jobs · |pool|)` for the average computation costs plus
//! `O(jobs + edges)` for the reverse-topological sweep — and the
//! `O(jobs · |pool|)` part dominates the planner hot path at sweep scale
//! (v=1000, R=100).
//!
//! [`RankEngine`] removes that cost from the steady state by caching, per
//! job, the **sum of computation costs over the alive set** (in the exact
//! left-to-right order [`crate::rank::rank_upward_over_into`] folds, so every
//! derived average is bit-identical to a from-scratch pass) and applying
//! deltas:
//!
//! * **Pool growth** — the paper's central mechanic — appends columns to
//!   the alive set. The cached sums absorb each new column with one add
//!   per job: `O(jobs)` per joined resource, and the rank sweep that
//!   follows is `O(jobs + edges)`.
//! * **Pool shrink / arbitrary pool change** rebuilds the sums: each
//!   job's contiguous cost row, folded with several rows side by side —
//!   same f64 operation order per job.
//! * **Job completions** leave the averages untouched, so an evaluation
//!   triggered with an unchanged pool is a pure cache hit: the engine
//!   returns immediately and the scheduler skips its rank sort too.
//!   Finished jobs are also **pruned from the sweep**: their ranks are
//!   never consulted by the scheduling pass (it skips finished jobs, and
//!   no unfinished job's rank depends on a finished job's rank — see the
//!   contract below), so the engine stops refreshing them.
//!
//! Every append or rebuild recomputes every unfinished job's rank in one
//! reverse-topological sweep and bumps the epoch: a join changes the alive
//! count, so every average changes anyway.
//!
//! ## Contract
//!
//! The `finished` predicate passed to [`RankEngine::update`] must be
//! **predecessor-closed**: every predecessor of a finished job is finished
//! (equivalently, successors of unfinished jobs are unfinished). Real
//! executions guarantee this — a job only runs after its inputs exist.
//! Under that contract the engine's ranks for **unfinished** jobs are
//! bit-identical to [`crate::rank::rank_upward_over_into`]; entries for
//! finished jobs may hold stale (but always finite) values.
//!
//! Cache validity is keyed on [`Dag::uid`] and [`CostTable::state_id`] /
//! [`CostTable::columns_since`], so one engine can be reused across
//! unrelated problems (the sweep harness reuses one workspace for
//! thousands of cases) and never confuses two of them.

use crate::costs::CostTable;
use crate::graph::Dag;
use crate::ids::{JobId, ResourceId};

/// Incrementally maintained `rank_u` values for one `(dag, costs, alive)`
/// configuration at a time. See the module docs for the delta paths and
/// the exactness contract.
#[derive(Debug, Clone, Default)]
pub struct RankEngine {
    /// `(Dag::uid, CostTable::state_id)` the cached sums belong to.
    key: Option<(u64, u64)>,
    /// The alive set the sums were accumulated over, in order.
    alive: Vec<ResourceId>,
    /// Per-job computation-cost sum over `alive`, folded left to right in
    /// `alive` order (the [`crate::rank::rank_upward_over_into`] summation
    /// order).
    comp_sum: Vec<f64>,
    /// Cached `rank_u` per job. Entries of pruned (finished) jobs are
    /// stale but finite.
    ranks: Vec<f64>,
    /// Bumped by every sweep; callers use it to skip work derived from the
    /// ranks (e.g. the priority sort) while it stands still.
    epoch: u64,
}

impl RankEngine {
    /// Fresh engine with no cached state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cached `rank_u` per job (valid for the configuration of the last
    /// [`RankEngine::update`]; finished jobs' entries may be stale).
    #[inline]
    pub fn ranks(&self) -> &[f64] {
        &self.ranks
    }

    /// Monotone counter bumped by every sweep. Unchanged epoch across two
    /// [`RankEngine::update`] calls means the whole `ranks` slice is
    /// bit-identical to before.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Bring the cached ranks up to date for `(dag, costs, alive)`,
    /// choosing the cheapest valid delta path (cache hit, column append,
    /// or full rebuild), and return the resulting [`RankEngine::epoch`].
    ///
    /// `finished` must be predecessor-closed (see the module docs);
    /// finished jobs are pruned from the sweep.
    ///
    /// # Panics
    /// Panics if an id in `alive` lies outside the cost table.
    // analyzer: hot
    pub fn update<F: Fn(JobId) -> bool>(
        &mut self,
        dag: &Dag,
        costs: &CostTable,
        alive: &[ResourceId],
        finished: F,
    ) -> u64 {
        let jobs = dag.job_count();
        let key = (dag.uid(), costs.state_id());

        // How much of the cached state survives?
        let reusable = match self.key {
            Some((dag_uid, state_id)) if dag_uid == dag.uid() && self.ranks.len() == jobs => {
                // Columns the cache summed are intact iff the cached state
                // is on this table's append lineage.
                costs.columns_since(state_id).is_some()
                    && alive.len() >= self.alive.len()
                    && alive[..self.alive.len()] == self.alive[..]
            }
            _ => false,
        };

        if reusable {
            let appended = &alive[self.alive.len()..];
            if appended.is_empty() {
                // Pure cache hit (job-completion deltas land here): the
                // averages — and therefore every rank — are unchanged.
                self.key = Some(key);
                return self.epoch;
            }
            // Pool-growth delta: fold the new columns into the sums, a
            // strided gather down the rows. Appending to the left-to-right
            // fold is bit-identical to re-summing the extended alive set.
            costs.fold_columns_into(appended, &mut self.comp_sum);
            self.alive.extend_from_slice(appended);
        } else {
            // Full rebuild: each job's row folded left to right, several
            // rows side by side (identical per-job fold order).
            self.comp_sum.clear();
            self.comp_sum.resize(jobs, 0.0);
            self.ranks.resize(jobs, 0.0);
            self.alive.clear();
            self.alive.extend_from_slice(alive);
            costs.fold_columns_into(alive, &mut self.comp_sum);
        }
        self.key = Some(key);
        self.sweep(dag, costs, &finished);
        self.epoch
    }

    /// Reverse-topological rank sweep over every unfinished job.
    // analyzer: hot
    fn sweep<F: Fn(JobId) -> bool>(&mut self, dag: &Dag, costs: &CostTable, finished: &F) {
        let len = self.alive.len();
        let len_f = len as f64;
        for &j in dag.topo_order().iter().rev() {
            let ji = j.idx();
            if finished(j) {
                // Pruned: nothing reads a finished job's rank (the pass
                // skips finished jobs; unfinished jobs have unfinished
                // successors only).
                continue;
            }
            // Same expression rank_upward_over_into evaluates: left-to-right
            // sum (cached) divided by the alive count.
            let mean = if len == 0 { 0.0 } else { self.comp_sum[ji] / len_f };
            let mut best = 0.0f64;
            for &(s, e) in dag.succs(j) {
                debug_assert!(
                    !finished(s),
                    "finished set must be predecessor-closed: {j} is unfinished but its successor {s} is finished"
                );
                let cand = costs.avg_comm(e) + self.ranks[s.idx()];
                if cand > best {
                    best = cand;
                }
            }
            self.ranks[ji] = mean + best;
        }
        self.epoch += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::DagBuilder;
    use crate::rank::rank_upward_over_into;

    fn diamond() -> Dag {
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

    fn assert_ranks_exact(engine: &RankEngine, dag: &Dag, costs: &CostTable, alive: &[ResourceId]) {
        let mut oracle = Vec::new();
        rank_upward_over_into(dag, costs, alive, &mut oracle);
        for j in dag.job_ids() {
            assert_eq!(
                engine.ranks()[j.idx()].to_bits(),
                oracle[j.idx()].to_bits(),
                "rank of {j} diverged from the from-scratch kernel"
            );
        }
    }

    #[test]
    fn first_update_matches_from_scratch() {
        let dag = diamond();
        let costs = CostTable::from_dag_comm(
            &dag,
            &[vec![3.0, 5.0], vec![2.0, 4.0], vec![6.0, 1.0], vec![7.0, 7.0]],
            1.0,
        )
        .unwrap();
        let alive = [ResourceId(0), ResourceId(1)];
        let mut engine = RankEngine::new();
        let e1 = engine.update(&dag, &costs, &alive, |_| false);
        assert_ranks_exact(&engine, &dag, &costs, &alive);
        // Identical configuration: pure cache hit, epoch unchanged.
        let e2 = engine.update(&dag, &costs, &alive, |_| false);
        assert_eq!(e1, e2);
    }

    #[test]
    fn append_delta_matches_from_scratch() {
        let dag = diamond();
        let mut costs =
            CostTable::from_dag_comm(&dag, &[vec![3.0], vec![2.0], vec![6.0], vec![7.0]], 1.0)
                .unwrap();
        let mut engine = RankEngine::new();
        engine.update(&dag, &costs, &[ResourceId(0)], |_| false);
        let r1 = costs.add_resource(&[5.0, 4.0, 1.0, 7.0]).unwrap();
        let alive = [ResourceId(0), r1];
        engine.update(&dag, &costs, &alive, |_| false);
        assert_ranks_exact(&engine, &dag, &costs, &alive);
    }

    #[test]
    fn removal_rebuilds_and_matches() {
        let dag = diamond();
        let costs = CostTable::from_dag_comm(
            &dag,
            &[vec![3.0, 5.0, 9.0], vec![2.0, 4.0, 8.0], vec![6.0, 1.0, 2.0], vec![7.0, 7.0, 3.0]],
            1.0,
        )
        .unwrap();
        let mut engine = RankEngine::new();
        let all = [ResourceId(0), ResourceId(1), ResourceId(2)];
        engine.update(&dag, &costs, &all, |_| false);
        // r1 departs: [0, 2] is not an extension of [0, 1, 2] => rebuild.
        let shrunk = [ResourceId(0), ResourceId(2)];
        engine.update(&dag, &costs, &shrunk, |_| false);
        assert_ranks_exact(&engine, &dag, &costs, &shrunk);
    }

    #[test]
    fn homogeneous_pool_growth_changes_no_rank() {
        // β = 0: a joining twin resource leaves every average — and so
        // every rank — bit-identical.
        let dag = diamond();
        let mut costs =
            CostTable::from_dag_comm(&dag, &[vec![3.0], vec![2.0], vec![6.0], vec![7.0]], 1.0)
                .unwrap();
        let mut engine = RankEngine::new();
        engine.update(&dag, &costs, &[ResourceId(0)], |_| false);
        let before = engine.ranks().to_vec();
        let r1 = costs.add_resource(&[3.0, 2.0, 6.0, 7.0]).unwrap();
        let alive = [ResourceId(0), r1];
        engine.update(&dag, &costs, &alive, |_| false);
        assert_ranks_exact(&engine, &dag, &costs, &alive);
        assert_eq!(engine.ranks(), &before[..]);
    }

    #[test]
    fn finished_jobs_are_pruned_but_unfinished_ranks_stay_exact() {
        let dag = diamond();
        let mut costs =
            CostTable::from_dag_comm(&dag, &[vec![3.0], vec![2.0], vec![6.0], vec![7.0]], 1.0)
                .unwrap();
        let mut engine = RankEngine::new();
        engine.update(&dag, &costs, &[ResourceId(0)], |_| false);
        // Job 0 (the entry) finishes; then the pool grows.
        let r1 = costs.add_resource(&[9.0, 9.0, 9.0, 9.0]).unwrap();
        let alive = [ResourceId(0), r1];
        engine.update(&dag, &costs, &alive, |j| j == JobId(0));
        let mut oracle = Vec::new();
        rank_upward_over_into(&dag, &costs, &alive, &mut oracle);
        for j in [JobId(1), JobId(2), JobId(3)] {
            assert_eq!(engine.ranks()[j.idx()].to_bits(), oracle[j.idx()].to_bits());
        }
    }

    #[test]
    fn workspace_reuse_across_unrelated_problems_rebuilds() {
        let dag1 = diamond();
        let costs1 =
            CostTable::from_dag_comm(&dag1, &[vec![3.0], vec![2.0], vec![6.0], vec![7.0]], 1.0)
                .unwrap();
        let mut b = DagBuilder::new();
        for i in 0..4 {
            b.add_job(format!("j{i}"));
        }
        b.add_edge(JobId(0), JobId(3), 10.0).unwrap();
        let dag2 = b.build().unwrap();
        let costs2 =
            CostTable::from_dag_comm(&dag2, &[vec![1.0], vec![1.0], vec![1.0], vec![1.0]], 1.0)
                .unwrap();
        let alive = [ResourceId(0)];
        let mut engine = RankEngine::new();
        engine.update(&dag1, &costs1, &alive, |_| false);
        engine.update(&dag2, &costs2, &alive, |_| false);
        assert_ranks_exact(&engine, &dag2, &costs2, &alive);
        engine.update(&dag1, &costs1, &alive, |_| false);
        assert_ranks_exact(&engine, &dag1, &costs1, &alive);
    }
}
