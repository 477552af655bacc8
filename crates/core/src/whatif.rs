//! "What…if…" queries (paper §3.3).
//!
//! > *"The evaluation can be further extended to support online system
//! > management function by answering the 'What…if…' type query, for
//! > example, 'What will be the expected performance if an additional
//! > resource A is added (removed)?'"*
//!
//! A what-if answer compares two AHEFT passes over the same execution
//! snapshot: the *baseline* on the current pool and the *hypothetical* on
//! a pool with resources added or removed. The baseline depends only on
//! the snapshot, the pool and the [`AheftConfig`], not on the question,
//! so the caller runs it once with [`aheft_schedule_into`] and reuses it
//! for every question about that state; [`what_if`] runs only the
//! hypothetical pass and returns its predicted makespan, without touching
//! the running execution. The query daemon (`aheft_serve`) keeps one
//! baseline per scenario version and planning config for the same reason.
//!
//! ```
//! use aheft_core::aheft::{aheft_schedule_into, AheftConfig, ScheduleWorkspace};
//! use aheft_core::whatif::{what_if, WhatIfQuery};
//! use aheft_gridsim::executor::Snapshot;
//! use aheft_workflow::{sample, ResourceId};
//!
//! let (dag, costs) = (sample::fig4_dag(), sample::fig4_costs_initial());
//! let (snap, alive) = (Snapshot::initial(3), vec![ResourceId(0), ResourceId(1), ResourceId(2)]);
//! let config = AheftConfig::default();
//! let mut ws = ScheduleWorkspace::new();
//! let baseline = aheft_schedule_into(&dag, &costs, snap.view(), &alive, &config, &mut ws);
//! let add_r4 = WhatIfQuery::AddResources { columns: vec![sample::fig4_r4_column()] };
//! let hypothetical = what_if(&dag, &costs, &snap, &alive, &config, &add_r4, &mut ws).unwrap();
//! // Fig. 4: HEFT gets *worse* with r4 (80 -> 87), and the answer says so.
//! assert_eq!((baseline, hypothetical), (80.0, 87.0));
//! ```

use std::fmt;

use aheft_gridsim::executor::Snapshot;
use aheft_workflow::{CostTable, Dag, ResourceId, WorkflowError};

use crate::aheft::{aheft_schedule_into, AheftConfig, ScheduleWorkspace};

/// A hypothetical pool modification.
#[derive(Debug, Clone)]
pub enum WhatIfQuery {
    /// Add resources with the given cost columns (`columns[k][i]` = cost of
    /// job `i` on the k-th new resource).
    AddResources {
        /// One cost column per hypothetical resource.
        columns: Vec<Vec<f64>>,
    },
    /// Remove one resource from the pool (e.g. a predicted failure,
    /// §3.3 "if the failure is predictable, rescheduling can minimize the
    /// failure impact").
    RemoveResource(ResourceId),
    /// Combined modification evaluated as *one* hypothetical pool: every
    /// `add` column joins and every `remove` resource leaves simultaneously
    /// — the "migrate load off node B onto new node A" question a single
    /// add or remove cannot express.
    Modify {
        /// Cost columns of the hypothetical new resources.
        add: Vec<Vec<f64>>,
        /// Existing pool members that leave.
        remove: Vec<ResourceId>,
    },
}

impl WhatIfQuery {
    /// The `(added columns, removed resources)` this query describes.
    fn parts(&self) -> (&[Vec<f64>], &[ResourceId]) {
        match self {
            WhatIfQuery::AddResources { columns } => (columns, &[]),
            WhatIfQuery::RemoveResource(r) => (&[], std::slice::from_ref(r)),
            WhatIfQuery::Modify { add, remove } => (add, remove),
        }
    }
}

/// A malformed what-if query, detected *before* any evaluation side
/// effects — the serve layer maps these to error responses instead of
/// dying mid-stream.
#[derive(Debug, Clone, PartialEq)]
pub enum WhatIfError {
    /// A hypothetical cost column was rejected (length mismatch against the
    /// DAG, negative or non-finite cost).
    BadColumn(WorkflowError),
    /// A removal named a resource that is not in the alive pool.
    UnknownResource(ResourceId),
    /// The modifications would leave the pool empty.
    EmptyPool,
}

impl fmt::Display for WhatIfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WhatIfError::BadColumn(e) => write!(f, "bad hypothetical column: {e}"),
            WhatIfError::UnknownResource(r) => {
                write!(f, "cannot remove {r}: not in the alive pool")
            }
            WhatIfError::EmptyPool => write!(f, "cannot remove the last resource"),
        }
    }
}

impl std::error::Error for WhatIfError {}

/// Predict the whole-DAG makespan under the hypothetical pool `query`
/// describes, reusing `ws` across repeated queries.
///
/// `alive` is the current pool; the hypothetical pass reschedules the
/// remaining jobs of `snapshot` on `alive` modified as requested, under
/// `config`, with no side effects on the execution. The answer is one
/// AHEFT pass: compare it with the baseline, which the caller runs once
/// per snapshot and config with [`aheft_schedule_into`] on the unmodified
/// pool (see the module docs). To ask under a named planned policy,
/// derive `config` with [`crate::policy::planning_config`], which answers
/// `None` for JIT policies and unknown names.
///
/// Validation happens *before* evaluation, so an `Err` leaves the
/// workspace and scratch state exactly as found.
///
/// Warm-path allocation contract (pinned by `tests/zero_alloc.rs`): after
/// the first query against a given base table, repeated queries allocate
/// nothing — the hypothetical table is built by appending columns to a
/// scratch clone cached on `ws` and truncating them back off via
/// [`CostTable::truncate_resources`], which restores the base `state_id`
/// (keeping the rank cache's append-lineage fast path live) and retains
/// buffer capacity.
pub fn what_if(
    dag: &Dag,
    costs: &CostTable,
    snapshot: &Snapshot,
    alive: &[ResourceId],
    config: &AheftConfig,
    query: &WhatIfQuery,
    ws: &mut ScheduleWorkspace,
) -> Result<f64, WhatIfError> {
    let (add, remove) = query.parts();
    for &r in remove {
        if !alive.contains(&r) {
            return Err(WhatIfError::UnknownResource(r));
        }
    }
    for col in add {
        if col.len() != costs.job_count() {
            return Err(WhatIfError::BadColumn(WorkflowError::DimensionMismatch(format!(
                "column of {} entries for {} jobs",
                col.len(),
                costs.job_count()
            ))));
        }
        for (i, &w) in col.iter().enumerate() {
            if !w.is_finite() || w < 0.0 {
                return Err(WhatIfError::BadColumn(WorkflowError::InvalidCost(format!(
                    "w[{i}][new] = {w}"
                ))));
            }
        }
    }
    let kept = alive.iter().filter(|x| !remove.contains(x)).count();
    if kept + add.len() == 0 {
        return Err(WhatIfError::EmptyPool);
    }

    // The hypothetical pool, built in the cached scratch buffer.
    let mut alive2 = std::mem::take(&mut ws.whatif_alive);
    alive2.clear();
    alive2.extend(alive.iter().copied().filter(|x| !remove.contains(x)));
    let hypothetical = if add.is_empty() {
        // Pool shrink only: the base table is untouched.
        aheft_schedule_into(dag, costs, snapshot.view(), &alive2, config, ws)
    } else {
        // Re-sync the scratch clone only when the base table moved on; a
        // stream of queries against one scenario version pays the clone
        // once.
        if ws.whatif_base != Some(costs.state_id()) {
            ws.whatif_table = Some(costs.clone());
            ws.whatif_base = Some(costs.state_id());
        }
        let mut table = ws.whatif_table.take().expect("scratch synced above");
        let base_resources = table.resource_count();
        for col in add {
            // The pass reads the snapshot's floors by resource id: a
            // hypothetical id past them is free from `clock`.
            alive2.push(table.add_resource(col).expect("columns validated above"));
        }
        let m = aheft_schedule_into(dag, &table, snapshot.view(), &alive2, config, ws);
        // Pop the appends: the scratch returns to the base state id, so a
        // rank cache warmed on the base table stays append-reachable.
        let restored = table.truncate_resources(base_resources);
        debug_assert!(restored, "appends are always on the scratch lineage");
        ws.whatif_table = Some(table);
        m
    };
    ws.whatif_alive = alive2;
    Ok(hypothetical)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aheft_workflow::{sample, JobId};

    fn alive(n: usize) -> Vec<ResourceId> {
        (0..n).map(ResourceId::from).collect()
    }

    /// One question on a fresh workspace against the initial snapshot of an
    /// `n`-resource pool: `(baseline, hypothetical)` makespans.
    fn cold(
        dag: &Dag,
        costs: &CostTable,
        n: usize,
        config: &AheftConfig,
        query: &WhatIfQuery,
    ) -> Result<(f64, f64), WhatIfError> {
        let mut ws = ScheduleWorkspace::new();
        let snap = Snapshot::initial(n);
        let baseline = aheft_schedule_into(dag, costs, snap.view(), &alive(n), config, &mut ws);
        let hypothetical = what_if(dag, costs, &snap, &alive(n), config, query, &mut ws)?;
        Ok((baseline, hypothetical))
    }

    #[test]
    fn adding_r4_at_t0_reports_honest_regression() {
        // The what-if answer for the Fig. 4 instance is *negative*: HEFT
        // over 4 columns yields 87 (rank-shift regression; see
        // `heft::tests::heft_is_not_monotone_in_pool_size`). The query must
        // report that faithfully — this is precisely the online system
        // management insight §3.3 wants the planner to provide.
        let dag = sample::fig4_dag();
        let costs = sample::fig4_costs_initial();
        let (baseline, hypothetical) = cold(
            &dag,
            &costs,
            3,
            &AheftConfig::default(),
            &WhatIfQuery::AddResources { columns: vec![sample::fig4_r4_column()] },
        )
        .unwrap();
        assert!((baseline - 80.0).abs() < 1e-9);
        assert!((hypothetical - 87.0).abs() < 1e-9);
        assert!(baseline - hypothetical < 0.0);
    }

    #[test]
    fn adding_a_twin_resource_helps_a_wide_workflow() {
        let mut b = aheft_workflow::DagBuilder::new();
        for i in 0..8 {
            b.add_job(format!("j{i}"));
        }
        let dag = b.build().unwrap();
        let costs =
            aheft_workflow::CostTable::from_dag_comm(&dag, &vec![vec![10.0]; 8], 1.0).unwrap();
        let (baseline, hypothetical) = cold(
            &dag,
            &costs,
            1,
            &AheftConfig::default(),
            &WhatIfQuery::AddResources { columns: vec![vec![10.0; 8]] },
        )
        .unwrap();
        assert!((baseline - 80.0).abs() < 1e-9);
        assert!((hypothetical - 40.0).abs() < 1e-9);
        assert!((crate::metrics::improvement_rate(baseline, hypothetical) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn removing_a_resource_never_helps_exact() {
        let dag = sample::fig4_dag();
        let costs = sample::fig4_costs_initial();
        for r in 0..3u32 {
            let (baseline, hypothetical) = cold(
                &dag,
                &costs,
                3,
                &AheftConfig::default(),
                &WhatIfQuery::RemoveResource(ResourceId(r)),
            )
            .unwrap();
            assert!(hypothetical >= baseline - 1e-9, "removing r{} should not help", r + 1);
        }
    }

    #[test]
    fn adding_a_useless_resource_changes_nothing_much() {
        // A resource slower than every existing one for every job: HEFT will
        // not map anything to it, so the makespan is unchanged... except the
        // average-cost ranks shift. The makespan must never get *worse* than
        // baseline by more than the rank perturbation allows; we check it
        // stays equal here because EFT-minimisation ignores the slow column.
        let dag = sample::fig4_dag();
        let costs = sample::fig4_costs_initial();
        let slow = vec![10_000.0; 10];
        let (baseline, hypothetical) = cold(
            &dag,
            &costs,
            3,
            &AheftConfig::default(),
            &WhatIfQuery::AddResources { columns: vec![slow] },
        )
        .unwrap();
        // Rank order may shift, but the schedule cannot be forced onto the
        // slow resource; allow small regressions only.
        assert!(hypothetical <= baseline * 1.25);
    }

    #[test]
    fn named_policy_queries_use_their_planning_config() {
        use crate::policy::planning_config;
        use crate::runner::RunConfig;
        let dag = sample::fig4_dag();
        let costs = sample::fig4_costs_initial();
        let cfg = RunConfig::default();
        let query = WhatIfQuery::AddResources { columns: vec![sample::fig4_r4_column()] };
        let ask = |name: &str, cfg: &RunConfig| {
            let config = planning_config(name, cfg).expect("planned policy");
            cold(&dag, &costs, 3, &config, &query).unwrap()
        };
        // Planned policies answer; the ablation variant evaluates under
        // its own (end-of-queue) slot policy and may differ from AHEFT's.
        let (aheft_baseline, _) = ask("aheft", &cfg);
        assert!((aheft_baseline - 80.0).abs() < 1e-9);
        assert_eq!(
            planning_config("aheft-noinsert", &cfg).map(|c| c.slot_policy),
            Some(crate::SlotPolicy::EndOfQueue)
        );
        let (noinsert_baseline, noinsert) = ask("aheft-noinsert", &cfg);
        assert!(noinsert_baseline >= 80.0 - 1e-9);
        // The caller's scheduling config flows through: "aheft" with an
        // end-of-queue cfg must answer exactly like "aheft-noinsert" with
        // the default cfg (same derivation as make_policy).
        let eoq_cfg = RunConfig {
            aheft: crate::aheft::AheftConfig {
                slot_policy: crate::SlotPolicy::EndOfQueue,
                ..Default::default()
            },
            ..Default::default()
        };
        let (_, aheft_eoq) = ask("aheft", &eoq_cfg);
        assert_eq!(aheft_eoq.to_bits(), noinsert.to_bits());
        // JIT policies keep no plan: no hypothetical to evaluate. Neither
        // do unknown names.
        for name in ["minmin", "ranked-jit", "bogus"] {
            assert!(
                planning_config(name, &cfg).is_none(),
                "{name} must not answer what-if queries"
            );
        }
    }

    #[test]
    fn combined_modify_matches_manual_pool_edit() {
        // add r4 AND remove r1 in one query — the "migrate load off a node"
        // shape. Must equal a manual evaluation over the edited pool.
        let dag = sample::fig4_dag();
        let costs = sample::fig4_costs_initial();
        let snap = Snapshot::initial(3);
        let cfg = AheftConfig::default();
        let query = WhatIfQuery::Modify {
            add: vec![sample::fig4_r4_column()],
            remove: vec![ResourceId(0)],
        };
        let (baseline, hypothetical) = cold(&dag, &costs, 3, &cfg, &query).unwrap();
        assert!((baseline - 80.0).abs() < 1e-9);
        let mut costs2 = sample::fig4_costs_initial();
        let id = costs2.add_resource(&sample::fig4_r4_column()).unwrap();
        let alive2 = vec![ResourceId(1), ResourceId(2), id];
        let mut ws = ScheduleWorkspace::new();
        let manual = aheft_schedule_into(&dag, &costs2, snap.view(), &alive2, &cfg, &mut ws);
        assert_eq!(hypothetical.to_bits(), manual.to_bits());
    }

    #[test]
    fn combined_modify_with_empty_parts_is_baseline() {
        let dag = sample::fig4_dag();
        let costs = sample::fig4_costs_initial();
        let query = WhatIfQuery::Modify { add: vec![], remove: vec![] };
        let (baseline, hypothetical) =
            cold(&dag, &costs, 3, &AheftConfig::default(), &query).unwrap();
        assert_eq!(baseline.to_bits(), hypothetical.to_bits());
    }

    #[test]
    fn try_variants_report_typed_errors_without_side_effects() {
        let dag = sample::fig4_dag();
        let costs = sample::fig4_costs_initial();
        let snap = Snapshot::initial(3);
        let cfg = AheftConfig::default();
        let mut ws = ScheduleWorkspace::new();
        let mut ask =
            |query: WhatIfQuery| what_if(&dag, &costs, &snap, &alive(3), &cfg, &query, &mut ws);
        // Unknown removal target.
        let err = ask(WhatIfQuery::RemoveResource(ResourceId(9))).unwrap_err();
        assert_eq!(err, WhatIfError::UnknownResource(ResourceId(9)));
        // Column length mismatch.
        let err = ask(WhatIfQuery::AddResources { columns: vec![vec![1.0; 3]] }).unwrap_err();
        assert!(matches!(err, WhatIfError::BadColumn(_)));
        // Non-finite cost.
        let err = ask(WhatIfQuery::AddResources { columns: vec![vec![f64::NAN; 10]] }).unwrap_err();
        assert!(matches!(err, WhatIfError::BadColumn(_)));
        // Removing the whole pool, even via the combined form.
        let err = ask(WhatIfQuery::Modify {
            add: vec![],
            remove: vec![ResourceId(0), ResourceId(1), ResourceId(2)],
        })
        .unwrap_err();
        assert_eq!(err, WhatIfError::EmptyPool);
        assert_eq!(err.to_string(), "cannot remove the last resource");
        // A failed query must leave the workspace usable and the answers
        // unchanged.
        let ok =
            ask(WhatIfQuery::AddResources { columns: vec![sample::fig4_r4_column()] }).unwrap();
        assert!((ok - 87.0).abs() < 1e-9);
    }

    #[test]
    fn replacing_the_whole_pool_is_allowed() {
        // Every current resource leaves, one new one joins: pool non-empty.
        let dag = sample::fig4_dag();
        let costs = sample::fig4_costs_initial();
        let (_, hypothetical) = cold(
            &dag,
            &costs,
            3,
            &AheftConfig::default(),
            &WhatIfQuery::Modify {
                add: vec![sample::fig4_r4_column()],
                remove: vec![ResourceId(0), ResourceId(1), ResourceId(2)],
            },
        )
        .unwrap();
        assert!(hypothetical.is_finite());
    }

    #[test]
    fn warm_scratch_reuse_is_bit_identical_to_fresh_workspaces() {
        // The scratch-table path must answer exactly like a cold evaluation,
        // across repeated and alternating query shapes, whether or not the
        // baseline pass ran on the same workspace first.
        let dag = sample::fig4_dag();
        let costs = sample::fig4_costs_initial();
        let snap = Snapshot::initial(3);
        let cfg = AheftConfig::default();
        let queries = [
            WhatIfQuery::AddResources { columns: vec![sample::fig4_r4_column()] },
            WhatIfQuery::RemoveResource(ResourceId(1)),
            WhatIfQuery::Modify {
                add: vec![sample::fig4_r4_column()],
                remove: vec![ResourceId(2)],
            },
            WhatIfQuery::AddResources { columns: vec![sample::fig4_r4_column()] },
        ];
        let mut warm = ScheduleWorkspace::new();
        let baseline = aheft_schedule_into(&dag, &costs, snap.view(), &alive(3), &cfg, &mut warm);
        for _ in 0..3 {
            for q in &queries {
                let w = what_if(&dag, &costs, &snap, &alive(3), &cfg, q, &mut warm).unwrap();
                let (cold_baseline, cold) = cold(&dag, &costs, 3, &cfg, q).unwrap();
                assert_eq!(baseline.to_bits(), cold_baseline.to_bits());
                assert_eq!(w.to_bits(), cold.to_bits());
            }
        }
    }

    #[test]
    fn removing_last_resource_is_an_error() {
        let dag = sample::fig4_dag();
        let initial = sample::fig4_costs_initial();
        let first_column: Vec<Vec<f64>> = (0..dag.job_count())
            .map(|i| vec![initial.comp(JobId::from(i), ResourceId(0))])
            .collect();
        let costs = CostTable::from_dag_comm(&dag, &first_column, 1.0).unwrap();
        let err = cold(
            &dag,
            &costs,
            1,
            &AheftConfig::default(),
            &WhatIfQuery::RemoveResource(ResourceId(0)),
        )
        .unwrap_err();
        assert_eq!(err, WhatIfError::EmptyPool);
    }
}
