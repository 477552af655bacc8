//! # aheft-workflow
//!
//! DAG workflow model for grid workflow scheduling, following the
//! heterogeneous computing model of Topcuoglu, Hariri & Wu (HEFT, TPDS 2002)
//! as used by Yu & Shi, "An Adaptive Rescheduling Strategy for Grid Workflow
//! Applications" (IPPS 2007).
//!
//! A workflow application is a weighted directed acyclic graph `G = (V, E)`:
//!
//! * nodes are **jobs**; `w[i][j]` is the computation cost of job `n_i` on
//!   resource `r_j` (heterogeneous — every resource may run a job at a
//!   different speed),
//! * edges are **data dependencies**; the edge weight `c(i,k)` is the
//!   communication cost paid when `n_i` and `n_k` execute on *different*
//!   resources (zero when co-located).
//!
//! The crate provides:
//!
//! * [`Dag`] / [`DagBuilder`] — validated DAG construction with cached
//!   topological order and predecessor/successor adjacency,
//! * [`CostTable`] / [`CostGenerator`] — heterogeneous cost matrices with
//!   support for resources that join the pool *after* generation (the grid
//!   dynamics studied by the paper),
//! * [`rank`] — upward/downward ranks and the critical path (HEFT Eq. 5–6),
//! * [`rank_engine`] — incrementally maintained upward ranks: pool deltas
//!   are applied as `O(jobs + edges)` updates instead of from-scratch
//!   recomputation, bit-identical to the [`rank`] kernel,
//! * [`generators`] — the parametric random DAG generator of the paper's
//!   §4.2 plus the BLAST, WIEN2K, Montage-like and Gaussian-elimination
//!   application shapes of §4.3,
//! * [`sample`] — the exact worked example of the paper's Fig. 4/5,
//! * [`analysis`] — structural statistics (width, depth, parallelism degree).

#![warn(missing_docs)]

pub mod analysis;
pub mod build;
pub mod costs;
pub mod error;
pub mod generators;
pub mod graph;
pub mod ids;
pub mod rank;
pub mod rank_engine;
pub mod sample;
pub mod topo;

pub use build::DagBuilder;
pub use costs::{CostGenerator, CostTable};
pub use error::WorkflowError;
pub use graph::{Dag, Edge, EdgeId, Job, OpClass};
pub use ids::{JobId, ResourceId};
pub use rank::{critical_path, rank_upward};
pub use rank_engine::RankEngine;
