//! BLAST workflow generator (paper Fig. 6, GNARE \[17\]).
//!
//! A six-step genome-analysis workflow with `N`-way parallelism:
//!
//! ```text
//!                FileBreaker/ID001          (split input)
//!               /        |        \
//!          ID006      ID006  ...  ID006     (N parallel: compare)
//!            |          |           |
//!          ID007      ID007  ...  ID007     (N parallel: parse)
//!               \       |        /
//!                FileBreaker/ID012          (merge outputs)
//! ```
//!
//! Total jobs `v = 2N + 2`. The DAG is well balanced with one wide section —
//! the shape for which the paper reports the largest AHEFT gains (20.4%).
//! There are only four unique operations; jobs of the same
//! [`OpClass`](crate::graph::OpClass) share
//! their nominal computation cost (paper §4.3 observation 2).

use rand::Rng;

use super::{scale_comm_to_ccr, GeneratedWorkflow};
use crate::build::DagBuilder;
use crate::costs::CostGenerator;

/// Parameters shared by the application DAG generators (Table 5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AppDagParams {
    /// Parallelism degree `N` (paper sweeps 200..1000).
    pub parallelism: usize,
    /// Communication-to-computation ratio.
    pub ccr: f64,
    /// Resource heterogeneity factor `β`.
    pub beta: f64,
    /// Average computation cost scale (see DESIGN.md §3).
    pub omega_dag: f64,
}

impl AppDagParams {
    /// Paper-typical defaults: `N=200`, `CCR=1`, `β=0.5`.
    pub fn paper_default() -> Self {
        Self { parallelism: 200, ccr: 1.0, beta: 0.5, omega_dag: 100.0 }
    }
}

impl Default for AppDagParams {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Operation classes of the BLAST workflow.
pub mod ops {
    use crate::graph::OpClass;
    /// `compbio:FileBreaker/ID001` — split the input file.
    pub const SPLIT: OpClass = OpClass(0);
    /// `compbio:FileBreaker/ID006` — per-block comparative analysis.
    pub const COMPARE: OpClass = OpClass(1);
    /// `compbio:FileBreaker/ID007` — per-block output parsing.
    pub const PARSE: OpClass = OpClass(2);
    /// `compbio:FileBreaker/ID012` — merge per-block outputs.
    pub const MERGE: OpClass = OpClass(3);
}

/// Generate a BLAST workflow with `N = params.parallelism` parallel chains.
///
/// Panics if `parallelism == 0`.
pub fn generate<R: Rng + ?Sized>(params: &AppDagParams, rng: &mut R) -> GeneratedWorkflow {
    assert!(params.parallelism > 0, "BLAST needs at least one parallel chain");
    let n = params.parallelism;

    let mut b = DagBuilder::with_capacity(2 * n + 2, 3 * n);
    let split = b.add_job_with_class("FileBreaker/ID001", ops::SPLIT);
    let compares: Vec<_> = (0..n)
        .map(|i| b.add_job_with_class(format!("ID006/jobNo_1_{}", i + 1), ops::COMPARE))
        .collect();
    let parses: Vec<_> = (0..n)
        .map(|i| b.add_job_with_class(format!("ID007/jobNo_1_{}", i + 1), ops::PARSE))
        .collect();
    let merge = b.add_job_with_class("FileBreaker/ID012", ops::MERGE);

    // Nominal per-class computation cost: the wide COMPARE stage dominates
    // (genome comparison is the heavy step); split/merge are I/O-ish. The
    // weights are calibrated jointly with the WIEN2K generator to the
    // paper's Table 6 makespan ratio (DESIGN.md §3).
    let class_omega = sample_class_omegas(rng, params.omega_dag, &[0.4, 1.8, 1.0, 0.4]);
    // Per-edge-class data volume, before CCR normalisation.
    let vol_split = params.omega_dag * rng.random_range(0.5..1.5);
    let vol_chain = params.omega_dag * rng.random_range(0.5..1.5);
    let vol_merge = params.omega_dag * rng.random_range(0.5..1.5);

    for i in 0..n {
        b.add_edge(split, compares[i], vol_split).expect("fan-out edges are acyclic");
        b.add_edge(compares[i], parses[i], vol_chain).expect("chain edges are acyclic");
        b.add_edge(parses[i], merge, vol_merge).expect("fan-in edges are acyclic");
    }
    let dag = b.build().expect("BLAST shape is acyclic");

    let omega: Vec<f64> = dag.job_ids().map(|j| class_omega[dag.job(j).op.0 as usize]).collect();

    // Normalise edge volumes so the measured CCR matches the request.
    let mut volumes: Vec<f64> = dag.edges().iter().map(|e| e.data).collect();
    scale_comm_to_ccr(&mut volumes, &omega, params.ccr);
    let dag = rebuild_with_volumes(&dag, &volumes);

    let costgen = CostGenerator::new(omega, params.beta).expect("beta is validated upstream");
    GeneratedWorkflow { dag, costgen }
}

/// Draw per-class nominal costs `ω_class = ω_DAG · weight · U[0.75, 1.25]`.
pub(crate) fn sample_class_omegas<R: Rng + ?Sized>(
    rng: &mut R,
    omega_dag: f64,
    weights: &[f64],
) -> Vec<f64> {
    weights.iter().map(|w| omega_dag * w * rng.random_range(0.75..1.25)).collect()
}

/// Rebuild a DAG with new edge volumes (same structure).
pub(crate) fn rebuild_with_volumes(dag: &crate::Dag, volumes: &[f64]) -> crate::Dag {
    let mut b = DagBuilder::with_capacity(dag.job_count(), dag.edge_count());
    for j in dag.job_ids() {
        let job = dag.job(j);
        b.add_job_with_class(job.name.clone(), job.op);
    }
    for (e, &vol) in dag.edges().iter().zip(volumes) {
        b.add_edge(e.src, e.dst, vol).expect("structure unchanged");
    }
    b.build().expect("structure unchanged")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn blast_shape_is_split_chains_merge() {
        let mut rng = StdRng::seed_from_u64(2);
        let p = AppDagParams { parallelism: 5, ..AppDagParams::paper_default() };
        let wf = generate(&p, &mut rng);
        assert_eq!(wf.dag.job_count(), 12); // 2N + 2
        assert_eq!(wf.dag.edge_count(), 15); // 3N
        let s = analysis::shape(&wf.dag);
        assert_eq!(s.depth, 4);
        assert_eq!(s.max_width, 5);
        assert_eq!(s.entries, 1);
        assert_eq!(s.exits, 1);
    }

    #[test]
    fn same_class_jobs_share_nominal_cost() {
        let mut rng = StdRng::seed_from_u64(4);
        let p = AppDagParams { parallelism: 4, ..AppDagParams::paper_default() };
        let wf = generate(&p, &mut rng);
        let compare_costs: Vec<f64> = wf
            .dag
            .job_ids()
            .filter(|&j| wf.dag.job(j).op == ops::COMPARE)
            .map(|j| wf.costgen.omega(j))
            .collect();
        assert_eq!(compare_costs.len(), 4);
        assert!(compare_costs.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn measured_ccr_matches_request() {
        let mut rng = StdRng::seed_from_u64(8);
        for ccr in [0.1, 1.0, 10.0] {
            let p = AppDagParams { parallelism: 50, ccr, ..AppDagParams::paper_default() };
            let wf = generate(&p, &mut rng);
            let mean_comm = wf.dag.total_data() / wf.dag.edge_count() as f64;
            let mean_omega: f64 = (0..wf.dag.job_count())
                .map(|i| wf.costgen.omega(crate::JobId::from(i)))
                .sum::<f64>()
                / wf.dag.job_count() as f64;
            let got = mean_comm / mean_omega;
            assert!((got - ccr).abs() / ccr < 1e-6, "ccr {got} want {ccr}");
        }
    }

    #[test]
    fn parallelism_one_is_a_chain() {
        let mut rng = StdRng::seed_from_u64(6);
        let p = AppDagParams { parallelism: 1, ..AppDagParams::paper_default() };
        let wf = generate(&p, &mut rng);
        assert_eq!(wf.dag.job_count(), 4);
        assert_eq!(analysis::shape(&wf.dag).max_width, 1);
    }
}
