//! Parametric random DAG generator (paper §4.2, Table 2).
//!
//! Follows the heterogeneous computation modelling approach of the HEFT
//! paper as adopted by Yu & Shi:
//!
//! * `v` — number of jobs,
//! * `out_degree` — maximum out-degree as a *fraction* of `v`,
//! * `CCR` — communication-to-computation ratio; edge costs are drawn from
//!   `U[0, 2·CCR·ω_DAG]` so their mean is `CCR·ω_DAG`,
//! * `β` — resource heterogeneity (consumed by the [`CostGenerator`]):
//!   `ω_i ~ U[0, 2·ω_DAG]`, `w[i][j] ~ ω_i · U[1−β/2, 1+β/2]`.
//!
//! Structure: jobs are layered into `≈√v` levels; each job draws edges to
//! jobs in strictly later levels, and every non-entry-level job is
//! guaranteed at least one predecessor so the DAG stays flow-connected.

use rand::Rng;

use super::GeneratedWorkflow;
use crate::build::DagBuilder;
use crate::costs::CostGenerator;
use crate::graph::OpClass;
use crate::ids::JobId;

/// Parameters of the random DAG generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RandomDagParams {
    /// Number of jobs `v` (paper sweeps 20..100).
    pub jobs: usize,
    /// Maximum out-degree as a fraction of `v` (paper sweeps 0.1..1.0).
    pub out_degree: f64,
    /// Communication-to-computation ratio (paper sweeps 0.1..10).
    pub ccr: f64,
    /// Resource heterogeneity factor (paper sweeps 0.1..1.0).
    pub beta: f64,
    /// Average computation cost `ω_DAG` of the whole DAG; the paper leaves
    /// the unit unspecified, we fix 100 (see DESIGN.md §3).
    pub omega_dag: f64,
}

impl RandomDagParams {
    /// Paper-typical defaults: `v=60`, `out_degree=0.2`, `CCR=1`, `β=0.5`.
    pub fn paper_default() -> Self {
        Self { jobs: 60, out_degree: 0.2, ccr: 1.0, beta: 0.5, omega_dag: 100.0 }
    }
}

impl Default for RandomDagParams {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Generate one random workflow.
///
/// Panics if `jobs == 0`. Deterministic for a given RNG state.
pub fn generate<R: Rng + ?Sized>(params: &RandomDagParams, rng: &mut R) -> GeneratedWorkflow {
    assert!(params.jobs > 0, "cannot generate an empty DAG");
    let v = params.jobs;

    // --- layering -------------------------------------------------------
    // Depth jitters around sqrt(v): U[ceil(sqrt/2), floor(1.5 sqrt)],
    // clamped to [1, v].
    let sqrt_v = (v as f64).sqrt();
    let lo = ((sqrt_v / 2.0).ceil() as usize).clamp(1, v);
    let hi = ((sqrt_v * 1.5).floor() as usize).clamp(lo, v);
    let depth = if lo == hi { lo } else { rng.random_range(lo..=hi) };

    // One job per level guaranteed, remaining jobs spread uniformly.
    let mut level_of = vec![0usize; v];
    for (lvl, job) in level_of.iter_mut().enumerate().take(depth) {
        *job = lvl; // jobs 0..depth seed each level
    }
    for job in level_of.iter_mut().skip(depth) {
        *job = rng.random_range(0..depth);
    }
    // Map to ordered ids: sort jobs by level so ids increase with level,
    // which keeps generated DAGs easy to read.
    let mut by_level: Vec<usize> = (0..v).collect();
    by_level.sort_by_key(|&j| level_of[j]);
    let mut level_sorted = vec![0usize; v];
    for (new_id, &old) in by_level.iter().enumerate() {
        level_sorted[new_id] = level_of[old];
    }
    let level_of = level_sorted;

    let mut b = DagBuilder::with_capacity(v, v * 2);
    for (i, &lvl) in level_of.iter().enumerate() {
        // Random DAG jobs are all unique operations: one class per job.
        b.add_job_with_class(format!("n{}@L{}", i + 1, lvl), OpClass::UNIQUE);
    }

    // --- edges ------------------------------------------------------------
    let max_out = ((params.out_degree * v as f64).round() as usize).max(1);
    let comm_hi = 2.0 * params.ccr * params.omega_dag;
    // Whether each job has a predecessor yet, so the loop below needs no
    // scan of all v sources per job (O(v²) hash probes, seconds at v=20k).
    let mut has_pred = vec![false; v];
    for src in 0..v {
        let src_lvl = level_of[src];
        // Candidate targets: all jobs in strictly later levels.
        let first_later = level_of.partition_point(|&l| l <= src_lvl);
        if first_later >= v {
            continue; // last level: no outgoing edges
        }
        let later = v - first_later;
        let degree = rng.random_range(1..=max_out.min(later));
        for _ in 0..degree {
            let dst = first_later + rng.random_range(0..later);
            let volume = if comm_hi > 0.0 { rng.random_range(0.0..comm_hi) } else { 0.0 };
            // Duplicate edges are simply skipped (degree is a maximum).
            if !b.has_edge(JobId::from(src), JobId::from(dst)) {
                b.add_edge(JobId::from(src), JobId::from(dst), volume)
                    .expect("targets are in later levels, so edges are acyclic");
                has_pred[dst] = true;
            }
        }
    }

    // Guarantee every non-entry-level job has a predecessor.
    for dst in 0..v {
        let lvl = level_of[dst];
        if lvl == 0 {
            continue;
        }
        // An edge this loop adds targets only its own iteration's `dst`,
        // so the first loop's flags are complete here.
        if !has_pred[dst] {
            // Pick a random source in any earlier level.
            let last_earlier = level_of.partition_point(|&l| l < lvl);
            let src = rng.random_range(0..last_earlier);
            let volume = if comm_hi > 0.0 { rng.random_range(0.0..comm_hi) } else { 0.0 };
            b.add_edge(JobId::from(src), JobId::from(dst), volume)
                .expect("earlier-level source cannot create a cycle");
        }
    }

    let dag = b.build().expect("layered construction is acyclic");

    // --- costs ------------------------------------------------------------
    let omega: Vec<f64> = (0..v).map(|_| rng.random_range(0.0..2.0 * params.omega_dag)).collect();
    let costgen = CostGenerator::new(omega, params.beta).expect("beta validated by params");

    GeneratedWorkflow { dag, costgen }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn generates_requested_job_count() {
        let mut rng = StdRng::seed_from_u64(7);
        let p = RandomDagParams { jobs: 50, ..RandomDagParams::paper_default() };
        let wf = generate(&p, &mut rng);
        assert_eq!(wf.dag.job_count(), 50);
        assert_eq!(wf.costgen.job_count(), 50);
    }

    #[test]
    fn is_deterministic_for_seed() {
        let p = RandomDagParams::paper_default();
        let a = generate(&p, &mut StdRng::seed_from_u64(9));
        let b = generate(&p, &mut StdRng::seed_from_u64(9));
        assert_eq!(a.dag.edge_count(), b.dag.edge_count());
        for (ea, eb) in a.dag.edges().iter().zip(b.dag.edges()) {
            assert_eq!(ea.src, eb.src);
            assert_eq!(ea.dst, eb.dst);
            assert_eq!(ea.data, eb.data);
        }
    }

    #[test]
    fn every_non_entry_job_has_a_pred() {
        let mut rng = StdRng::seed_from_u64(3);
        let p = RandomDagParams { jobs: 80, out_degree: 0.1, ..RandomDagParams::paper_default() };
        let wf = generate(&p, &mut rng);
        let entries = wf.dag.entry_jobs();
        for j in wf.dag.job_ids() {
            assert!(!wf.dag.preds(j).is_empty() || entries.contains(&j), "{j} is isolated");
        }
    }

    #[test]
    fn mean_ccr_is_close_to_requested() {
        // With many edges the sampled mean comm cost should approach
        // CCR * omega_dag (both drawn from uniform distributions).
        let mut rng = StdRng::seed_from_u64(11);
        let p = RandomDagParams {
            jobs: 100,
            out_degree: 0.4,
            ccr: 5.0,
            ..RandomDagParams::paper_default()
        };
        let wf = generate(&p, &mut rng);
        let mean_comm = wf.dag.total_data() / wf.dag.edge_count() as f64;
        let expect = p.ccr * p.omega_dag;
        assert!(
            (mean_comm - expect).abs() / expect < 0.25,
            "mean comm {mean_comm} too far from {expect}"
        );
    }

    #[test]
    fn depth_scales_with_sqrt_v() {
        let mut rng = StdRng::seed_from_u64(5);
        let p = RandomDagParams { jobs: 100, ..RandomDagParams::paper_default() };
        let wf = generate(&p, &mut rng);
        let s = analysis::shape(&wf.dag);
        assert!(s.depth >= 5 && s.depth <= 15, "depth {} out of range", s.depth);
    }

    #[test]
    fn single_job_dag_is_valid() {
        let mut rng = StdRng::seed_from_u64(1);
        let p = RandomDagParams { jobs: 1, ..RandomDagParams::paper_default() };
        let wf = generate(&p, &mut rng);
        assert_eq!(wf.dag.job_count(), 1);
        assert_eq!(wf.dag.edge_count(), 0);
    }
}
