//! Workload generators.
//!
//! * [`random`] — the parametric random DAG generator of the paper's §4.2
//!   (Topcuoglu's heterogeneous computation modelling approach): parameters
//!   `v`, `out_degree`, `CCR`, `β`.
//! * [`blast`] — the BLAST shape of Fig. 6: a splitter fans out to `N`
//!   two-job chains which merge into a collector.
//! * [`wien2k`] — the full-balanced WIEN2K shape of Fig. 7: two `N`-wide
//!   parallel sections (`LAPW1`, `LAPW2`) separated by the single-job
//!   `LAPW2_FERMI` bottleneck, with a serial tail.
//! * [`montage`] — a Montage-like mosaic pipeline (extra realistic shape for
//!   ablations; Montage is cited in §4.3 as a third well-balanced workflow).
//! * [`gauss`] — the Gaussian-elimination DAG of the HEFT paper (regular,
//!   *narrowing* parallelism — a useful contrast case).
//!
//! Every generator returns a [`GeneratedWorkflow`]: the DAG (edge data
//! volumes already encode communication costs under the unit network model)
//! plus a [`CostGenerator`] that samples per-resource computation columns —
//! including columns for resources that join the pool later.

pub mod blast;
pub mod gauss;
pub mod montage;
pub mod random;
pub mod wien2k;

use crate::costs::CostGenerator;
use crate::graph::Dag;

/// A generated workload: structure plus cost distribution.
#[derive(Debug, Clone)]
pub struct GeneratedWorkflow {
    /// The workflow DAG; `Edge::data` is the communication cost between
    /// distinct resources.
    pub dag: Dag,
    /// Sampler for heterogeneous computation-cost columns.
    pub costgen: CostGenerator,
}

impl GeneratedWorkflow {
    /// Sample a [`crate::CostTable`] for an initial pool of `resources`.
    pub fn sample_table<R: rand::Rng + ?Sized>(
        &self,
        resources: usize,
        rng: &mut R,
    ) -> crate::CostTable {
        self.costgen
            .sample_table(&self.dag, resources, rng)
            .expect("generator produces consistent dimensions")
    }

    /// Sample a [`crate::CostTable`] from its own dedicated seed.
    ///
    /// The sweep harness derives this seed from the case coordinates (see
    /// `aheft_bench::harness::case_streams`), so the sampled costs do not
    /// depend on how many RNG draws DAG generation consumed — the cost
    /// stream stays aligned across generator revisions and across
    /// threads/shards of a parallel sweep.
    pub fn sample_table_seeded(&self, resources: usize, seed: u64) -> crate::CostTable {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        self.sample_table(resources, &mut rng)
    }
}

/// Rescale the edge volumes of a DAG-under-construction so that the measured
/// mean communication cost equals `ccr ×` mean nominal computation cost.
/// Used by the application generators, whose few operation classes would
/// otherwise give the CCR too much sampling variance to sweep cleanly.
pub(crate) fn scale_comm_to_ccr(edge_data: &mut [f64], omega: &[f64], ccr: f64) {
    if edge_data.is_empty() || omega.is_empty() {
        return;
    }
    // analyzer::allow(float-reduction-discipline): folds run in edge/job
    // construction order over slices — fixed per (generator, seed), so the
    // rescale factor is identical on every machine.
    let mean_comm: f64 = edge_data.iter().sum::<f64>() / edge_data.len() as f64;
    // analyzer::allow(float-reduction-discipline): same fixed construction order.
    let mean_comp: f64 = omega.iter().sum::<f64>() / omega.len() as f64;
    if mean_comm <= 0.0 || mean_comp <= 0.0 {
        return;
    }
    let factor = ccr * mean_comp / mean_comm;
    for d in edge_data.iter_mut() {
        *d *= factor;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_comm_hits_requested_ccr() {
        let mut data = vec![1.0, 2.0, 3.0];
        let omega = vec![10.0, 20.0];
        scale_comm_to_ccr(&mut data, &omega, 0.5);
        let mean_comm = data.iter().sum::<f64>() / 3.0;
        assert!((mean_comm - 0.5 * 15.0).abs() < 1e-9);
    }

    #[test]
    fn scale_comm_handles_degenerate_inputs() {
        let mut empty: Vec<f64> = vec![];
        scale_comm_to_ccr(&mut empty, &[1.0], 1.0);
        let mut zeros = vec![0.0];
        scale_comm_to_ccr(&mut zeros, &[1.0], 1.0);
        assert_eq!(zeros, vec![0.0]);
    }
}
