//! Schedule type and helpers.
//!
//! A schedule *is* an executable plan — the artifact the Planner submits to
//! the Executor (paper Fig. 1) — so the type lives in the substrate crate
//! ([`aheft_gridsim::plan`]) and is aliased here where it is produced.

use aheft_workflow::{CostTable, ResourceId};

pub use aheft_gridsim::plan::{Assignment, Plan};

/// A schedule: job → (resource, start, finish) with a predicted makespan.
pub type Schedule = Plan;

/// All resources of a cost table, in id order — the "alive set" when no
/// resource has departed.
pub fn all_resources(costs: &CostTable) -> Vec<ResourceId> {
    (0..costs.resource_count()).map(ResourceId::from).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use aheft_workflow::DagBuilder;

    #[test]
    fn all_resources_enumerates_columns() {
        let mut b = DagBuilder::new();
        b.add_job("a");
        let dag = b.build().unwrap();
        let costs = CostTable::from_dag_comm(&dag, &[vec![1.0, 2.0, 3.0]], 1.0).unwrap();
        assert_eq!(all_resources(&costs), vec![ResourceId(0), ResourceId(1), ResourceId(2)]);
    }
}
