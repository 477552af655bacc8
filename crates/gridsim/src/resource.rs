//! Resource metadata.
//!
//! A resource is a computation unit; its *speed* is fully described by the
//! cost-table column `w[·][j]` (heterogeneous model), so the record here
//! carries only lifecycle metadata: when it joined the pool and whether it
//! is still alive (resources can leave or fail — the substrate supports it
//! even though the paper's experiments only exercise additions, §4.1).

use aheft_workflow::ResourceId;

/// Lifecycle metadata of one grid resource.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Resource {
    /// Dense id; also the column index in the cost table.
    pub id: ResourceId,
    /// Simulation time at which the resource joined the pool.
    pub joined_at: f64,
    /// Simulation time at which it left, if it did (cleared again when a
    /// transiently failed resource rejoins).
    pub left_at: Option<f64>,
    /// Total time spent departed over *completed* repair cycles (downtime
    /// of an ongoing departure is not included until the rejoin).
    pub downtime: f64,
}

impl Resource {
    /// A resource available from time zero.
    pub fn initial(id: ResourceId) -> Self {
        Self { id, joined_at: 0.0, left_at: None, downtime: 0.0 }
    }

    /// A resource that joins at `t`.
    pub fn joining(id: ResourceId, t: f64) -> Self {
        Self { id, joined_at: t, left_at: None, downtime: 0.0 }
    }

    /// Is the resource currently alive (never left)?
    pub fn alive(&self) -> bool {
        self.left_at.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_queries() {
        let mut r = Resource::joining(ResourceId(3), 15.0);
        assert_eq!(r.joined_at, 15.0);
        assert!(r.alive());
        r.left_at = Some(40.0);
        assert!(!r.alive());
    }
}
