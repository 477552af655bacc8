//! Dynamic resource pool.
//!
//! Models the paper's grid dynamics (§4.2): starting from an initial pool of
//! `R` resources, every `Δ` time units a batch of `max(1, round(δ·R))` new
//! resources joins the pool. `Δ` is the *interval of resource change*
//! (higher = less dynamic grid) and `δ` the *percentage of resource change*
//! relative to the initial pool. The substrate also supports departures for
//! the fault-injection extension.

use aheft_workflow::ResourceId;

use crate::resource::Resource;

/// Configuration of pool evolution over time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoolDynamics {
    /// Initial pool size `R` (paper sweeps 10..50 random / 20..100 apps).
    pub initial: usize,
    /// Interval `Δ` between change events; `None` = static pool.
    pub interval: Option<f64>,
    /// Fraction `δ` of the *initial* pool added per change event.
    pub change_fraction: f64,
    /// Hard cap on total pool size (prevents unbounded growth in very long
    /// simulations; `usize::MAX` = unlimited, the paper's setting).
    pub max_size: usize,
}

impl PoolDynamics {
    /// A pool of `initial` resources that never changes (traditional static
    /// grid assumption).
    pub fn fixed(initial: usize) -> Self {
        Self { initial, interval: None, change_fraction: 0.0, max_size: usize::MAX }
    }

    /// The paper's growth model: `max(1, round(δ·R))` resources join every
    /// `Δ` time units.
    pub fn periodic_growth(initial: usize, delta_interval: f64, delta_fraction: f64) -> Self {
        assert!(delta_interval > 0.0, "change interval must be positive");
        assert!((0.0..=1.0).contains(&delta_fraction), "δ must be in [0, 1]");
        Self {
            initial,
            interval: Some(delta_interval),
            change_fraction: delta_fraction,
            max_size: usize::MAX,
        }
    }

    /// Cap the pool at `max` resources.
    pub fn with_cap(mut self, max: usize) -> Self {
        self.max_size = max;
        self
    }

    /// Number of resources added at each change event.
    pub fn batch_size(&self) -> usize {
        if self.interval.is_none() {
            0
        } else {
            ((self.change_fraction * self.initial as f64).round() as usize).max(1)
        }
    }

    /// Time of the first change event, if any.
    pub fn first_event(&self) -> Option<f64> {
        self.interval
    }
}

/// Live pool membership during a simulation run.
#[derive(Debug, Clone, Default)]
pub struct PoolState {
    resources: Vec<Resource>,
}

impl PoolState {
    /// Start with `initial` resources available at time zero.
    pub fn new(initial: usize) -> Self {
        let resources = (0..initial).map(|i| Resource::initial(ResourceId::from(i))).collect();
        Self { resources }
    }

    /// Total resources ever seen (alive or departed); equals the number of
    /// cost-table columns.
    #[inline]
    pub fn total(&self) -> usize {
        self.resources.len()
    }

    /// Ids of resources currently alive.
    pub fn alive(&self) -> Vec<ResourceId> {
        self.resources.iter().filter(|r| r.alive()).map(|r| r.id).collect()
    }

    /// As [`PoolState::alive`], writing into a caller-provided buffer so
    /// per-evaluation callers allocate nothing.
    pub fn alive_into(&self, out: &mut Vec<ResourceId>) {
        out.clear();
        out.extend(self.resources.iter().filter(|r| r.alive()).map(|r| r.id));
    }

    /// Register one resource joining at time `t`; returns its id.
    pub fn join(&mut self, t: f64) -> ResourceId {
        let id = ResourceId::from(self.resources.len());
        self.resources.push(Resource::joining(id, t));
        id
    }

    /// Mark `id` as departed at time `t`. Returns `false` if it was already
    /// gone or unknown.
    pub fn leave(&mut self, id: ResourceId, t: f64) -> bool {
        match self.resources.get_mut(id.idx()) {
            Some(r) if r.alive() => {
                r.left_at = Some(t);
                true
            }
            _ => false,
        }
    }

    /// Mark a departed `id` as repaired and rejoined at time `t`,
    /// accumulating the completed outage into its downtime. Returns
    /// `false` if the resource is unknown or was not departed.
    pub fn rejoin(&mut self, id: ResourceId, t: f64) -> bool {
        match self.resources.get_mut(id.idx()) {
            Some(r) => match r.left_at.take() {
                Some(left) => {
                    r.downtime += (t - left).max(0.0);
                    true
                }
                None => false,
            },
            None => false,
        }
    }

    /// Metadata of resource `id`.
    pub fn resource(&self, id: ResourceId) -> &Resource {
        &self.resources[id.idx()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_pool_never_changes() {
        let d = PoolDynamics::fixed(10);
        assert_eq!(d.batch_size(), 0);
        assert_eq!(d.first_event(), None);
    }

    #[test]
    fn batch_size_rounds_and_floors_at_one() {
        let d = PoolDynamics::periodic_growth(10, 400.0, 0.10);
        assert_eq!(d.batch_size(), 1);
        let d = PoolDynamics::periodic_growth(50, 400.0, 0.25);
        assert_eq!(d.batch_size(), 13); // round(12.5) = 13 (ties away from zero)
        let d = PoolDynamics::periodic_growth(3, 400.0, 0.10);
        assert_eq!(d.batch_size(), 1); // floor at one: "new resource is available"
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn growth_rejects_zero_interval() {
        let _ = PoolDynamics::periodic_growth(10, 0.0, 0.1);
    }

    #[test]
    fn pool_state_join_and_leave() {
        let mut p = PoolState::new(2);
        assert_eq!(p.alive().len(), 2);
        let r = p.join(15.0);
        assert_eq!(r, ResourceId(2));
        assert_eq!(p.total(), 3);
        assert_eq!(p.alive().len(), 3);
        assert_eq!(p.resource(r).joined_at, 15.0);
        assert!(p.leave(ResourceId(0), 30.0));
        assert!(!p.leave(ResourceId(0), 31.0));
        assert_eq!(p.alive().len(), 2);
        assert_eq!(p.alive(), vec![ResourceId(1), ResourceId(2)]);
    }

    #[test]
    fn rejoin_accumulates_downtime() {
        let mut p = PoolState::new(1);
        assert!(!p.rejoin(ResourceId(0), 5.0), "alive resource cannot rejoin");
        assert!(p.leave(ResourceId(0), 10.0));
        assert!(p.rejoin(ResourceId(0), 25.0));
        assert_eq!(p.alive().len(), 1);
        assert!((p.resource(ResourceId(0)).downtime - 15.0).abs() < 1e-12);
        // A second cycle accumulates.
        assert!(p.leave(ResourceId(0), 30.0));
        assert!(p.rejoin(ResourceId(0), 34.0));
        assert!((p.resource(ResourceId(0)).downtime - 19.0).abs() < 1e-12);
        assert!(!p.rejoin(ResourceId(9), 40.0), "unknown resource");
    }
}
