//! Shared-pool accounting across concurrent workflows.
//!
//! The multi-tenant service layer (`aheft_core::service`) runs many
//! workflows against one grid at a time: each admitted workflow leases a
//! fixed slice of resources, runs on it via the single-workflow event
//! pump, and releases the slice when it completes (or is preempted). The
//! [`SharedPool`] ledger is the substrate-side bookkeeping for that
//! contention: who holds how much of the pool, how much resource-time each
//! tenant has consumed, and how busy the pool was over the service run —
//! the denominators behind per-tenant fair-share decisions and the
//! pool-utilization metric on the service report.
//!
//! The ledger is purely deterministic state: every mutation happens at an
//! explicit simulation time, and the busy-time integrals advance
//! piecewise-constantly between mutations, so identical event sequences
//! produce bit-identical accounting at any thread count.

/// Lease-based accounting for one resource pool shared by many workflows.
///
/// Times passed to [`lease`](SharedPool::lease),
/// [`release`](SharedPool::release) and
/// [`advance_to`](SharedPool::advance_to) must be non-decreasing.
#[derive(Debug, Clone)]
pub struct SharedPool {
    capacity: usize,
    free: usize,
    now: f64,
    busy_integral: f64,
    tenant_busy: Vec<f64>,
    tenant_leased: Vec<usize>,
}

impl SharedPool {
    /// A fully idle pool of `capacity` resources serving `tenants` tenants.
    pub fn new(capacity: usize, tenants: usize) -> SharedPool {
        assert!(capacity > 0, "a shared pool needs at least one resource");
        assert!(tenants > 0, "a shared pool needs at least one tenant");
        SharedPool {
            capacity,
            free: capacity,
            now: 0.0,
            busy_integral: 0.0,
            tenant_busy: vec![0.0; tenants],
            tenant_leased: vec![0; tenants],
        }
    }

    /// Resources not currently leased.
    pub fn free(&self) -> usize {
        self.free
    }

    /// Resources currently leased (by any tenant).
    pub fn leased(&self) -> usize {
        self.capacity - self.free
    }

    /// Advance the ledger clock to `t`, accruing busy-time integrals for
    /// the interval since the last mutation.
    pub fn advance_to(&mut self, t: f64) {
        debug_assert!(t >= self.now, "shared-pool time went backwards: {t} < {}", self.now);
        let dt = t - self.now;
        if dt > 0.0 {
            self.busy_integral += dt * self.leased() as f64;
            for (busy, leased) in self.tenant_busy.iter_mut().zip(&self.tenant_leased) {
                *busy += dt * *leased as f64;
            }
            self.now = t;
        }
    }

    /// Lease `k` resources to `tenant` at time `t`. Returns `false` (and
    /// changes nothing beyond advancing the clock) when fewer than `k`
    /// resources are free.
    pub fn lease(&mut self, t: f64, tenant: usize, k: usize) -> bool {
        self.advance_to(t);
        if k > self.free {
            return false;
        }
        self.free -= k;
        self.tenant_leased[tenant] += k;
        true
    }

    /// Return `k` of `tenant`'s leased resources to the pool at time `t`.
    ///
    /// Panics if the tenant holds fewer than `k` resources — a release
    /// without a matching lease is a service-layer bug, not a recoverable
    /// condition.
    pub fn release(&mut self, t: f64, tenant: usize, k: usize) {
        self.advance_to(t);
        assert!(
            self.tenant_leased[tenant] >= k,
            "tenant {tenant} releases {k} resources but holds {}",
            self.tenant_leased[tenant]
        );
        self.tenant_leased[tenant] -= k;
        self.free += k;
    }

    /// Resource-time `tenant` has consumed up to the ledger clock (the
    /// integral over time of the resources it leases).
    pub fn tenant_service(&self, tenant: usize) -> f64 {
        self.tenant_busy[tenant]
    }

    /// Mean busy fraction of the pool over `[0, horizon]`: the busy-time
    /// integral up to the ledger clock. The caller first advances the
    /// ledger to the horizon ([`SharedPool::advance_to`]), so leases still
    /// held count as busy through it. Zero for a non-positive horizon.
    pub fn utilization(&self, horizon: f64) -> f64 {
        if horizon <= 0.0 {
            return 0.0;
        }
        debug_assert!(horizon <= self.now, "ledger at {} not advanced to {horizon}", self.now);
        (self.busy_integral / (self.capacity as f64 * horizon)).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lease_and_release_track_free_capacity() {
        let mut p = SharedPool::new(4, 2);
        assert_eq!((p.free(), p.leased()), (4, 0), "a new pool is fully free");
        assert!(p.lease(0.0, 0, 3));
        assert!(!p.lease(1.0, 1, 2), "only one resource is free");
        assert!(p.lease(1.0, 1, 1));
        assert_eq!((p.free(), p.leased()), (0, 4));
        p.release(2.0, 0, 3);
        assert_eq!((p.free(), p.leased()), (3, 1));
    }

    #[test]
    #[should_panic(expected = "releases")]
    fn release_without_lease_panics() {
        let mut p = SharedPool::new(2, 1);
        p.release(0.0, 0, 1);
    }

    #[test]
    fn busy_integrals_are_piecewise_constant() {
        let mut p = SharedPool::new(4, 2);
        assert!(p.lease(0.0, 0, 2)); // [0, 10): 2 busy, tenant 0
        assert!(p.lease(10.0, 1, 1)); // [10, 30): 3 busy
        p.release(30.0, 0, 2); // [30, 40): 1 busy
        p.release(40.0, 1, 1);
        assert_eq!(p.tenant_service(0), 2.0 * 30.0);
        assert_eq!(p.tenant_service(1), 1.0 * 30.0);
        // Busy integral 90 over horizon 40 on 4 resources.
        assert!((p.utilization(40.0) - 90.0 / 160.0).abs() < 1e-12);
    }

    #[test]
    fn utilization_counts_held_leases_through_the_horizon() {
        let mut p = SharedPool::new(2, 1);
        assert!(p.lease(0.0, 0, 1));
        // Lease still held at the horizon: once the ledger reaches it,
        // 1 busy of 2 over [0, 50].
        p.advance_to(50.0);
        assert!((p.utilization(50.0) - 0.5).abs() < 1e-12);
        assert_eq!(p.utilization(0.0), 0.0);
    }

    #[test]
    fn advance_to_is_idempotent_at_the_same_time() {
        let mut p = SharedPool::new(2, 1);
        assert!(p.lease(0.0, 0, 2));
        p.advance_to(5.0);
        p.advance_to(5.0);
        assert_eq!(p.tenant_service(0), 10.0);
    }

    #[test]
    fn failed_lease_still_advances_the_clock() {
        let mut p = SharedPool::new(2, 2);
        assert!(p.lease(0.0, 0, 2));
        assert!(!p.lease(7.0, 1, 1));
        assert_eq!(p.tenant_service(0), 14.0, "clock advanced by the failed lease");
        assert_eq!(p.tenant_service(1), 0.0);
    }
}
