//! Logical simulation time.
//!
//! The paper's model measures all costs in abstract real-valued time units
//! (`clock` in its Fig. 2 is a logical clock). `f64` is the natural carrier,
//! but `f64` is not `Ord`; [`SimTime`] wraps it with a total order (via
//! `total_cmp`) and forbids NaN/∞ at construction so the event queue's
//! ordering is always well defined.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, Sub};

/// A finite, non-negative point in simulated time.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SimTime(f64);

impl SimTime {
    /// Time zero — the instant the workflow is submitted.
    pub const ZERO: SimTime = SimTime(0.0);

    /// Wrap a raw time value.
    ///
    /// # Panics
    /// Panics on NaN, infinite or negative values — those indicate a logic
    /// error upstream (cost arithmetic must stay finite).
    #[inline]
    pub fn new(t: f64) -> Self {
        assert!(t.is_finite() && t >= 0.0, "invalid simulation time {t}");
        SimTime(t)
    }

    /// The raw value.
    #[inline]
    pub fn value(self) -> f64 {
        self.0
    }

    /// Saturating subtraction: `max(self - rhs, 0)`.
    #[inline]
    pub fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime((self.0 - rhs.0).max(0.0))
    }

    /// The later of two times.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl Eq for SimTime {}

impl PartialOrd for SimTime {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SimTime {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl Add for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime::new(self.0 + rhs.0)
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime::new(self.0 - rhs.0)
    }
}

impl From<f64> for SimTime {
    #[inline]
    fn from(t: f64) -> Self {
        SimTime::new(t)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_total() {
        assert!(SimTime::new(1.0) < SimTime::new(2.0));
        assert_eq!(SimTime::new(3.0).max(SimTime::new(1.0)), SimTime::new(3.0));
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::new(5.0) + SimTime::new(2.5);
        assert_eq!(t.value(), 7.5);
        assert_eq!((t - SimTime::new(2.5)).value(), 5.0);
        assert_eq!(SimTime::new(1.0).saturating_sub(SimTime::new(9.0)), SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "invalid simulation time")]
    fn rejects_nan() {
        let _ = SimTime::new(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "invalid simulation time")]
    fn rejects_negative() {
        let _ = SimTime::new(-1.0);
    }
}
