//! Performance estimation: the Predictor of the paper's Fig. 1.
//!
//! The paper's experiments assume *accurate* estimation (§4.1 assumption 1):
//! a job's actual runtime equals its estimated cost `w[i][j]`, so the
//! Predictor returns the cost table as-is. That is [`ActualModel::Exact`];
//! [`ActualModel::Noisy`] perturbs actual runtimes for the
//! performance-variance extension.

use rand::Rng;

/// How actual runtimes relate to estimates during simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ActualModel {
    /// Actual = estimate (paper §4.1 assumption 1).
    Exact,
    /// Actual = estimate × `U[1 − spread, 1 + spread]` — models estimation
    /// error / resource performance variance.
    Noisy {
        /// Half-width of the multiplicative error (e.g. 0.3 = ±30%).
        spread: f64,
    },
}

impl ActualModel {
    /// Sample an actual runtime for an estimated cost.
    pub fn actual<R: Rng + ?Sized>(&self, estimate: f64, rng: &mut R) -> f64 {
        match *self {
            ActualModel::Exact => estimate,
            ActualModel::Noisy { spread } => {
                if estimate == 0.0 || spread == 0.0 {
                    estimate
                } else {
                    estimate * rng.random_range(1.0 - spread..1.0 + spread)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn exact_model_is_identity() {
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(ActualModel::Exact.actual(42.0, &mut rng), 42.0);
    }

    #[test]
    fn noisy_model_stays_in_band() {
        let mut rng = StdRng::seed_from_u64(0);
        let m = ActualModel::Noisy { spread: 0.3 };
        for _ in 0..200 {
            let a = m.actual(100.0, &mut rng);
            assert!((70.0..130.0).contains(&a));
        }
    }
}
