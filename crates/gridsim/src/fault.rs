//! Failure injection.
//!
//! The paper's §3.3 notes that resource failure is handled by the Execution
//! Manager's fault tolerance and that *predictable* failures can be
//! mitigated by rescheduling; its experiments then only exercise resource
//! additions (§4.1 assumption 3). The substrate models the full failure
//! axis the paper skipped: one-shot departures ([`FailureModel::UniformOnce`]),
//! memoryless permanent failures ([`FailureModel::Exponential`]), transient
//! fail/repair cycles ([`FailureModel::Transient`]), and job-level crash
//! faults that leave the resource alive ([`JobFaultModel::CrashOnStart`]).
//!
//! All sampling draws from a *dedicated* fault RNG stream (derived via
//! [`derive_stream`]) so that a disabled model consumes zero draws and the
//! non-fault RNG streams — and therefore every fault-free sweep — stay
//! byte-identical whether or not the fault machinery is compiled in a run.

use rand::Rng;

/// Generates resource departure times.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FailureModel {
    /// No failures (the paper's experimental setting).
    None,
    /// Each resource independently fails once, at a time drawn uniformly
    /// over the remainder of `[birth, horizon]`, with probability `prob`.
    UniformOnce {
        /// Probability that a given resource fails at all.
        prob: f64,
        /// Latest possible failure time.
        horizon: f64,
    },
    /// Memoryless permanent failures: each resource fails at
    /// `birth + Exp(mtbf)` and never comes back.
    Exponential {
        /// Mean time between failures (the exponential's mean).
        mtbf: f64,
    },
    /// Transient fail/repair cycles: a resource fails `Exp(mtbf)` after it
    /// (re)joins, stays down for `Exp(mttr)`, rejoins, and the cycle
    /// repeats.
    Transient {
        /// Mean time between failures while up.
        mtbf: f64,
        /// Mean time to repair while down.
        mttr: f64,
    },
}

/// Sample `Exp(mean)` by inversion. `u ∈ [0, 1)` keeps the argument of
/// `ln` in `(0, 1]`, so the result is finite and non-negative.
fn sample_exp<R: Rng + ?Sized>(mean: f64, rng: &mut R) -> f64 {
    let u: f64 = rng.random_range(0.0..1.0);
    -mean * (1.0 - u).ln()
}

impl FailureModel {
    /// Sample the failure time of a resource born at time zero
    /// (`None` = never fails).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<f64> {
        self.sample_from(0.0, rng)
    }

    /// Sample the failure time of a resource that (re)joins the pool at
    /// `birth`, injecting the failure over the resource's *own* lifetime
    /// (`None` = never fails). Draw counts depend only on the model, never
    /// on `birth`, so late joiners do not shift the fault stream of their
    /// peers.
    pub fn sample_from<R: Rng + ?Sized>(&self, birth: f64, rng: &mut R) -> Option<f64> {
        match *self {
            FailureModel::None => None,
            FailureModel::UniformOnce { prob, horizon } => {
                if prob > 0.0 && rng.random_bool(prob.clamp(0.0, 1.0)) {
                    let u: f64 = rng.random_range(0.0..1.0);
                    let hi = horizon.max(f64::MIN_POSITIVE);
                    // A resource born past the horizon missed its window.
                    (birth < hi).then_some(birth + u * (hi - birth))
                } else {
                    None
                }
            }
            FailureModel::Exponential { mtbf } | FailureModel::Transient { mtbf, .. } => {
                if mtbf > 0.0 {
                    Some(birth + sample_exp(mtbf, rng))
                } else {
                    None
                }
            }
        }
    }

    /// Sample how long a just-failed resource stays down before rejoining;
    /// `None` for permanent failure models.
    pub fn sample_downtime<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<f64> {
        match *self {
            FailureModel::Transient { mttr, .. } if mttr > 0.0 => Some(sample_exp(mttr, rng)),
            _ => None,
        }
    }
}

/// Generates job-level crash faults: the job dies mid-execution but its
/// resource survives.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum JobFaultModel {
    /// No job crashes.
    None,
    /// Each job *start* independently crashes with probability `prob`, at a
    /// point drawn uniformly over the attempt's runtime.
    CrashOnStart {
        /// Per-attempt crash probability.
        prob: f64,
    },
}

impl JobFaultModel {
    /// Sample the crash offset (relative to the attempt's start) for a job
    /// attempt of length `duration`; `None` = the attempt survives. A
    /// returned offset is strictly less than `duration` whenever `duration`
    /// is positive, so the crash always precedes the natural finish.
    pub fn sample_crash_offset<R: Rng + ?Sized>(&self, duration: f64, rng: &mut R) -> Option<f64> {
        match *self {
            JobFaultModel::None => None,
            JobFaultModel::CrashOnStart { prob } => {
                if prob > 0.0 && rng.random_bool(prob.clamp(0.0, 1.0)) {
                    let u: f64 = rng.random_range(0.0..1.0);
                    Some(duration * u)
                } else {
                    None
                }
            }
        }
    }
}

/// Derive an independent RNG stream seed from a base seed and a stream tag
/// (splitmix64 finalizer over the combined word). The fault stream uses
/// this so fault sampling never perturbs cost/noise draws.
// analyzer: hot
pub fn derive_stream(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn none_never_fails() {
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..100 {
            assert_eq!(FailureModel::None.sample(&mut rng), None);
        }
        assert_eq!(FailureModel::None.sample_downtime(&mut rng), None);
    }

    #[test]
    fn uniform_once_respects_horizon_and_prob() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = FailureModel::UniformOnce { prob: 1.0, horizon: 50.0 };
        for _ in 0..100 {
            let t = m.sample(&mut rng).expect("prob 1 always fails");
            assert!((0.0..50.0).contains(&t));
        }
        let never = FailureModel::UniformOnce { prob: 0.0, horizon: 50.0 };
        assert_eq!(never.sample(&mut rng), None);
    }

    #[test]
    fn uniform_once_injects_over_remaining_lifetime() {
        let mut rng = StdRng::seed_from_u64(2);
        let m = FailureModel::UniformOnce { prob: 1.0, horizon: 50.0 };
        for _ in 0..100 {
            let t = m.sample_from(30.0, &mut rng).expect("prob 1 always fails");
            assert!((30.0..50.0).contains(&t), "failure at {t} precedes birth 30");
        }
        // A resource born after the horizon missed its failure window.
        assert_eq!(m.sample_from(60.0, &mut rng), None);
    }

    #[test]
    fn exponential_fails_after_birth() {
        let mut rng = StdRng::seed_from_u64(3);
        let m = FailureModel::Exponential { mtbf: 100.0 };
        let mut sum = 0.0;
        for _ in 0..2000 {
            let t = m.sample_from(10.0, &mut rng).expect("mtbf > 0 always samples");
            assert!(t >= 10.0);
            sum += t - 10.0;
        }
        let mean = sum / 2000.0;
        assert!((60.0..140.0).contains(&mean), "sample mean {mean} far from mtbf");
        assert_eq!(m.sample_downtime(&mut rng), None);
    }

    #[test]
    fn transient_samples_downtime() {
        let mut rng = StdRng::seed_from_u64(4);
        let m = FailureModel::Transient { mtbf: 100.0, mttr: 20.0 };
        assert!(m.sample_from(5.0, &mut rng).expect("always fails") >= 5.0);
        let dt = m.sample_downtime(&mut rng).expect("transient repairs");
        assert!(dt >= 0.0);
    }

    #[test]
    fn crash_offset_precedes_finish() {
        let mut rng = StdRng::seed_from_u64(5);
        let m = JobFaultModel::CrashOnStart { prob: 1.0 };
        for _ in 0..100 {
            let off = m.sample_crash_offset(40.0, &mut rng).expect("prob 1 always crashes");
            assert!((0.0..40.0).contains(&off));
        }
        assert_eq!(JobFaultModel::None.sample_crash_offset(40.0, &mut rng), None);
        let never = JobFaultModel::CrashOnStart { prob: 0.0 };
        assert_eq!(never.sample_crash_offset(40.0, &mut rng), None);
    }

    #[test]
    fn derive_stream_decorrelates_tags() {
        assert_ne!(derive_stream(7, 1), derive_stream(7, 2));
        assert_ne!(derive_stream(7, 1), 7);
        // Deterministic: same inputs, same stream.
        assert_eq!(derive_stream(7, 1), derive_stream(7, 1));
    }
}
