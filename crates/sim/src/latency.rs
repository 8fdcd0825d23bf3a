//! Network latency models.
//!
//! The paper randomizes the latency experienced by messages with a mean
//! of 150 ms; [`LatencyModel::Exponential`] with that mean is the default
//! used by the benchmark harness.

use crate::time::Duration;
use hlock_core::rng::Rng;

/// How long a message takes from send to delivery.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LatencyModel {
    /// Every message takes exactly this long.
    Fixed(Duration),
    /// Exponentially distributed with the given mean (memoryless, the
    /// classic simulation choice for "randomized with mean X").
    Exponential {
        /// Mean latency.
        mean: Duration,
    },
    /// Uniformly distributed in `[lo, hi]`.
    Uniform {
        /// Minimum latency.
        lo: Duration,
        /// Maximum latency.
        hi: Duration,
    },
}

impl LatencyModel {
    /// The paper's network model: exponential with a 150 ms mean.
    pub fn paper() -> LatencyModel {
        LatencyModel::Exponential { mean: Duration::from_millis(150) }
    }

    /// Samples one latency.
    pub fn sample(&self, rng: &mut Rng) -> Duration {
        match *self {
            LatencyModel::Fixed(d) => d,
            LatencyModel::Exponential { mean } => sample_exponential(rng, mean),
            LatencyModel::Uniform { lo, hi } => {
                Duration(rng.range_inclusive(lo.as_micros()..=hi.as_micros()))
            }
        }
    }

    /// The distribution mean, used as the "base latency" unit of the
    /// paper's Figure 6.
    pub fn mean(&self) -> Duration {
        match *self {
            LatencyModel::Fixed(d) => d,
            LatencyModel::Exponential { mean } => mean,
            LatencyModel::Uniform { lo, hi } => Duration((lo.as_micros() + hi.as_micros()) / 2),
        }
    }
}

/// Samples an exponentially distributed duration with the given mean.
/// Utility shared with the workload generator (critical-section lengths,
/// idle times).
pub fn sample_exponential(rng: &mut Rng, mean: Duration) -> Duration {
    let u = rng.range_f64(f64::MIN_POSITIVE, 1.0);
    Duration::from_millis_f64(-mean.as_millis_f64() * u.ln())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_is_deterministic() {
        let mut rng = Rng::new(1);
        let m = LatencyModel::Fixed(Duration::from_millis(150));
        assert_eq!(m.sample(&mut rng), Duration::from_millis(150));
        assert_eq!(m.mean(), Duration::from_millis(150));
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut rng = Rng::new(42);
        let m = LatencyModel::paper();
        let n = 20_000;
        let total: u64 = (0..n).map(|_| m.sample(&mut rng).as_micros()).sum();
        let mean_ms = total as f64 / n as f64 / 1_000.0;
        assert!((mean_ms - 150.0).abs() < 5.0, "measured mean {mean_ms}");
    }

    /// The draws behind every simulated message delay, pinned: moving
    /// them moves the benchmark's `sim_*` rows and the generated tables
    /// of EXPERIMENTS.md.
    #[test]
    fn samples_are_pinned_to_the_seed() {
        let mut rng = Rng::new(1);
        let exp = LatencyModel::paper();
        let uni =
            LatencyModel::Uniform { lo: Duration::from_millis(10), hi: Duration::from_millis(20) };
        let drawn = [exp.sample(&mut rng), exp.sample(&mut rng), uni.sample(&mut rng)];
        assert_eq!(drawn.map(|d| d.as_micros()), [31_310, 43_732, 11_001]);
    }

    #[test]
    fn uniform_stays_in_bounds() {
        let mut rng = Rng::new(7);
        let lo = Duration::from_millis(10);
        let hi = Duration::from_millis(20);
        let m = LatencyModel::Uniform { lo, hi };
        for _ in 0..1_000 {
            let s = m.sample(&mut rng);
            assert!(s >= lo && s <= hi);
        }
        assert_eq!(m.mean(), Duration::from_millis(15));
    }

    #[test]
    fn exponential_helper_positive() {
        let mut rng = Rng::new(3);
        for _ in 0..100 {
            let d = sample_exponential(&mut rng, Duration::from_millis(15));
            assert!(d.as_micros() < 10_000_000, "no absurd outliers: {d}");
        }
    }
}
