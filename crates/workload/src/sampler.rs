//! Seeded samplers for open-loop scenario generation: a Zipfian rank
//! sampler (skewed key popularity, the contention shape that dominates
//! real lock services) and a Poisson arrival-schedule generator
//! (think-time-free open-loop load).
//!
//! Both are deterministic given their seed/RNG: equal seeds produce
//! byte-identical schedules, which is what lets `experiments --check`
//! hold the scenario cells to exact virtual-time behavior instead of
//! wall-clock noise.

use hlock_core::rng::Rng;
use hlock_sim::{sample_exponential, Duration, SimTime};

/// A Zipfian distribution over ranks `0..n` (rank 0 is the hottest):
/// rank `i` is drawn with probability proportional to `1 / (i + 1)^theta`.
///
/// `theta = 0` degenerates to uniform; `theta ≈ 0.99` is the classic
/// YCSB-style skew where the top rank absorbs ~20% of a 64-key draw.
/// The cumulative table is precomputed, so sampling is one uniform draw
/// plus a binary search — cheap enough for multi-thousand-key tenant
/// spaces.
///
/// ```
/// use hlock_core::rng::Rng;
/// use hlock_workload::Zipfian;
///
/// let z = Zipfian::new(64, 0.99);
/// let mut rng = Rng::new(7);
/// let rank = z.sample(&mut rng);
/// assert!(rank < 64);
/// ```
#[derive(Debug, Clone)]
pub struct Zipfian {
    /// Cumulative probabilities; `cdf[i]` is `P(rank <= i)`.
    cdf: Vec<f64>,
}

impl Zipfian {
    /// A Zipfian sampler over `0..n` with exponent `theta`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `theta` is negative or non-finite.
    pub fn new(n: usize, theta: f64) -> Zipfian {
        assert!(n > 0, "zipfian needs at least one rank");
        assert!(theta.is_finite() && theta >= 0.0, "theta must be finite and >= 0, got {theta}");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for i in 0..n {
            acc += 1.0 / ((i + 1) as f64).powf(theta);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        Zipfian { cdf }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Whether the rank space is empty (never true: `new` rejects 0).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// The theoretical probability of drawing `rank`.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is out of range.
    pub fn probability(&self, rank: usize) -> f64 {
        let lo = if rank == 0 { 0.0 } else { self.cdf[rank - 1] };
        self.cdf[rank] - lo
    }

    /// Draws one rank.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        // partition_point: first index whose cumulative weight exceeds u.
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1)
    }
}

/// Generates a Poisson arrival schedule: event times in `[0, duration)`
/// with exponentially distributed inter-arrival gaps of mean
/// `1 / rate_per_sec`. The returned times are strictly sorted.
///
/// Deterministic in `(seed, rate, duration)`; equal inputs produce
/// byte-identical schedules.
///
/// # Panics
///
/// Panics if `rate_per_sec` is non-positive or non-finite.
pub fn poisson_schedule(rate_per_sec: f64, duration: Duration, seed: u64) -> Vec<SimTime> {
    assert!(
        rate_per_sec.is_finite() && rate_per_sec > 0.0,
        "arrival rate must be positive, got {rate_per_sec}"
    );
    let mut rng = Rng::new(seed ^ 0xA076_1D64_78BD_642F);
    let mean_gap = Duration::from_millis_f64(1_000.0 / rate_per_sec);
    let mut at = SimTime::ZERO;
    let mut schedule =
        Vec::with_capacity((rate_per_sec * duration.as_micros() as f64 / 1e6) as usize);
    loop {
        // Gaps of at least one microsecond keep times strictly sorted
        // (two timers at the identical instant would still be fine, but
        // strict ordering makes schedules easier to reason about).
        let gap = sample_exponential(&mut rng, mean_gap).as_micros().max(1);
        at += Duration(gap);
        if at.as_micros() >= duration.as_micros() {
            return schedule;
        }
        schedule.push(at);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipfian_matches_theoretical_rank_frequencies() {
        let n = 64;
        let z = Zipfian::new(n, 0.99);
        let mut rng = Rng::new(11);
        let draws = 200_000;
        let mut counts = vec![0u64; n];
        for _ in 0..draws {
            counts[z.sample(&mut rng)] += 1;
        }
        // The head ranks carry enough mass for tight relative bounds.
        for (rank, &count) in counts.iter().enumerate().take(8) {
            let expected = z.probability(rank) * draws as f64;
            let got = count as f64;
            assert!(
                (got - expected).abs() / expected < 0.05,
                "rank {rank}: expected ~{expected:.0}, got {got}"
            );
        }
        // Aggregate tail mass matches too (individual tail ranks are noisy).
        let tail_expected: f64 = (32..n).map(|r| z.probability(r)).sum::<f64>() * draws as f64;
        let tail_got: f64 = counts[32..].iter().sum::<u64>() as f64;
        assert!((tail_got - tail_expected).abs() / tail_expected < 0.05);
        // Rank popularity is (statistically) non-increasing at the head.
        assert!(counts[0] > counts[1] && counts[1] > counts[3] && counts[3] > counts[7]);
    }

    #[test]
    fn zipfian_theta_zero_is_uniform() {
        let z = Zipfian::new(10, 0.0);
        for rank in 0..10 {
            assert!((z.probability(rank) - 0.1).abs() < 1e-12);
        }
    }

    #[test]
    fn zipfian_probabilities_sum_to_one() {
        let z = Zipfian::new(100, 1.2);
        let total: f64 = (0..100).map(|r| z.probability(r)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert_eq!(z.len(), 100);
        assert!(!z.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zipfian_empty_panics() {
        let _ = Zipfian::new(0, 1.0);
    }

    #[test]
    fn poisson_mean_and_variance_are_sane() {
        // 200 arrivals/s over 100 s: ~20k samples. For an exponential
        // distribution the inter-arrival variance equals mean², so the
        // coefficient of variation must be ~1 — that is what separates
        // Poisson arrivals from a fixed-rate (CV 0) schedule.
        let rate = 200.0;
        let schedule = poisson_schedule(rate, Duration::from_millis(100_000), 17);
        let n = schedule.len() as f64;
        assert!((n - 20_000.0).abs() < 600.0, "got {n} arrivals");
        let gaps: Vec<f64> = std::iter::once(SimTime::ZERO)
            .chain(schedule.iter().copied())
            .zip(schedule.iter().copied())
            .map(|(a, b)| (b - a).as_micros() as f64)
            .collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        assert!((mean - 5_000.0).abs() < 150.0, "mean gap {mean}us, expected ~5000us");
        let var = gaps.iter().map(|g| (g - mean) * (g - mean)).sum::<f64>() / gaps.len() as f64;
        let cv = var.sqrt() / mean;
        assert!((cv - 1.0).abs() < 0.05, "coefficient of variation {cv}, expected ~1");
    }

    #[test]
    fn poisson_schedules_are_byte_identical_for_equal_seeds() {
        let a = poisson_schedule(500.0, Duration::from_millis(5_000), 42);
        let b = poisson_schedule(500.0, Duration::from_millis(5_000), 42);
        assert_eq!(a, b, "equal seeds must reproduce the identical schedule");
        let c = poisson_schedule(500.0, Duration::from_millis(5_000), 43);
        assert_ne!(a, c, "different seeds must perturb the schedule");
    }

    #[test]
    fn poisson_times_sorted_and_bounded() {
        let s = poisson_schedule(1_000.0, Duration::from_millis(2_000), 3);
        assert!(s.windows(2).all(|w| w[0] < w[1]), "strictly sorted");
        assert!(s.iter().all(|t| t.as_micros() < 2_000_000));
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn poisson_rejects_zero_rate() {
        let _ = poisson_schedule(0.0, Duration::from_millis(1_000), 1);
    }
}
