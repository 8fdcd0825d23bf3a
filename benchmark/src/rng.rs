//! Benchmark-owned deterministic inputs: SplitMix64-seeded xoshiro256**,
//! a Zipf CDF sampler and exponential / Poisson draws.
//!
//! Deliberately not `rand` and not `hlock_workload::sampler`: a sampler
//! or dependency change in the product must not move the workload.

/// xoshiro256** seeded through SplitMix64.
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

/// One SplitMix64 step: advances `state` and returns the mixed output.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng {
    pub fn new(seed: u64) -> Rng {
        let mut state = seed;
        Rng { s: [0; 4].map(|_| splitmix64(&mut state)) }
    }

    /// An independent stream for sub-purpose `stream` of the same seed.
    pub fn fork(seed: u64, stream: u64) -> Rng {
        Rng::new(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93).rotate_left(29))
    }

    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` by widening multiply.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// `true` with probability `pct`/100.
    pub fn percent(&mut self, pct: u64) -> bool {
        self.below(100) < pct
    }

    /// Exponential with the given mean (inverse-CDF).
    pub fn exponential(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }
}

/// Zipf over ranks `0..n` with exponent `theta`, sampled by binary
/// search over the precomputed CDF.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, theta: f64) -> Zipf {
        assert!(n > 0, "Zipf needs at least one rank");
        let weights: Vec<f64> = (1..=n).map(|k| (k as f64).powf(-theta)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    /// Probability mass of rank `k`.
    pub fn mass(&self, k: usize) -> f64 {
        self.cdf[k] - if k == 0 { 0.0 } else { self.cdf[k - 1] }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1)
    }
}

/// Arrival times (µs) of a Poisson process of `rate_per_s` over
/// `[from_us, until_us)`: exponential gaps, strictly inside the window.
pub fn poisson_arrivals(rng: &mut Rng, rate_per_s: f64, from_us: u64, until_us: u64) -> Vec<u64> {
    let mean_gap_us = 1e6 / rate_per_s;
    let mut out = Vec::new();
    let mut t = from_us as f64;
    loop {
        t += rng.exponential(mean_gap_us);
        if t >= until_us as f64 {
            return out;
        }
        out.push(t as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_seeds_differ() {
        let a: Vec<u64> = {
            let mut r = Rng::new(7);
            (0..64).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(7);
            (0..64).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = Rng::new(8);
            (0..64).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn zipf_top_rank_share_matches_its_mass() {
        let z = Zipf::new(64, 0.99);
        let mut rng = Rng::new(11);
        let n = 200_000;
        let top = (0..n).filter(|_| z.sample(&mut rng) == 0).count() as f64 / n as f64;
        assert!((top - z.mass(0)).abs() < 0.01, "top-rank share {top} vs mass {}", z.mass(0));
        // theta=0.99 over 64 ranks puts roughly a fifth of the mass on rank 0.
        assert!(z.mass(0) > 0.18 && z.mass(0) < 0.25, "mass(0) = {}", z.mass(0));
    }

    #[test]
    fn exponential_mean_and_poisson_rate_within_tolerance() {
        let mut rng = Rng::new(3);
        let n = 100_000;
        let mean = (0..n).map(|_| rng.exponential(500.0)).sum::<f64>() / n as f64;
        assert!((mean - 500.0).abs() < 10.0, "mean {mean}");
        let arrivals = poisson_arrivals(&mut rng, 50.0, 0, 100_000_000);
        assert!((arrivals.len() as f64 - 5000.0).abs() < 250.0, "{} arrivals", arrivals.len());
        assert!(arrivals.windows(2).all(|w| w[0] <= w[1]));
    }
}
