//! The one pseudo-random generator of the workspace.
//!
//! xoshiro256++ seeded through SplitMix64, with the handful of draws the
//! simulator, the workload samplers, the session jitter, the metrics
//! reservoirs and the seeded test loops need. Nothing here depends on
//! the platform, so a seed names the same stream on every machine.
//!
//! Every draw consumes exactly one `next_u64`, and the arithmetic of
//! each is pinned by the golden vectors below: the simulator tables
//! generated into EXPERIMENTS.md and the benchmark's `sim_*` rows are
//! exact functions of these streams. The draws are `#[inline]` because
//! their callers — the simulator's per-message path first — live in
//! other crates.

use std::ops::{Range, RangeInclusive};

/// A seedable pseudo-random generator (xoshiro256++).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// The generator for `seed`; the four state words are successive
    /// SplitMix64 outputs, so every seed — zero included — is valid.
    pub fn new(mut seed: u64) -> Rng {
        let mut s = [0u64; 4];
        for word in &mut s {
            seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            *word = z ^ (z >> 31);
        }
        Rng { s }
    }

    /// The next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform in `0..n`, by widening multiply (the bias is below
    /// `n / 2^64`).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "cannot sample empty range");
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// A uniform index into `len` items: [`Rng::below`] in `usize`.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    #[inline]
    pub fn index(&mut self, len: usize) -> usize {
        self.below(len as u64) as usize
    }

    /// Uniform in `range` (end excluded).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    #[inline]
    pub fn range(&mut self, range: Range<u64>) -> u64 {
        assert!(range.start < range.end, "cannot sample empty range");
        range.start + self.below(range.end - range.start)
    }

    /// Uniform in `range` (end included).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    #[inline]
    pub fn range_inclusive(&mut self, range: RangeInclusive<u64>) -> u64 {
        let (lo, hi) = (*range.start(), *range.end());
        assert!(lo <= hi, "cannot sample empty range");
        match (hi - lo).checked_add(1) {
            Some(span) => lo + self.below(span),
            None => self.next_u64(),
        }
    }

    /// Uniform in `[0, 1)`, from the top 53 bits of one word.
    #[inline]
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    #[inline]
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "cannot sample empty range");
        let v = lo + (hi - lo) * self.unit();
        // Rounding can land exactly on `hi`; the bound stays excluded.
        if v < hi {
            v
        } else {
            lo
        }
    }

    /// `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "p={p} is outside [0, 1]");
        self.unit() < p
    }
}

/// Runs `case` on the streams of seeds `0..cases` — the loop behind every
/// randomized property in the workspace's tests. When a case panics the
/// failing seed goes to stderr: `case(&mut Rng::new(seed))` replays it.
pub fn check_cases(cases: u64, mut case: impl FnMut(&mut Rng)) {
    struct NameSeedOnPanic(u64);
    impl Drop for NameSeedOnPanic {
        fn drop(&mut self) {
            if std::thread::panicking() {
                eprintln!("property failed at case seed {0}: replay with Rng::new({0})", self.0);
            }
        }
    }
    for seed in 0..cases {
        let _guard = NameSeedOnPanic(seed);
        case(&mut Rng::new(seed));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Golden vectors, computed with `benchmark/stubs/rand` — the
    /// generator every benchmark number since PR 11 was taken on
    /// (`StdRng::seed_from_u64(1)`, then `next_u64` ×4,
    /// `gen_range(0..1000u64)`, `gen_range(10u64..=20)`,
    /// `gen_range(f64::MIN_POSITIVE..1.0)`, `gen_range(2.5..4.0)`,
    /// `gen_bool(0.5)` ×3). A change that moves any of them moves
    /// `sim_read_hot` / `sim_flash_crowd` and the committed scenarios.
    #[test]
    fn golden_vectors_pin_the_stream() {
        let mut rng = Rng::new(1);
        let first: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
        assert_eq!(
            first,
            [
                0xcfc5_d07f_6f03_c29b,
                0xbf42_4132_963f_e08d,
                0x19a3_7d57_57aa_f520,
                0xbf08_119f_05cd_56d6
            ]
        );
        assert_eq!(rng.below(1000), 184);
        assert_eq!(rng.range_inclusive(10..=20), 16);
        assert_eq!(rng.range_f64(f64::MIN_POSITIVE, 1.0).to_bits(), 0x3fef_9478_f2a1_1e82);
        assert_eq!(rng.range_f64(2.5, 4.0).to_bits(), 0x400a_47ef_c56c_28af);
        assert_eq!([rng.chance(0.5), rng.chance(0.5), rng.chance(0.5)], [true, true, false]);
        assert_eq!(Rng::new(0).next_u64(), 0x5317_5d61_490b_23df);
    }

    #[test]
    fn streams_are_functions_of_the_seed() {
        let draws = |seed| {
            let mut rng = Rng::new(seed);
            (0..8).map(|_| rng.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draws(7), draws(7));
        assert_ne!(draws(7), draws(8));
        assert_ne!(draws(0), vec![0; 8], "seed zero is not the all-zero fixed point");
    }

    #[test]
    fn draws_stay_in_range() {
        let mut rng = Rng::new(3);
        for _ in 0..10_000 {
            assert!(rng.below(7) < 7);
            assert!((10..13).contains(&rng.range(10..13)));
            assert!((10..=13).contains(&rng.range_inclusive(10..=13)));
            assert!((0.0..1.0).contains(&rng.unit()));
            assert!((2.5..4.0).contains(&rng.range_f64(2.5, 4.0)));
        }
        assert_eq!(rng.range_inclusive(5..=5), 5);
        let _ = rng.range_inclusive(0..=u64::MAX);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
    }

    #[test]
    fn below_is_roughly_uniform() {
        let mut rng = Rng::new(11);
        let mut counts = [0u32; 5];
        for _ in 0..50_000 {
            counts[rng.index(5)] += 1;
        }
        for c in counts {
            assert!((9_500..10_500).contains(&c), "bucket count {c}");
        }
    }
}
