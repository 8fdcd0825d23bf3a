//! Offline stand-in for `rand` 0.8: the subset the hlock simulator
//! calls (`StdRng`/`SmallRng`, `seed_from_u64`,
//! `gen_range`, `gen_bool`). Streams differ from the registry crate's,
//! so simulator numbers are exact functions of the seed *for this
//! build* only.

use std::ops::{Range, RangeInclusive};

/// Source of random 64-bit words.
pub trait RngCore {
    fn next_u64(&mut self) -> u64;
}

/// Construction from a 64-bit seed.
pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

/// A type that can be drawn uniformly from a range.
pub trait SampleUniform: Copy + PartialOrd {
    /// Uniform in `lo..hi` (`hi` excluded).
    fn sample_half_open<G: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut G) -> Self;
    /// Uniform in `lo..=hi`.
    fn sample_inclusive<G: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut G) -> Self;
}

/// Unbiased-enough uniform draw in `0..span` by widening multiply.
fn below<G: RngCore + ?Sized>(span: u64, rng: &mut G) -> u64 {
    ((u128::from(rng.next_u64()) * u128::from(span)) >> 64) as u64
}

macro_rules! uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_half_open<G: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut G) -> Self {
                assert!(lo < hi, "cannot sample empty range");
                let span = (hi as i128 - lo as i128) as u64;
                (lo as i128 + below(span, rng) as i128) as $t
            }
            fn sample_inclusive<G: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut G) -> Self {
                assert!(lo <= hi, "cannot sample empty range");
                let span = (hi as i128 - lo as i128) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                (lo as i128 + below(span + 1, rng) as i128) as $t
            }
        }
    )*};
}
uniform_int!(u32, u64, usize);

impl SampleUniform for f64 {
    fn sample_half_open<G: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut G) -> Self {
        assert!(lo < hi, "cannot sample empty range");
        // 53 random mantissa bits: uniform in [0, 1).
        let unit = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        let v = lo + (hi - lo) * unit;
        if v < hi {
            v
        } else {
            lo
        }
    }
    fn sample_inclusive<G: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut G) -> Self {
        assert!(lo <= hi, "cannot sample empty range");
        let unit = (rng.next_u64() >> 11) as f64 * (1.0 / ((1u64 << 53) - 1) as f64);
        lo + (hi - lo) * unit
    }
}

/// A range a value can be drawn from.
pub trait SampleRange<T> {
    fn sample_single<G: RngCore + ?Sized>(self, rng: &mut G) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample_single<G: RngCore + ?Sized>(self, rng: &mut G) -> T {
        T::sample_half_open(self.start, self.end, rng)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample_single<G: RngCore + ?Sized>(self, rng: &mut G) -> T {
        T::sample_inclusive(*self.start(), *self.end(), rng)
    }
}

/// User-facing sampling methods, implemented for every [`RngCore`].
pub trait Rng: RngCore {
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample_single(self)
    }

    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "p={p} is outside [0, 1]");
        f64::sample_half_open(0.0, 1.0, self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// xoshiro256++ seeded through SplitMix64.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Xoshiro256PlusPlus {
        s: [u64; 4],
    }

    impl SeedableRng for Xoshiro256PlusPlus {
        fn seed_from_u64(mut seed: u64) -> Self {
            let mut s = [0u64; 4];
            for word in &mut s {
                seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = seed;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                *word = z ^ (z >> 31);
            }
            Xoshiro256PlusPlus { s }
        }
    }

    impl RngCore for Xoshiro256PlusPlus {
        fn next_u64(&mut self) -> u64 {
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
    }

    pub type StdRng = Xoshiro256PlusPlus;
    pub type SmallRng = Xoshiro256PlusPlus;
}
