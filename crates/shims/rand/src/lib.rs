//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no access to a crates registry, so this shim provides the
//! (small) subset of the `rand` 0.8 API the workspace actually uses: `StdRng` seeded from
//! a `u64`, uniform `gen_range` over half-open ranges of `f64` and the primitive integer
//! types, `gen_bool`, and `SliceRandom::shuffle`.  The generator is xoshiro256++ seeded
//! with SplitMix64 — deterministic across platforms, which is all the simulations need
//! (they seed explicitly and never ask for OS entropy).

use std::ops::Range;

/// Seedable generators (subset of `rand::SeedableRng`).
pub trait SeedableRng: Sized {
    /// Create a generator from a 64-bit seed.
    fn seed_from_u64(state: u64) -> Self;
}

/// Uniform sampling support for one range type (subset of `rand`'s `SampleRange`).
pub trait SampleRange {
    /// The sampled value type.
    type Output;
    /// Draw one uniform sample from `self`.
    fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> Self::Output;
}

/// Random value generation (subset of `rand::Rng`).
pub trait Rng {
    /// Next raw 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// Uniform sample from a half-open range.
    ///
    /// # Panics
    /// Panics if the range is empty.
    fn gen_range<T: SampleRange>(&mut self, range: T) -> T::Output
    where
        Self: Sized,
    {
        range.sample(self)
    }

    /// Bernoulli draw with success probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!((0.0..=1.0).contains(&p), "probability {p} outside [0, 1]");
        uniform_f64(self.next_u64()) < p
    }
}

/// Map 64 random bits to a uniform f64 in [0, 1).
fn uniform_f64(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl SampleRange for Range<f64> {
    type Output = f64;
    fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "cannot sample empty range");
        self.start + uniform_f64(rng.next_u64()) * (self.end - self.start)
    }
}

macro_rules! impl_sample_range_int {
    ($($t:ty => $u:ty),* $(,)?) => {
        $(
            impl SampleRange for Range<$t> {
                type Output = $t;
                fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                    assert!(self.start < self.end, "cannot sample empty range");
                    // The span of any range of a type at most 64 bits wide fits its
                    // unsigned twin, so the draw stays in `u64`.  Modulo bias is
                    // < 2^-64 for the span sizes used here.
                    let span = self.end.wrapping_sub(self.start) as $u as u64;
                    let draw = rng.next_u64() % span;
                    self.start.wrapping_add(draw as $t)
                }
            }
        )*
    };
}

impl_sample_range_int!(
    usize => usize, u64 => u64, u32 => u32, u16 => u16, u8 => u8,
    isize => usize, i64 => u64, i32 => u32, i16 => u16, i8 => u8,
);

/// Random generators over slices (subset of `rand::seq::SliceRandom`).
pub mod seq {
    use super::Rng;

    /// Slice shuffling (the only `SliceRandom` method the workspace uses).
    pub trait SliceRandom {
        /// Fisher–Yates shuffle in place.
        fn shuffle<R: Rng>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        fn shuffle<R: Rng>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = rng.gen_range(0..i + 1);
                self.swap(i, j);
            }
        }
    }
}

/// Concrete generators (subset of `rand::rngs`).
pub mod rngs {
    use super::{Rng, SeedableRng};

    /// A deterministic xoshiro256++ generator standing in for `rand::rngs::StdRng`.
    ///
    /// Note: the stream differs from upstream `StdRng` (which is ChaCha-based); the
    /// workspace only relies on determinism for a fixed seed, not on a particular stream.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(state: u64) -> Self {
            // SplitMix64 expansion of the seed, as recommended by the xoshiro authors.
            let mut sm = state;
            let mut next = || {
                sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = sm;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            StdRng {
                s: [next(), next(), next(), next()],
            }
        }
    }

    impl Rng for StdRng {
        fn next_u64(&mut self) -> u64 {
            let result = self.s[0]
                .wrapping_add(self.s[3])
                .rotate_left(23)
                .wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_for_fixed_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn ranges_are_respected() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let x = rng.gen_range(-1.5..2.5);
            assert!((-1.5..2.5).contains(&x));
            let k = rng.gen_range(3usize..9);
            assert!((3..9).contains(&k));
            let j = rng.gen_range(-4i64..4);
            assert!((-4..4).contains(&j));
        }
    }

    #[test]
    fn gen_bool_matches_probability_roughly() {
        let mut rng = StdRng::seed_from_u64(1);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((2_000..3_000).contains(&hits), "got {hits} hits");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut v: Vec<u32> = (0..50).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "a 50-element shuffle should not be the identity");
    }

    #[test]
    fn integer_and_shuffle_streams_are_pinned() {
        // Literal draws: the DSMC pairing shuffle and CHARMM's system builder read this
        // stream, so any change to it moves every fingerprint in the workspace.
        let draws = |k: u64| -> Vec<u64> {
            let mut rng = StdRng::seed_from_u64(1994);
            (0..8).map(|_| rng.gen_range(0..k)).collect()
        };
        assert_eq!(draws(2), [0, 0, 0, 1, 1, 0, 0, 1]);
        assert_eq!(draws(3), [2, 1, 1, 2, 0, 1, 2, 0]);
        assert_eq!(draws(17), [2, 13, 9, 7, 4, 11, 2, 9]);
        assert_eq!(
            draws(1 << 40),
            [
                746_284_529_790,
                951_558_524_400,
                190_519_723_406,
                550_184_370_701,
                503_409_237_251,
                1_092_093_115_534,
                1_059_302_011_868,
                87_456_717_631,
            ]
        );

        let mut rng = StdRng::seed_from_u64(1994);
        let small: Vec<usize> = (0..8).map(|_| rng.gen_range(0usize..17)).collect();
        assert_eq!(small, [2, 13, 9, 7, 4, 11, 2, 9]);

        let mut rng = StdRng::seed_from_u64(1994);
        let signed: Vec<i64> = (0..8).map(|_| rng.gen_range(-4i64..4)).collect();
        assert_eq!(signed, [2, -4, 2, 1, -1, 2, 0, 3]);

        let mut rng = StdRng::seed_from_u64(1994);
        let narrow: Vec<i8> = (0..8).map(|_| rng.gen_range(-128i8..127)).collect();
        assert_eq!(narrow, [-75, -64, 68, 117, -107, 2, -24, 34]);

        let mut rng = StdRng::seed_from_u64(1994);
        let wide: Vec<u64> = (0..4).map(|_| rng.gen_range(0..u64::MAX)).collect();
        assert_eq!(
            wide,
            [
                7_251_640_571_281_160_318,
                11_864_868_310_284_684_784,
                6_658_510_666_935_846_286,
                14_016_953_013_072_773_645,
            ]
        );

        let mut rng = StdRng::seed_from_u64(5);
        let mut v: Vec<u32> = (0..50).collect();
        v.shuffle(&mut rng);
        assert_eq!(
            v,
            [
                34, 45, 40, 25, 23, 44, 1, 2, 43, 30, 15, 42, 24, 26, 3, 10, 28, 31, 48, 6, 16, 21,
                7, 32, 11, 17, 37, 38, 14, 27, 22, 41, 20, 36, 46, 29, 0, 35, 13, 33, 49, 12, 18,
                5, 9, 19, 4, 47, 39, 8,
            ]
        );
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = rng.gen_range(3usize..3);
    }
}
