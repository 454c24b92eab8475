//! Offline stand-in for the `rand` crate.
//!
//! The build container has no network access to crates.io, so the
//! workspace vendors the thin slice of the `rand` 0.8 API that ARCS
//! actually uses: [`Rng::gen_range`] over half-open and inclusive
//! ranges, [`Rng::gen_bool`], [`Rng::gen`] for `f64`, and
//! [`rngs::StdRng`] seeded via [`SeedableRng::seed_from_u64`].
//!
//! The generator is xoshiro256++ seeded through SplitMix64 — the same
//! construction rand's own `SmallRng` family uses — so it is fast,
//! deterministic for a given seed, and statistically sound for the
//! synthetic-data and sampling workloads here. Streams differ from the
//! real `StdRng` (ChaCha12), which only matters to tests that hard-code
//! expected draws; the repo has none.

/// A source of random 64-bit words.
pub trait RngCore {
    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// The next 32 random bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// Construction of a generator from seed material.
pub trait SeedableRng: Sized {
    /// Builds a generator from a 64-bit seed (expanded via SplitMix64).
    fn seed_from_u64(state: u64) -> Self;
}

/// Types that [`Rng::gen`] can produce uniformly.
pub trait Standard: Sized {
    /// Draws one uniformly distributed value.
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 mantissa bits -> uniform in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for bool {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for u64 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

/// Types [`Rng::gen_range`] can sample uniformly between two bounds.
/// A single generic `SampleRange` impl is parameterised over this trait
/// (exactly as in `rand`), which is what lets integer-literal ranges
/// infer their type from how the result is used.
pub trait SampleUniform: Sized {
    /// Uniform draw from `[lo, hi)`, or `[lo, hi]` when `inclusive`.
    /// Callers guarantee the range is non-empty.
    fn sample_between<R: RngCore + ?Sized>(
        rng: &mut R,
        lo: Self,
        hi: Self,
        inclusive: bool,
    ) -> Self;
}

impl SampleUniform for f64 {
    fn sample_between<R: RngCore + ?Sized>(rng: &mut R, lo: f64, hi: f64, _inclusive: bool) -> f64 {
        // The closed upper endpoint has measure zero; one formula serves
        // both range kinds.
        lo + f64::draw(rng) * (hi - lo)
    }
}

macro_rules! impl_sample_uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_between<R: RngCore + ?Sized>(
                rng: &mut R,
                lo: $t,
                hi: $t,
                inclusive: bool,
            ) -> $t {
                let span = hi.abs_diff(lo) as u64;
                if inclusive {
                    if span == u64::MAX {
                        return lo.wrapping_add(rng.next_u64() as $t);
                    }
                    lo.wrapping_add(bounded_u64(rng, span + 1) as $t)
                } else {
                    lo.wrapping_add(bounded_u64(rng, span) as $t)
                }
            }
        }
    )*};
}

impl_sample_uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Ranges that [`Rng::gen_range`] can sample from.
pub trait SampleRange<T> {
    /// Draws one value uniformly from the range. Panics on empty ranges,
    /// matching `rand`.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform + PartialOrd> SampleRange<T> for std::ops::Range<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        assert!(self.start < self.end, "cannot sample empty range");
        T::sample_between(rng, self.start, self.end, false)
    }
}

impl<T: SampleUniform + PartialOrd + Copy> SampleRange<T> for std::ops::RangeInclusive<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "cannot sample empty range");
        T::sample_between(rng, lo, hi, true)
    }
}

/// Uniform draw from `[0, bound)` via Lemire's widening-multiply trick
/// (bias is at most 2^-64, irrelevant here).
fn bounded_u64<R: RngCore + ?Sized>(rng: &mut R, bound: u64) -> u64 {
    debug_assert!(bound > 0);
    ((rng.next_u64() as u128 * bound as u128) >> 64) as u64
}

/// User-facing random value generation, blanket-implemented for every
/// [`RngCore`].
pub trait Rng: RngCore {
    /// A uniformly distributed value of type `T`.
    fn gen<T: Standard>(&mut self) -> T {
        T::draw(self)
    }

    /// A value uniformly drawn from `range`.
    fn gen_range<T, Rg: SampleRange<T>>(&mut self, range: Rg) -> T {
        range.sample_single(self)
    }

    /// `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "p={p} outside [0, 1]");
        f64::draw(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

pub mod rngs {
    //! Concrete generators.

    use super::{RngCore, SeedableRng};

    /// Deterministic xoshiro256++ generator (stand-in for rand's
    /// `StdRng`; see the crate docs for the stream caveat).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(state: u64) -> Self {
            // SplitMix64 expansion, as recommended by the xoshiro authors.
            let mut sm = state;
            let mut next = || {
                sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = sm;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            StdRng { s: [next(), next(), next(), next()] }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let result = self.s[0].wrapping_add(self.s[3]).rotate_left(23).wrapping_add(self.s[0]);
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
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(a.gen::<u64>(), c.gen::<u64>());
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let v = rng.gen_range(3usize..17);
            assert!((3..17).contains(&v));
            let v = rng.gen_range(0u32..=4);
            assert!(v <= 4);
            let v = rng.gen_range(-1.0f64..=1.0);
            assert!((-1.0..=1.0).contains(&v));
            let u: f64 = rng.gen();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn gen_bool_rates_are_sane() {
        let mut rng = StdRng::seed_from_u64(11);
        let hits = (0..100_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((20_000..30_000).contains(&hits), "{hits}");
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
    }

    #[test]
    fn full_and_single_value_ranges() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(rng.gen_range(5u64..=5), 5);
        assert_eq!(rng.gen_range(2usize..3), 2);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut rng = StdRng::seed_from_u64(1);
        let _ = rng.gen_range(5usize..5);
    }

    #[test]
    fn integer_ranges_cover_all_values() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut seen = [false; 5];
        for _ in 0..1_000 {
            seen[rng.gen_range(0usize..5)] = true;
        }
        assert!(seen.iter().all(|&s| s), "{seen:?}");
    }
}
