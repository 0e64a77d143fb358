//! Offline stand-in for `rand` 0.8.
//!
//! The benchmark has to build where no crate registry is reachable, so
//! `plbmark/Cargo.toml` patches `rand` with this crate. It keeps the
//! names and signatures the PLB-HeC library crates use (`Rng::gen`,
//! `Rng::gen_range`, `Rng::gen_bool`, `SeedableRng::seed_from_u64`) and
//! nothing else. Streams are deterministic per seed but are **not** the
//! published crate's streams.

use std::ops::{Range, RangeInclusive};

/// Source of raw random words.
pub trait RngCore {
    /// Next 32 random bits.
    fn next_u32(&mut self) -> u32;
    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

/// A generator that can be built from a seed.
pub trait SeedableRng: Sized {
    /// Seed type (a byte array).
    type Seed: Default + AsMut<[u8]>;

    /// Build from a full seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Build from a 64-bit seed, expanded with splitmix64.
    fn seed_from_u64(mut state: u64) -> Self {
        let mut seed = Self::Seed::default();
        for chunk in seed.as_mut().chunks_mut(8) {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            let bytes = z.to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
        Self::from_seed(seed)
    }
}

/// Types `Rng::gen` can produce.
pub trait Standard: Sized {
    /// Draw one value.
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

/// Uniform in `[0, 1)` with 53 random bits.
fn unit_f64<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl Standard for f64 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        unit_f64(rng)
    }
}

impl Standard for f32 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> f32 {
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

impl Standard for bool {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> bool {
        rng.next_u32() & 1 == 1
    }
}

/// Ranges `Rng::gen_range` accepts.
pub trait SampleRange<T> {
    /// Draw one value from the range. Panics on an empty range.
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// Uniform in `[0, span)` by rejection, so no value is favoured.
fn below<R: RngCore + ?Sized>(rng: &mut R, span: u64) -> u64 {
    assert!(span > 0, "cannot sample an empty range");
    let zone = u64::MAX - (u64::MAX - span + 1) % span;
    loop {
        let v = rng.next_u64();
        if v <= zone {
            return v % span;
        }
    }
}

macro_rules! int_ranges {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn draw<R: RngCore + ?Sized>(rng: &mut R) -> $t {
                rng.next_u64() as $t
            }
        }
        impl SampleRange<$t> for Range<$t> {
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample an empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + below(rng, span) as i128) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample an empty range");
                let span = (hi as i128 - lo as i128) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                (lo as i128 + below(rng, span + 1) as i128) as $t
            }
        }
    )*};
}
int_ranges!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! float_ranges {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample an empty range");
                loop {
                    let v = self.start + (self.end - self.start) * unit_f64(rng) as $t;
                    if v < self.end {
                        return v;
                    }
                }
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample an empty range");
                lo + (hi - lo) * unit_f64(rng) as $t
            }
        }
    )*};
}
float_ranges!(f32, f64);

/// The user-facing generator methods.
pub trait Rng: RngCore {
    /// A value of a [`Standard`] type.
    fn gen<T: Standard>(&mut self) -> T {
        T::draw(self)
    }

    /// A value uniform in `range`.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample(self)
    }

    /// `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        unit_f64(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// The usual glob import.
pub mod prelude {
    pub use super::{Rng, RngCore, SeedableRng};
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Counter(u64);
    impl RngCore for Counter {
        fn next_u32(&mut self) -> u32 {
            self.next_u64() as u32
        }
        fn next_u64(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0 ^ (self.0 >> 29)
        }
    }

    #[test]
    fn ranges_stay_inside_their_bounds() {
        let mut r = Counter(7);
        for _ in 0..10_000 {
            let a: u8 = r.gen_range(0..3);
            assert!(a < 3);
            let b: i32 = r.gen_range(-5..=5);
            assert!((-5..=5).contains(&b));
            let c: f64 = r.gen_range(f64::EPSILON..1.0);
            assert!((f64::EPSILON..1.0).contains(&c));
            let d: f64 = r.gen();
            assert!((0.0..1.0).contains(&d));
        }
    }
}
