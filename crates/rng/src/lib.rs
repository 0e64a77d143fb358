//! The one seeded generator of the workspace.
//!
//! Every reproducible draw — the simulator's timing noise, the
//! applications' generated inputs, randomized tests and the
//! property-test harness's cases — comes from [`ChaCha8Rng`], so a seed
//! means one stream everywhere and every golden constant in the tree is
//! a statement about this file. The stream is fixed:
//!
//! * [`seed_from_u64`](ChaCha8Rng::seed_from_u64) expands the seed into
//!   the 32-byte key with splitmix64, eight little-endian bytes a step;
//! * blocks are ChaCha with 8 rounds, the 64-bit block counter in state
//!   words 12-13 and a zero nonce in words 14-15;
//! * [`next_u64`](ChaCha8Rng::next_u64) is two successive 32-bit words,
//!   low word first;
//! * unit floats take the top 53 bits of a `next_u64`; a float range
//!   `a..b` scales one and redraws on `== b`; an integer range draws by
//!   rejection above `zone = MAX - (MAX - span + 1) % span`, so no value
//!   is favoured; `gen_bool(p)` is `unit < p`.
//!
//! It is **not** the stream of the registry's ChaCha8 generator (which
//! counts blocks differently and samples ranges with other arithmetic);
//! nothing here is meant to be compared with it. Only the types the
//! workspace draws are supported.

use std::ops::{Range, RangeInclusive};

/// A seeded ChaCha8 stream generator.
#[derive(Debug, Clone)]
pub struct ChaCha8Rng {
    key: [u32; 8],
    counter: u64,
    block: [u32; 16],
    /// Index of the next unread word of `block`; 16 = refill first.
    next: usize,
}

#[inline(always)]
fn quarter(s: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(16);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(12);
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(8);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(7);
}

impl ChaCha8Rng {
    /// The generator for `seed`: same seed, same stream, on every
    /// platform and at every commit.
    pub fn seed_from_u64(seed: u64) -> ChaCha8Rng {
        let mut state = seed;
        let mut key = [0u32; 8];
        for pair in key.chunks_exact_mut(2) {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            pair[0] = z as u32;
            pair[1] = (z >> 32) as u32;
        }
        ChaCha8Rng {
            key,
            counter: 0,
            block: [0; 16],
            next: 16,
        }
    }

    fn refill(&mut self) {
        let mut init = [0u32; 16];
        init[..4].copy_from_slice(&[0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574]);
        init[4..12].copy_from_slice(&self.key);
        init[12] = self.counter as u32;
        init[13] = (self.counter >> 32) as u32;
        let mut s = init;
        for _ in 0..4 {
            quarter(&mut s, 0, 4, 8, 12);
            quarter(&mut s, 1, 5, 9, 13);
            quarter(&mut s, 2, 6, 10, 14);
            quarter(&mut s, 3, 7, 11, 15);
            quarter(&mut s, 0, 5, 10, 15);
            quarter(&mut s, 1, 6, 11, 12);
            quarter(&mut s, 2, 7, 8, 13);
            quarter(&mut s, 3, 4, 9, 14);
        }
        for (out, add) in s.iter_mut().zip(init) {
            *out = out.wrapping_add(add);
        }
        self.block = s;
        self.counter = self.counter.wrapping_add(1);
        self.next = 0;
    }

    /// Next 32 bits of the stream.
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        if self.next >= 16 {
            self.refill();
        }
        let v = self.block[self.next];
        self.next += 1;
        v
    }

    /// Next 64 bits of the stream: two successive words, low first.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let lo = u64::from(self.next_u32());
        let hi = u64::from(self.next_u32());
        (hi << 32) | lo
    }

    /// Uniform in `[0, 1)` from the top 53 bits of one `next_u64`.
    #[inline]
    fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[0, span)` by rejection, so no value is favoured.
    #[inline]
    fn below(&mut self, span: u64) -> u64 {
        assert!(span > 0, "cannot sample an empty range");
        let zone = u64::MAX - (u64::MAX - span + 1) % span;
        loop {
            let v = self.next_u64();
            if v <= zone {
                return v % span;
            }
        }
    }

    /// A value of a [`Standard`] type.
    pub fn gen<T: Standard>(&mut self) -> T {
        T::draw(self)
    }

    /// A value uniform in `range`. Panics on an empty range.
    pub fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample(self)
    }

    /// `true` with probability `p`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.unit_f64() < p
    }
}

/// Types [`ChaCha8Rng::gen`] can produce.
pub trait Standard: Sized {
    /// Draw one value.
    fn draw(rng: &mut ChaCha8Rng) -> Self;
}

impl Standard for f64 {
    /// Uniform in `[0, 1)`.
    #[inline]
    fn draw(rng: &mut ChaCha8Rng) -> f64 {
        rng.unit_f64()
    }
}

/// Ranges [`ChaCha8Rng::gen_range`] accepts.
pub trait SampleRange<T> {
    /// Draw one value from the range. Panics on an empty range.
    fn sample(self, rng: &mut ChaCha8Rng) -> T;
}

macro_rules! int_ranges {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            #[inline]
            fn sample(self, rng: &mut ChaCha8Rng) -> $t {
                assert!(self.start < self.end, "cannot sample an empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            #[inline]
            fn sample(self, rng: &mut ChaCha8Rng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample an empty range");
                let span = (hi as i128 - lo as i128) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                (lo as i128 + rng.below(span + 1) as i128) as $t
            }
        }
    )*};
}
// `i32` is what an unsuffixed `gen_range(0..5)` infers.
int_ranges!(u8, u32, u64, usize, i32);

macro_rules! float_ranges {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            #[inline]
            fn sample(self, rng: &mut ChaCha8Rng) -> $t {
                assert!(self.start < self.end, "cannot sample an empty range");
                loop {
                    let v = self.start + (self.end - self.start) * rng.unit_f64() as $t;
                    if v < self.end {
                        return v;
                    }
                }
            }
        }
    )*};
}
float_ranges!(f32, f64);

#[cfg(test)]
mod tests {
    //! The stream, pinned. Every constant was printed at commit e6bb616
    //! by the generator this one replaced (the benchmark's stand-in for
    //! `rand` 0.8 + a ChaCha8 stream generator, which every golden and
    //! every `plbmark` number since PR 12 was measured under), and this
    //! port passed them unmodified. A constant that moves re-seeds the
    //! whole repository: every event-stream golden and every exact
    //! `plbmark` metric moves with it.
    use super::*;

    const SEED: u64 = 201_509;

    fn draws<T>(n: usize, mut draw: impl FnMut(&mut ChaCha8Rng) -> T) -> Vec<T> {
        let mut rng = ChaCha8Rng::seed_from_u64(SEED);
        (0..n).map(|_| draw(&mut rng)).collect()
    }

    #[test]
    fn raw_words_keep_their_bits() {
        let mut zero = ChaCha8Rng::seed_from_u64(0);
        let words: Vec<u64> = (0..8).map(|_| zero.next_u64()).collect();
        assert_eq!(
            words,
            [
                0xbf94_d133_2d8e_e5e8,
                0x3a73_8775_a6da_5a01,
                0x3d46_ff10_c143_ee06,
                0x17c6_ab23_e9f6_424f,
                0x5ce2_479b_2fb6_898b,
                0x0ae8_099f_86bf_f662,
                0x5f2f_09fd_c72f_90bd,
                0x95d5_3efa_28e5_a01f,
            ]
        );
        assert_eq!(
            draws(8, |r| r.next_u64()),
            [
                0xb16b_6832_d1e6_bcdd,
                0x6de5_a2e3_926d_eee9,
                0x68d3_9c33_f297_46e8,
                0x608e_e05e_f7d6_cdb3,
                0x0a64_b8f7_f9a7_5821,
                0x3e43_5c81_1288_5f00,
                0xc9c5_9e0c_cc00_2794,
                0x06c7_699e_2c96_fe84,
            ]
        );
    }

    #[test]
    fn a_word_spanning_two_blocks_takes_its_halves_in_order() {
        // 16 words a block: after one `next_u32` every `next_u64`
        // straddles, and the eighth takes word 15 of block 0 low and
        // word 0 of block 1 high.
        let mut whole = ChaCha8Rng::seed_from_u64(SEED);
        let words: Vec<u32> = (0..18).map(|_| whole.next_u32()).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(SEED);
        rng.next_u32();
        for pair in words[1..17].chunks_exact(2) {
            let want = (u64::from(pair[1]) << 32) | u64::from(pair[0]);
            assert_eq!(rng.next_u64(), want);
        }
    }

    #[test]
    fn float_draws_keep_their_bits() {
        let bits64 = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        let bits32 = |v: Vec<f32>| v.into_iter().map(f32::to_bits).collect::<Vec<_>>();
        assert_eq!(
            bits64(draws(16, |r| r.gen_range(-1.0..1.0))),
            [
                0x3fd8_b5b4_1968_f35c,
                0xbfc2_1a5d_1c6d_9218,
                0xbfc7_2c63_cc0d_68c0,
                0xbfcf_711f_a108_2938,
                0xbfed_66d1_c201_962a,
                0xbfe0_6f28_dfbb_5dea,
                0x3fe2_7167_8333_0008,
                0xbfee_4e25_9874_da42,
                0xbfe9_ca5d_42fa_4792,
                0x3fd9_a126_2e92_ebc4,
                0xbfe4_4ca6_63af_dee2,
                0xbfeb_727f_b057_e7c4,
                0xbfe7_98ec_e34f_4c08,
                0x3fc0_ebd9_8ec3_1ab0,
                0x3fed_6784_4462_25b2,
                0x3fd8_5bb2_32da_706c,
            ]
        );
        // `NoiseGen`'s first uniform: a lower bound that is not 0.
        assert_eq!(
            bits64(draws(16, |r| r.gen_range(f64::EPSILON..1.0))),
            [
                0x3fe6_2d6d_065a_3cd8,
                0x3fdb_7968_b8e4_9b7c,
                0x3fda_34e7_0cfc_a5d2,
                0x3fd8_23b8_17bd_f5b4,
                0x3fa4_c971_eff3_4ecf,
                0x3fcf_21ae_4089_4432,
                0x3fe9_38b3_c199_8004,
                0x3f9b_1da6_78b2_5c1e,
                0x3fb8_d68a_f416_e1c6,
                0x3fe6_6849_8ba4_baf2,
                0x3fc7_66b3_38a0_4243,
                0x3fb2_3601_3ea0_60ff,
                0x3fc0_ce26_3961_67f7,
                0x3fe2_1d7b_31d8_6357,
                0x3fee_b3c2_2231_12d9,
                0x3fe6_16ec_8cb6_9c1c,
            ]
        );
        assert_eq!(
            bits64(draws(16, |r| r.gen::<f64>())),
            [
                0x3fe6_2d6d_065a_3cd7,
                0x3fdb_7968_b8e4_9b7a,
                0x3fda_34e7_0cfc_a5d0,
                0x3fd8_23b8_17bd_f5b2,
                0x3fa4_c971_eff3_4eb0,
                0x3fcf_21ae_4089_442c,
                0x3fe9_38b3_c199_8004,
                0x3f9b_1da6_78b2_5be0,
                0x3fb8_d68a_f416_e1b8,
                0x3fe6_6849_8ba4_baf1,
                0x3fc7_66b3_38a0_423c,
                0x3fb2_3601_3ea0_60f0,
                0x3fc0_ce26_3961_67f0,
                0x3fe2_1d7b_31d8_6356,
                0x3fee_b3c2_2231_12d9,
                0x3fe6_16ec_8cb6_9c1b,
            ]
        );
        // `f32` ranges (the dense apps' inputs) scale the same 53-bit
        // unit, rounded to `f32` before the multiply.
        assert_eq!(
            bits32(draws(16, |r| r.gen_range(-0.5f32..0.5))),
            [
                0x3e45_ada0,
                0xbd90_d2e8,
                0xbdb9_6320,
                0xbdfb_88fc,
                0xbeeb_368e,
                0xbe83_7947,
                0x3e93_8b3c,
                0xbef2_712d,
                0xbece_52ea,
                0x3e4d_0930,
                0xbea2_6533,
                0xbedb_93fe,
                0xbebc_c767,
                0x3d87_5ed0,
                0x3eeb_3c22,
                0x3e42_dd90,
            ]
        );
        assert_eq!(
            bits32(draws(16, |r| r.gen_range(10.0f32..200.0))),
            [
                0x430d_adb7,
                0x42b7_20de,
                0x42af_9a1c,
                0x42a3_5415,
                0x418d_b60a,
                0x4260_d7fb,
                0x431f_c0ab,
                0x4170_8006,
                0x41e3_79d9,
                0x430f_0b34,
                0x4232_f1c8,
                0x41bc_20a8,
                0x420b_c803,
                0x42eb_1e18,
                0x4340_4b51,
                0x430d_281c,
            ]
        );
    }

    #[test]
    fn integer_draws_keep_their_values() {
        assert_eq!(
            draws(16, |r| r.gen_range(0..3u8)),
            [2, 1, 2, 0, 1, 2, 2, 1, 2, 2, 2, 2, 0, 1, 2, 0]
        );
        assert_eq!(
            draws(16, |r| r.gen_range(1u32..100_000)),
            [
                585, 19643, 51678, 2083, 97496, 99513, 5688, 5147, 3375, 7584, 6627, 11634, 16798,
                78251, 31584, 58624
            ]
        );
        assert_eq!(
            draws(16, |r| r.gen_range(0..2_000u64)),
            [
                141, 1273, 1272, 371, 1713, 1664, 724, 468, 1647, 1576, 1119, 1396, 931, 166, 1486,
                179
            ]
        );
        assert_eq!(
            draws(16, |r| r.gen_range(1..=5_000u64)),
            [
                3142, 4274, 4273, 2372, 1714, 4665, 2725, 469, 648, 577, 1120, 2397, 932, 3167,
                2487, 1180
            ]
        );
        assert_eq!(
            draws(16, |r| r.gen_range(3..10usize)),
            [5, 5, 4, 3, 3, 8, 7, 5, 4, 5, 9, 4, 5, 8, 4, 5]
        );
        assert_eq!(
            draws(16, |r| r.gen_range(13usize..=48)),
            [30, 26, 21, 16, 38, 21, 21, 29, 48, 45, 24, 45, 16, 35, 15, 28]
        );
        // What an unsuffixed `gen_range(0..5)` infers.
        assert_eq!(
            draws(16, |r| r.gen_range(0..5)),
            [1, 3, 2, 1, 3, 4, 4, 3, 2, 1, 4, 1, 1, 1, 1, 4]
        );
    }

    #[test]
    fn gen_bool_keeps_its_values() {
        let t = true;
        let f = false;
        assert_eq!(
            draws(16, |r| r.gen_bool(1.0 / 3.0)),
            [f, f, f, f, t, t, f, t, t, f, t, t, t, f, f, f]
        );
    }

    #[test]
    fn the_full_inclusive_range_is_the_raw_word() {
        assert_eq!(
            draws(4, |r| r.gen_range(0..=u64::MAX)),
            draws(4, |r| r.next_u64())
        );
    }

    #[test]
    fn draws_stay_inside_their_ranges() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        for _ in 0..10_000 {
            assert!(rng.gen_range(0..3u8) < 3);
            assert!((2..=4).contains(&rng.gen_range(2..=4usize)));
            assert!((f64::EPSILON..1.0).contains(&rng.gen_range(f64::EPSILON..1.0)));
            assert!((-0.5f32..0.5).contains(&rng.gen_range(-0.5f32..0.5)));
            assert!((0.0..1.0).contains(&rng.gen::<f64>()));
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn an_empty_range_panics() {
        ChaCha8Rng::seed_from_u64(0).gen_range(5..5u64);
    }
}
