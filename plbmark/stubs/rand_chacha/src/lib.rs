//! Offline stand-in for `rand_chacha` 0.3: the ChaCha block function
//! (8, 12 or 20 rounds) as a 64-bit-counter stream generator behind the
//! stand-in `rand` traits. Deterministic per seed; word order is not
//! guaranteed to match the published crate.

use rand::{RngCore, SeedableRng};

/// A ChaCha stream generator with `ROUNDS` rounds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaChaRng<const ROUNDS: usize> {
    key: [u32; 8],
    counter: u64,
    block: [u32; 16],
    next: usize,
}

/// ChaCha with 8 rounds.
pub type ChaCha8Rng = ChaChaRng<8>;
/// ChaCha with 12 rounds.
pub type ChaCha12Rng = ChaChaRng<12>;
/// ChaCha with 20 rounds.
pub type ChaCha20Rng = ChaChaRng<20>;

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

impl<const ROUNDS: usize> ChaChaRng<ROUNDS> {
    fn refill(&mut self) {
        let mut init = [0u32; 16];
        init[..4].copy_from_slice(&[0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574]);
        init[4..12].copy_from_slice(&self.key);
        init[12] = self.counter as u32;
        init[13] = (self.counter >> 32) as u32;
        let mut s = init;
        for _ in 0..ROUNDS / 2 {
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
}

impl<const ROUNDS: usize> SeedableRng for ChaChaRng<ROUNDS> {
    type Seed = [u8; 32];

    fn from_seed(seed: [u8; 32]) -> Self {
        let mut key = [0u32; 8];
        for (k, bytes) in key.iter_mut().zip(seed.chunks_exact(4)) {
            *k = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        }
        ChaChaRng {
            key,
            counter: 0,
            block: [0; 16],
            next: 16,
        }
    }
}

impl<const ROUNDS: usize> RngCore for ChaChaRng<ROUNDS> {
    fn next_u32(&mut self) -> u32 {
        if self.next >= 16 {
            self.refill();
        }
        let v = self.block[self.next];
        self.next += 1;
        v
    }

    fn next_u64(&mut self) -> u64 {
        let lo = u64::from(self.next_u32());
        let hi = u64::from(self.next_u32());
        (hi << 32) | lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn same_seed_same_stream_and_seeds_differ() {
        let mut a = ChaCha8Rng::seed_from_u64(42);
        let mut b = ChaCha8Rng::seed_from_u64(42);
        let mut c = ChaCha8Rng::seed_from_u64(43);
        let xs: Vec<u64> = (0..64).map(|_| a.gen()).collect();
        let ys: Vec<u64> = (0..64).map(|_| b.gen()).collect();
        let zs: Vec<u64> = (0..64).map(|_| c.gen()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn chacha20_matches_the_rfc_7539_block_with_zero_nonce() {
        // RFC 7539 section 2.3.2 uses a non-zero nonce; with key 0 and
        // nonce 0 the first keystream word of ChaCha20 is the widely
        // published 0xade0b876.
        let mut r = ChaCha20Rng::from_seed([0; 32]);
        assert_eq!(r.next_u32(), 0xade0_b876);
    }
}
