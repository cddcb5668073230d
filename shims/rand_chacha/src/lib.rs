//! Offline shim for `rand_chacha`: a real 8-round ChaCha keystream
//! generator behind the `ChaCha8Rng` name.
//!
//! The keystream is a faithful ChaCha8 (quarter-round structure, block
//! counter, "expand 32-byte k" constants); only the seeding convention
//! differs from upstream (`seed_from_u64` expands the seed with
//! SplitMix64 instead of upstream's seeding PRNG), so streams are
//! deterministic here but not bit-compatible with the real crate.

use rand::{RngCore, SeedableRng};

/// An 8-round ChaCha random number generator.
#[derive(Debug, Clone)]
pub struct ChaCha8Rng {
    /// Key (8 words), counter (2 words), nonce (2 words).
    state: [u32; 16],
    /// Current 16-word output block.
    block: [u32; 16],
    /// Next unread word in `block`; 16 means exhausted.
    cursor: usize,
}

const CHACHA_CONST: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

#[inline]
fn quarter(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

impl ChaCha8Rng {
    fn refill(&mut self) {
        let mut working = self.state;
        for _ in 0..4 {
            // One double round: 4 column + 4 diagonal quarter rounds.
            quarter(&mut working, 0, 4, 8, 12);
            quarter(&mut working, 1, 5, 9, 13);
            quarter(&mut working, 2, 6, 10, 14);
            quarter(&mut working, 3, 7, 11, 15);
            quarter(&mut working, 0, 5, 10, 15);
            quarter(&mut working, 1, 6, 11, 12);
            quarter(&mut working, 2, 7, 8, 13);
            quarter(&mut working, 3, 4, 9, 14);
        }
        for (out, (&w, &s)) in self.block.iter_mut().zip(working.iter().zip(&self.state)) {
            *out = w.wrapping_add(s);
        }
        // 64-bit block counter in words 12..14.
        let counter = (self.state[12] as u64 | ((self.state[13] as u64) << 32)).wrapping_add(1);
        self.state[12] = counter as u32;
        self.state[13] = (counter >> 32) as u32;
        self.cursor = 0;
    }

    #[inline]
    fn next_word(&mut self) -> u32 {
        if self.cursor >= 16 {
            self.refill();
        }
        let w = self.block[self.cursor];
        self.cursor += 1;
        w
    }
}

impl SeedableRng for ChaCha8Rng {
    fn seed_from_u64(seed: u64) -> Self {
        // SplitMix64 key schedule.
        let mut x = seed;
        let mut next = move || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut state = [0u32; 16];
        state[..4].copy_from_slice(&CHACHA_CONST);
        for i in 0..4 {
            let k = next();
            state[4 + 2 * i] = k as u32;
            state[5 + 2 * i] = (k >> 32) as u32;
        }
        // Counter starts at 0; nonce from the seed too.
        let n = next();
        state[14] = n as u32;
        state[15] = (n >> 32) as u32;
        ChaCha8Rng {
            state,
            block: [0; 16],
            cursor: 16,
        }
    }
}

impl RngCore for ChaCha8Rng {
    fn next_u64(&mut self) -> u64 {
        let lo = self.next_word() as u64;
        let hi = self.next_word() as u64;
        lo | (hi << 32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = ChaCha8Rng::seed_from_u64(9);
        let mut b = ChaCha8Rng::seed_from_u64(9);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn seeds_give_distinct_streams() {
        let mut a = ChaCha8Rng::seed_from_u64(1);
        let mut b = ChaCha8Rng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn output_is_roughly_balanced() {
        let mut rng = ChaCha8Rng::seed_from_u64(1234);
        let ones: u32 = (0..1_000).map(|_| rng.next_u64().count_ones()).sum();
        // 32k expected one-bits out of 64k; a crude 3-sigma band.
        assert!((31_000..=33_000).contains(&ones), "{ones}");
    }

    #[test]
    fn clone_preserves_position() {
        let mut a = ChaCha8Rng::seed_from_u64(5);
        a.next_u64();
        let mut b = a.clone();
        assert_eq!(a.next_u64(), b.next_u64());
    }
}
