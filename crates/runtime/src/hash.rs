//! The one hash the state searches key on.
//!
//! Both machine explorers deduplicate on the 64-bit
//! [`Machine::fingerprint`](crate::Machine::fingerprint) alone, the
//! deadlock analyzer hashes each abstract skeleton state once, and the
//! footprint table answers one lookup per continuation frame. All of
//! them run once or more per searched state, so the hash is on every
//! search's hot path.
//!
//! [`WordHasher`] takes one step per 64-bit word: the running state xor
//! the word, multiplied by an odd constant to a 128-bit product whose
//! halves are xored together (the *folded multiply* of wyhash and
//! foldhash). The high half carries every input bit into every output
//! bit, so one step avalanches a whole word; a byte-at-a-time hash such
//! as FNV-1a needs eight rounds per word, and its multiply carries only
//! move upward. The maps keyed by statement address or by a state
//! fingerprint use it through [`WordBuildHasher`]; none of their keys
//! comes from outside the program, so they give up nothing by dropping
//! SipHash's resistance to keys crafted to collide.

use std::hash::{BuildHasherDefault, Hash, Hasher};

/// Initial state: the first 64 bits of π's fraction.
const SEED: u64 = 0x243f_6a88_85a3_08d3;

/// Odd multiplier: 2⁶⁴ divided by the golden ratio, rounded to odd.
const MULTIPLIER: u64 = 0x9e37_79b9_7f4a_7c15;

/// A 64-bit [`Hasher`] taking one folded-multiply step per word.
///
/// Every integer write is one word. [`Hasher::write`] takes a byte
/// string as its length, then eight bytes to a word, zero-padding the
/// last one; the length keeps `ab` and `ab\0` apart.
#[derive(Clone, Copy, Debug)]
pub struct WordHasher(u64);

impl Default for WordHasher {
    fn default() -> WordHasher {
        WordHasher(SEED)
    }
}

impl WordHasher {
    /// Mixes one word into the state.
    #[inline]
    pub fn word(&mut self, x: u64) {
        let product = u128::from(self.0 ^ x) * u128::from(MULTIPLIER);
        self.0 = (product as u64) ^ ((product >> 64) as u64);
    }

    /// The hash of any hashable value.
    pub fn of<T: Hash + ?Sized>(value: &T) -> u64 {
        let mut h = WordHasher::default();
        value.hash(&mut h);
        h.finish()
    }
}

impl Hasher for WordHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        self.word(bytes.len() as u64);
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.word(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut last = [0u8; 8];
            last[..rest.len()].copy_from_slice(rest);
            self.word(u64::from_le_bytes(last));
        }
    }

    #[inline]
    fn write_u8(&mut self, x: u8) {
        self.word(u64::from(x));
    }

    #[inline]
    fn write_u16(&mut self, x: u16) {
        self.word(u64::from(x));
    }

    #[inline]
    fn write_u32(&mut self, x: u32) {
        self.word(u64::from(x));
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.word(x);
    }

    #[inline]
    fn write_usize(&mut self, x: usize) {
        self.word(x as u64);
    }
}

/// Builds [`WordHasher`]s for `HashMap`s and `HashSet`s.
pub type WordBuildHasher = BuildHasherDefault<WordHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn one_bit_of_input_moves_about_half_the_output() {
        // Avalanche: flipping any single bit of one word flips close to
        // 32 of the 64 output bits, averaged over many base words.
        for bit in 0..64 {
            let mut flipped = 0u32;
            for base in 0..256u64 {
                let x = base.wrapping_mul(0x0123_4567_89ab_cdef);
                let (mut a, mut b) = (WordHasher::default(), WordHasher::default());
                a.word(x);
                b.word(x ^ (1 << bit));
                flipped += (a.finish() ^ b.finish()).count_ones();
            }
            let mean = f64::from(flipped) / 256.0;
            assert!((24.0..=40.0).contains(&mean), "bit {bit}: {mean}");
        }
    }

    #[test]
    fn byte_strings_of_different_lengths_stay_apart() {
        let a: &[u8] = &[1];
        let b: &[u8] = &[1, 0];
        assert_ne!(WordHasher::of(a), WordHasher::of(b));
        assert_ne!(WordHasher::of("ab"), WordHasher::of("ab\0"));
    }

    #[test]
    fn small_integers_do_not_collide() {
        let hashes: HashSet<u64> = (0..100_000u64).map(|k| WordHasher::of(&k)).collect();
        assert_eq!(hashes.len(), 100_000);
    }
}
