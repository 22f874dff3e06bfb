//! Deterministic RNG plumbing.
//!
//! Every randomized component in the workspace takes an explicit RNG; the
//! experiment harness derives independent, reproducible streams from a single
//! master seed with [`fn@derive`], so adding a trial never perturbs existing
//! ones.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// A seeded standard RNG.
pub fn seeded(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Words per [`BufferedRng`] refill (one virtual dispatch per block).
const BUFFER_WORDS: usize = 512;

/// A block-buffering adapter over a `dyn` RNG.
///
/// Rejection samplers (truncated normal, gamma) draw a *variable* number of
/// words per sample, so they cannot pre-batch their input the way a
/// fixed-rate consumer can. `BufferedRng` closes the `dyn` boundary from
/// the other side: it pulls a 512-word block from the underlying
/// generator with a single virtual `fill_bytes` call and serves `next_u64`
/// monomorphically from the buffer, so a sampler that is generic over its
/// RNG inlines every draw.
///
/// The served word *sequence* is exactly the underlying generator's
/// sequence; the only stream difference is that unused words of the final
/// block are discarded when the adapter is dropped.
pub struct BufferedRng<'a> {
    inner: &'a mut dyn RngCore,
    buf: [u8; 8 * BUFFER_WORDS],
    /// Next unread byte offset; starts exhausted so the first draw refills.
    pos: usize,
}

impl<'a> BufferedRng<'a> {
    /// Wraps a `dyn` RNG in a block buffer.
    pub fn new(inner: &'a mut dyn RngCore) -> Self {
        BufferedRng { inner, buf: [0u8; 8 * BUFFER_WORDS], pos: 8 * BUFFER_WORDS }
    }
}

impl RngCore for BufferedRng<'_> {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        if self.pos == self.buf.len() {
            self.inner.fill_bytes(&mut self.buf);
            self.pos = 0;
        }
        let word = u64::from_le_bytes(
            self.buf[self.pos..self.pos + 8].try_into().expect("8-byte slice"),
        );
        self.pos += 8;
        word
    }
}

/// Derives an independent RNG for a named sub-stream of `seed`.
///
/// Uses SplitMix64 finalization over `(seed, stream)` so that nearby stream
/// ids produce uncorrelated states.
pub fn derive(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(split_mix(seed ^ split_mix(stream)))
}

/// FNV-1a over little-endian words and length-prefixed byte strings — the
/// stable digest behind session-compatibility checks, cell stream ids and
/// the caches' generation streams. No `std::hash` involvement, so digests
/// are stable across Rust versions and can be pinned in golden files and
/// exchanged between processes.
#[derive(Debug, Clone)]
pub struct Fnv(u64);

impl Fnv {
    /// Fresh hasher at the FNV offset basis.
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Feeds one word (as its 8 little-endian bytes).
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x1000_0000_01b3);
        }
    }

    /// Feeds raw bytes, length-prefixed so `"ab" + "c"` ≠ `"a" + "bc"`.
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.word(bytes.len() as u64);
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x1000_0000_01b3);
        }
    }

    /// The digest.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

fn split_mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn seeded_is_deterministic() {
        let a: u64 = seeded(1).gen();
        let b: u64 = seeded(1).gen();
        assert_eq!(a, b);
    }

    #[test]
    fn streams_differ() {
        let a: u64 = derive(1, 0).gen();
        let b: u64 = derive(1, 1).gen();
        let c: u64 = derive(2, 0).gen();
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn derive_is_deterministic() {
        let a: u64 = derive(99, 7).gen();
        let b: u64 = derive(99, 7).gen();
        assert_eq!(a, b);
    }

    #[test]
    fn buffered_rng_preserves_the_word_sequence() {
        let mut direct = seeded(42);
        let expect: Vec<u64> = (0..2 * super::BUFFER_WORDS + 3).map(|_| direct.gen()).collect();
        let mut inner = seeded(42);
        let mut buffered = BufferedRng::new(&mut inner);
        let got: Vec<u64> = expect.iter().map(|_| buffered.next_u64()).collect();
        assert_eq!(got, expect);
    }
}
