//! Stable content hashing for cache keys and cache-entry checksums.
//!
//! Cache keys must be identical across runs, platforms, and Rust versions,
//! so we use a fixed FNV-1a construction rather than `std`'s randomized
//! `DefaultHasher`. Two independent 64-bit lanes (different offset bases)
//! give a 128-bit key, which is plenty for a content-addressed cache.
//! [`word_digest`] is the same two lanes fed a word at a time: the checksum
//! a cache hit verifies over its whole payload before reading it.

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// Second lane starts from a decorrelated offset (golden-ratio constant).
const LANE2_OFFSET: u64 = FNV_OFFSET ^ 0x9e37_79b9_7f4a_7c15;

/// How far [`word_digest`] rotates a lane after each multiply, so that the
/// product's high bits, which the multiply mixes best, feed the next one's
/// low bits.
const WORD_ROTATE: u32 = 27;

/// Incremental 128-bit FNV-1a hasher.
#[derive(Debug, Clone)]
pub struct StableHasher {
    lane1: u64,
    lane2: u64,
}

impl Default for StableHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl StableHasher {
    /// Fresh hasher.
    pub fn new() -> Self {
        Self {
            lane1: FNV_OFFSET,
            lane2: LANE2_OFFSET,
        }
    }

    /// Absorb raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.lane1 = (self.lane1 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
            self.lane2 = (self.lane2 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorb a string with a length prefix (prevents concatenation
    /// ambiguity between adjacent fields).
    pub fn write_str(&mut self, s: &str) {
        self.write(&(s.len() as u64).to_le_bytes());
        self.write(s.as_bytes());
    }

    /// Absorb a `u64`.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Absorb one little-endian word into both lanes, [`word_digest`]'s
    /// step.
    #[inline(always)]
    fn write_word(&mut self, word: u64) {
        self.lane1 = (self.lane1 ^ word)
            .wrapping_mul(FNV_PRIME)
            .rotate_left(WORD_ROTATE);
        self.lane2 = (self.lane2 ^ word)
            .wrapping_mul(FNV_PRIME)
            .rotate_left(WORD_ROTATE);
    }

    /// Final 128-bit digest as 32 lowercase hex characters.
    pub fn finish_hex(&self) -> String {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        let mut out = String::with_capacity(32);
        for lane in [self.lane1, self.lane2] {
            for nibble in (0..16).rev() {
                out.push(char::from(HEX[(lane >> (4 * nibble)) as usize & 0xf]));
            }
        }
        out
    }

    /// Final 64-bit digest (first lane) — used as a cheap integrity check.
    pub fn finish_u64(&self) -> u64 {
        self.lane1
    }
}

/// One-shot 128-bit hex digest of a byte string.
pub fn hex_digest(bytes: &[u8]) -> String {
    let mut h = StableHasher::new();
    h.write(bytes);
    h.finish_hex()
}

/// One-shot 128-bit hex digest of a byte string, read eight bytes at a
/// time: each step absorbs one little-endian `u64` word into both FNV-1a
/// lanes and rotates them, the last word zero-padded, and a final step
/// absorbs the byte length, so that trailing zero bytes still count. A step
/// is one bijection of each lane per word, so any change confined to one
/// word moves the digest. It is not [`hex_digest`]'s value for the same
/// bytes.
pub fn word_digest(bytes: &[u8]) -> String {
    let mut h = StableHasher::new();
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        h.write_word(u64::from_le_bytes(word.try_into().expect("8 bytes")));
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut word = [0u8; 8];
        word[..tail.len()].copy_from_slice(tail);
        h.write_word(u64::from_le_bytes(word));
    }
    h.write_word(bytes.len() as u64);
    h.finish_hex()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digests_are_stable() {
        // Golden values: must never change across refactors, or every cache
        // entry would silently invalidate. Empty input leaves both lanes at
        // their offset bases.
        assert_eq!(
            hex_digest(b""),
            format!("{FNV_OFFSET:016x}{LANE2_OFFSET:016x}")
        );
        // FNV-1a 64 of "a" is a published test vector; lane 1 must match it.
        let mut h = StableHasher::new();
        h.write(b"a");
        assert_eq!(h.finish_u64(), 0xaf63dc4c8601ec8c);
    }

    #[test]
    fn length_prefix_disambiguates() {
        let mut a = StableHasher::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = StableHasher::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish_hex(), b.finish_hex());
    }

    #[test]
    fn single_byte_sensitivity() {
        assert_ne!(hex_digest(b"seed=1"), hex_digest(b"seed=2"));
    }

    /// Golden values of the cache's entry checksum: changing them turns
    /// every stored entry into a miss, which needs a cache format bump.
    #[test]
    fn word_digests_are_stable() {
        let fixture = include_str!("../tests/fixtures/run_summary.json").trim_end();
        assert_eq!(word_digest(b""), "64300dbefd7b1dea9192cdf4813d1f75");
        assert_eq!(word_digest(b"seed=17"), "ab590274d6b60d11794e3defd5605c5f");
        assert_eq!(
            word_digest(fixture.as_bytes()),
            "8a751670ce72f819005f26a72fcfd870"
        );
    }

    #[test]
    fn word_digests_see_padding_and_every_bit() {
        // The zero padding of the last word is told apart by the length.
        assert_ne!(word_digest(b"seed=1"), word_digest(b"seed=1\0"));
        assert_ne!(word_digest(b""), word_digest(b"\0"));
        let base = *b"0123456789abcdefXYZ";
        let digest = word_digest(&base);
        for at in 0..base.len() {
            for bit in 0..8 {
                let mut flipped = base;
                flipped[at] ^= 1 << bit;
                assert_ne!(word_digest(&flipped), digest, "bit {bit} of byte {at}");
            }
        }
        // High bits flipped in two words do not cancel.
        let mut two = base;
        two[7] ^= 0x80;
        two[15] ^= 0x80;
        assert_ne!(word_digest(&two), digest);
    }
}
