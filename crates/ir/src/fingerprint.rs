//! The one FNV-1a fold behind every deterministic content fingerprint in the
//! workspace (launch fingerprints, window fingerprints, analysis and module
//! content keys), the one SplitMix64 finalizer that mixes a word over all
//! 64 bits (window fingerprints, fault schedules), and the hasher of the
//! in-process maps: [`FnvHasher`] folds a word per step and finishes with
//! SplitMix64, and [`FnvHashMap`]/[`FnvHashSet`] key with it. (The runtime's
//! dependence tracker keeps `std`'s hasher, for a measured reason its
//! documentation gives.)
//!
//! FNV-1a is used where a key must be a pure function of content — stable
//! across processes, executors and window permutations — and cheap enough for
//! the per-submit path; collisions only blur which items share a memo entry
//! or a fault stream, or lengthen a probe sequence. It is not DoS-resistant:
//! never feed it keys from outside the program. Every map keyed with it holds
//! in-process ids (stores, regions, tasks, buffers, fingerprints) or interned
//! content, so the one fold serves the maps of the per-task path too.
//!
//! # Example
//!
//! ```
//! use ir::fingerprint::{fold_bytes, fold_u64, OFFSET};
//!
//! // The published FNV-1a test vector for "a".
//! assert_eq!(fold_bytes(OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
//! // Folding a byte and folding it as a word are the same step.
//! assert_eq!(fold_u64(OFFSET, u64::from(b'a')), fold_bytes(OFFSET, b"a"));
//! ```

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The 64-bit FNV offset basis: the accumulator every fold starts from.
pub const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The 64-bit FNV prime.
pub const PRIME: u64 = 0x0100_0000_01b3;

/// Folds one word into the accumulator (xor, then multiply).
#[inline]
pub fn fold_u64(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(PRIME)
}

/// Folds a byte string into the accumulator, one byte per step.
#[inline]
pub fn fold_bytes(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| fold_u64(h, u64::from(b)))
}

/// `PRIME_POWERS[k]` is `PRIME` to the `k`, wrapping: folding `k` zero bytes
/// multiplies the accumulator by it.
const PRIME_POWERS: [u64; 9] = {
    let mut powers = [1u64; 9];
    let mut k = 1;
    while k < 9 {
        powers[k] = powers[k - 1].wrapping_mul(PRIME);
        k += 1;
    }
    powers
};

/// Folds a word's eight little-endian bytes, one byte per step: exactly
/// `fold_bytes(h, &v.to_le_bytes())`. A zero byte's step is a multiply by
/// [`PRIME`], so the zero bytes at either end of the word — all but one or
/// two of a small id's — fold as one multiply per end.
#[inline]
pub fn fold_le_word(mut h: u64, v: u64) -> u64 {
    if v == 0 {
        return h.wrapping_mul(PRIME_POWERS[8]);
    }
    let (low, high) = ((v.trailing_zeros() / 8) as usize, (v.leading_zeros() / 8) as usize);
    h = h.wrapping_mul(PRIME_POWERS[low]);
    for byte in low..8 - high {
        h = fold_u64(h, v >> (8 * byte) & 0xff);
    }
    h.wrapping_mul(PRIME_POWERS[high])
}

/// SplitMix64's finalizer: a well-mixed bijection on `u64`.
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The hasher of the in-process maps and of the window fingerprint: the FNV
/// fold of [`fold_u64`], one step per integer written (a byte string folds a
/// native-endian word per 8 bytes, then a byte per step), finished by
/// [`splitmix64`] so that every bit of the result — the bucket index and the
/// probe tag alike — depends on every bit of the key.
///
/// # Example
///
/// ```
/// use std::hash::Hasher;
/// use ir::fingerprint::{fold_u64, splitmix64, FnvHashMap, FnvHasher, OFFSET};
///
/// let mut h = FnvHasher::default();
/// h.write_u64(7);
/// assert_eq!(h.finish(), splitmix64(fold_u64(OFFSET, 7)));
/// // A word written as bytes is the same single step.
/// let mut b = FnvHasher::default();
/// b.write(&7u64.to_ne_bytes());
/// assert_eq!(b.finish(), h.finish());
///
/// let mut map: FnvHashMap<u64, &str> = FnvHashMap::default();
/// map.insert(3, "three");
/// assert_eq!(map[&3], "three");
/// ```
#[derive(Debug, Clone, Copy)]
pub struct FnvHasher(u64);

impl Default for FnvHasher {
    #[inline]
    fn default() -> Self {
        FnvHasher(OFFSET)
    }
}

impl Hasher for FnvHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            let word = u64::from_ne_bytes(word.try_into().expect("chunks of eight bytes"));
            self.0 = fold_u64(self.0, word);
        }
        self.0 = fold_bytes(self.0, words.remainder());
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.0 = fold_u64(self.0, u64::from(v));
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.0 = fold_u64(self.0, u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.0 = fold_u64(self.0, u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = fold_u64(self.0, v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.0 = fold_u64(self.0, v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        splitmix64(self.0)
    }
}

/// The [`std::hash::BuildHasher`] of [`FnvHasher`]: stateless, so every map
/// built with it hashes alike in every process.
pub type FnvBuildHasher = BuildHasherDefault<FnvHasher>;

/// A `HashMap` keyed with [`FnvHasher`] (make one with `default()` or
/// `with_capacity_and_hasher`).
pub type FnvHashMap<K, V> = HashMap<K, V, FnvBuildHasher>;

/// A `HashSet` keyed with [`FnvHasher`].
pub type FnvHashSet<K> = HashSet<K, FnvBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_integer_width_is_one_fold_step() {
        let step = |v: u64| splitmix64(fold_u64(OFFSET, v));
        let finish = |write: &dyn Fn(&mut FnvHasher)| {
            let mut h = FnvHasher::default();
            write(&mut h);
            h.finish()
        };
        assert_eq!(finish(&|h| h.write_u8(0xab)), step(0xab));
        assert_eq!(finish(&|h| h.write_u16(0xabcd)), step(0xabcd));
        assert_eq!(finish(&|h| h.write_u32(0xdead_beef)), step(0xdead_beef));
        assert_eq!(finish(&|h| h.write_usize(12)), step(12));
        assert_eq!(finish(&|h| h.write_i64(-1)), step(u64::MAX));
    }

    #[test]
    fn a_little_endian_word_folds_as_its_bytes() {
        let mut words = vec![0, 1, 0xff, 0x100, 7 << 56, u64::MAX, 0x0102_0000_0000_0300];
        let mut z = 0u64;
        for shift in 0..64 {
            z = splitmix64(z);
            words.extend([z, z >> shift, z << shift, (z >> shift) << (shift / 2)]);
        }
        for (i, &v) in words.iter().enumerate() {
            let h = splitmix64(i as u64);
            assert_eq!(fold_le_word(h, v), fold_bytes(h, &v.to_le_bytes()), "{v:#x}");
        }
    }

    #[test]
    fn byte_strings_fold_words_then_bytes() {
        let bytes: Vec<u8> = (1..=11).collect();
        let mut h = FnvHasher::default();
        h.write(&bytes);
        let word = u64::from_ne_bytes(bytes[..8].try_into().unwrap());
        let expected = fold_bytes(fold_u64(OFFSET, word), &bytes[8..]);
        assert_eq!(h.finish(), splitmix64(expected));
    }

    #[test]
    fn maps_and_sets_hash_alike_across_builds() {
        use std::hash::BuildHasher;
        let (a, b) = (FnvBuildHasher::default(), FnvBuildHasher::default());
        assert_eq!(a.hash_one((3u64, 4u32)), b.hash_one((3u64, 4u32)));
        assert_ne!(a.hash_one(3u64), a.hash_one(4u64));
        let set: FnvHashSet<u32> = (0..100).collect();
        assert!((0..100).all(|i| set.contains(&i)) && !set.contains(&100));
    }
}
