//! The one FNV-1a fold behind every deterministic content fingerprint in the
//! workspace (launch fingerprints, footprint-summary fingerprints, analysis
//! and module content keys), and the one SplitMix64 finalizer that mixes a
//! word over all 64 bits (window fingerprints, fault schedules).
//!
//! FNV-1a is used where a key must be a pure function of content — stable
//! across processes, executors and window permutations — and cheap enough for
//! the per-submit path; collisions only blur which items share a memo entry
//! or a fault stream. It is not DoS-resistant: never feed it keys from
//! outside the program.
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

/// SplitMix64's finalizer: a well-mixed bijection on `u64`.
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
