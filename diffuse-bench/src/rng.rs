//! The benchmark's own pseudo-random generator (SplitMix64).
//!
//! Workload inputs and program draws come from here and nowhere else, so a
//! `--seed` fixes them bit for bit whatever `vendor/rand` does; the system
//! under test only ever sees the generated vectors.

/// SplitMix64: one 64-bit word of state, full period, passes BigCrush.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// An independent generator for sub-stream `stream` of this seed, so the
    /// inputs of one workload do not shift when another draws more numbers.
    pub fn stream(seed: u64, stream: u64) -> Self {
        let mut r = Rng::new(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform integer in `0..n` (`n > 0`); the modulo bias is below 2⁻⁴⁰ for
    /// every `n` the benchmark uses.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn vec(&mut self, len: usize, lo: f64, hi: f64) -> Vec<f64> {
        (0..len).map(|_| self.range(lo, hi)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_numbers_and_other_seed_other_numbers() {
        let a: Vec<u64> = (0..8)
            .map(|_| 0)
            .scan(Rng::new(7), |r, _| Some(r.next_u64()))
            .collect();
        let b: Vec<u64> = (0..8)
            .map(|_| 0)
            .scan(Rng::new(7), |r, _| Some(r.next_u64()))
            .collect();
        let c: Vec<u64> = (0..8)
            .map(|_| 0)
            .scan(Rng::new(8), |r, _| Some(r.next_u64()))
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        // Reference value of SplitMix64 seeded with 0 (Vigna's test vector).
        assert_eq!(Rng::new(0).next_u64(), 0xE220_A839_7B1D_CDAF);
    }

    #[test]
    fn unit_stays_in_range_and_streams_differ() {
        let mut r = Rng::new(1);
        assert!((0..10_000).all(|_| (0.0..1.0).contains(&r.unit())));
        assert_ne!(Rng::stream(1, 0).next_u64(), Rng::stream(1, 1).next_u64());
    }
}
