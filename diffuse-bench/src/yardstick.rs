//! The yardstick: a fixed piece of plain-Rust work, timed between the ops of
//! the end-to-end run, that the op times are read against.
//!
//! The reference box shares its cores, caches and memory bus. For minutes at
//! a time everything on it runs 30–50 % slower — arithmetic, hashing,
//! allocation and streaming alike — so a wall-clock time says as much about
//! the neighbours as about the system, and ten runs of the same code spread
//! wider than any bound the pipeline allows. The yardstick is the remedy: it
//! never changes, it leans on the same machine resources the system leans on
//! (floating-point arithmetic, a streaming pass over an array the size of
//! L2, `HashMap` probes and updates), and it is timed in the same seconds as
//! the ops. An op time divided by the yardstick's time in that stretch of
//! the run is the op's cost in *yardsticks*, which the slow minutes inflate
//! far less than they inflate either time alone.
//!
//! End-to-end timings are reported in **calibrated** units: yardsticks times
//! [`NOMINAL_MS`], the yardstick's own time on the quiet reference box — so
//! a calibrated millisecond reads as a millisecond there.
//!
//! The three parts take about a third of a reading each; no part and no
//! weight is tuned per workload. The yardstick must not have moods of its
//! own, so it allocates nothing while it runs (a part that allocated and
//! freed small blocks stepped by 50 % within a process with the state of the
//! heap, where no op's time did) and hashes with fixed keys.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::time::Instant;

/// What one reading takes on the reference box when its neighbours are
/// quiet (the lower quartile of the readings of its quietest runs), in ms.
pub const NOMINAL_MS: f64 = 3.0;

const ARITH_STEPS: usize = 200_000;
/// 4 MiB, the size of a core's L2: after an op has run, it streams from L3.
const STREAM_LEN: usize = 1 << 19;
const MAP_ENTRIES: u64 = 1 << 16;
const MAP_PROBES: usize = 8192;
const MAP_UPDATES: u64 = 1024;

const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

pub struct Yardstick {
    stream: Vec<f64>,
    /// Hashed with fixed keys, so that every process builds the same table.
    map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>,
    /// xorshift64 state: which keys are probed.
    x: u64,
}

/// A polynomial of degree 8 by Horner's rule, highest coefficient first.
fn horner(x: f64, coefficients: [f64; 9]) -> f64 {
    coefficients.iter().fold(0.0, |sum, c| sum * x + c)
}

impl Default for Yardstick {
    fn default() -> Self {
        Yardstick::new()
    }
}

impl Yardstick {
    pub fn new() -> Self {
        Yardstick {
            stream: vec![1.0001; STREAM_LEN],
            map: (0..MAP_ENTRIES)
                .map(|k| (k.wrapping_mul(GOLDEN), k))
                .collect(),
            x: 88_172_645_463_325_252,
        }
    }

    fn next(&mut self) -> u64 {
        self.x ^= self.x << 13;
        self.x ^= self.x >> 7;
        self.x ^= self.x << 17;
        self.x
    }

    /// One reading: runs the fixed work and returns its wall-clock in ms.
    pub fn read(&mut self) -> f64 {
        let start = Instant::now();
        // Independent rounds of square roots, divisions and polynomials, in
        // registers: no loads, no stores, no calls, so they overlap in the
        // core's pipelines the way ordinary compiled code does, and follow
        // its clock and whatever shares its ports. (Calls into libm read
        // tables; in one process in 25 those loads aliased with the loop's
        // stack slots and ran at half speed for the life of the process.)
        let mut acc = 0.0f64;
        for i in 0..ARITH_STEPS {
            let v = 1.0 + i as f64 * 1e-4;
            let r = v.sqrt() / (1.0 + v);
            let w = 1.0 / v;
            let p = horner(r, [0.11, 0.13, 0.17, 0.19, 0.23, 0.29, 0.31, 0.37, 0.41]);
            let q = horner(w, [0.43, 0.47, 0.53, 0.59, 0.61, 0.67, 0.71, 0.73, 0.79]);
            acc += p * q;
        }
        // A streaming update in place: follows the shared cache and the
        // memory bus.
        for x in &mut self.stream {
            *x = *x * 0.999 + 0.001;
            acc += *x;
        }
        // Hash-map probes and updates: dependent loads at random addresses.
        let mut found = 0u64;
        for _ in 0..MAP_PROBES {
            let key = (self.next() % MAP_ENTRIES).wrapping_mul(GOLDEN);
            found = found.wrapping_add(self.map.get(&key).copied().unwrap_or(0));
        }
        for i in 0..MAP_UPDATES {
            self.map.insert(i | 1 << 40, i);
        }
        for i in 0..MAP_UPDATES {
            found = found.wrapping_add(self.map.remove(&(i | 1 << 40)).unwrap_or(0));
        }
        std::hint::black_box((acc, found));
        start.elapsed().as_secs_f64() * 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readings_are_positive_and_leave_the_map_as_it_was() {
        let mut yard = Yardstick::new();
        let entries = yard.map.len();
        assert!((0..3).all(|_| yard.read() > 0.0));
        assert_eq!(yard.map.len(), entries);
    }
}
