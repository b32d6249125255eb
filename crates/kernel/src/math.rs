//! The transcendental functions both kernel backends evaluate: `exp`, `ln`
//! and `erf`, written once, branch-free and table-free.
//!
//! [`crate::Interpreter`] calls them per element through
//! `interp::unary_fn`; the SIMD backend maps them over a register
//! row, compiled for the baseline target, for AVX2 and for AVX-512F
//! (`simd::transcendental_row`). Every function here is straight-line IEEE
//! arithmetic plus integer bit manipulation: special inputs are handled by
//! selects, not early returns, and nothing is looked up in a table, so a
//! lane loop over them vectorizes and needs no gathers. IEEE operations
//! round the same way at any vector width and nothing here uses
//! `mul_add` (Rust never contracts into an FMA on its own), so a row
//! evaluated four or eight lanes wide gives the interpreter's bits.
//!
//! Accuracy against the platform libm (the `sweep` tests): `exp` within
//! 4.5e-16 relative error on [−745, 709.7], `ln` within 4.5e-16 on every
//! positive normal and subnormal. Edge values follow libm: NaN in gives NaN
//! out, `exp(+∞) = +∞`, `exp(−∞) = 0`, `exp` overflows above 709.78 and
//! underflows to 0 below −745.13, `ln(±0) = −∞`, `ln(x < 0) = NaN` and
//! `ln(+∞) = +∞`.

/// `1.5 · 2⁵²`: adding it to a value below 2⁵¹ in magnitude rounds that value
/// to the nearest integer and leaves the integer in the low mantissa bits.
const SHIFT: f64 = 6_755_399_441_055_744.0;

/// `ln 2` split Cody–Waite style (fdlibm's constants, given by their bits):
/// the high part has 21 trailing zero bits, so `k · LN2_HI` is exact for
/// every exponent `k` an `f64` can need.
const LN2_HI: f64 = f64::from_bits(0x3fe6_2e42_fee0_0000);
const LN2_LO: f64 = f64::from_bits(0x3dea_39ef_3579_3c76);

/// Clamp of `exp`'s argument: beyond it the result has already overflowed to
/// +∞ or underflowed to 0, and inside it the exponent `k` fits the two
/// half-scales.
const EXP_MAX: f64 = 710.0;
const EXP_MIN: f64 = -746.0;

/// Taylor coefficients `1/n!` of `eʳ` for `n = 2..=13`. On the reduced range
/// `|r| ≤ ln2/2` the first dropped term, `r¹⁴/14!`, is below 5e-18.
const EXP_C: [f64; 12] = [
    1.0 / 2.0,
    1.0 / 6.0,
    1.0 / 24.0,
    1.0 / 120.0,
    1.0 / 720.0,
    1.0 / 5_040.0,
    1.0 / 40_320.0,
    1.0 / 362_880.0,
    1.0 / 3_628_800.0,
    1.0 / 39_916_800.0,
    1.0 / 479_001_600.0,
    1.0 / 6_227_020_800.0,
];

/// `2ᵏ` for `−1022 ≤ k ≤ 1023`, built from its exponent bits.
#[inline(always)]
fn pow2(k: i64) -> f64 {
    f64::from_bits((k.wrapping_add(1023) as u64) << 52)
}

/// Natural exponential, `eˣ`.
///
/// Cody–Waite reduction `x = k·ln2 + r` with `k` rounded by the `1.5·2⁵²`
/// trick, `eʳ` by a degree-13 polynomial evaluated with Estrin's scheme (a
/// shallower dependency chain than Horner's, at the same accuracy here
/// because the leading `1 + r` is added last), and `2ᵏ` applied as two
/// half-scales `2^⌊k/2⌋ · 2^(k−⌊k/2⌋)`. Both half-scales are normal, the
/// first product is exact, and a subnormal result is rounded once, by the
/// second.
#[inline(always)]
pub fn exp(x: f64) -> f64 {
    // NaN fails both compares and flows through the arithmetic below.
    let x = if x > EXP_MAX { EXP_MAX } else { x };
    let x = if x < EXP_MIN { EXP_MIN } else { x };
    let shifted = x * std::f64::consts::LOG2_E + SHIFT;
    let kf = shifted - SHIFT;
    let k = (shifted.to_bits() as i64).wrapping_sub(SHIFT.to_bits() as i64);
    let r = (x - kf * LN2_HI) - kf * LN2_LO;

    let r2 = r * r;
    let r4 = r2 * r2;
    let r8 = r4 * r4;
    let c = &EXP_C;
    let p01 = (c[0] + c[1] * r) + (c[2] + c[3] * r) * r2;
    let p23 = (c[4] + c[5] * r) + (c[6] + c[7] * r) * r2;
    let p45 = (c[8] + c[9] * r) + (c[10] + c[11] * r) * r2;
    let tail = (p01 + p23 * r4) + p45 * r8;
    let er = 1.0 + (r + r2 * tail);

    let k1 = k >> 1;
    er * pow2(k1) * pow2(k.wrapping_sub(k1))
}

/// `2⁵⁴`, the pre-scale that makes a subnormal `ln` argument normal.
const TWO54: f64 = 18_014_398_509_481_984.0;

/// fdlibm's minimax coefficients `Lg1..Lg7` for
/// `ln((1+s)/(1−s)) = 2s + s·R(s²)`, given by their bits (≈ 0.6667, 0.4000,
/// 0.2857, 0.2222, 0.1818, 0.1531, 0.1480).
const LG: [f64; 7] = [
    f64::from_bits(0x3fe5_5555_5555_5593),
    f64::from_bits(0x3fd9_9999_9997_fa04),
    f64::from_bits(0x3fd2_4924_9422_9359),
    f64::from_bits(0x3fcc_71c5_1d8e_78af),
    f64::from_bits(0x3fc7_4664_96cb_03de),
    f64::from_bits(0x3fc3_9a09_d078_c69f),
    f64::from_bits(0x3fc2_f112_df3e_5244),
];

/// Natural logarithm, `ln x`.
///
/// fdlibm's reduction `x = 2ᵏ·(1+f)` with `1+f` in `[√2/2, √2)`, read off the
/// bits after subnormals are pre-scaled by 2⁵⁴, then
/// `ln(1+f) = f − f²/2 + s·(f²/2 + R(s²))` with `s = f/(2+f)` and fdlibm's
/// `Lg1..Lg7`. Zero, negative, infinite and NaN arguments go through the
/// same arithmetic and are replaced by selects at the end.
#[inline(always)]
pub fn ln(x: f64) -> f64 {
    let subnormal = x < f64::MIN_POSITIVE;
    let xs = if subnormal { x * TWO54 } else { x };
    // Offset the high word so the exponent field rolls over at √2/2, not 1.
    let ix = xs
        .to_bits()
        .wrapping_add((0x3ff0_0000_u64 - 0x3fe6_a09e) << 32);
    let k = (ix >> 52) as i64 - 0x3ff - if subnormal { 54 } else { 0 };
    let f = f64::from_bits((ix & 0x000f_ffff_ffff_ffff) + (0x3fe6_a09e_u64 << 32)) - 1.0;
    // `k` exactly as an `f64`, through the same trick as `exp`.
    let dk = f64::from_bits((SHIFT.to_bits() as i64).wrapping_add(k) as u64) - SHIFT;

    let hfsq = 0.5 * f * f;
    let s = f / (2.0 + f);
    let z = s * s;
    let w = z * z;
    let t1 = w * (LG[1] + w * (LG[3] + w * LG[5]));
    let t2 = z * (LG[0] + w * (LG[2] + w * (LG[4] + w * LG[6])));
    let y = s * (hfsq + (t2 + t1)) + dk * LN2_LO - hfsq + f + dk * LN2_HI;

    let y = if x == f64::INFINITY { x } else { y };
    let y = if x == 0.0 { f64::NEG_INFINITY } else { y };
    // Negative arguments and NaN.
    if x >= 0.0 {
        y
    } else {
        f64::NAN
    }
}

/// Abramowitz–Stegun 7.1.26 approximation of the error function (maximum
/// absolute error about 1.5e-7), sufficient for the Black-Scholes workload.
/// Its one transcendental is this module's [`exp`].
#[inline(always)]
pub fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let a1 = 0.254829592;
    let a2 = -0.284496736;
    let a3 = 1.421413741;
    let a4 = -1.453152027;
    let a5 = 1.061405429;
    let p = 0.3275911;
    let t = 1.0 / (1.0 + p * x);
    let y = 1.0 - (((((a5 * t + a4) * t) + a3) * t + a2) * t + a1) * t * exp(-x * x);
    sign * y
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Samples per sweep: the full count natively, a few hundred under Miri.
    const SAMPLES: u64 = if cfg!(miri) { 256 } else { 2_000_000 };

    /// Allowed relative error against libm. Under Miri the reference itself
    /// is perturbed: its float non-determinism adds up to 4 ulp to every
    /// libm result.
    const BOUND: f64 = if cfg!(miri) {
        4.5e-16 + 4.0 * f64::EPSILON
    } else {
        4.5e-16
    };

    /// The largest relative error of `f` against `reference` over `points`,
    /// with the worst argument. A subnormal result is measured against the
    /// smallest normal, so one subnormal ulp reads like one ulp at 1.0.
    fn max_rel_error(
        f: fn(f64) -> f64,
        reference: fn(f64) -> f64,
        points: impl Iterator<Item = f64>,
    ) -> (f64, f64) {
        let mut worst = (0.0, f64::NAN);
        for x in points {
            let (got, want) = (f(x), reference(x));
            let err = if got == want {
                0.0
            } else {
                ((got - want) / want.abs().max(f64::MIN_POSITIVE)).abs()
            };
            if err.is_nan() || err > worst.0 {
                worst = (err, x);
            }
        }
        worst
    }

    fn uniform(lo: f64, hi: f64) -> impl Iterator<Item = f64> {
        (0..SAMPLES).map(move |i| lo + (hi - lo) * ((i as f64 + 0.5) / SAMPLES as f64))
    }

    #[test]
    fn exp_sweep_is_within_bound_of_libm() {
        let (err, at) = max_rel_error(exp, f64::exp, uniform(-745.0, 709.7));
        assert!(err <= BOUND, "exp: relative error {err:e} at x = {at:e}");
        // The reduced range, where every result is normal and near 1.
        let (err, at) = max_rel_error(exp, f64::exp, uniform(-1.0, 1.0));
        assert!(err <= BOUND, "exp: relative error {err:e} at x = {at:e}");
    }

    #[test]
    fn ln_sweep_is_within_bound_of_libm() {
        // Every binade, normals and subnormals alike: the bit patterns of
        // positive finite doubles, evenly spaced.
        let top = f64::MAX.to_bits();
        let every_binade = (0..SAMPLES).map(|i| f64::from_bits(1 + i * (top / SAMPLES)));
        let (err, at) = max_rel_error(ln, f64::ln, every_binade);
        assert!(err <= BOUND, "ln: relative error {err:e} at x = {at:e}");
        // Around 1, where the result is small and the reduction has k = 0.
        let (err, at) = max_rel_error(ln, f64::ln, uniform(0.5, 2.0));
        assert!(err <= BOUND, "ln: relative error {err:e} at x = {at:e}");
    }

    /// Exact expected results, compared by bits (any NaN counts as NaN).
    fn assert_table(name: &str, f: fn(f64) -> f64, table: &[(f64, f64)]) {
        for &(x, want) in table {
            let got = f(x);
            let same = if want.is_nan() {
                got.is_nan()
            } else {
                got.to_bits() == want.to_bits()
            };
            assert!(same, "{name}({x:e}) = {got:e}, want {want:e}");
        }
    }

    #[test]
    fn edge_values_match_libm() {
        let inf = f64::INFINITY;
        assert_table(
            "exp",
            exp,
            &[
                (f64::NAN, f64::NAN),
                (inf, inf),
                (-inf, 0.0),
                (0.0, 1.0),
                (-0.0, 1.0),
                (5e-324, 1.0),
                (-1.0e-300, 1.0),
                (709.78, 1.792_822_794_394_515_5e308),
                (709.79, inf),
                (-745.13, 5e-324),
                (-746.0, 0.0),
            ],
        );
        assert_table(
            "ln",
            ln,
            &[
                (f64::NAN, f64::NAN),
                (inf, inf),
                (-inf, f64::NAN),
                (0.0, -inf),
                (-0.0, -inf),
                (-1.0, f64::NAN),
                (5e-324, -744.440_071_921_381_2),
                (1.0, 0.0),
                (f64::MAX, 709.782_712_893_384),
            ],
        );
        assert_table(
            "erf",
            erf,
            &[(f64::NAN, f64::NAN), (inf, 1.0), (-inf, -1.0)],
        );
    }

    #[test]
    fn erf_is_accurate() {
        assert!((erf(0.0)).abs() < 1e-7);
        assert!((erf(1.0) - 0.8427007929).abs() < 1e-6);
        assert!((erf(-1.0) + 0.8427007929).abs() < 1e-6);
        assert!((erf(3.0) - 0.9999779095).abs() < 1e-6);
    }
}
