//! Independent plain-Rust references every op is checked against.
//!
//! Nothing here calls into the system under test, and no check compares one
//! Diffuse configuration with another: a wrong answer shared by every
//! configuration still fails.

use crate::program::{Op, Program, RISK_FREE_RATE, VOLATILITY};

/// Relative tolerance on sums and energies.
pub const TOL_SUM: f64 = 1e-9;
/// Relative tolerance where the system's `erf` enters: its kernels use the
/// Abramowitz–Stegun 7.1.26 polynomial (absolute error up to 1.5e-7), this
/// file an `erf` good to 1e-12.
pub const TOL_ERF: f64 = 1e-6;
/// The CG solves must reach `‖r‖ ≤ CG_TOL ‖b‖` by the solver's own recurrence…
pub const CG_TOL: f64 = 1e-8;
/// …and `‖b − A·x‖ ≤ CG_CHECK_TOL ‖b‖` when recomputed here from `x`.
pub const CG_CHECK_TOL: f64 = 1e-7;

/// The error function to about 1e-15 absolute: the Maclaurin series where
/// it converges without cancellation, and the Lentz continued fraction of
/// `erfc` beyond.
pub fn erf(x: f64) -> f64 {
    let a = x.abs();
    let value = if a < 2.5 {
        // erf a = 2/√π · Σ (−1)ⁿ a²ⁿ⁺¹ / (n! (2n+1))
        let (mut term, mut sum, mut n) = (a, a, 0.0);
        while term.abs() > 1e-17 * sum.abs() {
            n += 1.0;
            term *= -a * a / n;
            sum += term / (2.0 * n + 1.0);
        }
        sum * std::f64::consts::FRAC_2_SQRT_PI
    } else if a > 6.0 {
        1.0
    } else {
        // erfc a = e^(−a²)/√π · 1/(a + (1/2)/(a + 1/(a + (3/2)/(a + …))))
        let tiny = 1e-300;
        let (mut f, mut c, mut d) = (a, a, 0.0);
        for k in 1..200 {
            let ak = k as f64 / 2.0;
            d = a + ak * d;
            d = if d == 0.0 { tiny } else { d };
            c = a + ak / c;
            c = if c == 0.0 { tiny } else { c };
            d = 1.0 / d;
            let delta = c * d;
            f *= delta;
            if (delta - 1.0).abs() < 1e-16 {
                break;
            }
        }
        1.0 - (-a * a).exp() / (f * std::f64::consts::PI.sqrt())
    };
    value.copysign(x)
}

fn normal_cdf(x: f64) -> f64 {
    0.5 * (1.0 + erf(x * std::f64::consts::FRAC_1_SQRT_2))
}

/// Closed-form European `(call, put)` for one option.
pub fn black_scholes(s: f64, k: f64, t: f64) -> (f64, f64) {
    let vol_root_t = VOLATILITY * t.sqrt();
    let d1 = ((s / k).ln() + (RISK_FREE_RATE + 0.5 * VOLATILITY * VOLATILITY) * t) / vol_root_t;
    let d2 = d1 - vol_root_t;
    let kd = k * (-RISK_FREE_RATE * t).exp();
    (
        s * normal_cdf(d1) - kd * normal_cdf(d2),
        kd * normal_cdf(-d2) - s * normal_cdf(-d1),
    )
}

/// `(Σ call, Σ put)` over option arrays.
pub fn black_scholes_sums(s: &[f64], k: &[f64], t: &[f64]) -> (f64, f64) {
    s.iter()
        .zip(k)
        .zip(t)
        .fold((0.0, 0.0), |(call, put), ((&s, &k), &t)| {
            let (c, p) = black_scholes(s, k, t);
            (call + c, put + p)
        })
}

/// Whether `got` matches `want` to `tol` relative to `scale` (the magnitude
/// of the terms that were summed — a sum that cancels is not held to a
/// relative error on its own tiny value).
pub fn close(got: f64, want: f64, scale: f64, tol: f64) -> bool {
    got.is_finite() && (got - want).abs() <= tol * scale.abs().max(f64::MIN_POSITIVE)
}

/// `y = A·x` for the 5-point Laplacian of an `n × n` grid (4 on the
/// diagonal, −1 to each in-grid neighbour), matrix-free.
pub fn poisson_apply(n: usize, x: &[f64]) -> Vec<f64> {
    assert_eq!(x.len(), n * n, "vector length must be n²");
    let mut y = vec![0.0; n * n];
    for i in 0..n {
        for j in 0..n {
            let at = i * n + j;
            let mut v = 4.0 * x[at];
            if i > 0 {
                v -= x[at - n];
            }
            if i + 1 < n {
                v -= x[at + n];
            }
            if j > 0 {
                v -= x[at - 1];
            }
            if j + 1 < n {
                v -= x[at + 1];
            }
            y[at] = v;
        }
    }
    y
}

pub fn norm2(v: &[f64]) -> f64 {
    v.iter().map(|x| x * x).sum::<f64>().sqrt()
}

/// `‖b − A·x‖₂`, independent of any reduction order inside the solver.
pub fn poisson_residual(n: usize, x: &[f64], b: &[f64]) -> f64 {
    let ax = poisson_apply(n, x);
    norm2(&b.iter().zip(&ax).map(|(b, ax)| b - ax).collect::<Vec<_>>())
}

/// Explicit-Euler 2-D heat diffusion on a ghost-bordered `(n+2)²` grid,
/// advanced in lock step with the `heat_xlib` workload.
#[derive(Debug, Clone)]
pub struct HeatReference {
    m: usize,
    cur: Vec<f64>,
    next: Vec<f64>,
}

/// Diffusion number `α·Δt/h²`; below the 0.25 stability limit of the
/// 5-point scheme.
pub const HEAT_ALPHA: f64 = 0.2;

impl HeatReference {
    /// Starts from a row-major `(n+2)²` grid whose outer ring is the fixed
    /// boundary condition.
    pub fn new(n: usize, grid: Vec<f64>) -> Self {
        assert_eq!(
            grid.len(),
            (n + 2) * (n + 2),
            "grid must include the ghost ring"
        );
        HeatReference {
            m: n + 2,
            next: grid.clone(),
            cur: grid,
        }
    }

    /// The current row-major grid, ghost ring included.
    #[cfg(test)]
    pub fn grid(&self) -> &[f64] {
        &self.cur
    }

    /// One time step; returns `Σ (next − cur)²` over the interior.
    pub fn step(&mut self) -> f64 {
        let (m, c) = (self.m, HEAT_ALPHA);
        let mut energy = 0.0;
        for i in 1..m - 1 {
            for j in 1..m - 1 {
                let at = i * m + j;
                let g = &self.cur;
                let v = (1.0 - 4.0 * c) * g[at]
                    + c * g[at - m]
                    + c * g[at + m]
                    + c * g[at - 1]
                    + c * g[at + 1];
                energy += (v - g[at]) * (v - g[at]);
                self.next[at] = v;
            }
        }
        std::mem::swap(&mut self.cur, &mut self.next);
        energy
    }
}

/// Evaluates a program elementwise; returns each output array.
pub fn eval_program(program: &Program, inputs: &[&[f64]]) -> Vec<Vec<f64>> {
    assert_eq!(inputs.len(), program.inputs, "program input count");
    let mut regs: Vec<Vec<f64>> = inputs.iter().map(|v| v.to_vec()).collect();
    for op in &program.ops {
        let (a, b) = op.operands();
        let x = &regs[a];
        let binary = |f: fn(f64, f64) -> f64| -> Vec<f64> {
            let y = &regs[b.expect("binary operation")];
            x.iter().zip(y).map(|(&x, &y)| f(x, y)).collect()
        };
        let value: Vec<f64> = match *op {
            Op::Add(..) => binary(|x, y| x + y),
            Op::Sub(..) => binary(|x, y| x - y),
            Op::Mul(..) => binary(|x, y| x * y),
            Op::Div(..) => binary(|x, y| x / y),
            Op::Max(..) => binary(f64::max),
            Op::Min(..) => binary(f64::min),
            Op::Sqrt(_) => x.iter().map(|x| x.sqrt()).collect(),
            Op::Exp(_) => x.iter().map(|x| x.exp()).collect(),
            Op::Ln(_) => x.iter().map(|x| x.ln()).collect(),
            Op::Erf(_) => x.iter().map(|&x| erf(x)).collect(),
            Op::Neg(_) => x.iter().map(|x| -x).collect(),
            Op::Abs(_) => x.iter().map(|x| x.abs()).collect(),
            Op::ScalarMul(_, c) => x.iter().map(|x| x * c).collect(),
            Op::ScalarAdd(_, c) => x.iter().map(|x| x + c).collect(),
            Op::ScalarSub(_, c) => x.iter().map(|x| x - c).collect(),
            Op::ScalarRsub(_, c) => x.iter().map(|x| c - x).collect(),
        };
        regs.push(value);
    }
    program.outputs.iter().map(|&o| regs[o].clone()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    #[test]
    fn erf_matches_tabulated_values() {
        // 16-digit values from Abramowitz & Stegun / mpmath.
        for (x, want) in [
            (0.0, 0.0),
            (0.1, 0.112_462_916_018_284_9),
            (0.5, 0.520_499_877_813_046_5),
            (1.0, 0.842_700_792_949_714_9),
            (2.0, 0.995_322_265_018_952_7),
            (2.5, 0.999_593_047_982_555),
            (3.0, 0.999_977_909_503_001_4),
            (4.0, 0.999_999_984_582_742_1),
        ] {
            assert!(
                (erf(x) - want).abs() < 1e-12,
                "erf({x}) = {} vs {want}",
                erf(x)
            );
            assert_eq!(erf(-x), -erf(x));
        }
        assert_eq!(erf(7.0), 1.0);
    }

    #[test]
    fn black_scholes_satisfies_put_call_parity() {
        let mut rng = Rng::new(11);
        for _ in 0..1000 {
            let (s, k, t) = (
                rng.range(50.0, 150.0),
                rng.range(50.0, 150.0),
                rng.range(0.05, 2.05),
            );
            let (call, put) = black_scholes(s, k, t);
            let parity = s - k * (-RISK_FREE_RATE * t).exp();
            assert!(
                (call - put - parity).abs() < 1e-10,
                "parity at s={s} k={k} t={t}"
            );
            assert!(call >= 0.0 && put >= 0.0);
        }
        // The program encoding and the closed form are the same function.
        let (s, k, t) = ([100.0, 80.0], [105.0, 90.0], [1.0, 0.5]);
        let out = eval_program(&Program::black_scholes(), &[&s, &k, &t]);
        for i in 0..2 {
            let (call, put) = black_scholes(s[i], k[i], t[i]);
            assert!((out[0][i] - call).abs() < 1e-12 && (out[1][i] - put).abs() < 1e-12);
        }
    }

    #[test]
    fn plain_cg_solves_the_4x4_poisson_problem() {
        let n = 4;
        let mut rng = Rng::new(5);
        let b = rng.vec(n * n, 0.5, 1.5);
        let (mut x, mut r) = (vec![0.0; n * n], b.clone());
        let mut p = r.clone();
        let mut rs = r.iter().map(|v| v * v).sum::<f64>();
        for _ in 0..n * n {
            let q = poisson_apply(n, &p);
            let alpha = rs / p.iter().zip(&q).map(|(p, q)| p * q).sum::<f64>();
            for i in 0..n * n {
                x[i] += alpha * p[i];
                r[i] -= alpha * q[i];
            }
            let rs_new = r.iter().map(|v| v * v).sum::<f64>();
            for i in 0..n * n {
                p[i] = r[i] + rs_new / rs * p[i];
            }
            rs = rs_new;
        }
        assert!(poisson_residual(n, &x, &b) <= 1e-12 * norm2(&b));
        // The zero vector leaves the whole right-hand side as residual.
        assert_eq!(poisson_residual(n, &vec![0.0; n * n], &b), norm2(&b));
    }

    #[test]
    fn heat_change_energy_decays() {
        let n = 16;
        let grid = Rng::new(9).vec((n + 2) * (n + 2), 0.0, 1.0);
        let mut heat = HeatReference::new(n, grid.clone());
        let energies: Vec<f64> = (0..40).map(|_| heat.step()).collect();
        assert!(
            energies.windows(2).all(|w| w[1] < w[0]),
            "energy must fall monotonically"
        );
        assert!(energies[39] > 0.0);
        // The ghost ring is the boundary condition and never moves.
        let m = n + 2;
        assert!((0..m)
            .all(|j| heat.cur[j] == grid[j] && heat.cur[(m - 1) * m + j] == grid[(m - 1) * m + j]));
    }

    #[test]
    fn random_programs_stay_finite_and_bounded() {
        let mut rng = Rng::new(21);
        let inputs: Vec<Vec<f64>> = (0..3).map(|_| rng.vec(64, 0.5, 1.5)).collect();
        let views: Vec<&[f64]> = inputs.iter().map(Vec::as_slice).collect();
        for _ in 0..200 {
            let len = 16 + rng.below(33) as usize;
            let out = eval_program(&Program::random(&mut rng, len), &views);
            assert!(out[0].iter().all(|v| v.is_finite() && v.abs() <= 1e3));
        }
    }

    #[test]
    fn close_scales_the_tolerance() {
        assert!(close(1.0 + 5e-10, 1.0, 1.0, TOL_SUM));
        assert!(!close(1.0 + 5e-9, 1.0, 1.0, TOL_SUM));
        assert!(close(1e-12, 0.0, 100.0, TOL_SUM));
        assert!(!close(f64::NAN, 0.0, 1.0, TOL_SUM));
    }
}
