//! Straight-line elementwise programs over whole arrays.
//!
//! One representation serves three workloads: Black-Scholes (`bs_stream`,
//! `scale128_sim`) is a fixed 35-operation program, and `churn_cold` draws
//! seeded random ones. A program is *issued* through the public `dense` API
//! call by call, exactly as a NumPy-style user program would run it;
//! `reference.rs` evaluates the same program in plain Rust, and `probes.rs`
//! turns it into the kernel module and task window of the same shape.

use dense::DArray;

use crate::rng::Rng;

/// One whole-array operation; operands are register indices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    Add(usize, usize),
    Sub(usize, usize),
    Mul(usize, usize),
    Div(usize, usize),
    Max(usize, usize),
    Min(usize, usize),
    Sqrt(usize),
    Exp(usize),
    Ln(usize),
    Erf(usize),
    Neg(usize),
    Abs(usize),
    ScalarMul(usize, f64),
    ScalarAdd(usize, f64),
    ScalarSub(usize, f64),
    /// `c - x`.
    ScalarRsub(usize, f64),
}

impl Op {
    /// The registers the operation reads (one or two).
    pub fn operands(&self) -> (usize, Option<usize>) {
        match *self {
            Op::Add(a, b)
            | Op::Sub(a, b)
            | Op::Mul(a, b)
            | Op::Div(a, b)
            | Op::Max(a, b)
            | Op::Min(a, b) => (a, Some(b)),
            Op::Sqrt(a) | Op::Exp(a) | Op::Ln(a) | Op::Erf(a) | Op::Neg(a) | Op::Abs(a) => {
                (a, None)
            }
            Op::ScalarMul(a, _)
            | Op::ScalarAdd(a, _)
            | Op::ScalarSub(a, _)
            | Op::ScalarRsub(a, _) => (a, None),
        }
    }

    /// The scalar parameter, for the four scalar-broadcast operations.
    pub fn scalar(&self) -> Option<f64> {
        match *self {
            Op::ScalarMul(_, c)
            | Op::ScalarAdd(_, c)
            | Op::ScalarSub(_, c)
            | Op::ScalarRsub(_, c) => Some(c),
            _ => None,
        }
    }
}

/// Registers `0..inputs` hold the input arrays; operation `j` defines
/// register `inputs + j`.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    pub inputs: usize,
    pub ops: Vec<Op>,
    pub outputs: Vec<usize>,
}

pub const RISK_FREE_RATE: f64 = 0.02;
pub const VOLATILITY: f64 = 0.3;

impl Program {
    fn push(&mut self, op: Op) -> usize {
        self.ops.push(op);
        self.inputs + self.ops.len() - 1
    }

    /// Number of registers (inputs plus one per operation).
    pub fn registers(&self) -> usize {
        self.inputs + self.ops.len()
    }

    /// European call and put prices from spot, strike and expiry arrays,
    /// written the way a NumPy user would: every intermediate is its own
    /// array operation, the normal CDF is `0.5 * (1 + erf(x / sqrt 2))`, and
    /// the discount factor is recomputed from `t`. Outputs: `[call, put]`.
    pub fn black_scholes() -> Program {
        let mut p = Program {
            inputs: 3,
            ops: Vec::new(),
            outputs: Vec::new(),
        };
        let (s, k, t) = (0, 1, 2);
        let ratio = p.push(Op::Div(s, k));
        let log_moneyness = p.push(Op::Ln(ratio));
        let drift = p.push(Op::ScalarMul(
            t,
            RISK_FREE_RATE + 0.5 * VOLATILITY * VOLATILITY,
        ));
        let numerator = p.push(Op::Add(log_moneyness, drift));
        let root_t = p.push(Op::Sqrt(t));
        let denom = p.push(Op::ScalarMul(root_t, VOLATILITY));
        let d1 = p.push(Op::Div(numerator, denom));
        let d2 = p.push(Op::Sub(d1, denom));
        let rate_t = p.push(Op::ScalarMul(t, -RISK_FREE_RATE));
        let discount = p.push(Op::Exp(rate_t));
        let kd = p.push(Op::Mul(k, discount));
        let cdf = |p: &mut Program, x: usize| {
            let scaled = p.push(Op::ScalarMul(x, std::f64::consts::FRAC_1_SQRT_2));
            let e = p.push(Op::Erf(scaled));
            let shifted = p.push(Op::ScalarAdd(e, 1.0));
            p.push(Op::ScalarMul(shifted, 0.5))
        };
        let n_d1 = cdf(&mut p, d1);
        let s_nd1 = p.push(Op::Mul(s, n_d1));
        let n_d2 = cdf(&mut p, d2);
        let kd_nd2 = p.push(Op::Mul(kd, n_d2));
        let call = p.push(Op::Sub(s_nd1, kd_nd2));
        let neg_d2 = p.push(Op::Neg(d2));
        let n_neg_d2 = cdf(&mut p, neg_d2);
        let kd_n = p.push(Op::Mul(kd, n_neg_d2));
        let neg_d1 = p.push(Op::Neg(d1));
        let n_neg_d1 = cdf(&mut p, neg_d1);
        let s_n = p.push(Op::Mul(s, n_neg_d1));
        let put = p.push(Op::Sub(kd_n, s_n));
        p.outputs = vec![call, put];
        p
    }

    /// A random program of `len` operations over three inputs drawn from
    /// `[0.5, 1.5)`. Operands favour recent registers, so programs are deep
    /// chains rather than wide fans. An upper bound on every register's
    /// magnitude is tracked while drawing, and a draw that could exceed
    /// `1e3`, take the root of a possibly negative value, or exponentiate a
    /// large one is redrawn: no program can overflow or produce a NaN, so no
    /// operation of `churn_cold` can fail for numeric reasons.
    pub fn random(rng: &mut Rng, len: usize) -> Program {
        const LIMIT: f64 = 1e3;
        let mut p = Program {
            inputs: 3,
            ops: Vec::new(),
            outputs: Vec::new(),
        };
        // (magnitude bound, known non-negative) per register.
        let mut facts: Vec<(f64, bool)> = vec![(1.5, true); 3];
        while p.ops.len() < len {
            let n = facts.len();
            let pick = |rng: &mut Rng| n - 1 - (rng.below(n.min(6) as u64) as usize);
            let (a, b) = (pick(rng), pick(rng));
            let ((ba, pa), (bb, pb)) = (facts[a], facts[b]);
            let (op, fact) = match rng.below(13) {
                0 => (Op::Add(a, b), (ba + bb, pa && pb)),
                1 => (Op::Sub(a, b), (ba + bb, false)),
                2 => (Op::Mul(a, b), (ba * bb, pa && pb)),
                3 => (Op::Max(a, b), (ba.max(bb), pa || pb)),
                4 => (Op::Min(a, b), (ba.max(bb), pa && pb)),
                5 if pa => (Op::Sqrt(a), (ba.sqrt().max(1.0), true)),
                6 if ba <= 3.0 => (Op::Exp(a), (ba.exp(), true)),
                7 => (Op::Neg(a), (ba, false)),
                8 => (Op::Abs(a), (ba, true)),
                9 => {
                    let c = rng.range(0.25, 1.25);
                    (Op::ScalarMul(a, c), (ba * c, pa))
                }
                10 => {
                    let c = rng.range(0.0, 1.0);
                    (Op::ScalarAdd(a, c), (ba + c, pa))
                }
                11 => {
                    let c = rng.range(0.0, 1.0);
                    (Op::ScalarSub(a, c), (ba + c, false))
                }
                12 => {
                    let c = rng.range(0.0, 1.0);
                    (Op::ScalarRsub(a, c), (ba + c, false))
                }
                _ => continue,
            };
            if fact.0 <= LIMIT {
                p.push(op);
                facts.push(fact);
            }
        }
        p.outputs = vec![p.registers() - 1];
        p
    }

    /// Issues the program through the dense library and returns the output
    /// arrays. Each intermediate array is dropped right after its last use,
    /// as reference counting drops a NumPy temporary — which is what lets
    /// the system treat it as a fusible temporary.
    pub fn issue(&self, inputs: &[DArray]) -> Vec<DArray> {
        assert_eq!(inputs.len(), self.inputs, "program input count");
        let mut last_use = vec![0usize; self.registers()];
        for (j, op) in self.ops.iter().enumerate() {
            let (a, b) = op.operands();
            last_use[a] = j;
            if let Some(b) = b {
                last_use[b] = j;
            }
        }
        for &out in &self.outputs {
            last_use[out] = usize::MAX;
        }
        let mut regs: Vec<Option<DArray>> = inputs.iter().cloned().map(Some).collect();
        for (j, op) in self.ops.iter().enumerate() {
            let r = |i: usize| {
                regs[i]
                    .as_ref()
                    .expect("operand is defined before use and still live")
            };
            let value = match *op {
                Op::Add(a, b) => r(a).add(r(b)),
                Op::Sub(a, b) => r(a).sub(r(b)),
                Op::Mul(a, b) => r(a).mul(r(b)),
                Op::Div(a, b) => r(a).div(r(b)),
                Op::Max(a, b) => r(a).maximum(r(b)),
                Op::Min(a, b) => r(a).minimum(r(b)),
                Op::Sqrt(a) => r(a).sqrt(),
                Op::Exp(a) => r(a).exp(),
                Op::Ln(a) => r(a).ln(),
                Op::Erf(a) => r(a).erf(),
                Op::Neg(a) => r(a).neg(),
                Op::Abs(a) => r(a).abs(),
                Op::ScalarMul(a, c) => r(a).scalar_mul(c),
                Op::ScalarAdd(a, c) => r(a).scalar_add(c),
                Op::ScalarSub(a, c) => r(a).scalar_sub(c),
                Op::ScalarRsub(a, c) => r(a).rsub_scalar(c),
            };
            regs.push(Some(value));
            let (a, b) = op.operands();
            for reg in [Some(a), b].into_iter().flatten() {
                if last_use[reg] == j {
                    regs[reg] = None;
                }
            }
        }
        self.outputs
            .iter()
            .map(|&o| regs[o].take().expect("outputs are never dropped"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn black_scholes_has_the_expected_shape() {
        let p = Program::black_scholes();
        assert_eq!((p.inputs, p.ops.len(), p.outputs.len()), (3, 35, 2));
        // Every operand refers to an earlier register.
        for (j, op) in p.ops.iter().enumerate() {
            let (a, b) = op.operands();
            assert!(a < p.inputs + j && b.is_none_or(|b| b < p.inputs + j));
        }
    }

    #[test]
    fn random_programs_repeat_per_seed_and_differ_across_seeds() {
        let draw = |seed| {
            let mut rng = Rng::new(seed);
            (0..4)
                .map(|_| Program::random(&mut rng, 24))
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(3), draw(3));
        assert_ne!(draw(3), draw(4));
        let programs = draw(3);
        assert_ne!(programs[0], programs[1]);
        assert!(programs.iter().all(|p| p.ops.len() == 24));
    }
}
