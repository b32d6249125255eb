//! The programs of `diffuse-bench`'s five workloads, at small sizes, under
//! the configuration the benchmark measures: fused, SIMD, serial executor,
//! verification off, declared privileges — with a memo small enough that
//! the random programs evict. Each is held to a plain-Rust reference written
//! here, which shares no code with the system: a wrong answer that every
//! configuration shares fails here, where the pairwise equivalence suites
//! cannot see it.
//!
//! * Black-Scholes call and put sums against the closed form, with this
//!   file's own `erf`;
//! * a CG solve of the 2-D Poisson problem, checked by `‖b − A·x‖` from a
//!   matrix-free Laplacian;
//! * haloed 5-point heat steps whose change energy is a dense reduction over
//!   interior views, against a lock-step 2-D stencil;
//! * seeded random elementwise programs against a small evaluator;
//! * a simulation-only pricing op whose simulated time and launch count
//!   repeat exactly after warm-up.

use dense::{DArray, DenseContext};
use diffuse::{AnalyzeMode, BackendKind, Context, DiffuseConfig, ExecutorKind};
use machine::MachineConfig;
use sparse::{CsrMatrix, SparseContext};
use stencil::StencilContext;

const GPUS: usize = 4;
/// Small enough that the random-program pool evicts.
const MEMO_CAPACITY: usize = 16;

fn context(gpus: usize) -> Context {
    let config = DiffuseConfig::fused(MachineConfig::with_gpus(gpus))
        .with_backend(BackendKind::Simd)
        .with_executor(ExecutorKind::Serial)
        .with_verification(false)
        .with_horizontal_fusion(false)
        .with_analyze(AnalyzeMode::Declared)
        .with_memo_capacity(MEMO_CAPACITY);
    Context::new(DiffuseConfig {
        fault_plan: None,
        ..config
    })
}

/// SplitMix64: the seeded inputs and program draws.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn vec(&mut self, n: usize, lo: f64, hi: f64) -> Vec<f64> {
        (0..n).map(|_| self.range(lo, hi)).collect()
    }
}

/// Whether `got` is within `tol` of `want`, relative to `scale`.
fn close(got: f64, want: f64, scale: f64, tol: f64) -> bool {
    got.is_finite() && (got - want).abs() <= tol * scale.abs()
}

/// One whole-array operation over registers: inputs first, then one
/// register per operation.
#[derive(Debug, Clone, Copy)]
enum Op {
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
    Scale(usize, f64),
    Shift(usize, f64),
    /// `c - x`.
    Rsub(usize, f64),
}

impl Op {
    fn operands(self) -> [Option<usize>; 2] {
        match self {
            Op::Add(a, b) | Op::Sub(a, b) | Op::Mul(a, b) | Op::Div(a, b) => [Some(a), Some(b)],
            Op::Max(a, b) | Op::Min(a, b) => [Some(a), Some(b)],
            Op::Sqrt(a) | Op::Exp(a) | Op::Ln(a) | Op::Erf(a) | Op::Neg(a) | Op::Abs(a) => {
                [Some(a), None]
            }
            Op::Scale(a, _) | Op::Shift(a, _) | Op::Rsub(a, _) => [Some(a), None],
        }
    }
}

/// Issues `ops` through the dense library, dropping each register after
/// its last use (as reference counting drops a NumPy temporary, which is
/// what makes it a fusible temporary), and returns the `outputs`.
fn issue(inputs: &[DArray], ops: &[Op], outputs: &[usize]) -> Vec<DArray> {
    let mut last_use = vec![0; inputs.len() + ops.len()];
    for (j, op) in ops.iter().enumerate() {
        op.operands()
            .into_iter()
            .flatten()
            .for_each(|r| last_use[r] = j);
    }
    outputs.iter().for_each(|&o| last_use[o] = usize::MAX);
    let mut regs: Vec<Option<DArray>> = inputs.iter().cloned().map(Some).collect();
    for (j, &op) in ops.iter().enumerate() {
        let r = |i: usize| regs[i].as_ref().expect("a live register");
        let value = match op {
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
            Op::Scale(a, c) => r(a).scalar_mul(c),
            Op::Shift(a, c) => r(a).scalar_add(c),
            Op::Rsub(a, c) => r(a).rsub_scalar(c),
        };
        regs.push(Some(value));
        for reg in op.operands().into_iter().flatten() {
            if last_use[reg] == j {
                regs[reg] = None;
            }
        }
    }
    outputs
        .iter()
        .map(|&o| regs[o].take().expect("an output"))
        .collect()
}

/// The plain-Rust evaluator of `ops` (no `Erf`: random programs draw none).
fn evaluate(inputs: &[Vec<f64>], ops: &[Op]) -> Vec<f64> {
    let mut regs = inputs.to_vec();
    for &op in ops {
        let [a, b] = op.operands().map(|r| r.map(|r| regs[r].clone()));
        let (a, b) = (a.expect("one operand"), b.unwrap_or_default());
        let zip = |f: fn(f64, f64) -> f64| a.iter().zip(&b).map(|(&x, &y)| f(x, y)).collect();
        let map = |f: &dyn Fn(f64) -> f64| a.iter().map(|&x| f(x)).collect();
        regs.push(match op {
            Op::Add(..) => zip(|x, y| x + y),
            Op::Sub(..) => zip(|x, y| x - y),
            Op::Mul(..) => zip(|x, y| x * y),
            Op::Div(..) => zip(|x, y| x / y),
            Op::Max(..) => zip(f64::max),
            Op::Min(..) => zip(f64::min),
            Op::Sqrt(_) => map(&f64::sqrt),
            Op::Exp(_) => map(&f64::exp),
            Op::Ln(_) => map(&f64::ln),
            Op::Erf(_) => map(&erf),
            Op::Neg(_) => map(&|x| -x),
            Op::Abs(_) => map(&f64::abs),
            Op::Scale(_, c) => map(&|x| x * c),
            Op::Shift(_, c) => map(&|x| x + c),
            Op::Rsub(_, c) => map(&|x| c - x),
        });
    }
    regs.pop().expect("a program has operations")
}

/// The error function to about 1e-15: the Maclaurin series below 2.5, the
/// continued fraction of `erfc` above.
fn erf(x: f64) -> f64 {
    let a = x.abs();
    let value = if a < 2.5 {
        let (mut term, mut sum, mut n) = (a, a, 0.0);
        while term.abs() > 1e-17 * sum {
            n += 1.0;
            term *= -a * a / n;
            sum += term / (2.0 * n + 1.0);
        }
        sum * std::f64::consts::FRAC_2_SQRT_PI
    } else if a > 6.0 {
        1.0
    } else {
        // erfc a = e^(−a²)/√π · 1/(a + (1/2)/(a + 1/(a + (3/2)/(a + …)))),
        // evaluated from the tail.
        let mut f = a;
        for k in (1..120).rev() {
            f = a + (k as f64 / 2.0) / f;
        }
        1.0 - (-a * a).exp() / (f * std::f64::consts::PI.sqrt())
    };
    value.copysign(x)
}

const RATE: f64 = 0.02;
const VOL: f64 = 0.3;

/// European call and put from spot, strike and expiry, written as a NumPy
/// user would: every intermediate its own array, the normal CDF as
/// `0.5 (1 + erf(x / √2))`. Outputs: registers of call and put.
fn black_scholes() -> (Vec<Op>, [usize; 2]) {
    let mut ops = Vec::new();
    let mut push = |op| {
        ops.push(op);
        2 + ops.len()
    };
    let (s, k, t) = (0, 1, 2);
    let ratio = push(Op::Div(s, k));
    let log_moneyness = push(Op::Ln(ratio));
    let drift = push(Op::Scale(t, RATE + 0.5 * VOL * VOL));
    let numerator = push(Op::Add(log_moneyness, drift));
    let root_t = push(Op::Sqrt(t));
    let denom = push(Op::Scale(root_t, VOL));
    let d1 = push(Op::Div(numerator, denom));
    let d2 = push(Op::Sub(d1, denom));
    let rate_t = push(Op::Scale(t, -RATE));
    let discount = push(Op::Exp(rate_t));
    let kd = push(Op::Mul(k, discount));
    let mut cdf = |x| {
        let scaled = push(Op::Scale(x, std::f64::consts::FRAC_1_SQRT_2));
        let e = push(Op::Erf(scaled));
        let shifted = push(Op::Shift(e, 1.0));
        push(Op::Scale(shifted, 0.5))
    };
    let (n_d1, n_d2) = (cdf(d1), cdf(d2));
    let s_nd1 = push(Op::Mul(s, n_d1));
    let kd_nd2 = push(Op::Mul(kd, n_d2));
    let call = push(Op::Sub(s_nd1, kd_nd2));
    let (neg_d2, neg_d1) = (push(Op::Neg(d2)), push(Op::Neg(d1)));
    let mut cdf = |x| {
        let scaled = push(Op::Scale(x, std::f64::consts::FRAC_1_SQRT_2));
        let e = push(Op::Erf(scaled));
        let shifted = push(Op::Shift(e, 1.0));
        push(Op::Scale(shifted, 0.5))
    };
    let (n_neg_d2, n_neg_d1) = (cdf(neg_d2), cdf(neg_d1));
    let kd_n = push(Op::Mul(kd, n_neg_d2));
    let s_n = push(Op::Mul(s, n_neg_d1));
    let put = push(Op::Sub(kd_n, s_n));
    (ops, [call, put])
}

/// The closed-form `(Σ call, Σ put)`.
fn black_scholes_sums(s: &[f64], k: &[f64], t: &[f64]) -> (f64, f64) {
    let cdf = |x: f64| 0.5 * (1.0 + erf(x * std::f64::consts::FRAC_1_SQRT_2));
    let mut sums = (0.0, 0.0);
    for i in 0..s.len() {
        let root = VOL * t[i].sqrt();
        let d1 = ((s[i] / k[i]).ln() + (RATE + 0.5 * VOL * VOL) * t[i]) / root;
        let d2 = d1 - root;
        let kd = k[i] * (-RATE * t[i]).exp();
        sums.0 += s[i] * cdf(d1) - kd * cdf(d2);
        sums.1 += kd * cdf(-d2) - s[i] * cdf(-d1);
    }
    sums
}

fn option_inputs(rng: &mut Rng, n: usize) -> [Vec<f64>; 3] {
    [
        rng.vec(n, 50.0, 150.0),
        rng.vec(n, 50.0, 150.0),
        rng.vec(n, 0.05, 2.05),
    ]
}

#[test]
fn black_scholes_sums_match_the_closed_form() {
    let ctx = context(GPUS);
    let np = DenseContext::new(ctx.clone());
    let inputs = option_inputs(&mut Rng(1), 256 * GPUS);
    let (want_call, want_put) = black_scholes_sums(&inputs[0], &inputs[1], &inputs[2]);
    let arrays = inputs.clone().map(|v| np.from_vec(&[v.len() as u64], v));
    let (ops, outputs) = black_scholes();
    for _ in 0..4 {
        let sums: Vec<DArray> = issue(&arrays, &ops, &outputs)
            .iter()
            .map(DArray::sum)
            .collect();
        let got: Vec<f64> = sums
            .iter()
            .map(|s| s.scalar_value().expect("functional"))
            .collect();
        // The system's erf is Abramowitz–Stegun 7.1.26 (1.5e-7 absolute).
        assert!(
            close(got[0], want_call, want_call, 1e-6),
            "Σcall {} vs {want_call}",
            got[0]
        );
        assert!(
            close(got[1], want_put, want_put, 1e-6),
            "Σput {} vs {want_put}",
            got[1]
        );
    }
    let stats = ctx.stats();
    assert!(
        stats.memo_hits > 0 && stats.tasks_launched < stats.tasks_submitted,
        "{stats:?}"
    );
}

/// `y = A·x` for the 5-point Laplacian of an `n × n` grid, matrix-free.
fn laplacian(n: usize, x: &[f64]) -> Vec<f64> {
    let mut y = vec![0.0; n * n];
    for i in 0..n {
        for j in 0..n {
            let at = i * n + j;
            let neighbours = [
                (i > 0).then(|| at - n),
                (i + 1 < n).then(|| at + n),
                (j > 0).then(|| at - 1),
                (j + 1 < n).then(|| at + 1),
            ];
            y[at] = 4.0 * x[at] - neighbours.into_iter().flatten().map(|k| x[k]).sum::<f64>();
        }
    }
    y
}

#[test]
fn cg_solves_the_poisson_problem() {
    let (grid, tol) = (8usize, 1e-8);
    let ctx = context(GPUS);
    let np = DenseContext::new(ctx.clone());
    let sp = SparseContext::new(&ctx);
    let a = CsrMatrix::poisson_2d(&sp, grid as u64);
    let b = Rng(2).vec(grid * grid, 0.5, 1.5);
    let bb: f64 = b.iter().map(|v| v * v).sum();
    for _ in 0..2 {
        let rhs = np.from_vec(&[a.rows()], b.clone());
        let (mut x, mut r) = (np.zeros(&[a.rows()]), rhs.copy());
        let mut p = r.copy();
        let mut rs_old = r.dot(&r);
        let mut iters = 0;
        while rs_old.scalar_value().expect("functional") > tol * tol * bb {
            assert!(iters < 200, "CG did not converge");
            for _ in 0..10 {
                let q = np.wrap(a.spmv(p.handle()));
                let alpha = rs_old.div(&p.dot(&q));
                x = x.axpy(&alpha, &p, 1.0);
                r = r.axpy(&alpha, &q, -1.0);
                let rs_new = r.dot(&r);
                let beta = rs_new.div(&rs_old);
                p = r.axpy(&beta, &p, 1.0);
                rs_old = rs_new;
            }
            iters += 10;
        }
        let x = x.to_vec().expect("functional");
        let ax = laplacian(grid, &x);
        let residual = b
            .iter()
            .zip(&ax)
            .map(|(b, ax)| (b - ax) * (b - ax))
            .sum::<f64>();
        assert!(
            residual.sqrt() <= 1e-7 * bb.sqrt(),
            "‖b − A·x‖² = {residual} after {iters}"
        );
    }
    assert!(ctx.stats().memo_hits > 0);
}

#[test]
fn haloed_heat_steps_match_a_lock_step_stencil() {
    let (n, c) = (16usize, 0.2);
    let m = n + 2;
    let ctx = context(GPUS);
    let np = DenseContext::new(ctx.clone());
    let st = StencilContext::new(&ctx);
    let mut grid = Rng(3).vec(m * m, 0.0, 1.0);
    let upload = || {
        np.from_vec(&[m as u64, m as u64], grid.clone())
            .handle()
            .clone()
    };
    let (mut cur, mut next) = (upload(), upload());
    let mut reference_next = grid.clone();
    let interior = |g: &diffuse::StoreHandle| {
        np.wrap(g.clone())
            .slice_2d(1..n as u64 + 1, 1..n as u64 + 1)
    };
    for _ in 0..3 {
        let mut energy = None;
        for _ in 0..4 {
            st.star_2d(&cur, &next, [1.0 - 4.0 * c, c, c, c, c]);
            energy = Some(interior(&next).sub(&interior(&cur)).sum_sq());
            std::mem::swap(&mut cur, &mut next);
        }
        let got = energy.unwrap().scalar_value().expect("functional");
        let mut want = 0.0;
        for _ in 0..4 {
            want = 0.0;
            for i in 1..m - 1 {
                for j in 1..m - 1 {
                    let at = i * m + j;
                    let g = &grid;
                    let v = (1.0 - 4.0 * c) * g[at]
                        + c * (g[at - m] + g[at + m] + g[at - 1] + g[at + 1]);
                    want += (v - g[at]) * (v - g[at]);
                    reference_next[at] = v;
                }
            }
            std::mem::swap(&mut grid, &mut reference_next);
        }
        assert!(
            close(got, want, want, 1e-9),
            "change energy {got} vs {want}"
        );
    }
    let last = ctx.read_store(&cur).expect("functional");
    assert!(last
        .iter()
        .zip(&grid)
        .all(|(g, w)| close(*g, *w, 1.0, 1e-12)));
}

/// A random program of `len` operations over three inputs in `[0.5, 1.5)`,
/// operands favouring recent registers. A bound on every register's
/// magnitude is tracked while drawing, and a draw that could pass `1e3`,
/// take the root of a possibly negative value or exponentiate a large one
/// is redrawn.
fn random_program(rng: &mut Rng, len: usize) -> Vec<Op> {
    let mut ops = Vec::new();
    let mut facts: Vec<(f64, bool)> = vec![(1.5, true); 3];
    while ops.len() < len {
        let n = facts.len();
        let (a, b) = (n - 1 - rng.below(n.min(6)), n - 1 - rng.below(n.min(6)));
        let ((ba, pa), (bb, pb)) = (facts[a], facts[b]);
        let c = rng.range(0.25, 1.0);
        let (op, fact) = match rng.below(12) {
            0 => (Op::Add(a, b), (ba + bb, pa && pb)),
            1 => (Op::Sub(a, b), (ba + bb, false)),
            2 => (Op::Mul(a, b), (ba * bb, pa && pb)),
            3 => (Op::Max(a, b), (ba.max(bb), pa || pb)),
            4 => (Op::Min(a, b), (ba.max(bb), pa && pb)),
            5 if pa => (Op::Sqrt(a), (ba.sqrt().max(1.0), true)),
            6 if ba <= 3.0 => (Op::Exp(a), (ba.exp(), true)),
            7 => (Op::Neg(a), (ba, false)),
            8 => (Op::Abs(a), (ba, true)),
            9 => (Op::Scale(a, c), (ba * c, pa)),
            10 => (Op::Shift(a, c), (ba + c, pa)),
            11 => (Op::Rsub(a, c), (ba + c, false)),
            _ => continue,
        };
        if fact.0 <= 1e3 {
            ops.push(op);
            facts.push(fact);
        }
    }
    ops
}

#[test]
fn random_programs_match_the_evaluator_under_eviction() {
    let mut rng = Rng(4);
    let inputs: Vec<Vec<f64>> = (0..3).map(|_| rng.vec(64 * GPUS, 0.5, 1.5)).collect();
    let pool: Vec<Vec<Op>> = (0..3 * MEMO_CAPACITY)
        .map(|_| {
            let len = 8 + rng.below(17);
            random_program(&mut rng, len)
        })
        .collect();
    let ctx = context(GPUS);
    let np = DenseContext::new(ctx.clone());
    let arrays: Vec<DArray> = inputs
        .iter()
        .map(|v| np.from_vec(&[v.len() as u64], v.clone()))
        .collect();
    for _ in 0..6 * MEMO_CAPACITY {
        let ops = &pool[rng.below(pool.len())];
        let out = issue(&arrays, ops, &[2 + ops.len()]).remove(0);
        let got = out.sum().scalar_value().expect("functional");
        let want = evaluate(&inputs, ops);
        let (sum, magnitude) = (
            want.iter().sum::<f64>(),
            want.iter().map(|v| v.abs()).sum::<f64>(),
        );
        assert!(
            close(got, sum, magnitude, 1e-9),
            "{ops:?}: Σ = {got}, evaluator {sum}"
        );
    }
    let stats = ctx.stats();
    assert!(stats.memo_evictions > 0 && stats.memo_hits > 0, "{stats:?}");
}

#[test]
fn simulation_only_pricing_repeats_exactly_after_warm_up() {
    let gpus = 16;
    let ctx = Context::new(context(gpus).config().clone().simulation_only());
    let np = DenseContext::new(ctx.clone());
    let inputs = option_inputs(&mut Rng(5), 64 * gpus);
    let arrays = inputs.map(|v| np.from_vec(&[v.len() as u64], v));
    let (ops, outputs) = black_scholes();
    let mut seen = Vec::new();
    for _ in 0..6 {
        ctx.reset_timing();
        let before = ctx.stats();
        let sums: Vec<DArray> = issue(&arrays, &ops, &outputs)
            .iter()
            .map(DArray::sum)
            .collect();
        ctx.flush();
        let done = ctx.stats().since(&before);
        seen.push((
            ctx.elapsed().to_bits(),
            done.tasks_submitted,
            done.tasks_launched,
        ));
        drop(sums);
    }
    let (_, submitted, launched) = seen[3];
    assert!(
        launched < submitted,
        "{launched} launches for {submitted} tasks: nothing fused"
    );
    assert!(
        seen[3..].iter().all(|s| *s == seen[3]),
        "not deterministic: {seen:?}"
    );
}
