//! Times the interpreter against the SIMD kernel backend on the fused CG,
//! Jacobi and Black-Scholes pricing windows, and the sparse library's SpMV
//! stage against a plain native CSR loop, and records the trajectory in
//! `BENCH_kernel_backends.json` (schema in `docs/BENCHMARKS.md`).
//!
//! The windows are built exactly the way `diffuse::Context` builds them: the
//! constituent task bodies are composed in program order and pushed through
//! `kernel::Pipeline::default()`, so the measured artifact is the real fused
//! loop nest, not a synthetic microbenchmark. Per window the binary reports
//!
//! * **simd_speedup** — interp ÷ simd steady-state execution time per
//!   element, both compiled kernels alive in one process and timed in
//!   alternating pairs by `bench::paired` (the quantity memoized execution
//!   pays per iteration),
//! * **compile_ns** — one-time host cost of `KernelBackend::compile` per
//!   backend (the quantity memoization amortizes; recorded, not gated).
//!
//! The `spmv` window is `cg_small`'s opaque stage: the 32×32 Poisson matrix
//! exactly as `sparse::CsrMatrix::poisson_2d` stores it (indices as `f64`),
//! run through `CompiledKernel::execute` under the SIMD backend, paired
//! against a plain Rust CSR loop over the same data with its indices
//! converted to `usize` ahead of time. Its **native_ratio** is floor ÷ stage
//! per call: 1.0 would mean validating and converting the `f64` indices
//! costs nothing.
//!
//! Absolute nanoseconds are machine-dependent, so the regression gate runs on
//! the **ratios**: `kernel_backends --check` fails if one regressed more than
//! [`TOLERANCE_PCT`] against the checked-in baseline, if the SIMD backend is
//! no longer faster than the interpreter at all, or if the SpMV stage falls
//! below [`SPMV_MIN_RATIO`] of the native loop's speed.
//!
//! ```sh
//! cargo run --release --bin kernel_backends            # rewrite the baseline
//! cargo run --release --bin kernel_backends -- --check # CI regression gate
//! ```

use bench::{Bound, JsonValue};
use diffuse::{Context, DiffuseConfig};
use kernel::{
    BackendKind, BinaryOp, BufferId, BufferRole, CompiledKernel, IndexWidth, KernelModule,
    LoopBuilder, OpaqueOp, Pipeline, UnaryOp, ValueId,
};
use machine::MachineConfig;
use sparse::{CsrMatrix, SparseContext};

/// Elements per buffer in the measured windows.
const N: usize = 1 << 15;
/// Alternating pairs per window.
const PAIRS: usize = 60;
/// Kernel executions per timed batch, indexed like [`BACKENDS`]: the
/// interpreter is ≈20× slower per element, so its batches run fewer.
const EXECS: [u64; 2] = [4, 40];
/// Compilations per backend behind the recorded `compile_ns`.
const COMPILES: u64 = 2000;
/// Allowed regression of a window's speedup against the recorded one,
/// percent. The floor of 1.0 is the SIMD backend's reason to exist:
/// resolving ops once and streaming them over lanes must beat re-matching
/// the IR per element.
const TOLERANCE_PCT: f64 = 20.0;
/// Grid side of the `spmv` window's Poisson matrix: `cg_small`'s.
const SPMV_GRID: u64 = 32;
/// SpMV calls per timed batch (≈10 µs each).
const SPMV_CALLS: u64 = 20;
/// Absolute floor of the `spmv` window's native ratio. A stage that
/// converted each index with a saturating `as usize` read ≈0.26; one that
/// validates once and converts exactly reads ≈0.5–0.6.
const SPMV_MIN_RATIO: f64 = 0.35;

/// The fused CG vector window: x += alpha*p; r -= alpha*q; rs += r*r;
/// p = r + beta*p — the four vector updates between SpMVs that Diffuse fuses
/// into one launch (buffers: 0=x, 1=p, 2=q, 3=r, 4=rs; scalars: alpha, beta).
fn cg_window() -> (KernelModule, Vec<Vec<f64>>, Vec<f64>) {
    let mut m = KernelModule::new(5);
    m.set_role(BufferId(0), BufferRole::InOut);
    m.set_role(BufferId(1), BufferRole::InOut);
    m.set_role(BufferId(3), BufferRole::InOut);
    m.set_role(BufferId(4), BufferRole::Reduction);

    let mut axpy_x = LoopBuilder::new("axpy_x", BufferId(0));
    let p = axpy_x.load(BufferId(1));
    let x = axpy_x.load(BufferId(0));
    let alpha = axpy_x.param(0);
    let ap = axpy_x.mul(alpha, p);
    let xv = axpy_x.add(x, ap);
    axpy_x.store(BufferId(0), xv);
    m.push_loop(axpy_x.finish());

    let mut axpy_r = LoopBuilder::new("axpy_r", BufferId(3));
    let q = axpy_r.load(BufferId(2));
    let r = axpy_r.load(BufferId(3));
    let alpha = axpy_r.param(0);
    let nalpha = axpy_r.unary(kernel::UnaryOp::Neg, alpha);
    let aq = axpy_r.mul(nalpha, q);
    let rv = axpy_r.add(r, aq);
    axpy_r.store(BufferId(3), rv);
    m.push_loop(axpy_r.finish());

    let mut dot = LoopBuilder::new("dot_rr", BufferId(3));
    let r = dot.load(BufferId(3));
    let rr = dot.mul(r, r);
    dot.reduce(BufferId(4), kernel::ReduceOp::Sum, rr);
    m.push_loop(dot.finish());

    let mut aypx = LoopBuilder::new("aypx_p", BufferId(1));
    let r = aypx.load(BufferId(3));
    let p = aypx.load(BufferId(1));
    let beta = aypx.param(1);
    let bp = aypx.mul(beta, p);
    let pv = aypx.add(r, bp);
    aypx.store(BufferId(1), pv);
    m.push_loop(aypx.finish());

    let lens = [N, N, N, N, 1];
    let fused = Pipeline::default().run(m, &lens).module;
    let buffers: Vec<Vec<f64>> = (0..4)
        .map(|b| (0..N).map(|i| 1.0 + (b as f64) * 0.25 + (i % 97) as f64 * 1e-3).collect())
        .chain(std::iter::once(vec![0.0]))
        .collect();
    (fused, buffers, vec![1.0e-3, 0.5])
}

/// The fused Jacobi correction window: residual = b - ax;
/// correction = residual/diag; x += correction — the elementwise tail after
/// the GEMV, with both temporaries demoted to locals and forwarded away
/// (buffers: 0=b, 1=ax, 2=x, 3=residual(local), 4=correction(local);
/// scalar: 1/diag).
fn jacobi_window() -> (KernelModule, Vec<Vec<f64>>, Vec<f64>) {
    let mut m = KernelModule::new(5);
    m.set_role(BufferId(2), BufferRole::InOut);
    m.set_role(BufferId(3), BufferRole::Local);
    m.set_role(BufferId(4), BufferRole::Local);

    let mut sub = LoopBuilder::new("residual", BufferId(0));
    let b = sub.load(BufferId(0));
    let ax = sub.load(BufferId(1));
    let res = sub.binary(kernel::BinaryOp::Sub, b, ax);
    sub.store(BufferId(3), res);
    m.push_loop(sub.finish());

    let mut scale = LoopBuilder::new("correction", BufferId(3));
    let res = scale.load(BufferId(3));
    let inv = scale.param(0);
    let cor = scale.mul(res, inv);
    scale.store(BufferId(4), cor);
    m.push_loop(scale.finish());

    let mut add = LoopBuilder::new("update", BufferId(2));
    let x = add.load(BufferId(2));
    let cor = add.load(BufferId(4));
    let xv = add.add(x, cor);
    add.store(BufferId(2), xv);
    m.push_loop(add.finish());

    let lens = [N; 5];
    let fused = Pipeline::default().run(m, &lens).module;
    let buffers: Vec<Vec<f64>> = (0..5)
        .map(|b| (0..N).map(|i| 1.0 + (b as f64) * 0.125 + (i % 53) as f64 * 1e-3).collect())
        .collect();
    (fused, buffers, vec![1.0 / 64.0])
}

/// A window under construction: each library call appends its task body
/// (the dense library's one-loop generators) in program order, writing a
/// fresh temporary, and each scalar operand becomes the next scalar
/// parameter, as `diffuse::Context` concatenates them when it fuses.
struct Tape {
    module: KernelModule,
    scalars: Vec<f64>,
}

impl Tape {
    fn task(
        &mut self,
        name: &str,
        inputs: &[BufferId],
        scalar: Option<f64>,
        body: impl FnOnce(&mut LoopBuilder, &[ValueId], Option<ValueId>) -> ValueId,
    ) -> BufferId {
        let out = self.module.add_local();
        let mut b = LoopBuilder::new(name, out);
        let xs: Vec<ValueId> = inputs.iter().map(|&buf| b.load(buf)).collect();
        let param = scalar.map(|v| {
            self.scalars.push(v);
            b.param(self.scalars.len() - 1)
        });
        let v = body(&mut b, &xs, param);
        b.store(out, v);
        self.module.push_loop(b.finish());
        out
    }

    fn binary(&mut self, op: BinaryOp, x: BufferId, y: BufferId) -> BufferId {
        self.task("binary", &[x, y], None, |b, v, _| b.binary(op, v[0], v[1]))
    }

    fn unary(&mut self, op: UnaryOp, x: BufferId) -> BufferId {
        self.task("unary", &[x], None, |b, v, _| b.unary(op, v[0]))
    }

    fn scalar(&mut self, op: BinaryOp, x: BufferId, c: f64) -> BufferId {
        self.task("scalar", &[x], Some(c), |b, v, p| {
            b.binary(op, v[0], p.expect("a scalar task has a parameter"))
        })
    }
}

/// The fused Black-Scholes pricing window, the whole fused launch of
/// `diffuse-bench`'s `bs_stream`: one pass of `apps::black_scholes::price`,
/// 33 elementwise library calls whose temporaries are all task-local except
/// the two prices (buffers: 0=S, 1=K, 2=T, then one per call). Per element
/// it evaluates one `ln`, one `sqrt`, one `exp` and four `erf`s.
fn pricing_window() -> WindowCase {
    const RATE: f64 = 0.02;
    const VOLATILITY: f64 = 0.3;
    let mut tape = Tape {
        module: KernelModule::new(3),
        scalars: Vec::new(),
    };
    let (s, k, t) = (BufferId(0), BufferId(1), BufferId(2));
    let cdf = |tape: &mut Tape, x| {
        let scaled = tape.scalar(BinaryOp::Mul, x, std::f64::consts::FRAC_1_SQRT_2);
        let e = tape.unary(UnaryOp::Erf, scaled);
        let shifted = tape.scalar(BinaryOp::Add, e, 1.0);
        tape.scalar(BinaryOp::Mul, shifted, 0.5)
    };
    let ratio = tape.binary(BinaryOp::Div, s, k);
    let log_moneyness = tape.unary(UnaryOp::Ln, ratio);
    let drift = tape.scalar(BinaryOp::Mul, t, RATE + 0.5 * VOLATILITY * VOLATILITY);
    let numerator = tape.binary(BinaryOp::Add, log_moneyness, drift);
    let root_t = tape.unary(UnaryOp::Sqrt, t);
    let denom = tape.scalar(BinaryOp::Mul, root_t, VOLATILITY);
    let d1 = tape.binary(BinaryOp::Div, numerator, denom);
    let d2 = tape.binary(BinaryOp::Sub, d1, denom);
    let rate_t = tape.scalar(BinaryOp::Mul, t, -RATE);
    let discount = tape.unary(UnaryOp::Exp, rate_t);
    let kd = tape.binary(BinaryOp::Mul, k, discount);
    let n_d1 = cdf(&mut tape, d1);
    let s_nd1 = tape.binary(BinaryOp::Mul, s, n_d1);
    let n_d2 = cdf(&mut tape, d2);
    let kd_nd2 = tape.binary(BinaryOp::Mul, kd, n_d2);
    let call = tape.binary(BinaryOp::Sub, s_nd1, kd_nd2);
    let neg_d2 = tape.unary(UnaryOp::Neg, d2);
    let n_neg_d2 = cdf(&mut tape, neg_d2);
    let kd_n = tape.binary(BinaryOp::Mul, kd, n_neg_d2);
    let neg_d1 = tape.unary(UnaryOp::Neg, d1);
    let n_neg_d1 = cdf(&mut tape, neg_d1);
    let s_n = tape.binary(BinaryOp::Mul, s, n_neg_d1);
    let put = tape.binary(BinaryOp::Sub, kd_n, s_n);
    let Tape {
        mut module,
        scalars,
    } = tape;
    module.set_role(call, BufferRole::Output);
    module.set_role(put, BufferRole::Output);

    let lens = vec![N; module.num_buffers() as usize];
    let fused = Pipeline::default().run(module, &lens).module;
    // Spot and strike in [50, 150), expiry in [0.05, 2.05), as the app draws
    // them.
    let spread = |i: usize, salt: usize| ((i * 7919 + salt * 104_729) % 1000) as f64 / 1000.0;
    let buffers: Vec<Vec<f64>> = (0..fused.num_buffers() as usize)
        .map(|b| match b {
            0 | 1 => (0..N).map(|i| 50.0 + 100.0 * spread(i, b)).collect(),
            2 => (0..N).map(|i| 0.05 + 2.0 * spread(i, b)).collect(),
            _ => vec![0.0; N],
        })
        .collect();
    (fused, buffers, scalars)
}

/// Steady-state execution nanoseconds per element over one timed batch.
fn batch_ns_per_element(
    kernel: &dyn CompiledKernel,
    execs: u64,
    buffers: &mut [Vec<f64>],
    scalars: &[f64],
) -> f64 {
    let ns = bench::batch_ns(execs, || kernel.execute(buffers, scalars).expect("kernel failed"));
    ns / (execs * N as u64) as f64
}

/// The measured backends, in column order.
const BACKENDS: [BackendKind; 2] = [BackendKind::Interp, BackendKind::Simd];

struct WindowResult {
    window: &'static str,
    /// `bench` key of the gated ratio line.
    key: String,
    /// interp ÷ simd per-element execution time (the gated ratio).
    speedup: bench::Paired,
    /// One-time compile ns, indexed like [`BACKENDS`].
    compile_ns: [f64; 2],
}

/// A benchmark case: the module to run plus its input buffers and scalars.
type WindowCase = (KernelModule, Vec<Vec<f64>>, Vec<f64>);

fn measure_window(window: &'static str, build: fn() -> WindowCase) -> WindowResult {
    let (module, buffers, scalars) = build();
    let backends = BACKENDS.map(BackendKind::backend);
    let compile_ns = backends.each_ref().map(|backend| {
        let compile = || drop(backend.compile(&module).expect("compile failed"));
        bench::batch_ns(COMPILES, compile) / COMPILES as f64
    });
    let [interp, simd] = backends.each_ref().map(|b| b.compile(&module).expect("compile failed"));
    let (mut interp_bufs, mut simd_bufs) = (buffers.clone(), buffers);
    // Warm up once (page in buffers, populate caches).
    batch_ns_per_element(interp.as_ref(), 1, &mut interp_bufs, &scalars);
    batch_ns_per_element(simd.as_ref(), 1, &mut simd_bufs, &scalars);
    let speedup = bench::paired(
        PAIRS,
        || batch_ns_per_element(interp.as_ref(), EXECS[0], &mut interp_bufs, &scalars),
        || batch_ns_per_element(simd.as_ref(), EXECS[1], &mut simd_bufs, &scalars),
    );
    let key = format!("kernel_backends/{window}/simd_speedup");
    WindowResult { window, key, speedup, compile_ns }
}

/// The `spmv` window's data, read back from a matrix the sparse library
/// built: `[pos, crd, vals, x, y]`.
fn spmv_buffers() -> Vec<Vec<f64>> {
    let ctx = Context::new(DiffuseConfig::fused(MachineConfig::single_node(1)));
    let a = CsrMatrix::poisson_2d(&SparseContext::new(&ctx), SPMV_GRID);
    let read = |store| ctx.read_store(store).expect("the matrix holds data");
    let rows = a.rows() as usize;
    let x = (0..rows).map(|i| 1.0 + (i % 89) as f64 * 1e-2).collect();
    vec![read(&a.pos), read(&a.crd), read(&a.vals), x, vec![0.0; rows]]
}

/// `y = A x` over indices converted to `usize` ahead of time: what the
/// stage would cost if its indices were native integers.
fn native_spmv(pos: &[usize], crd: &[usize], vals: &[f64], x: &[f64], y: &mut [f64]) {
    for (r, y) in y.iter_mut().enumerate() {
        let mut acc = 0.0;
        for k in pos[r]..pos[r + 1] {
            acc += vals[k] * x[crd[k]];
        }
        *y = acc;
    }
}

/// Times the SIMD backend's SpMV stage against [`native_spmv`] in
/// alternating pairs; the ratio is floor ÷ stage ns per call.
fn measure_spmv() -> bench::Paired {
    let mut module = KernelModule::new(5);
    module.set_role(BufferId(4), BufferRole::Output);
    module.push_opaque(OpaqueOp::SpMvCsr {
        pos: BufferId(0),
        crd: BufferId(1),
        vals: BufferId(2),
        x: BufferId(3),
        y: BufferId(4),
        index_width: IndexWidth::U32,
    });
    let stage = BackendKind::Simd.backend().compile(&module).expect("compile failed");
    let mut buffers = spmv_buffers();
    let to_usize = |b: &[f64]| b.iter().map(|&i| i as usize).collect::<Vec<_>>();
    let (pos, crd) = (to_usize(&buffers[0]), to_usize(&buffers[1]));
    let (vals, x) = (buffers[2].clone(), buffers[3].clone());
    let mut y = vec![0.0; buffers[4].len()];
    native_spmv(&pos, &crd, &vals, &x, &mut y);
    stage.execute(&mut buffers, &[]).expect("spmv failed");
    assert_eq!(y, buffers[4], "the stage and the native loop disagree");
    let per_call = |ns: f64| ns / SPMV_CALLS as f64;
    bench::paired(
        PAIRS,
        || {
            per_call(bench::batch_ns(SPMV_CALLS, || {
                native_spmv(&pos, &crd, &vals, &x, std::hint::black_box(&mut y));
            }))
        },
        || {
            per_call(bench::batch_ns(SPMV_CALLS, || {
                stage.execute(&mut buffers, &[]).expect("spmv failed");
            }))
        },
    )
}

fn main() {
    println!("=== Kernel backends: interpreter vs SIMD (wall-clock) ===");
    println!("({N} elements/buffer, {PAIRS} alternating pairs per window)\n");
    println!(
        "{:<10}{:>14}{:>12}{:>10}{:>20}{:>14}{:>12}",
        "Window", "interp ns/e", "simd ns/e", "simd spd", "(pair quartiles)", "simd compile", "int compile"
    );
    let results = [
        measure_window("cg", cg_window),
        measure_window("jacobi", jacobi_window),
        measure_window("pricing", pricing_window),
    ];
    let mut notes = Vec::new();
    for r in &results {
        let ns = [r.speedup.numerator, r.speedup.denominator];
        println!(
            "{:<10}{:>14.2}{:>12.2}{:>9.2}x{:>20}{:>11.0} ns{:>9.0} ns",
            r.window,
            ns[0],
            ns[1],
            r.speedup.ratio.median,
            format!("{:.2}x / {:.2}x", r.speedup.ratio.q1, r.speedup.ratio.q3),
            r.compile_ns[1],
            r.compile_ns[0]
        );
        for (i, kind) in BACKENDS.into_iter().enumerate() {
            notes.push(bench::json_line(
                &format!("kernel_backends/{}/{}", r.window, kind.id()),
                &[
                    ("backend", JsonValue::Str(kind.id().to_string())),
                    ("ns_per_element", JsonValue::Num(ns[i])),
                    ("compile_ns", JsonValue::Num(r.compile_ns[i])),
                    ("elements", JsonValue::Int(N as u64)),
                ],
            ));
        }
    }
    let spmv = measure_spmv();
    println!(
        "\n{:<10}{:>14.0} ns/call stage, {:.0} ns/call native, native ratio {:.2} ({:.2} / {:.2})",
        "spmv",
        spmv.denominator,
        spmv.numerator,
        spmv.ratio.median,
        spmv.ratio.q1,
        spmv.ratio.q3
    );
    notes.push(bench::json_line(
        "kernel_backends/spmv/simd",
        &[
            ("backend", JsonValue::Str(BackendKind::Simd.id().to_string())),
            ("ns_per_call", JsonValue::Num(spmv.denominator)),
            ("native_ns_per_call", JsonValue::Num(spmv.numerator)),
            ("grid", JsonValue::Int(SPMV_GRID)),
        ],
    ));
    println!();
    let bound = Bound::Floor { min: 1.0, pct: TOLERANCE_PCT };
    let mut gated: Vec<bench::Gated<'_>> = results
        .iter()
        .map(|r| (r.key.as_str(), "speedup", r.speedup.ratio.median, bound))
        .collect();
    gated.push((
        "kernel_backends/spmv/native_ratio",
        "ratio",
        spmv.ratio.median,
        Bound::Floor { min: SPMV_MIN_RATIO, pct: TOLERANCE_PCT },
    ));
    bench::record_or_check("kernel_backends", notes, &gated);
}
