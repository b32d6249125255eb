//! Times the interpreter vs SIMD kernel backends on the fused CG and Jacobi
//! windows and records the trajectory in
//! `BENCH_kernel_backends.json` (schema in `docs/BENCHMARKS.md`).
//!
//! The windows are built exactly the way `diffuse::Context` builds them: the
//! constituent task bodies are composed in program order and pushed through
//! `kernel::Pipeline::default()`, so the measured artifact is the real fused
//! loop nest, not a synthetic microbenchmark. For each backend the binary
//! reports
//!
//! * **ns_per_element** — steady-state execution wall-clock divided by
//!   elements processed (the quantity memoized execution pays per iteration),
//! * **compile_ns** — one-time host cost of `KernelBackend::compile` (the
//!   quantity memoization amortizes).
//!
//! Absolute nanoseconds are machine-dependent, so the regression gate runs on
//! the machine-independent **speedup ratio** (interp ÷ simd per-element
//! time): `kernel_backends --check` re-measures and fails if the current
//! speedup regressed more than 20% against the checked-in baseline, or if the
//! SIMD backend is no longer faster than the interpreter at all.
//!
//! ```sh
//! cargo run --release --bin kernel_backends            # rewrite the baseline
//! cargo run --release --bin kernel_backends -- --check # CI regression gate
//! ```

use std::time::Instant;

use kernel::{
    BackendKind, BufferId, BufferRole, CompiledKernel, KernelBackend, KernelModule, LoopBuilder,
    Pipeline,
};

/// Elements per buffer in the measured windows.
const N: usize = 1 << 15;

/// Path of the recorded trajectory, relative to the workspace root.
const BENCH_FILE: &str = "BENCH_kernel_backends.json";

/// Measurement window in milliseconds (`KERNEL_BACKENDS_MS` overrides).
/// `--check` runs double-length windows: the regression verdict deserves
/// more stability than a baseline refresh.
fn measure_ms() -> u64 {
    bench::measure_ms("KERNEL_BACKENDS_MS", 200)
}

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

/// Steady-state per-element execution time in nanoseconds.
fn time_execute(kernel: &dyn CompiledKernel, buffers: &mut [Vec<f64>], scalars: &[f64]) -> f64 {
    // Warm up once (page in buffers, populate caches).
    kernel.execute(buffers, scalars).expect("kernel failed");
    let budget = std::time::Duration::from_millis(measure_ms());
    let start = Instant::now();
    let mut iters = 0u64;
    while start.elapsed() < budget {
        kernel.execute(buffers, scalars).expect("kernel failed");
        iters += 1;
    }
    let total_ns = start.elapsed().as_nanos() as f64;
    total_ns / (iters as f64 * N as f64)
}

/// Mean one-time compilation cost in nanoseconds.
fn time_compile(backend: &dyn KernelBackend, module: &KernelModule) -> f64 {
    let budget = std::time::Duration::from_millis(measure_ms() / 4);
    let start = Instant::now();
    let mut iters = 0u64;
    while start.elapsed() < budget {
        let _ = backend.compile(module).expect("compile failed");
        iters += 1;
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// The measured backends, in column order.
const BACKENDS: [BackendKind; 2] = [BackendKind::Interp, BackendKind::Simd];

struct WindowResult {
    window: &'static str,
    /// Per-element execution ns and one-time compile ns, indexed like
    /// [`BACKENDS`].
    ns: [f64; 2],
    compile_ns: [f64; 2],
}

impl WindowResult {
    fn interp_ns(&self) -> f64 {
        self.ns[0]
    }
    fn simd_ns(&self) -> f64 {
        self.ns[1]
    }
    /// interp ÷ simd per-element time (the gated ratio).
    fn simd_speedup(&self) -> f64 {
        self.interp_ns() / self.simd_ns().max(1e-9)
    }
}

/// A benchmark case: the module to run plus its input buffers and scalars.
type WindowCase = (KernelModule, Vec<Vec<f64>>, Vec<f64>);

fn measure_window(window: &'static str, build: fn() -> WindowCase) -> WindowResult {
    let (module, buffers, scalars) = build();
    let mut result = WindowResult {
        window,
        ns: [0.0; 2],
        compile_ns: [0.0; 2],
    };
    for (i, kind) in BACKENDS.into_iter().enumerate() {
        let backend = kind.backend();
        result.compile_ns[i] = time_compile(backend.as_ref(), &module);
        let compiled = backend.compile(&module).expect("compile failed");
        let mut bufs = buffers.clone();
        result.ns[i] = time_execute(compiled.as_ref(), &mut bufs, &scalars);
    }
    result
}

/// Records the measured windows through the shared `BENCH_*.json` helpers
/// (`crates/bench/src/lib.rs`).
fn json_lines(results: &[WindowResult]) -> Vec<String> {
    use bench::JsonValue;
    let mut out = Vec::new();
    for r in results {
        for (i, kind) in BACKENDS.into_iter().enumerate() {
            out.push(bench::json_line(
                &format!("kernel_backends/{}/{}", r.window, kind.id()),
                &[
                    ("backend", JsonValue::Str(kind.id().to_string())),
                    ("ns_per_element", JsonValue::Num(r.ns[i])),
                    ("compile_ns", JsonValue::Num(r.compile_ns[i])),
                    ("elements", JsonValue::Int(N as u64)),
                ],
            ));
        }
        out.push(bench::json_line(
            &format!("kernel_backends/{}/simd_speedup", r.window),
            &[("speedup", JsonValue::Num(r.simd_speedup()))],
        ));
    }
    out
}

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    println!("=== Kernel backends: interpreter vs SIMD (wall-clock) ===");
    println!("({N} elements/buffer, {} ms windows)\n", measure_ms());
    println!(
        "{:<10}{:>14}{:>12}{:>10}{:>14}{:>12}",
        "Window", "interp ns/e", "simd ns/e", "simd spd", "simd compile", "int compile"
    );
    let results = [
        measure_window("cg", cg_window),
        measure_window("jacobi", jacobi_window),
    ];
    for r in &results {
        println!(
            "{:<10}{:>14.2}{:>12.2}{:>9.2}x{:>11.0} ns{:>9.0} ns",
            r.window,
            r.interp_ns(),
            r.simd_ns(),
            r.simd_speedup(),
            r.compile_ns[1],
            r.compile_ns[0]
        );
    }
    println!();

    for r in &results {
        // The SIMD backend's whole reason to exist: resolving ops once and
        // streaming them over lanes must beat re-matching the IR per element.
        assert!(
            r.simd_speedup() > 1.0,
            "{}: simd backend must beat the interpreter per element \
             (interp {:.2} ns vs simd {:.2} ns)",
            r.window,
            r.interp_ns(),
            r.simd_ns()
        );
    }

    if check {
        let baseline = std::fs::read_to_string(BENCH_FILE)
            .unwrap_or_else(|e| panic!("--check needs a checked-in {BENCH_FILE}: {e}"));
        let mut failed = false;
        let mut any = false;
        // Allowed speedup regression in percent (raise it once when migrating
        // the baseline to different CI hardware, then re-record and lower it).
        let tolerance = bench::tolerance_pct("KERNEL_BACKENDS_TOLERANCE", 20.0);
        for r in &results {
            let ratio_key = format!("kernel_backends/{}/simd_speedup", r.window);
            let current = r.simd_speedup();
            // The writer replaces the file; parse_metric tolerates
            // hand-appended history by taking the last entry.
            let Some(base) = bench::parse_metric(&baseline, &ratio_key, "speedup") else {
                println!("warning: no baseline entry for {ratio_key}; skipping");
                continue;
            };
            any = true;
            let floor = base * (1.0 - tolerance / 100.0);
            let verdict = if current < floor {
                failed = true;
                "REGRESSED"
            } else {
                "ok"
            };
            println!(
                "{ratio_key}: baseline {base:.2}x, current {current:.2}x, \
                 floor {floor:.2}x — {verdict}"
            );
        }
        assert!(any, "no speedup entries in {BENCH_FILE}");
        assert!(
            !failed,
            "kernel-backend speedup regressed >{tolerance}% vs {BENCH_FILE}; if this \
             run is on different hardware than the baseline, re-record it there \
             (`cargo run --release --bin kernel_backends`) or raise \
             KERNEL_BACKENDS_TOLERANCE for the migration"
        );
        println!("\ncheck passed: speedups within {tolerance}% of the recorded baseline.");
    } else {
        let path = bench::write_bench_file("kernel_backends", &json_lines(&results));
        println!("recorded {path}");
    }
}
