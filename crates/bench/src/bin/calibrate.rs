//! Fits the per-backend compile-time calibration from measured wall-clock
//! and records it in `BENCH_compile_calibration.json` (schema in
//! `docs/BENCHMARKS.md`).
//!
//! The simulated JIT surcharge of `CompileTimeModel` used to be an asserted
//! constant factor; this binary replaces the assertion with a measurement. For every backend it times `KernelBackend::compile` across a
//! grid of module sizes that varies ops-per-stage and stage count
//! **independently**, fits the linear model
//!
//! ```text
//! compile_ns ≈ base_ns + per_op_ns · total_ops + per_stage_ns · num_stages
//! ```
//!
//! by least squares (`bench::fit_affine2`), clamps noise-negative
//! coefficients to zero, and writes one coefficient line per backend plus
//! the `simd_vs_interp` ratio line (predicted compile time at a reference
//! module size, relative to the interpreter). `kernel::cost`
//! embeds the file at build time: `CompileTimeModel::calibrated(backend)`
//! scales the Figure 13 anchor by the measured coefficient ratios, so the
//! simulated surcharge is fitted, not guessed. Rebuild after re-recording.
//!
//! Absolute nanoseconds are machine-dependent; the ratios are not (they
//! compare two code paths on the same host), so `--check` re-measures and
//! fails on a drift of the ratio beyond [`TOLERANCE_PCT`] against the
//! recorded baseline.
//!
//! ```sh
//! cargo run --release --bin calibrate            # rewrite the baseline
//! cargo run --release --bin calibrate -- --check # CI drift gate
//! ```

use bench::{Bound, JsonValue};
use kernel::{BackendKind, BufferId, BufferRole, KernelModule, LoopBuilder};

/// The calibrated backends, in recording order. The interpreter is the
/// reference the ratios are taken against.
const BACKENDS: [BackendKind; 2] = [BackendKind::Interp, BackendKind::Simd];

/// Stage counts of the measurement grid.
const STAGES: [usize; 5] = [1, 2, 4, 8, 16];

/// Arithmetic chain lengths per stage of the measurement grid.
const CHAIN: [usize; 3] = [2, 8, 24];

/// Reference module size the drift-gated ratios are evaluated at (a fused
/// window of realistic width: 16 stages, 8 chained ops each).
const REF_STAGES: usize = 16;
const REF_CHAIN: usize = 8;

/// Compilations timed per grid point (the grid's largest module compiles in
/// ≈15 µs under simd, its smallest in ≈0.1 µs under the interpreter).
const COMPILES: u64 = 4000;

/// Allowed drift of the simd ÷ interp compile-cost ratio against the
/// recorded one, percent.
const TOLERANCE_PCT: f64 = 30.0;

/// A module of `stages` identical loop stages, each an SSA chain of `chain`
/// arithmetic ops — the vectorizable shape every backend lowers fully, so
/// the measured cost covers the whole lowering path.
fn module(stages: usize, chain: usize) -> KernelModule {
    let mut m = KernelModule::new(2);
    m.set_role(BufferId(1), BufferRole::Output);
    for s in 0..stages {
        let mut lb = LoopBuilder::new(format!("chain{s}"), BufferId(0));
        let x = lb.load(BufferId(0));
        let c = lb.constant(1.0 + s as f64 * 0.125);
        let mut acc = x;
        for i in 0..chain {
            acc = if i % 2 == 0 { lb.mul(acc, c) } else { lb.add(acc, x) };
        }
        lb.store(BufferId(1), acc);
        m.push_loop(lb.finish());
    }
    m
}

/// Mean wall-clock nanoseconds of one compilation of `m` under `kind`.
fn time_compile(kind: BackendKind, m: &KernelModule) -> f64 {
    let backend = kind.backend();
    let compile = || drop(backend.compile(m).expect("compile failed"));
    // Warm up (page in code, resolve one-time lazies).
    bench::batch_ns(1, compile);
    bench::batch_ns(COMPILES, compile) / COMPILES as f64
}

/// One backend's fitted host model plus its fit quality.
struct Fitted {
    kind: BackendKind,
    beta: [f64; 3], // [base_ns, per_op_ns, per_stage_ns]
    r2: f64,
}

impl Fitted {
    fn predict_ns(&self, total_ops: usize, num_stages: usize) -> f64 {
        self.beta[0] + self.beta[1] * total_ops as f64 + self.beta[2] * num_stages as f64
    }
}

fn fit_backend(kind: BackendKind) -> Fitted {
    let mut samples = Vec::new();
    for &stages in &STAGES {
        for &chain in &CHAIN {
            let m = module(stages, chain);
            let ns = time_compile(kind, &m);
            samples.push((m.total_ops() as f64, m.num_stages() as f64, ns));
        }
    }
    let raw = bench::fit_affine2(&samples)
        .unwrap_or_else(|| panic!("degenerate calibration fit for {}", kind.id()));
    let beta = bench::clamp_coefficients(raw, 0.0);
    let r2 = bench::fit_r2(&samples, &raw);
    Fitted { kind, beta, r2 }
}

/// The reference-module compile-cost ratio of a backend over the
/// interpreter — the machine-portable quantity the drift gate runs on.
fn ratio_vs_interp(own: &Fitted, interp: &Fitted) -> f64 {
    let m = module(REF_STAGES, REF_CHAIN);
    let (ops, stages) = (m.total_ops(), m.num_stages());
    own.predict_ns(ops, stages) / interp.predict_ns(ops, stages).max(1e-9)
}

/// Key of the one drift-gated ratio line.
const RATIO_KEY: &str = "compile_calibration/simd_vs_interp";

fn main() {
    println!("=== Compile-time calibration: fitted per-backend coefficients ===");
    println!("(grid: stages {STAGES:?} x chain {CHAIN:?}, {COMPILES} compilations/point)\n");
    println!(
        "{:<10}{:>12}{:>12}{:>14}{:>8}",
        "Backend", "base ns", "per-op ns", "per-stage ns", "R2"
    );
    let fits: Vec<Fitted> = BACKENDS.iter().map(|&k| fit_backend(k)).collect();
    for f in &fits {
        println!(
            "{:<10}{:>12.1}{:>12.2}{:>14.1}{:>8.3}",
            f.kind.id(),
            f.beta[0],
            f.beta[1],
            f.beta[2],
            f.r2
        );
    }
    let ratio = ratio_vs_interp(&fits[1], &fits[0]);
    println!("\nsimd: {ratio:.2}x the interpreter's compile cost at the reference module");
    // Lowering always does strictly more work than the interpreter's
    // clone-and-wrap; a ratio below 1 means the measurement is broken.
    assert!(ratio > 1.0, "fitted simd ratio {ratio:.3} is not above 1.0");

    let notes = fits
        .iter()
        .map(|f| {
            bench::json_line(
                &format!("compile_calibration/{}", f.kind.id()),
                &[
                    ("backend", JsonValue::Str(f.kind.id().to_string())),
                    ("base_ns", JsonValue::Num(f.beta[0])),
                    ("per_op_ns", JsonValue::Num(f.beta[1])),
                    ("per_stage_ns", JsonValue::Num(f.beta[2])),
                    ("r2", JsonValue::Num(f.r2)),
                ],
            )
        })
        .collect();
    // Re-recording moves every simulated compile surcharge under simd:
    // rebuild afterwards so `kernel::cost` embeds the new coefficients.
    bench::record_or_check(
        "compile_calibration",
        notes,
        &[(RATIO_KEY, "ratio", ratio, Bound::Drift { pct: TOLERANCE_PCT })],
    );
}
