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
//! fails on a >30% drift of the ratio against the recorded baseline
//! (`CALIBRATE_TOLERANCE` overrides; `CALIBRATE_MS` scales the per-point
//! measurement window).
//!
//! ```sh
//! cargo run --release --bin calibrate            # rewrite the baseline
//! cargo run --release --bin calibrate -- --check # CI drift gate
//! ```

use std::time::Instant;

use kernel::{BackendKind, BufferId, BufferRole, KernelModule, LoopBuilder};

/// Path of the recorded calibration, relative to the workspace root.
const BENCH_FILE: &str = "BENCH_compile_calibration.json";

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

/// Per-grid-point measurement window in milliseconds (`CALIBRATE_MS`
/// overrides). `--check` runs double-length windows, like the other gates.
fn measure_ms() -> u64 {
    bench::measure_ms("CALIBRATE_MS", 15)
}

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
    // Warm up (page in code, resolve one-time lazies).
    let _ = backend.compile(m).expect("compile failed");
    let budget = std::time::Duration::from_millis(measure_ms());
    let start = Instant::now();
    let mut iters = 0u64;
    while start.elapsed() < budget {
        let _ = backend.compile(m).expect("compile failed");
        iters += 1;
    }
    start.elapsed().as_nanos() as f64 / iters as f64
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

fn json_lines(fits: &[Fitted], ratio: f64) -> Vec<String> {
    use bench::JsonValue;
    let mut out = Vec::new();
    for f in fits {
        out.push(bench::json_line(
            &format!("compile_calibration/{}", f.kind.id()),
            &[
                ("backend", JsonValue::Str(f.kind.id().to_string())),
                ("base_ns", JsonValue::Num(f.beta[0])),
                ("per_op_ns", JsonValue::Num(f.beta[1])),
                ("per_stage_ns", JsonValue::Num(f.beta[2])),
                ("r2", JsonValue::Num(f.r2)),
            ],
        ));
    }
    out.push(bench::json_line(RATIO_KEY, &[("ratio", JsonValue::Num(ratio))]));
    out
}

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    println!("=== Compile-time calibration: fitted per-backend coefficients ===");
    println!(
        "(grid: stages {STAGES:?} x chain {CHAIN:?}, {} ms/point)\n",
        measure_ms()
    );
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

    if check {
        let baseline = std::fs::read_to_string(BENCH_FILE)
            .unwrap_or_else(|e| panic!("--check needs a checked-in {BENCH_FILE}: {e}"));
        // Allowed ratio drift in percent.
        let tolerance = bench::tolerance_pct("CALIBRATE_TOLERANCE", 30.0);
        let base = bench::parse_metric(&baseline, RATIO_KEY, "ratio")
            .unwrap_or_else(|| panic!("no baseline entry for {RATIO_KEY} in {BENCH_FILE}"));
        let drift_pct = (ratio - base).abs() / base * 100.0;
        println!("{RATIO_KEY}: baseline {base:.2}x, current {ratio:.2}x, drift {drift_pct:.1}%");
        assert!(
            drift_pct <= tolerance,
            "compile-cost ratio drifted >{tolerance}% vs {BENCH_FILE}; re-record \
             the baseline (`cargo run --release --bin calibrate` + rebuild) if \
             the lowering legitimately changed, or raise CALIBRATE_TOLERANCE \
             for a hardware migration"
        );
        println!("\ncheck passed: ratio within {tolerance}% of the recorded baseline.");
    } else {
        let path = bench::write_bench_file("compile_calibration", &json_lines(&fits, ratio));
        println!("recorded {path} — rebuild so kernel::cost embeds the new coefficients");
    }
}
