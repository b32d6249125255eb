//! Asserts that functional runs are *identical* across the full executor ×
//! kernel-backend matrix (see `docs/RUNTIME.md` and `docs/BACKENDS.md`).
//!
//! Each workload runs under the four (executor, backend) combinations:
//!
//! * `serial` / `parallel` — whether independent launches overlap across
//!   worker threads (the DAG-width axis), and
//! * `interp` / `simd` — whether kernels are tree-walked per element or
//!   pre-lowered to micro-op streams and executed as lane-parallel chunked
//!   kernels by the SIMD backend (the steady-state axis),
//!
//! and the binary asserts the two invariants every combination must satisfy:
//! bitwise-identical simulated time and bitwise-identical functional
//! checksums. The CI step that runs it is the end-to-end 2×2 invariance test;
//! what each axis buys in host time is `diffuse-bench`'s
//! `runtime.par_speedup` and `kernel.simd_vs_interp_e2e`
//! (docs/BENCHMARKS.md).
//!
//! Run with `cargo run --release --bin executor_compare`.

use apps::Mode;

/// The four compared combinations, as (executor, backend) env values.
const MATRIX: [(&str, &str); 4] = [
    ("serial", "interp"),
    ("serial", "simd"),
    ("parallel", "interp"),
    ("parallel", "simd"),
];

/// One functional app run under the given `DIFFUSE_EXECUTOR` /
/// `DIFFUSE_BACKEND` setting, as the bits of (simulated seconds, checksum).
///
/// The env vars are the only knobs that reach the unmodified `apps::*::run`
/// entry points (their signatures carry neither axis, by design — application
/// code is executor- and backend-agnostic). Flipping them here is safe: each
/// run's runtime (and its worker pool) is dropped and joined before the next
/// flip, so no other thread exists while we mutate the environment. Code that
/// builds its own workloads should prefer
/// `apps::common::dense_context_configured`.
fn run_under<F>(executor: &str, backend: &str, run: F) -> (u64, u64)
where
    F: Fn() -> apps::BenchmarkResult,
{
    std::env::set_var("DIFFUSE_EXECUTOR", executor);
    std::env::set_var("DIFFUSE_BACKEND", backend);
    let result = run();
    std::env::remove_var("DIFFUSE_EXECUTOR");
    std::env::remove_var("DIFFUSE_BACKEND");
    let checksum = result.checksum.expect("a functional run reports a checksum");
    (result.elapsed.to_bits(), checksum.to_bits())
}

fn compare<F>(name: &str, run: F)
where
    F: Fn() -> apps::BenchmarkResult,
{
    let (baseline_sim, baseline_sum) = run_under(MATRIX[0].0, MATRIX[0].1, &run);
    for (executor, backend) in &MATRIX[1..] {
        let (sim, sum) = run_under(executor, backend, &run);
        assert_eq!(
            baseline_sim, sim,
            "{name}: simulated time must not depend on {executor}/{backend}"
        );
        // Bit patterns, so a NaN only equals the same NaN.
        assert_eq!(
            baseline_sum, sum,
            "{name}: checksum bits diverged under {executor}/{backend}"
        );
    }
    println!(
        "{name:<28}simulated {:.6e} s, checksum {:.17e}: identical under all {} combinations",
        f64::from_bits(baseline_sim),
        f64::from_bits(baseline_sum),
        MATRIX.len()
    );
}

fn main() {
    let gpus = 8;
    let per_gpu = 1u64 << 13;
    let iters = 4;
    println!("=== Executor × backend matrix: functional-run invariance ===");
    println!("({gpus} simulated GPUs, {per_gpu} elements/GPU, {iters} iterations)");
    compare("Black-Scholes (unfused)", || {
        apps::black_scholes::run(Mode::Unfused, gpus, per_gpu, iters, true)
    });
    compare("Black-Scholes (fused)", || {
        apps::black_scholes::run(Mode::Fused, gpus, per_gpu, iters, true)
    });
    compare("Jacobi (unfused)", || {
        apps::jacobi::run(Mode::Unfused, gpus, per_gpu, iters, true)
    });
    compare("CG (unfused)", || {
        apps::cg::run(Mode::Unfused, gpus, per_gpu, iters, true)
    });
    compare("CG (fused)", || {
        apps::cg::run(Mode::Fused, gpus, per_gpu, iters, true)
    });
    println!("\nSimulated time and functional checksums are bitwise identical across");
    println!("the whole 2x2 matrix (asserted above).");
}
