//! Compares *host wall-clock* time of functional runs across the full
//! executor × kernel-backend matrix (see `docs/RUNTIME.md`,
//! `docs/BACKENDS.md` and `docs/BENCHMARKS.md`).
//!
//! Unlike the fig* binaries, which report *simulated* time (identical under
//! every executor and backend by construction), this binary measures how long
//! the host actually takes to execute the kernels of a functional run, under
//! each of the four (executor, backend) combinations:
//!
//! * `serial` / `parallel` — whether independent launches overlap across
//!   worker threads (the DAG-width axis), and
//! * `interp` / `simd` — whether kernels are tree-walked per element or
//!   pre-lowered to micro-op streams and executed as lane-parallel chunked
//!   kernels by the SIMD backend (the steady-state axis).
//!
//! The binary *asserts* the two invariants every combination must satisfy —
//! identical simulated time and identical functional checksums — so the CI
//! step that runs it doubles as an end-to-end 2×2 invariance test.
//!
//! Run with `cargo run --release --bin executor_compare`.

use std::time::Instant;

use apps::Mode;

/// The four measured combinations, as (executor, backend) env values.
const MATRIX: [(&str, &str); 4] = [
    ("serial", "interp"),
    ("serial", "simd"),
    ("parallel", "interp"),
    ("parallel", "simd"),
];

/// Wall-clocks one functional app run under the given `DIFFUSE_EXECUTOR` /
/// `DIFFUSE_BACKEND` setting, returning (wall seconds, simulated seconds,
/// checksum).
///
/// The env vars are the only knobs that reach the unmodified `apps::*::run`
/// entry points (their signatures carry neither axis, by design — application
/// code is executor- and backend-agnostic). Flipping them here is safe: each
/// run's runtime (and its worker pool) is dropped and joined before the next
/// flip, so no other thread exists while we mutate the environment. Code that
/// builds its own workloads should prefer
/// `apps::common::dense_context_configured`.
fn timed<F>(executor: &str, backend: &str, run: F) -> (f64, f64, Option<f64>)
where
    F: Fn() -> apps::BenchmarkResult,
{
    std::env::set_var("DIFFUSE_EXECUTOR", executor);
    std::env::set_var("DIFFUSE_BACKEND", backend);
    let start = Instant::now();
    let result = run();
    let wall = start.elapsed().as_secs_f64();
    std::env::remove_var("DIFFUSE_EXECUTOR");
    std::env::remove_var("DIFFUSE_BACKEND");
    (wall, result.elapsed, result.checksum)
}

fn compare<F>(name: &str, run: F)
where
    F: Fn() -> apps::BenchmarkResult,
{
    let mut walls = Vec::new();
    let (baseline_wall, baseline_sim, baseline_sum) = timed(MATRIX[0].0, MATRIX[0].1, &run);
    walls.push(baseline_wall);
    for (executor, backend) in &MATRIX[1..] {
        let (wall, sim, sum) = timed(executor, backend, &run);
        assert_eq!(
            baseline_sim, sim,
            "{name}: simulated time must not depend on {executor}/{backend}"
        );
        if let (Some(a), Some(b)) = (baseline_sum, sum) {
            assert!(
                (a - b).abs() <= 1e-9 * a.abs().max(1.0),
                "{name}: checksums diverged under {executor}/{backend}: {a} vs {b}"
            );
        }
        walls.push(wall);
    }
    print!("{name:<28}");
    for wall in walls {
        print!("{wall:>17.3}");
    }
    println!();
}

fn main() {
    let gpus = 8;
    let per_gpu = 1u64 << 13;
    let iters = 4;
    println!("=== Executor × backend matrix: functional-run wall-clock ===");
    println!(
        "({gpus} simulated GPUs, {per_gpu} elements/GPU, {iters} iterations; host seconds, lower is better)"
    );
    print!("{:<28}", "Workload");
    for (executor, backend) in MATRIX {
        print!("{:>17}", format!("{executor}/{backend}"));
    }
    println!();
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
    println!("\nSimulated time and functional checksums are identical across the");
    println!("whole 2x2 matrix (asserted above); only the host wall-clock differs.");
    println!("Serial-vs-parallel wins scale with host cores and DAG width; the");
    println!("SIMD backend's win shows on elementwise-heavy fused windows.");
}
