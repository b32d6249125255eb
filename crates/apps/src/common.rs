//! Shared benchmark plumbing: modes, measurement and result records.

use dense::{DArray, DenseContext};
use diffuse::{BackendKind, Context, DiffuseConfig, ExecutorKind};
use machine::MachineConfig;
use sparse::CsrMatrix;

/// `A @ x`, bridging the two libraries the way the paper composes them: the
/// sparse library takes and returns bare [`diffuse::StoreHandle`]s
/// (cross-library sharing is by store handle only), and the dense library
/// wraps the result back into an array for the surrounding vector code. The
/// SpMV task joins the same window as the dense tasks around it.
pub fn spmv(a: &CsrMatrix, x: &DArray) -> DArray {
    x.dense_context().wrap(a.spmv(x.handle()))
}

/// Which variant of an application to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Natural application code with Diffuse's task and kernel fusion.
    Fused,
    /// Natural application code with fusion disabled (the unmodified
    /// cuPyNumeric / Legate Sparse baseline).
    Unfused,
    /// Hand-optimized application code without Diffuse (the "manually fused"
    /// baselines of Figures 11a and 12c).
    ManuallyFused,
    /// The explicitly parallel MPI library baseline (PETSc).
    Petsc,
}

impl std::fmt::Display for Mode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Mode::Fused => "Fused",
            Mode::Unfused => "Unfused",
            Mode::ManuallyFused => "Manually Fused",
            Mode::Petsc => "PETSc",
        };
        write!(f, "{s}")
    }
}

/// The outcome of one application run at one scale.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchmarkResult {
    /// Application name.
    pub name: String,
    /// Variant that produced this result.
    pub mode: Mode,
    /// Number of GPUs simulated.
    pub gpus: usize,
    /// Iterations measured (after warmup).
    pub iterations: u64,
    /// Simulated seconds for the measured iterations.
    pub elapsed: f64,
    /// Iterations per simulated second.
    pub throughput: f64,
    /// Index tasks submitted by the application per iteration.
    pub tasks_per_iteration: f64,
    /// Index tasks actually launched per iteration (after fusion).
    pub launches_per_iteration: f64,
    /// Mean duration of a launched task in milliseconds.
    pub avg_task_ms: f64,
    /// Task-window size selected by Diffuse (0 for non-Diffuse modes).
    pub window_size: u64,
    /// Simulated JIT compilation seconds (0 for non-Diffuse modes).
    pub compile_time: f64,
    /// Simulated seconds of the warmup phase, excluding compilation.
    pub warmup_elapsed: f64,
    /// A checksum of the result data when running functionally (used by the
    /// correctness tests to compare modes); `None` in simulation-only runs.
    pub checksum: Option<f64>,
}

impl BenchmarkResult {
    /// Warmup time including JIT compilation (the "Compiled" column of
    /// Figure 13).
    pub fn warmup_with_compile(&self) -> f64 {
        self.warmup_elapsed + self.compile_time
    }
}

/// Creates the dense library over a Diffuse context configured for `mode`.
///
/// The runtime executor follows the `DIFFUSE_EXECUTOR` environment variable
/// (serial when unset); use [`dense_context_with_executor`] to pick one
/// explicitly.
pub fn dense_context(mode: Mode, gpus: usize, functional: bool) -> DenseContext {
    dense_context_with_executor(mode, gpus, functional, ExecutorKind::from_env())
}

/// Creates the dense library over a Diffuse context configured for `mode`,
/// running functional kernel work on an explicitly chosen executor — the
/// thread-safe alternative to setting `DIFFUSE_EXECUTOR` for callers that
/// build their own workloads. The kernel backend still follows
/// `DIFFUSE_BACKEND`; use [`dense_context_configured`] to pin both axes.
pub fn dense_context_with_executor(
    mode: Mode,
    gpus: usize,
    functional: bool,
    executor: ExecutorKind,
) -> DenseContext {
    dense_context_configured(mode, gpus, functional, executor, BackendKind::from_env())
}

/// Creates the dense library over a Diffuse context configured for `mode`
/// with both execution axes pinned: which executor schedules functional
/// kernel work, and which kernel backend compiles fused modules. This is the
/// thread-safe way to run interp-vs-simd (or serial-vs-parallel)
/// comparisons in one process.
pub fn dense_context_configured(
    mode: Mode,
    gpus: usize,
    functional: bool,
    executor: ExecutorKind,
    backend: BackendKind,
) -> DenseContext {
    let machine = MachineConfig::with_gpus(gpus);
    let mut config = match mode {
        Mode::Fused => DiffuseConfig::fused(machine),
        // Both the unfused baseline and hand-optimized code run without
        // Diffuse's optimizations.
        Mode::Unfused | Mode::ManuallyFused | Mode::Petsc => DiffuseConfig::unfused(machine),
    };
    config = config.with_executor(executor).with_backend(backend);
    if !functional {
        config = config.simulation_only();
    }
    DenseContext::new(Context::new(config))
}

/// Measurement helper: runs `warmup` iterations of `body`, resets the clock,
/// runs `iterations` more, and assembles a [`BenchmarkResult`].
pub fn measure<F>(
    name: &str,
    mode: Mode,
    np: &DenseContext,
    warmup: u64,
    iterations: u64,
    mut body: F,
    checksum: Option<f64>,
) -> BenchmarkResult
where
    F: FnMut(u64),
{
    let ctx = np.context().clone();
    for i in 0..warmup {
        body(i);
    }
    ctx.flush();
    let warmup_elapsed = ctx.elapsed();
    ctx.reset_timing();
    let stats0 = ctx.stats();
    for i in 0..iterations {
        body(warmup + i);
    }
    ctx.flush();
    let elapsed = ctx.elapsed();
    let stats = ctx.stats().since(&stats0);
    let all_stats = ctx.stats();
    let launches = stats.tasks_launched.max(1);
    BenchmarkResult {
        name: name.to_string(),
        mode,
        gpus: ctx.gpus(),
        iterations,
        elapsed,
        throughput: if elapsed > 0.0 {
            iterations as f64 / elapsed
        } else {
            0.0
        },
        tasks_per_iteration: stats.tasks_submitted as f64 / iterations.max(1) as f64,
        launches_per_iteration: stats.tasks_launched as f64 / iterations.max(1) as f64,
        avg_task_ms: elapsed / launches as f64 * 1e3,
        window_size: all_stats.current_window_size,
        compile_time: all_stats.compile_time,
        warmup_elapsed,
        checksum,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_display() {
        assert_eq!(Mode::Fused.to_string(), "Fused");
        assert_eq!(Mode::ManuallyFused.to_string(), "Manually Fused");
    }

    #[test]
    fn measure_counts_iterations_and_tasks() {
        let np = dense_context(Mode::Fused, 2, true);
        let a = np.ones(&[16]);
        let b = np.ones(&[16]);
        let result = measure(
            "demo",
            Mode::Fused,
            &np,
            1,
            3,
            |_| {
                let c = a.add(&b);
                let _ = c.scalar_mul(0.5);
            },
            None,
        );
        assert_eq!(result.iterations, 3);
        assert!(result.elapsed > 0.0);
        assert!(result.throughput > 0.0);
        assert!((result.tasks_per_iteration - 2.0).abs() < 1e-9);
        assert!(result.launches_per_iteration <= result.tasks_per_iteration);
        assert!(result.warmup_with_compile() >= result.warmup_elapsed);
    }

    #[test]
    fn dense_context_modes() {
        assert!(dense_context(Mode::Fused, 2, true).context().config().enable_task_fusion);
        assert!(!dense_context(Mode::Unfused, 2, true).context().config().enable_task_fusion);
        assert!(!dense_context(Mode::Petsc, 2, false).context().config().materialize_data);
    }

    #[test]
    fn explicit_backend_choice_reaches_the_config() {
        let np = dense_context_configured(
            Mode::Fused,
            2,
            true,
            ExecutorKind::Serial,
            BackendKind::Simd,
        );
        assert_eq!(np.context().config().backend, BackendKind::Simd);
        let a = np.ones(&[16]);
        let b = np.ones(&[16]);
        assert_eq!(a.add(&b).to_vec().unwrap(), vec![2.0; 16]);
    }

    #[test]
    fn explicit_executor_choice_reaches_the_config() {
        let ws = ExecutorKind::WorkStealing { workers: Some(2) };
        let np = dense_context_with_executor(Mode::Fused, 2, true, ws);
        assert_eq!(np.context().config().executor, ws);
        // And the workload still runs correctly on it.
        let a = np.ones(&[16]);
        let b = np.ones(&[16]);
        assert_eq!(a.add(&b).to_vec().unwrap(), vec![2.0; 16]);
    }
}
