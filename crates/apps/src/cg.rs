//! Conjugate Gradient on the 2-D Poisson problem (Figure 11a).
//!
//! The natural implementation composes Legate-Sparse SpMV with cuPyNumeric
//! vector operations. Four variants are compared, as in the paper: the
//! natural code with Diffuse (`Fused`), the natural code without Diffuse
//! (`Unfused`), the hand-optimized implementation the Legate Sparse authors
//! wrote before Diffuse existed (`ManuallyFused`), and MPI+PETSc (`Petsc`).

use dense::{DArray, DenseContext};
use diffuse::TaskSignature;
use ir::{Partition, PartitionId};
use kernel::{BufferId, BufferRole, KernelModule, LoopBuilder, TaskKind};
use machine::MachineConfig;
use petsc::PetscSolver;
use sparse::{CsrMatrix, SparseContext};

use crate::common::{dense_context, measure, spmv, BenchmarkResult, Mode};

/// Problem setup shared by the Diffuse-based variants.
fn setup(np: &DenseContext, grid: u64, functional: bool) -> (CsrMatrix, DArray) {
    let sp = SparseContext::new(np.context());
    let a = if functional {
        CsrMatrix::poisson_2d(&sp, grid)
    } else {
        CsrMatrix::poisson_2d_symbolic(&sp, grid)
    };
    let b = np.ones(&[a.rows()]);
    (a, b)
}

/// The grid edge length for a weak-scaled run: `per_gpu` rows per GPU.
fn grid_size(gpus: usize, per_gpu: u64) -> u64 {
    ((per_gpu * gpus as u64) as f64).sqrt().floor().max(2.0) as u64
}

/// The hand-fused x/r update task used by the manually optimized variant:
/// `x' = x + alpha p` and `r' = r - alpha q` in a single kernel. Registered
/// in the application's own library namespace — the generator interface is
/// open to applications, not just to the libraries.
fn register_cg_update(np: &DenseContext) -> TaskKind {
    let lib = np.context().register_library("cg_app");
    let sig = TaskSignature::new()
        .read() // x
        .read() // r
        .read() // p
        .read() // q
        .read() // alpha (scalar store)
        .write() // x'
        .write(); // r'
    lib.register("cg_fused_update", sig, |_args| {
        let mut m = KernelModule::new(7);
        m.set_role(BufferId(5), BufferRole::Output);
        m.set_role(BufferId(6), BufferRole::Output);
        let mut b = LoopBuilder::new("cg_fused_update", BufferId(0));
        let x = b.load(BufferId(0));
        let r = b.load(BufferId(1));
        let p = b.load(BufferId(2));
        let q = b.load(BufferId(3));
        let alpha = b.load_scalar(BufferId(4));
        let ap = b.mul(alpha, p);
        let aq = b.mul(alpha, q);
        let xn = b.add(x, ap);
        let rn = b.sub(r, aq);
        b.store(BufferId(5), xn);
        b.store(BufferId(6), rn);
        m.push_loop(b.finish());
        m
    })
}

struct CgState {
    x: DArray,
    r: DArray,
    p: DArray,
    rs_old: DArray,
}

fn cg_init(np: &DenseContext, a: &CsrMatrix, b: &DArray) -> CgState {
    let x = np.zeros(&[a.rows()]);
    let r = b.copy();
    let p = r.copy();
    let rs_old = r.dot(&r);
    CgState { x, r, p, rs_old }
}

/// One natural CG iteration (the code a SciPy user would write).
fn cg_iteration(a: &CsrMatrix, state: &mut CgState) {
    let q = spmv(a, &state.p);
    let p_ap = state.p.dot(&q);
    let alpha = state.rs_old.div(&p_ap);
    state.x = state.x.axpy(&alpha, &state.p, 1.0);
    state.r = state.r.axpy(&alpha, &q, -1.0);
    let rs_new = state.r.dot(&state.r);
    let beta = rs_new.div(&state.rs_old);
    state.p = state.r.axpy(&beta, &state.p, 1.0);
    state.rs_old = rs_new;
}

/// One manually fused CG iteration: the x/r update is a single hand-written
/// task, as in the pre-Diffuse hand-optimized Legate Sparse implementation.
fn cg_iteration_manual(
    np: &DenseContext,
    update: TaskKind,
    a: &CsrMatrix,
    state: &mut CgState,
) {
    let q = spmv(a, &state.p);
    let p_ap = state.p.dot(&q);
    let alpha = state.rs_old.div(&p_ap);
    let xn = np.zeros(&[state.x.len()]);
    let rn = np.zeros(&[state.r.len()]);
    // Intern the block partition once; every argument then carries a Copy id.
    let block = PartitionId::intern(&state.x.partition());
    np.context()
        .task(update)
        .read(state.x.handle(), block)
        .read(state.r.handle(), block)
        .read(state.p.handle(), block)
        .read(q.handle(), block)
        .read(alpha.handle(), Partition::Replicate)
        .write(xn.handle(), block)
        .write(rn.handle(), block)
        .launch();
    state.x = xn;
    state.r = rn;
    let rs_new = state.r.dot(&state.r);
    let beta = rs_new.div(&state.rs_old);
    state.p = state.r.axpy(&beta, &state.p, 1.0);
    state.rs_old = rs_new;
}

fn run_petsc(gpus: usize, grid: u64, iterations: u64, functional: bool) -> BenchmarkResult {
    let mut solver = PetscSolver::new(MachineConfig::with_gpus(gpus), functional);
    let a = if functional {
        solver.poisson_2d(grid)
    } else {
        solver.poisson_2d_symbolic(grid)
    };
    let rows = grid * grid;
    let b = solver.vector(rows, 1.0);
    let x = solver.vector(rows, 0.0);
    solver.reset_timing();
    let result = solver.cg(&a, b, x, iterations);
    BenchmarkResult {
        name: "CG".into(),
        mode: Mode::Petsc,
        gpus,
        iterations,
        elapsed: result.elapsed,
        throughput: if result.elapsed > 0.0 {
            iterations as f64 / result.elapsed
        } else {
            0.0
        },
        // PETSc CG issues roughly 8 vector/matrix calls per iteration.
        tasks_per_iteration: 8.0,
        launches_per_iteration: 8.0,
        avg_task_ms: result.elapsed / (iterations.max(1) * 8) as f64 * 1e3,
        window_size: 0,
        compile_time: 0.0,
        warmup_elapsed: 0.0,
        checksum: result.residual,
    }
}

/// Runs CG with `per_gpu` matrix rows per GPU, weak scaled.
pub fn run(mode: Mode, gpus: usize, per_gpu: u64, iterations: u64, functional: bool) -> BenchmarkResult {
    let grid = grid_size(gpus, per_gpu);
    if mode == Mode::Petsc {
        return run_petsc(gpus, grid, iterations, functional);
    }
    let np = dense_context(mode, gpus, functional);
    let update = register_cg_update(&np);
    let (a, b) = setup(&np, grid, functional);
    let mut state = cg_init(&np, &a, &b);
    let mut result = measure(
        "CG",
        mode,
        &np,
        1,
        iterations,
        |_| match mode {
            Mode::ManuallyFused => cg_iteration_manual(&np, update, &a, &mut state),
            _ => cg_iteration(&a, &mut state),
        },
        None,
    );
    if functional {
        result.checksum = state.rs_old.scalar_value();
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_variants_converge_to_the_same_residual() {
        let fused = run(Mode::Fused, 2, 32, 30, true);
        let unfused = run(Mode::Unfused, 2, 32, 30, true);
        let manual = run(Mode::ManuallyFused, 2, 32, 30, true);
        let petsc = run(Mode::Petsc, 2, 32, 30, true);
        for r in [&fused, &unfused, &manual, &petsc] {
            assert!(
                r.checksum.unwrap() < 1e-6,
                "{} residual {}",
                r.mode,
                r.checksum.unwrap()
            );
        }
        assert!((fused.checksum.unwrap() - unfused.checksum.unwrap()).abs() < 1e-9);
    }

    #[test]
    fn a_fused_memoized_solve_probes_the_memo_once_per_flush() {
        use crate::common::dense_context_configured;
        use diffuse::{BackendKind, ExecutorKind};
        let np = dense_context_configured(
            Mode::Fused,
            2,
            true,
            ExecutorKind::Serial,
            BackendKind::Interp,
        );
        let (a, b) = setup(&np, grid_size(2, 32), true);
        let mut state = cg_init(&np, &a, &b);
        for _ in 0..20 {
            cg_iteration(&a, &mut state);
        }
        np.flush();
        let stats = np.context().stats();
        // Windows split into several launches, and every flush is one
        // probe: a hit replaying the window's whole plan, or a miss.
        assert!(stats.tasks_launched > stats.windows_flushed, "{stats:?}");
        assert!(stats.memo_hits > stats.memo_misses, "{stats:?}");
        assert_eq!(stats.memo_hits + stats.memo_misses, stats.windows_flushed);
    }

    #[test]
    fn fusion_reduces_launches_per_iteration() {
        let fused = run(Mode::Fused, 4, 64, 10, true);
        let unfused = run(Mode::Unfused, 4, 64, 10, true);
        let manual = run(Mode::ManuallyFused, 4, 64, 10, true);
        // Natural CG submits ~8-12 tasks per iteration.
        assert!(unfused.tasks_per_iteration >= 7.0 && unfused.tasks_per_iteration <= 14.0);
        assert!(fused.launches_per_iteration < unfused.launches_per_iteration);
        // The manual fusion reduces the task count but less than Diffuse does.
        assert!(manual.tasks_per_iteration < unfused.tasks_per_iteration);
    }
}
