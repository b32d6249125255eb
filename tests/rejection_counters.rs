//! The four fusion-rejection counters, pinned. Every split boundary of a
//! missed window is counted once, by the constraint that failed: a launch
//! domain mismatch, a reduction read back inside the window, or a true or
//! anti dependence (`rejections_unknown`). `rejections_carried` is kept as a
//! field and reads 0. The values were read off the natural CG, BiCGSTAB and
//! heat iterations of `apps`, fused at 8 GPUs and simulation-only, so a
//! change that moves a fusion decision, or the way a rejection is counted,
//! shows here.

use dense::{DArray, DenseContext};
use diffuse::{Context, DiffuseConfig, ExecutionStats};
use machine::MachineConfig;
use sparse::{CsrMatrix, SparseContext};
use stencil::StencilContext;

const GPUS: usize = 8;
const ITERATIONS: usize = 12;

/// Fused, simulation-only, with every knob that could reorder a window
/// pinned rather than read from the environment.
fn dense_context() -> DenseContext {
    let config = DiffuseConfig::fused(MachineConfig::with_gpus(GPUS))
        .with_horizontal_fusion(false)
        .simulation_only();
    DenseContext::new(Context::new(config))
}

/// `[carried, unknown, domain_mismatch, reduction]` after a final flush.
fn rejections(np: &DenseContext) -> [u64; 4] {
    np.context().flush();
    let s: ExecutionStats = np.context().stats();
    [
        s.rejections_carried,
        s.rejections_unknown,
        s.rejections_domain_mismatch,
        s.rejections_reduction,
    ]
}

fn spmv(a: &CsrMatrix, x: &DArray) -> DArray {
    x.dense_context().wrap(a.spmv(x.handle()))
}

fn poisson(np: &DenseContext, grid: u64) -> (CsrMatrix, DArray) {
    let a = CsrMatrix::poisson_2d_symbolic(&SparseContext::new(np.context()), grid);
    let b = np.ones(&[a.rows()]);
    (a, b)
}

/// `apps::cg`'s natural iteration.
fn cg() -> [u64; 4] {
    let np = dense_context();
    let (a, b) = poisson(&np, 32);
    let mut x = np.zeros(&[a.rows()]);
    let mut r = b.copy();
    let mut p = r.copy();
    let mut rs_old = r.dot(&r);
    for _ in 0..ITERATIONS {
        let q = spmv(&a, &p);
        let alpha = rs_old.div(&p.dot(&q));
        x = x.axpy(&alpha, &p, 1.0);
        r = r.axpy(&alpha, &q, -1.0);
        let rs_new = r.dot(&r);
        let beta = rs_new.div(&rs_old);
        p = r.axpy(&beta, &p, 1.0);
        rs_old = rs_new;
    }
    drop((x, p, rs_old));
    rejections(&np)
}

/// `apps::bicgstab`'s natural iteration.
fn bicgstab() -> [u64; 4] {
    let np = dense_context();
    let (a, b) = poisson(&np, 32);
    let mut x = np.zeros(&[a.rows()]);
    let mut r = b.copy();
    let r0 = r.copy();
    let mut p = r.copy();
    let mut rho = r0.dot(&r);
    for _ in 0..ITERATIONS {
        let v = spmv(&a, &p);
        let alpha = rho.div(&r0.dot(&v));
        let s = r.axpy(&alpha, &v, -1.0);
        let t = spmv(&a, &s);
        let omega = t.dot(&s).div(&t.dot(&t));
        x = x.axpy(&alpha, &p, 1.0).axpy(&omega, &s, 1.0);
        r = s.axpy(&omega, &t, -1.0);
        let rho_new = r0.dot(&r);
        let beta = rho_new.div(&rho).mul(&alpha.div(&omega));
        p = r.axpy(&beta, &p.axpy(&omega, &v, -1.0), 1.0);
        rho = rho_new;
    }
    drop((x, p, rho));
    rejections(&np)
}

/// `apps::heat`'s step: a 5-point star into the other grid, then the change
/// energy as dense reductions over the two interiors.
fn heat() -> [u64; 4] {
    let np = dense_context();
    let st = StencilContext::new(np.context());
    let n = 64;
    let mut cur = np.context().create_store(vec![n + 2, n + 2], "heat_cur");
    let mut next = np.context().create_store(vec![n + 2, n + 2], "heat_next");
    let interior = |grid: &diffuse::StoreHandle| np.wrap(grid.clone()).slice_2d(1..n + 1, 1..n + 1);
    let c = 0.2;
    for _ in 0..ITERATIONS {
        st.star_2d(&cur, &next, [1.0 - 4.0 * c, c, c, c, c]);
        let energy = interior(&next).sub(&interior(&cur)).sum_sq();
        drop(energy);
        std::mem::swap(&mut cur, &mut next);
    }
    rejections(&np)
}

#[test]
fn rejection_counters_are_pinned_per_constraint() {
    // [carried, unknown, domain_mismatch, reduction]
    assert_eq!(cg(), [0, 13, 0, 8], "cg");
    assert_eq!(bicgstab(), [0, 54, 0, 27], "bicgstab");
    assert_eq!(heat(), [0, 7, 0, 0], "heat");
}
