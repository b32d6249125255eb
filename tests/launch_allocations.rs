//! Heap allocations per warm launch, counted by a counting global allocator
//! on the test's own thread (the executor is serial, so every launch runs
//! there; tests running beside it on other threads count nothing here).
//!
//! * Simulation-only, `diffuse-bench`'s two communicating programs — a CG
//!   solve over 1 024 rows and a 512² heat step (the 5-point star, then the
//!   change energy as a dense `sum_sq` over interior views) — make the same
//!   allocations per launch at 8 and at 128 GPUs: nothing on a warm launch
//!   walks launch points.
//! * Functional CG at 8 GPUs (serial, SIMD) stays under a recorded ceiling
//!   per launch, the count that a warm launch's remaining allocations are
//!   driven down against.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dense::{DArray, DenseContext};
use diffuse::{AnalyzeMode, BackendKind, Context, DiffuseConfig, ExecutorKind, StoreHandle};
use machine::MachineConfig;
use sparse::{CsrMatrix, SparseContext};
use stencil::StencilContext;

/// Counts every allocation and reallocation made on the calling thread.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // A thread being torn down may allocate after its locals are gone.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is a const-initialised thread-local that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Ops run before counting, so every window's plan is memoized.
const WARM_OPS: usize = 4;
/// Ops counted.
const COUNTED_OPS: usize = 4;

/// Functional warm CG at 8 GPUs, allocations per launch. The ceiling holds
/// in both the debug and the release profile: they read 46.3 and 43.5 when
/// it was recorded (64.4 in release before in-order launches stopped
/// recording dependence edges and repeated communication prices stopped
/// walking launch points).
const FUNCTIONAL_CG_CEILING: f64 = 48.0;

/// `diffuse-bench`'s configuration: fused, SIMD, serial executor,
/// verification off, declared privileges.
fn context(gpus: usize, functional: bool) -> Context {
    let config = DiffuseConfig::fused(MachineConfig::with_gpus(gpus))
        .with_backend(BackendKind::Simd)
        .with_executor(ExecutorKind::Serial)
        .with_verification(false)
        .with_horizontal_fusion(false)
        .with_analyze(AnalyzeMode::Declared);
    let config = DiffuseConfig { fault_plan: None, ..config };
    Context::new(if functional { config } else { config.simulation_only() })
}

/// Allocations per launch over [`COUNTED_OPS`] runs of `op`, after
/// [`WARM_OPS`] runs that are not counted.
fn per_launch(ctx: &Context, mut op: impl FnMut()) -> f64 {
    for _ in 0..WARM_OPS {
        op();
    }
    ctx.flush();
    let (before, counted) = (ctx.stats(), allocations());
    for _ in 0..COUNTED_OPS {
        op();
    }
    ctx.flush();
    let made = allocations() - counted;
    let launched = ctx.stats().since(&before).tasks_launched;
    assert!(launched > 0, "nothing launched");
    made as f64 / launched as f64
}

/// Ten CG iterations per op over the 2-D Poisson matrix of a 32 × 32 grid
/// (1 024 rows), fresh arrays every iteration, as `cg_small` writes them.
fn cg(gpus: usize, functional: bool) -> f64 {
    let ctx = context(gpus, functional);
    let np = DenseContext::new(ctx.clone());
    let sp = SparseContext::new(&ctx);
    let a = CsrMatrix::poisson_2d(&sp, 32);
    let b = np.from_vec(&[a.rows()], (0..a.rows()).map(|i| 1.0 + (i % 7) as f64).collect());
    let (mut x, mut r) = (np.zeros(&[a.rows()]), b.copy());
    let mut p = r.copy();
    let mut rs_old = r.dot(&r);
    per_launch(&ctx, || {
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
    })
}

/// Four heat steps per op on a 512 × 512 interior: the 5-point star, then
/// the change energy over interior views of both grids, as `heat_xlib`
/// writes them.
fn heat(gpus: usize) -> f64 {
    let n = 512;
    let ctx = context(gpus, false);
    let np = DenseContext::new(ctx.clone());
    let st = StencilContext::new(&ctx);
    let grid = || np.zeros(&[n + 2, n + 2]).handle().clone();
    let (mut cur, mut next): (StoreHandle, StoreHandle) = (grid(), grid());
    let interior = |g: &StoreHandle| np.wrap(g.clone()).slice_2d(1..n + 1, 1..n + 1);
    let mut energy: Option<DArray> = None;
    let c = 0.2;
    per_launch(&ctx, || {
        for _ in 0..4 {
            st.star_2d(&cur, &next, [1.0 - 4.0 * c, c, c, c, c]);
            energy = Some(interior(&next).sub(&interior(&cur)).sum_sq());
            std::mem::swap(&mut cur, &mut next);
        }
    })
}

#[test]
fn a_warm_launch_allocates_the_same_at_every_machine_size() {
    let (cg_8, cg_128) = (cg(8, false), cg(128, false));
    let (heat_8, heat_128) = (heat(8), heat(128));
    println!(
        "simulation-only allocations per launch: CG {cg_8} at 8 GPUs, {cg_128} at 128; \
         heat {heat_8} at 8, {heat_128} at 128"
    );
    assert_eq!(cg_8, cg_128, "CG allocations per launch, 8 against 128 GPUs");
    assert_eq!(heat_8, heat_128, "heat allocations per launch, 8 against 128 GPUs");
}

#[test]
fn a_warm_functional_cg_launch_stays_under_its_allocation_ceiling() {
    let functional = cg(8, true);
    println!("functional CG allocations per launch at 8 GPUs: {functional}");
    assert!(
        functional <= FUNCTIONAL_CG_CEILING,
        "{functional} allocations per warm CG launch, ceiling {FUNCTIONAL_CG_CEILING}"
    );
}
