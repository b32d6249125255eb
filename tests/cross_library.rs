//! Cross-library fusion: the composition claim of the paper, end to end.
//!
//! Three independently written libraries — `dense` (cuPyNumeric-style),
//! `sparse` (Legate-Sparse-style) and `stencil` — are registered on one
//! Diffuse context and exchange nothing but store handles. A
//! dense→sparse→stencil→dense task sequence submitted without intervening
//! flushes must land in **one fused launch**, and the result must be
//! bit-identical to the unfused baseline under every executor × backend
//! combination.

use dense::DenseContext;
use diffuse::{BackendKind, Context, DiffuseConfig, ExecutorKind};
use machine::MachineConfig;
use sparse::{CsrMatrix, SparseContext};
use stencil::StencilContext;

const GPUS: usize = 2;
const N: u64 = 32; // divisible by the GPU count; stencil interior of an N+2 grid

/// Runs the three-library pipeline once and returns
/// (checksum, final vector, stats).
fn run_pipeline(
    fused: bool,
    executor: ExecutorKind,
    backend: BackendKind,
) -> (f64, Vec<f64>, diffuse::ExecutionStats) {
    let machine = MachineConfig::with_gpus(GPUS);
    let config = if fused {
        DiffuseConfig::fused(machine)
    } else {
        DiffuseConfig::unfused(machine)
    }
    .with_executor(executor)
    .with_backend(backend);
    let ctx = Context::new(config);

    // Three peer libraries over one context.
    let np = DenseContext::new(ctx.clone());
    let sp = SparseContext::new(&ctx);
    let st = StencilContext::new(&ctx);

    // Host-initialized inputs (no tasks yet): a tridiagonal Laplacian, an
    // input vector, and a ghost-bordered 1-D grid.
    let a = CsrMatrix::from_dense(&sp, N, N, &|r, c| {
        if r == c {
            2.0
        } else if r.abs_diff(c) == 1 {
            -1.0
        } else {
            0.0
        }
    });
    let x = np.from_vec(&[N], (0..N).map(|i| (i % 7) as f64 + 0.5).collect());
    let grid = ctx.create_store(vec![N + 2], "grid");
    ctx.write_store(&grid, (0..N + 2).map(|i| ((i * 3) % 5) as f64).collect());
    let smoothed = ctx.create_store(vec![N + 2], "smoothed");

    let stats0 = ctx.stats();
    // The cross-library window: sparse SpMV → dense scaling → stencil star →
    // dense combine → dense reduction, submitted back to back. Every
    // dependence between the tasks is point-wise (reads go through exactly
    // the partitions the values were written with), so the fusion constraints
    // admit the whole sequence as one prefix.
    let y = np.wrap(a.spmv(x.handle())); // sparse
    let z = y.scalar_mul(0.5); // dense
    st.star_1d(&grid, &smoothed, [0.5, 0.25, 0.25]); // stencil
    let w = np.wrap(smoothed.clone()).slice_1d(1..N + 1).mul(&z); // dense, reads the stencil output
    let total = w.sum(); // dense reduction
    ctx.flush();
    let stats = ctx.stats().since(&stats0);

    let checksum = total.scalar_value().expect("functional run");
    let w_data = w.to_vec().expect("functional run");
    (checksum, w_data, stats)
}

#[test]
fn dense_sparse_stencil_sequence_lands_in_one_fused_window() {
    let (checksum, _, stats) = run_pipeline(true, ExecutorKind::Serial, BackendKind::Interp);
    assert!(checksum.is_finite());
    assert_eq!(stats.tasks_submitted, 5);
    assert_eq!(
        stats.tasks_launched, 1,
        "the whole three-library sequence must fuse into one launch: {stats:?}"
    );
    assert_eq!(stats.fused_tasks, 1);
    assert_eq!(stats.cross_library_fused_tasks, 1);
    // Every library participated in the shared launch and is attributed.
    for lib in ["dense", "sparse", "stencil"] {
        let ls = stats.library(lib).unwrap_or_else(|| panic!("no stats for {lib}"));
        assert_eq!(ls.launches, 1, "{lib} must appear in exactly one launch");
        assert_eq!(
            ls.cross_library_launches, 1,
            "{lib}'s launch must be shared with other libraries"
        );
        assert!(ls.simulated_time > 0.0, "{lib} must be charged time");
    }
    assert_eq!(stats.library("dense").unwrap().tasks_submitted, 3);
    assert_eq!(stats.library("sparse").unwrap().tasks_submitted, 1);
    assert_eq!(stats.library("stencil").unwrap().tasks_submitted, 1);
}

#[test]
fn checksums_are_invariant_across_fusion_executors_and_backends() {
    let executors = [
        ExecutorKind::Serial,
        ExecutorKind::WorkStealing { workers: Some(2) },
    ];
    let backends = [BackendKind::Interp, BackendKind::Simd];
    let (reference, reference_w, fused_stats) =
        run_pipeline(true, ExecutorKind::Serial, BackendKind::Interp);
    let (unfused_ref, unfused_w, unfused_stats) =
        run_pipeline(false, ExecutorKind::Serial, BackendKind::Interp);
    // Fusion changes the schedule, not the values…
    assert_eq!(reference.to_bits(), unfused_ref.to_bits());
    assert_eq!(reference_w, unfused_w);
    // …and it strictly reduces the launch count.
    assert!(
        fused_stats.tasks_launched < unfused_stats.tasks_launched,
        "fused {} vs unfused {} launches",
        fused_stats.tasks_launched,
        unfused_stats.tasks_launched
    );
    assert_eq!(unfused_stats.tasks_launched, 5);
    assert_eq!(unfused_stats.cross_library_fused_tasks, 0);
    // Bit-identical across every executor × backend × fusion combination.
    for &fused in &[true, false] {
        for &executor in &executors {
            for &backend in &backends {
                let (checksum, w, _) = run_pipeline(fused, executor, backend);
                assert_eq!(
                    checksum.to_bits(),
                    reference.to_bits(),
                    "fused={fused} executor={executor:?} backend={backend:?}"
                );
                assert_eq!(w, reference_w);
            }
        }
    }
}
