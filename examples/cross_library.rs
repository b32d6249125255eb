//! Cross-library fusion demo: dense + sparse + stencil in one window.
//!
//! Three independently written libraries are registered on one Diffuse
//! context and compose through store handles alone; a 5-task
//! dense→sparse→stencil pipeline fuses into a single launch. The example
//! runs the pipeline fused and unfused under every executor × backend
//! combination, asserts the results are bit-identical (it panics otherwise —
//! CI runs it in the invariance job), and prints what fusion did, per
//! library.
//!
//! Run with `cargo run --example cross_library`.

use dense::DenseContext;
use diffuse::{BackendKind, Context, DiffuseConfig, ExecutorKind};
use machine::MachineConfig;
use sparse::{CsrMatrix, SparseContext};
use stencil::StencilContext;

const GPUS: usize = 4;
const N: u64 = 256;

fn run(fused: bool, executor: ExecutorKind, backend: BackendKind) -> (f64, diffuse::ExecutionStats) {
    let machine = MachineConfig::with_gpus(GPUS);
    let config = if fused {
        DiffuseConfig::fused(machine)
    } else {
        DiffuseConfig::unfused(machine)
    }
    .with_executor(executor)
    .with_backend(backend);
    let ctx = Context::new(config);
    let np = DenseContext::new(ctx.clone());
    let sp = SparseContext::new(&ctx);
    let st = StencilContext::new(&ctx);

    // A tridiagonal system, an input vector and a ghost-bordered grid —
    // host-initialized, shared between the libraries by store handle only.
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

    // The cross-library window (every dependence is point-wise, so the whole
    // sequence is one fusible prefix):
    let y = np.wrap(a.spmv(x.handle())); //  sparse: y = A x
    let z = y.scalar_mul(0.5); //             dense:  z = 0.5 y
    st.star_1d(&grid, &smoothed, [0.5, 0.25, 0.25]); // stencil smoothing
    let w = np.wrap(smoothed.clone()).slice_1d(1..N + 1).mul(&z); // dense
    let total = w.sum(); //                   dense reduction
    ctx.flush();

    (total.scalar_value().expect("functional run"), ctx.stats())
}

fn main() {
    println!(
        "dense → sparse → stencil pipeline on {GPUS} simulated GPUs ({N} unknowns)\n"
    );
    let executors = [
        ("serial", ExecutorKind::Serial),
        ("parallel", ExecutorKind::WorkStealing { workers: Some(2) }),
    ];
    let backends = [
        ("interp", BackendKind::Interp),
        ("simd", BackendKind::Simd),
    ];

    let (reference, fused_stats) = run(true, ExecutorKind::Serial, BackendKind::Interp);
    let (unfused_checksum, unfused_stats) = run(false, ExecutorKind::Serial, BackendKind::Interp);
    assert_eq!(
        reference.to_bits(),
        unfused_checksum.to_bits(),
        "fusion changed the result"
    );
    assert!(
        fused_stats.tasks_launched < unfused_stats.tasks_launched,
        "fusion must reduce the launch count"
    );
    assert!(
        fused_stats.cross_library_fused_tasks >= 1,
        "the fused launch must span libraries"
    );

    println!("{:>10} {:>8} {:>9} {:>10}  checksum", "executor", "backend", "launches", "x-library");
    for (ename, executor) in executors {
        for (bname, backend) in backends {
            for fused in [true, false] {
                let (checksum, stats) = run(fused, executor, backend);
                assert_eq!(
                    checksum.to_bits(),
                    reference.to_bits(),
                    "{ename}/{bname} fused={fused} diverged"
                );
                println!(
                    "{:>10} {:>8} {:>9} {:>10}  {:.6} ({})",
                    ename,
                    bname,
                    stats.tasks_launched,
                    stats.cross_library_fused_tasks,
                    checksum,
                    if fused { "fused" } else { "unfused" },
                );
            }
        }
    }

    println!("\nPer-library attribution of the fused run:");
    for lib in fused_stats.per_library.iter().filter(|l| l.tasks_submitted > 0) {
        println!(
            "  {:>8}: {} task(s) submitted, {} launch(es), {} shared with other libraries, {:.3} ms simulated",
            lib.library,
            lib.tasks_submitted,
            lib.launches,
            lib.cross_library_launches,
            lib.simulated_time * 1e3,
        );
    }
    println!(
        "\nAll {} executor × backend × fusion combinations agree to the bit.",
        executors.len() * backends.len() * 2
    );
}
