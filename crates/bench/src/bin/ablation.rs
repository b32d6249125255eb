//! Ablations discussed in Section 7: task fusion without kernel fusion yields
//! little benefit at these task granularities, and memoization is required to
//! keep analysis/compilation cost off the critical path.

use apps::Mode;
use dense::DenseContext;
use diffuse::{Context, DiffuseConfig};
use machine::MachineConfig;

fn black_scholes_like(np: &DenseContext, n: u64, iters: u64) -> (f64, f64, u64) {
    let s = np.full(&[n], 100.0);
    let k = np.full(&[n], 105.0);
    for _ in 0..2 {
        let _ = s.div(&k).ln().scalar_mul(0.5).exp().scalar_add(1.0);
    }
    np.flush();
    np.context().reset_timing();
    for _ in 0..iters {
        let _ = s.div(&k).ln().scalar_mul(0.5).exp().scalar_add(1.0);
    }
    np.flush();
    let stats = np.context().stats();
    (np.context().elapsed(), stats.compile_time, stats.compilations)
}

fn main() {
    bench::print_execution_axes();
    let gpus = 8;
    let n = (1u64 << 22) * gpus as u64;
    let iters = 20;
    println!("=== Ablation: elementwise chain, 8 GPUs, {iters} iterations ===");
    let configs = [
        ("full Diffuse", DiffuseConfig::fused(MachineConfig::with_gpus(gpus))),
        ("task fusion only", DiffuseConfig::task_fusion_only(MachineConfig::with_gpus(gpus))),
        ("no memoization", DiffuseConfig::fused(MachineConfig::with_gpus(gpus)).without_memoization()),
        ("unfused", DiffuseConfig::unfused(MachineConfig::with_gpus(gpus))),
    ];
    println!("{:<20}{:>16}{:>18}{:>16}", "Configuration", "Time (s)", "Compile time (s)", "Compilations");
    for (name, config) in configs {
        // One window per 5-task chain iteration, so every window after the
        // first is isomorphic to it: the memo's effect shows in the counts.
        let config = config.with_window(5, 5).simulation_only();
        let np = DenseContext::new(Context::new(config));
        let (elapsed, compile_time, compilations) = black_scholes_like(&np, n, iters);
        println!("{name:<20}{elapsed:>16.4}{compile_time:>18.3}{compilations:>16}");
    }
    println!();
    println!("Expected shape: full Diffuse is fastest; task fusion alone only removes");
    println!("runtime overhead (little benefit at >1ms tasks); disabling memoization");
    println!("recompiles every window (compare the compilation counts); unfused is slowest.");

    // Ablation mode comparison on a real application.
    println!("\n=== CG with and without Diffuse (8 GPUs) ===");
    for mode in [Mode::Fused, Mode::Unfused] {
        let r = apps::cg::run(mode, gpus, 1 << 27, 10, false);
        println!("{:<16} throughput {:.2} it/s, {:.1} launches/iter", mode.to_string(), r.throughput, r.launches_per_iteration);
    }
}
