//! Measures what the resilience layer (`docs/RESILIENCE.md`) costs when it
//! is **off** — the "free when disabled" half of the chaos layer's headline
//! invariant — and records the result in `BENCH_resilience.json` (schema in
//! `docs/BENCHMARKS.md`).
//!
//! The binary replays the same CG-style warm trace as `analysis_overhead`
//! (memo all-hits, the steady-state hot path) in three regimes:
//!
//! * **disabled** — no `FaultPlan` configured: the exact code the layer must
//!   not slow down. Compared against the `analysis_overhead/warm` baseline,
//!   which measured this same path before/without the chaos plumbing.
//! * **armed** — a plan is configured at rate 0.0: every launch pays the
//!   fingerprint-keyed fault-decision hash but nothing ever fires.
//! * **saturated** — rate 1.0 with recovery on: a correctness smoke, not a
//!   timing one; asserts faults were injected, everything was retried, and
//!   nothing abandoned, and records the per-iteration counters.
//!
//! `--check` re-measures the disabled path and fails if its ns/task exceeds
//! the recorded `analysis_overhead/warm` baseline by more than the tolerance
//! (default 2%). Wall-clock gates are machine-sensitive: regenerate
//! `BENCH_analysis_overhead.json` on the same machine first (CI's `faults`
//! job does), or raise `FAULT_OVERHEAD_TOLERANCE`.
//!
//! ```sh
//! cargo run --release --bin fault_overhead            # rewrite BENCH_resilience.json
//! cargo run --release --bin fault_overhead -- --check # CI regression gate
//! ```

use std::time::Instant;

use bench::JsonValue;
use diffuse::{
    Context, DiffuseConfig, FaultPlan, RecoveryPolicy, StoreHandle, TaskSignature,
};
use ir::{Partition, PartitionId};
use kernel::{BufferId, BufferRole, KernelModule, LoopBuilder, TaskKind};
use machine::MachineConfig;

/// Elements per store (simulation-only: sizes only feed the cost model).
const N: u64 = 1 << 20;
/// Simulated GPUs (launch-domain points).
const GPUS: usize = 8;
const TOPIC: &str = "resilience";
/// Samples per regime; the minimum is reported (robust against scheduler
/// noise, which only ever inflates a sample).
const SAMPLES: usize = 5;

/// Measurement window per sample in milliseconds (`FAULT_OVERHEAD_MS`
/// overrides). `--check` runs double-length windows for a steadier verdict.
fn measure_ms() -> u64 {
    bench::measure_ms("FAULT_OVERHEAD_MS", 120)
}

struct Kinds {
    add: TaskKind,
    scale: TaskKind,
}

/// Length of the elementwise window — long enough that per-launch costs
/// (where the fault hooks live) dominate per-window costs.
const CHAIN: usize = 24;

struct Stores {
    p: StoreHandle,
    chain: Vec<StoreHandle>,
    block: PartitionId,
}

fn register_kinds(ctx: &Context) -> Kinds {
    let lib = ctx.register_library("chaostrace");
    let add = lib.register("add", TaskSignature::new().read().read().write(), |_args| {
        let mut m = KernelModule::new(3);
        m.set_role(BufferId(2), BufferRole::Output);
        let mut b = LoopBuilder::new("add", BufferId(2));
        let (x, y) = (b.load(BufferId(0)), b.load(BufferId(1)));
        let s = b.add(x, y);
        b.store(BufferId(2), s);
        m.push_loop(b.finish());
        m
    });
    let scale = lib.register("scale", TaskSignature::new().read().write().scalars(1), |_args| {
        let mut m = KernelModule::new(2);
        m.set_role(BufferId(1), BufferRole::Output);
        let mut b = LoopBuilder::new("scale", BufferId(1));
        let x = b.load(BufferId(0));
        let a = b.param(0);
        let v = b.mul(x, a);
        b.store(BufferId(1), v);
        m.push_loop(b.finish());
        m
    });
    Kinds { add, scale }
}

fn make_stores(ctx: &Context) -> Stores {
    Stores {
        p: ctx.create_store(vec![N], "p"),
        chain: (0..=CHAIN)
            .map(|i| ctx.create_store(vec![N], &format!("c{i}")))
            .collect(),
        block: PartitionId::intern(&Partition::block(vec![N.div_ceil(GPUS as u64)])),
    }
}

/// A context over the warm trace with the given fault plan (`None` clears
/// the `DIFFUSE_FAULTS` environment default so "disabled" really is).
fn context_with(plan: Option<FaultPlan>) -> (Context, Kinds, Stores) {
    let mut config = DiffuseConfig::fused(MachineConfig::with_gpus(GPUS))
        .simulation_only()
        .with_window(32, 70)
        .with_recovery(RecoveryPolicy::default());
    config.fault_plan = plan;
    let ctx = Context::new(config);
    let kinds = register_kinds(&ctx);
    let stores = make_stores(&ctx);
    (ctx, kinds, stores)
}

/// One warm iteration: a fused elementwise chain plus a scale tail — CHAIN+1
/// tasks, one window shape, all memo hits after the first pass.
fn run_iteration(ctx: &Context, kinds: &Kinds, st: &Stores) -> u64 {
    for i in 0..CHAIN {
        ctx.task(kinds.add)
            .name("chain")
            .read(&st.chain[i], st.block)
            .read(&st.p, st.block)
            .write(&st.chain[i + 1], st.block)
            .launch();
    }
    ctx.task(kinds.scale)
        .name("scale_tail")
        .read(&st.chain[CHAIN], st.block)
        .write(&st.chain[0], st.block)
        .scalar(0.5)
        .launch();
    ctx.flush();
    CHAIN as u64 + 1
}

/// Warm ns/task under the given plan: memo populated, min over `SAMPLES`
/// timed windows.
fn measure_warm(plan: Option<FaultPlan>) -> f64 {
    let expect_faults = plan.as_ref().is_some_and(|p| p.rate() > 0.0);
    let (ctx, kinds, stores) = context_with(plan);
    for _ in 0..3 {
        run_iteration(&ctx, &kinds, &stores);
    }
    let mut best = f64::INFINITY;
    let budget = std::time::Duration::from_millis(measure_ms());
    for _ in 0..SAMPLES {
        let before = ctx.stats();
        let mut tasks = 0u64;
        let t0 = Instant::now();
        while t0.elapsed() < budget || tasks == 0 {
            tasks += run_iteration(&ctx, &kinds, &stores);
        }
        let elapsed_ns = t0.elapsed().as_nanos() as f64;
        let delta = ctx.stats().since(&before);
        assert_eq!(delta.memo_misses, 0, "warm path must be all hits");
        assert_eq!(
            delta.faults_injected > 0,
            expect_faults,
            "fault counters must match the configured plan"
        );
        best = best.min(elapsed_ns / tasks as f64);
    }
    best
}

/// Saturated-schedule smoke: every launch faults at least once, recovery
/// repairs all of it. Returns per-iteration (faults, retries, degraded).
fn saturated_counters() -> (f64, f64, f64) {
    let (ctx, kinds, stores) = context_with(Some(FaultPlan::new(2024, 1.0)));
    let mut iters = 0u64;
    for _ in 0..8 {
        run_iteration(&ctx, &kinds, &stores);
        iters += 1;
    }
    let stats = ctx.stats();
    assert!(stats.faults_injected > 0, "rate 1.0 must inject");
    assert!(stats.retries > 0, "recovery must retry");
    assert_eq!(stats.abandoned_launches, 0, "recovery must not abandon");
    assert!(stats.recovery_sim_time > 0.0, "recovery is priced");
    assert!(ctx.take_failures().is_empty(), "recovery must not fail launches");
    (
        stats.faults_injected as f64 / iters as f64,
        stats.retries as f64 / iters as f64,
        stats.degraded_launches as f64 / iters as f64,
    )
}

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    println!("=== Resilience overhead: warm ns/task with the chaos layer off ===");
    bench::print_execution_axes();
    println!(
        "({} simulated GPUs, {} elements/store, {}x{} ms windows, simulation-only)\n",
        GPUS,
        N,
        SAMPLES,
        measure_ms()
    );

    let disabled = measure_warm(None);
    let armed = measure_warm(Some(FaultPlan::new(1, 0.0)));
    let (faults_per_iter, retries_per_iter, degraded_per_iter) = saturated_counters();

    let baseline_path = "BENCH_analysis_overhead.json";
    let baseline = std::fs::read_to_string(baseline_path)
        .unwrap_or_else(|e| panic!("needs a recorded {baseline_path}: {e}"));
    let base_warm = bench::parse_metric(&baseline, "analysis_overhead/warm", "ns_per_task")
        .unwrap_or_else(|| panic!("no analysis_overhead/warm entry in {baseline_path}"));
    let overhead_pct = (disabled / base_warm - 1.0) * 100.0;

    println!("{:<28}{:>14.0} ns/task", "disabled (no plan)", disabled);
    println!("{:<28}{:>14.0} ns/task", "armed (rate 0.0)", armed);
    println!("{:<28}{:>14.0} ns/task", "analysis_overhead/warm", base_warm);
    println!("{:<28}{:>+13.2}%", "disabled overhead", overhead_pct);
    println!(
        "{:<28}{:>10.1} faults, {:.1} retries, {:.1} degraded / iteration\n",
        "saturated (rate 1.0)", faults_per_iter, retries_per_iter, degraded_per_iter
    );

    if check {
        // Allowed disabled-path overhead in percent over the recorded baseline.
        let tolerance = bench::tolerance_pct("FAULT_OVERHEAD_TOLERANCE", 2.0);
        println!(
            "baseline {base_warm:.0} ns/task, disabled {disabled:.0} ns/task, \
             overhead {overhead_pct:+.2}% (tolerance {tolerance}%) — {}",
            if overhead_pct > tolerance { "REGRESSED" } else { "ok" }
        );
        assert!(
            overhead_pct <= tolerance,
            "the disabled chaos layer costs {overhead_pct:.2}% > {tolerance}% over \
             {baseline_path}; regenerate the baseline on this machine \
             (`cargo run --release --bin analysis_overhead`) if hardware changed, \
             or raise FAULT_OVERHEAD_TOLERANCE for the migration"
        );
        println!("\ncheck passed: disabled-path overhead within {tolerance}%.");
    } else {
        let lines = vec![
            bench::json_line(
                "resilience/disabled",
                &[("ns_per_task", JsonValue::Num(disabled))],
            ),
            bench::json_line("resilience/armed", &[("ns_per_task", JsonValue::Num(armed))]),
            bench::json_line(
                "resilience/overhead",
                &[("pct_vs_analysis_warm", JsonValue::Num(overhead_pct))],
            ),
            bench::json_line(
                "resilience/saturated",
                &[
                    ("faults_per_iter", JsonValue::Num(faults_per_iter)),
                    ("retries_per_iter", JsonValue::Num(retries_per_iter)),
                    ("degraded_per_iter", JsonValue::Num(degraded_per_iter)),
                ],
            ),
        ];
        let path = bench::write_bench_file(TOPIC, &lines);
        println!("recorded {path}");
    }
}
