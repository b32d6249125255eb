//! Measures the wall-clock cost of Diffuse's dynamic trace analysis per
//! submitted task — the runtime-overhead story of the paper's §5.2/Figure 7 —
//! and records the trajectory in `BENCH_analysis_overhead.json` (schema in
//! `docs/BENCHMARKS.md`).
//!
//! The binary replays a CG-style trace (two alternating fused vector windows
//! over persistent stores, one with a reduction tail) through a
//! simulation-only `diffuse::Context` and reports nanoseconds of host time
//! per task for two regimes:
//!
//! * **cold** — every window is a memoization miss: the analysis runs the
//!   fusible-prefix segmentation, canonicalizes the window, composes and
//!   optimizes the fused kernel and compiles it (fresh context per sample).
//! * **warm** — every window is a memoization hit: the fingerprint-first
//!   probe replays the memoized decision and launches the cached artifact;
//!   no canonical key is built and no compilation happens.
//!
//! The machine-independent quantity is the **cold/warm ratio** — how much of
//! the analysis cost memoization amortizes away. `--check` re-measures and
//! fails if the ratio drops below the hard floor of 2× or regresses more
//! than the tolerance against the checked-in baseline.
//!
//! A third regime measures the footprint analyzer of `docs/ANALYZE.md`:
//! **inferred** replays the same all-hit warm trace under
//! `AnalyzeMode::Inferred`, so every submission additionally pays the
//! memoized effective-signature probe. The analyzer is memoized per launch
//! key exactly like the window analysis, so its steady-state cost must be
//! one hash probe; `--check` fails if the inferred warm path costs more
//! than `ANALYZE_OVERHEAD_TOLERANCE` percent (default 2%) over the declared
//! warm path measured in the same process.
//!
//! ```sh
//! cargo run --release --bin analysis_overhead            # rewrite the baseline
//! cargo run --release --bin analysis_overhead -- --check # CI regression gate
//! ```

use std::time::Instant;

use bench::JsonValue;
use diffuse::{AnalyzeMode, Context, DiffuseConfig, StoreHandle, TaskSignature};
use ir::{Partition, PartitionId};
use kernel::{BufferId, BufferRole, KernelModule, LoopBuilder, TaskKind};
use machine::MachineConfig;

/// Elements per store (simulation-only: sizes only feed the cost model).
const N: u64 = 1 << 20;
/// Simulated GPUs (launch-domain points).
const GPUS: usize = 8;
/// Warm-path hits the gate must never fall below, as a multiple of the cold
/// path's per-task cost. Set from what is measured, not from what a slow miss
/// path once made easy: since a partition's bounding box is closed-form
/// (`ir::Partition::bounds_over`) a miss no longer enumerates GPUs for
/// buffer lengths and copy rectangles, which roughly halved `cold` and took the ratio from ~7× to ~3.5× with `warm`
/// unchanged. A faster miss path must not fail the gate; a warm path that
/// stops amortizing (ratio → 1) still does.
const HARD_FLOOR: f64 = 2.0;
/// Path of the recorded trajectory, relative to the workspace root.
const TOPIC: &str = "analysis_overhead";

/// Measurement window in milliseconds (`ANALYSIS_OVERHEAD_MS` overrides).
/// `--check` runs double-length windows for a steadier verdict.
fn measure_ms() -> u64 {
    bench::measure_ms("ANALYSIS_OVERHEAD_MS", 200)
}

/// The registered task kinds of the replayed trace.
struct Kinds {
    add: TaskKind,
    scale: TaskKind,
    dot: TaskKind,
    /// An add with a declared read-write scratch argument its kernel never
    /// touches — launched once (outside timed windows) in the inferred leg
    /// to prove the analyzer is actually active (`privileges_tightened`).
    phantom: TaskKind,
}

/// Length of the elementwise-chain window (models the long fused vector
/// sequences the adaptive window accumulates in steady state).
const CHAIN: usize = 24;

/// The persistent stores the trace runs over (CG reuses its vectors across
/// iterations, so successive windows are isomorphic and the warm path is
/// all hits).
struct Stores {
    x: StoreHandle,
    p: StoreHandle,
    t: StoreHandle,
    q: StoreHandle,
    s: StoreHandle,
    rs: StoreHandle,
    chain: Vec<StoreHandle>,
    block: PartitionId,
    replicate: PartitionId,
}

fn register_kinds(ctx: &Context) -> Kinds {
    let lib = ctx.register_library("cgtrace");
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
    let dot = lib.register("dot", TaskSignature::new().read().reduce(), |_args| {
        let mut m = KernelModule::new(2);
        m.set_role(BufferId(1), BufferRole::Reduction);
        let mut b = LoopBuilder::new("dot", BufferId(0));
        let x = b.load(BufferId(0));
        let xx = b.mul(x, x);
        b.reduce(BufferId(1), kernel::ReduceOp::Sum, xx);
        m.push_loop(b.finish());
        m
    });
    let phantom = lib.register(
        "phantom_add",
        TaskSignature::new().read().read().write().read_write(),
        |_args| {
            let mut m = KernelModule::new(4);
            m.set_role(BufferId(2), BufferRole::Output);
            let mut b = LoopBuilder::new("phantom_add", BufferId(2));
            let (x, y) = (b.load(BufferId(0)), b.load(BufferId(1)));
            let s = b.add(x, y);
            b.store(BufferId(2), s);
            m.push_loop(b.finish());
            m
        },
    );
    Kinds { add, scale, dot, phantom }
}

fn make_stores(ctx: &Context) -> Stores {
    Stores {
        x: ctx.create_store(vec![N], "x"),
        p: ctx.create_store(vec![N], "p"),
        t: ctx.create_store(vec![N], "t"),
        q: ctx.create_store(vec![N], "q"),
        s: ctx.create_store(vec![N], "s"),
        rs: ctx.create_store(vec![1], "rs"),
        chain: (0..=CHAIN)
            .map(|i| ctx.create_store(vec![N], &format!("c{i}")))
            .collect(),
        block: PartitionId::intern(&Partition::block(vec![N.div_ceil(GPUS as u64)])),
        replicate: PartitionId::intern(&Partition::Replicate),
    }
}

fn fresh_context(mode: AnalyzeMode) -> (Context, Kinds, Stores) {
    // Buffer the whole chain window before analyzing (the adaptive policy
    // would get there on its own; pinning it keeps samples uniform).
    let config = DiffuseConfig::fused(MachineConfig::with_gpus(GPUS))
        .simulation_only()
        .with_window(32, 70)
        .with_analyze(mode);
    let ctx = Context::new(config);
    let kinds = register_kinds(&ctx);
    let stores = make_stores(&ctx);
    (ctx, kinds, stores)
}

/// One "iteration" of the CG-style trace: a 4-task vector window with a
/// reduction tail plus a 3-task Jacobi-style correction window — 7 tasks,
/// two distinct window shapes, flushed like a solver would flush per
/// iteration. Returns the number of tasks submitted.
fn run_iteration(ctx: &Context, kinds: &Kinds, st: &Stores) -> u64 {
    let ew = |name: &str, a: &StoreHandle, b: &StoreHandle, o: &StoreHandle| {
        ctx.task(kinds.add)
            .name(name)
            .read(a, st.block)
            .read(b, st.block)
            .write(o, st.block)
            .launch();
    };
    // Window 1: t = x + p; q = alpha * t; s = q + x; rs += s . s
    ew("add_xp", &st.x, &st.p, &st.t);
    ctx.task(kinds.scale)
        .name("scale_t")
        .read(&st.t, st.block)
        .write(&st.q, st.block)
        .scalar(1.0e-3)
        .launch();
    ew("add_qx", &st.q, &st.x, &st.s);
    ctx.task(kinds.dot)
        .name("dot_ss")
        .read(&st.s, st.block)
        .reduce(&st.rs, st.replicate, ir::ReductionOp::Sum)
        .launch();
    ctx.flush();
    // Window 2: t = p + s; q = beta * t; x' = q + p (Jacobi-style tail).
    ew("add_ps", &st.p, &st.s, &st.t);
    ctx.task(kinds.scale)
        .name("scale_t2")
        .read(&st.t, st.block)
        .write(&st.q, st.block)
        .scalar(0.5)
        .launch();
    ew("add_qp", &st.q, &st.p, &st.x);
    ctx.flush();
    // Window 3: a long fully-fusible elementwise chain, the shape the
    // adaptive window converges to on elementwise-heavy traces.
    for i in 0..CHAIN {
        ctx.task(kinds.add)
            .name("chain")
            .read(&st.chain[i], st.block)
            .read(&st.p, st.block)
            .write(&st.chain[i + 1], st.block)
            .launch();
    }
    ctx.flush();
    7 + CHAIN as u64
}

/// Cold path: a fresh context per sample, timing the first (all-miss)
/// iteration only. Returns ns per task.
fn measure_cold() -> f64 {
    let budget = std::time::Duration::from_millis(measure_ms());
    let mut elapsed_ns = 0.0f64;
    let mut tasks = 0u64;
    let wall = Instant::now();
    while wall.elapsed() < budget || tasks == 0 {
        let (ctx, kinds, stores) = fresh_context(AnalyzeMode::Declared);
        let t0 = Instant::now();
        tasks += run_iteration(&ctx, &kinds, &stores);
        elapsed_ns += t0.elapsed().as_nanos() as f64;
        let stats = ctx.stats();
        assert_eq!(stats.memo_hits, 0, "cold path must be all misses");
        assert!(stats.memo_misses >= 3);
    }
    elapsed_ns / tasks as f64
}

/// Warm path: one context, memo populated, timing all-hit iterations.
/// Returns ns per task.
fn measure_warm(mode: AnalyzeMode) -> f64 {
    let (ctx, kinds, stores) = fresh_context(mode);
    // Populate the memo (and let the adaptive window settle).
    for _ in 0..3 {
        run_iteration(&ctx, &kinds, &stores);
    }
    if mode == AnalyzeMode::Inferred {
        // Prove the analyzer is active in this leg: the phantom scratch must
        // be tightened. Runs once, outside the timed windows below.
        ctx.task(kinds.phantom)
            .name("phantom_probe")
            .read(&stores.x, stores.block)
            .read(&stores.p, stores.block)
            .write(&stores.t, stores.block)
            .read_write(&stores.q, stores.block)
            .launch();
        ctx.flush();
        assert!(
            ctx.stats().privileges_tightened > 0,
            "the inferred leg must actually tighten the phantom scratch"
        );
    }
    let before = ctx.stats();
    let budget = std::time::Duration::from_millis(measure_ms());
    let mut tasks = 0u64;
    let t0 = Instant::now();
    while t0.elapsed() < budget || tasks == 0 {
        tasks += run_iteration(&ctx, &kinds, &stores);
    }
    let elapsed_ns = t0.elapsed().as_nanos() as f64;
    let delta = ctx.stats().since(&before);
    assert_eq!(delta.memo_misses, 0, "warm path must be all hits");
    assert_eq!(delta.compilations, 0, "warm path must not compile");
    assert!(delta.memo_hits >= 2);
    elapsed_ns / tasks as f64
}

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    println!("=== Analysis overhead: memo-miss (cold) vs memo-hit (warm) ns/task ===");
    bench::print_execution_axes();
    println!(
        "({} simulated GPUs, {} elements/store, {} ms windows, simulation-only)\n",
        GPUS,
        N,
        measure_ms()
    );
    let cold = measure_cold();
    let warm = measure_warm(AnalyzeMode::Declared);
    let inferred = measure_warm(AnalyzeMode::Inferred);
    let ratio = cold / warm.max(1e-9);
    let analyze_pct = (inferred / warm.max(1e-9) - 1.0) * 100.0;
    println!("{:<28}{:>14.0} ns/task", "cold (all misses)", cold);
    println!("{:<28}{:>14.0} ns/task", "warm (all hits)", warm);
    println!("{:<28}{:>14.0} ns/task", "warm + analyzer (inferred)", inferred);
    println!("{:<28}{:>13.1}x", "cold/warm ratio", ratio);
    println!("{:<28}{:>+13.2}%\n", "analyzer overhead", analyze_pct);

    assert!(
        ratio >= HARD_FLOOR,
        "memoized (warm) analysis must be at least {HARD_FLOOR}x cheaper per task \
         than the miss path (cold {cold:.0} ns vs warm {warm:.0} ns = {ratio:.1}x)"
    );

    if check {
        // Allowed inferred-over-declared warm-path overhead in percent.
        let analyze_tolerance = bench::tolerance_pct("ANALYZE_OVERHEAD_TOLERANCE", 2.0);
        println!(
            "analyzer: declared {warm:.0} ns/task, inferred {inferred:.0} ns/task, \
             overhead {analyze_pct:+.2}% (tolerance {analyze_tolerance}%) — {}",
            if analyze_pct > analyze_tolerance { "REGRESSED" } else { "ok" }
        );
        assert!(
            analyze_pct <= analyze_tolerance,
            "DIFFUSE_ANALYZE=inferred costs {analyze_pct:.2}% > {analyze_tolerance}% on \
             the warm path; the effective-signature probe must stay memoized per \
             launch key (docs/ANALYZE.md), or raise ANALYZE_OVERHEAD_TOLERANCE \
             for the migration"
        );
        let path = format!("BENCH_{TOPIC}.json");
        let baseline = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("--check needs a checked-in {path}: {e}"));
        let base = bench::parse_metric(&baseline, "analysis_overhead/ratio", "ratio")
            .unwrap_or_else(|| panic!("no ratio entry in {path}"));
        // Allowed cold/warm ratio regression in percent.
        let tolerance = bench::tolerance_pct("ANALYSIS_OVERHEAD_TOLERANCE", 30.0);
        let floor = (base * (1.0 - tolerance / 100.0)).max(HARD_FLOOR);
        println!(
            "baseline {base:.1}x, current {ratio:.1}x, floor {floor:.1}x — {}",
            if ratio < floor { "REGRESSED" } else { "ok" }
        );
        assert!(
            ratio >= floor,
            "analysis-overhead amortization regressed >{tolerance}% vs {path}; \
             re-record the baseline (`cargo run --release --bin analysis_overhead`) \
             if this run is on different hardware, or raise ANALYSIS_OVERHEAD_TOLERANCE \
             for the migration"
        );
        println!("\ncheck passed: ratio within {tolerance}% of the recorded baseline.");
    } else {
        let lines = vec![
            bench::json_line(
                "analysis_overhead/cold",
                &[("ns_per_task", JsonValue::Num(cold))],
            ),
            bench::json_line(
                "analysis_overhead/warm",
                &[("ns_per_task", JsonValue::Num(warm))],
            ),
            bench::json_line(
                "analysis_overhead/inferred",
                &[("ns_per_task", JsonValue::Num(inferred))],
            ),
            bench::json_line(
                "analysis_overhead/analyze_overhead",
                &[("pct_vs_warm", JsonValue::Num(analyze_pct))],
            ),
            bench::json_line("analysis_overhead/ratio", &[("ratio", JsonValue::Num(ratio))]),
        ];
        let path = bench::write_bench_file(TOPIC, &lines);
        println!("recorded {path}");
    }
}
