//! End-to-end equivalence and acceptance tests for the privilege analyzer
//! (`DIFFUSE_ANALYZE`; see `docs/ANALYZE.md`).
//!
//! The scenario is the phantom-privilege pattern the analyzer exists to fix:
//! an operation whose signature declares a read-write scratch argument that
//! its kernel never touches. Passed through an aliasing partition
//! (`Partition::Replicate`), the scratch manufactures true/anti dependences
//! between otherwise pipeline-fusible tasks, so under declared privileges the
//! window splits. Under [`AnalyzeMode::Inferred`] the footprint analyzer
//! proves the scratch read-only, the phantom dependences disappear, and the
//! window fuses — with bitwise-identical results, because tightening only
//! skips the write-back of bytes the kernel provably left untouched.
//!
//! Coverage:
//! - Acceptance: declared mode splits (launch count 2, rejection recorded),
//!   inferred mode fuses (launch count drops, `privileges_tightened` > 0),
//!   outputs bitwise identical. Verification stays on, so every tightened
//!   launch also re-verifies against its effective signature (the
//!   independent cross-check).
//! - The why-not explainer names the violating boundary in declared mode
//!   and reports full fusion in inferred mode.
//! - The full 2 executors × 2 backends matrix: declared vs inferred
//!   bitwise-identical, with `fused_tasks` never lower under inferred.

use diffuse::{AnalyzeMode, BackendKind, Context, DiffuseConfig, ExecutorKind};
use ir::Partition;
use kernel::{BufferId, BufferRole, KernelModule, LoopBuilder, TaskKind, TaskSignature};
use machine::MachineConfig;

const N: u64 = 32;

/// Registers the phantom-scratch op: `out[i] = a[i] + b[i]`, with a fourth
/// read-write scratch argument the kernel never names.
fn register_phantom(ctx: &Context) -> TaskKind {
    let lib = ctx.register_library("phantom");
    lib.register(
        "add_scratch",
        TaskSignature::new().read().read().write().read_write(),
        |_args| {
            let mut m = KernelModule::new(4);
            m.set_role(BufferId(2), BufferRole::Output);
            let mut b = LoopBuilder::new("add_scratch", BufferId(2));
            let (x, y) = (b.load(BufferId(0)), b.load(BufferId(1)));
            let s = b.add(x, y);
            b.store(BufferId(2), s);
            m.push_loop(b.finish());
            m
        },
    )
}

/// Runs the two-task chain `c = a + b; e = c + d` (both tasks dragging the
/// shared replicated scratch) twice, returning the final `c`/`e` contents
/// and the context's stats.
fn run_chain(config: DiffuseConfig) -> (Vec<Vec<f64>>, diffuse::ExecutionStats) {
    let ctx = Context::new(config);
    let add = register_phantom(&ctx);
    let block = Partition::block(vec![N / 2]);

    let a = ctx.create_store(vec![N], "a");
    let b = ctx.create_store(vec![N], "b");
    let c = ctx.create_store(vec![N], "c");
    let d = ctx.create_store(vec![N], "d");
    let e = ctx.create_store(vec![N], "e");
    let scratch = ctx.create_store(vec![N], "scratch");
    ctx.write_store(&a, (0..N).map(|i| 0.25 * i as f64 - 3.0).collect());
    ctx.write_store(&b, (0..N).map(|i| 1.5 - 0.125 * i as f64).collect());
    ctx.write_store(&d, (0..N).map(|i| (i as f64).sqrt()).collect());
    ctx.fill(&scratch, 7.0);

    for _ in 0..2 {
        ctx.task(add)
            .read(&a, block.clone())
            .read(&b, block.clone())
            .write(&c, block.clone())
            .read_write(&scratch, Partition::Replicate)
            .launch();
        ctx.task(add)
            .read(&c, block.clone())
            .read(&d, block.clone())
            .write(&e, block.clone())
            .read_write(&scratch, Partition::Replicate)
            .launch();
        ctx.flush();
    }

    let outputs = vec![
        ctx.read_store(&c).unwrap(),
        ctx.read_store(&e).unwrap(),
        ctx.read_store(&scratch).unwrap(),
    ];
    (outputs, ctx.stats())
}

fn base_config() -> DiffuseConfig {
    // Verification explicitly on: every analyzer-tightened launch must pass
    // the independent effective-signature re-check (fail-fast panics here).
    DiffuseConfig::fused(MachineConfig::with_gpus(2))
        .with_verification(true)
        .with_verify_fail_fast(true)
}

fn bits(buffers: &[Vec<f64>]) -> Vec<Vec<u64>> {
    buffers
        .iter()
        .map(|b| b.iter().map(|v| v.to_bits()).collect())
        .collect()
}

/// The acceptance criterion: a window that dies on phantom privileges under
/// declared mode fuses bitwise-identically under inferred mode, with the
/// launch-count drop and the tightening visible in the stats.
#[test]
fn phantom_scratch_chain_fuses_only_under_inferred() {
    let (declared_out, declared) = run_chain(base_config().with_analyze(AnalyzeMode::Declared));
    let (inferred_out, inferred) = run_chain(base_config().with_analyze(AnalyzeMode::Inferred));

    // Bitwise-identical results, including the untouched scratch.
    assert_eq!(bits(&declared_out), bits(&inferred_out));
    assert_eq!(declared_out[2], vec![7.0; N as usize]);

    // Declared mode: the replicated read-write scratch splits both windows.
    assert_eq!(declared.tasks_submitted, 4);
    assert_eq!(declared.tasks_launched, 4);
    assert_eq!(declared.fused_tasks, 0);
    assert_eq!(declared.privileges_tightened, 0);
    assert!(
        declared.rejections_unknown >= 1,
        "the aliasing-scratch boundary must be recorded as an unknown-class rejection"
    );

    // Inferred mode: scratch proven read-only, both windows fuse.
    assert_eq!(inferred.tasks_submitted, 4);
    assert_eq!(inferred.tasks_launched, 2);
    assert_eq!(inferred.fused_tasks, 2);
    assert_eq!(
        inferred.privileges_tightened, 4,
        "one scratch argument tightened per submitted task"
    );
    assert!(inferred.tasks_launched < declared.tasks_launched);
    // The cross-check actually ran: verification counted invariant checks.
    assert!(inferred.verification_checks > 0);
}

/// The why-not explainer: in declared mode the report names the boundary,
/// classifies the edge and suggests a fix; in inferred mode the same window
/// is fully fused.
#[test]
fn explainer_reports_the_phantom_boundary() {
    let build_window = |mode: AnalyzeMode| {
        let ctx = Context::new(base_config().with_analyze(mode));
        let add = register_phantom(&ctx);
        let block = Partition::block(vec![N / 2]);
        let a = ctx.create_store(vec![N], "a");
        let b = ctx.create_store(vec![N], "b");
        let c = ctx.create_store(vec![N], "c");
        let d = ctx.create_store(vec![N], "d");
        let e = ctx.create_store(vec![N], "e");
        let scratch = ctx.create_store(vec![N], "scratch");
        for s in [&a, &b, &d, &scratch] {
            ctx.fill(s, 1.0);
        }
        ctx.task(add)
            .read(&a, block.clone())
            .read(&b, block.clone())
            .write(&c, block.clone())
            .read_write(&scratch, Partition::Replicate)
            .launch();
        ctx.task(add)
            .read(&c, block.clone())
            .read(&d, block.clone())
            .write(&e, block.clone())
            .read_write(&scratch, Partition::Replicate)
            .launch();
        let report = ctx.explain();
        ctx.flush(); // drain the window before dropping the context
        report
    };

    let declared = build_window(AnalyzeMode::Declared);
    assert!(!declared.fully_fused());
    assert_eq!(declared.segments, vec![1, 1]);
    assert_eq!(declared.boundaries.len(), 1);
    let boundary = &declared.boundaries[0];
    assert_eq!(boundary.boundary, 1);
    assert_eq!(boundary.class, Some(diffuse::DepClass::Unknown));
    assert!(!boundary.suggestion.is_empty());
    let text = declared.to_string();
    assert!(text.contains("boundary"), "report must name the boundary: {text}");
    assert!(text.contains("add_scratch"), "report must name the task: {text}");

    let inferred = build_window(AnalyzeMode::Inferred);
    assert!(inferred.fully_fused(), "tightened window must fully fuse: {inferred}");
    assert!(inferred.boundaries.is_empty());
}

/// Declared vs inferred across the full executor × backend matrix: results
/// bitwise identical, fused-task count never lower under inferred, and the
/// launch count never higher.
#[test]
fn modes_are_bitwise_identical_across_executors_and_backends() {
    let executors = [
        ExecutorKind::Serial,
        ExecutorKind::WorkStealing { workers: Some(2) },
    ];
    let backends = [BackendKind::Interp, BackendKind::Simd];
    for executor in executors {
        for backend in backends {
            let config = || base_config().with_executor(executor).with_backend(backend);
            let (declared_out, declared) =
                run_chain(config().with_analyze(AnalyzeMode::Declared));
            let (inferred_out, inferred) =
                run_chain(config().with_analyze(AnalyzeMode::Inferred));
            assert_eq!(
                bits(&declared_out),
                bits(&inferred_out),
                "{executor:?}/{backend:?}: declared and inferred modes diverged bitwise"
            );
            assert!(
                inferred.fused_tasks >= declared.fused_tasks,
                "{executor:?}/{backend:?}: inferred mode must never fuse less"
            );
            assert!(
                inferred.tasks_launched <= declared.tasks_launched,
                "{executor:?}/{backend:?}: inferred mode must never launch more"
            );
            assert!(inferred.privileges_tightened > 0);
        }
    }
}
