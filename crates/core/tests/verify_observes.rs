//! Verification only observes (`docs/VERIFY.md`): one fixed stream run with
//! the verifier on and off must produce the same bits, the same simulated
//! clock, the same runtime profile and the same statistics — except
//! `verification_checks`, which is what the verifier adds. That includes
//! the replay's plan check: with the verifier on, every replay re-derives
//! its launch plan and compares it with the memoized one; with it off, the
//! memoized plan is used unchecked, and nothing the run leaves may differ.
//!
//! The stream covers every path the window pipeline has: a fused chain with
//! an eliminated temporary, a reduction split, memo replays, a layout-drift
//! re-memoization, a horizontally packed leg and an unfused leg. Every knob
//! an environment variable could move is pinned, so the check counts hold
//! on every CI leg.

use diffuse::{
    AnalyzeMode, BackendKind, Context, DiffuseConfig, ExecutionStats, ExecutorKind, StoreHandle,
    TaskKind, TaskSignature,
};
use runtime::Profile;
use ir::{Domain, Partition, ReductionOp};
use kernel::{BufferId, BufferRole, KernelModule, LoopBuilder, ReduceOp};
use machine::MachineConfig;

const N: u64 = 64;
const GPUS: u64 = 4;

struct Ops {
    add: TaskKind,
    scale: TaskKind,
    sum_sq: TaskKind,
    scale_by: TaskKind,
}

fn register(ctx: &Context) -> Ops {
    let lib = ctx.register_library("observe");
    let add = lib.register("add", TaskSignature::new().read().read().write(), |_| {
        let mut m = KernelModule::new(3);
        m.set_role(BufferId(2), BufferRole::Output);
        let mut b = LoopBuilder::new("add", BufferId(2));
        let (x, y) = (b.load(BufferId(0)), b.load(BufferId(1)));
        let v = b.add(x, y);
        b.store(BufferId(2), v);
        m.push_loop(b.finish());
        m
    });
    let scale = lib.register(
        "scale",
        TaskSignature::new().read().write().scalars(1),
        |_| {
            let mut m = KernelModule::new(2);
            m.set_role(BufferId(1), BufferRole::Output);
            let mut b = LoopBuilder::new("scale", BufferId(1));
            let (x, p) = (b.load(BufferId(0)), b.param(0));
            let v = b.mul(x, p);
            b.store(BufferId(1), v);
            m.push_loop(b.finish());
            m
        },
    );
    let sum_sq = lib.register("sum_sq", TaskSignature::new().read().reduce(), |_| {
        let mut m = KernelModule::new(2);
        m.set_role(BufferId(1), BufferRole::Reduction);
        let mut b = LoopBuilder::new("sum_sq", BufferId(0));
        let x = b.load(BufferId(0));
        let v = b.mul(x, x);
        b.reduce(BufferId(1), ReduceOp::Sum, v);
        m.push_loop(b.finish());
        m
    });
    let scale_by = lib.register(
        "scale_by",
        TaskSignature::new().read().read().write(),
        |_| {
            let mut m = KernelModule::new(3);
            m.set_role(BufferId(2), BufferRole::Output);
            let mut b = LoopBuilder::new("scale_by", BufferId(2));
            let (x, s) = (b.load(BufferId(0)), b.load_scalar(BufferId(1)));
            let v = b.mul(x, s);
            b.store(BufferId(2), v);
            m.push_loop(b.finish());
            m
        },
    );
    Ops {
        add,
        scale,
        sum_sq,
        scale_by,
    }
}

/// What one leg leaves behind: its outputs' bits, its clock's bits, its
/// runtime profile and its statistics.
type Leg = (Vec<Vec<u64>>, u64, Profile, ExecutionStats);

fn context(config: DiffuseConfig, verify: bool) -> Context {
    Context::new(DiffuseConfig {
        fault_plan: None,
        ..config
            .with_backend(BackendKind::Interp)
            .with_executor(ExecutorKind::Serial)
            .with_analyze(AnalyzeMode::Declared)
            .with_verification(verify)
            .with_verify_fail_fast(true)
    })
}

fn finish(ctx: &Context, outputs: &[StoreHandle]) -> Leg {
    let bits = outputs
        .iter()
        .map(|s| {
            ctx.read_store(s)
                .unwrap()
                .iter()
                .map(|v| v.to_bits())
                .collect()
        })
        .collect();
    (bits, ctx.elapsed().to_bits(), ctx.profile(), ctx.stats())
}

/// `t = a + b; u = 0.5 t; s = Σ u²; v = s · a`, with `t` dropped before the
/// flush unless `keep_temp`: the first three tasks fuse with `t` eliminated,
/// and reading the reduced `s` splits the window before the fourth.
fn chain_round(
    ctx: &Context,
    ops: &Ops,
    a: &StoreHandle,
    b: &StoreHandle,
    keep_temp: bool,
) -> Vec<StoreHandle> {
    let p = Partition::block(vec![N / GPUS]);
    let store = |name: &str, len: u64| ctx.create_store(vec![len], name);
    let (t, u, s, v) = (store("t", N), store("u", N), store("s", 1), store("v", N));
    ctx.fill(&s, 0.0);
    ctx.task(ops.add)
        .read(a, p.clone())
        .read(b, p.clone())
        .write(&t, p.clone())
        .launch();
    ctx.task(ops.scale)
        .read(&t, p.clone())
        .write(&u, p.clone())
        .scalar(0.5)
        .launch();
    ctx.task(ops.sum_sq)
        .read(&u, p.clone())
        .reduce(&s, Partition::Replicate, ReductionOp::Sum)
        .launch();
    ctx.task(ops.scale_by)
        .read(a, p.clone())
        .read(&s, Partition::Replicate)
        .write(&v, p)
        .launch();
    let mut kept = vec![u, s, v];
    if keep_temp {
        ctx.flush();
        kept.push(t);
    } else {
        drop(t);
        ctx.flush();
    }
    kept
}

/// The fused leg: a miss, a replay, a layout drift (the temporary is kept
/// live, so the cached layout no longer applies) and a replay of the
/// re-memoized layout.
fn fused_leg(verify: bool) -> Leg {
    let ctx = context(
        DiffuseConfig::fused(MachineConfig::with_gpus(GPUS as usize)),
        verify,
    );
    let ops = register(&ctx);
    let (a, b) = (
        ctx.create_store(vec![N], "a"),
        ctx.create_store(vec![N], "b"),
    );
    ctx.write_store(&a, (0..N).map(|i| 0.25 * i as f64 - 3.0).collect());
    ctx.write_store(&b, (0..N).map(|i| 1.0 / (1 + i % 5) as f64).collect());
    let mut outputs = Vec::new();
    for keep_temp in [false, false, true, true] {
        outputs.extend(chain_round(&ctx, &ops, &a, &b, keep_temp));
    }
    finish(&ctx, &outputs)
}

/// The unfused leg: the same chain twice, one launch per task. The first
/// round builds each task's library kernel; the second replays them.
fn unfused_leg(verify: bool) -> Leg {
    let ctx = context(
        DiffuseConfig::unfused(MachineConfig::with_gpus(GPUS as usize)),
        verify,
    );
    let ops = register(&ctx);
    let (a, b) = (
        ctx.create_store(vec![N], "a"),
        ctx.create_store(vec![N], "b"),
    );
    ctx.write_store(&a, (0..N).map(|i| 0.5 * i as f64).collect());
    ctx.fill(&b, 2.0);
    let mut outputs = chain_round(&ctx, &ops, &a, &b, false);
    outputs.extend(chain_round(&ctx, &ops, &a, &b, false));
    finish(&ctx, &outputs)
}

/// The horizontal leg: two rounds of four independent batches, each an add
/// over the GPUs followed by a single-point finalize — packed into two wide
/// launches per round, the second round replaying both.
fn horizontal_leg(verify: bool) -> Leg {
    let config = DiffuseConfig::fused(MachineConfig::with_gpus(GPUS as usize))
        .with_window(64, 64)
        .with_horizontal_fusion(true);
    let ctx = context(config, verify);
    let ops = register(&ctx);
    let p = Partition::block(vec![N / GPUS]);
    let mut outputs = Vec::new();
    for round in 0..2 {
        let mut batches = Vec::new();
        for k in 0..4 {
            let x = ctx.create_store(vec![N], "x");
            ctx.fill(&x, (round * 4 + k) as f64);
            batches.push((
                x,
                ctx.create_store(vec![N], "y"),
                ctx.create_store(vec![N], "z"),
            ));
        }
        for (x, y, z) in &batches {
            ctx.task(ops.add)
                .read(x, p.clone())
                .read(x, p.clone())
                .write(y, p.clone())
                .launch();
            ctx.task(ops.scale)
                .domain(Domain::linear(1))
                .read(y, Partition::Replicate)
                .write(z, Partition::Replicate)
                .scalar(0.75)
                .launch();
        }
        ctx.flush();
        outputs.extend(batches.into_iter().map(|(_, _, z)| z));
    }
    finish(&ctx, &outputs)
}

#[test]
fn verification_only_observes() {
    let legs: [fn(bool) -> Leg; 3] = [fused_leg, horizontal_leg, unfused_leg];
    let mut stats = Vec::new();
    for leg in legs {
        let (data, clock, profile, verified) = leg(true);
        let (plain_data, plain_clock, plain_profile, plain) = leg(false);
        assert_eq!(data, plain_data, "verification changed data");
        assert_eq!(
            clock, plain_clock,
            "verification changed the simulated clock"
        );
        assert_eq!(profile, plain_profile, "verification changed the profile");
        assert_eq!(plain.verification_checks, 0);
        let observed = ExecutionStats {
            verification_checks: 0,
            ..verified.clone()
        };
        assert_eq!(observed, plain, "verification changed a statistic");
        stats.push(verified);
    }
    // The stream takes every path it claims to.
    let [fused, horizontal, unfused] = &stats[..] else {
        unreachable!()
    };
    // One probe per flush: round one misses and compiles both segments,
    // rounds two to four hit, and round three recompiles its drifted one.
    assert_eq!(
        (fused.memo_misses, fused.memo_hits, fused.compilations),
        (1, 3, 3)
    );
    assert_eq!(
        (fused.temporaries_eliminated, fused.rejections_reduction),
        (2, 1)
    );
    assert_eq!(
        (horizontal.horizontally_fused_tasks, horizontal.memo_hits),
        (16, 1)
    );
    assert_eq!((unfused.tasks_launched, unfused.fused_tasks), (8, 0));
    // Recorded by running this file, unchanged, against the tree before the
    // window pipeline was split into plan → lower → launch (commit c392854,
    // where every check site carried its own `if enable_verification`
    // block): the one gate must neither drop nor add a check. Since replays
    // reuse their skeleton's launch plan, each replay adds one plan check:
    // five in the fused leg (three hits of a two-segment plan, one segment
    // of which drifts and recompiles) and two in the horizontal leg. A task launched alone
    // checks its module once, when its library kernel is built: 68 on the
    // first unfused round, as when every unfused launch was checked; each of
    // the second round's four launches replays a library kernel and adds one
    // plan check. Since a plan carries its segments' liveness masks, every
    // fused segment of every flush re-derives its temporaries with the
    // reference walk once: eight in the fused leg (four flushes of two
    // segments) and four in the horizontal leg (two flushes of two packed
    // launches); the unfused leg demotes nothing and checks none.
    let checks: Vec<u64> = stats.iter().map(|s| s.verification_checks).collect();
    assert_eq!(checks, vec![230 + 5 + 8, 400 + 2 + 4, 68 + 4]);
}
