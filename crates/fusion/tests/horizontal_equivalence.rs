//! Property-test harness for horizontal fusion: randomly generated batches of
//! independent equal-domain chains, interleaved with domain-1 finalizes and
//! cross-batch couplings, must execute bit-identically whether the stream is
//! left alone (unfused), vertically fused, or vertically fused after the
//! horizontal pass reorders it — while the horizontal run launches strictly
//! fewer tasks.
//!
//! Horizontal fusion is the first analysis that *reorders* the stream, so the
//! soundness argument (pairwise disjointness means any interleaving of group
//! members is valid, and overtaken segments are proven conflict-free) lives
//! here as an executable property rather than a comment. The configurations
//! are built through the `DiffuseConfig::fused`/`unfused` presets so the
//! `DIFFUSE_EXECUTOR` x `DIFFUSE_BACKEND` CI matrix applies to every case.

use diffuse::{Context, DiffuseConfig, StoreHandle, TaskKind, TaskSignature};
use ir::{Domain, Partition};
use kernel::{BufferId, BufferRole, KernelModule, LoopBuilder};
use machine::MachineConfig;
use proptest::prelude::*;

const GPUS: usize = 4;
const N: u64 = 16;

/// One independent batch: a chain of `len` elementwise scales over fresh
/// stores, closed by a domain-1 finalize. `couple` adds a second domain-1
/// task that reads the *previous* batch's finalize output, exercising the
/// ordering checks (the coupled finalize segment must not overtake the chain
/// that feeds it).
#[derive(Debug, Clone)]
struct BatchSpec {
    len: usize,
    seed: u32,
    couple: bool,
}

fn register_scale(ctx: &Context) -> TaskKind {
    let lib = ctx.register_library("hscale");
    lib.register(
        "scale",
        TaskSignature::new().read().write().scalars(1),
        |_args| {
            let mut m = KernelModule::new(2);
            m.set_role(BufferId(1), BufferRole::Output);
            let mut b = LoopBuilder::new("scale", BufferId(1));
            let x = b.load(BufferId(0));
            let s = b.param(0);
            let v = b.mul(x, s);
            b.store(BufferId(1), v);
            m.push_loop(b.finish());
            m
        },
    )
}

struct RunOutcome {
    /// Raw f64 bit patterns of every observable store, in submission order.
    bits: Vec<Vec<u64>>,
    stats: diffuse::ExecutionStats,
    submitted: u64,
}

/// Builds the batched stream under `config` and executes it. Every
/// configuration submits the *same* task sequence over identically filled
/// stores; only the analysis differs.
fn run(config: DiffuseConfig, batches: &[BatchSpec], shared_input: bool) -> RunOutcome {
    let ctx = Context::new(config.with_window(256, 256));
    let scale = register_scale(&ctx);
    let p = Partition::block(vec![N.div_ceil(GPUS as u64)]);

    // Allocate and fill every input up front: `fill` flushes the window, so
    // data setup must finish before the first task submission to keep all
    // configurations analyzing one identical window.
    let shared = ctx.create_store(vec![N], "shared");
    ctx.fill(&shared, 1.5);
    let inputs: Vec<StoreHandle> = batches
        .iter()
        .enumerate()
        .map(|(i, b)| {
            let s = ctx.create_store(vec![N], "in");
            ctx.fill(&s, 1.0 + (i as f64) + (b.seed % 3) as f64 * 0.25);
            s
        })
        .collect();

    let mut observable: Vec<StoreHandle> = Vec::new();
    let mut prev_resp: Option<StoreHandle> = None;
    let mut submitted = 0u64;
    let stats0 = ctx.stats();
    for (i, b) in batches.iter().enumerate() {
        let mut cur = if shared_input { shared.clone() } else { inputs[i].clone() };
        for j in 0..b.len {
            let next = ctx.create_store(vec![N], "link");
            let c = 0.5 + ((b.seed as usize + j) % 4) as f64 * 0.25;
            ctx.task(scale)
                .read(&cur, p.clone())
                .write(&next, p.clone())
                .scalar(c)
                .launch();
            submitted += 1;
            cur = next;
        }
        let resp = ctx.create_store(vec![N], "resp");
        ctx.task(scale)
            .domain(Domain::linear(1))
            .read(&cur, Partition::Replicate)
            .write(&resp, Partition::Replicate)
            .scalar(0.5)
            .launch();
        submitted += 1;
        observable.push(cur);
        observable.push(resp.clone());
        if b.couple {
            if let Some(prev) = &prev_resp {
                let w = ctx.create_store(vec![N], "coupled");
                ctx.task(scale)
                    .domain(Domain::linear(1))
                    .read(prev, Partition::Replicate)
                    .write(&w, Partition::Replicate)
                    .scalar(2.0)
                    .launch();
                submitted += 1;
                observable.push(w);
            }
        }
        prev_resp = Some(resp);
    }
    ctx.flush();
    let bits = observable
        .iter()
        .map(|s| {
            ctx.read_store(s)
                .unwrap()
                .into_iter()
                .map(f64::to_bits)
                .collect()
        })
        .collect();
    RunOutcome {
        bits,
        stats: ctx.stats().since(&stats0),
        submitted,
    }
}

fn machine() -> MachineConfig {
    MachineConfig::with_gpus(GPUS)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The core soundness property: reordering proven-independent segments
    /// never changes a single output bit, and always launches strictly fewer
    /// tasks than the purely vertical analysis on batched streams.
    #[test]
    fn horizontal_fusion_is_bitwise_invisible(
        batches in prop::collection::vec(
            (1..4usize, 0..7u32, 0..2u8)
                .prop_map(|(len, seed, couple)| BatchSpec { len, seed, couple: couple == 1 }),
            2..5,
        ),
        shared_input in (0..2u8).prop_map(|b| b == 1),
    ) {
        let unfused = run(DiffuseConfig::unfused(machine()), &batches, shared_input);
        let vertical = run(
            DiffuseConfig::fused(machine()).with_horizontal_fusion(false),
            &batches,
            shared_input,
        );
        let horizontal = run(
            DiffuseConfig::fused(machine()).with_horizontal_fusion(true),
            &batches,
            shared_input,
        );

        prop_assert_eq!(&vertical.bits, &unfused.bits,
            "vertical fusion changed results");
        prop_assert_eq!(&horizontal.bits, &unfused.bits,
            "horizontal fusion changed results");

        // The unfused baseline forwards every submission unchanged.
        prop_assert_eq!(unfused.stats.tasks_launched, unfused.submitted);
        prop_assert!(vertical.stats.tasks_launched <= unfused.stats.tasks_launched);
        // With at least two independent chains the pass always finds a merge:
        // the chains are pairwise disjoint (shared stores are read-only on
        // both sides) and every intervening domain-1 segment commutes with
        // them, so the launch count must drop strictly.
        prop_assert!(
            horizontal.stats.tasks_launched < vertical.stats.tasks_launched,
            "expected a strict launch-count drop: horizontal {} vs vertical {}",
            horizontal.stats.tasks_launched,
            vertical.stats.tasks_launched,
        );
        prop_assert!(horizontal.stats.horizontally_fused_tasks > 0);
        prop_assert_eq!(vertical.stats.horizontally_fused_tasks, 0);
        prop_assert_eq!(unfused.stats.horizontally_fused_tasks, 0);
    }
}

/// The ISSUE acceptance shape: eight independent equal-domain batches land in
/// exactly two launches (one wide chain launch, one wide finalize launch).
#[test]
fn eight_independent_batches_land_in_two_launches() {
    let batches: Vec<BatchSpec> = (0..8)
        .map(|i| BatchSpec { len: 1, seed: i, couple: false })
        .collect();
    let horizontal = run(
        DiffuseConfig::fused(machine()).with_horizontal_fusion(true),
        &batches,
        false,
    );
    let vertical = run(
        DiffuseConfig::fused(machine()).with_horizontal_fusion(false),
        &batches,
        false,
    );
    assert_eq!(vertical.stats.tasks_launched, 16);
    assert_eq!(horizontal.stats.tasks_launched, 2);
    assert_eq!(horizontal.stats.horizontally_fused_tasks, 16);
    assert_eq!(horizontal.bits, vertical.bits);
}

/// The horizontal pass is backend-invariant: the wide merged launches
/// produce the same bits under the interpreter and SIMD kernel backends,
/// with identical launch accounting. This pins the reordered
/// skeleton's soundness to every shipped lowering, not just the default.
#[test]
fn horizontal_fusion_is_backend_invariant() {
    use kernel::BackendKind;
    let batches: Vec<BatchSpec> = (0..4)
        .map(|i| BatchSpec { len: 2, seed: i, couple: i % 2 == 1 })
        .collect();
    let mut reference: Option<RunOutcome> = None;
    for backend in [BackendKind::Interp, BackendKind::Simd] {
        let outcome = run(
            DiffuseConfig::fused(machine())
                .with_horizontal_fusion(true)
                .with_backend(backend),
            &batches,
            false,
        );
        assert!(outcome.stats.horizontally_fused_tasks > 0);
        match &reference {
            None => reference = Some(outcome),
            Some(expected) => {
                assert_eq!(
                    expected.bits,
                    outcome.bits,
                    "{} diverged from the interpreter on the merged launches",
                    backend.id()
                );
                assert_eq!(expected.stats.tasks_launched, outcome.stats.tasks_launched);
                assert_eq!(
                    expected.stats.horizontally_fused_tasks,
                    outcome.stats.horizontally_fused_tasks
                );
                assert_eq!(expected.submitted, outcome.submitted);
            }
        }
    }
}
