//! Batched Black-Scholes: the horizontal-fusion workload.
//!
//! One iteration prices `batches` *independent* option portfolios. Each batch
//! is the standard elementwise pricing chain over its own arrays, followed by
//! `call.sum()` / `put.sum()` (which fuse into the chain) and a domain-1
//! "combine" task that folds the two reduced scalars into the batch's
//! response store. The domain change breaks vertical fusion after every
//! batch, so the purely vertical analysis launches two tasks per batch.
//! Horizontal fusion packs all the pricing chains into one wide launch and
//! all the combines into another: launches per iteration drop from `2 * N`
//! to 2, bit-identically, with the merge attributed to
//! [`diffuse::ExecutionStats::horizontally_fused_tasks`].

use dense::{DArray, DenseContext};
use diffuse::{Context, DiffuseConfig, StoreHandle, TaskKind, TaskSignature};
use ir::{Domain, Partition};
use kernel::{BufferId, BufferRole, KernelModule, LoopBuilder};
use machine::MachineConfig;

use crate::black_scholes::price;
use crate::common::{measure, BenchmarkResult, Mode};

/// Builds the dense library over a context sized for the batched stream: the
/// window must hold a whole iteration (every batch's chain plus its combine)
/// so the horizontal pass sees all the independent batches side by side.
/// Executor and backend follow `DIFFUSE_EXECUTOR` / `DIFFUSE_BACKEND` as
/// everywhere else.
fn batched_context(mode: Mode, gpus: usize, functional: bool, horizontal: bool, batches: usize) -> DenseContext {
    let machine = MachineConfig::with_gpus(gpus);
    let mut config = match mode {
        Mode::Fused => DiffuseConfig::fused(machine),
        Mode::Unfused => DiffuseConfig::unfused(machine),
        _ => panic!("batched Black-Scholes supports only the fused and unfused modes"),
    };
    let window = batches * 50 + 16;
    config = config.with_window(window, window).with_horizontal_fusion(horizontal);
    if !functional {
        config = config.simulation_only();
    }
    DenseContext::new(Context::new(config))
}

/// Registers the domain-1 combine op: `resp[0] = call_sum[0] + put_sum[0]`.
fn register_combine(ctx: &Context) -> TaskKind {
    let lib = ctx.register_library("bs_batched");
    lib.register(
        "combine",
        TaskSignature::new().read().read().write(),
        |_args| {
            let mut m = KernelModule::new(3);
            m.set_role(BufferId(2), BufferRole::Output);
            let mut b = LoopBuilder::new("combine", BufferId(2));
            let (x, y) = (b.load(BufferId(0)), b.load(BufferId(1)));
            let s = b.add(x, y);
            b.store(BufferId(2), s);
            m.push_loop(b.finish());
            m
        },
    )
}

/// One batch's input arrays (spot, strike, expiry).
fn setup_batch(np: &DenseContext, n: u64, functional: bool, seed: u64) -> (DArray, DArray, DArray) {
    if functional {
        let s = np.random(&[n], seed * 3 + 1).scalar_mul(100.0).scalar_add(50.0);
        let k = np.random(&[n], seed * 3 + 2).scalar_mul(100.0).scalar_add(50.0);
        let t = np.random(&[n], seed * 3 + 3).scalar_mul(2.0).scalar_add(0.05);
        (s, k, t)
    } else {
        (np.full(&[n], 100.0), np.full(&[n], 105.0), np.full(&[n], 1.0))
    }
}

/// Prices every batch once and flushes: the unit of measurement, shared by
/// `run` and the stats-attribution test.
fn price_batches(
    np: &DenseContext,
    combine: TaskKind,
    inputs: &[(DArray, DArray, DArray)],
    resps: &[StoreHandle],
) {
    let ctx = np.context();
    for ((s, k, t), resp) in inputs.iter().zip(resps) {
        let (call, put) = price(s, k, t);
        let call_sum = call.sum();
        let put_sum = put.sum();
        ctx.task(combine)
            .domain(Domain::linear(1))
            .read(call_sum.handle(), Partition::Replicate)
            .read(put_sum.handle(), Partition::Replicate)
            .write(resp, Partition::Replicate)
            .launch();
    }
    ctx.flush();
}

/// Runs batched Black-Scholes: `batches` independent portfolios of
/// `per_gpu * gpus` options each, `horizontal` selecting whether the
/// horizontal pass may pack the batches into wide launches.
///
/// # Panics
///
/// Panics if `mode` is not [`Mode::Fused`] or [`Mode::Unfused`].
pub fn run(
    mode: Mode,
    gpus: usize,
    per_gpu: u64,
    batches: usize,
    iterations: u64,
    functional: bool,
    horizontal: bool,
) -> BenchmarkResult {
    assert!(
        matches!(mode, Mode::Fused | Mode::Unfused),
        "batched Black-Scholes supports only the fused and unfused modes"
    );
    let np = batched_context(mode, gpus, functional, horizontal, batches);
    let ctx = np.context().clone();
    let combine = register_combine(&ctx);
    let n = per_gpu * gpus as u64;
    let inputs: Vec<_> = (0..batches)
        .map(|b| setup_batch(&np, n, functional, b as u64))
        .collect();
    let resps: Vec<StoreHandle> = (0..batches)
        .map(|_| ctx.create_store(vec![1], "bs_resp"))
        .collect();
    let mut result = measure(
        "Black-Scholes (batched)",
        mode,
        &np,
        1,
        iterations,
        |_| price_batches(&np, combine, &inputs, &resps),
        None,
    );
    if functional {
        let checksum = resps
            .iter()
            .map(|r| np.wrap(r.clone()).scalar_value().unwrap_or(0.0))
            .sum();
        result.checksum = Some(checksum);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn horizontal_fusion_packs_the_batches_bit_identically() {
        let batches = 8;
        let horizontal = run(Mode::Fused, 4, 16, batches, 2, true, true);
        let vertical = run(Mode::Fused, 4, 16, batches, 2, true, false);
        let unfused = run(Mode::Unfused, 4, 16, batches, 2, true, false);

        // Reordering independent batches must not change a single bit.
        let h = horizontal.checksum.unwrap();
        let v = vertical.checksum.unwrap();
        let u = unfused.checksum.unwrap();
        assert_eq!(h.to_bits(), v.to_bits(), "horizontal diverged from vertical");
        assert_eq!(h.to_bits(), u.to_bits(), "horizontal diverged from unfused");
        assert!(h.is_finite());

        // Vertically every batch is two launches (the domain-1 combine breaks
        // the chain); horizontally all chains share one launch and all
        // combines another.
        assert_eq!(vertical.launches_per_iteration, 2.0 * batches as f64);
        assert_eq!(horizontal.launches_per_iteration, 2.0);
        // The payoff of the feature, in the unit the paper reports: 14 fewer
        // launch overheads per iteration of simulated time.
        assert!(
            horizontal.throughput > vertical.throughput,
            "horizontal {} it/s vs vertical {} it/s",
            horizontal.throughput,
            vertical.throughput
        );
        // The unfused baseline launches every submitted task.
        assert!(unfused.launches_per_iteration > 30.0 * batches as f64);
    }

    #[test]
    fn merges_are_attributed_to_the_horizontal_counter() {
        let np = batched_context(Mode::Fused, 2, true, true, 4);
        let ctx = np.context().clone();
        let combine = register_combine(&ctx);
        let inputs: Vec<_> = (0..4).map(|b| setup_batch(&np, 16, true, b)).collect();
        let resps: Vec<StoreHandle> =
            (0..4).map(|_| ctx.create_store(vec![1], "bs_resp")).collect();
        // Drain the setup tasks: otherwise they share the window with the
        // first batch's chain and skew the segment structure.
        ctx.flush();
        let stats0 = ctx.stats();
        price_batches(&np, combine, &inputs, &resps);
        let stats = ctx.stats().since(&stats0);
        // Every submitted task ends up in one of the two merged groups.
        assert_eq!(stats.horizontally_fused_tasks, stats.tasks_submitted);
        assert_eq!(stats.tasks_launched, 2);
    }

    #[test]
    fn horizontal_knob_is_inert_when_fusion_is_off() {
        let on = run(Mode::Unfused, 2, 8, 3, 1, true, true);
        let off = run(Mode::Unfused, 2, 8, 3, 1, true, false);
        assert_eq!(on.checksum.unwrap().to_bits(), off.checksum.unwrap().to_bits());
        assert_eq!(on.launches_per_iteration, off.launches_per_iteration);
    }
}
