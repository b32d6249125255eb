//! A memo hit replays the launch its skeleton fixes, not only the kernel: it
//! issues its runtime launch under the `LaunchPlan` (access rects, kernel
//! price, data-plane bindings) planned on the miss that compiled it. Without
//! memoization every launch plans afresh. The two must be indistinguishable:
//! the same data bits, the same simulated clock, every `Profile` field and
//! the same launch counts, on three streams that reach every part of a plan:
//!
//! * CG: reductions, replicated scalar reads and the opaque SpMV;
//! * a haloed stencil window: shifted read views of one grid, and an
//!   in-place star whose writer aliases them (staged, not viewed);
//! * CG under an armed `FaultPlan`: killed attempts replay stage prefixes of
//!   replayed launches under the same plan as their committing run.
//!
//! Verification is off in both legs, as in the benchmark, so the memo leg
//! reuses its plans unchecked; a third leg re-derives and checks every
//! replayed plan through the verifier (failing fast).
//!
//! Unfused, every task launched alone replays its library kernel's plan,
//! made when the kernel was built on the first launch of its one-task
//! canonical form. There is no leg without that cache, so the unchecked
//! unfused leg is held to one that re-derives and checks every replayed
//! plan: everything but the verifier's own count must agree.

use dense::DenseContext;
use diffuse::{Context, DiffuseConfig, ExecutionStats, FaultPlan, StoreHandle};
use machine::MachineConfig;
use runtime::Profile;
use sparse::{CsrMatrix, SparseContext};
use stencil::StencilContext;

const GPUS: usize = 4;

/// What a stream leaves behind: its outputs' bits, its clock's bits, its
/// runtime profile and its statistics.
struct Outcome {
    data: Vec<Vec<u64>>,
    clock: u64,
    profile: Profile,
    stats: ExecutionStats,
}

/// How a leg treats the memo.
#[derive(Clone, Copy, Debug)]
enum Leg {
    /// Memo hits reuse their skeleton's plan unchecked.
    Memo,
    /// Every launch compiles and plans afresh.
    NoMemo,
    /// Memo hits re-derive their plan and the verifier compares the two.
    MemoVerified,
    /// Unfused: library-kernel replays reuse their plan unchecked.
    Unfused,
    /// Unfused: library-kernel replays re-derive their plan and the
    /// verifier compares the two.
    UnfusedVerified,
}

fn context(leg: Leg, faults: Option<FaultPlan>) -> Context {
    let machine = MachineConfig::with_gpus(GPUS);
    let config = DiffuseConfig::fused(machine.clone());
    let verified = |c: DiffuseConfig| c.with_verification(true).with_verify_fail_fast(true);
    let config = match leg {
        Leg::Memo => config.with_verification(false),
        Leg::NoMemo => config.without_memoization().with_verification(false),
        Leg::MemoVerified => verified(config),
        Leg::Unfused => DiffuseConfig::unfused(machine).with_verification(false),
        Leg::UnfusedVerified => verified(DiffuseConfig::unfused(machine)),
    };
    Context::new(DiffuseConfig {
        fault_plan: faults,
        ..config
    })
}

fn finish(ctx: &Context, outputs: &[StoreHandle]) -> Outcome {
    let data = outputs
        .iter()
        .map(|s| {
            let values = ctx.read_store(s).expect("functional run");
            values.iter().map(|v| v.to_bits()).collect()
        })
        .collect();
    Outcome {
        data,
        clock: ctx.elapsed().to_bits(),
        profile: ctx.profile(),
        stats: ctx.stats(),
    }
}

/// Natural CG on the 2-D Poisson problem (the code of `apps::cg`).
fn cg_stream(leg: Leg, faults: Option<FaultPlan>) -> Outcome {
    let ctx = context(leg, faults);
    let np = DenseContext::new(ctx.clone());
    let sp = SparseContext::new(&ctx);
    let a = CsrMatrix::poisson_2d(&sp, 8);
    let b = np.from_vec(&[a.rows()], (0..a.rows()).map(|i| 1.0 + (i % 3) as f64).collect());
    let mut x = np.zeros(&[a.rows()]);
    let mut r = b.copy();
    let mut p = r.copy();
    let mut rs_old = r.dot(&r);
    for _ in 0..12 {
        let q = np.wrap(a.spmv(p.handle()));
        let alpha = rs_old.div(&p.dot(&q));
        x = x.axpy(&alpha, &p, 1.0);
        r = r.axpy(&alpha, &q, -1.0);
        let rs_new = r.dot(&r);
        let beta = rs_new.div(&rs_old);
        p = r.axpy(&beta, &p, 1.0);
        rs_old = rs_new;
    }
    let outputs = [&x, &r, &p, &rs_old].map(|v| v.handle().clone());
    finish(&ctx, &outputs)
}

/// Heat steps on a ghost-bordered grid (the code of `apps::heat`), each
/// followed by an in-place smoothing star over the new grid.
fn stencil_stream(leg: Leg) -> Outcome {
    let ctx = context(leg, None);
    let np = DenseContext::new(ctx.clone());
    let st = StencilContext::new(&ctx);
    let (n, m) = (16u64, 18u64);
    let mut cur = ctx.create_store(vec![m, m], "cur");
    let mut next = ctx.create_store(vec![m, m], "next");
    let plate: Vec<f64> = (0..m * m).map(|i| ((i * 7) % 11) as f64 * 0.125).collect();
    ctx.write_store(&cur, plate.clone());
    ctx.write_store(&next, plate);
    let interior = |grid: &StoreHandle| np.wrap(grid.clone()).slice_2d(1..n + 1, 1..n + 1);
    let mut energies = Vec::new();
    for _ in 0..6 {
        st.star_2d(&cur, &next, [0.2; 5]);
        let energy = interior(&next).sub(&interior(&cur)).sum_sq();
        st.star_2d(&next, &next, [0.6, 0.1, 0.1, 0.1, 0.1]);
        energies.push(energy.handle().clone());
        std::mem::swap(&mut cur, &mut next);
    }
    energies.extend([cur, next]);
    finish(&ctx, &energies)
}

/// Memo on and memo off agree on everything a run leaves behind but the
/// memo's own counters; the verified memo leg agrees too. The unfused leg
/// agrees with its verified twin on everything but the verifier's count.
fn assert_indistinguishable(stream: &str, run: impl Fn(Leg) -> Outcome) {
    let (memo, fresh, verified) = (run(Leg::Memo), run(Leg::NoMemo), run(Leg::MemoVerified));
    assert!(memo.stats.memo_hits > 0, "{stream}: the memo leg must replay");
    assert_eq!(fresh.stats.memo_hits, 0, "{stream}: the fresh leg must not");
    for (leg, other) in [("no-memo", &fresh), ("verified", &verified)] {
        assert_eq!(memo.data, other.data, "{stream}: {leg} data");
        assert_eq!(memo.clock, other.clock, "{stream}: {leg} simulated clock");
        assert_eq!(memo.profile, other.profile, "{stream}: {leg} profile");
        let launches = |s: &ExecutionStats| (s.tasks_launched, s.fused_tasks, s.retries);
        assert_eq!(launches(&memo.stats), launches(&other.stats), "{stream}: {leg} launches");
    }
    assert!(verified.stats.verification_checks > 0, "{stream}: the verifier ran");
    let (alone, checked) = (run(Leg::Unfused), run(Leg::UnfusedVerified));
    assert_eq!(alone.stats.fused_tasks, 0, "{stream}: the unfused leg must not fuse");
    assert_eq!(alone.data, checked.data, "{stream}: unfused verified data");
    assert_eq!(alone.clock, checked.clock, "{stream}: unfused verified simulated clock");
    assert_eq!(alone.profile, checked.profile, "{stream}: unfused verified profile");
    let observed = ExecutionStats {
        verification_checks: 0,
        ..checked.stats
    };
    assert_eq!(alone.stats, observed, "{stream}: unfused verified stats");
    assert!(checked.stats.verification_checks > 0, "{stream}: the unfused verifier ran");
}

#[test]
fn cg_replays_match_fresh_plans() {
    assert_indistinguishable("cg", |leg| cg_stream(leg, None));
}

#[test]
fn haloed_stencil_replays_match_fresh_plans() {
    assert_indistinguishable("stencil", stencil_stream);
}

#[test]
fn faulted_replays_match_fresh_plans() {
    let faults = FaultPlan::new(29, 0.3);
    assert_indistinguishable("faulted cg", |leg| cg_stream(leg, Some(faults)));
    // The plan must actually have killed attempts to replay.
    assert!(cg_stream(Leg::Memo, Some(faults)).stats.retries > 0);
}
