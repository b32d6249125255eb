//! Runs ops on a built workload: timing, failure accounting, and the
//! exact per-op counters read from `Context::stats()` / `Context::profile()`.
//!
//! Closed loop, one client thread: the next op starts when the previous one
//! has been checked.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::time::Instant;

use diffuse::{Context, DiffuseConfig, ExecutionStats};

use crate::rng::Rng;
use crate::trace::Tracer;
use crate::workloads::{build, Built, Inputs, Observed};
use crate::yardstick::Yardstick;

/// Ops attempted and failed over a whole process, every leg and phase
/// included. An op fails if it panics, if the system returns no value where
/// one is due, or if its reference check fails.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
}

impl Tally {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.first_failure.is_none() {
            eprintln!("op {} failed: {why}", self.attempted);
            self.first_failure = Some(why);
        }
    }
}

/// Counter increases over one op or, summed, over a leg. Own subtraction of
/// snapshots: only the public fields named here are relied on.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counts {
    pub ops: u64,
    pub tasks_submitted: u64,
    pub tasks_launched: u64,
    pub windows_flushed: u64,
    pub compilations: u64,
    pub sim_compile_s: f64,
    pub memo_hits: u64,
    pub memo_misses: u64,
    pub memo_evictions: u64,
    pub temporaries_eliminated: u64,
    pub rejections: u64,
    pub kernel_launches: u64,
    /// Computed from array sizes by the runtime's cost accounting — not
    /// measured memory traffic.
    pub kernel_bytes: u64,
    pub kernel_flops: u64,
    pub comm_bytes: u64,
    pub dist_allocs: u64,
    pub sim_s: f64,
    pub sim_kernel_s: f64,
    pub sim_comm_s: f64,
    pub sim_overhead_s: f64,
    pub cg_iters: u64,
}

impl Counts {
    /// The increase between two stats snapshots around one op, plus the
    /// runtime profile and simulated clock, both reset before the op.
    fn of_op(
        before: &ExecutionStats,
        after: &ExecutionStats,
        ctx: &Context,
        cg_iters: usize,
    ) -> Counts {
        let rejections = |s: &ExecutionStats| {
            s.rejections_carried
                + s.rejections_unknown
                + s.rejections_domain_mismatch
                + s.rejections_reduction
        };
        let profile = ctx.profile();
        Counts {
            ops: 1,
            tasks_submitted: after.tasks_submitted - before.tasks_submitted,
            tasks_launched: after.tasks_launched - before.tasks_launched,
            windows_flushed: after.windows_flushed - before.windows_flushed,
            compilations: after.compilations - before.compilations,
            sim_compile_s: after.compile_time - before.compile_time,
            memo_hits: after.memo_hits - before.memo_hits,
            memo_misses: after.memo_misses - before.memo_misses,
            memo_evictions: after.memo_evictions - before.memo_evictions,
            temporaries_eliminated: after.temporaries_eliminated - before.temporaries_eliminated,
            rejections: rejections(after) - rejections(before),
            kernel_launches: profile.kernel_launches,
            kernel_bytes: profile.kernel_bytes,
            kernel_flops: profile.kernel_flops,
            comm_bytes: profile.comm_bytes,
            dist_allocs: profile.distributed_allocations,
            sim_s: ctx.elapsed(),
            sim_kernel_s: profile.kernel_time,
            sim_comm_s: profile.comm_time,
            sim_overhead_s: profile.overhead_time,
            cg_iters: cg_iters as u64,
        }
    }

    pub fn add(&mut self, o: &Counts) {
        self.ops += o.ops;
        self.tasks_submitted += o.tasks_submitted;
        self.tasks_launched += o.tasks_launched;
        self.windows_flushed += o.windows_flushed;
        self.compilations += o.compilations;
        self.sim_compile_s += o.sim_compile_s;
        self.memo_hits += o.memo_hits;
        self.memo_misses += o.memo_misses;
        self.memo_evictions += o.memo_evictions;
        self.temporaries_eliminated += o.temporaries_eliminated;
        self.rejections += o.rejections;
        self.kernel_launches += o.kernel_launches;
        self.kernel_bytes += o.kernel_bytes;
        self.kernel_flops += o.kernel_flops;
        self.comm_bytes += o.comm_bytes;
        self.dist_allocs += o.dist_allocs;
        self.sim_s += o.sim_s;
        self.sim_kernel_s += o.sim_kernel_s;
        self.sim_comm_s += o.sim_comm_s;
        self.sim_overhead_s += o.sim_overhead_s;
        self.cg_iters += o.cg_iters;
    }

    pub fn per_op(&self, total: u64) -> f64 {
        total as f64 / self.ops.max(1) as f64
    }
}

/// One successfully completed and checked op.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpSample {
    /// Host wall-clock of [`crate::workloads::Workload::run`].
    pub ms: f64,
    /// Simulated seconds the op advanced the machine clock by.
    pub sim_s: f64,
    pub traced: bool,
    /// The yardstick reading taken just before this op, if one was.
    pub yard_ms: Option<f64>,
    pub counts: Counts,
}

/// Runs one op: resets the simulated clock (outside the timer), times the
/// workload's `run` under `catch_unwind`, reads the counters, then checks
/// the result. Returns `None`, and counts a failure, if any step fails.
pub fn run_op(built: &mut Built, tracer: &mut Tracer, tally: &mut Tally) -> Option<OpSample> {
    tally.attempted += 1;
    let traced = tracer.enabled;
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        built.ctx.reset_timing();
        let before = built.ctx.stats();
        let start = Instant::now();
        let got = tracer.root("op", |t| built.workload.run(t));
        let ms = start.elapsed().as_secs_f64() * 1e3;
        let got = got.ok_or("the system returned no value at the sync point")?;
        let counts = Counts::of_op(&before, &built.ctx.stats(), &built.ctx, got.iters);
        let seen = Observed {
            sim_s: counts.sim_s,
            submitted: counts.tasks_submitted,
            launched: counts.tasks_launched,
        };
        built.workload.check(&got, &seen)?;
        Ok::<_, String>(OpSample {
            ms,
            sim_s: counts.sim_s,
            traced,
            yard_ms: None,
            counts,
        })
    }));
    match outcome {
        Ok(Ok(sample)) => Some(sample),
        Ok(Err(why)) => {
            tally.fail(why);
            None
        }
        Err(panic) => {
            let why = panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "panic".into());
            tally.fail(format!("panicked: {why}"));
            None
        }
    }
}

/// How one epoch samples.
#[derive(Debug, Clone, Copy)]
pub struct EpochPlan {
    /// Which op stream the context replays (`churn_cold`'s program draws;
    /// the other workloads have one stream). Epoch `i` of a run replays
    /// stream `i`, so every run of a seed draws the same programs.
    pub stream: u64,
    /// Ops run before sampling starts, the first (cold) op included.
    pub warmup: usize,
    /// Steady-state ops sampled after warm-up.
    pub ops: usize,
    /// Runs of consecutive ops the samples are cut into: the unit of the
    /// steady-state estimates.
    pub segments: usize,
    /// With a yardstick: a reading before every this-many-th steady-state
    /// op, so that readings cost a small share of a segment.
    pub yard_stride: usize,
    /// Trace a seeded random half of the ops (the traced run's primary
    /// leg). Traced and untraced ops then see the same machine state, and
    /// their difference is the tracing overhead. Random, not alternating:
    /// the system has period-2 modes (on `scale128_sim`, in some processes,
    /// every second op takes 1.75× as long), which strict alternation would
    /// book as tracing overhead.
    pub trace_half: bool,
    /// Keep warming up until the memo has started evicting (at most
    /// [`MAX_FILL_OPS`] ops): `churn_cold`'s steady state is a full cache.
    pub warm_until_evicting: bool,
}

/// Upper bound on the ops spent filling the memo before sampling; a
/// configuration that never evicts (memoization off) stops here.
pub const MAX_FILL_OPS: usize = 4096;

/// One epoch: a fresh context set up, warmed up and sampled for a fixed
/// number of ops. The op count is fixed, not timed, so that where op time
/// depends on how many ops a context has already run, every run and every
/// commit samples the same stretch of that curve.
#[derive(Debug, Default)]
pub struct Epoch {
    /// Wall-clock of `build`: context, registration, upload, first flush.
    pub setup_s: f64,
    /// The first op on the fresh context, if it succeeded.
    pub cold: Option<OpSample>,
    /// The yardstick reading taken just before set-up, if one was.
    pub setup_yard_ms: Option<f64>,
    /// The steady-state samples, in order.
    pub samples: Vec<OpSample>,
    /// Sum of the samples' counters.
    pub counts: Counts,
    /// `ExecutionStats::current_window_size` after the last op.
    pub window_size: u64,
}

impl Epoch {
    /// Op times in ms of the samples with the given traced flag.
    pub fn ms(&self, traced: bool) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| s.traced == traced)
            .map(|s| s.ms)
            .collect()
    }
}

impl EpochPlan {
    /// Ops per segment (the last segment may be shorter).
    pub fn segment_len(&self) -> usize {
        self.ops.div_ceil(self.segments.max(1)).max(1)
    }
}

/// Runs one epoch. A failed op is counted in `tally` and leaves no sample.
/// With a yardstick (the end-to-end run), readings are taken before set-up
/// and between ops, outside every timer.
pub fn run_epoch(
    inputs: &Rc<Inputs>,
    cfg: DiffuseConfig,
    plan: EpochPlan,
    tracer: &mut Tracer,
    tally: &mut Tally,
    mut yard: Option<&mut Yardstick>,
) -> Epoch {
    let traced_setup = tracer.enabled;
    let uploads = inputs.uploads();
    let setup_yard_ms = yard.as_deref_mut().map(Yardstick::read);
    let start = Instant::now();
    let mut built = build(inputs, uploads, cfg, plan.stream, tracer);
    let mut epoch = Epoch {
        setup_s: start.elapsed().as_secs_f64(),
        setup_yard_ms,
        ..Epoch::default()
    };

    tracer.enabled = false;
    epoch.cold = run_op(&mut built, tracer, tally);
    let mut warmed = 1;
    while warmed < plan.warmup
        || (plan.warm_until_evicting
            && warmed < MAX_FILL_OPS
            && built.ctx.stats().memo_evictions == 0)
    {
        run_op(&mut built, tracer, tally);
        warmed += 1;
    }
    let mut coin = Rng::stream(0x7ace, plan.stream);
    for i in 0..plan.ops {
        // Every segment starts with a reading, whatever the stride.
        let due = i % plan.yard_stride.max(1) == 0 || i % plan.segment_len() == 0;
        let yard_ms = match yard.as_deref_mut() {
            Some(yard) if due => Some(yard.read()),
            _ => None,
        };
        tracer.enabled = plan.trace_half && coin.next_u64() & 1 == 1;
        if let Some(sample) = run_op(&mut built, tracer, tally) {
            epoch.counts.add(&sample.counts);
            epoch.samples.push(OpSample { yard_ms, ..sample });
        }
    }
    tracer.enabled = traced_setup;
    epoch.window_size = built.ctx.stats().current_window_size;
    epoch
}

/// Puts the allocator into the state a long-running process reaches on its
/// own. glibc serves a large allocation from a fresh `mmap` (page faults on
/// first touch, `munmap` on free) until the first such block is freed, then
/// raises its threshold to that block's size and recycles heap memory
/// instead. Whether and when that switch happens inside a run depends on
/// the order blocks are freed in, so it used to differ from run to run —
/// a 20 % step in `heat_xlib`'s op time. Freeing one block of the largest
/// size the threshold adapts to (32 MiB) makes every run start after the
/// switch. No effect on other allocators.
pub fn warm_allocator() {
    drop(std::hint::black_box(vec![0u8; (32 << 20) - 4096]));
}

/// Peak resident set of this process in MiB (`VmHWM`), or 0 where
/// `/proc` does not provide it.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
