//! The two kinds of run: end-to-end (tracing off) and per-layer (traced).

use std::rc::Rc;
use std::time::{Duration, Instant};

use diffuse::DiffuseConfig;

use crate::harness::{peak_rss_mib, run_epoch, warm_allocator, Counts, Epoch, EpochPlan, Tally};
use crate::stats::{median, quantile, quartiles, quiet, sorted, trend};
use crate::trace::Tracer;
use crate::workloads::{build, config, Inputs, Kind, Leg, Sizes, WARMUP_OPS};
use crate::yardstick::{Yardstick, NOMINAL_MS};

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (ops, set-ups or timed batches).
    pub samples: usize,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
        Metric {
            name,
            value,
            unit,
            samples,
        }
    }
}

/// The result of one run of one workload.
#[derive(Debug)]
pub struct RunResult {
    pub kind: Kind,
    pub tally: Tally,
    pub metrics: Vec<Metric>,
    /// Harness self-checks that failed (traced run only).
    pub violations: Vec<String>,
    /// Remarks for the human table.
    pub notes: Vec<String>,
}

impl RunResult {
    /// Every op passed its reference check and every self-check held.
    pub fn correct(&self) -> bool {
        self.tally.failed == 0 && self.violations.is_empty()
    }
}

/// What a run needs to know.
#[derive(Debug, Clone, Copy)]
pub struct RunSpec {
    pub kind: Kind,
    pub sizes: Sizes,
    pub seed: u64,
    /// How long the end-to-end run measures: it starts no cycle it does not
    /// expect to finish by then. The traced run scales its probes by it.
    pub seconds: f64,
}

/// One cycle of an end-to-end run: a block of fresh contexts (set-up and
/// first-op samples), then one epoch (steady-state samples).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cycle {
    /// Fresh contexts in the block, each set up, run for one op and dropped
    /// before the next is built.
    pub fresh: usize,
    /// A yardstick reading before every this-many-th of them.
    pub fresh_yard_stride: usize,
    /// Steady-state ops of the epoch, after warm-up.
    pub ops: usize,
    /// Segments the epoch's samples are cut into for the steady-state
    /// estimates (more than one where epochs are long and few).
    pub segments: usize,
    /// A yardstick reading before every this-many-th steady-state op.
    pub yard_stride: usize,
}

/// Cycles a run completes whatever `--seconds` says.
const MIN_CYCLES: usize = 2;

impl RunSpec {
    /// The cycle of this workload: op counts chosen so that a cycle takes
    /// 1–4 s on the reference box, a block about a tenth of it, and the
    /// yardstick under a tenth. Counts, not clocks, end an epoch: where op
    /// time depends on how many ops a context has already run, every run
    /// and every commit samples the same stretch of that curve. `--seconds`
    /// decides only how many cycles there are.
    pub fn cycle(&self) -> Cycle {
        let (fresh, fresh_yard_stride, ops, segments, yard_stride) = match self.kind {
            Kind::BsStream | Kind::HeatXlib => (3, 1, 17, 1, 1),
            Kind::CgSmall => (6, 1, 20, 1, 1),
            Kind::Scale128Sim => (10, 2, 100, 1, 5),
            // Each epoch first spends ~1 200 ops filling the memo.
            Kind::ChurnCold => (60, 10, 2000, 8, 25),
        };
        // A run of under a second (the unit tests) shortens the cycle.
        let short = |count: usize| {
            if self.seconds < 1.0 {
                ((count as f64 * self.seconds).ceil() as usize).clamp(1, count)
            } else {
                count
            }
        };
        Cycle {
            fresh: short(fresh),
            fresh_yard_stride,
            ops: short(ops),
            segments: short(segments),
            yard_stride,
        }
    }

    fn plan(&self, leg: Leg, ops: usize) -> EpochPlan {
        let cycle = self.cycle();
        EpochPlan {
            stream: 0,
            ops,
            warmup: WARMUP_OPS,
            segments: cycle.segments,
            yard_stride: cycle.yard_stride,
            trace_half: false,
            // The steady state of `churn_cold` is a full, evicting memo —
            // where the pool can fill it and the leg has a memo at all.
            warm_until_evicting: self.kind == Kind::ChurnCold
                && self.sizes.churn_pool > DiffuseConfig::DEFAULT_MEMO_CAPACITY
                && !matches!(leg, Leg::Unfused | Leg::NoMemo),
        }
    }

    /// A share of `--seconds`, of at most ten of them (the traced run's
    /// probes gain nothing from more).
    fn share(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.seconds.min(10.0) * share)
    }
}

/// A block of fresh contexts: their set-up and first-op times, and the
/// median of the yardstick readings taken among them.
struct Block {
    yard_ms: f64,
    setup_s: Vec<f64>,
    cold_ms: Vec<f64>,
}

/// A segment of consecutive steady-state ops, with the median of the
/// yardstick readings taken among them.
struct Segment {
    yard_ms: f64,
    /// Median op time.
    op_ms: f64,
    /// Host seconds inside the ops, and the index tasks they submitted.
    host_s: f64,
    tasks: u64,
}

/// How much slower than on the quiet reference box the yardstick ran.
fn slowdown(yard_ms: f64) -> f64 {
    yard_ms / NOMINAL_MS
}

/// The end-to-end run: tracing off, primary leg only. Cycles of a block of
/// fresh contexts and an epoch run until `--seconds` are over, the yardstick
/// read between the ops throughout. Every timing is divided by the slowdown
/// the yardstick shows in its own stretch of the run (its block, its
/// segment), and the reported value is the quiet quartile of those
/// calibrated timings over the run (see [`quiet`]; the median for set-ups).
pub fn end_to_end(spec: RunSpec) -> RunResult {
    let RunSpec {
        kind, sizes, seed, ..
    } = spec;
    let started = Instant::now();
    warm_allocator();
    let inputs = Rc::new(Inputs::generate(kind, sizes, seed));
    let mut yard = Yardstick::new();
    let mut tracer = Tracer::new();
    let mut tally = Tally::default();
    let cycle = spec.cycle();
    let cfg = || config(kind, Leg::Primary);

    let (mut blocks, mut segments, mut ops_sampled) = (Vec::new(), Vec::new(), 0);
    let (mut longest_cycle, mut rss) = (Duration::ZERO, 0.0);
    for c in 0.. {
        let cycle_started = Instant::now();
        let (mut readings, mut setup_s, mut cold_ms) = (Vec::new(), Vec::new(), Vec::new());
        for f in 0..cycle.fresh {
            let plan = EpochPlan {
                stream: (1 + c) * 1000 + f as u64,
                warmup: 1,
                warm_until_evicting: false,
                ..spec.plan(Leg::Primary, 0)
            };
            let yard = (f % cycle.fresh_yard_stride == 0).then_some(&mut yard);
            let fresh = run_epoch(&inputs, cfg(), plan, &mut tracer, &mut tally, yard);
            readings.extend(fresh.setup_yard_ms);
            setup_s.push(fresh.setup_s);
            cold_ms.extend(fresh.cold.map(|c| c.ms));
        }
        blocks.push(Block {
            yard_ms: median(&readings),
            setup_s,
            cold_ms,
        });

        let plan = EpochPlan {
            stream: c,
            ..spec.plan(Leg::Primary, cycle.ops)
        };
        let epoch = run_epoch(
            &inputs,
            cfg(),
            plan,
            &mut tracer,
            &mut tally,
            Some(&mut yard),
        );
        for ops in epoch.samples.chunks(plan.segment_len()) {
            let readings: Vec<f64> = ops.iter().filter_map(|s| s.yard_ms).collect();
            if readings.is_empty() {
                // The op the reading preceded failed: nothing to calibrate by.
                continue;
            }
            let ms: Vec<f64> = ops.iter().map(|s| s.ms).collect();
            segments.push(Segment {
                yard_ms: median(&readings),
                op_ms: median(&ms),
                host_s: ms.iter().sum::<f64>() / 1e3,
                tasks: ops.iter().map(|s| s.counts.tasks_submitted).sum(),
            });
            ops_sampled += ms.len();
        }

        // Peak memory after a fixed number of cycles: the high-water mark
        // creeps up with every cycle, and how many fit differs from run to run.
        if (c as usize) < MIN_CYCLES {
            rss = peak_rss_mib();
        }
        longest_cycle = longest_cycle.max(cycle_started.elapsed());
        let over = (started.elapsed() + longest_cycle).as_secs_f64() > spec.seconds;
        if over && (c as usize + 1 >= MIN_CYCLES || spec.seconds < 1.0) {
            break;
        }
    }

    let calibrated = |b: &Block, times: &[f64]| -> Vec<f64> {
        times.iter().map(|t| t / slowdown(b.yard_ms)).collect()
    };
    let setup_s: Vec<f64> = blocks
        .iter()
        .flat_map(|b| calibrated(b, &b.setup_s))
        .collect();
    let cold_ms: Vec<f64> = blocks
        .iter()
        .flat_map(|b| calibrated(b, &b.cold_ms))
        .collect();
    let op_ms: Vec<f64> = segments
        .iter()
        .map(|s| s.op_ms / slowdown(s.yard_ms))
        .collect();
    // Tasks per calibrated second, negated: higher is better, so the quiet
    // quartile of a rate is its upper one.
    let rates: Vec<f64> = segments
        .iter()
        .map(|s| -(s.tasks as f64) / (s.host_s / slowdown(s.yard_ms)))
        .collect();
    let mut metrics = Vec::new();
    if !(cold_ms.is_empty() || op_ms.is_empty()) {
        metrics = vec![
            // The median, not the quiet quartile: `bs_stream`'s set-ups come
            // in two kinds (0.45 ms on recycled memory, 1.25 ms on fresh
            // pages, four in five), and the quartile flipped between them.
            Metric::new("setup_s", median(&setup_s), "s", setup_s.len()),
            Metric::new("cold_op_ms", quiet(&cold_ms), "ms_cal", cold_ms.len()),
            Metric::new("op_ms_p50", quiet(&op_ms), "ms_cal", ops_sampled),
            Metric::new("tasks_per_s", -quiet(&rates), "tasks/s_cal", ops_sampled),
        ];
    }
    metrics.push(Metric::new("peak_rss_mb", rss, "MiB", 1));
    let readings: Vec<f64> = segments.iter().map(|s| s.yard_ms).collect();
    let notes = vec![format!(
        "{} cycles; the yardstick read {:.3} ms (median over segments; nominal {NOMINAL_MS})",
        blocks.len(),
        if readings.is_empty() {
            0.0
        } else {
            median(&readings)
        },
    )];
    RunResult {
        kind,
        tally,
        metrics,
        violations: Vec::new(),
        notes,
    }
}

/// `num ÷ den`, or 0 where there is nothing to divide by (a leg whose ops
/// all failed): a metric must stay a finite number.
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Yardstick readings the traced run takes (after its primary leg).
const YARDSTICK_READINGS: usize = 25;

/// Limits of the traced run's self-checks.
const MAX_SPAN_SUM_ERROR_PCT: f64 = 2.0;
const MAX_TRACE_OVERHEAD_PCT: f64 = 3.0;

/// What the per-layer run accumulates: metrics in reporting order, and the
/// self-checks that failed.
#[derive(Default)]
struct Report {
    metrics: Vec<Metric>,
    violations: Vec<String>,
}

impl Report {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric::new(name, value, unit, samples));
    }

    /// Several counters of one leg, each per op.
    fn put_per_op(&mut self, counts: &Counts, rows: &[(&'static str, u64, &'static str)]) {
        for &(name, total, unit) in rows {
            self.put(name, counts.per_op(total), unit, counts.ops as usize);
        }
    }
}

/// The per-layer run: every layer measured from outside.
///
/// 1. set-ups under spans (`core.context_new_ms`);
/// 2. the primary leg with a random half of the ops traced — spans, exact
///    counters, and the tracing overhead from the untraced half;
/// 3. the same op stream on configurations that differ by one public
///    switch (the differential legs);
/// 4. direct probes of layer functions on the workload's dominant window.
///
/// If `trace_out` is given the spans are written there as Chrome-trace JSON
/// after all measuring has ended.
pub fn per_layer(spec: RunSpec, trace_out: Option<&std::path::Path>) -> RunResult {
    let RunSpec {
        kind, sizes, seed, ..
    } = spec;
    warm_allocator();
    let inputs = Rc::new(Inputs::generate(kind, sizes, seed));
    let mut yard = Yardstick::new();
    let mut tracer = Tracer::new();
    let mut tally = Tally::default();
    let mut report = Report::default();

    // 1. Set-up under spans.
    tracer.enabled = true;
    for _ in 0..5 {
        let uploads = inputs.uploads();
        drop(build(
            &inputs,
            uploads,
            config(kind, Leg::Primary),
            0,
            &mut tracer,
        ));
    }
    let context_new_ms: Vec<f64> = tracer
        .breakdown("setup")
        .iter()
        .flat_map(|(_, children)| children.iter().filter(|(name, _)| *name == "context_new"))
        .map(|(_, ns)| *ns as f64 / 1e6)
        .collect();
    report.put(
        "core.context_new_ms",
        median(&context_new_ms),
        "ms",
        context_new_ms.len(),
    );

    // 2. Primary leg, a random half of the ops traced: two epochs of the
    // end-to-end run's length, so the same stretch of each context's life
    // is sampled.
    let primary: Vec<Epoch> = (0..2)
        .map(|e| {
            let plan = EpochPlan {
                stream: e,
                trace_half: true,
                ..spec.plan(Leg::Primary, spec.cycle().ops.max(4))
            };
            let cfg = config(kind, Leg::Primary);
            run_epoch(&inputs, cfg, plan, &mut tracer, &mut tally, None)
        })
        .collect();
    tracer.enabled = false;
    let untraced: Vec<f64> = primary.iter().flat_map(|e| e.ms(false)).collect();
    if untraced.is_empty() || primary.iter().all(|e| e.ms(true).is_empty()) {
        // Every op failed: there is nothing to decompose.
        return report.finish(kind, tally);
    }
    let p50 = median(&untraced);
    // The wall-clock counterparts of the calibrated end-to-end timings: this
    // run's op time as measured, and what the yardstick read meanwhile.
    report.put("core.op_wall_ms_p50", p50, "ms", untraced.len());
    let readings: Vec<f64> = (0..YARDSTICK_READINGS).map(|_| yard.read()).collect();
    report.put(
        "bench.yardstick_ms",
        median(&readings),
        "ms",
        readings.len(),
    );
    report_spans(&mut report, &tracer, &primary);
    let counts = report_counts(&mut report, &spec, &primary);

    // 3. Differential legs.
    report_legs(
        &mut report,
        &spec,
        &inputs,
        &counts,
        &mut tracer,
        &mut tally,
    );

    // 4. Direct probes, and the two derived numbers that set the kernel
    // layer's cost per element against the whole stack's.
    let sketch = crate::probes::Sketch::of(&inputs, kind.gpus());
    let probes = crate::probes::run(&sketch, spec.share(0.02));
    let exec_ns = probes
        .iter()
        .find(|m| m.name == "kernel.exec_ns_per_elem")
        .map_or(0.0, |m| m.value);
    report.metrics.extend(probes);
    let cg_iters = counts.per_op(counts.cg_iters);
    let e2e_ns = p50 * 1e6 / inputs.elements_per_op(cg_iters).max(1.0);
    report.put("runtime.e2e_ns_per_elem", e2e_ns, "ns", untraced.len());
    report.put(
        "runtime.dataplane_tax",
        ratio(e2e_ns, exec_ns),
        "ratio",
        untraced.len(),
    );

    if let Some(path) = trace_out {
        if let Err(e) = tracer.write_chrome_trace(path) {
            report
                .violations
                .push(format!("cannot write the trace to {}: {e}", path.display()));
        }
    }
    report.finish(kind, tally)
}

impl Report {
    fn finish(self, kind: Kind, tally: Tally) -> RunResult {
        RunResult {
            kind,
            tally,
            metrics: self.metrics,
            violations: self.violations,
            notes: Vec::new(),
        }
    }
}

/// Span metrics of the primary leg's traced ops, the two harness
/// self-checks, and `core.op_ms_p90`.
fn report_spans(report: &mut Report, tracer: &Tracer, primary: &[Epoch]) {
    let samples = || primary.iter().flat_map(|e| e.samples.iter());
    let ops = tracer.breakdown("op");
    let child = |name: &str| -> Vec<f64> {
        ops.iter()
            .map(|(_, children)| {
                let found = children.iter().find(|(n, _)| *n == name);
                found.map_or(0.0, |(_, ns)| *ns as f64)
            })
            .collect()
    };
    let traced_tasks: u64 = samples()
        .filter(|s| s.traced)
        .map(|s| s.counts.tasks_submitted)
        .sum();
    // A failed traced op leaves spans but no sample; the per-task figure
    // then errs high rather than silently dropping the op's time.
    report.put(
        "core.submit_us_per_task",
        child("submit").iter().sum::<f64>() / 1e3 / traced_tasks.max(1) as f64,
        "us",
        ops.len(),
    );
    report.put(
        "core.flush_ms_per_op",
        median(&child("flush")) / 1e6,
        "ms",
        ops.len(),
    );
    report.put(
        "core.readback_us_per_op",
        median(&child("readback")) / 1e3,
        "us",
        ops.len(),
    );
    let op_ns: f64 = ops.iter().map(|(total, _)| *total as f64).sum();
    let children_ns: f64 = ops
        .iter()
        .flat_map(|(_, c)| c.iter().map(|(_, ns)| *ns as f64))
        .sum();
    let span_sum_error_pct = (op_ns - children_ns).abs() / op_ns * 100.0;
    report.put(
        "bench.span_sum_error_pct",
        span_sum_error_pct,
        "%",
        ops.len(),
    );
    if span_sum_error_pct >= MAX_SPAN_SUM_ERROR_PCT {
        report.violations.push(format!(
            "child spans miss {span_sum_error_pct:.2}% of op time (limit {MAX_SPAN_SUM_ERROR_PCT}%)"
        ));
    }

    // Tracing overhead: each traced op against the untraced ops nearest
    // before and after it, interpolated to its position, so that a trend in
    // op time cancels. The same statistic over untraced ops (each against
    // *its* untraced neighbours) is what the estimator reads with no
    // tracing at all — its skew on a varied op mix — and is divided out.
    let neighbour_ratio = |of_traced: bool| -> Vec<f64> {
        primary
            .iter()
            .flat_map(|e| {
                let s = &e.samples;
                let untraced: Vec<usize> = (0..s.len()).filter(|&i| !s[i].traced).collect();
                (0..s.len())
                    .filter(move |&i| s[i].traced == of_traced)
                    .filter_map(move |i| {
                        let before = *untraced.iter().rev().find(|&&u| u < i)?;
                        let after = *untraced.iter().find(|&&u| u > i)?;
                        let slope = (s[after].ms - s[before].ms) / (after - before) as f64;
                        Some(s[i].ms / (s[before].ms + slope * (i - before) as f64))
                    })
            })
            .collect()
    };
    let (with, without) = (neighbour_ratio(true), neighbour_ratio(false));
    let trace_overhead_pct = if with.is_empty() || without.is_empty() {
        0.0
    } else {
        (median(&with) / median(&without) - 1.0) * 100.0
    };
    report.put(
        "bench.trace_overhead_pct",
        trace_overhead_pct,
        "%",
        with.len(),
    );
    // The check fails only when the overhead is *resolved* to be over the
    // limit: two standard errors of the median of `with` (from its quartile
    // distance, as for a normal sample) are given to the estimate.
    let standard_error_pct = if with.len() < 2 {
        0.0
    } else {
        let [q1, _, q3] = quartiles(&with);
        1.2533 * (q3 - q1) / 1.349 / (with.len() as f64).sqrt() * 100.0
    };
    if trace_overhead_pct - 2.0 * standard_error_pct >= MAX_TRACE_OVERHEAD_PCT {
        report.violations.push(format!(
            "tracing slows ops by {trace_overhead_pct:.2}% ± {standard_error_pct:.2}% (limit {MAX_TRACE_OVERHEAD_PCT}%)"
        ));
    }
    let all_ms = sorted(&samples().map(|s| s.ms).collect::<Vec<_>>());
    report.put("core.op_ms_p90", quantile(&all_ms, 0.9), "ms", all_ms.len());
}

/// Exact counts per steady-state op of the primary leg (traced and untraced
/// ops alike), the workload self-checks on them, and the growth of op time.
/// Returns the summed counters.
fn report_counts(report: &mut Report, spec: &RunSpec, primary: &[Epoch]) -> Counts {
    let mut c = Counts::default();
    primary.iter().for_each(|e| c.add(&e.counts));
    let n = c.ops as usize;
    report.put_per_op(
        &c,
        &[
            ("core.tasks_per_op", c.tasks_submitted, "count"),
            ("core.launches_per_op", c.tasks_launched, "count"),
            ("core.windows_per_op", c.windows_flushed, "count"),
        ],
    );
    report.put(
        "core.window_size",
        primary[0].window_size as f64,
        "count",
        1,
    );
    let probes = c.memo_hits + c.memo_misses;
    let hit_ratio = ratio(c.memo_hits as f64, probes as f64);
    report.put("fusion.memo_hit_ratio", hit_ratio, "ratio", probes as usize);
    report.put_per_op(
        &c,
        &[
            ("fusion.memo_evictions_per_op", c.memo_evictions, "count"),
            (
                "fusion.temps_eliminated_per_op",
                c.temporaries_eliminated,
                "count",
            ),
            ("fusion.rejections_per_op", c.rejections, "count"),
            ("kernel.compilations_per_op", c.compilations, "count"),
        ],
    );
    // Each workload must demonstrably exercise the layer it was chosen for
    // (exact counts, so these cannot flake).
    let compilations = c.per_op(c.compilations);
    if spec.kind != Kind::ChurnCold && (hit_ratio < 0.99 || compilations >= 0.01) {
        report.violations.push(format!(
            "steady state is not warm: memo hit ratio {hit_ratio:.3}, {compilations:.3} compilations per op"
        ));
    }
    if spec.kind == Kind::ChurnCold
        && spec.sizes.churn_pool > DiffuseConfig::DEFAULT_MEMO_CAPACITY
        && !(hit_ratio > 0.05 && hit_ratio < 0.5 && c.memo_evictions > 0)
    {
        report.violations.push(format!(
            "the memo is not churning: hit ratio {hit_ratio:.3}, {} evictions",
            c.memo_evictions
        ));
    }
    report.put(
        "kernel.sim_compile_ms",
        c.sim_compile_s * 1e3 / c.ops as f64,
        "sim_ms",
        n,
    );
    report.put_per_op(
        &c,
        &[
            ("runtime.kernel_launches_per_op", c.kernel_launches, "count"),
            ("runtime.kernel_bytes_per_op", c.kernel_bytes, "bytes"),
            ("runtime.kernel_flops_per_op", c.kernel_flops, "flops"),
            ("runtime.comm_bytes_per_op", c.comm_bytes, "bytes"),
            ("runtime.dist_allocs_per_op", c.dist_allocs, "count"),
        ],
    );
    let sim_parts = c.sim_kernel_s + c.sim_comm_s + c.sim_overhead_s;
    for (name, part) in [
        ("machine.sim_kernel_share", c.sim_kernel_s),
        ("machine.sim_comm_share", c.sim_comm_s),
        ("machine.sim_overhead_share", c.sim_overhead_s),
    ] {
        report.put(name, ratio(part, sim_parts), "ratio", n);
    }
    let sim_ms: Vec<f64> = primary
        .iter()
        .flat_map(|e| e.samples.iter().map(|s| s.sim_s * 1e3))
        .collect();
    report.put("machine.sim_op_ms", median(&sim_ms), "sim_ms", sim_ms.len());
    report.put_per_op(&c, &[("sparse.cg_iters_per_solve", c.cg_iters, "count")]);
    // Growth of op time with the ops a context has already run: the trend
    // through each epoch's untraced ops (every second op on average), as a
    // share of their median, per 100 ops.
    let untraced = primary.iter().map(|e| e.ms(false));
    let growth: Vec<f64> = untraced
        .clone()
        .filter(|ms| ms.len() >= 2)
        .map(|ms| trend(&ms) / 2.0 / median(&ms) * 100.0 * 100.0)
        .collect();
    report.put(
        "core.op_growth_pct_per_100_ops",
        if growth.is_empty() {
            0.0
        } else {
            median(&growth)
        },
        "%",
        untraced.map(|ms| ms.len()).sum(),
    );
    c
}

/// The differential legs: the same op stream on configurations one public
/// switch away from the primary leg, one epoch each under one plan. `base`
/// is the primary configuration under that same plan — the denominator of
/// every host-time ratio. `primary` holds the primary leg's counters.
fn report_legs(
    report: &mut Report,
    spec: &RunSpec,
    inputs: &Rc<Inputs>,
    primary: &Counts,
    tracer: &mut Tracer,
    tally: &mut Tally,
) {
    let kind = spec.kind;
    let leg_ops = (spec.cycle().ops / 4).max(5);
    let mut timed = |which: Leg| {
        let plan = spec.plan(which, leg_ops);
        let outcome = run_epoch(inputs, config(kind, which), plan, tracer, tally, None);
        let ms = outcome.ms(false);
        let p50 = if ms.is_empty() { 0.0 } else { median(&ms) };
        (p50, outcome.samples.len(), outcome.counts)
    };
    let (base_ms, ..) = timed(Leg::Primary);
    let (unfused_ms, n, unfused) = timed(Leg::Unfused);
    report.put("core.unfused_op_ms_p50", unfused_ms, "ms", n);
    report.put(
        "core.fused_speedup_host",
        ratio(unfused_ms, base_ms),
        "ratio",
        n,
    );
    report.put(
        "runtime.unfused_us_per_launch",
        ratio(unfused_ms * 1e3, unfused.per_op(unfused.tasks_launched)),
        "us",
        n,
    );
    report.put(
        "machine.fused_speedup_sim",
        ratio(
            unfused.sim_s / unfused.ops.max(1) as f64,
            primary.sim_s / primary.ops as f64,
        ),
        "ratio",
        n,
    );
    // A simulation-only workload is its own simulation-only leg: the
    // executor's share is zero by construction, not by measurement.
    let (simonly_ms, n) = if kind.functional() {
        let (ms, n, _) = timed(Leg::SimOnly);
        (ms, n)
    } else {
        (base_ms, leg_ops)
    };
    report.put("core.simonly_op_ms_p50", simonly_ms, "ms", n);
    report.put(
        "runtime.exec_share",
        1.0 - ratio(simonly_ms, base_ms),
        "ratio",
        n,
    );
    let (nomemo_ms, n, _) = timed(Leg::NoMemo);
    report.put("fusion.nomemo_op_ms_p50", nomemo_ms, "ms", n);
    report.put(
        "fusion.memo_amortization",
        ratio(nomemo_ms, base_ms),
        "ratio",
        n,
    );
    let (interp_ms, n, _) = timed(Leg::Interp);
    report.put("kernel.interp_op_ms_p50", interp_ms, "ms", n);
    report.put(
        "kernel.simd_vs_interp_e2e",
        ratio(interp_ms, base_ms),
        "ratio",
        n,
    );
    let (par_ms, n, _) = timed(Leg::Parallel);
    report.put("runtime.par_op_ms_p50", par_ms, "ms", n);
    report.put("runtime.par_speedup", ratio(base_ms, par_ms), "ratio", n);
    // Scale-freedom of the middle layer: the same simulation-only op stream
    // at 128 and at 8 simulated GPUs.
    let other_gpus = if kind.gpus() == 128 { 8 } else { 128 };
    let (other_ms, n, _) = timed(Leg::SimAt(other_gpus));
    let (at_128, at_8) = if kind.gpus() == 128 {
        (simonly_ms, other_ms)
    } else {
        (other_ms, simonly_ms)
    };
    report.put(
        "core.scale_ratio_128_over_8",
        ratio(at_128, at_8),
        "ratio",
        n,
    );
}
