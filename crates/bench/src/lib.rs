//! The paper's figures, and the host-time ratio gates CI can resolve.
//!
//! The paper's evaluation (§7, Figures 9–13) is *simulated*; each figure
//! binary in `src/bin/` regenerates one table deterministically (the
//! paper-to-binary index and the measured results are in
//! `docs/BENCHMARKS.md`):
//!
//! * `fig09_task_table` — tasks per iteration with/without fusion (Figure 9)
//! * `fig10_microbench` — Black-Scholes and Jacobi weak scaling (Figure 10)
//! * `fig11_solvers`    — CG and BiCGSTAB vs PETSc (Figure 11)
//! * `fig12_apps`       — GMG, CFD and TorchSWE (Figure 12)
//! * `fig13_warmup`     — warmup/compilation times and breakeven (Figure 13)
//! * `summary`          — headline geometric-mean speedups (Section 7)
//! * `ablation`         — task-fusion-only and no-memoization ablations
//! * `executor_compare` — asserts simulated time and checksums are bitwise
//!   identical across the executor × backend matrix (docs/BACKENDS.md)
//!
//! Host time is measured one way. End to end and per layer it is
//! `diffuse-bench/`'s job (its own workspace). What stays here are four
//! *ratios of two code paths on one host* that a shared CI runner can
//! resolve — `kernel_backends`, `analysis_overhead`, `fault_overhead`,
//! `calibrate` — and they share one harness: [`batch_ns`] is the only clock,
//! [`paired`] alternates two legs in one process and reports the quartiles
//! of the per-pair ratio, [`gate`] holds a ratio to its recorded
//! `BENCH_*.json` line, and [`WarmTrace`] is the one memo-warm trace the two
//! layer-overhead gates replay.
//!
//! # Example
//!
//! ```
//! // Headline speedups are reported as geometric means over benchmarks.
//! let speedups = [2.0, 8.0];
//! assert!((bench::geomean(&speedups) - 4.0).abs() < 1e-12);
//! ```

use apps::{BenchmarkResult, Mode};
use diffuse::{Context, DiffuseConfig, FaultPlan, StoreHandle, TaskSignature};
use ir::{Partition, PartitionId};
use kernel::{BufferId, BufferRole, KernelModule, LoopBuilder, TaskKind};
use machine::MachineConfig;

/// The GPU counts of the paper's weak-scaling studies.
pub const GPU_COUNTS: &[usize] = &[1, 2, 4, 8, 16, 32, 64, 128];

/// Prints the process-wide execution axes (runtime executor and kernel
/// backend, as resolved from `DIFFUSE_EXECUTOR`/`DIFFUSE_BACKEND`) so every
/// recorded table states the configuration it was measured under. Simulated
/// time is invariant across both axes; this line is how a reader of two
/// pasted tables knows they are comparable.
pub fn print_execution_axes() {
    let executor = match diffuse::ExecutorKind::from_env() {
        diffuse::ExecutorKind::Serial => "serial".to_string(),
        diffuse::ExecutorKind::WorkStealing { workers: None } => "work-stealing".to_string(),
        diffuse::ExecutorKind::WorkStealing { workers: Some(n) } => {
            format!("work-stealing({n})")
        }
    };
    println!(
        "(executor: {executor}, kernel backend: {}; simulated time is invariant across both)",
        diffuse::BackendKind::from_env().id()
    );
}

/// A smaller sweep for quick checks.
pub const GPU_COUNTS_SHORT: &[usize] = &[1, 8, 32, 128];

/// Geometric mean of a slice of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(1e-300).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Prints a weak-scaling series as a text table: one row per GPU count, one
/// column per mode, values are throughput in iterations per second.
pub fn print_weak_scaling(title: &str, series: &[(Mode, Vec<BenchmarkResult>)]) {
    println!("\n=== {title} (throughput, iterations/s; higher is better) ===");
    print!("{:>6}", "GPUs");
    for (mode, _) in series {
        print!("{:>16}", mode.to_string());
    }
    println!();
    let gpu_counts: Vec<usize> = series
        .first()
        .map(|(_, rs)| rs.iter().map(|r| r.gpus).collect())
        .unwrap_or_default();
    for (i, gpus) in gpu_counts.iter().enumerate() {
        print!("{gpus:>6}");
        for (_, results) in series {
            print!("{:>16.3}", results[i].throughput);
        }
        println!();
    }
    // Speedup of the first series over each other series, geometric mean.
    if let Some((first_mode, first)) = series.first() {
        for (mode, results) in series.iter().skip(1) {
            let speedups: Vec<f64> = first
                .iter()
                .zip(results)
                .map(|(f, o)| f.throughput / o.throughput.max(1e-12))
                .collect();
            println!(
                "geo-mean speedup of {first_mode} over {mode}: {:.2}x",
                geomean(&speedups)
            );
        }
    }
}

/// Runs one application across a GPU sweep in one mode.
pub fn sweep<F>(mode: Mode, gpu_counts: &[usize], mut run: F) -> (Mode, Vec<BenchmarkResult>)
where
    F: FnMut(Mode, usize) -> BenchmarkResult,
{
    let results = gpu_counts.iter().map(|&g| run(mode, g)).collect();
    (mode, results)
}

// ---------------------------------------------------------------------------
// Shared `BENCH_*.json` trajectory recording (docs/BENCHMARKS.md).
//
// Every gate binary records through these helpers, so the JSON-lines schema
// and date stamping live in exactly one place.
// ---------------------------------------------------------------------------

/// One field of a recorded benchmark entry.
#[derive(Debug, Clone)]
pub enum JsonValue {
    /// A floating-point metric, formatted with three decimals.
    Num(f64),
    /// An integer metric.
    Int(u64),
    /// A string label.
    Str(String),
}

/// Formats one JSON line of a `BENCH_*.json` trajectory:
/// `{"bench":"<name>",<fields...>,"date":"YYYY-MM-DD"}`.
///
/// # Example
///
/// ```
/// let line = bench::json_line(
///     "demo/speedup",
///     &[("speedup", bench::JsonValue::Num(2.0))],
/// );
/// assert!(line.starts_with("{\"bench\":\"demo/speedup\",\"speedup\":2.000,"));
/// assert!(line.contains("\"date\":\""));
/// ```
pub fn json_line(bench: &str, fields: &[(&str, JsonValue)]) -> String {
    let mut out = format!("{{\"bench\":\"{bench}\"");
    for (key, value) in fields {
        match value {
            JsonValue::Num(v) => out.push_str(&format!(",\"{key}\":{v:.3}")),
            JsonValue::Int(v) => out.push_str(&format!(",\"{key}\":{v}")),
            JsonValue::Str(v) => out.push_str(&format!(",\"{key}\":\"{v}\"")),
        }
    }
    out.push_str(&format!(",\"date\":\"{}\"}}", today()));
    out
}

/// Writes a recorded trajectory (one JSON line per entry) to
/// `BENCH_<topic>.json` in the current directory, replacing any previous
/// recording. Panics (with the path) if the file cannot be written, matching
/// the recorder binaries' fail-loud convention.
pub fn write_bench_file(topic: &str, lines: &[String]) -> String {
    let path = format!("BENCH_{topic}.json");
    let mut contents = lines.join("\n");
    if !contents.is_empty() {
        contents.push('\n');
    }
    std::fs::write(&path, contents).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    path
}

/// Extracts the last recorded value of `field` for `bench` from a
/// `BENCH_*.json` trajectory (flat JSON-lines schema; no JSON dependency in
/// the offline environment). [`write_bench_file`] replaces the file on each
/// run, but trajectories may be appended by hand (or by older recorders),
/// so the last matching entry wins.
///
/// # Example
///
/// ```
/// let contents = "{\"bench\":\"w/speedup\",\"speedup\":1.5}\n\
///                 {\"bench\":\"w/speedup\",\"speedup\":2.5}\n";
/// assert_eq!(bench::parse_metric(contents, "w/speedup", "speedup"), Some(2.5));
/// assert_eq!(bench::parse_metric(contents, "other", "speedup"), None);
/// ```
pub fn parse_metric(contents: &str, bench: &str, field: &str) -> Option<f64> {
    let needle = format!("\"bench\":\"{bench}\"");
    let field_key = format!("\"{field}\":");
    contents
        .lines()
        .rev()
        .find(|line| line.contains(&needle))
        .and_then(|line| {
            let at = line.find(&field_key)?;
            let tail = &line[at + field_key.len()..];
            let num: String = tail
                .chars()
                .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-' || *c == 'e')
                .collect();
            num.parse().ok()
        })
}

// ---------------------------------------------------------------------------
// The paired harness shared by the `--check` binaries (`analysis_overhead`,
// `calibrate`, `fault_overhead`, `kernel_backends`).
// ---------------------------------------------------------------------------

/// Wall-clock nanoseconds of `iters` back-to-back calls of `f` — the one
/// clock every host-time number of this crate is read from.
pub fn batch_ns(iters: u64, mut f: impl FnMut()) -> f64 {
    let start = std::time::Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_nanos() as f64
}

/// First quartile, median and third quartile of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    /// 25th percentile.
    pub q1: f64,
    /// 50th percentile — the estimate the gates read.
    pub median: f64,
    /// 75th percentile.
    pub q3: f64,
}

impl Quartiles {
    /// Quartiles by linear interpolation between order statistics.
    ///
    /// # Panics
    ///
    /// Panics on an empty sample or one holding a NaN.
    pub fn of(mut sample: Vec<f64>) -> Self {
        assert!(!sample.is_empty(), "quartiles of an empty sample");
        sample.sort_by(|a, b| a.partial_cmp(b).expect("NaN in a timing sample"));
        let at = |q: f64| {
            let pos = q * (sample.len() - 1) as f64;
            let (lo, frac) = (pos.floor() as usize, pos.fract());
            let hi = (lo + 1).min(sample.len() - 1);
            sample[lo] + (sample[hi] - sample[lo]) * frac
        };
        Quartiles { q1: at(0.25), median: at(0.5), q3: at(0.75) }
    }
}

/// What [`paired`] measured: the distribution of the per-pair ratio, and each
/// leg's median batch cost for the record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Paired {
    /// Quartiles of `numerator ÷ denominator` over the pairs.
    pub ratio: Quartiles,
    /// Median cost the numerator leg reported.
    pub numerator: f64,
    /// Median cost the denominator leg reported.
    pub denominator: f64,
}

/// Compares two code paths that live side by side in one process: `pairs`
/// times, runs one batch of each back to back — the order flipped every pair,
/// so neither leg always inherits the other's cache and frequency state —
/// and takes the ratio *within* the pair. Whatever the machine's other
/// tenants do lasts longer than a pair and so hits both of its halves; a
/// burst that hits one half moves that pair's ratio far out, where the
/// median does not look. Timed in two separate windows, a 1 % difference
/// reads anywhere from −29 % to +22 % on a shared box; as the median of 600
/// pairs it repeats within a point (docs/BENCHMARKS.md).
///
/// Each leg reports its own cost — nanoseconds per task, per element,
/// whatever both share — so the statistic is testable with scripted clocks.
pub fn paired(
    pairs: usize,
    mut numerator: impl FnMut() -> f64,
    mut denominator: impl FnMut() -> f64,
) -> Paired {
    let (mut nums, mut dens) = (Vec::with_capacity(pairs), Vec::with_capacity(pairs));
    for pair in 0..pairs {
        let (n, d) = if pair % 2 == 0 {
            let n = numerator();
            (n, denominator())
        } else {
            let d = denominator();
            (numerator(), d)
        };
        nums.push(n);
        dens.push(d);
    }
    let ratios = nums.iter().zip(&dens).map(|(n, d)| n / d).collect();
    Paired {
        ratio: Quartiles::of(ratios),
        numerator: Quartiles::of(nums).median,
        denominator: Quartiles::of(dens).median,
    }
}

/// How [`gate`] holds a measured ratio to its recorded line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// Higher is better: never below `min`, nor more than `pct` percent
    /// below the recorded value.
    Floor {
        /// Absolute floor, whatever was recorded.
        min: f64,
        /// Allowed regression against the recorded value, in percent.
        pct: f64,
    },
    /// Lower is better, and the claim is absolute ("this layer costs < 2 %"):
    /// never above `max`, whatever was recorded.
    Ceiling {
        /// Absolute ceiling.
        max: f64,
    },
    /// Neither direction is better (a calibration): within `pct` percent of
    /// the recorded value.
    Drift {
        /// Allowed drift against the recorded value, in percent.
        pct: f64,
    },
}

/// One gated quantity of a `--check` binary: the `bench` key and field of
/// its `BENCH_*.json` line, the value just measured, and its bound.
pub type Gated<'a> = (&'a str, &'a str, f64, Bound);

/// Holds `current` to the last `key` line of the recorded `file`: prints the
/// verdict line and returns an error naming the file when the value is out
/// of bound — or when the file, the line or the field is missing: a gate
/// that cannot find its baseline has not passed.
pub fn gate(file: &str, key: &str, field: &str, current: f64, bound: Bound) -> Result<(), String> {
    let contents = std::fs::read_to_string(file)
        .map_err(|e| format!("{key}: --check needs a checked-in {file}: {e}"))?;
    let recorded = parse_metric(&contents, key, field)
        .ok_or_else(|| format!("{key}: no \"{field}\" recorded in {file}"))?;
    let (allowed, ok) = match bound {
        Bound::Floor { min, pct } => {
            let floor = (recorded * (1.0 - pct / 100.0)).max(min);
            (format!("floor {floor:.3}"), current >= floor)
        }
        Bound::Ceiling { max } => (format!("ceiling {max:.3}"), current <= max),
        Bound::Drift { pct } => (
            format!("within {pct}%"),
            (current - recorded).abs() <= recorded.abs() * pct / 100.0,
        ),
    };
    let verdict = if ok { "ok" } else { "OUT OF BOUND" };
    println!("{key}: recorded {recorded:.3}, current {current:.3}, {allowed} — {verdict}");
    if ok {
        Ok(())
    } else {
        Err(format!(
            "{key}: current {current:.3} against {recorded:.3} recorded in {file} ({allowed})"
        ))
    }
}

/// How every gate binary ends. Without `--check`: rewrites
/// `BENCH_<topic>.json` from the informational `notes` plus one line per
/// gated value. With it: holds every gated value to that file through
/// [`gate`], prints every verdict, and exits non-zero listing the ones that
/// failed. Baselines are ratios of two code paths on one host; re-record
/// (run without `--check`) when the code legitimately moves one.
pub fn record_or_check(topic: &str, notes: Vec<String>, gated: &[Gated<'_>]) {
    if std::env::args().any(|a| a == "--check") {
        let file = format!("BENCH_{topic}.json");
        let failed: Vec<String> = gated
            .iter()
            .filter_map(|&(key, field, current, bound)| gate(&file, key, field, current, bound).err())
            .collect();
        if !failed.is_empty() {
            eprintln!("\ncheck FAILED:\n{}", failed.join("\n"));
            std::process::exit(1);
        }
        println!("\ncheck passed: {} gated value(s) within bound of {file}.", gated.len());
    } else {
        let mut lines = notes;
        for &(key, field, current, _) in gated {
            lines.push(json_line(key, &[(field, JsonValue::Num(current))]));
        }
        println!("recorded {}", write_bench_file(topic, &lines));
    }
}

// ---------------------------------------------------------------------------
// The warm trace the layer-overhead gates replay (`analysis_overhead`,
// `fault_overhead`).
// ---------------------------------------------------------------------------

/// Elements per store of the [`WarmTrace`] (simulation-only: sizes only
/// feed the cost model).
const TRACE_ELEMENTS: u64 = 1 << 20;
/// Simulated GPUs (launch-domain points) of the [`WarmTrace`].
const TRACE_GPUS: usize = 8;
/// Length of the trace's elementwise-chain window: the shape the adaptive
/// window converges to on elementwise-heavy traces, and long enough that
/// per-launch costs dominate per-window costs.
const TRACE_CHAIN: usize = 24;
/// All-hit iterations per timed batch of a [`WarmTrace::leg`] (≈1 ms: long
/// against the timer, short against whatever else the machine is doing).
const LEG_ITERS: u64 = 20;
/// Batches a [`WarmTrace::leg`] times before it rebuilds its context.
const LEG_REBUILD_EVERY: usize = 50;

/// A CG-style trace over persistent stores in a simulation-only context:
/// per iteration a 4-task vector window with a reduction tail, a 3-task
/// Jacobi-style correction window and a 24-task elementwise chain, each
/// flushed the way a solver flushes per iteration. CG reuses its vectors, so
/// successive iterations are isomorphic and, once the memo is populated,
/// every window is a hit: the steady-state submit path whose cost memo
/// misses amortize against and an armed fault plan must not move.
pub struct WarmTrace {
    ctx: Context,
    add: TaskKind,
    scale: TaskKind,
    dot: TaskKind,
    block: PartitionId,
    replicate: PartitionId,
    x: StoreHandle,
    p: StoreHandle,
    t: StoreHandle,
    q: StoreHandle,
    s: StoreHandle,
    rs: StoreHandle,
    chain: Vec<StoreHandle>,
}

impl WarmTrace {
    /// Tasks one [`WarmTrace::iterate`] submits.
    pub const TASKS: u64 = 7 + TRACE_CHAIN as u64;

    /// The trace over a fresh context — memo empty, so the first iteration
    /// is all misses. The fault plan is explicit so the process environment
    /// (`DIFFUSE_FAULTS`) never picks a leg.
    pub fn cold(plan: Option<FaultPlan>) -> Self {
        // Buffer the whole chain window before analyzing (the adaptive policy
        // would get there on its own; pinning it keeps batches uniform).
        let mut config = DiffuseConfig::fused(MachineConfig::with_gpus(TRACE_GPUS))
            .simulation_only()
            .with_window(32, 70);
        config.fault_plan = plan;
        let ctx = Context::new(config);
        let lib = ctx.register_library("warmtrace");
        let add = lib.register("add", TaskSignature::new().read().read().write(), |_| {
            let mut m = KernelModule::new(3);
            m.set_role(BufferId(2), BufferRole::Output);
            let mut b = LoopBuilder::new("add", BufferId(2));
            let (x, y) = (b.load(BufferId(0)), b.load(BufferId(1)));
            let s = b.add(x, y);
            b.store(BufferId(2), s);
            m.push_loop(b.finish());
            m
        });
        let scale = lib.register("scale", TaskSignature::new().read().write().scalars(1), |_| {
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
        let dot = lib.register("dot", TaskSignature::new().read().reduce(), |_| {
            let mut m = KernelModule::new(2);
            m.set_role(BufferId(1), BufferRole::Reduction);
            let mut b = LoopBuilder::new("dot", BufferId(0));
            let x = b.load(BufferId(0));
            let xx = b.mul(x, x);
            b.reduce(BufferId(1), kernel::ReduceOp::Sum, xx);
            m.push_loop(b.finish());
            m
        });
        let store = |name: &str| ctx.create_store(vec![TRACE_ELEMENTS], name);
        WarmTrace {
            add,
            scale,
            dot,
            block: PartitionId::intern(&Partition::block(vec![
                TRACE_ELEMENTS.div_ceil(TRACE_GPUS as u64),
            ])),
            replicate: PartitionId::intern(&Partition::Replicate),
            x: store("x"),
            p: store("p"),
            t: store("t"),
            q: store("q"),
            s: store("s"),
            rs: ctx.create_store(vec![1], "rs"),
            chain: (0..=TRACE_CHAIN).map(|i| store(&format!("c{i}"))).collect(),
            ctx,
        }
    }

    /// One leg of a [`paired`] comparison: each call times one batch of
    /// all-hit iterations and reports nanoseconds per task. The leg rebuilds
    /// its context every 50 batches (`LEG_REBUILD_EVERY`), so one process
    /// samples a dozen heap layouts and hash seeds instead of one: with a
    /// single context per leg, ten processes' medians of the armed-plan
    /// ratio spread 1.5 points on the reference box; rebuilt, 0.6 (two sets
    /// of ten) and 1.2 (a third).
    pub fn leg(plan: Option<FaultPlan>) -> impl FnMut() -> f64 {
        let mut trace = WarmTrace::warm(plan);
        let mut batches = 0;
        move || {
            if batches == LEG_REBUILD_EVERY {
                trace = WarmTrace::warm(plan);
                batches = 0;
            }
            batches += 1;
            trace.timed_ns_per_task(LEG_ITERS)
        }
    }

    /// The trace with its memo populated (and the adaptive window settled):
    /// every later iteration is all hits.
    fn warm(plan: Option<FaultPlan>) -> Self {
        let trace = WarmTrace::cold(plan);
        for _ in 0..3 {
            trace.iterate();
        }
        trace
    }

    /// The context the trace runs in (for its counters).
    pub fn context(&self) -> &Context {
        &self.ctx
    }

    /// Submits one iteration: [`WarmTrace::TASKS`] tasks in three windows.
    pub fn iterate(&self) {
        let ctx = &self.ctx;
        let ew = |name: &str, a: &StoreHandle, b: &StoreHandle, o: &StoreHandle| {
            ctx.task(self.add)
                .name(name)
                .read(a, self.block)
                .read(b, self.block)
                .write(o, self.block)
                .launch();
        };
        let scale = |name: &str, alpha: f64| {
            ctx.task(self.scale)
                .name(name)
                .read(&self.t, self.block)
                .write(&self.q, self.block)
                .scalar(alpha)
                .launch();
        };
        // Window 1: t = x + p; q = alpha * t; s = q + x; rs += s . s
        ew("add_xp", &self.x, &self.p, &self.t);
        scale("scale_t", 1.0e-3);
        ew("add_qx", &self.q, &self.x, &self.s);
        ctx.task(self.dot)
            .name("dot_ss")
            .read(&self.s, self.block)
            .reduce(&self.rs, self.replicate, ir::ReductionOp::Sum)
            .launch();
        ctx.flush();
        // Window 2: t = p + s; q = beta * t; x' = q + p (Jacobi-style tail).
        ew("add_ps", &self.p, &self.s, &self.t);
        scale("scale_t2", 0.5);
        ew("add_qp", &self.q, &self.p, &self.x);
        ctx.flush();
        // Window 3: the long fully-fusible elementwise chain.
        for i in 0..TRACE_CHAIN {
            ew("chain", &self.chain[i], &self.p, &self.chain[i + 1]);
        }
        ctx.flush();
    }

    /// Host nanoseconds per task over one timed batch of `iters` iterations.
    ///
    /// # Panics
    ///
    /// Panics unless the batch was the steady state the gates claim to time:
    /// every window a memo hit, nothing compiled, no fault fired.
    fn timed_ns_per_task(&self, iters: u64) -> f64 {
        let before = self.ctx.stats();
        let ns = batch_ns(iters, || self.iterate());
        let delta = self.ctx.stats().since(&before);
        assert_eq!(delta.memo_misses, 0, "warm path must be all hits");
        assert_eq!(delta.compilations, 0, "warm path must not compile");
        assert_eq!(delta.memo_hits, 3 * iters, "three windows per iteration");
        assert_eq!(delta.faults_injected, 0, "a timed batch must not recover from faults");
        ns / (iters * Self::TASKS) as f64
    }
}

// ---------------------------------------------------------------------------
// Compile-time calibration fitting (the `calibrate` binary).
// ---------------------------------------------------------------------------

/// Least-squares fit of `t ≈ b + c1·x1 + c2·x2` over `(x1, x2, t)` samples,
/// returning `[b, c1, c2]`. Solves the 3×3 normal equations by Gaussian
/// elimination with partial pivoting; returns `None` if the design is
/// degenerate (fewer than three samples, or `x1`/`x2` not independently
/// varied — the calibration grid varies ops-per-stage and stage count
/// separately precisely so this cannot happen there).
pub fn fit_affine2(samples: &[(f64, f64, f64)]) -> Option<[f64; 3]> {
    if samples.len() < 3 {
        return None;
    }
    // Normal equations: (XᵀX) β = Xᵀt with rows [1, x1, x2].
    let mut a = [[0.0f64; 3]; 3];
    let mut rhs = [0.0f64; 3];
    for &(x1, x2, t) in samples {
        let row = [1.0, x1, x2];
        for i in 0..3 {
            for j in 0..3 {
                a[i][j] += row[i] * row[j];
            }
            rhs[i] += row[i] * t;
        }
    }
    // Gaussian elimination with partial pivoting.
    for col in 0..3 {
        let pivot = (col..3).max_by(|&i, &j| {
            a[i][col].abs().partial_cmp(&a[j][col].abs()).unwrap()
        })?;
        if a[pivot][col].abs() < 1e-12 {
            return None;
        }
        a.swap(col, pivot);
        rhs.swap(col, pivot);
        let pivot_row = a[col];
        for row in col + 1..3 {
            let f = a[row][col] / pivot_row[col];
            for (dst, &pv) in a[row].iter_mut().zip(&pivot_row).skip(col) {
                *dst -= f * pv;
            }
            rhs[row] -= f * rhs[col];
        }
    }
    let mut beta = [0.0f64; 3];
    for row in (0..3).rev() {
        let mut acc = rhs[row];
        for k in row + 1..3 {
            acc -= a[row][k] * beta[k];
        }
        beta[row] = acc / a[row][row];
    }
    beta.iter().all(|c| c.is_finite()).then_some(beta)
}

/// Coefficient of determination (R²) of a fit over the same samples.
pub fn fit_r2(samples: &[(f64, f64, f64)], beta: &[f64; 3]) -> f64 {
    let mean = samples.iter().map(|s| s.2).sum::<f64>() / samples.len().max(1) as f64;
    let (mut ss_res, mut ss_tot) = (0.0, 0.0);
    for &(x1, x2, t) in samples {
        let pred = beta[0] + beta[1] * x1 + beta[2] * x2;
        ss_res += (t - pred) * (t - pred);
        ss_tot += (t - mean) * (t - mean);
    }
    if ss_tot <= 0.0 {
        return 1.0;
    }
    1.0 - ss_res / ss_tot
}

/// Clamps fitted compile-model coefficients to a non-negative floor so the
/// model stays monotonic in module size even under measurement noise (a
/// slightly negative fitted intercept or slope is noise, not physics).
pub fn clamp_coefficients(beta: [f64; 3], floor: f64) -> [f64; 3] {
    beta.map(|c| if c.is_finite() { c.max(floor) } else { floor })
}

/// Today's date as YYYY-MM-DD (days-since-epoch civil conversion; no chrono
/// in the offline environment).
pub fn today() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let mut days = (secs / 86_400) as i64;
    days += 719_468;
    let era = days.div_euclid(146_097);
    let doe = days.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
        assert!((geomean(&[3.0]) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn sweep_collects_each_gpu_count() {
        let (mode, results) = sweep(Mode::Fused, &[1, 2], |m, g| {
            apps::black_scholes::run(m, g, 64, 2, false)
        });
        assert_eq!(mode, Mode::Fused);
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].gpus, 1);
        assert_eq!(results[1].gpus, 2);
    }

    #[test]
    fn json_line_schema() {
        let line = json_line(
            "kernel_backends/cg/interp",
            &[
                ("backend", JsonValue::Str("interp".into())),
                ("ns_per_element", JsonValue::Num(50.637)),
                ("elements", JsonValue::Int(32768)),
            ],
        );
        assert!(line.starts_with(
            "{\"bench\":\"kernel_backends/cg/interp\",\"backend\":\"interp\",\
             \"ns_per_element\":50.637,\"elements\":32768,\"date\":\""
        ));
        assert!(line.ends_with('}'));
    }

    #[test]
    fn parse_metric_takes_the_last_entry() {
        let contents = "{\"bench\":\"a/x\",\"v\":1.0}\n{\"bench\":\"a/x\",\"v\":3.5}\n";
        assert_eq!(parse_metric(contents, "a/x", "v"), Some(3.5));
        assert_eq!(parse_metric(contents, "a/x", "w"), None);
        assert_eq!(parse_metric(contents, "b/x", "v"), None);
    }

    /// A leg that replays a script of costs, one per call, logging `tag`.
    fn scripted(costs: Vec<f64>, log: &std::cell::RefCell<Vec<char>>, tag: char) -> impl FnMut() -> f64 + '_ {
        let mut next = costs.into_iter();
        move || {
            log.borrow_mut().push(tag);
            next.next().expect("script exhausted")
        }
    }

    #[test]
    fn paired_alternates_the_order_and_reports_quartiles_of_the_ratio() {
        let log = std::cell::RefCell::new(Vec::new());
        // Per-pair ratios 1, 2, 3, 4, 5 on a denominator that drifts 10× —
        // the drift is common to both halves of a pair and cancels.
        let dens = vec![10.0, 20.0, 40.0, 80.0, 100.0];
        let nums = dens.iter().zip(1..).map(|(d, k)| d * k as f64).collect();
        let got = paired(5, scripted(nums, &log, 'n'), scripted(dens, &log, 'd'));
        assert_eq!(log.borrow().iter().collect::<String>(), "nddnnddnnd");
        assert_eq!(got.ratio, Quartiles { q1: 2.0, median: 3.0, q3: 4.0 });
        assert_eq!((got.numerator, got.denominator), (120.0, 40.0));
    }

    #[test]
    fn a_one_sided_outlier_in_a_tenth_of_the_pairs_does_not_move_the_median() {
        let log = std::cell::RefCell::new(Vec::new());
        // True ratio 1.01; every tenth pair a burst triples the numerator.
        let nums = (0..100).map(|i| if i % 10 == 3 { 303.0 } else { 101.0 }).collect();
        let got = paired(100, scripted(nums, &log, 'n'), scripted(vec![100.0; 100], &log, 'd'));
        assert_eq!(got.ratio.median, 1.01);
        assert_eq!((got.ratio.q1, got.ratio.q3), (1.01, 1.01));
        // (The mean of these ratios is 1.21.)
    }

    /// A scratch `BENCH_*.json` holding one recorded ratio of 10.
    fn recorded_ten(test: &str) -> String {
        let file = std::env::temp_dir()
            .join(format!("bench_gate_{test}_{}.json", std::process::id()))
            .to_string_lossy()
            .into_owned();
        std::fs::write(&file, "{\"bench\":\"w/speedup\",\"speedup\":10.0}\n").unwrap();
        file
    }

    #[test]
    fn gate_holds_floors_ceilings_and_drift() {
        let file = recorded_ten("bounds");
        let check = |current, bound| gate(&file, "w/speedup", "speedup", current, bound);
        let floor = Bound::Floor { min: 2.0, pct: 20.0 };
        assert!(check(8.0, floor).is_ok());
        assert!(check(30.0, floor).is_ok(), "a floor does not cap improvements");
        assert!(check(7.9, floor).unwrap_err().contains(&file));
        // The absolute floor binds when the recorded value is itself low.
        assert!(check(8.5, Bound::Floor { min: 9.0, pct: 20.0 }).is_err());
        let ceiling = Bound::Ceiling { max: 1.02 };
        assert!(check(1.02, ceiling).is_ok());
        assert!(check(0.5, ceiling).is_ok(), "a ceiling does not cap improvements");
        assert!(check(1.021, ceiling).unwrap_err().contains(&file));
        let drift = Bound::Drift { pct: 30.0 };
        assert!(check(7.0, drift).is_ok() && check(13.0, drift).is_ok());
        assert!(check(6.9, drift).is_err() && check(13.1, drift).is_err());
        std::fs::remove_file(&file).unwrap();
    }

    #[test]
    fn gate_without_a_baseline_is_an_error_naming_the_file() {
        let file = recorded_ten("missing");
        let bound = Bound::Ceiling { max: 100.0 };
        // A misspelt key or field must not pass as "nothing to compare".
        let err = gate(&file, "w/speedupp", "speedup", 1.0, bound).unwrap_err();
        assert!(err.contains(&file) && err.contains("w/speedupp"), "{err}");
        let err = gate(&file, "w/speedup", "ratio", 1.0, bound).unwrap_err();
        assert!(err.contains(&file) && err.contains("ratio"), "{err}");
        std::fs::remove_file(&file).unwrap();
        let err = gate(&file, "w/speedup", "speedup", 1.0, bound).unwrap_err();
        assert!(err.contains(&file), "{err}");
    }

    #[test]
    fn warm_trace_batches_are_all_hits_in_every_leg() {
        // `timed_ns_per_task` asserts hits-only, no compilation and no fired
        // fault.
        for plan in [None, Some(FaultPlan::new(1, f64::MIN_POSITIVE))] {
            let trace = WarmTrace::warm(plan);
            assert!(trace.timed_ns_per_task(2) > 0.0);
            assert_eq!(trace.context().stats().faults_injected, 0);
        }
    }

    #[test]
    #[should_panic(expected = "warm path must be all hits")]
    fn warm_trace_refuses_to_time_a_cold_batch() {
        WarmTrace::cold(None).timed_ns_per_task(1);
    }

    #[test]
    fn fit_affine2_recovers_exact_linear_data() {
        // t = 100 + 7·x1 + 45·x2, sampled on a grid that varies each factor
        // independently (the calibrate binary's grid shape).
        let mut samples = Vec::new();
        for &x1 in &[2.0, 8.0, 24.0, 64.0] {
            for &x2 in &[1.0, 2.0, 4.0, 8.0, 16.0] {
                samples.push((x1, x2, 100.0 + 7.0 * x1 + 45.0 * x2));
            }
        }
        let beta = fit_affine2(&samples).unwrap();
        assert!((beta[0] - 100.0).abs() < 1e-6);
        assert!((beta[1] - 7.0).abs() < 1e-9);
        assert!((beta[2] - 45.0).abs() < 1e-9);
        assert!(fit_r2(&samples, &beta) > 0.999999);
    }

    #[test]
    fn fit_affine2_rejects_degenerate_designs() {
        // Too few samples.
        assert_eq!(fit_affine2(&[(1.0, 1.0, 1.0), (2.0, 2.0, 2.0)]), None);
        // x1 and x2 perfectly collinear: the normal equations are singular.
        let collinear: Vec<(f64, f64, f64)> =
            (0..10).map(|i| (i as f64, 2.0 * i as f64, i as f64)).collect();
        assert_eq!(fit_affine2(&collinear), None);
    }

    #[test]
    fn fitted_coefficients_are_finite_and_monotonic_after_clamping() {
        // Noisy data can fit a slightly negative intercept; clamping restores
        // the monotonic-in-module-size property the cost model requires.
        let samples = vec![
            (2.0, 1.0, 10.0),
            (8.0, 1.0, 30.0),
            (2.0, 4.0, 11.0),
            (8.0, 4.0, 31.0),
            (24.0, 8.0, 80.0),
            (64.0, 16.0, 200.0),
        ];
        let beta = clamp_coefficients(fit_affine2(&samples).unwrap(), 0.0);
        assert!(beta.iter().all(|c| c.is_finite() && *c >= 0.0));
        // Monotonic: adding ops or stages never predicts cheaper.
        let predict = |x1: f64, x2: f64| beta[0] + beta[1] * x1 + beta[2] * x2;
        assert!(predict(64.0, 4.0) >= predict(8.0, 4.0));
        assert!(predict(64.0, 16.0) >= predict(64.0, 4.0));
        assert_eq!(clamp_coefficients([f64::NAN, -1.0, 2.0], 0.5), [0.5, 0.5, 2.0]);
    }

    #[test]
    fn today_is_iso_formatted() {
        let d = today();
        assert_eq!(d.len(), 10);
        assert_eq!(d.as_bytes()[4], b'-');
        assert_eq!(d.as_bytes()[7], b'-');
    }
}
