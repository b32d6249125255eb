//! Benchmark harness utilities shared by the figure-regeneration binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper's
//! evaluation (see DESIGN.md's per-experiment index and EXPERIMENTS.md for the
//! measured results):
//!
//! * `fig09_task_table` — tasks per iteration with/without fusion (Figure 9)
//! * `fig10_microbench` — Black-Scholes and Jacobi weak scaling (Figure 10)
//! * `fig11_solvers`    — CG and BiCGSTAB vs PETSc (Figure 11)
//! * `fig12_apps`       — GMG, CFD and TorchSWE (Figure 12)
//! * `fig13_warmup`     — warmup/compilation times and breakeven (Figure 13)
//! * `summary`          — headline geometric-mean speedups (Section 7)
//! * `ablation`         — task-fusion-only and no-memoization ablations
//! * `executor_compare` — host wall-clock of functional runs under the serial
//!   vs work-stealing runtime executor (docs/RUNTIME.md)
//!
//! The Criterion benches in `benches/` measure the *wall-clock* cost of the
//! analyses themselves (fusion constraint checking, canonicalization, kernel
//! compilation), demonstrating the scale-free property of the IR.
//!
//! # Example
//!
//! ```
//! // Headline speedups are reported as geometric means over benchmarks.
//! let speedups = [2.0, 8.0];
//! assert!((bench::geomean(&speedups) - 4.0).abs() < 1e-12);
//! ```

use apps::{BenchmarkResult, Mode};

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
// Every recorder — the dedicated binaries (`kernel_backends`,
// `analysis_overhead`) and the criterion-output scraper (`bench_scrape`) —
// goes through these helpers, so the JSON-lines schema and date stamping
// live in exactly one place.
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

/// Parses the vendored criterion stub's report lines
/// (`name    time:  14.2 µs/iter  (...)`) into `(benchmark name,
/// nanoseconds per iteration)` pairs, ready to record via [`json_line`].
///
/// # Example
///
/// ```
/// let out = "fusible_prefix/window/32    time:   14.2 µs/iter  (211 iters, 3 samples)\n";
/// let parsed = bench::scrape_criterion(out);
/// assert_eq!(parsed, vec![("fusible_prefix/window/32".to_string(), 14_200.0)]);
/// ```
pub fn scrape_criterion(output: &str) -> Vec<(String, f64)> {
    let mut entries = Vec::new();
    for line in output.lines() {
        let Some((name, rest)) = line.split_once("time:") else {
            continue;
        };
        let name = name.trim();
        if name.is_empty() {
            continue;
        }
        let Some((value, _)) = rest.split_once("/iter") else {
            continue;
        };
        let value = value.trim();
        let Some((num, unit)) = value.split_once(char::is_whitespace) else {
            continue;
        };
        let Ok(num) = num.trim().parse::<f64>() else {
            continue;
        };
        let scale = match unit.trim() {
            "ns" => 1.0,
            "µs" | "us" => 1e3,
            "ms" => 1e6,
            "s" => 1e9,
            _ => continue,
        };
        entries.push((name.to_string(), num * scale));
    }
    entries
}

// ---------------------------------------------------------------------------
// Gate knobs shared by the `--check` binaries (`analysis_overhead`,
// `calibrate`, `fault_overhead`, `kernel_backends`).
// ---------------------------------------------------------------------------

/// A gate binary's measurement window in milliseconds: the environment
/// variable `var` (`<NAME>_MS`) when it parses, otherwise `default`. `--check`
/// runs double-length windows: the regression verdict deserves more stability
/// than a baseline refresh.
pub fn measure_ms(var: &str, default: u64) -> u64 {
    let base = env_or(var, default);
    if std::env::args().any(|a| a == "--check") {
        base * 2
    } else {
        base
    }
}

/// A gate's allowed regression or drift in percent before `--check` fails:
/// the environment variable `var` (`<NAME>_TOLERANCE`) when it parses,
/// otherwise `default`.
pub fn tolerance_pct(var: &str, default: f64) -> f64 {
    env_or(var, default)
}

fn env_or<T: std::str::FromStr>(var: &str, default: T) -> T {
    std::env::var(var)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
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

    #[test]
    fn scrape_criterion_units() {
        let out = "\
a/b    time:     250.0 ns/iter  (1 iters, 1 samples)
c      time:      1.5 ms/iter  (2 iters, 1 samples)
noise line without timing
d      time:      2.000 s/iter  (1 iters, 1 samples)
";
        let parsed = scrape_criterion(out);
        assert_eq!(parsed.len(), 3);
        assert_eq!(parsed[0], ("a/b".to_string(), 250.0));
        assert_eq!(parsed[1], ("c".to_string(), 1.5e6));
        assert_eq!(parsed[2], ("d".to_string(), 2.0e9));
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
