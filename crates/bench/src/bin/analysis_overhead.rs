//! Measures what memoization amortizes and what the footprint analyzer
//! costs on the steady-state submit path — the runtime-overhead story of the
//! paper's §5.2/Figure 7 — and records both ratios in
//! `BENCH_analysis_overhead.json` (schema in `docs/BENCHMARKS.md`).
//!
//! Both are ratios of two legs of `bench::WarmTrace` (a CG-style trace in a
//! simulation-only context) alive in one process and timed in alternating
//! pairs by `bench::paired`:
//!
//! * **cold ÷ warm** — a memo-miss iteration (fresh context: fusible-prefix
//!   segmentation, canonicalization, kernel pipeline, compile) against
//!   all-hit iterations (fingerprint probe, replayed decision, cached
//!   artifact). `--check` fails below the hard floor or on a regression
//!   against the recorded ratio.
//! * **inferred ÷ declared** — the same all-hit iterations under
//!   `AnalyzeMode::Inferred`, where every submission also pays the memoized
//!   effective-signature probe, against `AnalyzeMode::Declared`. The
//!   analyzer is memoized per launch key exactly like the window analysis,
//!   so its steady-state cost must be one hash probe; `--check` fails above
//!   [`ANALYZER_CEILING_PCT`] (docs/ANALYZE.md).
//!
//! ```sh
//! cargo run --release --bin analysis_overhead            # rewrite the baseline
//! cargo run --release --bin analysis_overhead -- --check # CI regression gate
//! ```

use bench::{Bound, JsonValue, WarmTrace};
use diffuse::AnalyzeMode;

/// Alternating pairs per ratio (≈1 s): ten consecutive medians of the
/// analyzer ratio span 1.1 points on the reference box, pair quartiles
/// ≈ −2 % / +4 %.
const PAIRS: usize = 600;
/// The warm path must stay at least this many times cheaper per task than
/// the miss path. Set from what is measured, not from what a slow miss path
/// once made easy: a faster miss path must not fail the gate; a warm path
/// that stops amortizing (ratio → 1) still does.
const AMORTIZATION_FLOOR: f64 = 2.0;
/// Allowed regression of cold ÷ warm against the recorded ratio, percent.
/// The ratio moves more between hosts than between runs: the tree before
/// launch plans were reused recorded 3.93× on one host and read 5.2–5.8×
/// in ten runs on another, so a baseline recorded on the second must leave
/// a host reading 1.46× lower inside the bound. A warm path back at twice
/// its length still fails it.
const AMORTIZATION_TOLERANCE_PCT: f64 = 40.0;
/// Allowed cost of `DIFFUSE_ANALYZE=inferred` on the warm path, percent of
/// the declared warm path. Nineteen medians read +2.4 … +4.3 % (centre
/// +3.4) on a 2-core host once replays reused their launch plans and the
/// warm path halved; the ceiling is that centre plus twice that spread
/// (docs/ANALYZE.md).
const ANALYZER_CEILING_PCT: f64 = 7.5;

/// One all-miss iteration over a fresh context, in nanoseconds per task
/// (context construction is outside the timed batch).
fn cold_ns_per_task() -> f64 {
    let trace = WarmTrace::cold(AnalyzeMode::Declared, None);
    let ns = bench::batch_ns(1, || trace.iterate());
    let stats = trace.context().stats();
    assert_eq!(stats.memo_hits, 0, "cold path must be all misses");
    assert!(stats.memo_misses >= 3);
    ns / WarmTrace::TASKS as f64
}

fn main() {
    println!("=== Analysis overhead: memo-miss vs memo-hit, inferred vs declared (ns/task) ===");
    bench::print_execution_axes();
    println!("({PAIRS} alternating pairs per ratio)\n");

    let declared = || WarmTrace::leg(AnalyzeMode::Declared, None);
    let analyzer = bench::paired(PAIRS, WarmTrace::leg(AnalyzeMode::Inferred, None), declared());
    let amortization = bench::paired(PAIRS, cold_ns_per_task, declared());
    let pct = |ratio: f64| (ratio - 1.0) * 100.0;

    println!("{:<28}{:>14.0} ns/task", "cold (all misses)", amortization.numerator);
    println!("{:<28}{:>14.0} ns/task", "warm (all hits)", analyzer.denominator);
    println!("{:<28}{:>14.0} ns/task", "warm + analyzer (inferred)", analyzer.numerator);
    println!(
        "{:<28}{:>13.2}x   (pair quartiles {:.2}x / {:.2}x)",
        "cold/warm ratio",
        amortization.ratio.median,
        amortization.ratio.q1,
        amortization.ratio.q3
    );
    println!(
        "{:<28}{:>+13.2}%   (pair quartiles {:+.2}% / {:+.2}%)\n",
        "analyzer overhead",
        pct(analyzer.ratio.median),
        pct(analyzer.ratio.q1),
        pct(analyzer.ratio.q3)
    );

    let ns = |v| [("ns_per_task", JsonValue::Num(v))];
    bench::record_or_check(
        "analysis_overhead",
        vec![
            bench::json_line("analysis_overhead/cold", &ns(amortization.numerator)),
            bench::json_line("analysis_overhead/warm", &ns(analyzer.denominator)),
            bench::json_line("analysis_overhead/inferred", &ns(analyzer.numerator)),
        ],
        &[
            (
                "analysis_overhead/ratio",
                "ratio",
                amortization.ratio.median,
                Bound::Floor { min: AMORTIZATION_FLOOR, pct: AMORTIZATION_TOLERANCE_PCT },
            ),
            (
                "analysis_overhead/analyze_overhead",
                "pct_vs_warm",
                pct(analyzer.ratio.median),
                Bound::Ceiling { max: ANALYZER_CEILING_PCT },
            ),
        ],
    );
}
