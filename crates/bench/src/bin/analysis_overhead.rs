//! Measures what memoization amortizes on the steady-state submit path —
//! the runtime-overhead story of the paper's §5.2/Figure 7 — and records the
//! ratio in `BENCH_analysis_overhead.json` (schema in `docs/BENCHMARKS.md`).
//!
//! The ratio is **cold ÷ warm** over two legs of `bench::WarmTrace` (a
//! CG-style trace in a simulation-only context) alive in one process and
//! timed in alternating pairs by `bench::paired`: a memo-miss iteration
//! (fresh context: fusible-prefix segmentation, canonicalization, kernel
//! pipeline, compile) against all-hit iterations (fingerprint probe,
//! replayed plan, cached artifact). `--check` fails below the hard floor or
//! on a regression against the recorded ratio.
//!
//! ```sh
//! cargo run --release --bin analysis_overhead            # rewrite the baseline
//! cargo run --release --bin analysis_overhead -- --check # CI regression gate
//! ```

use bench::{Bound, JsonValue, WarmTrace};

/// Alternating pairs (≈1 s).
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

/// One all-miss iteration over a fresh context, in nanoseconds per task
/// (context construction is outside the timed batch).
fn cold_ns_per_task() -> f64 {
    let trace = WarmTrace::cold(None);
    let ns = bench::batch_ns(1, || trace.iterate());
    let stats = trace.context().stats();
    assert_eq!(stats.memo_hits, 0, "cold path must be all misses");
    assert!(stats.memo_misses >= 3);
    ns / WarmTrace::TASKS as f64
}

fn main() {
    println!("=== Analysis overhead: memo-miss vs memo-hit (ns/task) ===");
    bench::print_execution_axes();
    println!("({PAIRS} alternating pairs)\n");

    let amortization = bench::paired(PAIRS, cold_ns_per_task, WarmTrace::leg(None));

    println!(
        "{:<28}{:>14.0} ns/task",
        "cold (all misses)", amortization.numerator
    );
    println!(
        "{:<28}{:>14.0} ns/task",
        "warm (all hits)", amortization.denominator
    );
    println!(
        "{:<28}{:>13.2}x   (pair quartiles {:.2}x / {:.2}x)\n",
        "cold/warm ratio", amortization.ratio.median, amortization.ratio.q1, amortization.ratio.q3
    );

    let ns = |v| [("ns_per_task", JsonValue::Num(v))];
    bench::record_or_check(
        "analysis_overhead",
        vec![
            bench::json_line("analysis_overhead/cold", &ns(amortization.numerator)),
            bench::json_line("analysis_overhead/warm", &ns(amortization.denominator)),
        ],
        &[(
            "analysis_overhead/ratio",
            "ratio",
            amortization.ratio.median,
            Bound::Floor {
                min: AMORTIZATION_FLOOR,
                pct: AMORTIZATION_TOLERANCE_PCT,
            },
        )],
    );
}
