//! Measures what the resilience layer (`docs/RESILIENCE.md`) costs on the
//! steady-state submit path while nothing fails, and records it in
//! `BENCH_resilience.json` (schema in `docs/BENCHMARKS.md`).
//!
//! With no `FaultPlan` the layer is one early return per launch — there is
//! no second code path to compare it with. The comparison the layer can be
//! held to is **armed ÷ no plan**: the same all-hit `bench::WarmTrace` under
//! a plan whose rate is positive, so every launch pays the fingerprint, the
//! occurrence counter and the two fault-decision hashes, but so small that
//! it never fires; both legs alive in one process, timed in alternating
//! pairs by `bench::paired`. `--check` fails above [`ARMED_CEILING_PCT`].
//!
//! A third leg is a correctness smoke, not a timing: under a saturated
//! schedule (rate 1.0, recovery on) faults are injected, everything is
//! retried and nothing is abandoned; its per-iteration counters are recorded.
//!
//! ```sh
//! cargo run --release --bin fault_overhead            # rewrite BENCH_resilience.json
//! cargo run --release --bin fault_overhead -- --check # CI regression gate
//! ```

use bench::{Bound, JsonValue, WarmTrace};
use diffuse::FaultPlan;

/// Alternating pairs (see `analysis_overhead`: same trace, same estimator).
const PAIRS: usize = 600;
/// Allowed cost of an armed plan that never fires, percent of the warm path
/// without a plan. Since replays reuse their launch plans the warm path is
/// about half as long, and the layer's same ≈37 ns per task reads about
/// twice the percent: sixteen of nineteen medians on a 2-core host read
/// +5.2 … +6.1 % (centre +5.6); the other three, whose warm path landed in a
/// slower mode (≈1 070 against ≈670 ns per task), read +3.4 … +3.6 %. The
/// ceiling is the upper mode's centre plus twice its spread.
const ARMED_CEILING_PCT: f64 = 7.5;

/// Saturated-schedule smoke: every launch faults at least once, recovery
/// repairs all of it. Returns per-iteration (faults, retries, degraded).
fn saturated_counters() -> (f64, f64, f64) {
    const ITERS: u64 = 8;
    let trace = WarmTrace::cold(Some(FaultPlan::new(2024, 1.0)));
    for _ in 0..ITERS {
        trace.iterate();
    }
    let stats = trace.context().stats();
    assert!(stats.faults_injected > 0, "rate 1.0 must inject");
    assert!(stats.retries > 0, "recovery must retry");
    assert_eq!(stats.abandoned_launches, 0, "recovery must not abandon");
    assert!(stats.recovery_sim_time > 0.0, "recovery is priced");
    assert!(
        trace.context().take_failures().is_empty(),
        "recovery must not fail launches"
    );
    let per_iter = |count: u64| count as f64 / ITERS as f64;
    (
        per_iter(stats.faults_injected),
        per_iter(stats.retries),
        per_iter(stats.degraded_launches),
    )
}

fn main() {
    println!("=== Resilience overhead: warm ns/task, armed quiet plan vs no plan ===");
    bench::print_execution_axes();
    println!("({PAIRS} alternating pairs of warm batches)\n");

    // Positive, so `Runtime::new` keeps the plan; 2⁻¹⁰²² per decision, so it
    // never fires (every timed batch asserts it did not).
    let quiet = FaultPlan::new(1, f64::MIN_POSITIVE);
    let cost = bench::paired(PAIRS, WarmTrace::leg(Some(quiet)), WarmTrace::leg(None));
    let pct = |ratio: f64| (ratio - 1.0) * 100.0;
    let (faults, retries, degraded) = saturated_counters();

    println!("{:<28}{:>14.0} ns/task", "no plan", cost.denominator);
    println!("{:<28}{:>14.0} ns/task", "armed, never fires", cost.numerator);
    println!(
        "{:<28}{:>+13.2}%   (pair quartiles {:+.2}% / {:+.2}%)",
        "armed overhead",
        pct(cost.ratio.median),
        pct(cost.ratio.q1),
        pct(cost.ratio.q3)
    );
    println!(
        "{:<28}{:>10.1} faults, {:.1} retries, {:.1} degraded / iteration\n",
        "saturated (rate 1.0)", faults, retries, degraded
    );

    let ns = |v| [("ns_per_task", JsonValue::Num(v))];
    bench::record_or_check(
        "resilience",
        vec![
            bench::json_line("resilience/no_plan", &ns(cost.denominator)),
            bench::json_line("resilience/armed", &ns(cost.numerator)),
            bench::json_line(
                "resilience/saturated",
                &[
                    ("faults_per_iter", JsonValue::Num(faults)),
                    ("retries_per_iter", JsonValue::Num(retries)),
                    ("degraded_per_iter", JsonValue::Num(degraded)),
                ],
            ),
        ],
        &[(
            "resilience/armed_overhead",
            "pct_vs_no_plan",
            pct(cost.ratio.median),
            Bound::Ceiling { max: ARMED_CEILING_PCT },
        )],
    );
}
