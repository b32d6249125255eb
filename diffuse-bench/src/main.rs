//! `diffuse-bench`: the repository's end-to-end and per-layer benchmark.
//! See README.md beside this crate for metrics, workloads and bounds.

mod harness;
mod json;
mod probes;
mod program;
mod reference;
mod report;
mod rng;
mod run;
mod stats;
mod trace;
mod workloads;
mod yardstick;

use std::path::PathBuf;
use std::process::ExitCode;

use json::Json;
use run::RunSpec;
use workloads::{Kind, Sizes};

const USAGE: &str = "\
usage:
  diffuse-bench run --workload <name|all> --seed <u64> [--seconds <s>] [--trace <0|1>]
                    [--trace-out <file>] [--repeat <n>] [--out <file>] [--smoke]
  diffuse-bench compare <a.json> <b.json> [--benchmark <BENCHMARK.json>]

workloads: bs_stream heat_xlib cg_small scale128_sim churn_cold

run      prints one JSON result line on stdout (a human table goes to stderr):
         --trace 0 gives the end-to-end metrics, --trace 1 the per-layer ones.
         With `all` or --repeat, each run is a child process and the printed
         (and --out) document is a run-set: per workload, every metric's
         values, median and quartiles.
compare  holds run-set b against run-set a on every workload x end-to-end
         metric, using the bounds in BENCHMARK.json; exits 1 if any row is
         `regressed` or `unresolved`.";

struct RunArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
    repeat: usize,
    out: Option<PathBuf>,
    smoke: bool,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: String::new(),
        seed: 0,
        seconds: 24.0,
        trace: false,
        trace_out: None,
        repeat: 1,
        out: None,
        smoke: false,
    };
    let mut seen_seed = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let bad = |what: &str| format!("{flag}: {what}");
        match flag.as_str() {
            "--workload" => parsed.workload = value()?.clone(),
            "--seed" => {
                parsed.seed = value()?.parse().map_err(|_| bad("not a u64"))?;
                seen_seed = true;
            }
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|_| bad("not a number"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
                    return Err(bad("must be in (0, 600]"));
                }
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                }
            }
            "--trace-out" => parsed.trace_out = Some(value()?.into()),
            "--repeat" => {
                parsed.repeat = value()?.parse().map_err(|_| bad("not a count"))?;
                if !(1..=100).contains(&parsed.repeat) {
                    return Err(bad("must be in 1..=100"));
                }
            }
            "--out" => parsed.out = Some(value()?.into()),
            "--smoke" => parsed.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if parsed.workload != "all" && Kind::from_name(&parsed.workload).is_none() {
        return Err(format!(
            "--workload must be one of the five workloads or `all`, got {:?}",
            parsed.workload
        ));
    }
    if !seen_seed {
        return Err("--seed is required".into());
    }
    Ok(parsed)
}

/// One workload, in this process.
fn run_one(args: &RunArgs, kind: Kind) -> ExitCode {
    let spec = RunSpec {
        kind,
        sizes: if args.smoke {
            Sizes::smoke()
        } else {
            Sizes::full()
        },
        seed: args.seed,
        seconds: args.seconds,
    };
    let result = if args.trace {
        run::per_layer(spec, args.trace_out.as_deref())
    } else {
        run::end_to_end(spec)
    };
    eprint!("{}", report::table(&result));
    println!("{}", report::result_line(&result).render());
    ExitCode::SUCCESS
}

/// A run-set: every requested workload `repeat` times, one child each.
fn run_set(args: &RunArgs) -> Result<ExitCode, String> {
    let kinds: Vec<Kind> = match Kind::from_name(&args.workload) {
        Some(kind) => vec![kind],
        None => Kind::ALL.to_vec(),
    };
    let mut workloads = Vec::new();
    let mut all_correct = true;
    for kind in kinds {
        let mut lines = Vec::new();
        for _ in 0..args.repeat {
            let mut child: Vec<String> = ["--workload", kind.name()].map(String::from).to_vec();
            child.extend([
                "--seed".into(),
                args.seed.to_string(),
                "--seconds".into(),
                args.seconds.to_string(),
            ]);
            child.extend(["--trace".into(), if args.trace { "1" } else { "0" }.into()]);
            if args.smoke {
                child.push("--smoke".into());
            }
            lines.push(report::run_child(&child)?);
        }
        let folded = report::fold_runs(&lines);
        all_correct &= folded.get("correct").and_then(Json::as_bool) == Some(true);
        workloads.push((kind.name().to_string(), folded));
    }
    let document = Json::obj(vec![
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("trace", Json::Num(f64::from(u8::from(args.trace)))),
        ("repeat", Json::Num(args.repeat as f64)),
        ("workloads", Json::Obj(workloads)),
    ]);
    let text = document.render();
    if let Some(path) = &args.out {
        std::fs::write(path, format!("{text}\n"))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    println!("{text}");
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn compare(args: &[String]) -> Result<ExitCode, String> {
    let mut files = Vec::new();
    let mut benchmark = PathBuf::from("BENCHMARK.json");
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--benchmark" {
            benchmark = it.next().ok_or("--benchmark needs a path")?.into();
        } else {
            files.push(PathBuf::from(arg));
        }
    }
    let [a, b] = files.as_slice() else {
        return Err("compare takes exactly two run-set files".into());
    };
    let load = |path: &PathBuf| -> Result<Json, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    };
    let rows = report::compare(&load(a)?, &load(b)?, &load(&benchmark)?)?;
    print!("{}", report::compare_table(&rows));
    let bad = rows.iter().filter(|r| r.status != "ok").count();
    println!("{} rows, {bad} regressed or unresolved", rows.len());
    Ok(if bad == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => parse_run(&args[1..]).and_then(|run| match Kind::from_name(&run.workload) {
            Some(kind) if run.repeat == 1 => Ok(run_one(&run, kind)),
            _ => run_set(&run),
        }),
        Some("compare") => compare(&args[1..]),
        _ => Err("expected `run` or `compare`".into()),
    };
    outcome.unwrap_or_else(|why| {
        eprintln!("diffuse-bench: {why}\n\n{USAGE}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Inputs;

    fn args(text: &str) -> Vec<String> {
        text.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn run_arguments_are_validated_where_they_enter() {
        let ok = parse_run(&args(
            "--workload cg_small --seed 7 --seconds 2.5 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (
                ok.workload.as_str(),
                ok.seed,
                ok.seconds,
                ok.trace,
                ok.repeat
            ),
            ("cg_small", 7, 2.5, true, 1)
        );
        assert!(parse_run(&args("--workload all --seed 1 --repeat 5")).is_ok());
        for bad in [
            "--workload nope --seed 1",
            "--workload cg_small",
            "--workload cg_small --seed -1",
            "--workload cg_small --seed 1 --trace 2",
            "--workload cg_small --seed 1 --seconds 0",
            "--workload cg_small --seed 1 --repeat 0",
            "--workload cg_small --seed 1 --bogus",
            "--workload cg_small --seed",
        ] {
            assert!(parse_run(&args(bad)).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn the_same_seed_gives_byte_identical_inputs() {
        let bytes = |kind, seed| format!("{:?}", Inputs::generate(kind, Sizes::smoke(), seed));
        for kind in Kind::ALL {
            assert_eq!(bytes(kind, 5), bytes(kind, 5), "{}", kind.name());
            assert_ne!(bytes(kind, 5), bytes(kind, 6), "{}", kind.name());
        }
    }

    /// The contract file at the repository root, as the driver reads it.
    fn contract_names(list: &str) -> Vec<String> {
        let contract =
            Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let entries = contract
            .get(list)
            .and_then(Json::as_arr)
            .expect("list present");
        entries
            .iter()
            .map(|e| {
                e.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect()
    }

    /// Every workload at 1/64 size end to end, and one of them traced: each
    /// op checked against its reference, none failing, every self-check
    /// holding, and exactly the metrics `BENCHMARK.json` declares, in its
    /// order.
    #[test]
    fn smoke_pass_over_all_workloads() {
        assert_eq!(
            contract_names("workloads"),
            Kind::ALL.map(|k| k.name().to_string())
        );
        let spec = |kind| RunSpec {
            kind,
            sizes: Sizes::smoke(),
            seed: 42,
            seconds: 0.05,
        };
        let mut results: Vec<_> = Kind::ALL
            .into_iter()
            .map(|kind| (run::end_to_end(spec(kind)), "end_to_end"))
            .collect();
        results.push((run::per_layer(spec(Kind::BsStream), None), "per_layer"));
        for (result, list) in results {
            let context = format!("{list}: {}", report::table(&result));
            assert!(result.tally.attempted >= 1 && result.correct(), "{context}");
            let names: Vec<&str> = result.metrics.iter().map(|m| m.name).collect();
            assert_eq!(names, contract_names(list), "{context}");
            assert!(
                result.metrics.iter().all(|m| m.value.is_finite()),
                "{context}"
            );
            assert!(
                list == "per_layer" || result.metrics.iter().all(|m| m.value > 0.0),
                "{context}"
            );
        }
    }
}
