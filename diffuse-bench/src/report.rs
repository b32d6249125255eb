//! Output formats, run-sets (`--repeat`, `--workload all`) and `compare`.

use std::process::Command;

use crate::json::Json;
use crate::run::{Metric, RunResult};
use crate::stats::{iqr_share, median, quartiles};

/// The result line of one run, in the pipeline contract's format: exactly
/// the keys `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(result: &RunResult) -> Json {
    let metrics = result
        .metrics
        .iter()
        .map(|m| {
            (
                m.name.to_string(),
                Json::obj(vec![
                    ("value", Json::Num(m.value)),
                    ("unit", Json::Str(m.unit.into())),
                ]),
            )
        })
        .collect();
    Json::obj(vec![
        ("correct", Json::Bool(result.correct())),
        ("attempted", Json::Num(result.tally.attempted as f64)),
        ("failed", Json::Num(result.tally.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
}

/// The human table, for stderr.
pub fn table(result: &RunResult) -> String {
    let mut out = format!("{}\n", result.kind.name());
    for Metric {
        name,
        value,
        unit,
        samples,
    } in &result.metrics
    {
        out += &format!("  {name:<34} {value:>16.6} {unit:<8} n={samples}\n");
    }
    let failed_share = result.tally.failed as f64 / result.tally.attempted.max(1) as f64;
    out += &format!(
        "  ops_attempted {}  ops_failed {}  failed_share {failed_share}\n",
        result.tally.attempted, result.tally.failed
    );
    for note in &result.notes {
        out += &format!("  {note}\n");
    }
    for v in &result.violations {
        out += &format!("  SELF-CHECK FAILED: {v}\n");
    }
    if let Some(why) = &result.tally.first_failure {
        out += &format!("  first failure: {why}\n");
    }
    out
}

/// Runs this executable again as `run <args>` and parses the result line.
/// One child per run keeps `peak_rss_mb` per workload and per repetition.
///
/// # Errors
///
/// The child could not be started, exited unsuccessfully, or printed no
/// parsable result line.
pub fn run_child(args: &[String]) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let output = Command::new(exe)
        .arg("run")
        .args(args)
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start child run: {e}"))?;
    if !output.status.success() {
        return Err(format!("child run {args:?} exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("child run printed nothing")?;
    Json::parse(line)
}

/// Folds the result lines of `repeat` runs of one workload into one record:
/// every metric with its values, median and quartiles.
pub fn fold_runs(lines: &[Json]) -> Json {
    let num = |line: &Json, key: &str| line.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    let mut names: Vec<(String, String)> = Vec::new();
    for line in lines {
        for (name, m) in line.get("metrics").and_then(Json::as_obj).unwrap_or(&[]) {
            if !names.iter().any(|(n, _)| n == name) {
                names.push((
                    name.clone(),
                    m.get("unit")
                        .and_then(Json::as_str)
                        .unwrap_or("")
                        .to_string(),
                ));
            }
        }
    }
    let metrics = names
        .into_iter()
        .map(|(name, unit)| {
            let values: Vec<f64> = lines
                .iter()
                .filter_map(|l| l.get("metrics")?.get(&name)?.get("value")?.as_f64())
                .collect();
            let mut fields = vec![
                ("unit", Json::Str(unit)),
                (
                    "values",
                    Json::Arr(values.iter().map(|&v| Json::Num(v)).collect()),
                ),
                ("median", Json::Num(median(&values))),
            ];
            if values.len() >= 2 {
                let [q1, _, q3] = quartiles(&values);
                fields.push(("q1", Json::Num(q1)));
                fields.push(("q3", Json::Num(q3)));
            }
            (name, Json::obj(fields))
        })
        .collect();
    Json::obj(vec![
        (
            "correct",
            Json::Bool(
                lines
                    .iter()
                    .all(|l| l.get("correct").and_then(Json::as_bool) == Some(true)),
            ),
        ),
        (
            "attempted",
            Json::Num(lines.iter().map(|l| num(l, "attempted")).sum()),
        ),
        (
            "failed",
            Json::Num(lines.iter().map(|l| num(l, "failed")).sum()),
        ),
        ("metrics", Json::Obj(metrics)),
    ])
}

/// One row of `compare`.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: f64,
    pub b: f64,
    /// How much worse `b` is than `a`, as a share of `a` (negative: better).
    pub worse_by: f64,
    /// The wider of the two sets' quartile distances, as a share of the median.
    pub spread: f64,
    pub bound: f64,
    pub status: &'static str,
}

/// Compares two run-set files, `a` (parent) against `b` (change), on every
/// workload × end-to-end metric of `BENCHMARK.json`. A row is `regressed`
/// if `b`'s median is worse than `a`'s by more than the metric's bound,
/// `unresolved` if either set's spread is wider than the bound (the runs
/// cannot tell), else `ok`.
///
/// # Errors
///
/// A file lacks a workload or metric the other has, or is malformed.
pub fn compare(a: &Json, b: &Json, benchmark: &Json) -> Result<Vec<Row>, String> {
    let workloads = |set: &Json| {
        set.get("workloads")
            .and_then(Json::as_obj)
            .map(<[_]>::to_vec)
            .ok_or("no \"workloads\" object")
    };
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    let end_to_end = benchmark
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    let mut rows = Vec::new();
    for (workload, record_a) in &wa {
        let record_b = &wb
            .iter()
            .find(|(w, _)| w == workload)
            .ok_or(format!("second file lacks workload {workload}"))?
            .1;
        for spec in end_to_end {
            let field = |key: &str| {
                spec.get(key)
                    .and_then(Json::as_str)
                    .ok_or(format!("end_to_end entry lacks {key}"))
            };
            let (metric, better) = (field("name")?, field("better")?);
            let bound = spec
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("end_to_end entry lacks bound")?;
            let values = |record: &Json| -> Result<Vec<f64>, String> {
                let values = record
                    .get("metrics")
                    .and_then(|m| m.get(metric))
                    .and_then(|m| m.get("values"));
                let values: Vec<f64> = values
                    .and_then(Json::as_arr)
                    .unwrap_or(&[])
                    .iter()
                    .filter_map(Json::as_f64)
                    .collect();
                if values.is_empty() {
                    Err(format!("{workload} has no values for {metric}"))
                } else {
                    Ok(values)
                }
            };
            let (va, vb) = (values(record_a)?, values(record_b)?);
            let (ma, mb) = (median(&va), median(&vb));
            let worse_by = if ma == 0.0 {
                0.0
            } else if better == "higher" {
                (ma - mb) / ma.abs()
            } else {
                (mb - ma) / ma.abs()
            };
            let spread_of = |v: &[f64]| if v.len() >= 2 { iqr_share(v) } else { 0.0 };
            let spread = spread_of(&va).max(spread_of(&vb));
            let status = if worse_by > bound {
                "regressed"
            } else if spread > bound {
                "unresolved"
            } else {
                "ok"
            };
            rows.push(Row {
                workload: workload.clone(),
                metric: metric.into(),
                a: ma,
                b: mb,
                worse_by,
                spread,
                bound,
                status,
            });
        }
        let failed = |r: &Json| r.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
        if failed(record_b) > failed(record_a) {
            rows.push(Row {
                workload: workload.clone(),
                metric: "ops_failed".into(),
                a: failed(record_a),
                b: failed(record_b),
                worse_by: f64::INFINITY,
                spread: 0.0,
                bound: 0.0,
                status: "regressed",
            });
        }
    }
    Ok(rows)
}

pub fn compare_table(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<14} {:<14} {:>14} {:>14} {:>9} {:>8} {:>7}  status\n",
        "workload", "metric", "a (median)", "b (median)", "worse by", "spread", "bound"
    );
    for r in rows {
        out += &format!(
            "{:<14} {:<14} {:>14.6} {:>14.6} {:>8.2}% {:>7.2}% {:>6.1}%  {}\n",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.worse_by * 100.0,
            r.spread * 100.0,
            r.bound * 100.0,
            r.status
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Tally;
    use crate::workloads::Kind;

    fn result(op_ms: f64) -> RunResult {
        RunResult {
            kind: Kind::CgSmall,
            tally: Tally {
                attempted: 10,
                failed: 0,
                first_failure: None,
            },
            metrics: vec![
                Metric::new("op_ms_p50", op_ms, "ms", 10),
                Metric::new("tasks_per_s", 1e4 / op_ms, "tasks/s", 10),
            ],
            violations: Vec::new(),
            notes: Vec::new(),
        }
    }

    fn run_set(op_ms: &[f64]) -> Json {
        // Through the printed line and back, as a child run's output travels.
        let lines: Vec<Json> = op_ms
            .iter()
            .map(|&ms| Json::parse(&result_line(&result(ms)).render()).unwrap())
            .collect();
        Json::obj(vec![(
            "workloads",
            Json::obj(vec![("cg_small", fold_runs(&lines))]),
        )])
    }

    fn benchmark() -> Json {
        Json::parse(
            r#"{"end_to_end": [
                {"name": "op_ms_p50", "unit": "ms", "better": "lower", "bound": 0.1},
                {"name": "tasks_per_s", "unit": "tasks/s", "better": "higher", "bound": 0.1}]}"#,
        )
        .unwrap()
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(&result(1.5));
        let keys: Vec<&str> = line
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        let m = line.get("metrics").unwrap().get("op_ms_p50").unwrap();
        assert_eq!(
            (
                m.get("value").unwrap().as_f64(),
                m.get("unit").unwrap().as_str()
            ),
            (Some(1.5), Some("ms"))
        );
        let mut failing = result(1.5);
        failing.tally.failed = 1;
        assert_eq!(
            result_line(&failing).get("correct"),
            Some(&Json::Bool(false))
        );
    }

    #[test]
    fn schema_round_trips_through_compare() {
        let a = run_set(&[10.0, 10.1, 9.9, 10.05, 9.95]);
        let folded = a
            .get("workloads")
            .unwrap()
            .get("cg_small")
            .unwrap()
            .get("metrics")
            .unwrap()
            .get("op_ms_p50")
            .unwrap();
        assert_eq!(folded.get("median").unwrap().as_f64(), Some(10.0));
        assert_eq!(folded.get("values").unwrap().as_arr().unwrap().len(), 5);

        let same = compare(&a, &run_set(&[10.2, 10.1, 10.0, 10.3, 10.15]), &benchmark()).unwrap();
        assert!(same.iter().all(|r| r.status == "ok"), "{same:?}");

        let slower = compare(
            &a,
            &run_set(&[12.0, 12.1, 11.9, 12.05, 11.95]),
            &benchmark(),
        )
        .unwrap();
        assert_eq!(
            slower.iter().map(|r| r.status).collect::<Vec<_>>(),
            ["regressed", "regressed"]
        );
        assert!((slower[0].worse_by - 0.2).abs() < 1e-9);

        let faster = compare(&a, &run_set(&[8.0, 8.1, 7.9, 8.05, 7.95]), &benchmark()).unwrap();
        assert!(faster.iter().all(|r| r.status == "ok" && r.worse_by < 0.0));

        let noisy = compare(&a, &run_set(&[8.0, 12.0, 10.0, 9.0, 11.0]), &benchmark()).unwrap();
        assert_eq!(noisy[0].status, "unresolved");

        assert!(compare(
            &a,
            &Json::obj(vec![("workloads", Json::Obj(vec![]))]),
            &benchmark()
        )
        .is_err());
        assert!(compare_table(&slower).contains("regressed"));
    }
}
