//! `ringbench compare BASE NEW`: the regression gate.
//!
//! Both files hold result records (one JSON object per line, as
//! `--out` appends them). For every workload and end-to-end metric the
//! gate compares the medians of the two sides against the metric's
//! bound in `BENCHMARK.json`: the share of the base median by which it
//! may get worse. A metric whose run-to-run spread (interquartile range
//! over median) exceeds its bound on either side is unresolved, unless
//! every new run beats every base run. The gate fails on any `worse`
//! verdict and on any failed or incorrect new run.

use crate::json::Json;
use crate::stats::quartiles;

/// A declared end-to-end metric with its direction and bound.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub higher_is_better: bool,
    pub bound: f64,
}

/// The end-to-end bounds `BENCHMARK.json` declares.
pub fn bounds(bench: &Json) -> Result<Vec<Bound>, String> {
    bench
        .get("end_to_end")
        .map(Json::as_array)
        .unwrap_or_default()
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str);
            let better = m.get("better").and_then(Json::as_str);
            let bound = m.get("bound").and_then(Json::as_f64);
            match (name, better, bound) {
                (Some(n), Some(b @ ("higher" | "lower")), Some(x)) => Ok(Bound {
                    name: n.to_string(),
                    higher_is_better: b == "higher",
                    bound: x,
                }),
                _ => Err(format!("malformed end_to_end entry: {m:?}")),
            }
        })
        .collect()
}

/// One run's result as `--out` records it.
#[derive(Debug, Clone)]
pub struct Record {
    pub workload: String,
    pub traced: bool,
    pub ok: bool,
    pub metrics: Vec<(String, f64)>,
}

impl Record {
    pub fn parse(line: &str) -> Result<Record, String> {
        let v = Json::parse(line)?;
        let workload = v
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("record has no workload")?
            .to_string();
        let failed = v.get("failed").and_then(Json::as_f64).unwrap_or(1.0);
        let correct = v.get("correct").and_then(Json::as_bool).unwrap_or(false);
        let metrics = v
            .get("metrics")
            .map(Json::as_object)
            .unwrap_or_default()
            .iter()
            .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?)))
            .collect();
        Ok(Record {
            workload,
            traced: v.get("trace").and_then(Json::as_f64) == Some(1.0),
            ok: correct && failed == 0.0,
            metrics,
        })
    }

    fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(k, _)| k == name)
            .map(|&(_, v)| v)
    }
}

/// Reads every record of a JSONL file.
pub fn load(path: &str) -> Result<Vec<Record>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, l)| Record::parse(l).map_err(|e| format!("{path} record {}: {e}", i + 1)))
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

/// One workload × metric comparison.
#[derive(Debug, Clone)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub base: (f64, f64, f64),
    pub new: (f64, f64, f64),
    /// Signed change of the median, positive when the new side is worse.
    pub worse_by: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

fn verdict(b: &Bound, base: &[f64], new: &[f64]) -> (f64, Verdict) {
    let (bq, nq) = (quartiles(base), quartiles(new));
    let rel = (nq.1 - bq.1) / bq.1.abs();
    let worse_by = if b.higher_is_better { -rel } else { rel };
    let spread = |q: (f64, f64, f64)| (q.2 - q.0) / q.1.abs();
    let beats = |x: f64, y: f64| if b.higher_is_better { x > y } else { x < y };
    let all_better = new.iter().all(|&n| base.iter().all(|&o| beats(n, o)));
    let v = if spread(bq) > b.bound || spread(nq) > b.bound {
        if all_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > b.bound {
        Verdict::Worse
    } else if -worse_by > b.bound {
        Verdict::Better
    } else {
        Verdict::Same
    };
    (worse_by, v)
}

/// Compares the untraced records of `new` against `base`, workload by
/// workload, for every bounded metric both sides report.
pub fn rows(bounds: &[Bound], base: &[Record], new: &[Record]) -> Vec<Row> {
    let mut workloads: Vec<&str> = Vec::new();
    for r in base.iter().chain(new) {
        if !workloads.contains(&r.workload.as_str()) {
            workloads.push(&r.workload);
        }
    }
    let mut out = Vec::new();
    for w in workloads {
        let side = |recs: &[Record], m: &str| -> Vec<f64> {
            recs.iter()
                .filter(|r| r.workload == w && !r.traced)
                .filter_map(|r| r.metric(m))
                .collect()
        };
        for b in bounds {
            let (bv, nv) = (side(base, &b.name), side(new, &b.name));
            if bv.is_empty() || nv.is_empty() {
                continue;
            }
            let (worse_by, verdict) = verdict(b, &bv, &nv);
            out.push(Row {
                workload: w.to_string(),
                metric: b.name.clone(),
                base: quartiles(&bv),
                new: quartiles(&nv),
                worse_by,
                bound: b.bound,
                verdict,
            });
        }
    }
    out
}

/// Prints the comparison; `Ok(true)` when the gate passes.
pub fn run(base_path: &str, new_path: &str, bench_path: &str) -> Result<bool, String> {
    let bench_text =
        std::fs::read_to_string(bench_path).map_err(|e| format!("{bench_path}: {e}"))?;
    let bounds = bounds(&Json::parse(&bench_text).map_err(|e| format!("{bench_path}: {e}"))?)?;
    let (base, new) = (load(base_path)?, load(new_path)?);
    let rows = rows(&bounds, &base, &new);
    println!(
        "{:<8} {:<20} {:>34} {:>34} {:>8} {:>6}  verdict",
        "workload", "metric", "base median [q1, q3]", "new median [q1, q3]", "worse", "bound"
    );
    let fmt = |q: (f64, f64, f64)| format!("{:.5e} [{:.4e}, {:.4e}]", q.1, q.0, q.2);
    for r in &rows {
        println!(
            "{:<8} {:<20} {:>34} {:>34} {:>7.2}% {:>5.1}%  {:?}",
            r.workload,
            r.metric,
            fmt(r.base),
            fmt(r.new),
            r.worse_by * 100.0,
            r.bound * 100.0,
            r.verdict
        );
    }
    let failed_new = new.iter().filter(|r| !r.ok).count();
    let worse = rows.iter().filter(|r| r.verdict == Verdict::Worse).count();
    println!(
        "{} rows, {worse} worse, {} unresolved; failed runs: base {}, new {failed_new}",
        rows.len(),
        rows.iter()
            .filter(|r| r.verdict == Verdict::Unresolved)
            .count(),
        base.iter().filter(|r| !r.ok).count(),
    );
    Ok(worse == 0 && failed_new == 0 && !rows.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(workload: &str, ok: bool, metrics: &[(&str, f64)]) -> Record {
        Record {
            workload: workload.into(),
            traced: false,
            ok,
            metrics: metrics.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
        }
    }

    fn side(scale: f64) -> Vec<Record> {
        // Two percent of run-to-run spread around the median.
        [0.99, 1.0, 1.01, 0.995, 1.005, 1.0]
            .iter()
            .map(|j| {
                record(
                    "ring64",
                    true,
                    &[("events_per_s", 3.0e6 * scale * j), ("setup_s", 0.06 * j)],
                )
            })
            .collect()
    }

    fn bench_bounds() -> Vec<Bound> {
        let text = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../../../../BENCHMARK.json"
        ))
        .expect("BENCHMARK.json at the repository root");
        bounds(&Json::parse(&text).expect("BENCHMARK.json parses")).expect("bounds are well formed")
    }

    #[test]
    fn a_thirty_percent_slowdown_is_worse() {
        let rows = rows(&bench_bounds(), &side(1.0), &side(0.7));
        let eps = rows.iter().find(|r| r.metric == "events_per_s").unwrap();
        assert_eq!(eps.verdict, Verdict::Worse);
        assert!((eps.worse_by - 0.3).abs() < 1e-9);
        let setup = rows.iter().find(|r| r.metric == "setup_s").unwrap();
        assert_eq!(setup.verdict, Verdict::Same);
    }

    #[test]
    fn a_run_against_itself_is_the_same_and_a_speedup_is_better() {
        let rows_same = rows(&bench_bounds(), &side(1.0), &side(1.0));
        assert!(rows_same.iter().all(|r| r.verdict == Verdict::Same));
        let faster = rows(&bench_bounds(), &side(1.0), &side(1.5));
        let eps = faster.iter().find(|r| r.metric == "events_per_s").unwrap();
        assert_eq!(eps.verdict, Verdict::Better);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let b = Bound {
            name: "events_per_s".into(),
            higher_is_better: true,
            bound: 0.05,
        };
        let noisy = [0.6, 1.4, 0.8, 1.2, 1.0];
        let (_, v) = verdict(&b, &noisy, &noisy.map(|x| x * 0.9));
        assert_eq!(v, Verdict::Unresolved);
        let (_, v) = verdict(&b, &noisy, &noisy.map(|x| x * 10.0));
        assert_eq!(v, Verdict::Better);
    }

    #[test]
    fn failed_new_runs_fail_the_gate() {
        let dir = std::env::temp_dir().join(format!("ringbench-compare-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let line = |failed: u32| {
            format!(
                "{{\"workload\": \"ring64\", \"seed\": 1, \"trace\": 0, \"stamp\": {{}}, \
                 \"correct\": {}, \"attempted\": 3, \"failed\": {failed}, \
                 \"metrics\": {{\"setup_s\": {{\"value\": 0.06, \"unit\": \"s\"}}}}}}\n",
                failed == 0
            )
        };
        let (good, bad) = (dir.join("good.jsonl"), dir.join("bad.jsonl"));
        std::fs::write(&good, line(0).repeat(3)).unwrap();
        std::fs::write(&bad, line(0) + &line(1) + &line(0)).unwrap();
        let bench = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let s = |p: &std::path::Path| p.to_string_lossy().into_owned();
        assert_eq!(run(&s(&good), &s(&good), bench), Ok(true));
        assert_eq!(run(&s(&good), &s(&bad), bench), Ok(false));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
