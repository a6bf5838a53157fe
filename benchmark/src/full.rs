//! A full run: every workload × `reps` child processes with tracing off,
//! plus one traced child per workload, aggregated into
//! `benchmark/out/latest.json`. End-to-end numbers come only from the
//! untraced children.

use crate::metrics::{END_TO_END, PER_LAYER};
use crate::util::{at, field, median, quartiles};
use crate::workloads::{Scale, Workload, NAMES};
use crate::{spec, with_workload};
use serde::Value;
use std::path::Path;
use std::process::Command;

pub struct FullRun<'a> {
    pub bench_dir: &'a Path,
    pub only: Option<&'a str>,
    pub seed: u64,
    pub reps: u32,
    pub seconds: u64,
    pub traced: bool,
}

/// The two lines a child prints for its parent.
struct Child {
    result: Value,
    detail: Value,
}

fn text(v: &Value, key: &str) -> String {
    field(v, key)
        .and_then(Value::as_str)
        .unwrap_or("")
        .to_string()
}

fn number(v: &Value, key: &str) -> f64 {
    field(v, key).and_then(Value::as_f64).unwrap_or(0.0)
}

fn metric_value(result: &Value, name: &str) -> Option<f64> {
    at(result, &["metrics", name, "value"])?.as_f64()
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

impl FullRun<'_> {
    fn child(&self, workload: &str, trace: bool) -> Result<Child, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let output = Command::new(exe)
            .arg("--bench-dir")
            .arg(self.bench_dir)
            .args(["--workload", workload])
            .args(["--seed", &self.seed.to_string()])
            .args(["--seconds", &self.seconds.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }])
            .output()
            .map_err(|e| format!("cannot start a child process: {e}"))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        if !output.status.success() {
            return Err(format!(
                "{workload}: child exited with {}\n{stdout}{}",
                output.status,
                String::from_utf8_lossy(&output.stderr)
            ));
        }
        let parse = |line: Option<&str>| {
            line.and_then(|l| serde_json::from_str_value(l).ok())
                .ok_or_else(|| format!("{workload}: child printed no result\n{stdout}"))
        };
        Ok(Child {
            result: parse(stdout.lines().last())?,
            detail: parse(
                stdout
                    .lines()
                    .find_map(|l| l.strip_prefix(crate::DETAIL_PREFIX)),
            )?,
        })
    }

    /// Measure one workload, print its table, and return its entry for
    /// `latest.json` with whether it was correct and every digest agreed.
    fn workload(&self, name: &str, spec: &spec::Spec) -> Result<(Value, bool), String> {
        eprintln!(
            "== {name}: {} untraced reps of {} s",
            self.reps, self.seconds
        );
        let mut reps = Vec::new();
        for rep in 0..self.reps {
            let child = self.child(name, false)?;
            eprintln!(
                "   rep {rep}: wall_s {:.4}  iterations {}  digest {}",
                metric_value(&child.result, "wall_s").unwrap_or(0.0),
                number(&child.detail, "iterations"),
                text(&child.detail, "sim_digest"),
            );
            reps.push(child);
        }
        let traced = if self.traced {
            eprintln!("   traced run");
            Some(self.child(name, true)?)
        } else {
            None
        };

        let first = &reps[0];
        let digest = text(&first.detail, "sim_digest");
        let digests_equal = reps
            .iter()
            .chain(&traced)
            .all(|c| text(&c.detail, "sim_digest") == digest);
        let correct = reps
            .iter()
            .chain(&traced)
            .all(|c| field(&c.result, "correct").and_then(Value::as_bool) == Some(true));
        let attempted: f64 = reps.iter().map(|c| number(&c.result, "attempted")).sum();
        let failed: f64 = reps.iter().map(|c| number(&c.result, "failed")).sum();

        println!();
        println!(
            "{name}  ({} reps, seed {}, digest {digest}{})",
            self.reps,
            self.seed,
            if digests_equal {
                ""
            } else {
                " ** DIGESTS DIFFER **"
            }
        );
        let mut end_to_end = Vec::new();
        for &(metric, unit, better) in END_TO_END {
            let values: Vec<f64> = reps
                .iter()
                .filter_map(|c| metric_value(&c.result, metric))
                .collect();
            let (q1, q3) = quartiles(&values);
            let med = median(&values);
            println!(
                "  {metric:<12} median {med:>14.6} {unit:<4} q1 {q1:.6} q3 {q3:.6}  spread {:.2} % of median, bound {:.0} %  ({better} is better, n = {})",
                (q3 - q1) / med * 100.0,
                spec.bound(metric) * 100.0,
                values.len()
            );
            end_to_end.push((
                metric.to_string(),
                Value::Object(vec![
                    ("unit".into(), Value::Str(unit.into())),
                    ("better".into(), Value::Str(better.into())),
                    ("median".into(), Value::F64(med)),
                    ("q1".into(), Value::F64(q1)),
                    ("q3".into(), Value::F64(q3)),
                    (
                        "values".into(),
                        Value::Array(values.into_iter().map(Value::F64).collect()),
                    ),
                ]),
            ));
        }
        println!(
            "  failed_share {} ({failed} failed / {attempted} attempted)",
            failed / attempted.max(1.0)
        );
        let mut per_layer = Vec::new();
        let mut overhead = Value::Null;
        if let Some(t) = &traced {
            let unmeasured: Vec<&str> = field(&t.detail, "unmeasured")
                .and_then(Value::as_array)
                .map(|a| a.iter().filter_map(Value::as_str).collect())
                .unwrap_or_default();
            for &(metric, unit, _) in PER_LAYER {
                if unmeasured.contains(&metric) {
                    continue;
                }
                let Some(v) = metric_value(&t.result, metric) else {
                    continue;
                };
                println!("  {metric:<40} {v:>16.6} {unit}");
                if metric == "bench.trace_overhead_share" {
                    overhead = Value::F64(v);
                }
                per_layer.push((
                    metric.to_string(),
                    Value::Object(vec![
                        ("value".into(), Value::F64(v)),
                        ("unit".into(), Value::Str(unit.into())),
                    ]),
                ));
            }
        }
        let params = with_workload!(name, W => serde::value::to_value(&W::params(Scale::Full)))
            .expect("NAMES lists known workloads");
        Ok((
            Value::Object(vec![
                ("params".into(), params),
                ("work".into(), Value::F64(number(&first.detail, "work"))),
                ("sim_digest".into(), Value::Str(digest)),
                ("digests_equal".into(), Value::Bool(digests_equal)),
                ("correct".into(), Value::Bool(correct)),
                ("attempted".into(), Value::F64(attempted)),
                ("failed".into(), Value::F64(failed)),
                (
                    "failed_share".into(),
                    Value::F64(failed / attempted.max(1.0)),
                ),
                ("trace_overhead_share".into(), overhead),
                (
                    "iterations_per_rep".into(),
                    Value::Array(
                        reps.iter()
                            .map(|c| Value::F64(number(&c.detail, "iterations")))
                            .collect(),
                    ),
                ),
                ("end_to_end".into(), Value::Object(end_to_end)),
                ("per_layer".into(), Value::Object(per_layer)),
            ]),
            digests_equal && correct,
        ))
    }

    /// Run everything; `Ok(true)` when every workload was correct and
    /// every digest agreed.
    pub fn run(&self) -> Result<bool, String> {
        let spec = spec::load(self.bench_dir);
        let threads = salamander_exec::Threads::Auto.resolve();
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let mut all_good = true;
        let mut workloads = Vec::new();
        for name in NAMES {
            if self.only.is_none_or(|only| only == name) {
                let (entry, good) = self.workload(name, &spec)?;
                workloads.push((name.to_string(), entry));
                all_good &= good;
            }
        }

        let environment = Value::Object(vec![
            (
                "commit".into(),
                Value::Str(command_line("git", &["rev-parse", "HEAD"])),
            ),
            ("rustc".into(), Value::Str(command_line("rustc", &["-V"]))),
            ("nproc".into(), Value::U64(nproc as u64)),
            ("threads".into(), Value::U64(threads as u64)),
            (
                "scaling".into(),
                Value::Str(
                    if threads > 1 {
                        "measured"
                    } else {
                        "unmeasured"
                    }
                    .into(),
                ),
            ),
            ("seed".into(), Value::U64(self.seed)),
            ("reps".into(), Value::U64(u64::from(self.reps))),
            ("run_seconds".into(), Value::U64(self.seconds)),
            ("traced_run".into(), Value::Bool(self.traced)),
        ]);
        let latest = Value::Object(vec![
            ("environment".into(), environment),
            ("workloads".into(), Value::Object(workloads)),
        ]);
        let out_dir = self.bench_dir.join("out");
        std::fs::create_dir_all(&out_dir).map_err(|e| e.to_string())?;
        let path = out_dir.join("latest.json");
        let json = serde_json::to_string_pretty(&latest).map_err(|e| e.to_string())?;
        std::fs::write(&path, json).map_err(|e| format!("{}: {e}", path.display()))?;
        println!();
        println!("wrote {}", path.display());
        Ok(all_good)
    }
}
