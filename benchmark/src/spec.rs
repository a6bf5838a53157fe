//! `BENCHMARK.json` as this program reads it: the run length, the
//! bound of each end-to-end metric, and the metric lists that
//! [`crate::metrics`] must agree with.

use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
use crate::util::field;
use crate::workloads::NAMES;
use serde::Value;
use std::path::Path;

const DEFAULT_RUN_SECONDS: u64 = 10;
const DEFAULT_BOUND: f64 = 0.10;

#[derive(Debug, Default)]
pub struct Spec {
    root: Option<Value>,
}

/// `BENCHMARK.json` sits beside the benchmark's directory. A missing or
/// unreadable file gives the defaults (and fails `--quick`).
pub fn load(bench_dir: &Path) -> Spec {
    let path = bench_dir.join("..").join("BENCHMARK.json");
    Spec {
        root: std::fs::read_to_string(path)
            .ok()
            .and_then(|text| serde_json::from_str_value(&text).ok()),
    }
}

impl Spec {
    fn list(&self, key: &str) -> &[Value] {
        self.root
            .as_ref()
            .and_then(|r| field(r, key))
            .and_then(Value::as_array)
            .map_or(&[], Vec::as_slice)
    }

    pub fn run_seconds(&self) -> u64 {
        self.root
            .as_ref()
            .and_then(|r| field(r, "run_seconds"))
            .and_then(Value::as_u64)
            .unwrap_or(DEFAULT_RUN_SECONDS)
    }

    /// Share of the reference median by which `metric` may worsen.
    pub fn bound(&self, metric: &str) -> f64 {
        self.list("end_to_end")
            .iter()
            .find(|m| field(m, "name").and_then(Value::as_str) == Some(metric))
            .and_then(|m| field(m, "bound"))
            .and_then(Value::as_f64)
            .unwrap_or(DEFAULT_BOUND)
    }

    /// Every way the file and this program's vocabulary disagree.
    pub fn drift(&self) -> Vec<String> {
        if self.root.is_none() {
            return vec!["BENCHMARK.json is missing or not JSON".to_string()];
        }
        let mut problems = Vec::new();
        let mut compare = |key: &str, ours: &[MetricDef]| {
            let theirs: Vec<(String, String, String)> = self
                .list(key)
                .iter()
                .map(|m| {
                    let s = |k| {
                        field(m, k)
                            .and_then(Value::as_str)
                            .unwrap_or("")
                            .to_string()
                    };
                    (s("name"), s("unit"), s("better"))
                })
                .collect();
            let ours: Vec<(String, String, String)> = ours
                .iter()
                .map(|&(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
                .collect();
            for m in &ours {
                if !theirs.contains(m) {
                    problems.push(format!("{key}: {m:?} is measured but not listed"));
                }
            }
            for m in &theirs {
                if !ours.contains(m) {
                    problems.push(format!("{key}: {m:?} is listed but not measured"));
                }
            }
        };
        compare("end_to_end", END_TO_END);
        compare("per_layer", PER_LAYER);
        let listed: Vec<&str> = self
            .list("workloads")
            .iter()
            .filter_map(|w| field(w, "name").and_then(Value::as_str))
            .collect();
        if listed != NAMES {
            problems.push(format!("workloads: listed {listed:?}, measured {NAMES:?}"));
        }
        problems
    }
}
