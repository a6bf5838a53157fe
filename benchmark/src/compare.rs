//! `compare <a.json> <b.json>`: apply the bounds of `BENCHMARK.json` to
//! two result files of full runs, `a` the reference and `b` the
//! candidate. Per workload × end-to-end metric the verdict is
//!
//! - `worse` — b's median is worse than a's by more than the bound;
//! - `better` — better by more than the bound;
//! - `unresolved` — either side's interquartile spread is wider than
//!   the bound, unless every run of one side beats every run of the
//!   other, which settles it;
//! - `same` — otherwise.
//!
//! Exit is non-zero on any `worse`, on any digest or exact-count
//! difference, and on a higher `failed_share`.

use crate::metrics::{is_exact, END_TO_END, HIGHER, PER_LAYER};
use crate::spec;
use crate::util::{at, field, median, quartiles};
use serde::Value;
use std::path::Path;

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str_value(&text).map_err(|e| format!("{path}: {e}"))
}

fn values(workload: &Value, metric: &str) -> Vec<f64> {
    at(workload, &["end_to_end", metric, "values"])
        .and_then(Value::as_array)
        .map(|a| a.iter().filter_map(Value::as_f64).collect())
        .unwrap_or_default()
}

fn layer_value(workload: &Value, metric: &str) -> Option<f64> {
    at(workload, &["per_layer", metric, "value"])?.as_f64()
}

/// Verdict on one metric; `a` and `b` hold one value per rep.
pub fn verdict(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> &'static str {
    if a.is_empty() || b.is_empty() {
        return "unresolved";
    }
    let sign = if higher_is_better { -1.0 } else { 1.0 };
    let (ma, mb) = (median(a), median(b));
    // Positive = b is worse, as a share of a's median.
    let change = sign * (mb - ma) / ma;
    let spread = |v: &[f64]| {
        let (q1, q3) = quartiles(v);
        (q3 - q1) / median(v)
    };
    if spread(a).max(spread(b)) > bound {
        let worst = |v: &[f64]| v.iter().map(|x| sign * x).fold(f64::MIN, f64::max);
        let best = |v: &[f64]| v.iter().map(|x| sign * x).fold(f64::MAX, f64::min);
        return if worst(b) < best(a) && change < -bound {
            "better"
        } else if best(b) > worst(a) && change > bound {
            "worse"
        } else {
            "unresolved"
        };
    }
    if change > bound {
        "worse"
    } else if change < -bound {
        "better"
    } else {
        "same"
    }
}

/// Print the comparison; `Ok(true)` when nothing is worse or different.
pub fn compare(bench_dir: &Path, a_path: &str, b_path: &str) -> Result<bool, String> {
    let spec = spec::load(bench_dir);
    let (a, b) = (load(a_path)?, load(b_path)?);
    let workloads = |v: &Value| field(v, "workloads").and_then(Value::as_object).cloned();
    let (wa, wb) = (
        workloads(&a).ok_or(format!("{a_path}: no workloads"))?,
        workloads(&b).ok_or(format!("{b_path}: no workloads"))?,
    );
    if at(&a, &["environment", "seed"]) != at(&b, &["environment", "seed"]) {
        println!(
            "note: the two files used different seeds, so digests and counts differ by design"
        );
    }
    let mut ok = true;
    for (name, a) in &wa {
        let Some((_, b)) = wb.iter().find(|(n, _)| n == name) else {
            println!("{name}: missing from {b_path}");
            ok = false;
            continue;
        };
        println!("{name}");
        for &(metric, unit, better) in END_TO_END {
            let (va, vb) = (values(a, metric), values(b, metric));
            let v = verdict(&va, &vb, better == HIGHER, spec.bound(metric));
            ok &= v != "worse";
            let (ma, mb) = (median(&va), median(&vb));
            println!(
                "  {metric:<12} {v:<10} {ma:>14.6} -> {mb:>14.6} {unit:<4} ({:+.2} %, bound {:.0} %, n = {} / {})",
                (mb - ma) / ma * 100.0,
                spec.bound(metric) * 100.0,
                va.len(),
                vb.len()
            );
        }
        let show = |w: &Value, key: &str| match field(w, key) {
            Some(Value::Str(s)) => s.clone(),
            Some(v) => v.as_f64().map_or("?".to_string(), |x| x.to_string()),
            None => "absent".to_string(),
        };
        for key in ["sim_digest", "work"] {
            if field(a, key) != field(b, key) {
                println!(
                    "  {key:<12} DIFFERENT  {} -> {}",
                    show(a, key),
                    show(b, key)
                );
                ok = false;
            }
        }
        let share = |w: &Value| {
            field(w, "failed_share")
                .and_then(Value::as_f64)
                .unwrap_or(0.0)
        };
        if share(b) > share(a) {
            println!("  failed_share HIGHER     {} -> {}", share(a), share(b));
            ok = false;
        }
        for &(metric, unit, _) in PER_LAYER {
            // Times and ratios of times are shown by a full run, not
            // judged here.
            if !is_exact(unit) {
                continue;
            }
            if let (Some(x), Some(y)) = (layer_value(a, metric), layer_value(b, metric)) {
                if x != y {
                    println!("  {metric:<40} DIFFERENT  {x} -> {y} {unit}");
                    ok = false;
                }
            }
        }
    }
    for (name, _) in &wb {
        if !wa.iter().any(|(n, _)| n == name) {
            println!("{name}: missing from {a_path}");
            ok = false;
        }
    }
    println!(
        "{}",
        if ok {
            "verdict: no regression"
        } else {
            "verdict: REGRESSION or DIFFERENCE"
        }
    );
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::verdict;

    #[test]
    fn verdicts() {
        let a = [1.00, 1.01, 0.99, 1.00, 1.02];
        assert_eq!(verdict(&a, &a, false, 0.1), "same");
        let slow: Vec<f64> = a.iter().map(|x| x * 1.2).collect();
        assert_eq!(verdict(&a, &slow, false, 0.1), "worse");
        assert_eq!(verdict(&slow, &a, false, 0.1), "better");
        // For a rate, larger is better.
        assert_eq!(verdict(&a, &slow, true, 0.1), "better");
        // Spread wider than the bound: unresolved …
        let noisy = [1.0, 1.4, 0.8, 1.1, 1.3];
        assert_eq!(verdict(&noisy, &a, false, 0.1), "unresolved");
        // … unless every run of one side beats every run of the other.
        let far: Vec<f64> = noisy.iter().map(|x| x * 3.0).collect();
        assert_eq!(verdict(&a, &far, false, 0.1), "worse");
    }
}
