//! `--quick`: the benchmark testing itself, at tiny sizes, in well under
//! half a minute. It checks what the numbers rest on:
//!
//! - every workload, run several times in one process with tracing off
//!   and on, yields one digest (and `fleet_sweep` the same digest on one
//!   thread as on all of them);
//! - the spans of a traced run account for its wall time to within 5 %;
//! - each output check can fail: a corrupted payload, a codeword pushed
//!   beyond `t`, and a flipped `.strc` byte must each be counted;
//! - `BENCHMARK.json` lists exactly the metrics this program measures.

use crate::metrics::PER_LAYER;
use crate::runner::{traced, untraced, Job};
use crate::workloads::{Fault, Scale, Workload, NAMES};
use crate::{spec, with_workload};
use std::collections::BTreeSet;
use std::path::Path;
use std::time::Instant;

/// Run `W` traced; note its problems and the per-layer names it measured.
fn healthy<W: Workload>(
    job: &Job<'_>,
    problems: &mut Vec<String>,
    measured: &mut BTreeSet<&'static str>,
) {
    let m = match traced::<W>(job) {
        Ok(m) => m,
        Err(e) => return problems.push(format!("{}: {e}", W::NAME)),
    };
    measured.extend(m.metrics.iter().filter(|m| m.2).map(|m| m.0 .0));
    let get = |name: &str| {
        m.metrics
            .iter()
            .find(|(def, _, _)| def.0 == name)
            .map_or(0.0, |m| m.1)
    };
    let coverage = get("bench.span_coverage");
    println!(
        "  {:<18} {} iterations, digest {:016x}, span coverage {:.3}, trace overhead {:+.1} %",
        W::NAME,
        m.iterations,
        m.digest,
        coverage,
        get("bench.trace_overhead_share") * 100.0
    );
    if !m.digests_agree {
        problems.push(format!("{}: digests differ between iterations", W::NAME));
    }
    if m.failed > 0 {
        problems.push(format!(
            "{}: {} failed ops: {:?}",
            W::NAME,
            m.failed,
            m.complaints
        ));
    }
    if !(0.95..=1.05).contains(&coverage) {
        problems.push(format!(
            "{}: spans cover {coverage:.3} of the traced wall time",
            W::NAME
        ));
    }
}

fn sabotaged<W: Workload>(job: &Job<'_>, problems: &mut Vec<String>) {
    match untraced::<W>(job, 0.0) {
        Ok(m) if m.failed > 0 => println!(
            "  {:<18} {:?}: {} failed ops counted ({})",
            W::NAME,
            job.fault.expect("sabotage needs a fault"),
            m.failed,
            m.complaints.first().map_or("", String::as_str)
        ),
        Ok(_) => problems.push(format!(
            "{}: {:?} went unnoticed",
            W::NAME,
            job.fault.expect("sabotage needs a fault")
        )),
        Err(e) => problems.push(format!("{}: {e}", W::NAME)),
    }
}

/// Run the self-test; `true` when everything held.
pub fn quick(bench_dir: &Path, seed: u64) -> bool {
    let started = Instant::now();
    let out_dir = bench_dir.join("out").join("quick");
    let mut problems = spec::load(bench_dir).drift();
    let mut measured = BTreeSet::new();
    println!("every workload, tracing off and on:");
    for name in NAMES {
        let job = Job {
            seed,
            scale: Scale::Quick,
            fault: None,
            out_dir: &out_dir,
        };
        with_workload!(name, W => healthy::<W>(&job, &mut problems, &mut measured));
    }
    // One thread cannot measure a speed-up over one thread.
    if salamander_exec::Threads::Auto.resolve() == 1 {
        measured.insert("exec.scaling");
    }
    for &(name, _, _) in PER_LAYER {
        if !measured.contains(name) {
            problems.push(format!("{name} is measured by no workload"));
        }
    }
    println!("every check, made to fail:");
    for (name, fault) in [
        ("device_mixed", Fault::Payload),
        ("ecc_datapath", Fault::Codeword),
        ("obs_pipeline", Fault::StrcByte),
    ] {
        let job = Job {
            seed,
            scale: Scale::Quick,
            fault: Some(fault),
            out_dir: &out_dir,
        };
        with_workload!(name, W => sabotaged::<W>(&job, &mut problems));
    }
    for p in &problems {
        println!("PROBLEM: {p}");
    }
    println!(
        "quick self-test: {} in {:.1} s",
        if problems.is_empty() { "ok" } else { "FAILED" },
        started.elapsed().as_secs_f64()
    );
    problems.is_empty()
}
