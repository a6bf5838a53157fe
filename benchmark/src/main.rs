//! The repo benchmark. `benchmark/run.sh` builds this program in release
//! mode and hands it its arguments:
//!
//! ```text
//! run.sh --workload W --seed S --seconds T --trace 0|1   one measurement (BENCHMARK.json's command)
//! run.sh [--seed S] [--reps N] [--workload W] [--trace]  full run -> benchmark/out/latest.json
//! run.sh --quick                                         self-test, tiny sizes
//! run.sh compare <a.json> <b.json>                       apply the bounds to two full runs
//! ```
//!
//! See `benchmark/README.md` for what is measured and why.

mod compare;
mod full;
mod metrics;
mod quick;
mod runner;
mod spans;
mod spec;
mod util;
mod workloads;

use runner::{Job, Measured};
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{Scale, Workload};

/// Prefix of the line a measurement prints for the full run that
/// started it (the result line proper has a fixed set of keys).
pub const DETAIL_PREFIX: &str = "detail ";

const DEFAULT_SEED: u64 = 42;
const DEFAULT_REPS: u32 = 5;

#[derive(Debug, Default)]
struct Args {
    bench_dir: Option<PathBuf>,
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    reps: Option<u32>,
    trace: Option<bool>,
    quick: bool,
    positional: Vec<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1).peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--bench-dir" => args.bench_dir = Some(value("a directory")?.into()),
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = Some(
                    value("a number")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=3600.0).contains(&s) {
                    return Err(format!("--seconds {s} is out of range"));
                }
                args.seconds = Some(s);
            }
            "--reps" => {
                let n: u32 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--reps: {e}"))?;
                if n == 0 {
                    return Err("--reps must be at least 1".into());
                }
                args.reps = Some(n);
            }
            // `--trace` alone switches tracing on; `--trace 0|1` is the
            // driver's spelling.
            "--trace" => {
                args.trace = Some(match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                })
            }
            "--quick" => args.quick = true,
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            _ => args.positional.push(arg),
        }
    }
    Ok(args)
}

fn measure<W: Workload>(job: &Job<'_>, seconds: f64, trace: bool) -> std::io::Result<Measured> {
    if trace {
        runner::traced::<W>(job)
    } else {
        runner::untraced::<W>(job, seconds)
    }
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let bench_dir = args.bench_dir.unwrap_or_else(|| PathBuf::from("benchmark"));
    if args.positional.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = args.positional.as_slice() else {
            return Err("usage: compare <a.json> <b.json>".into());
        };
        return compare::compare(&bench_dir, a, b);
    }
    if let Some(stray) = args.positional.first() {
        return Err(format!("unexpected argument {stray}"));
    }
    if cfg!(debug_assertions) {
        return Err("this is a debug build; the benchmark measures release builds only".into());
    }
    let seed = args.seed.unwrap_or(DEFAULT_SEED);
    if args.quick {
        return Ok(quick::quick(&bench_dir, seed));
    }
    if let Some(name) = &args.workload {
        if !workloads::NAMES.contains(&name.as_str()) {
            return Err(format!(
                "unknown workload {name}; one of {:?}",
                workloads::NAMES
            ));
        }
    }
    match (&args.workload, args.seconds) {
        // One measurement in this process.
        (Some(name), Some(seconds)) => {
            let out_dir = bench_dir.join("out");
            let job = Job {
                seed,
                scale: Scale::Full,
                fault: None,
                out_dir: &out_dir,
            };
            let trace = args.trace.unwrap_or(false);
            let m = with_workload!(name.as_str(), W => measure::<W>(&job, seconds, trace))
                .expect("workload name was checked")
                .map_err(|e| format!("{}: {e}", out_dir.display()))?;
            m.print();
            println!("{DETAIL_PREFIX}{}", m.detail_line());
            println!("{}", m.result_line());
            Ok(m.correct())
        }
        (None, Some(_)) => Err("--seconds needs --workload".into()),
        // A full run: children of this program do the measuring.
        (only, None) => full::FullRun {
            bench_dir: &bench_dir,
            only: only.as_deref(),
            seed,
            reps: args.reps.unwrap_or(DEFAULT_REPS),
            seconds: spec::load(&bench_dir).run_seconds(),
            traced: args.trace.unwrap_or(true),
        }
        .run(),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("salamander-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
