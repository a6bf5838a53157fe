//! One measurement process: a single workload, a single seed, for a
//! fixed number of seconds. This is what the driver of `BENCHMARK.json`
//! invokes, and what a full run re-executes once per (workload, rep) so
//! that `peak_rss_mb` is one process's `VmHWM`.

use crate::metrics::{LayerMetrics, MetricDef, END_TO_END};
use crate::spans::Tracer;
use crate::util::{cpu_seconds, median, quartiles, supported_tail, vm_hwm_kib};
use crate::workloads::{Ctx, Fault, RunOut, Scale, Traced, Workload};
use serde::Value;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// An untraced run makes at least this many iterations however short
/// `--seconds` is, so that the digest is compared at least once.
const MIN_ITERATIONS: usize = 3;
/// A traced run alternates this many untraced and traced iterations.
const TRACED_PAIRS: usize = 3;

/// Removes its directory when dropped, so that a panicking workload
/// leaves nothing behind either.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn new(out_dir: &Path) -> std::io::Result<Self> {
        let dir = out_dir.join(format!("scratch-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Everything one process measured.
#[derive(Debug, Default)]
pub struct Measured {
    pub workload: &'static str,
    pub work_unit: &'static str,
    pub seed: u64,
    pub traced: bool,
    pub iterations: usize,
    /// Work units per iteration.
    pub work: u64,
    pub attempted: u64,
    pub failed: u64,
    pub digest: u64,
    pub digests_agree: bool,
    pub complaints: Vec<String>,
    pub walls: Vec<f64>,
    pub setups: Vec<f64>,
    /// `(definition, value, measured by this workload)`.
    pub metrics: Vec<(MetricDef, f64, bool)>,
}

impl Measured {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.digests_agree
    }

    fn absorb(&mut self, out: RunOut) {
        if self.iterations == 0 {
            self.work = out.work;
            self.digest = out.digest;
            self.digests_agree = true;
        } else if out.digest != self.digest || out.work != self.work {
            self.digests_agree = false;
            self.complaints.push(format!(
                "iteration {} digest {:016x} / work {} differs from iteration 0's {:016x} / {}",
                self.iterations, out.digest, out.work, self.digest, self.work
            ));
        }
        self.iterations += 1;
        self.attempted += out.attempted;
        self.failed += out.failed;
        self.complaints.extend(out.complaints);
        self.complaints.truncate(8);
    }

    /// The contract's result line.
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|&((name, unit, _), value, _)| {
                (
                    name.to_string(),
                    Value::Object(vec![
                        ("value".into(), Value::F64(value)),
                        ("unit".into(), Value::Str(unit.into())),
                    ]),
                )
            })
            .collect();
        let line = Value::Object(vec![
            ("correct".into(), Value::Bool(self.correct())),
            ("attempted".into(), Value::U64(self.attempted.max(1))),
            ("failed".into(), Value::U64(self.failed)),
            ("metrics".into(), Value::Object(metrics)),
        ]);
        serde_json::to_string(&line).expect("finite metric values")
    }

    /// What a full run needs beyond the result line.
    pub fn detail_line(&self) -> String {
        let list = |v: &[f64]| Value::Array(v.iter().map(|&x| Value::F64(x)).collect());
        let line = Value::Object(vec![
            ("workload".into(), Value::Str(self.workload.into())),
            ("seed".into(), Value::U64(self.seed)),
            ("traced".into(), Value::Bool(self.traced)),
            ("iterations".into(), Value::U64(self.iterations as u64)),
            ("work".into(), Value::U64(self.work)),
            (
                "sim_digest".into(),
                Value::Str(format!("{:016x}", self.digest)),
            ),
            ("digests_agree".into(), Value::Bool(self.digests_agree)),
            ("wall_s_samples".into(), list(&self.walls)),
            ("setup_s_samples".into(), list(&self.setups)),
            (
                "unmeasured".into(),
                Value::Array(
                    self.metrics
                        .iter()
                        .filter(|m| !m.2)
                        .map(|m| Value::Str(m.0 .0.into()))
                        .collect(),
                ),
            ),
        ]);
        serde_json::to_string(&line).expect("finite values")
    }

    /// Every metric by name with its unit, for a person.
    pub fn print(&self) {
        println!(
            "workload {}  seed {}  {}  iterations {}",
            self.workload,
            self.seed,
            if self.traced { "traced" } else { "untraced" },
            self.iterations
        );
        println!(
            "  work unit: {} ({} per iteration)",
            self.work_unit, self.work
        );
        for &((name, unit, better), value, measured) in &self.metrics {
            if measured {
                println!("  {name:<40} {value:>16.6} {unit:<6} ({better} is better)");
            } else if !self.traced {
                println!("  {name:<40} {:>16} {unit:<6}", "-");
            }
        }
        if self.traced {
            let skipped = self.metrics.iter().filter(|m| !m.2).count();
            println!("  ({skipped} per-layer metrics belong to other workloads and read 0 here)");
        } else {
            let (q1, q3) = quartiles(&self.walls);
            print!(
                "  wall_s over {} iterations: q1 {q1:.6} q3 {q3:.6}",
                self.walls.len()
            );
            match supported_tail(&self.walls) {
                Some((label, v)) => println!(" {label} {v:.6}"),
                None => println!(" (too few samples for a tail percentile)"),
            }
        }
        println!(
            "  failed_share {} ({} failed / {} attempted)",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted
        );
        println!(
            "  sim_digest {:016x}{}",
            self.digest,
            if self.digests_agree {
                ""
            } else {
                "  ** DIFFERS BETWEEN ITERATIONS **"
            }
        );
        for c in &self.complaints {
            println!("  ! {c}");
        }
    }
}

pub struct Job<'a> {
    pub seed: u64,
    pub scale: Scale,
    pub fault: Option<Fault>,
    pub out_dir: &'a Path,
}

impl Job<'_> {
    fn ctx(&self, scratch: &Scratch) -> Ctx {
        Ctx {
            seed: self.seed,
            scale: self.scale,
            fault: self.fault,
            scratch: scratch.path().to_path_buf(),
        }
    }

    fn blank<W: Workload>(&self, traced: bool) -> Measured {
        Measured {
            workload: W::NAME,
            work_unit: W::WORK_UNIT,
            seed: self.seed,
            traced,
            ..Measured::default()
        }
    }
}

/// What one iteration took, and what it left behind.
struct Iteration<W> {
    setup_s: f64,
    wall_s: f64,
    cpu_s: f64,
    workload: W,
    out: RunOut,
}

/// One iteration: `setup`, the timed region, the check.
fn iterate<W: Workload>(
    ctx: &Ctx,
    setup_spans: &mut Tracer,
    run_spans: &mut Tracer,
) -> Iteration<W> {
    let t = Instant::now();
    let mut workload = W::setup(ctx, setup_spans);
    let setup_s = t.elapsed().as_secs_f64();
    let cpu = cpu_seconds();
    let t = Instant::now();
    workload.run(run_spans);
    let wall_s = t.elapsed().as_secs_f64();
    let cpu_s = cpu_seconds() - cpu;
    let out = workload.check();
    Iteration {
        setup_s,
        wall_s,
        cpu_s,
        workload,
        out,
    }
}

/// Tracing off: iterate for `seconds`, report the end-to-end metrics.
pub fn untraced<W: Workload>(job: &Job<'_>, seconds: f64) -> std::io::Result<Measured> {
    let scratch = Scratch::new(job.out_dir)?;
    let ctx = job.ctx(&scratch);
    let mut m = job.blank::<W>(false);
    let mut cpu_total = 0.0;
    let started = Instant::now();
    while m.iterations < MIN_ITERATIONS || started.elapsed().as_secs_f64() < seconds {
        let it = iterate::<W>(&ctx, &mut Tracer::off(), &mut Tracer::off());
        m.setups.push(it.setup_s);
        m.walls.push(it.wall_s);
        cpu_total += it.cpu_s;
        m.absorb(it.out);
    }
    let wall_s = median(&m.walls);
    let values = [
        wall_s,
        cpu_total / m.iterations as f64,
        m.work as f64 / wall_s,
        vm_hwm_kib() as f64 / 1024.0,
        median(&m.setups),
    ];
    m.metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&def, v)| (def, v, true))
        .collect();
    Ok(m)
}

/// Tracing on: alternate untraced and traced iterations, then probe the
/// layers. Reports the per-layer metrics and writes the spans file;
/// end-to-end numbers never come from here.
pub fn traced<W: Workload>(job: &Job<'_>) -> std::io::Result<Measured> {
    let scratch = Scratch::new(job.out_dir)?;
    let ctx = job.ctx(&scratch);
    let mut m = job.blank::<W>(true);
    let mut plain_walls = Vec::new();
    let mut last = None;
    for _ in 0..TRACED_PAIRS {
        let plain = iterate::<W>(&ctx, &mut Tracer::off(), &mut Tracer::off());
        plain_walls.push(plain.wall_s);
        m.absorb(plain.out);

        let (mut setup_spans, mut run_spans) = (Tracer::on(), Tracer::on());
        let it = iterate::<W>(&ctx, &mut setup_spans, &mut run_spans);
        m.setups.push(it.setup_s);
        m.walls.push(it.wall_s);
        m.absorb(it.out);
        last = Some((it.workload, setup_spans, run_spans));
    }
    let (mut w, setup_spans, run_spans) = last.expect("at least one traced pair");
    let traced_wall = *m.walls.last().expect("at least one traced pair");

    let mut layers = LayerMetrics::default();
    let mut probe_spans = Tracer::on();
    w.layer_metrics(
        &ctx,
        Traced {
            setup: &setup_spans,
            run: &run_spans,
        },
        &mut probe_spans,
        &mut layers,
    );
    let overhead = (median(&m.walls) - median(&plain_walls)) / median(&plain_walls);
    layers.set("bench.trace_overhead_share", overhead);
    layers.set("bench.span_coverage", run_spans.covered_s() / traced_wall);
    m.metrics = layers.complete();

    let spans = Value::Object(vec![
        ("workload".into(), Value::Str(W::NAME.into())),
        ("seed".into(), Value::U64(job.seed)),
        ("traced_wall_s".into(), Value::F64(traced_wall)),
        ("untraced_wall_s".into(), Value::F64(median(&plain_walls))),
        ("trace_overhead_share".into(), Value::F64(overhead)),
        ("covered_s".into(), Value::F64(run_spans.covered_s())),
        ("setup".into(), setup_spans.to_json(W::NAME)),
        ("run".into(), run_spans.to_json(W::NAME)),
        ("probes".into(), probe_spans.to_json(W::NAME)),
    ]);
    std::fs::write(
        job.out_dir.join(format!("spans-{}.json", W::NAME)),
        serde_json::to_string(&spans).expect("finite values"),
    )?;
    Ok(m)
}
