//! Shared plumbing for the per-figure harness binaries.
//!
//! Every binary regenerates one table or figure from the paper's
//! evaluation (see DESIGN.md's experiment index), printing a markdown
//! table to stdout and writing a CSV under `results/` for plotting.

use salamander::report::Table;
use salamander_obs::{trace, LiveObs, MetricsRegistry, Obs, Profiler, TraceRecord};
use salamander_telemetry::{TelemetryHub, TelemetryServer};
use std::path::PathBuf;
use std::sync::Arc;

/// Print a table to stdout as markdown and persist it as CSV under
/// `results/<name>.csv` (best-effort: printing always works, the file
/// write reports failures to stderr without aborting the experiment).
pub fn emit(name: &str, table: &Table) {
    println!("{}", table.to_markdown());
    let dir = PathBuf::from("results");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(format!("{name}.csv"));
    if let Err(e) = std::fs::write(&path, table.to_csv()) {
        eprintln!("warning: cannot write {}: {e}", path.display());
    } else {
        eprintln!("wrote {}", path.display());
    }
}

/// Parse a `--flag value` style argument, returning `default` when absent.
pub fn arg_or<T: std::str::FromStr>(flag: &str, default: T) -> T {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Whether a bare `--flag` is present.
pub fn has_flag(flag: &str) -> bool {
    std::env::args().any(|a| a == flag)
}

/// The shared observability CLI surface of the harness binaries
/// (DESIGN.md §9/§12): `--trace <path>` writes a deterministic event
/// trace (JSONL, or the indexed `.strc` binary format when the path
/// ends in `.strc`), `--metrics` writes a Prometheus-style text file
/// under `results/`, `--profile` prints wall-clock phase timings to
/// stdout, and `--serve <addr>` attaches a live telemetry server for
/// the duration of the run (`--serve-linger <secs>` keeps it up after
/// the run so the final state can be scraped; `GET /quit` ends the
/// linger early).
#[derive(Debug, Clone, Default)]
pub struct ObsArgs {
    /// Trace destination (`--trace <path>`), if requested.
    pub trace_path: Option<String>,
    /// Whether `--metrics` was given.
    pub metrics: bool,
    /// Whether `--profile` was given.
    pub profile: bool,
    /// Telemetry server bind address (`--serve <addr>`), if requested.
    pub serve: Option<String>,
    /// Seconds to keep serving after the run (`--serve-linger <secs>`).
    pub serve_linger: u64,
}

impl ObsArgs {
    /// Parse the observability flags from `std::env::args`.
    pub fn parse() -> Self {
        let args: Vec<String> = std::env::args().collect();
        ObsArgs {
            trace_path: args
                .iter()
                .position(|a| a == "--trace")
                .and_then(|i| args.get(i + 1))
                .cloned(),
            metrics: has_flag("--metrics"),
            profile: has_flag("--profile"),
            serve: args
                .iter()
                .position(|a| a == "--serve")
                .and_then(|i| args.get(i + 1))
                .cloned(),
            serve_linger: arg_or("--serve-linger", 0),
        }
    }

    /// Whether tracing was requested.
    pub fn trace(&self) -> bool {
        self.trace_path.is_some()
    }

    /// A profiler matching `--profile` (disabled otherwise). Wall-clock
    /// timings are non-deterministic by nature; they go to stdout only,
    /// never into traces, metrics, or `results/`.
    pub fn profiler(&self) -> Profiler {
        if self.profile {
            Profiler::enabled()
        } else {
            Profiler::disabled()
        }
    }

    /// An [`Obs`] bundle matching the flags, for single-run binaries.
    /// Fan-out binaries build per-task bundles instead (see
    /// `EnduranceSim::compare_modes_observed`). Pass the run's
    /// [`ServeSession`] (if any) so the bundle mirrors into the live
    /// server.
    pub fn obs(&self, session: Option<&ServeSession>) -> Obs {
        let obs = Obs {
            trace: if self.trace() {
                salamander_obs::TraceHandle::recording()
            } else {
                salamander_obs::TraceHandle::disabled()
            },
            metrics: if self.metrics {
                salamander_obs::MetricsHandle::enabled()
            } else {
                salamander_obs::MetricsHandle::disabled()
            },
            profiler: self.profiler(),
            progress: salamander_obs::ProgressHandle::disabled(),
        };
        match session {
            Some(s) => obs.with_live(&s.live),
            None => obs,
        }
    }

    /// Start the live telemetry server if `--serve` was given. Binds
    /// (and reports the resolved address on stderr) before returning,
    /// so the endpoints answer for the whole simulated run. A bind
    /// failure is fatal — the operator asked to watch this run.
    pub fn serve_session(&self, name: &str) -> Option<ServeSession> {
        let addr = self.serve.as_deref()?;
        let live = LiveObs::new();
        let hub = TelemetryHub::new(name, live.clone());
        match TelemetryServer::start(addr, hub.clone()) {
            Ok(server) => {
                // The URL line is a stable parsing contract (tests and
                // scripts anchor on it); the endpoint hint goes on its
                // own line.
                eprintln!("serving telemetry on http://{}/", server.addr());
                eprintln!("per-mode simulated-day progress: GET /progress");
                Some(ServeSession { live, hub, server })
            }
            Err(e) => {
                eprintln!("error: cannot serve telemetry on {addr}: {e}");
                std::process::exit(1);
            }
        }
    }

    /// Write the collected telemetry: the trace (resequenced; JSONL,
    /// or `.strc` when the path asks for it) to `--trace`'s path, the
    /// merged metrics to `results/<name>.prom`, and the profile table
    /// to stdout. Call once at the end of `main` with the shards
    /// already merged in deterministic order and the run's
    /// [`ServeSession`], if any — the final metrics text is published
    /// to the server (so a last scrape equals the file byte-for-byte)
    /// before it lingers and shuts down.
    ///
    /// Returns the process exit code: nonzero when any requested
    /// telemetry artifact failed to persist (a trace sink error, an
    /// unwritable path) — the run itself completed, but silently
    /// dropping requested telemetry would be worse than saying so.
    #[must_use]
    pub fn finish(
        &self,
        name: &str,
        mut trace: Vec<TraceRecord>,
        metrics: MetricsRegistry,
        profiler: &Profiler,
        session: Option<ServeSession>,
    ) -> i32 {
        let mut failed = false;
        if let Some(path) = &self.trace_path {
            trace::resequence(&mut trace);
            let write = if path.ends_with(".strc") {
                salamander_obs::strc::write_strc(
                    std::path::Path::new(path),
                    &trace,
                    salamander_obs::strc::DEFAULT_CHUNK_RECORDS,
                )
                .map_err(|e| e.to_string())
            } else {
                std::fs::write(path, trace::to_jsonl(&trace)).map_err(|e| e.to_string())
            };
            match write {
                Err(e) => {
                    eprintln!("error: cannot write {path}: {e}");
                    failed = true;
                }
                Ok(()) => eprintln!("wrote {path} ({} events)", trace.len()),
            }
        }
        let shed = metrics.counter("salamander_obs_dropped_records_total");
        if shed > 0 {
            eprintln!("warning: trace ring overflowed, {shed} records dropped (see salamander_obs_dropped_records_total)");
        }
        let mut final_metrics_text = None;
        if self.metrics {
            let rendered = metrics.render();
            let dir = PathBuf::from("results");
            if let Err(e) = std::fs::create_dir_all(&dir) {
                eprintln!("error: cannot create {}: {e}", dir.display());
                failed = true;
            } else {
                let path = dir.join(format!("{name}.prom"));
                if let Err(e) = std::fs::write(&path, &rendered) {
                    eprintln!("error: cannot write {}: {e}", path.display());
                    failed = true;
                } else {
                    eprintln!("wrote {}", path.display());
                }
            }
            final_metrics_text = Some(rendered);
        }
        if self.profile {
            print_profile(profiler);
        }
        if let Some(session) = session {
            session.finish(final_metrics_text, self.serve_linger);
        }
        i32::from(failed)
    }
}

/// A live `--serve` session: the mirror the simulation writes into,
/// the hub the server reads from, and the server itself.
pub struct ServeSession {
    /// Mirror handed to the simulation layers.
    pub live: LiveObs,
    /// Shared state with the server threads.
    pub hub: Arc<TelemetryHub>,
    server: TelemetryServer,
}

impl ServeSession {
    /// Publish one run label's health report to `/health`.
    pub fn publish_health<T: serde::Serialize>(&self, label: &str, report: &T) {
        if let Ok(json) = serde_json::to_string(report) {
            self.hub.publish_health(label, json);
        }
    }

    /// Publish one run label's per-day fleet rollups to `/fleet` and
    /// `/fleet/series`.
    pub fn publish_rollups(&self, label: &str, rollups: &[salamander_obs::FleetRollup]) {
        self.hub.publish_rollups(label, rollups.to_vec());
    }

    /// Publish one run label's per-day latency rollups to `/latency`
    /// and `/latency/series`, scanning them for tail-latency
    /// regressions first so `/latency` can surface the anomalies
    /// alongside the distributions (DESIGN.md §15).
    pub fn publish_latency(&self, label: &str, rollups: &[salamander_obs::LatencyRollup]) {
        let regressions = salamander_health::latency_scan(rollups.iter());
        let json = serde_json::to_string(&regressions).unwrap_or_else(|_| "[]".to_string());
        self.hub.publish_latency(label, rollups.to_vec(), json);
    }

    /// Publish one run label's per-tick cluster rollups to `/cluster`
    /// and `/cluster/series`, scanning them for recovery storms and
    /// data loss first so `/cluster` can surface the anomalies
    /// alongside the durability counters (DESIGN.md §16).
    pub fn publish_cluster(&self, label: &str, rollups: &[salamander_obs::ClusterRollup]) {
        let anomalies = salamander_health::cluster_scan(rollups.iter());
        let json = serde_json::to_string(&anomalies).unwrap_or_else(|_| "[]".to_string());
        self.hub.publish_cluster(label, rollups.to_vec(), json);
    }

    /// Mark the run done (publishing the final metrics text, if any),
    /// linger up to `linger_secs` so clients can take a final scrape
    /// (`GET /quit` ends the wait early), then shut the server down.
    fn finish(self, final_metrics: Option<String>, linger_secs: u64) {
        let modes = self.live.progress.mode_snapshot();
        if !modes.is_empty() {
            let parts: Vec<String> = modes
                .iter()
                .map(|(label, day, total)| format!("{label} day {day}/{total}"))
                .collect();
            eprintln!("progress: {}", parts.join(", "));
        }
        self.hub.mark_done(final_metrics);
        if linger_secs > 0 {
            eprintln!(
                "telemetry server lingering {linger_secs}s on http://{}/ (GET /quit to release)",
                self.server.addr()
            );
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(linger_secs);
            while std::time::Instant::now() < deadline && !self.hub.quit_requested() {
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
        }
        self.server.shutdown();
    }
}

/// Synthesize per-step latency rollups for the §4.2 L0→L1 analytic
/// sweep bins (fig3c/fig3d): step `i` of `0..=steps` puts `i/steps` of
/// 1000 fPages at L1 and prices every level's oPages through the
/// integer cost model quantized from the flash timing model — the same
/// `CostModelNs` the FTL charges and the fleet engines fold
/// (DESIGN.md §15), so the sweep's p99 rise is the `4/(4−L)`
/// multi-read tax in the exact bucket edges `/latency` serves. The
/// rollup "day" is the sweep percent (these bins have no day clock).
pub fn l1_sweep_latency_rollups(steps: u32) -> Vec<salamander_obs::LatencyRollup> {
    use salamander_obs::{CostModelNs, LatClass, LatencyRollup};
    let t = salamander_flash::timing::TimingModel::default();
    let cost = CostModelNs::from_us(
        t.t_read_us,
        t.t_prog_us,
        t.t_erase_us,
        t.ecc_extra_us,
        t.xfer_bytes_per_us,
    );
    let steps = steps.max(1);
    const N: u64 = 1000;
    const OPAGE: u64 = 4096;
    (0..=steps)
        .map(|i| {
            let l1 = N * u64::from(i) / u64::from(steps);
            let mut r = LatencyRollup::empty(i * 100 / steps);
            let read = &mut r.classes[LatClass::HostRead as usize];
            let (w0, w1) = (4 * (N - l1), 3 * l1);
            if w0 > 0 {
                read.observe(cost.host_read_ns(4, 0, 0, OPAGE), w0);
            }
            if w1 > 0 {
                read.observe(cost.host_read_ns(4, 1, 0, OPAGE), w1);
            }
            r.classes[LatClass::HostWrite as usize].observe(cost.host_write_ns(OPAGE), w0 + w1);
            r
        })
        .collect()
}

/// The shared observability tail of the analytic sweep bins: emit the
/// synthesized rollups as a labelled trace segment (queryable with
/// `obsctl latency`), export their host-read tail as gauges, publish
/// them to `/latency`, and persist everything via [`ObsArgs::finish`].
/// Returns the process exit code.
#[must_use]
pub fn finish_sweep_obs(
    obs_args: &ObsArgs,
    name: &str,
    rollups: &[salamander_obs::LatencyRollup],
    session: Option<ServeSession>,
) -> i32 {
    let profiler = obs_args.profiler();
    let obs = obs_args.obs(session.as_ref());
    let label = format!("sweep={name}");
    if obs.trace.is_enabled() {
        obs.trace.emit(
            salamander_obs::SimTime::ZERO,
            salamander_obs::TraceEvent::RunMarker {
                label: label.clone(),
            },
        );
        for r in rollups {
            obs.trace.emit(
                salamander_obs::SimTime::new(r.day, 0),
                salamander_obs::TraceEvent::LatencyRollup(r.clone()),
            );
        }
    }
    if obs.metrics.is_enabled() {
        for r in rollups {
            if let Some(p99) = r.stat("host_read", "p99") {
                obs.metrics.set_gauge(
                    &format!("salamander_sweep_host_read_p99_ns{{l1_pct=\"{}\"}}", r.day),
                    p99 as f64,
                );
            }
        }
    }
    if let Some(s) = &session {
        s.publish_latency(&label, rollups);
    }
    obs_args.finish(
        name,
        obs.trace.take(),
        obs.metrics.take(),
        &profiler,
        session,
    )
}

/// A per-task [`Obs`] bundle for fan-out binaries: one shard per
/// parallel task, opened with a `RunMarker` carrying `label` so the
/// merged trace stays segmentable. Take the shards back with
/// `obs.trace.take()` / `obs.metrics.take()` and merge them in task
/// order (deterministic under `par_map`, which returns in item order).
/// When a live mirror is given, the shard taps into it (trace
/// broadcast + metrics tee) without affecting what `take()` returns.
pub fn task_obs(
    trace: bool,
    metrics: bool,
    profiler: &Profiler,
    label: &str,
    live: Option<&LiveObs>,
) -> Obs {
    let mut obs = Obs {
        trace: if trace {
            salamander_obs::TraceHandle::recording()
        } else {
            salamander_obs::TraceHandle::disabled()
        },
        metrics: if metrics {
            salamander_obs::MetricsHandle::enabled()
        } else {
            salamander_obs::MetricsHandle::disabled()
        },
        profiler: profiler.clone(),
        progress: salamander_obs::ProgressHandle::disabled(),
    };
    if let Some(live) = live {
        obs = obs.with_live(live);
    }
    if obs.trace.is_enabled() {
        obs.trace.emit(
            salamander_obs::SimTime::ZERO,
            salamander_obs::TraceEvent::RunMarker {
                label: label.to_string(),
            },
        );
    }
    obs
}

/// Print wall-clock phase timings as a markdown table (stdout only:
/// timings are machine-dependent and must not land in `results/`).
pub fn print_profile(profiler: &Profiler) {
    let stats = profiler.stats();
    let mut table = Table::new(
        "Wall-clock profile (non-deterministic; not written to results/)",
        &["phase", "calls", "total ms", "mean us"],
    );
    for (phase, s) in &stats {
        let total_ms = s.total.as_secs_f64() * 1e3;
        let mean_us = if s.calls > 0 {
            s.total.as_secs_f64() * 1e6 / s.calls as f64
        } else {
            0.0
        };
        table.row(vec![
            phase.clone(),
            s.calls.to_string(),
            format!("{total_ms:.1}"),
            format!("{mean_us:.1}"),
        ]);
    }
    println!("{}", table.to_markdown());
}
