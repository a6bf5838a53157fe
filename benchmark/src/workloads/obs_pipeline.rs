//! `obs_pipeline` — a third of the codebase is observability and three
//! ROADMAP items rewrite it; `obs` + `health` + `telemetry` do all the
//! work here, the simulators none.
//!
//! Set-up records one RegenS device trace, one fleet trace and one
//! cluster trace, `RunMarker`-labelled, replicated and `resequence`d to
//! the target size, and computes the nine queries over the records —
//! the answers the indexed `.strc` queries must reproduce.
//!
//! Timed: `to_jsonl` + `parse_jsonl` once; then rounds of `StrcWriter`
//! → file → `StrcReader::open` → `read_all` → the nine `query::*_strc`
//! queries → `HealthMonitor::ingest_trace`; then `TelemetryHub`
//! publishes, a `TelemetryServer` on `127.0.0.1:0`, and one client
//! scraping nine endpoints in turn.
//!
//! Check: JSONL → records → `.strc` → records is the identity; each
//! `*_strc` output equals the records-based query; every scrape is
//! HTTP 200.

use super::{Ctx, Fault, RunOut, Scale, Traced, Workload};
use crate::metrics::LayerMetrics;
use crate::spans::{Layer, Tracer};
use crate::util::{median, percentile, Digest};
use salamander::config::{Mode, SsdConfig};
use salamander::sim::EnduranceSim;
use salamander_difs::types::DifsConfig;
use salamander_exec::Threads;
use salamander_flash::geometry::FlashGeometry;
use salamander_fleet::bridge::ClusterHarness;
use salamander_fleet::device::{StatDeviceConfig, StatMode};
use salamander_fleet::sim::{FleetConfig, FleetEngine, FleetSim};
use salamander_health::{cluster_scan, latency_scan, query, HealthMonitor, HealthUnit};
use salamander_obs::strc::{StrcError, StrcReader, StrcWriter, DEFAULT_CHUNK_RECORDS};
use salamander_obs::trace::{parse_jsonl, resequence, to_jsonl};
use salamander_obs::{
    ClusterRollup, FleetRollup, LatencyRollup, LiveObs, MetricsRegistry, Obs, Profiler, SimTime,
    TraceEvent, TraceRecord,
};
use salamander_telemetry::{http_get, TelemetryHub, TelemetryServer};
use serde::Serialize;
use std::hint::black_box;
use std::io::{BufWriter, Read};
use std::path::PathBuf;

#[derive(Debug, Clone, Serialize)]
pub struct Params {
    pub target_records: usize,
    pub strc_rounds: u32,
    pub strc_chunk_records: usize,
    pub scrapes_per_endpoint: u32,
    pub probe_scrapes_per_endpoint: u32,
    pub device_geometry: FlashGeometry,
    pub fleet_devices: u32,
    pub cluster_devices: u32,
    pub drill_day: u32,
    pub endpoints: [&'static str; 9],
}

/// `(path, span, per-endpoint metric)`.
const ENDPOINTS: [(&str, &str, &str); 9] = [
    (
        "/metrics",
        "GET /metrics",
        "telemetry.scrape_p50_us.metrics",
    ),
    ("/health", "GET /health", "telemetry.scrape_p50_us.health"),
    ("/fleet", "GET /fleet", "telemetry.scrape_p50_us.fleet"),
    (
        "/fleet/series?metric=alive",
        "GET /fleet/series",
        "telemetry.scrape_p50_us.fleet_series",
    ),
    (
        "/latency",
        "GET /latency",
        "telemetry.scrape_p50_us.latency",
    ),
    (
        "/latency/series?class=host_write&stat=p99",
        "GET /latency/series",
        "telemetry.scrape_p50_us.latency_series",
    ),
    (
        "/cluster",
        "GET /cluster",
        "telemetry.scrape_p50_us.cluster",
    ),
    (
        "/cluster/series?metric=full",
        "GET /cluster/series",
        "telemetry.scrape_p50_us.cluster_series",
    ),
    (
        "/trace/tail?n=100",
        "GET /trace/tail",
        "telemetry.scrape_p50_us.trace_tail",
    ),
];

/// `(span, metric)` of the nine indexed queries, in the order of
/// [`STRC_QUERIES`] and of [`queries`].
const QUERIES: [(&str, &str); 9] = [
    ("query::lifecycle_strc", "health.query_ms.lifecycle"),
    ("query::why_strc", "health.query_ms.why"),
    ("query::fleet_rollup_strc", "health.query_ms.fleet"),
    (
        "query::fleet_timeline_strc",
        "health.query_ms.fleet_timeline",
    ),
    ("query::percentiles_strc", "health.query_ms.percentiles"),
    ("query::latency_strc", "health.query_ms.latency"),
    ("query::cluster_strc", "health.query_ms.cluster"),
    ("query::exposure_strc", "health.query_ms.exposure"),
    ("query::drill_strc", "health.query_ms.drill"),
];

/// What the telemetry hub serves, recorded in set-up.
struct Published {
    health_json: String,
    fleet: Vec<FleetRollup>,
    latency: Vec<LatencyRollup>,
    cluster: Vec<ClusterRollup>,
    metrics: MetricsRegistry,
}

pub struct ObsPipeline {
    p: Params,
    fault: Option<Fault>,
    scratch: PathBuf,
    records: Vec<TraceRecord>,
    expected: Vec<String>,
    published: Published,
    // Outputs of the timed region.
    jsonl_bytes: usize,
    jsonl_digest: u64,
    strc_bytes: u64,
    answers: Vec<String>,
    health_report_json: String,
    anomalies: u64,
    chunks_decoded: u64,
    chunks_offered: u64,
    scrapes: u64,
    tally: RunOut,
}

fn queries(records: &[TraceRecord], drill_day: u32) -> Vec<String> {
    vec![
        query::lifecycle(records, None),
        query::why(records, None),
        query::fleet_rollup(records, false),
        query::fleet_timeline(records),
        query::percentiles(records, "wear"),
        query::latency(records, None),
        query::cluster(records),
        query::exposure(records),
        query::drill(records, drill_day),
    ]
}

type StrcQuery = fn(&mut StrcReader, u32) -> Result<String, StrcError>;

const STRC_QUERIES: [StrcQuery; 9] = [
    |r, _| query::lifecycle_strc(r, None),
    |r, _| query::why_strc(r, None),
    |r, _| query::fleet_rollup_strc(r, false),
    |r, _| query::fleet_timeline_strc(r),
    |r, _| query::percentiles_strc(r, "wear"),
    |r, _| query::latency_strc(r, None),
    |r, _| query::cluster_strc(r),
    |r, _| query::exposure_strc(r),
    query::drill_strc,
];

fn hash(bytes: &[u8]) -> u64 {
    let mut d = Digest::default();
    d.bytes(bytes);
    d.finish()
}

impl ObsPipeline {
    /// One `.strc` round trip plus everything that reads the file.
    fn strc_round(&mut self, round: u32, tr: &mut Tracer) {
        let path = self.scratch.join(format!("trace-{round}.strc"));
        let records = &self.records;
        let written = tr.call("StrcWriter::push x N + finish", Layer::Obs, || {
            let file = std::fs::File::create(&path)?;
            let mut w = StrcWriter::new(BufWriter::new(file), self.p.strc_chunk_records)?;
            for rec in records {
                w.push(rec)?;
            }
            w.finish().map(drop)
        });
        if let Err(e) = written {
            self.tally.fail(records.len() as u64, || {
                format!("writing {}: {e}", path.display())
            });
            return;
        }
        if self.fault == Some(Fault::StrcByte) && round == 0 {
            let mut bytes = std::fs::read(&path).expect("file just written");
            let at = bytes.len() / 2;
            bytes[at] ^= 0x20;
            std::fs::write(&path, &bytes).expect("scratch file is writable");
        }

        let opened = tr.call("StrcReader::open", Layer::Obs, || StrcReader::open(&path));
        let decoded = opened.and_then(|mut reader| {
            tr.call("StrcReader::read_all", Layer::Obs, || reader.read_all())
        });
        self.tally.attempted += records.len() as u64;
        let decoded = match decoded {
            Ok(d) => d,
            Err(e) => {
                self.tally.fail(records.len() as u64, || {
                    format!("typed error reading .strc: {e}")
                });
                return;
            }
        };
        let wrong = tr.call("compare records", Layer::Bench, || {
            records.iter().zip(&decoded).filter(|(a, b)| a != b).count()
                + records.len().abs_diff(decoded.len())
        });
        if wrong > 0 {
            self.tally.fail(wrong as u64, || {
                format!(".strc round trip changed {wrong} records")
            });
        }

        self.answers.clear();
        for ((span, _), q) in QUERIES.iter().zip(STRC_QUERIES) {
            self.tally.attempted += 1;
            let mut reader =
                match tr.call("StrcReader::open", Layer::Obs, || StrcReader::open(&path)) {
                    Ok(r) => r,
                    Err(e) => {
                        self.tally.fail(1, || format!("{span}: {e}"));
                        continue;
                    }
                };
            match tr.call(span, Layer::Health, || q(&mut reader, self.p.drill_day)) {
                Ok(answer) => self.answers.push(answer),
                Err(e) => self.tally.fail(1, || format!("{span}: {e}")),
            }
            self.chunks_decoded += reader.chunks_decoded;
            self.chunks_offered += reader.chunk_count() as u64;
        }

        let report = tr.call(
            "HealthMonitor::ingest_trace + report",
            Layer::Health,
            || {
                let mut monitor = HealthMonitor::new(HealthUnit::Days, 7);
                monitor.ingest_trace(&decoded);
                monitor.report()
            },
        );
        self.anomalies = report.anomalies.len() as u64;
        self.health_report_json = serde_json::to_string(&report).expect("report serializes");
    }

    /// Publish, serve, and scrape every endpoint `per_endpoint` times
    /// from one client.
    fn telemetry(&mut self, per_endpoint: u32, tr: &mut Tracer) {
        let live = LiveObs::new();
        let hub = TelemetryHub::new("benchmark", live.clone());
        let label = "obs_pipeline";
        let pub_ = &self.published;
        tr.call("TelemetryHub::publish_health", Layer::Telemetry, || {
            hub.publish_health(label, pub_.health_json.clone())
        });
        tr.call("TelemetryHub::publish_rollups", Layer::Telemetry, || {
            hub.publish_rollups(label, pub_.fleet.clone())
        });
        tr.call("TelemetryHub::publish_latency", Layer::Telemetry, || {
            let anomalies = latency_scan(pub_.latency.iter());
            let json = serde_json::to_string(&anomalies).expect("anomalies serialize");
            hub.publish_latency(label, pub_.latency.clone(), json)
        });
        tr.call("TelemetryHub::publish_cluster", Layer::Telemetry, || {
            let anomalies = cluster_scan(pub_.cluster.iter());
            let json = serde_json::to_string(&anomalies).expect("anomalies serialize");
            hub.publish_cluster(label, pub_.cluster.clone(), json)
        });
        tr.call("LiveObs mirror", Layer::Obs, || {
            live.merge_metrics(&pub_.metrics);
            let tail = self.records.len().saturating_sub(1000);
            for rec in &self.records[tail..] {
                live.trace.push(rec);
            }
        });
        let server = tr.call("TelemetryServer::start", Layer::Telemetry, || {
            TelemetryServer::start("127.0.0.1:0", hub.clone())
        });
        let server = match server {
            Ok(s) => s,
            Err(e) => {
                self.tally.attempted += 1;
                self.tally
                    .fail(1, || format!("telemetry server did not start: {e}"));
                return;
            }
        };
        let addr = server.addr();
        for _ in 0..per_endpoint {
            for (path, span, _) in ENDPOINTS {
                self.tally.attempted += 1;
                self.scrapes += 1;
                match tr.call(span, Layer::Telemetry, || http_get(addr, path)) {
                    Ok((200, _, body)) => {
                        black_box(body);
                    }
                    Ok((status, _, _)) => {
                        self.tally.fail(1, || format!("GET {path}: HTTP {status}"))
                    }
                    Err(e) => self.tally.fail(1, || format!("GET {path}: {e}")),
                }
            }
        }
        tr.call("TelemetryServer::shutdown", Layer::Telemetry, || {
            server.shutdown()
        });
    }
}

impl Workload for ObsPipeline {
    const NAME: &'static str = "obs_pipeline";
    const WORK_UNIT: &'static str = "trace records processed";
    type Params = Params;

    fn params(scale: Scale) -> Params {
        let (target_records, fleet_devices, device_geometry) = match scale {
            Scale::Full => (
                120_000,
                4096,
                FlashGeometry {
                    chips: 2,
                    blocks_per_chip: 32,
                    fpages_per_block: 16,
                    ..FlashGeometry::medium()
                },
            ),
            Scale::Quick => (12_000, 1024, FlashGeometry::small_test()),
        };
        Params {
            target_records,
            strc_rounds: 2,
            strc_chunk_records: DEFAULT_CHUNK_RECORDS,
            scrapes_per_endpoint: 20,
            probe_scrapes_per_endpoint: 120,
            device_geometry,
            fleet_devices,
            cluster_devices: 4,
            drill_day: 360,
            endpoints: ENDPOINTS.map(|e| e.0),
        }
    }

    fn setup(ctx: &Ctx, tr: &mut Tracer) -> Self {
        let p = Self::params(ctx.scale);
        let base = match ctx.scale {
            Scale::Full => SsdConfig::medium(),
            Scale::Quick => SsdConfig::small_test(),
        }
        .geometry(p.device_geometry);

        let device = tr.call("EnduranceSim::run_observed", Layer::Core, || {
            let mut sim = EnduranceSim::new(base.mode(Mode::Regen).seed(ctx.seed));
            sim.workload_seed = ctx.seed;
            sim.run_observed("device", Obs::recording())
        });
        let fleet = tr.call("FleetSim::run_observed", Layer::Fleet, || {
            FleetSim::new(FleetConfig {
                device: StatDeviceConfig {
                    geometry: FlashGeometry::small_test(),
                    ..StatDeviceConfig::datacenter(StatMode::Shrink)
                },
                devices: p.fleet_devices,
                dwpd: 5.0,
                dwpd_sigma: 0.25,
                afr: 0.01,
                horizon_days: 1825,
                sample_every_days: 30,
                seed: ctx.seed,
            })
            .with_engine(FleetEngine::Cohort)
            .run_observed(Threads::Auto, "fleet", &Profiler::disabled())
        });
        let (cluster_trace, cluster_rollups) = tr.call("ClusterHarness run", Layer::Fleet, || {
            let obs = Obs::recording();
            obs.trace.emit(
                SimTime::ZERO,
                TraceEvent::RunMarker {
                    label: "cluster".into(),
                },
            );
            let mut h = ClusterHarness::new(DifsConfig {
                replication: 3,
                chunk_bytes: 256 * 1024,
                recovery_chunks_per_tick: Some(16),
            })
            .with_obs(obs);
            for d in 0..p.cluster_devices {
                h.add_device(base.mode(Mode::Shrink).seed(ctx.seed + 100 + u64::from(d)));
            }
            h.fill(0.7);
            let mut ticks = 0;
            while h.alive_devices() > 0 && ticks < 5000 {
                h.churn(1250);
                ticks += 1;
            }
            (h.obs().trace.take(), h.cluster_rollups())
        });

        // Replicate the three segments to exactly the target size, so
        // that the work does not depend on how long the seed's traces
        // happen to be.
        let mut records: Vec<TraceRecord> = device
            .trace
            .iter()
            .chain(&fleet.trace)
            .chain(&cluster_trace)
            .cycle()
            .take(p.target_records)
            .cloned()
            .collect();
        resequence(&mut records);

        let expected = tr.call(
            "query::* over records (expected answers)",
            Layer::Health,
            || queries(&records, p.drill_day),
        );
        let mut metrics = device.metrics;
        metrics.merge(&fleet.metrics);
        ObsPipeline {
            fault: ctx.fault,
            scratch: ctx.scratch.clone(),
            records,
            expected,
            published: Published {
                health_json: serde_json::to_string(&device.health).expect("report serializes"),
                fleet: fleet.rollups,
                latency: fleet.latency,
                cluster: cluster_rollups,
                metrics,
            },
            jsonl_bytes: 0,
            jsonl_digest: 0,
            strc_bytes: 0,
            answers: Vec::new(),
            health_report_json: String::new(),
            anomalies: 0,
            chunks_decoded: 0,
            chunks_offered: 0,
            scrapes: 0,
            tally: RunOut::default(),
            p,
        }
    }

    fn run(&mut self, tr: &mut Tracer) {
        let stage = tr.begin("stage jsonl", Layer::Bench);
        let text = tr.call("trace::to_jsonl", Layer::Obs, || to_jsonl(&self.records));
        let parsed = tr.call("trace::parse_jsonl", Layer::Obs, || parse_jsonl(&text));
        self.tally.attempted += self.records.len() as u64;
        match parsed {
            Ok(parsed) => {
                let wrong = tr.call("compare records", Layer::Bench, || {
                    self.records
                        .iter()
                        .zip(&parsed)
                        .filter(|(a, b)| a != b)
                        .count()
                        + self.records.len().abs_diff(parsed.len())
                });
                if wrong > 0 {
                    self.tally.fail(wrong as u64, || {
                        format!("JSONL round trip changed {wrong} records")
                    });
                }
            }
            Err(e) => self
                .tally
                .fail(self.records.len() as u64, || format!("parse_jsonl: {e}")),
        }
        self.jsonl_bytes = text.len();
        self.jsonl_digest = tr.call("digest jsonl", Layer::Bench, || hash(text.as_bytes()));
        drop(text);
        tr.end(stage);

        let stage = tr.begin("stage strc", Layer::Bench);
        for round in 0..self.p.strc_rounds {
            self.strc_round(round, tr);
        }
        tr.end(stage);

        let stage = tr.begin("stage telemetry", Layer::Bench);
        self.telemetry(self.p.scrapes_per_endpoint, tr);
        tr.end(stage);
    }

    fn check(&mut self) -> RunOut {
        let mut out = std::mem::take(&mut self.tally);
        // JSONL encode + parse, and per round: encode, decode, fold.
        out.work = self.records.len() as u64 * (2 + 3 * u64::from(self.p.strc_rounds));
        for (((span, _), want), got) in QUERIES.iter().zip(&self.expected).zip(&self.answers) {
            if want != got {
                out.fail(1, || format!("{span} differs from the records-based query"));
            }
        }
        let mut d = Digest::default();
        d.u64(self.jsonl_digest);
        // Every round writes the same bytes; the last file is still
        // there. Streamed, not slurped: a file-sized buffer freed here
        // shifts the allocator under the next iteration's set-up.
        let last = self.p.strc_rounds.saturating_sub(1);
        let streamed = std::fs::File::open(self.scratch.join(format!("trace-{last}.strc")))
            .and_then(|mut file| {
                let mut chunk = [0u8; 64 * 1024];
                let mut total = 0u64;
                loop {
                    match file.read(&mut chunk)? {
                        0 => return Ok(total),
                        n => {
                            d.bytes(&chunk[..n]);
                            total += n as u64;
                        }
                    }
                }
            });
        match streamed {
            Ok(total) => self.strc_bytes = total,
            Err(e) => out.fail(1, || format!("reading back the .strc file: {e}")),
        }
        d.json(&self.answers);
        d.bytes(self.health_report_json.as_bytes());
        out.digest = d.finish();
        out
    }

    fn layer_metrics(
        &mut self,
        _ctx: &Ctx,
        traced: Traced<'_>,
        probe: &mut Tracer,
        out: &mut LayerMetrics,
    ) {
        let run = traced.run;
        let n = self.records.len() as f64;
        let med = |span: &str| median(&run.durations_ns(span));
        out.set("obs.records", n);
        out.set("obs.jsonl_encode_ns_per_rec", med("trace::to_jsonl") / n);
        out.set("obs.jsonl_parse_ns_per_rec", med("trace::parse_jsonl") / n);
        out.set("obs.jsonl_bytes_per_rec", self.jsonl_bytes as f64 / n);
        out.set(
            "obs.strc_encode_ns_per_rec",
            med("StrcWriter::push x N + finish") / n,
        );
        out.set(
            "obs.strc_decode_ns_per_rec",
            med("StrcReader::read_all") / n,
        );
        out.set("obs.strc_open_us", med("StrcReader::open") / 1e3);
        out.set("obs.strc_bytes_per_rec", self.strc_bytes as f64 / n);
        out.set(
            "obs.chunk_decode_share",
            self.chunks_decoded as f64 / self.chunks_offered.max(1) as f64,
        );
        for (span, name) in QUERIES {
            out.set(name, med(span) / 1e6);
        }
        out.set(
            "health.monitor_fold_ms",
            med("HealthMonitor::ingest_trace + report") / 1e6,
        );
        out.set("health.anomalies", self.anomalies as f64);
        let publishes: Vec<f64> = [
            "TelemetryHub::publish_health",
            "TelemetryHub::publish_rollups",
            "TelemetryHub::publish_latency",
            "TelemetryHub::publish_cluster",
        ]
        .iter()
        .flat_map(|s| run.durations_ns(s))
        .collect();
        out.set("telemetry.publish_us", median(&publishes) / 1e3);
        out.set("telemetry.scrapes", self.scrapes as f64);

        // A longer scrape session, for a tail with samples behind it.
        let errors_before = self.tally.failed;
        self.telemetry(self.p.probe_scrapes_per_endpoint, probe);
        let mut all = Vec::new();
        for (_, span, name) in ENDPOINTS {
            let ns = probe.durations_ns(span);
            out.set(name, median(&ns) / 1e3);
            all.extend(ns);
        }
        out.set("telemetry.scrape_p50_us", median(&all) / 1e3);
        out.set("telemetry.scrape_p99_us", percentile(&all, 99.0) / 1e3);
        out.set(
            "telemetry.scrape_errors",
            (self.tally.failed - errors_before) as f64,
        );

        let live = LiveObs::new();
        live.merge_metrics(&self.published.metrics);
        for _ in 0..20 {
            probe.call("LiveObs::render_metrics", Layer::Obs, || {
                black_box(live.render_metrics());
            });
        }
        out.set(
            "obs.metrics_render_us",
            median(&probe.durations_ns("LiveObs::render_metrics")) / 1e3,
        );
    }
}
