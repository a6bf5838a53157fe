//! `cluster_recovery` — the paper's §4.3 experiment and the only
//! cross-layer run: real FTL devices wired to the diFS chunk store by
//! `fleet::bridge::ClusterHarness`, churned to exhaustion in all three
//! modes with `Obs::recording()`, so the cost of emitting trace events
//! under a real FTL is priced here and nowhere else.
//!
//! Check: `check_invariants()` every 10 ticks and at the end, and the
//! store's `lost_chunks` equals the `ChunkLost` events in the trace.

use super::{counters, digest_trace, set_device_counters, Ctx, RunOut, Scale, Traced, Workload};
use crate::metrics::LayerMetrics;
use crate::spans::{Layer, Tracer};
use crate::util::{median, percentile, Digest};
use salamander::config::{Mode, SsdConfig};
use salamander_difs::store::StoreMetrics;
use salamander_difs::types::DifsConfig;
use salamander_flash::geometry::FlashGeometry;
use salamander_fleet::bridge::ClusterHarness;
use salamander_obs::{Obs, SimTime, TraceEvent, TraceHandle, TraceRecord};
use serde::Serialize;

#[derive(Debug, Clone, Serialize)]
pub struct Params {
    pub devices: usize,
    pub geometry: FlashGeometry,
    pub base: &'static str,
    pub difs: DifsConfig,
    pub msize_bytes: u64,
    pub fill_fraction: f64,
    pub churn_writes_per_tick: u64,
    pub invariants_every_ticks: u32,
    pub max_ticks: u32,
    pub modes: [&'static str; 3],
}

struct Cluster {
    harness: ClusterHarness,
    chunks_created: u64,
    ticks: u32,
    invariant_failures: Vec<String>,
    trace: Vec<TraceRecord>,
}

pub struct ClusterRecovery {
    params: Params,
    clusters: Vec<Cluster>,
}

impl Workload for ClusterRecovery {
    const NAME: &'static str = "cluster_recovery";
    const WORK_UNIT: &'static str = "host oPage writes accepted across devices";
    type Params = Params;

    fn params(scale: Scale) -> Params {
        let (devices, geometry, base, msize_bytes, churn) = match scale {
            // A sixteenth of `medium()` per device: 64 blocks of 16 pages.
            Scale::Full => (
                6,
                FlashGeometry {
                    chips: 2,
                    blocks_per_chip: 32,
                    fpages_per_block: 16,
                    ..FlashGeometry::medium()
                },
                "SsdConfig::medium()",
                1024 * 1024,
                1250,
            ),
            Scale::Quick => (
                4,
                FlashGeometry::small_test(),
                "SsdConfig::small_test()",
                256 * 1024,
                2500,
            ),
        };
        Params {
            devices,
            geometry,
            base,
            difs: DifsConfig {
                replication: 3,
                chunk_bytes: 256 * 1024,
                recovery_chunks_per_tick: Some(16),
            },
            msize_bytes,
            fill_fraction: 0.7,
            churn_writes_per_tick: churn,
            invariants_every_ticks: 10,
            max_ticks: 5000,
            modes: [
                Mode::Baseline.name(),
                Mode::Shrink.name(),
                Mode::Regen.name(),
            ],
        }
    }

    fn setup(ctx: &Ctx, tr: &mut Tracer) -> Self {
        let params = Self::params(ctx.scale);
        let base = match ctx.scale {
            Scale::Full => SsdConfig::medium(),
            Scale::Quick => SsdConfig::small_test(),
        };
        let clusters = Mode::ALL
            .iter()
            .map(|&mode| {
                let mut harness = ClusterHarness::new(params.difs).with_obs(Obs::recording());
                for d in 0..params.devices {
                    let cfg = base
                        .geometry(params.geometry)
                        .msize_bytes(params.msize_bytes)
                        .mode(mode)
                        .seed(ctx.seed.wrapping_add(d as u64));
                    tr.call("ClusterHarness::add_device", Layer::Fleet, || {
                        harness.add_device(cfg)
                    });
                }
                let chunks_created = tr.call("ClusterHarness::fill", Layer::Fleet, || {
                    harness.fill(params.fill_fraction)
                });
                Cluster {
                    harness,
                    chunks_created,
                    ticks: 0,
                    invariant_failures: Vec::new(),
                    trace: Vec::new(),
                }
            })
            .collect();
        ClusterRecovery { params, clusters }
    }

    fn run(&mut self, tr: &mut Tracer) {
        let p = &self.params;
        for c in &mut self.clusters {
            let frame = tr.begin("cluster to exhaustion", Layer::Bench);
            while c.harness.alive_devices() > 0 && c.ticks < p.max_ticks {
                tr.call("ClusterHarness::churn", Layer::Fleet, || {
                    c.harness.churn(p.churn_writes_per_tick)
                });
                c.ticks += 1;
                if c.ticks.is_multiple_of(p.invariants_every_ticks) {
                    let verdict = tr.call("ClusterHarness::check_invariants", Layer::Fleet, || {
                        c.harness.check_invariants()
                    });
                    c.invariant_failures.extend(verdict.err());
                }
            }
            c.trace = tr.call("TraceHandle::take", Layer::Obs, || {
                c.harness.obs().trace.take()
            });
            tr.end(frame);
        }
    }

    fn check(&mut self) -> RunOut {
        let mut out = RunOut::default();
        let mut d = Digest::default();
        for c in &mut self.clusters {
            c.invariant_failures
                .extend(c.harness.check_invariants().err());
            let checks = u64::from(c.ticks / self.params.invariants_every_ticks) + 1;
            out.attempted += checks + c.chunks_created;
            for why in c.invariant_failures.drain(..) {
                out.fail(1, || why);
            }
            let m: StoreMetrics = c.harness.metrics();
            let lost_events = c
                .trace
                .iter()
                .filter(|r| matches!(r.event, TraceEvent::ChunkLost { .. }))
                .count() as u64;
            if lost_events != m.lost_chunks {
                out.fail(m.lost_chunks.abs_diff(lost_events), || {
                    format!(
                        "{} chunks lost, {lost_events} ChunkLost events traced",
                        m.lost_chunks
                    )
                });
            }
            let stats: Vec<_> = (0..self.params.devices)
                .map(|i| counters(c.harness.ssd(i)))
                .collect();
            out.work += stats.iter().map(|s| s.0.host_writes).sum::<u64>();
            d.json(&m);
            d.json(&stats);
            d.json(&c.harness.cluster_rollups());
            digest_trace(&mut d, &c.trace);
        }
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
        let churn_ns = traced.run.durations_ns("ClusterHarness::churn");
        out.set("fleet.harness_churn_s", churn_ns.iter().sum::<f64>() / 1e9);
        out.set(
            "fleet.harness_tick_p99_ms",
            percentile(&churn_ns, 99.0) / 1e6,
        );
        out.set(
            "fleet.harness_fill_s",
            traced.setup.total_s("ClusterHarness::fill"),
        );
        let created: u64 = self.clusters.iter().map(|c| c.chunks_created).sum();
        out.set(
            "difs.create_chunk_us",
            traced.setup.total_s("ClusterHarness::fill") * 1e6 / created.max(1) as f64,
        );
        out.set(
            "core.open_ms",
            median(&traced.setup.durations_ns("ClusterHarness::add_device")) / 1e6,
        );
        out.set(
            "difs.invariants_ms",
            median(&traced.run.durations_ns("ClusterHarness::check_invariants")) / 1e6,
        );
        let devices = self.params.devices;
        set_device_counters(
            self.clusters
                .iter()
                .flat_map(|c| (0..devices).map(|i| counters(c.harness.ssd(i)))),
            out,
        );
        let sum = |f: fn(&StoreMetrics) -> u64| {
            self.clusters
                .iter()
                .map(|c| f(&c.harness.metrics()))
                .sum::<u64>() as f64
        };
        out.set("difs.re_replications", sum(|m| m.re_replications));
        out.set("difs.recovery_bytes", sum(|m| m.recovery_bytes));
        out.set("difs.lost_chunks", sum(|m| m.lost_chunks));
        out.set("difs.exposure_chunk_ticks", sum(|m| m.exposure_chunk_ticks));
        out.set(
            "difs.max_under_replicated",
            self.clusters
                .iter()
                .map(|c| c.harness.metrics().max_under_replicated)
                .max()
                .unwrap_or(0) as f64,
        );
        let records: usize = self.clusters.iter().map(|c| c.trace.len()).sum();
        out.set("obs.records", records as f64);
        out.set(
            "obs.dropped_records",
            self.clusters
                .iter()
                .map(|c| c.harness.obs().trace.dropped())
                .sum::<u64>() as f64,
        );

        // What one recorded event costs at the emit site.
        const EMITS: u32 = 200_000;
        let handle = TraceHandle::recording();
        probe.call("TraceHandle::emit (recording) x200k", Layer::Obs, || {
            for i in 0..EMITS {
                handle.emit(
                    SimTime::new(0, u64::from(i)),
                    TraceEvent::GcPass {
                        block: u64::from(i),
                        relocated: 3,
                    },
                );
            }
        });
        assert_eq!(handle.take().len(), EMITS as usize);
        out.set(
            "obs.emit_ns",
            probe.total_s("TraceHandle::emit (recording) x200k") * 1e9 / f64::from(EMITS),
        );
    }
}
