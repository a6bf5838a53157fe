//! `difs_repair` — the diFS control plane alone. Salamander multiplies
//! small failures, so the cost per failure handled is the paper's
//! hidden bill; `difs` does all the work here and `ftl` none.
//!
//! Stage `ingest`: `create_chunk` until 60 % full. Stage `minidisk`: 8
//! seeded `fail_unit` per tick, every 4th tick 8 `add_unit` +
//! `retry_pending`, then `tick` + `cluster_rollup`, until half the
//! original units are gone. Stage `device`: on a clone of the
//! post-ingest state, `fail_device` on every other device, 16 ticks
//! apart.
//!
//! Check: `check_invariants()`; every lost chunk is counted (created −
//! lost = still stored); `recovery_bytes` = `re_replications` ×
//! `chunk_bytes`.

use super::{Ctx, RunOut, Scale, Traced, Workload};
use crate::metrics::LayerMetrics;
use crate::spans::{Layer, Tracer};
use crate::util::{median, percentile, Digest, SplitMix};
use salamander_difs::cluster::Cluster;
use salamander_difs::store::{ChunkStore, StoreMetrics};
use salamander_difs::types::{DeviceId, DifsConfig, UnitId};
use salamander_obs::ClusterRollup;
use serde::Serialize;

#[derive(Debug, Clone, Serialize)]
pub struct Params {
    pub nodes: u32,
    pub devices_per_node: u32,
    pub units_per_device: u32,
    pub unit_capacity_chunks: u32,
    pub difs: DifsConfig,
    pub ingest_fill: f64,
    pub fail_units_per_tick: usize,
    pub add_units_every_ticks: u32,
    pub add_units: u32,
    pub invariants_every_ticks: u32,
    pub device_stage_ticks_apart: u32,
}

/// One store and its topology, as a stage leaves them.
struct World {
    cluster: Cluster,
    store: ChunkStore,
    last_rollup: Option<ClusterRollup>,
    invariant_failures: Vec<String>,
    checks: u64,
}

impl World {
    fn settle(&mut self, tick: u32, p: &Params, tr: &mut Tracer) {
        let (cluster, store) = (&mut self.cluster, &mut self.store);
        tr.call("ChunkStore::tick", Layer::Difs, || store.tick(cluster));
        self.last_rollup = Some(tr.call("ChunkStore::cluster_rollup", Layer::Difs, || {
            store.cluster_rollup(cluster)
        }));
        if tick.is_multiple_of(p.invariants_every_ticks) {
            self.verify(tr);
        }
    }

    fn verify(&mut self, tr: &mut Tracer) {
        let verdict = tr.call("ChunkStore::check_invariants", Layer::Difs, || {
            self.store.check_invariants(&self.cluster)
        });
        self.checks += 1;
        self.invariant_failures.extend(verdict.err());
    }
}

pub struct DifsRepair {
    p: Params,
    minidisk: World,
    device: Option<World>,
    devices: Vec<DeviceId>,
    /// Original units in the order the minidisk stage fails them.
    doomed: Vec<UnitId>,
    rng: SplitMix,
    created: u64,
}

impl Workload for DifsRepair {
    const NAME: &'static str = "difs_repair";
    const WORK_UNIT: &'static str = "chunk placements + re-replications";
    type Params = Params;

    fn params(scale: Scale) -> Params {
        let (nodes, units_per_device) = match scale {
            Scale::Full => (12, 128),
            Scale::Quick => (6, 16),
        };
        Params {
            nodes,
            devices_per_node: 2,
            units_per_device,
            unit_capacity_chunks: 4,
            difs: DifsConfig {
                replication: 3,
                chunk_bytes: 256 * 1024,
                recovery_chunks_per_tick: Some(64),
            },
            ingest_fill: 0.6,
            fail_units_per_tick: 8,
            add_units_every_ticks: 4,
            add_units: 8,
            invariants_every_ticks: 16,
            device_stage_ticks_apart: 16,
        }
    }

    fn setup(ctx: &Ctx, tr: &mut Tracer) -> Self {
        let p = Self::params(ctx.scale);
        let mut cluster = Cluster::new();
        let mut devices = Vec::new();
        let mut doomed = Vec::new();
        tr.call("Cluster::add_node/add_device/add_unit", Layer::Difs, || {
            for _ in 0..p.nodes {
                let node = cluster.add_node();
                for _ in 0..p.devices_per_node {
                    let device = cluster.add_device(node);
                    devices.push(device);
                    for _ in 0..p.units_per_device {
                        doomed.push(cluster.add_unit(device, p.unit_capacity_chunks));
                    }
                }
            }
        });
        let mut rng = SplitMix::new(ctx.seed);
        rng.shuffle(&mut doomed);
        doomed.truncate(doomed.len() / 2);
        let store = tr.call("ChunkStore::new", Layer::Difs, || ChunkStore::new(p.difs));
        DifsRepair {
            p,
            minidisk: World {
                cluster,
                store,
                last_rollup: None,
                invariant_failures: Vec::new(),
                checks: 0,
            },
            device: None,
            devices,
            doomed,
            rng,
            created: 0,
        }
    }

    fn run(&mut self, tr: &mut Tracer) {
        let p = &self.p;
        let w = &mut self.minidisk;

        let stage = tr.begin("stage ingest", Layer::Bench);
        let slots = u64::from(p.nodes * p.devices_per_node * p.units_per_device)
            * u64::from(p.unit_capacity_chunks);
        let target = (slots as f64 * p.ingest_fill) as u64 / u64::from(p.difs.replication);
        while self.created < target {
            let placed = tr.call("ChunkStore::create_chunk", Layer::Difs, || {
                w.store.create_chunk(&mut w.cluster)
            });
            if placed.is_err() {
                break;
            }
            self.created += 1;
        }
        tr.end(stage);

        let mut d = tr.call("clone post-ingest state", Layer::Bench, || World {
            cluster: w.cluster.clone(),
            store: w.store.clone(),
            last_rollup: None,
            invariant_failures: Vec::new(),
            checks: 0,
        });

        let stage = tr.begin("stage minidisk", Layer::Bench);
        let mut tick = 0u32;
        for batch in self.doomed.chunks(p.fail_units_per_tick) {
            tick += 1;
            w.store.set_time(tick);
            for &unit in batch {
                tr.call("ChunkStore::fail_unit", Layer::Difs, || {
                    w.store.fail_unit(&mut w.cluster, unit)
                });
            }
            if tick.is_multiple_of(p.add_units_every_ticks) {
                for _ in 0..p.add_units {
                    let device = self.devices[self.rng.below(self.devices.len() as u64) as usize];
                    tr.call("Cluster::add_unit", Layer::Difs, || {
                        w.cluster.add_unit(device, p.unit_capacity_chunks)
                    });
                }
                tr.call("ChunkStore::retry_pending", Layer::Difs, || {
                    w.store.retry_pending(&mut w.cluster)
                });
            }
            w.settle(tick, p, tr);
        }
        tr.end(stage);

        let stage = tr.begin("stage device", Layer::Bench);
        let mut tick = 0u32;
        for &device in self.devices.iter().step_by(2) {
            d.store.set_time(tick + 1);
            tr.call("ChunkStore::fail_device", Layer::Difs, || {
                d.store.fail_device(&mut d.cluster, device)
            });
            for _ in 0..p.device_stage_ticks_apart {
                tick += 1;
                d.store.set_time(tick);
                d.settle(tick, p, tr);
            }
        }
        tr.end(stage);
        self.device = Some(d);
    }

    fn check(&mut self) -> RunOut {
        let mut out = RunOut::default();
        let mut d = Digest::default();
        let chunk_bytes = self.p.difs.chunk_bytes;
        let created = self.created;
        let mut quiet = Tracer::off();
        out.work = created;
        for (stage, w) in [
            ("minidisk", Some(&mut self.minidisk)),
            ("device", self.device.as_mut()),
        ] {
            let w = w.expect("both stages ran");
            w.verify(&mut quiet);
            let m: StoreMetrics = w.store.metrics();
            out.work += m.re_replications;
            out.attempted += created + m.re_replications + w.checks;
            for why in w.invariant_failures.drain(..) {
                out.fail(1, || format!("{stage}: {why}"));
            }
            if m.recovery_bytes != m.re_replications * chunk_bytes {
                out.fail(1, || {
                    format!(
                        "{stage}: {} recovery bytes for {} re-replications",
                        m.recovery_bytes, m.re_replications
                    )
                });
            }
            if created - m.lost_chunks != w.store.chunk_count() {
                out.fail(
                    created.abs_diff(m.lost_chunks + w.store.chunk_count()),
                    || {
                        format!(
                            "{stage}: {created} created, {} lost, {} stored",
                            m.lost_chunks,
                            w.store.chunk_count()
                        )
                    },
                );
            }
            d.json(&m);
            d.json(&w.last_rollup);
        }
        out.digest = d.finish();
        out
    }

    fn layer_metrics(
        &mut self,
        _ctx: &Ctx,
        traced: Traced<'_>,
        _probe: &mut Tracer,
        out: &mut LayerMetrics,
    ) {
        let run = traced.run;
        let med = |span: &str| median(&run.durations_ns(span));
        out.set(
            "difs.create_chunk_us",
            med("ChunkStore::create_chunk") / 1e3,
        );
        out.set("difs.fail_unit_us", med("ChunkStore::fail_unit") / 1e3);
        out.set("difs.fail_device_ms", med("ChunkStore::fail_device") / 1e6);
        let ticks = run.durations_ns("ChunkStore::tick");
        out.set("difs.tick_p50_us", median(&ticks) / 1e3);
        out.set("difs.tick_p99_us", percentile(&ticks, 99.0) / 1e3);
        out.set(
            "difs.retry_pending_us",
            med("ChunkStore::retry_pending") / 1e3,
        );
        out.set("difs.rollup_us", med("ChunkStore::cluster_rollup") / 1e3);
        out.set(
            "difs.invariants_ms",
            med("ChunkStore::check_invariants") / 1e6,
        );
        out.set("difs.stage_s.ingest", run.total_s("stage ingest"));
        out.set("difs.stage_s.minidisk", run.total_s("stage minidisk"));
        out.set("difs.stage_s.device", run.total_s("stage device"));
        let worlds = [Some(&self.minidisk), self.device.as_ref()];
        let metrics: Vec<StoreMetrics> = worlds
            .into_iter()
            .flatten()
            .map(|w| w.store.metrics())
            .collect();
        let sum = |f: fn(&StoreMetrics) -> u64| metrics.iter().map(f).sum::<u64>() as f64;
        out.set("difs.re_replications", sum(|m| m.re_replications));
        out.set("difs.recovery_bytes", sum(|m| m.recovery_bytes));
        out.set("difs.lost_chunks", sum(|m| m.lost_chunks));
        out.set("difs.exposure_chunk_ticks", sum(|m| m.exposure_chunk_ticks));
        out.set(
            "difs.max_under_replicated",
            metrics
                .iter()
                .map(|m| m.max_under_replicated)
                .max()
                .unwrap_or(0) as f64,
        );
    }
}
