//! `fleet_sweep` — the fig3a / fig3b path: `FleetSim::run_observed` on
//! `Threads::Auto` over small-geometry devices for five simulated
//! years, in three configurations. Long-lived devices (Regen L3 at
//! 1 DWPD) are dominated by per-day ageing, write-hot ones (ShrinkS and
//! Baseline at 5 DWPD) by per-device set-up and the reduce, so both
//! halves of the cohort engine are priced. `fleet` + `exec` do the
//! work, `ftl` none; the one workload where `peak_rss_mb` is a
//! headline.
//!
//! Set-up runs each configuration once at a sixteenth of the fleet, so
//! the timed runs start with warm allocator arenas and page tables (a
//! cold first run is up to a third slower, which would make iteration 1
//! an outlier and says nothing about the engine).
//!
//! Check: alive + wear deaths + AFR deaths = devices at the last
//! sample; timeline, trace and rollups feed the digest, which must not
//! depend on the thread count.

use super::{digest_trace, Ctx, RunOut, Scale, Traced, Workload};
use crate::metrics::LayerMetrics;
use crate::spans::{Layer, Tracer};
use crate::util::{median, vm_hwm_kib, Digest};
use salamander_ecc::profile::Tiredness;
use salamander_exec::Threads;
use salamander_flash::geometry::FlashGeometry;
use salamander_fleet::device::{StatDeviceConfig, StatMode};
use salamander_fleet::sim::{FleetConfig, FleetEngine, FleetSim, ObservedFleetRun};
use salamander_obs::Profiler;
use serde::Serialize;
use std::hint::black_box;

#[derive(Debug, Clone, Serialize)]
pub struct Params {
    pub devices: u32,
    pub warmup_devices: u32,
    pub horizon_days: u32,
    pub sample_every_days: u32,
    pub dwpd_sigma: f64,
    pub afr: f64,
    pub geometry: FlashGeometry,
    pub engine: &'static str,
    pub configs: [&'static str; 3],
}

const CONFIGS: [(&str, &str); 3] = [
    ("regen3@1dwpd", "FleetSim::run_observed.regen3"),
    ("shrink@5dwpd", "FleetSim::run_observed.shrink"),
    ("baseline@5dwpd", "FleetSim::run_observed.baseline"),
];

fn sims(p: &Params, devices: u32, seed: u64) -> Vec<FleetSim> {
    let regen3 = StatMode::Regen {
        max_level: Tiredness::L3,
    };
    [
        (regen3, 1.0),
        (StatMode::Shrink, 5.0),
        (StatMode::Baseline, 5.0),
    ]
    .into_iter()
    .map(|(mode, dwpd)| {
        // The engine is pinned: the environment must not pick it.
        FleetSim::new(FleetConfig {
            device: StatDeviceConfig {
                geometry: p.geometry,
                ..StatDeviceConfig::datacenter(mode)
            },
            devices,
            dwpd,
            dwpd_sigma: p.dwpd_sigma,
            afr: p.afr,
            horizon_days: p.horizon_days,
            sample_every_days: p.sample_every_days,
            seed,
        })
        .with_engine(FleetEngine::Cohort)
    })
    .collect()
}

fn digest(runs: &[ObservedFleetRun]) -> u64 {
    let mut d = Digest::default();
    for r in runs {
        d.json(&r.timeline);
        d.json(&r.rollups);
        d.json(&r.latency);
        d.json(&r.health);
        d.bytes(r.metrics.render().as_bytes());
        digest_trace(&mut d, &r.trace);
    }
    d.finish()
}

pub struct FleetSweep {
    p: Params,
    sims: Vec<FleetSim>,
    runs: Vec<ObservedFleetRun>,
}

impl FleetSweep {
    /// Alive-device days over the sampled grid: exact per seed.
    fn device_days(&self) -> u64 {
        self.runs
            .iter()
            .map(|r| {
                r.timeline
                    .samples
                    .windows(2)
                    .map(|w| u64::from(w[0].alive) * u64::from(w[1].day - w[0].day))
                    .sum::<u64>()
            })
            .sum()
    }
}

impl Workload for FleetSweep {
    const NAME: &'static str = "fleet_sweep";
    const WORK_UNIT: &'static str = "device-days simulated";
    type Params = Params;

    fn params(scale: Scale) -> Params {
        // Multiples of the 2048-device cohort shard, so shards divide
        // evenly among up to 8 threads.
        let devices = match scale {
            Scale::Full => 16_384,
            Scale::Quick => 4_096,
        };
        Params {
            devices,
            warmup_devices: devices / 16,
            horizon_days: 1825,
            sample_every_days: 30,
            dwpd_sigma: 0.25,
            afr: 0.01,
            geometry: FlashGeometry::small_test(),
            engine: "cohort",
            configs: [CONFIGS[0].0, CONFIGS[1].0, CONFIGS[2].0],
        }
    }

    fn setup(ctx: &Ctx, tr: &mut Tracer) -> Self {
        let p = Self::params(ctx.scale);
        for sim in sims(&p, p.warmup_devices, ctx.seed) {
            tr.call("FleetSim::run_observed (warm-up)", Layer::Fleet, || {
                black_box(sim.run_observed(Threads::Auto, "", &Profiler::disabled()));
            });
        }
        FleetSweep {
            sims: sims(&p, p.devices, ctx.seed),
            p,
            runs: Vec::new(),
        }
    }

    fn run(&mut self, tr: &mut Tracer) {
        self.runs = self
            .sims
            .iter()
            .zip(CONFIGS)
            .map(|(sim, (label, span))| {
                tr.call(span, Layer::Fleet, || {
                    sim.run_observed(Threads::Auto, label, &Profiler::disabled())
                })
            })
            .collect();
    }

    fn check(&mut self) -> RunOut {
        let mut out = RunOut {
            work: self.device_days(),
            digest: digest(&self.runs),
            ..RunOut::default()
        };
        for (r, (label, _)) in self.runs.iter().zip(CONFIGS) {
            out.attempted += u64::from(self.p.devices);
            let last = r.timeline.samples.last().expect("non-empty timeline");
            let accounted =
                u64::from(last.alive) + u64::from(last.wear_deaths) + u64::from(last.afr_deaths);
            if accounted != u64::from(self.p.devices) {
                out.fail(accounted.abs_diff(u64::from(self.p.devices)), || {
                    format!(
                        "{label}: {accounted} of {} devices accounted for",
                        self.p.devices
                    )
                });
            }
        }
        out
    }

    fn layer_metrics(
        &mut self,
        _ctx: &Ctx,
        traced: Traced<'_>,
        probe: &mut Tracer,
        out: &mut LayerMetrics,
    ) {
        let names = [
            "fleet.run_s.regen3",
            "fleet.run_s.shrink",
            "fleet.run_s.baseline",
        ];
        let mut auto_s = 0.0;
        for ((_, span), name) in CONFIGS.iter().zip(names) {
            out.set(name, traced.run.total_s(span));
            auto_s += traced.run.total_s(span);
        }
        out.set(
            "fleet.ns_per_device_day",
            auto_s * 1e9 / (3.0 * f64::from(self.p.devices) * f64::from(self.p.horizon_days)),
        );
        out.set("fleet.device_days", self.device_days() as f64);
        let last = |f: fn(&salamander_fleet::sim::FleetSample) -> u32| {
            self.runs
                .iter()
                .map(|r| u64::from(f(r.timeline.samples.last().expect("non-empty timeline"))))
                .sum::<u64>() as f64
        };
        out.set("fleet.deaths_wear", last(|s| s.wear_deaths));
        out.set("fleet.deaths_afr", last(|s| s.afr_deaths));
        out.set(
            "fleet.bytes_per_device",
            vm_hwm_kib() as f64 * 1024.0 / f64::from(self.p.devices),
        );

        // What the observed run adds over the bare timeline.
        let plain = probe.begin("FleetSim::run_threads.regen3", Layer::Fleet);
        black_box(self.sims[0].run_threads(Threads::Auto));
        probe.end(plain);
        out.set(
            "fleet.observe_extra_s",
            traced.run.total_s(CONFIGS[0].1) - probe.total_s("FleetSim::run_threads.regen3"),
        );

        // One thread against all of them: same digest, and the ratio of
        // the two wall times is the parallel speed-up.
        let threads = Threads::Auto.resolve();
        out.set("exec.threads", threads as f64);
        let serial: Vec<ObservedFleetRun> = self
            .sims
            .iter()
            .zip(CONFIGS)
            .map(|(sim, (label, _))| {
                probe.call("FleetSim::run_observed (1 thread)", Layer::Fleet, || {
                    sim.run_observed(Threads::fixed(1), label, &Profiler::disabled())
                })
            })
            .collect();
        assert_eq!(
            digest(&serial),
            digest(&self.runs),
            "Threads::fixed(1) and Threads::Auto disagree"
        );
        if threads > 1 {
            out.set(
                "exec.scaling",
                probe.total_s("FleetSim::run_observed (1 thread)") / auto_s,
            );
        }

        let items: Vec<u64> = (0..2 * threads as u64).collect();
        for _ in 0..50 {
            probe.call("par_map (no-op items)", Layer::Exec, || {
                black_box(salamander_exec::par_map(Threads::Auto, &items, |_, &x| {
                    x + 1
                }));
            });
        }
        out.set(
            "exec.par_map_overhead_us",
            median(&probe.durations_ns("par_map (no-op items)")) / 1e3,
        );

        // Closed-form arithmetic downstream of the fleet results.
        for _ in 0..50 {
            probe.call("carbon + TCO tables", Layer::Sustain, || {
                black_box(salamander_sustain::carbon::fig4_scenarios());
                for t in [
                    salamander_sustain::tco::TcoParams::shrink(),
                    salamander_sustain::tco::TcoParams::regen(),
                ] {
                    black_box((t.savings(), t.with_opex(0.5).savings()));
                }
            });
        }
        out.set(
            "sustain.model_us",
            median(&probe.durations_ns("carbon + TCO tables")) / 1e3,
        );
    }
}
