//! `device_wear` — the `lifetime` / `ablations` path: write-only churn
//! to death in Baseline, ShrinkS and RegenS through
//! `EnduranceSim::run`, observability disabled. `ftl` + `flash` write,
//! GC and wear-out do nearly all the work; `difs`, `fleet::cohort`,
//! the BCH codec and `obs` do none.
//!
//! The geometry is a quarter of `FlashGeometry::medium()` (same block
//! shape, a quarter of the blocks) so that one three-mode pass takes
//! about half a second and a run holds many of them; host time per
//! accepted write is within a few percent of the medium device's.

use super::{counters, set_device_counters, Ctx, RunOut, Scale, Traced, Workload};
use crate::metrics::LayerMetrics;
use crate::spans::{Layer, Tracer};
use crate::util::{median, mix, percentile, Digest};
use salamander::config::{Mode, SsdConfig};
use salamander::device::{BatchStop, SalamanderSsd};
use salamander::sim::{EnduranceResult, EnduranceSim};
use salamander_flash::array::FlashArray;
use salamander_flash::geometry::FlashGeometry;
use salamander_ftl::ftl::Ftl;
use salamander_ftl::types::{Lba, MdiskId};
use salamander_obs::{SimTime, TraceEvent, TraceHandle};
use salamander_workload::gen::{Workload as OpGen, WorkloadConfig};
use serde::Serialize;
use std::collections::VecDeque;
use std::hint::black_box;

#[derive(Debug, Clone, Serialize)]
pub struct Params {
    pub geometry: FlashGeometry,
    pub base: &'static str,
    pub modes: [&'static str; 3],
    pub probe_ftl_writes: u64,
}

pub struct DeviceWear {
    sims: Vec<EnduranceSim>,
    results: Vec<EnduranceResult>,
}

const RUN_SPANS: [&str; 3] = [
    "EnduranceSim::run.baseline",
    "EnduranceSim::run.shrink",
    "EnduranceSim::run.regen",
];

fn geometry(scale: Scale) -> FlashGeometry {
    match scale {
        Scale::Full => FlashGeometry {
            chips: 2,
            blocks_per_chip: 32,
            ..FlashGeometry::medium()
        },
        Scale::Quick => FlashGeometry::small_test(),
    }
}

fn config(ctx: &Ctx) -> SsdConfig {
    let base = match ctx.scale {
        Scale::Full => SsdConfig::medium(),
        Scale::Quick => SsdConfig::small_test(),
    };
    base.geometry(geometry(ctx.scale)).seed(ctx.seed)
}

fn workload_seed(seed: u64) -> u64 {
    mix(seed ^ 0x0D15_C0DE)
}

impl Workload for DeviceWear {
    const NAME: &'static str = "device_wear";
    const WORK_UNIT: &'static str = "host oPage writes accepted";
    type Params = Params;

    fn params(scale: Scale) -> Params {
        Params {
            geometry: geometry(scale),
            base: match scale {
                Scale::Full => "SsdConfig::medium()",
                Scale::Quick => "SsdConfig::small_test()",
            },
            modes: [
                Mode::Baseline.name(),
                Mode::Shrink.name(),
                Mode::Regen.name(),
            ],
            probe_ftl_writes: 50_000,
        }
    }

    fn setup(ctx: &Ctx, tr: &mut Tracer) -> Self {
        let cfg = config(ctx);
        let sims = Mode::ALL
            .iter()
            .map(|&mode| {
                // `EnduranceSim::run` opens its own device; opening one
                // here checks the configuration and prices that open.
                tr.call("SalamanderSsd::open", Layer::Core, || {
                    black_box(SalamanderSsd::open(cfg.mode(mode)));
                });
                let mut sim = EnduranceSim::new(cfg.mode(mode));
                sim.workload_seed = workload_seed(ctx.seed);
                sim
            })
            .collect();
        DeviceWear {
            sims,
            results: Vec::new(),
        }
    }

    fn run(&mut self, tr: &mut Tracer) {
        self.results = self
            .sims
            .iter()
            .zip(RUN_SPANS)
            .map(|(sim, span)| tr.call(span, Layer::Core, || sim.run()))
            .collect();
    }

    fn check(&mut self) -> RunOut {
        let mut out = RunOut::default();
        let lives: Vec<u64> = self.results.iter().map(|r| r.host_opages_written).collect();
        out.work = lives.iter().sum();
        out.attempted = out.work;
        if !(lives[0] < lives[1] && lives[1] < lives[2]) {
            out.fail(out.attempted, || {
                format!("lifetime order Baseline < ShrinkS < RegenS violated: {lives:?}")
            });
        }
        let mut d = Digest::default();
        d.json(&self.results);
        out.digest = d.finish();
        out
    }

    fn layer_metrics(
        &mut self,
        ctx: &Ctx,
        traced: Traced<'_>,
        probe: &mut Tracer,
        out: &mut LayerMetrics,
    ) {
        for (span, name) in RUN_SPANS.iter().zip([
            "core.endurance_s.baseline",
            "core.endurance_s.shrink",
            "core.endurance_s.regen",
        ]) {
            out.set(name, traced.run.total_s(span));
        }
        out.set(
            "core.open_ms",
            median(&traced.setup.durations_ns("SalamanderSsd::open")) / 1e6,
        );

        // (a) The same three configurations, one layer down: the loop of
        // `EnduranceSim::run` re-driven through `write_batch`.
        let cfg = config(ctx);
        let mut gc_per_batch: Vec<u64> = Vec::new();
        let mut polled = 0u64;
        let mut devices = Vec::new();
        for (&mode, opaque) in Mode::ALL.iter().zip(&self.results) {
            let (ssd, written) = redrive(
                cfg.mode(mode),
                workload_seed(ctx.seed),
                probe,
                &mut gc_per_batch,
                &mut polled,
            );
            assert_eq!(
                written,
                opaque.host_opages_written,
                "write_batch re-drive of {} diverged from EnduranceSim::run",
                mode.name()
            );
            devices.push(ssd);
        }
        let batch_ns = probe.durations_ns("SalamanderSsd::write_batch");
        let batches: Vec<(f64, u64)> = batch_ns.iter().copied().zip(gc_per_batch).collect();
        let writes: u64 = devices.iter().map(|d| d.stats().host_writes).sum();
        out.set(
            "core.sim_write_ns",
            batch_ns.iter().sum::<f64>() / writes as f64,
        );
        out.set("core.poll_events", polled as f64);
        out.set("ftl.batch_p50_us", median(&batch_ns) / 1e3);
        out.set("ftl.batch_p99_us", percentile(&batch_ns, 99.0) / 1e3);
        // A GC pass costs what a batch that ran one took beyond the
        // median batch that ran none.
        let calm: Vec<f64> = batches.iter().filter(|b| b.1 == 0).map(|b| b.0).collect();
        let (gc_ns, gc_batches, gc_passes) = batches
            .iter()
            .filter(|b| b.1 > 0)
            .fold((0.0, 0u64, 0u64), |a, b| (a.0 + b.0, a.1 + 1, a.2 + b.1));
        if gc_passes > 0 {
            let excess = gc_ns - median(&calm) * gc_batches as f64;
            out.set("ftl.gc_pass_us", excess.max(0.0) / gc_passes as f64 / 1e3);
        }

        // (b) The exact counters the layers publish.
        let (_, flash) = set_device_counters(devices.iter().map(counters), out);

        // (c) The counted flash ops replayed on a bare array: what the
        // flash layer alone costs for this much traffic.
        let replay = probe.begin("flash replay", Layer::Bench);
        replay_flash(&cfg, flash.programs, flash.erases, flash.reads, probe);
        probe.end(replay);
        out.set("flash.replay_s", probe.total_s("flash replay"));
        let per_page = cfg.ftl_config().geometry.fpages_per_block as f64;
        out.set(
            "flash.program_ns",
            median(&probe.durations_ns("FlashArray::program x block")) / per_page,
        );
        out.set(
            "flash.erase_ns",
            median(&probe.durations_ns("FlashArray::erase")),
        );

        // Per-call distribution of the FTL write path itself.
        let n = Self::params(ctx.scale).probe_ftl_writes;
        ftl_direct_writes(&cfg.mode(Mode::Shrink), workload_seed(ctx.seed), n, probe);
        out.set("ftl.write_ns", median(&probe.durations_ns("Ftl::write")));

        const GEN_OPS: u32 = 200_000;
        let opages = cfg.ftl_config().geometry.total_opages();
        let mut gen = OpGen::new(WorkloadConfig::write_churn(opages, ctx.seed));
        probe.call("Workload::next_op x200k", Layer::Workload, || {
            for _ in 0..GEN_OPS {
                black_box(gen.next_op());
            }
        });
        out.set(
            "workload.next_op_ns.uniform",
            probe.total_s("Workload::next_op x200k") * 1e9 / f64::from(GEN_OPS),
        );

        // What every emit site costs these runs: tracing is off.
        const EMITS: u32 = 1_000_000;
        let handle = TraceHandle::disabled();
        probe.call("TraceHandle::emit (disabled) x1M", Layer::Obs, || {
            for i in 0..EMITS {
                black_box(&handle).emit(
                    SimTime::ZERO,
                    TraceEvent::GcPass {
                        block: u64::from(i),
                        relocated: 1,
                    },
                );
            }
        });
        out.set(
            "obs.emit_disabled_ns",
            probe.total_s("TraceHandle::emit (disabled) x1M") * 1e9 / f64::from(EMITS),
        );
    }
}

/// The loop of `EnduranceSim::run`, issued by the benchmark through
/// `SalamanderSsd::write_batch` in 64-op batches with a span around
/// each. Batching is bit-identical to serial issue, so the device dies
/// after exactly the writes the opaque call reported.
fn redrive(
    cfg: SsdConfig,
    workload_seed: u64,
    tr: &mut Tracer,
    gc_per_batch: &mut Vec<u64>,
    polled: &mut u64,
) -> (SalamanderSsd, u64) {
    const BATCH: usize = 64;
    let mut ssd = tr.call("SalamanderSsd::open", Layer::Core, || {
        SalamanderSsd::open(cfg)
    });
    let opages = cfg.ftl_config().geometry.total_opages();
    let mut gen = OpGen::new(WorkloadConfig::write_churn(opages, workload_seed));
    let mut mdisks = ssd.minidisks();
    let mut pending: VecDeque<u64> = VecDeque::new();
    let mut ops: Vec<(MdiskId, Lba)> = Vec::with_capacity(BATCH);
    let mut written = 0u64;
    while !ssd.is_dead() {
        if ssd.has_pending_events() {
            *polled += tr.call("SalamanderSsd::poll_events", Layer::Core, || {
                ssd.poll_events().len() as u64
            });
            ssd.minidisks_into(&mut mdisks);
        }
        if mdisks.is_empty() {
            break;
        }
        while pending.len() < BATCH {
            pending.push_back(gen.next_op().addr);
        }
        ops.clear();
        for &addr in pending.iter().take(BATCH) {
            let target = mdisks[(addr % mdisks.len() as u64) as usize];
            let lbas = ssd.minidisk_lbas(target).unwrap_or(1);
            let lba = ((addr / mdisks.len() as u64) % u64::from(lbas)) as u32;
            ops.push((target, Lba(lba)));
        }
        let gc_before = ssd.stats().gc_runs;
        let outcome = tr.call("SalamanderSsd::write_batch", Layer::Core, || {
            ssd.write_batch(&ops)
        });
        gc_per_batch.push(ssd.stats().gc_runs - gc_before);
        pending.drain(..outcome.consumed);
        written += outcome.written;
        match outcome.stop {
            Some(BatchStop::DeviceDead) => break,
            Some(BatchStop::Fatal(e)) => panic!("re-drive write failed: {e}"),
            Some(BatchStop::Events) | None => {}
        }
    }
    (ssd, written)
}

/// Program, read and erase a fresh array as often as the devices did:
/// block after block, fill it, read it back, erase it.
fn replay_flash(cfg: &SsdConfig, programs: u64, erases: u64, reads: u64, tr: &mut Tracer) {
    let ftl = cfg.ftl_config();
    let geom = ftl.geometry;
    let mut array = FlashArray::new(geom, ftl.rber, ftl.seed);
    let (mut p, mut e, mut r) = (programs, erases, reads);
    // Programs the devices never erased again land on fresh blocks, of
    // which there are at most `total_blocks`.
    let mut unerased = 0;
    let blocks: Vec<_> = geom.blocks().collect();
    for &block in blocks.iter().cycle() {
        if (p == 0 && e == 0) || unerased == geom.total_blocks() {
            break;
        }
        let n = p.min(u64::from(geom.fpages_per_block)) as usize;
        p -= n as u64;
        if n > 0 {
            tr.call("FlashArray::program x block", Layer::Flash, || {
                for fp in geom.fpages_in(block).take(n) {
                    array.program(fp, None).expect("replay program");
                }
            });
        }
        let k = r.min(n as u64) as usize;
        r -= k as u64;
        if k > 0 {
            tr.call("FlashArray::read x block", Layer::Flash, || {
                for fp in geom.fpages_in(block).take(k) {
                    black_box(array.read(fp).expect("replay read"));
                }
            });
        }
        if e > 0 {
            e -= 1;
            tr.call("FlashArray::erase", Layer::Flash, || {
                array.erase(block).expect("replay erase")
            });
        } else {
            unerased += 1;
        }
    }
}

/// `n` uniform synthetic writes straight into `Ftl::write`, a span each.
fn ftl_direct_writes(cfg: &SsdConfig, workload_seed: u64, n: u64, tr: &mut Tracer) {
    let mut ftl = tr.call("Ftl::new", Layer::Ftl, || Ftl::new(*cfg.ftl_config()));
    let opages = cfg.ftl_config().geometry.total_opages();
    let mut gen = OpGen::new(WorkloadConfig::write_churn(opages, workload_seed));
    let mut mdisks = ftl.active_mdisks();
    for _ in 0..n {
        if ftl.is_dead() || mdisks.is_empty() {
            break;
        }
        let addr = gen.next_op().addr;
        let target = mdisks[(addr % mdisks.len() as u64) as usize];
        let lbas = ftl.mdisk_lbas(target).unwrap_or(1);
        let lba = Lba(((addr / mdisks.len() as u64) % u64::from(lbas)) as u32);
        let _ = tr.call("Ftl::write", Layer::Ftl, || ftl.write(target, lba, None));
        if ftl.pending_events() > 0 {
            ftl.drain_events().for_each(drop);
            ftl.active_mdisks_into(&mut mdisks);
        }
    }
}
