//! The seven workloads. Each is a closed loop with one driver thread;
//! the only extra threads are the program's own (`Threads::Auto` in
//! `fleet_sweep`, the telemetry server in `obs_pipeline`).
//!
//! One *iteration* is `setup` (untimed region, reported as `setup_s`)
//! followed by `run` (the timed region). Every iteration starts from
//! the seed alone, so all iterations of a process — and of any other
//! process given the same seed — must produce the same `sim_digest`.

pub mod cluster_recovery;
pub mod device_mixed;
pub mod device_wear;
pub mod difs_repair;
pub mod ecc_datapath;
pub mod fleet_sweep;
pub mod obs_pipeline;

use crate::metrics::LayerMetrics;
use crate::spans::Tracer;
use crate::util::Digest;
use salamander::device::SalamanderSsd;
use salamander_flash::stats::FlashStats;
use salamander_ftl::stats::FtlStats;
use salamander_obs::TraceRecord;
use serde::Serialize;
use std::path::PathBuf;

pub const NAMES: [&str; 7] = [
    "device_wear",
    "device_mixed",
    "ecc_datapath",
    "cluster_recovery",
    "difs_repair",
    "fleet_sweep",
    "obs_pipeline",
];

/// Problem size: the measured one, or a tiny one for `--quick`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Quick,
}

/// Damage `--quick` inflicts behind a workload's back to prove its
/// output check can fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// `device_mixed`: one stored payload differs from the one recorded.
    Payload,
    /// `ecc_datapath`: one codeword takes more than `t` extra flips
    /// after the checker counted the injected ones.
    Codeword,
    /// `obs_pipeline`: one byte of the `.strc` file flips on disk.
    StrcByte,
}

/// Everything a workload needs from the outside.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub seed: u64,
    pub scale: Scale,
    pub fault: Option<Fault>,
    /// Private directory for files the workload writes; the runner
    /// creates it under `benchmark/out/` and removes it.
    pub scratch: PathBuf,
}

/// What one timed region did.
#[derive(Debug, Clone, Default)]
pub struct RunOut {
    /// Work units completed (the workload's stated unit, exact per seed).
    pub work: u64,
    /// Operations the output check covered …
    pub attempted: u64,
    /// … and those it found neither correct nor reported as a typed loss.
    pub failed: u64,
    /// Digest of the serialized simulated results.
    pub digest: u64,
    /// First few failed checks, for the log.
    pub complaints: Vec<String>,
}

impl RunOut {
    /// Count one failed check and keep its message if few so far.
    pub fn fail(&mut self, n: u64, why: impl FnOnce() -> String) {
        self.failed += n;
        if self.complaints.len() < 5 {
            self.complaints.push(why());
        }
    }
}

pub trait Workload: Sized {
    const NAME: &'static str;
    const WORK_UNIT: &'static str;
    type Params: Serialize;

    fn params(scale: Scale) -> Self::Params;

    /// Everything before the timed region: building devices,
    /// preconditioning, generating inputs.
    fn setup(ctx: &Ctx, tr: &mut Tracer) -> Self;

    /// The timed region. Only checks that are part of the closed loop
    /// (a client comparing what it read) belong here.
    fn run(&mut self, tr: &mut Tracer);

    /// After the clock is read: verify the outputs of [`Self::run`] and
    /// digest the simulated results.
    fn check(&mut self) -> RunOut;

    /// Traced run only: turn the spans of the traced iteration and
    /// extra probes of the layers below (recorded into `probe`) into
    /// per-layer metrics.
    fn layer_metrics(
        &mut self,
        ctx: &Ctx,
        traced: Traced<'_>,
        probe: &mut Tracer,
        out: &mut LayerMetrics,
    );
}

/// The spans of the traced iteration, by region.
#[derive(Debug, Clone, Copy)]
pub struct Traced<'a> {
    pub setup: &'a Tracer,
    pub run: &'a Tracer,
}

/// The exact counters a device publishes, copied at one instant.
pub fn counters(ssd: &SalamanderSsd) -> (FtlStats, FlashStats) {
    (*ssd.stats(), *ssd.flash_stats())
}

/// Sum device counter snapshots into the `ftl.*` / `flash.*` count
/// metrics, and hand the sums back.
pub fn set_device_counters(
    snapshots: impl IntoIterator<Item = (FtlStats, FlashStats)>,
    out: &mut LayerMetrics,
) -> (FtlStats, FlashStats) {
    let mut ftl = FtlStats::default();
    let mut flash = FlashStats::default();
    for (s, f) in snapshots {
        ftl.host_writes += s.host_writes;
        ftl.host_reads += s.host_reads;
        ftl.opages_programmed += s.opages_programmed;
        ftl.relocated_opages += s.relocated_opages;
        ftl.gc_runs += s.gc_runs;
        ftl.mdisks_decommissioned += s.mdisks_decommissioned;
        ftl.mdisks_regenerated += s.mdisks_regenerated;
        ftl.uncorrectable_reads += s.uncorrectable_reads;
        ftl.buffer_hits += s.buffer_hits;
        flash.programs += f.programs;
        flash.reads += f.reads;
        flash.erases += f.erases;
        flash.retry_reads += f.retry_reads;
        flash.busy_us += f.busy_us;
    }
    out.set("ftl.host_writes", ftl.host_writes as f64);
    out.set("ftl.host_reads", ftl.host_reads as f64);
    out.set("ftl.opages_programmed", ftl.opages_programmed as f64);
    out.set("ftl.relocated_opages", ftl.relocated_opages as f64);
    out.set("ftl.gc_runs", ftl.gc_runs as f64);
    out.set("ftl.write_amp", ftl.write_amplification().unwrap_or(0.0));
    out.set("ftl.uncorrectable_reads", ftl.uncorrectable_reads as f64);
    out.set("ftl.decommissions", ftl.mdisks_decommissioned as f64);
    out.set("ftl.regenerations", ftl.mdisks_regenerated as f64);
    if ftl.host_reads > 0 {
        out.set(
            "ftl.buffer_hit_share",
            ftl.buffer_hits as f64 / ftl.host_reads as f64,
        );
    }
    out.set("flash.programs", flash.programs as f64);
    out.set("flash.reads", flash.reads as f64);
    out.set("flash.erases", flash.erases as f64);
    out.set("flash.retry_reads", flash.retry_reads as f64);
    out.set("flash.sim_busy_s", flash.busy_us / 1e6);
    (ftl, flash)
}

/// Fold a trace into `d` through the `.strc` record encoding (every
/// field, an order of magnitude cheaper than JSON).
pub fn digest_trace(d: &mut Digest, records: &[TraceRecord]) {
    let mut buf = Vec::new();
    for rec in records {
        buf.clear();
        salamander_obs::strc::encode_record(rec, &mut buf);
        d.bytes(&buf);
    }
    d.u64(records.len() as u64);
}

/// Run `$body` with `$W` bound to the workload type called `$name`.
#[macro_export]
macro_rules! with_workload {
    ($name:expr, $W:ident => $body:expr) => {
        match $name {
            "device_wear" => {
                type $W = $crate::workloads::device_wear::DeviceWear;
                Some($body)
            }
            "device_mixed" => {
                type $W = $crate::workloads::device_mixed::DeviceMixed;
                Some($body)
            }
            "ecc_datapath" => {
                type $W = $crate::workloads::ecc_datapath::EccDatapath;
                Some($body)
            }
            "cluster_recovery" => {
                type $W = $crate::workloads::cluster_recovery::ClusterRecovery;
                Some($body)
            }
            "difs_repair" => {
                type $W = $crate::workloads::difs_repair::DifsRepair;
                Some($body)
            }
            "fleet_sweep" => {
                type $W = $crate::workloads::fleet_sweep::FleetSweep;
                Some($body)
            }
            "obs_pipeline" => {
                type $W = $crate::workloads::obs_pipeline::ObsPipeline;
                Some($body)
            }
            _ => None,
        }
    };
}
