//! `device_mixed` — the same layers as `device_wear`, used differently:
//! reads beside writes, zipfian beside uniform, multi-page ops, and
//! 4 KiB payloads that are really stored. A write-path win that costs
//! the read path, the write buffer or payload copies shows here and not
//! in `device_wear`.
//!
//! Two slow-wear devices (nobody dies), each preconditioned by one full
//! fill in set-up: stage A replays `Profile::Oltp` on RegenS, stage B
//! `Profile::ObjectStore` on ShrinkS. The geometry keeps the block
//! count of `FlashGeometry::medium()` (so over-provisioning and the GC
//! reserve keep their proportions) with a quarter of the pages per
//! block, so a filled device is 64 MiB of resident payload, not 256.
//!
//! Check: payload = f(address, version). Every read in the loop, and a
//! read-back of every LBA after the clock stops, must return the last
//! acknowledged write or a typed `FtlError`.
//!
//! # Why `hot_cold_separation` is off
//!
//! On the commit this benchmark was written against, that check fails
//! with the default configuration: a host rewrite of an LBA whose
//! relocated copy is still waiting in the GC stream's write buffer is
//! dropped when the host stream flushes (`Ftl::flush_one` skips an entry
//! whose key the *other* buffer holds, taking that copy for the newer
//! one), the relocated copy is bound instead, and reads return the
//! previous version without any error. With one write stream there is
//! one buffer and a rewrite replaces the waiting copy in place. The
//! workload must not fail on its reference commit, so it runs with one
//! stream; the traced run replays stage A on the default configuration
//! and reports what it finds as `ftl.stale_reads_hot_cold`. When that
//! reads 0, switch this workload back to the default in a change of its
//! own.

use super::{counters, set_device_counters, Ctx, Fault, RunOut, Scale, Traced, Workload};
use crate::metrics::LayerMetrics;
use crate::spans::{Layer, Tracer};
use crate::util::{median, mix, Digest};
use salamander::config::{Mode, SsdConfig};
use salamander::device::SalamanderSsd;
use salamander_flash::array::FlashArray;
use salamander_flash::geometry::FlashGeometry;
use salamander_flash::rber::RberModel;
use salamander_flash::stats::FlashStats;
use salamander_ftl::ftl::Ftl;
use salamander_ftl::stats::FtlStats;
use salamander_ftl::types::{FtlError, Lba, MdiskId};
use salamander_workload::gen::{Op, OpKind, Workload as OpGen};
use salamander_workload::profiles::Profile;
use serde::Serialize;
use std::hint::black_box;

#[derive(Debug, Clone, Serialize)]
pub struct Params {
    pub geometry: FlashGeometry,
    pub rber: &'static str,
    pub hot_cold_separation: bool,
    pub stage_a: &'static str,
    pub stage_b: &'static str,
    pub opage_ops_per_stage: u64,
    pub payload_bytes: u32,
    pub probe_ftl_ops: u64,
}

fn geometry(scale: Scale) -> FlashGeometry {
    match scale {
        Scale::Full => FlashGeometry {
            fpages_per_block: 16,
            ..FlashGeometry::medium()
        },
        // Not `small_test()`: with 16 blocks a full device sheds
        // minidisks for GC headroom before any page has worn.
        Scale::Quick => FlashGeometry {
            blocks_per_chip: 16,
            fpages_per_block: 16,
            ..FlashGeometry::medium()
        },
    }
}

fn ops_per_stage(scale: Scale) -> u64 {
    match scale {
        Scale::Full => 100_000,
        Scale::Quick => 4_000,
    }
}

fn config(ctx: &Ctx, mode: Mode, hot_cold_separation: bool) -> SsdConfig {
    let cfg = SsdConfig::medium()
        .geometry(geometry(ctx.scale))
        .rber(RberModel::default())
        .mode(mode)
        .seed(ctx.seed);
    if hot_cold_separation {
        return cfg;
    }
    // The flag has no builder method; the serialized form is the public
    // way to reach it.
    let on = "\"hot_cold_separation\":true";
    let json = serde_json::to_string(&cfg).expect("config serializes");
    assert!(json.contains(on), "SsdConfig no longer serializes the flag");
    serde_json::from_str(&json.replace(on, "\"hot_cold_separation\":false"))
        .expect("config deserializes")
}

const STEP: u64 = 0x9E37_79B9_7F4A_7C15;

fn key(stage: usize, addr: u64, version: u32) -> u64 {
    mix(addr << 32 | u64::from(version)) ^ stage as u64
}

fn fill_payload(buf: &mut [u8], key: u64) {
    for (i, word) in buf.chunks_exact_mut(8).enumerate() {
        word.copy_from_slice(&key.wrapping_add(i as u64 * STEP).to_le_bytes());
    }
}

fn payload_matches(data: &[u8], key: u64) -> bool {
    data.chunks_exact(8).enumerate().all(|(i, word)| {
        let word = u64::from_le_bytes(word.try_into().expect("8-byte chunk"));
        word == key.wrapping_add(i as u64 * STEP)
    })
}

/// `(mode, profile, stage frame, write span, read span, generator span)`.
type Plan = (
    Mode,
    Profile,
    &'static str,
    &'static str,
    &'static str,
    &'static str,
);

const PLAN: [Plan; 2] = [
    (
        Mode::Regen,
        Profile::Oltp,
        "stage A: oltp on RegenS",
        "SalamanderSsd::write (A)",
        "SalamanderSsd::read (A)",
        "Workload::next_op (zipfian)",
    ),
    (
        Mode::Shrink,
        Profile::ObjectStore,
        "stage B: object-store on ShrinkS",
        "SalamanderSsd::write (B)",
        "SalamanderSsd::read (B)",
        "Workload::next_op (uniform x8)",
    ),
];

struct Stage {
    index: usize,
    frame: &'static str,
    write_span: &'static str,
    read_span: &'static str,
    ssd: SalamanderSsd,
    mdisks: Vec<MdiskId>,
    lbas: u64,
    /// Version of the last acknowledged write per flat address.
    versions: Vec<u32>,
    ops: Vec<Op>,
}

#[derive(Default)]
struct Tally {
    typed_errors: u64,
    read_keys: u64,
    out: RunOut,
}

impl Stage {
    /// Open the device of `PLAN[index]`, fill it, generate its ops.
    fn build(ctx: &Ctx, index: usize, hot_cold_separation: bool, tr: &mut Tracer) -> Stage {
        let (mode, profile, frame, write_span, read_span, gen_span) = PLAN[index];
        let cfg = config(ctx, mode, hot_cold_separation);
        let ssd = tr.call("SalamanderSsd::open", Layer::Core, || {
            SalamanderSsd::open(cfg)
        });
        let mdisks = ssd.minidisks();
        let lbas = u64::from(ssd.minidisk_lbas(mdisks[0]).expect("active minidisk"));
        let total = mdisks.len() as u64 * lbas;
        let mut stage = Stage {
            index,
            frame,
            write_span,
            read_span,
            ssd,
            mdisks,
            lbas,
            versions: vec![0; total as usize],
            ops: Vec::new(),
        };
        // Precondition: one full fill, so GC is in steady state and
        // every read finds data.
        let mut buf = vec![0u8; cfg.ftl_config().geometry.opage_bytes as usize];
        let fill = tr.begin("fill", Layer::Bench);
        let mut tally = Tally::default();
        for addr in 0..total {
            stage.write(addr, &mut buf, &mut tally, tr);
        }
        tr.end(fill);
        assert_eq!(tally.out.failed, 0, "preconditioning fill failed");
        if ctx.fault == Some(Fault::Payload) && index == 0 {
            // The coldest zipfian address: overwritten with bytes the
            // shadow table knows nothing about.
            let (m, lba) = stage.locate(total - 1);
            buf[17] ^= 0x04;
            stage.ssd.write(m, lba, Some(&buf)).expect("fault write");
        }
        let mut gen = OpGen::new(profile.config(total, mix(ctx.seed ^ index as u64)));
        let want = ops_per_stage(ctx.scale);
        let generated = tr.begin(gen_span, Layer::Workload);
        let mut opages = 0u64;
        while opages < want {
            let mut op = gen.next_op();
            op.len = op.len.min((want - opages) as u32);
            opages += u64::from(op.len);
            stage.ops.push(op);
        }
        tr.end(generated);
        stage
    }

    fn locate(&self, addr: u64) -> (MdiskId, u32) {
        (
            self.mdisks[(addr / self.lbas) as usize],
            (addr % self.lbas) as u32,
        )
    }

    fn write(&mut self, addr: u64, buf: &mut [u8], tally: &mut Tally, tr: &mut Tracer) {
        let (m, lba) = self.locate(addr);
        let version = self.versions[addr as usize] + 1;
        fill_payload(buf, key(self.index, addr, version));
        tally.out.attempted += 1;
        let ssd = &mut self.ssd;
        match tr.call(self.write_span, Layer::Core, || {
            ssd.write(m, lba, Some(buf))
        }) {
            Ok(()) => self.versions[addr as usize] = version,
            Err(e) => tally
                .out
                .fail(1, || format!("write {addr} on a healthy device: {e}")),
        }
    }

    fn read(&mut self, addr: u64, tally: &mut Tally, tr: &mut Tracer) {
        let (m, lba) = self.locate(addr);
        tally.out.attempted += 1;
        let ssd = &mut self.ssd;
        let current = self.versions[addr as usize];
        let want = key(self.index, addr, current);
        match tr.call(self.read_span, Layer::Core, || ssd.read(m, lba)) {
            Ok(Some(data)) if payload_matches(&data, want) => {
                tally.read_keys = tally.read_keys.wrapping_add(want);
            }
            Ok(got) => {
                let index = self.index;
                tally.out.fail(1, || match got {
                    None => format!("read {addr}: no payload came back"),
                    Some(data) => {
                        match (0..current).find(|&v| payload_matches(&data, key(index, addr, v))) {
                            Some(v) => format!("read {addr}: stale page, version {v} of {current}"),
                            None => format!("read {addr}: wrong page"),
                        }
                    }
                })
            }
            // Reported loss: the host recovers it from a replica.
            Err(FtlError::Uncorrectable) => tally.typed_errors += 1,
            Err(e) => tally.out.fail(1, || format!("read {addr}: {e}")),
        }
    }

    /// The stage's op stream, one oPage at a time.
    fn replay(&mut self, buf: &mut [u8], tally: &mut Tally, tr: &mut Tracer) {
        let frame = tr.begin(self.frame, Layer::Bench);
        let ops = std::mem::take(&mut self.ops);
        for op in &ops {
            for addr in op.addr..op.addr + u64::from(op.len) {
                match op.kind {
                    OpKind::Write => self.write(addr, buf, tally, tr),
                    OpKind::Read => self.read(addr, tally, tr),
                }
            }
        }
        self.ops = ops;
        tr.end(frame);
    }

    /// Read back every LBA: a wrong page that the op stream never
    /// happened to read is still a failed op.
    fn read_back(&mut self, tally: &mut Tally) {
        let mut quiet = Tracer::off();
        for addr in 0..self.versions.len() as u64 {
            self.read(addr, tally, &mut quiet);
        }
    }
}

pub struct DeviceMixed {
    stages: Vec<Stage>,
    payload_bytes: usize,
    tally: Tally,
    after_run: Vec<(FtlStats, FlashStats)>,
}

impl Workload for DeviceMixed {
    const NAME: &'static str = "device_mixed";
    const WORK_UNIT: &'static str = "host oPage ops";
    type Params = Params;

    fn params(scale: Scale) -> Params {
        Params {
            geometry: geometry(scale),
            rber: "RberModel::default()",
            hot_cold_separation: false,
            stage_a: "Profile::Oltp on RegenS",
            stage_b: "Profile::ObjectStore on ShrinkS",
            opage_ops_per_stage: ops_per_stage(scale),
            payload_bytes: geometry(scale).opage_bytes,
            probe_ftl_ops: 20_000,
        }
    }

    fn setup(ctx: &Ctx, tr: &mut Tracer) -> Self {
        DeviceMixed {
            stages: (0..PLAN.len())
                .map(|index| Stage::build(ctx, index, false, tr))
                .collect(),
            payload_bytes: geometry(ctx.scale).opage_bytes as usize,
            tally: Tally::default(),
            after_run: Vec::new(),
        }
    }

    fn run(&mut self, tr: &mut Tracer) {
        let mut buf = vec![0u8; self.payload_bytes];
        for stage in &mut self.stages {
            stage.replay(&mut buf, &mut self.tally, tr);
        }
        self.after_run = self.stages.iter().map(|s| counters(&s.ssd)).collect();
    }

    fn check(&mut self) -> RunOut {
        let mut d = Digest::default();
        d.json(&self.after_run);
        d.u64(self.tally.read_keys);
        d.u64(self.tally.typed_errors);
        for stage in &self.stages {
            d.json(&stage.versions);
        }
        let work = self.tally.out.attempted;
        for stage in &mut self.stages {
            stage.read_back(&mut self.tally);
        }
        let mut out = std::mem::take(&mut self.tally.out);
        out.work = work;
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
        out.set(
            "core.open_ms",
            median(&traced.setup.durations_ns("SalamanderSsd::open")) / 1e6,
        );
        out.set(
            "workload.next_op_ns.zipfian",
            traced.setup.total_s(PLAN[0].5) * 1e9 / self.stages[0].ops.len() as f64,
        );
        set_device_counters(self.after_run.iter().copied(), out);

        // Stage A once more on the default two-stream configuration,
        // counted but not failed (see the module docs).
        let mut default_cfg = Stage::build(ctx, 0, true, probe);
        let mut tally = Tally::default();
        default_cfg.replay(&mut vec![0u8; self.payload_bytes], &mut tally, probe);
        default_cfg.read_back(&mut tally);
        out.set("ftl.stale_reads_hot_cold", tally.out.failed as f64);

        // The FTL alone, without payload copies: synthetic fill, then a
        // span around every `Ftl::write` / `Ftl::read` of an OLTP mix.
        let cfg = config(ctx, Mode::Regen, true);
        let mut ftl = probe.call("Ftl::new", Layer::Ftl, || Ftl::new(*cfg.ftl_config()));
        let mdisks = ftl.active_mdisks();
        let lbas = u64::from(ftl.mdisk_lbas(mdisks[0]).expect("active minidisk"));
        let total = mdisks.len() as u64 * lbas;
        let locate = |addr: u64| (mdisks[(addr / lbas) as usize], Lba((addr % lbas) as u32));
        probe.call("Ftl::write x fill", Layer::Ftl, || {
            for addr in 0..total {
                let (m, lba) = locate(addr);
                ftl.write(m, lba, None).expect("probe fill");
            }
        });
        let mut gen = OpGen::new(Profile::Oltp.config(total, ctx.seed));
        for _ in 0..Self::params(ctx.scale).probe_ftl_ops {
            let op = gen.next_op();
            let (m, lba) = locate(op.addr);
            match op.kind {
                OpKind::Write => {
                    let _ = probe.call("Ftl::write", Layer::Ftl, || ftl.write(m, lba, None));
                }
                OpKind::Read => {
                    let _ = probe.call("Ftl::read", Layer::Ftl, || ftl.read(m, lba));
                }
            }
        }
        out.set("ftl.write_ns", median(&probe.durations_ns("Ftl::write")));
        out.set("ftl.read_ns", median(&probe.durations_ns("Ftl::read")));
        probe.call("Ftl::snapshot_json", Layer::Ftl, || {
            black_box(ftl.snapshot_json());
        });
        out.set("ftl.snapshot_ms", probe.total_s("Ftl::snapshot_json") * 1e3);

        // Bare flash reads: a fresh synthetic page, a worn one (many
        // flips to draw), and one holding a real 18 KiB image.
        let geom = geometry(ctx.scale);
        let mut fresh = FlashArray::new(geom, RberModel::default(), ctx.seed);
        let mut worn = FlashArray::new(geom, RberModel::fast_wear(), ctx.seed);
        let block = geom.block_of(geom.fpage_addr(0, 0, 0));
        for _ in 0..40 {
            worn.erase(block).expect("probe erase");
        }
        let image = vec![0xA5u8; (geom.fpage_data_bytes + geom.fpage_spare_bytes) as usize];
        let data_block = geom.block_of(geom.fpage_addr(0, 1, 0));
        for fp in geom.fpages_in(block) {
            fresh.program(fp, None).expect("probe program");
            worn.program(fp, None).expect("probe program");
        }
        for fp in geom.fpages_in(data_block) {
            fresh.program(fp, Some(&image)).expect("probe program");
        }
        for _ in 0..8 {
            for fp in geom.fpages_in(block) {
                probe.call("FlashArray::read (clean)", Layer::Flash, || {
                    black_box(fresh.read(fp).expect("probe read"));
                });
                probe.call("FlashArray::read (worn)", Layer::Flash, || {
                    black_box(worn.read(fp).expect("probe read"));
                });
            }
            for fp in geom.fpages_in(data_block) {
                probe.call("FlashArray::read (data)", Layer::Flash, || {
                    black_box(fresh.read(fp).expect("probe read"));
                });
            }
        }
        for (span, name) in [
            ("FlashArray::read (clean)", "flash.read_clean_ns"),
            ("FlashArray::read (worn)", "flash.read_worn_ns"),
            ("FlashArray::read (data)", "flash.read_data_ns"),
        ] {
            out.set(name, median(&probe.durations_ns(span)));
        }
    }
}
