//! `ecc_datapath` — the only place the real BCH codec runs. Per page:
//! `PageCodec::encode_page` → `FlashArray::program(Some)` on a worn
//! block → `FlashArray::read` (which injects bit flips) →
//! `PageCodec::decode_page`. `ecc` does nearly all the work, `ftl` none.
//!
//! Pages at L0 (t = 73 per 1 KiB chunk) and L1 (t = 292) sit on a block
//! worn to where a page collects a few dozen flips; one more L0 page
//! sits on a block worn far past the code's capability.
//!
//! Check: the benchmark diffs the raw image it read against the one it
//! programmed and counts flips per codeword. At most `t` everywhere ⇒
//! the decoded oPages must equal the originals; more ⇒ the codec must
//! return `DecodeError`. A page that decodes to different bytes without
//! an error is a silent mis-decode and a failed op.

use super::{Ctx, Fault, RunOut, Scale, Traced, Workload};
use crate::metrics::LayerMetrics;
use crate::spans::{Layer, Tracer};
use crate::util::{median, Digest, SplitMix};
use salamander_ecc::bch::DecodeError;
use salamander_ecc::page_codec::{DecodedPage, PageCodec};
use salamander_ecc::profile::{EccConfig, Tiredness};
use salamander_flash::array::FlashArray;
use salamander_flash::geometry::{BlockAddr, FlashGeometry};
use salamander_flash::rber::RberModel;
use serde::Serialize;
use std::hint::black_box;

#[derive(Debug, Clone, Serialize)]
pub struct Params {
    pub ecc: EccConfig,
    pub l0_pages: u32,
    pub l1_pages: u32,
    pub l0_pages_past_capability: u32,
    pub worn_pec: u32,
    pub dead_pec: u32,
    pub rber: &'static str,
}

/// Full size is the paper's layout (16 KiB + 2 KiB spare, 1 KiB chunks,
/// GF(2^14)); the quick one keeps the structure at a sixteenth of it.
fn ecc_config(scale: Scale) -> EccConfig {
    match scale {
        Scale::Full => EccConfig::default(),
        Scale::Quick => EccConfig {
            fpage_data_bytes: 1024,
            fpage_spare_bytes: 128,
            opage_bytes: 256,
            chunk_data_bytes: 256,
            target_page_uber: 1e-15,
        },
    }
}

fn geometry(scale: Scale) -> FlashGeometry {
    let ecc = ecc_config(scale);
    FlashGeometry {
        chips: 1,
        blocks_per_chip: 4,
        fpages_per_block: 8,
        fpage_data_bytes: ecc.fpage_data_bytes,
        fpage_spare_bytes: ecc.fpage_spare_bytes,
        opage_bytes: ecc.opage_bytes,
    }
}

struct Page {
    level: Tiredness,
    block: BlockAddr,
    opages: Vec<Vec<u8>>,
    encode_span: &'static str,
    decode_span: &'static str,
}

struct Outcome {
    programmed: Vec<u8>,
    raw: Vec<u8>,
    decoded: Result<DecodedPage, DecodeError>,
}

pub struct EccDatapath {
    codec: PageCodec,
    flash: FlashArray,
    pages: Vec<Page>,
    outcomes: Vec<Outcome>,
    fault: Option<Fault>,
    corrected_bits: u64,
    uncorrectable_pages: u64,
}

/// Flips per chunk codeword (data chunk plus its parity run) of one
/// page, from the image programmed and the image read.
fn flips_per_chunk(codec: &PageCodec, level: Tiredness, programmed: &[u8], raw: &[u8]) -> Vec<u32> {
    let (profile, code) = codec.level(level).expect("usable level");
    let chunk_bits = codec.config().chunk_data_bytes as usize * 8;
    let parity_base = profile.data_opages as usize * codec.config().opage_bytes as usize * 8;
    let r = code.parity_bits();
    let differs = |bit: &usize| (programmed[bit / 8] ^ raw[bit / 8]) & (1 << (bit % 8)) != 0;
    (0..profile.chunks as usize)
        .map(|c| {
            let data = (c * chunk_bits..(c + 1) * chunk_bits).filter(differs);
            let parity = (parity_base + c * r..parity_base + (c + 1) * r).filter(differs);
            (data.count() + parity.count()) as u32
        })
        .collect()
}

impl Workload for EccDatapath {
    const NAME: &'static str = "ecc_datapath";
    const WORK_UNIT: &'static str = "fPages round-tripped";
    type Params = Params;

    fn params(scale: Scale) -> Params {
        Params {
            ecc: ecc_config(scale),
            l0_pages: 2,
            l1_pages: 1,
            l0_pages_past_capability: 1,
            worn_pec: 25,
            dead_pec: 80,
            rber: "RberModel::fast_wear().no_variance()",
        }
    }

    fn setup(ctx: &Ctx, tr: &mut Tracer) -> Self {
        let p = Self::params(ctx.scale);
        let codec = tr.call("PageCodec::new", Layer::Ecc, || {
            PageCodec::new(p.ecc).expect("constructible BCH parameters")
        });
        let geom = geometry(ctx.scale);
        let mut flash = tr.call("FlashArray::new", Layer::Flash, || {
            FlashArray::new(geom, RberModel::fast_wear().no_variance(), ctx.seed)
        });
        let worn = geom.block_of(geom.fpage_addr(0, 0, 0));
        let dead = geom.block_of(geom.fpage_addr(0, 1, 0));
        tr.call("FlashArray::erase x wear", Layer::Flash, || {
            for (block, cycles) in [(worn, p.worn_pec), (dead, p.dead_pec)] {
                for _ in 0..cycles {
                    flash.erase(block).expect("wear erase");
                }
            }
        });
        let mut rng = SplitMix::new(ctx.seed);
        let mut page = |level: Tiredness, block, encode_span, decode_span| {
            let (profile, _) = codec.level(level).expect("usable level");
            Page {
                level,
                block,
                opages: (0..profile.data_opages)
                    .map(|_| {
                        let mut bytes = vec![0u8; p.ecc.opage_bytes as usize];
                        for word in bytes.chunks_exact_mut(8) {
                            word.copy_from_slice(&rng.next_u64().to_le_bytes());
                        }
                        bytes
                    })
                    .collect(),
                encode_span,
                decode_span,
            }
        };
        const L0: (&str, &str) = ("PageCodec::encode_page.l0", "PageCodec::decode_page.l0");
        const L1: (&str, &str) = ("PageCodec::encode_page.l1", "PageCodec::decode_page.l1");
        let mut pages = Vec::new();
        for _ in 0..p.l0_pages {
            pages.push(page(Tiredness::L0, worn, L0.0, L0.1));
        }
        for _ in 0..p.l0_pages_past_capability {
            pages.push(page(
                Tiredness::L0,
                dead,
                L0.0,
                "PageCodec::decode_page.l0 (past t)",
            ));
        }
        for _ in 0..p.l1_pages {
            pages.push(page(Tiredness::L1, worn, L1.0, L1.1));
        }
        EccDatapath {
            codec,
            flash,
            pages,
            outcomes: Vec::new(),
            fault: ctx.fault,
            corrected_bits: 0,
            uncorrectable_pages: 0,
        }
    }

    fn run(&mut self, tr: &mut Tracer) {
        let geom = *self.flash.geometry();
        let mut next_page = std::collections::BTreeMap::new();
        for page in &self.pages {
            let frame = tr.begin("page round trip", Layer::Bench);
            let refs: Vec<&[u8]> = page.opages.iter().map(Vec::as_slice).collect();
            let programmed = tr.call(page.encode_span, Layer::Ecc, || {
                self.codec
                    .encode_page(page.level, &refs)
                    .expect("well-sized oPages")
            });
            let slot = next_page.entry(page.block.index).or_insert(0u32);
            let fp = geom
                .fpages_in(page.block)
                .nth(*slot as usize)
                .expect("block has room");
            *slot += 1;
            tr.call("FlashArray::program", Layer::Flash, || {
                self.flash.program(fp, Some(&programmed)).expect("program")
            });
            let read = tr.call("FlashArray::read", Layer::Flash, || {
                self.flash.read(fp).expect("read")
            });
            let raw = read.data.expect("page carries data");
            let decoded = tr.call(page.decode_span, Layer::Ecc, || {
                self.codec.decode_page(page.level, &raw)
            });
            self.outcomes.push(Outcome {
                programmed,
                raw,
                decoded,
            });
            tr.end(frame);
        }
    }

    fn check(&mut self) -> RunOut {
        let mut out = RunOut::default();
        let mut d = Digest::default();
        if self.fault == Some(Fault::Codeword) {
            // Damage the first page again, after the flips the checker
            // will count: t + 1 more in chunk 0, then decode that.
            let page = &self.pages[0];
            let (_, code) = self.codec.level(page.level).expect("usable level");
            let hit = &mut self.outcomes[0];
            let mut damaged = hit.raw.clone();
            for bit in 0..code.t() as usize + 1 {
                damaged[bit / 8] ^= 1 << (bit % 8);
            }
            hit.decoded = self.codec.decode_page(page.level, &damaged);
        }
        for (page, got) in self.pages.iter().zip(&self.outcomes) {
            out.work += 1;
            out.attempted += 1;
            let (_, code) = self.codec.level(page.level).expect("usable level");
            let flips = flips_per_chunk(&self.codec, page.level, &got.programmed, &got.raw);
            let within = flips.iter().all(|&f| f <= code.t());
            d.json(&flips);
            match &got.decoded {
                // (Beyond t flips the original coming back is possible,
                // vanishingly rare, and correct.)
                Ok(dec) if dec.opages == page.opages => {
                    self.corrected_bits += dec.corrected_bits as u64;
                    d.u64(dec.corrected_bits as u64);
                }
                Ok(_) => out.fail(1, || {
                    format!("silent mis-decode, flips per chunk {flips:?}")
                }),
                Err(DecodeError::Uncorrectable) if !within => {
                    self.uncorrectable_pages += 1;
                    d.u64(u64::MAX);
                }
                Err(e) => out.fail(1, || {
                    format!("{e} with at most t flips per chunk: {flips:?}")
                }),
            }
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
        for (span, name) in [
            ("PageCodec::encode_page.l0", "ecc.page_encode_ms.l0"),
            ("PageCodec::encode_page.l1", "ecc.page_encode_ms.l1"),
            ("PageCodec::decode_page.l0", "ecc.page_decode_ms.l0"),
            ("PageCodec::decode_page.l1", "ecc.page_decode_ms.l1"),
        ] {
            out.set(name, median(&traced.run.durations_ns(span)) / 1e6);
        }
        out.set(
            "flash.program_ns",
            median(&traced.run.durations_ns("FlashArray::program")),
        );
        out.set(
            "flash.read_data_ns",
            median(&traced.run.durations_ns("FlashArray::read")),
        );
        out.set("ecc.corrected_bits", self.corrected_bits as f64);
        out.set("ecc.uncorrectable_pages", self.uncorrectable_pages as f64);

        // One chunk codeword at a time, straight on the BCH code.
        let mut rng = SplitMix::new(7);
        for (level, enc, clean, full, names) in [
            (
                Tiredness::L0,
                "Bch::encode.l0",
                "Bch::decode (clean).l0",
                "Bch::decode (t flips).l0",
                [
                    "ecc.bch_encode_us.l0",
                    "ecc.bch_decode_clean_us.l0",
                    "ecc.bch_decode_t_us.l0",
                ],
            ),
            (
                Tiredness::L1,
                "Bch::encode.l1",
                "Bch::decode (clean).l1",
                "Bch::decode (t flips).l1",
                [
                    "ecc.bch_encode_us.l1",
                    "ecc.bch_decode_clean_us.l1",
                    "ecc.bch_decode_t_us.l1",
                ],
            ),
        ] {
            let (_, code) = self.codec.level(level).expect("usable level");
            for _ in 0..4 {
                let data: Vec<bool> = (0..code.data_bits())
                    .map(|_| rng.next_u64() & 1 == 1)
                    .collect();
                let cw = probe.call(enc, Layer::Ecc, || code.encode(&data));
                let mut received = cw.clone();
                let fixed = probe.call(clean, Layer::Ecc, || code.decode(&mut received));
                assert_eq!(fixed, Ok(0));
                let mut at = std::collections::BTreeSet::new();
                while at.len() < code.t() as usize {
                    at.insert(rng.below(cw.len() as u64) as usize);
                }
                for &bit in &at {
                    received[bit] ^= true;
                }
                let fixed = probe.call(full, Layer::Ecc, || code.decode(&mut received));
                assert_eq!(fixed, Ok(code.t() as usize));
                assert_eq!(received, cw);
            }
            for (span, name) in [enc, clean, full].into_iter().zip(names) {
                out.set(name, median(&probe.durations_ns(span)) / 1e3);
            }
        }

        // The closed-form capability model every device open evaluates.
        let cfg = *self.codec.config();
        for _ in 0..16 {
            probe.call("EccConfig::profiles", Layer::Ecc, || {
                black_box(cfg.profiles());
            });
        }
        out.set(
            "ecc.capability_ns",
            median(&probe.durations_ns("EccConfig::profiles")),
        );
    }
}
