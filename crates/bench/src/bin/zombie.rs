//! Extension experiment — cell-mode rebirth (the orthogonal lifetime
//! extension the paper's §2 cites: ZombieNAND MASCOTS '14, Phoenix
//! DATE '13): pages worn past RegenS's tiredness cap are reborn at a
//! lower bit density (MLC or SLC) instead of retiring. The voltage-level
//! cell model derives the endurance hierarchy from state-distribution
//! overlap; the fleet device turns it into capacity-over-lifetime curves.
//!
//! Run: `cargo run --release -p salamander-bench --bin zombie`
//! Observability: `--trace <path>`, `--metrics`, `--profile`,
//! `--serve <addr>` (DESIGN.md §9/§12).

use salamander::report::{fmt, Table};
use salamander_bench::{emit, task_obs, ObsArgs};
use salamander_ecc::profile::Tiredness;
use salamander_exec::{par_map, Threads};
use salamander_flash::geometry::FlashGeometry;
use salamander_flash::voltage::{CellMode, VoltageModel};
use salamander_fleet::cohort::Cohort;
use salamander_fleet::device::{StatDeviceConfig, StatMode};
use salamander_obs::{DeathCause, MetricsRegistry, SimTime, TraceEvent};

fn main() {
    let obs_args = ObsArgs::parse();
    let profiler = obs_args.profiler();
    let session = obs_args.serve_session("zombie");
    // 1. The cell model itself: endurance per mode at the native ECC
    // threshold.
    let v = VoltageModel::default();
    let th = 2.5e-3;
    let mut cells = Table::new(
        "Voltage-model endurance by cell mode (native ECC threshold)",
        &[
            "mode",
            "bits/cell",
            "endurance (PEC)",
            "vs TLC",
            "capacity vs TLC",
        ],
    );
    let tlc = v.endurance(CellMode::Tlc, th);
    for mode in [CellMode::Tlc, CellMode::Mlc, CellMode::Slc] {
        let e = v.endurance(mode, th);
        cells.row(vec![
            format!("{mode:?}"),
            mode.bits().to_string(),
            e.to_string(),
            format!("{:.1}x", e as f64 / tlc as f64),
            fmt(mode.capacity_vs_tlc(), 2),
        ]);
    }
    emit("zombie_cells", &cells);

    // 2. Device lifetime: RegenS alone vs RegenS + rebirth.
    let mut life = Table::new(
        "Device lifetime with cell-mode rebirth (RegenS cap L1)",
        &["configuration", "host writes to death", "vs RegenS alone"],
    );
    let prof = profiler.clone();
    let live = session.as_ref().map(|s| s.live.clone());
    let want_trace = obs_args.trace();
    let want_metrics = obs_args.metrics;
    let run = move |label: &str, rebirth: Option<CellMode>| {
        let cfg = StatDeviceConfig {
            geometry: FlashGeometry::small_test(),
            rebirth,
            mode: StatMode::Regen {
                max_level: Tiredness::L1,
            },
            ..StatDeviceConfig::datacenter(StatMode::Shrink)
        };
        const STEP: u64 = 10_000;
        const CAP: u64 = 100_000_000_000;
        let obs = task_obs(want_trace, want_metrics, &prof, label, live.as_ref());
        let progress = obs.progress.for_mode(label);
        progress.add_devices(1);
        let _phase = prof.phase("zombie/age_device");
        let mut total = 0u64;
        let mut c = Cohort::new(cfg, &[42]);
        c.set_daily_writes(0, STEP);
        // Deposit the step-loop time under the same phase name the
        // fleet engine uses, so `--profile` shows where the cohort's
        // next_check floors spend their wall clock even on this
        // single-device endurance loop.
        let timing = prof.is_enabled();
        let mut t_step = (0u64, std::time::Duration::ZERO);
        while !c.is_dead(0) && total < CAP {
            if timing {
                let start = std::time::Instant::now();
                c.step(0);
                t_step.0 += 1;
                t_step.1 += start.elapsed();
            } else {
                c.step(0);
            }
            total += STEP;
            progress.add_ops(STEP);
        }
        prof.record("cohort/next_check_step", t_step.0, t_step.1);
        let died = c.is_dead(0);
        progress.device_done();
        obs.metrics
            .inc("salamander_zombie_host_writes_total", total);
        if died {
            obs.trace.emit(
                SimTime::new(0, total),
                TraceEvent::DeviceDied {
                    cause: DeathCause::Wear,
                },
            );
        }
        (total, obs)
    };
    let configs = [
        ("RegenS", None),
        ("RegenS + MLC rebirth", Some(CellMode::Mlc)),
        ("RegenS + SLC rebirth", Some(CellMode::Slc)),
    ];
    // Independent device aging runs: fan out on the exec engine; the
    // telemetry shards merge in config order afterwards, so the
    // artifacts are thread-count invariant.
    let observed = par_map(Threads::Auto, &configs, move |_, &(label, mode)| {
        run(label, mode)
    });
    let mut trace = Vec::new();
    let mut metrics = MetricsRegistry::default();
    let mut writes = Vec::with_capacity(observed.len());
    for ((label, _), (w, obs)) in configs.iter().zip(observed) {
        trace.extend(obs.trace.take());
        metrics.merge(
            &obs.metrics
                .take()
                .relabelled(&format!("config=\"{label}\"")),
        );
        writes.push(w);
    }
    let plain = writes[0];
    for ((label, _), &w) in configs.iter().zip(&writes) {
        life.row(vec![
            label.to_string(),
            w.to_string(),
            format!("{:.2}x", w as f64 / plain as f64),
        ]);
    }
    emit("zombie_lifetime", &life);
    let code = obs_args.finish("zombie", trace, metrics, &profiler, session);
    println!(
        "Rebirth composes with RegenS: the ECC trade (Fig. 2) harvests the \
         wear margin within a bit density, and the density downgrade opens \
         a fresh margin after it — the two levers the paper's §2 lists are \
         complementary, not alternatives."
    );
    std::process::exit(code);
}
