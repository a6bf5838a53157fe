//! E2 / Fig. 3a — functioning SSDs over time: a baseline fleet dies off
//! abruptly as devices brick; ShrinkS/RegenS devices shrink instead,
//! flattening the failure slope.
//!
//! Run: `cargo run --release -p salamander-bench --bin fig3a -- --devices 100 --dwpd 5`
//! Observability: `--trace <path>`, `--metrics`, `--profile`,
//! `--serve <addr>` (DESIGN.md §9/§12).

use salamander::report::Table;
use salamander_bench::{arg_or, emit, ObsArgs};
use salamander_ecc::profile::Tiredness;
use salamander_exec::{par_map, Threads};
use salamander_fleet::device::{StatDeviceConfig, StatMode};
use salamander_fleet::sim::{FleetConfig, FleetSim, FleetTimeline, ObservedFleetRun};
use salamander_obs::{LiveObs, MetricsRegistry, Profiler};

#[allow(clippy::too_many_arguments)]
fn run(
    mode: StatMode,
    devices: u32,
    dwpd: f64,
    horizon: u32,
    seed: u64,
    label: &str,
    profiler: &Profiler,
    live: Option<&LiveObs>,
) -> ObservedFleetRun {
    let device = StatDeviceConfig::datacenter(mode);
    FleetSim::new(FleetConfig {
        device,
        devices,
        dwpd,
        dwpd_sigma: 0.25,
        afr: 0.01,
        horizon_days: horizon,
        sample_every_days: 30,
        seed,
    })
    .run_observed_live(Threads::Auto, label, profiler, live)
}

fn main() {
    let devices: u32 = arg_or("--devices", 100);
    let dwpd: f64 = arg_or("--dwpd", 5.0);
    let horizon: u32 = arg_or("--days", 3650);
    let seed: u64 = arg_or("--seed", 42);
    let obs_args = ObsArgs::parse();
    let profiler = obs_args.profiler();
    let session = obs_args.serve_session("fig3a");

    let modes = [
        ("Baseline", StatMode::Baseline),
        ("ShrinkS", StatMode::Shrink),
        (
            "RegenS",
            StatMode::Regen {
                max_level: Tiredness::L1,
            },
        ),
    ];
    // The three fleets are independent; fan out on the exec engine
    // (thread count from SALAMANDER_THREADS, deterministic output).
    // Each fleet's trace/metrics shard is derived post-merge, so the
    // concatenation below is thread-count invariant.
    let prof = profiler.clone();
    let live = session.as_ref().map(|s| s.live.clone());
    let observed: Vec<(&str, ObservedFleetRun)> =
        par_map(Threads::Auto, &modes, move |_, (name, m)| {
            let label = format!("fleet={name}");
            (
                *name,
                run(
                    *m,
                    devices,
                    dwpd,
                    horizon,
                    seed,
                    &label,
                    &prof,
                    live.as_ref(),
                ),
            )
        });
    let mut trace = Vec::new();
    let mut metrics = MetricsRegistry::default();
    let mut runs: Vec<(&str, FleetTimeline)> = Vec::with_capacity(observed.len());
    for (name, o) in observed {
        if let Some(s) = &session {
            s.publish_rollups(&format!("fleet={name}"), &o.rollups);
            s.publish_latency(&format!("fleet={name}"), &o.latency);
        }
        trace.extend(o.trace);
        metrics.merge(&o.metrics.relabelled(&format!("fleet=\"{name}\"")));
        runs.push((name, o.timeline));
    }

    let mut table = Table::new(
        "Fig. 3a — functioning SSDs over time",
        &["day", "Baseline", "ShrinkS", "RegenS"],
    );
    // Union of sample days (all runs share the sampling grid).
    let days: Vec<u32> = runs[0].1.samples.iter().map(|s| s.day).collect();
    for &day in &days {
        let alive = |t: &FleetTimeline| {
            t.samples
                .iter()
                .rev()
                .find(|s| s.day <= day)
                .map(|s| s.alive)
                .unwrap_or(0)
        };
        table.row(vec![
            day.to_string(),
            alive(&runs[0].1).to_string(),
            alive(&runs[1].1).to_string(),
            alive(&runs[2].1).to_string(),
        ]);
    }
    emit("fig3a", &table);
    let code = obs_args.finish("fig3a", trace, metrics, &profiler, session);

    for (name, t) in &runs {
        match t.half_fleet_dead_day() {
            Some(d) => println!("{name}: half the fleet dead by day {d}"),
            None => println!("{name}: more than half the fleet alive at the horizon"),
        }
    }
    println!(
        "Paper shape: Salamander modes flatten the device-failure slope \
         (wear deaths are deferred by shrinking/regenerating; the residual \
         slope is the 1% AFR both fleets share). Example endurance sim uses \
         a single device model: the wear model default endures ~3000 PEC."
    );
    // Sanity check of the expected ordering; devices running the
    // fleet-default parameters should show it clearly.
    let first_dead_day = |t: &FleetTimeline| {
        t.samples
            .iter()
            .find(|s| s.wear_deaths > 0)
            .map(|s| s.day)
            .unwrap_or(u32::MAX)
    };
    let base_first = first_dead_day(&runs[0].1);
    let regen_first = first_dead_day(&runs[2].1);
    if base_first != u32::MAX && regen_first != u32::MAX {
        println!(
            "first wear death: Baseline day {base_first}, RegenS day {regen_first} \
             ({:.2}x later)",
            regen_first as f64 / base_first as f64
        );
    }
    std::process::exit(code);
}
