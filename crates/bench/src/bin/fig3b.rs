//! E3 / Fig. 3b — available fleet capacity over time: baseline capacity
//! falls in whole-device cliffs; Salamander capacity declines gradually in
//! minidisk steps and stretches further out in time.
//!
//! Run: `cargo run --release -p salamander-bench --bin fig3b`
//! Observability: `--trace <path>`, `--metrics`, `--profile`,
//! `--serve <addr>` (DESIGN.md §9/§12).

use salamander::report::{pct, Table};
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
    FleetSim::new(FleetConfig {
        device: StatDeviceConfig::datacenter(mode),
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
    let session = obs_args.serve_session("fig3b");

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
    // Three independent fleets: fan out on the exec engine. Telemetry
    // shards merge in mode order, so output is thread-count invariant.
    let prof = profiler.clone();
    let live = session.as_ref().map(|s| s.live.clone());
    let observed = par_map(Threads::Auto, &modes, move |_, (name, m)| {
        run(
            *m,
            devices,
            dwpd,
            horizon,
            seed,
            &format!("fleet={name}"),
            &prof,
            live.as_ref(),
        )
    });
    let mut trace = Vec::new();
    let mut metrics = MetricsRegistry::default();
    let mut runs: Vec<FleetTimeline> = Vec::with_capacity(observed.len());
    for ((name, _), o) in modes.iter().zip(observed) {
        if let Some(s) = &session {
            s.publish_rollups(&format!("fleet={name}"), &o.rollups);
            s.publish_latency(&format!("fleet={name}"), &o.latency);
        }
        trace.extend(o.trace);
        metrics.merge(&o.metrics.relabelled(&format!("fleet=\"{name}\"")));
        runs.push(o.timeline);
    }
    let mut runs = runs.into_iter();
    let (base, shrink, regen) = (
        runs.next().unwrap(),
        runs.next().unwrap(),
        runs.next().unwrap(),
    );

    let mut table = Table::new(
        "Fig. 3b — available fleet capacity over time (fraction of initial)",
        &["day", "Baseline", "ShrinkS", "RegenS"],
    );
    for s in &base.samples {
        let f = |t: &FleetTimeline| pct(t.capacity_fraction_at(s.day).unwrap_or(0.0));
        table.row(vec![s.day.to_string(), f(&base), f(&shrink), f(&regen)]);
    }
    emit("fig3b", &table);
    let code = obs_args.finish("fig3b", trace, metrics, &profiler, session);

    // Capacity half-life: first day the fleet is below 50% capacity.
    for (name, t) in [
        ("Baseline", &base),
        ("ShrinkS", &shrink),
        ("RegenS", &regen),
    ] {
        let half = t
            .samples
            .iter()
            .find(|s| (s.capacity_opages as f64) < 0.5 * t.samples[0].capacity_opages as f64)
            .map(|s| s.day);
        match half {
            Some(d) => println!("{name}: fleet capacity below 50% by day {d}"),
            None => println!("{name}: fleet capacity above 50% at the horizon"),
        }
    }
    println!(
        "Paper shape: the Salamander curves decline later and more \
         gradually than the baseline cliff."
    );
    std::process::exit(code);
}
