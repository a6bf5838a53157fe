//! Fleet-level simulation for the Salamander reproduction.
//!
//! The paper's Fig. 3 is fleet-scale: a batch of SSDs deployed together,
//! aging under datacenter write pressure. This crate provides:
//!
//! - [`device`] — [`device::StatDevice`]: a statistical single-device wear
//!   model sharing the exact RBER/ECC math of `salamander-flash` and
//!   `salamander-ecc`, but advancing wear analytically (ideal wear
//!   leveling ⇒ per-level page counts follow from the sorted endurance-
//!   variance distribution), so fleets of hundreds of devices simulate in
//!   milliseconds. Validated against the full FTL in integration tests.
//! - [`cohort`] — [`cohort::Cohort`]: the struct-of-arrays batch engine
//!   (ROADMAP item 1) stepping whole device cohorts with one shared
//!   `MeanRberLut` and amortized cut cursors — bit-identical to
//!   [`device::StatDevice`] trajectories, fast enough for 100k–1M-device
//!   fleets.
//! - [`sim`] — [`sim::FleetSim`]: N devices × DWPD aging × random (AFR)
//!   failures → the Fig. 3a (functioning devices) and Fig. 3b (available
//!   capacity) time series on the cohort engine; the per-device path
//!   stays as the test oracle ([`sim::FleetEngine`]).
//! - [`perf`] — the §4.2 performance model: sequential-throughput and
//!   large-random-latency degradation as fPages migrate to L1
//!   (Fig. 3c/3d).
//! - [`bridge`] — [`bridge::ClusterHarness`]: wires *real* FTL devices to
//!   the diFS chunk store, translating minidisk lifecycle events into unit
//!   failures/additions, for the §4.3 recovery-traffic experiments.

pub mod bridge;
pub mod cohort;
pub mod device;
pub mod perf;
pub mod replace;
pub mod sim;

pub use bridge::ClusterHarness;
pub use cohort::Cohort;
pub use device::StatDevice;
pub use replace::{ReplacementConfig, ReplacementResult, ReplacementSim};
pub use sim::{FleetConfig, FleetEngine, FleetHealth, FleetSim, FleetTimeline, ObservedFleetRun};
