//! End-to-end harness: real FTL devices driving a diFS chunk store.
//!
//! Each [`salamander::SalamanderSsd`] registers its minidisks as diFS
//! storage units. As synthetic write churn wears the devices, their
//! lifecycle events propagate: a decommissioned minidisk fails its unit
//! (triggering re-replication), a regenerated minidisk adds a unit
//! (absorbing under-replicated chunks), a device failure fails everything
//! at once. This is the §4.3 recovery-traffic experiment end to end.
//!
//! Chunk *placement* is bookkeeping on top of the worn devices: the churn
//! that wears a device and the chunks mapped onto its minidisks are
//! decoupled, which is exactly what §4.3 needs — recovery traffic depends
//! on how much replicated data sat on failed units, not on byte identity.

use salamander::config::SsdConfig;
use salamander::device::{BatchStop, HostEvent, SalamanderSsd};
use salamander_difs::cluster::Cluster;
use salamander_difs::store::{ChunkStore, StoreMetrics};
use salamander_difs::types::{DeviceId, DifsConfig, NodeId, UnitId};
use salamander_ftl::types::{Lba, MdiskId};
use salamander_obs::{ClusterKernel, ClusterRollup, Obs};
use std::collections::BTreeMap;

/// One SSD attached to the harness.
struct DeviceSlot {
    ssd: SalamanderSsd,
    device: DeviceId,
    units: BTreeMap<MdiskId, UnitId>,
    churn_state: u64,
}

/// How the fleet reacts to device wear (§2.1: operators already act on
/// failure predictions; Salamander redirects that to minidisks).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RecoveryPolicy {
    /// Wait for decommission events, then re-replicate.
    Reactive,
    /// Watch SMART telemetry; when a device's next decommission is
    /// imminent (headroom below `margin` minidisks), gracefully drain the
    /// likely victim's unit ahead of time, `drain_budget` chunks per tick.
    Proactive {
        /// Headroom threshold in minidisks.
        margin: f64,
        /// Chunks migrated per tick per at-risk device.
        drain_budget: u32,
    },
}

/// The FTL ↔ diFS bridge.
pub struct ClusterHarness {
    cluster: Cluster,
    store: ChunkStore,
    devices: Vec<DeviceSlot>,
    policy: RecoveryPolicy,
    obs: Obs,
    /// Churn rounds so far — the diFS trace clock (one "day" per round).
    round: u32,
    /// Per-round durability rollups folded as the run progresses, so
    /// callers can publish the series (e.g. to `/cluster`) whether or
    /// not a trace was recorded.
    cluster_kernel: ClusterKernel,
}

impl ClusterHarness {
    /// An empty harness with the given replication settings.
    pub fn new(cfg: DifsConfig) -> Self {
        ClusterHarness {
            cluster: Cluster::new(),
            store: ChunkStore::new(cfg),
            devices: Vec::new(),
            policy: RecoveryPolicy::Reactive,
            obs: Obs::disabled(),
            round: 0,
            cluster_kernel: ClusterKernel::new(),
        }
    }

    /// Select the recovery policy.
    pub fn with_policy(mut self, policy: RecoveryPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Attach observability handles, shared by the chunk store and every
    /// device (already attached or added later). The harness runs its
    /// devices single-threaded in index order, so the shared trace
    /// interleaving is deterministic.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self.store.set_obs(self.obs.clone());
        for slot in &mut self.devices {
            slot.ssd.set_obs(self.obs.clone());
        }
        self
    }

    /// The attached observability bundle (disabled unless
    /// [`Self::with_obs`] was used).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Attach one SSD on its own node. Returns the harness-local index.
    ///
    /// # Panics
    ///
    /// Panics if the diFS chunk size does not divide the minidisk size
    /// (units must hold a whole number of chunks).
    pub fn add_device(&mut self, cfg: SsdConfig) -> usize {
        let node = self.cluster.add_node();
        self.add_device_on(node, cfg)
    }

    /// Attach one SSD on an existing node.
    pub fn add_device_on(&mut self, node: NodeId, cfg: SsdConfig) -> usize {
        let ssd = SalamanderSsd::open_with_obs(cfg, self.obs.clone());
        let device = self.cluster.add_device(node);
        let mut units = BTreeMap::new();
        for m in ssd.minidisks() {
            let cap = self.unit_capacity(&ssd, m);
            units.insert(m, self.cluster.add_unit(device, cap));
        }
        self.devices.push(DeviceSlot {
            ssd,
            device,
            units,
            churn_state: 0x5EED_0000 + self.devices.len() as u64,
        });
        self.devices.len() - 1
    }

    fn unit_capacity(&self, ssd: &SalamanderSsd, m: MdiskId) -> u32 {
        let mdisk_bytes = ssd.minidisk_lbas(m).unwrap_or(0) as u64
            * ssd.config().ftl_config().geometry.opage_bytes as u64;
        let chunk = self.store.config().chunk_bytes;
        assert!(
            mdisk_bytes.is_multiple_of(chunk),
            "chunk size {chunk} must divide minidisk size {mdisk_bytes}"
        );
        (mdisk_bytes / chunk) as u32
    }

    /// Fill the store with chunks until `fraction` of the alive capacity
    /// is used (or placement runs out). Returns the chunk count created.
    pub fn fill(&mut self, fraction: f64) -> u64 {
        let r = self.store.config().replication as u64;
        let target =
            (self.cluster.alive_capacity() as f64 * fraction.clamp(0.0, 1.0)) as u64 / r.max(1);
        let mut created = 0;
        while created < target {
            if self.store.create_chunk(&mut self.cluster).is_err() {
                break;
            }
            created += 1;
        }
        created
    }

    /// Apply `writes` synthetic oPage writes of churn to every live
    /// device, then propagate lifecycle events into the diFS.
    ///
    /// Churn goes through the FTL's batched write path: the minidisk
    /// cache is refreshed whenever a batch stops on raised events —
    /// exactly when the per-op `minidisks()` fetch of the old loop
    /// could have observed a different set — so the wear trajectory is
    /// bit-identical to per-op issue. xorshift draws are
    /// device-independent, so draws unconsumed by an early stop carry
    /// over and are re-mapped against the refreshed set.
    pub fn churn(&mut self, writes: u64) {
        const BATCH: usize = 64;
        self.round += 1;
        self.store.set_time(self.round);
        let mut mdisks: Vec<MdiskId> = Vec::new();
        let mut pending: std::collections::VecDeque<u64> = std::collections::VecDeque::new();
        let mut ops: Vec<(MdiskId, Lba)> = Vec::with_capacity(BATCH);
        for slot in &mut self.devices {
            let mut issued = 0;
            slot.ssd.minidisks_into(&mut mdisks);
            pending.clear();
            while issued < writes && !slot.ssd.is_dead() {
                if mdisks.is_empty() {
                    break;
                }
                let len = BATCH.min((writes - issued) as usize);
                while pending.len() < len {
                    // xorshift64; decoupled from the store's placement.
                    slot.churn_state ^= slot.churn_state << 13;
                    slot.churn_state ^= slot.churn_state >> 7;
                    slot.churn_state ^= slot.churn_state << 17;
                    pending.push_back(slot.churn_state);
                }
                ops.clear();
                for &s in pending.iter().take(len) {
                    let id = mdisks[(s as usize / 7) % mdisks.len()];
                    let lbas = slot.ssd.minidisk_lbas(id).unwrap_or(1);
                    ops.push((id, Lba((s % lbas as u64) as u32)));
                }
                let out = slot.ssd.write_batch(&ops);
                pending.drain(..out.consumed);
                issued += out.written;
                match out.stop {
                    Some(BatchStop::Events) => slot.ssd.minidisks_into(&mut mdisks),
                    Some(BatchStop::DeviceDead) => break,
                    Some(BatchStop::Fatal(e)) => panic!("churn write failed: {e}"),
                    None => {}
                }
            }
        }
        self.pump_events();
        self.run_policy();
        self.store.tick(&mut self.cluster);
        // One durability rollup per round (DESIGN.md §16) — taken after
        // repairs so the snapshot describes the settled state.
        let rollup = if self.obs.trace.is_enabled() {
            self.store.emit_cluster_rollup(&self.cluster)
        } else {
            self.store.cluster_rollup(&self.cluster)
        };
        self.cluster_kernel.observe(&rollup);
        self.store.export_metrics();
    }

    /// Apply the proactive policy: drain the predicted next victim of any
    /// device whose SMART headroom says a decommission is imminent.
    fn run_policy(&mut self) {
        let RecoveryPolicy::Proactive {
            margin,
            drain_budget,
        } = self.policy
        else {
            return;
        };
        for i in 0..self.devices.len() {
            let slot = &self.devices[i];
            if slot.ssd.is_dead() {
                continue;
            }
            let smart = slot.ssd.smart();
            let msize = slot.ssd.config().ftl_config().lbas_per_mdisk() as u64;
            if !smart.decommission_imminent(msize, margin) {
                continue;
            }
            // Mirror the FTL's LeastValid victim choice: the next few
            // decommissions will take the minidisks with the fewest valid
            // LBAs, so drain those units first.
            let mut candidates = slot.ssd.minidisks();
            candidates.sort_by_key(|m| (slot.ssd.minidisk_valid_lbas(*m).unwrap_or(0), m.0));
            for victim in candidates.into_iter().take(3) {
                if let Some(&unit) = self.devices[i].units.get(&victim) {
                    // Cordon first so repairs and drains stop targeting
                    // the at-risk unit, then move its chunks away.
                    self.cluster.cordon_unit(unit);
                    self.store.drain_unit(&mut self.cluster, unit, drain_budget);
                }
            }
        }
    }

    /// Drain device events into diFS actions.
    pub fn pump_events(&mut self) {
        let mut new_units = false;
        for i in 0..self.devices.len() {
            let events = self.devices[i].ssd.poll_events();
            for e in events {
                match e {
                    HostEvent::MinidiskFailed { id, draining, .. } => {
                        if let Some(unit) = self.devices[i].units.remove(&id) {
                            self.store.fail_unit(&mut self.cluster, unit);
                        }
                        if draining {
                            // Re-replication is synchronous in this
                            // harness; release the grace hold right away.
                            let _ = self.devices[i].ssd.ack_decommission(id);
                        }
                    }
                    HostEvent::MinidiskPurged { .. } => {
                        // The unit already failed at decommission time;
                        // nothing further to do fleet-side.
                    }
                    HostEvent::MinidiskCreated { id, .. } => {
                        let cap = {
                            let slot = &self.devices[i];
                            self.unit_capacity(&slot.ssd, id)
                        };
                        let device = self.devices[i].device;
                        let unit = self.cluster.add_unit(device, cap);
                        self.devices[i].units.insert(id, unit);
                        new_units = true;
                    }
                    HostEvent::DeviceFailed => {
                        let device = self.devices[i].device;
                        self.store.fail_device(&mut self.cluster, device);
                        self.devices[i].units.clear();
                    }
                    HostEvent::UnrecoverableRead { .. } => {
                        // Device-level data loss; the chunk still has
                        // replicas elsewhere, nothing to do fleet-wide.
                    }
                }
            }
        }
        if new_units {
            self.store.retry_pending(&mut self.cluster);
        }
    }

    /// Recovery metrics so far.
    pub fn metrics(&self) -> StoreMetrics {
        self.store.metrics()
    }

    /// The per-round durability rollups folded so far, ascending by
    /// round (one per [`Self::churn`] call).
    pub fn cluster_rollups(&self) -> Vec<ClusterRollup> {
        self.cluster_kernel.rollups()
    }

    /// The diFS cluster.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// The chunk store.
    pub fn store(&self) -> &ChunkStore {
        &self.store
    }

    /// Live devices.
    pub fn alive_devices(&self) -> usize {
        self.devices.iter().filter(|d| !d.ssd.is_dead()).count()
    }

    /// Access one attached SSD.
    pub fn ssd(&self, index: usize) -> &SalamanderSsd {
        &self.devices[index].ssd
    }

    /// Consistency check across the bridge (tests only).
    pub fn check_invariants(&self) -> Result<(), String> {
        self.store.check_invariants(&self.cluster)?;
        for (i, slot) in self.devices.iter().enumerate() {
            for (m, u) in &slot.units {
                if !slot.ssd.minidisks().contains(m) {
                    return Err(format!("device {i}: stale unit for {m:?}"));
                }
                let unit = self
                    .cluster
                    .unit(*u)
                    .ok_or_else(|| format!("device {i}: unknown unit {u:?}"))?;
                if !unit.alive {
                    return Err(format!("device {i}: tracked unit {u:?} is dead"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use salamander::config::Mode;

    fn ssd_cfg(mode: Mode, seed: u64) -> SsdConfig {
        SsdConfig::small_test().mode(mode).seed(seed)
    }

    fn difs_cfg() -> DifsConfig {
        DifsConfig {
            replication: 3,
            chunk_bytes: 256 * 1024, // = small_test minidisk size
            recovery_chunks_per_tick: None,
        }
    }

    #[test]
    fn shrinking_devices_trigger_recovery() {
        let mut h = ClusterHarness::new(difs_cfg());
        for s in 0..4 {
            h.add_device(ssd_cfg(Mode::Shrink, 100 + s));
        }
        let created = h.fill(0.8);
        assert!(created > 0);
        h.check_invariants().unwrap();
        // Wear the devices until minidisks start failing.
        for _ in 0..40 {
            h.churn(10_000);
            h.check_invariants().unwrap();
            if h.metrics().recovery_bytes > 0 {
                return; // recovery observed, invariants held throughout
            }
        }
        panic!("no recovery traffic despite fast wear");
    }

    #[test]
    fn regen_devices_add_units() {
        let mut h = ClusterHarness::new(difs_cfg());
        for s in 0..4 {
            h.add_device(ssd_cfg(Mode::Regen, 200 + s));
        }
        h.fill(0.5);
        let units_before = h.cluster().units().count();
        for _ in 0..60 {
            h.churn(10_000);
        }
        h.check_invariants().unwrap();
        let units_after = h.cluster().units().count();
        assert!(
            units_after > units_before,
            "regeneration should register new units ({units_before} -> {units_after})"
        );
    }

    #[test]
    fn baseline_device_fails_whole() {
        let mut h = ClusterHarness::new(difs_cfg());
        for s in 0..4 {
            h.add_device(ssd_cfg(Mode::Baseline, 300 + s));
        }
        h.fill(0.5);
        for _ in 0..120 {
            h.churn(10_000);
            if h.alive_devices() < 4 {
                break;
            }
        }
        assert!(h.alive_devices() < 4, "some baseline device must brick");
        h.check_invariants().unwrap();
        // Whole-device failure recovered everything it held.
        assert!(h.metrics().recovery_bytes > 0);
    }

    #[test]
    fn observed_harness_traces_recovery() {
        use salamander_obs::TraceEvent;
        let mut h = ClusterHarness::new(difs_cfg()).with_obs(Obs::recording());
        for s in 0..4 {
            h.add_device(ssd_cfg(Mode::Shrink, 100 + s));
        }
        h.fill(0.8);
        for _ in 0..40 {
            h.churn(10_000);
            if h.metrics().recovery_bytes > 0 {
                break;
            }
        }
        let m = h.metrics();
        assert!(m.recovery_bytes > 0, "no recovery traffic despite wear");
        let trace = h.obs().trace.take();
        let rereplicated: u64 = trace
            .iter()
            .map(|r| match r.event {
                TraceEvent::ChunkReReplicated { bytes, .. } => bytes,
                _ => 0,
            })
            .sum();
        assert_eq!(rereplicated, m.recovery_bytes);
        // Device-level wear events share the same trace stream.
        assert!(trace
            .iter()
            .any(|r| matches!(r.event, TraceEvent::MdiskDecommissioned { .. })));
        let metrics = h.obs().metrics.snapshot();
        assert_eq!(
            metrics.counter("salamander_difs_recovery_bytes_total"),
            m.recovery_bytes
        );
        assert_eq!(
            metrics.gauge("salamander_difs_under_replicated"),
            Some(m.under_replicated as f64)
        );
    }

    #[test]
    fn churn_emits_cluster_rollups() {
        use salamander_obs::TraceEvent;
        let mut h = ClusterHarness::new(difs_cfg()).with_obs(Obs::recording());
        for s in 0..4 {
            h.add_device(ssd_cfg(Mode::Shrink, 100 + s));
        }
        h.fill(0.5);
        for _ in 0..5 {
            h.churn(1_000);
        }
        let trace = h.obs().trace.take();
        let rollups: Vec<_> = trace
            .iter()
            .filter_map(|r| match &r.event {
                TraceEvent::ClusterRollup(c) => Some(c),
                _ => None,
            })
            .collect();
        assert_eq!(rollups.len(), 5, "one rollup per churn round");
        assert_eq!(rollups[0].day, 1);
        assert!(rollups[0].full > 0, "filled chunks appear as full");
        assert!(
            rollups[0].fullness.iter().sum::<u32>() > 0,
            "alive units populate the fullness histogram"
        );
        assert_eq!(
            h.cluster_rollups(),
            rollups.into_iter().cloned().collect::<Vec<_>>(),
            "the kernel folds the same series the trace records"
        );
    }

    #[test]
    fn chunk_size_must_divide_msize() {
        let mut h = ClusterHarness::new(DifsConfig {
            replication: 3,
            chunk_bytes: 100_000,
            recovery_chunks_per_tick: None,
        });
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            h.add_device(ssd_cfg(Mode::Shrink, 1));
        }));
        assert!(result.is_err());
    }
}

#[cfg(test)]
mod policy_tests {
    use super::*;
    use salamander::config::Mode;

    fn limited_difs() -> DifsConfig {
        DifsConfig {
            replication: 3,
            chunk_bytes: 256 * 1024,
            recovery_chunks_per_tick: Some(2),
        }
    }

    fn run(policy: RecoveryPolicy, seed: u64) -> (u64, u64, u64) {
        let mut h = ClusterHarness::new(limited_difs()).with_policy(policy);
        for s in 0..6 {
            h.add_device(SsdConfig::small_test().mode(Mode::Shrink).seed(seed + s));
        }
        h.fill(0.6);
        for _ in 0..1500 {
            h.churn(250);
            if h.alive_devices() == 0 {
                break;
            }
        }
        let m = h.metrics();
        (m.exposure_chunk_ticks, m.lost_chunks, m.migration_bytes)
    }

    #[test]
    fn proactive_drains_reduce_exposure() {
        let (reactive_exposure, _, reactive_migration) = run(RecoveryPolicy::Reactive, 700);
        let (proactive_exposure, _, proactive_migration) = run(
            RecoveryPolicy::Proactive {
                margin: 2.0,
                drain_budget: 8,
            },
            700,
        );
        assert_eq!(reactive_migration, 0, "reactive never migrates");
        assert!(proactive_migration > 0, "proactive must migrate data");
        assert!(
            proactive_exposure < reactive_exposure,
            "proactive {proactive_exposure} vs reactive {reactive_exposure} chunk-ticks"
        );
    }

    #[test]
    fn smart_headroom_shrinks_with_wear() {
        let mut h = ClusterHarness::new(limited_difs());
        h.add_device(SsdConfig::small_test().mode(Mode::Shrink).seed(1));
        let before = h.ssd(0).smart();
        h.churn(4_000);
        let after = h.ssd(0).smart();
        assert!(after.avg_pec > before.avg_pec);
        assert!(after.life_remaining < before.life_remaining);
        // Headroom sawtooths (each decommission restores up to one
        // minidisk of slack) but stays under one minidisk by protocol.
        let msize = h.ssd(0).config().ftl_config().lbas_per_mdisk() as u64;
        assert!(after.headroom_opages < msize);
        // Wear is visible in the histogram: pages have left L0.
        assert!(after.level_histogram[0] < before.level_histogram[0]);
    }
}
