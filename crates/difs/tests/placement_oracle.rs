//! Placement equivalence: the indexed `choose_targets` against the linear
//! scan it replaced.
//!
//! Topologies have several devices per node and several units of unequal
//! capacity per device, so rank ties, per-device heads and the
//! node-relaxation pass are all exercised. A reference model of the
//! chunk store (replica sets, unit counters, pending set, FIFO repair
//! queue) places every replica with the linear scan. After every
//! operation the real store must hold the same replica sets and unit
//! counters as the model, and `check_invariants` must pass.

use proptest::prelude::*;
use salamander_difs::cluster::{Cluster, Unit};
use salamander_difs::placement::choose_targets;
use salamander_difs::store::ChunkStore;
use salamander_difs::types::{ChunkId, DeviceId, DifsConfig, NodeId, UnitId};
use std::collections::{BTreeSet, VecDeque};

/// The linear-scan placement: per replica, the alive, uncordoned unit
/// with free space, an unused device and (first pass) an unused node
/// that has the most free slots, ties to the lowest id.
fn oracle(
    units: &[(UnitId, &Unit)],
    needed: usize,
    exclude_devices: &[DeviceId],
    exclude_nodes: &[NodeId],
) -> Vec<UnitId> {
    let mut chosen = Vec::new();
    let mut used_devices: BTreeSet<DeviceId> = exclude_devices.iter().copied().collect();
    let mut used_nodes: BTreeSet<NodeId> = exclude_nodes.iter().copied().collect();
    for relax_nodes in [false, true] {
        while chosen.len() < needed {
            let best = units
                .iter()
                .filter(|(_, u)| u.alive && u.free() > 0 && !u.cordoned)
                .filter(|(_, u)| !used_devices.contains(&u.device))
                .filter(|(_, u)| relax_nodes || !used_nodes.contains(&u.node))
                .max_by(|(ida, a), (idb, b)| a.free().cmp(&b.free()).then(idb.cmp(ida)))
                .map(|(id, u)| (*id, u.device, u.node));
            let Some((id, device, node)) = best else {
                break;
            };
            chosen.push(id);
            used_devices.insert(device);
            used_nodes.insert(node);
        }
        if chosen.len() >= needed {
            break;
        }
    }
    chosen
}

/// The chunk store's placement-visible behaviour, written as plain scans
/// over its own copy of the units.
struct Model {
    replication: usize,
    budget: Option<u32>,
    units: Vec<Unit>,
    chunks: Vec<Option<Vec<UnitId>>>,
    pending: BTreeSet<usize>,
    queue: VecDeque<usize>,
}

impl Model {
    fn unit(&mut self, id: UnitId) -> &mut Unit {
        &mut self.units[id.0 as usize]
    }

    fn place(&self, needed: usize, reps: &[UnitId]) -> Vec<UnitId> {
        let on = |id: &UnitId| &self.units[id.0 as usize];
        let devices: Vec<DeviceId> = reps.iter().map(|id| on(id).device).collect();
        let nodes: Vec<NodeId> = reps.iter().map(|id| on(id).node).collect();
        let view: Vec<(UnitId, &Unit)> = self
            .units
            .iter()
            .enumerate()
            .map(|(i, u)| (UnitId(i as u64), u))
            .collect();
        oracle(&view, needed, &devices, &nodes)
    }

    fn holding(&self, unit: UnitId) -> Vec<usize> {
        (0..self.chunks.len())
            .filter(|&c| self.chunks[c].as_ref().is_some_and(|r| r.contains(&unit)))
            .collect()
    }

    fn create(&mut self) -> bool {
        let targets = self.place(self.replication, &[]);
        if targets.len() < self.replication {
            return false;
        }
        for &t in &targets {
            self.unit(t).used += 1;
        }
        self.chunks.push(Some(targets));
        true
    }

    fn delete(&mut self, chunk: usize) {
        if let Some(reps) = self.chunks[chunk].take() {
            self.pending.remove(&chunk);
            for u in reps {
                self.unit(u).used -= 1;
            }
        }
    }

    /// The store's per-unit failure handling; the unit is already dead.
    fn lose_unit(&mut self, unit: UnitId) {
        for chunk in self.holding(unit) {
            let reps = self.chunks[chunk].as_mut().unwrap();
            reps.retain(|&u| u != unit);
            if reps.is_empty() {
                self.chunks[chunk] = None;
                self.pending.remove(&chunk);
            } else if self.budget.is_some() {
                if self.pending.insert(chunk) {
                    self.queue.push_back(chunk);
                }
            } else {
                self.repair(chunk);
            }
        }
    }

    fn fail_unit(&mut self, unit: UnitId) {
        self.unit(unit).alive = false;
        self.lose_unit(unit);
    }

    fn fail_device(&mut self, device: DeviceId) {
        let failed: Vec<UnitId> = (0..self.units.len())
            .map(|i| UnitId(i as u64))
            .filter(|&id| {
                let u = &self.units[id.0 as usize];
                u.device == device && u.alive
            })
            .collect();
        for &u in &failed {
            self.unit(u).alive = false;
        }
        for u in failed {
            self.lose_unit(u);
        }
    }

    fn repair(&mut self, chunk: usize) {
        let Some(reps) = self.chunks[chunk].clone() else {
            self.pending.remove(&chunk);
            return;
        };
        let missing = self.replication.saturating_sub(reps.len());
        let targets = self.place(missing, &reps);
        let placed = targets.len();
        for t in targets {
            self.unit(t).used += 1;
            self.chunks[chunk].as_mut().unwrap().push(t);
        }
        if placed < missing {
            self.pending.insert(chunk);
        } else {
            self.pending.remove(&chunk);
        }
    }

    fn retry_pending(&mut self) {
        for chunk in self.pending.clone() {
            self.repair(chunk);
        }
    }

    fn tick(&mut self) {
        let Some(budget) = self.budget else {
            return;
        };
        let mut repaired = 0;
        while repaired < budget {
            let Some(chunk) = self.queue.pop_front() else {
                break;
            };
            if !self.pending.contains(&chunk) {
                continue;
            }
            self.repair(chunk);
            if self.pending.contains(&chunk) {
                self.queue.push_back(chunk);
                break;
            }
            repaired += 1;
        }
    }

    fn drain(&mut self, unit: UnitId, budget: u32) -> u32 {
        let mut moved = 0;
        for chunk in self.holding(unit).into_iter().take(budget as usize) {
            let reps = self.chunks[chunk].clone().unwrap();
            let Some(&target) = self.place(1, &reps).first() else {
                continue;
            };
            self.unit(target).used += 1;
            self.unit(unit).used -= 1;
            let reps = self.chunks[chunk].as_mut().unwrap();
            reps.retain(|&u| u != unit);
            reps.push(target);
            moved += 1;
        }
        moved
    }
}

#[derive(Debug, Clone)]
enum Op {
    Create,
    Delete(u8),
    FailUnit(u8),
    FailDevice(u8),
    AddUnit {
        device: u8,
        capacity: u32,
    },
    CordonDrain {
        unit: u8,
        budget: u32,
    },
    Tick,
    Probe {
        needed: usize,
        devices: u8,
        nodes: u8,
    },
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => Just(Op::Create),
        2 => any::<u8>().prop_map(Op::Delete),
        2 => any::<u8>().prop_map(Op::FailUnit),
        1 => any::<u8>().prop_map(Op::FailDevice),
        2 => (any::<u8>(), 1u32..7).prop_map(|(device, capacity)| Op::AddUnit { device, capacity }),
        1 => (any::<u8>(), 1u32..4).prop_map(|(unit, budget)| Op::CordonDrain { unit, budget }),
        2 => Just(Op::Tick),
        1 => (1usize..5, any::<u8>(), any::<u8>())
            .prop_map(|(needed, devices, nodes)| Op::Probe { needed, devices, nodes }),
    ]
}

fn budget() -> impl Strategy<Value = Option<u32>> {
    prop_oneof![Just(None), (1u32..4).prop_map(Some)]
}

/// The members of `ids` selected by the bits of `mask`.
fn pick<T: Copy>(ids: &[T], mask: u8) -> Vec<T> {
    ids.iter()
        .enumerate()
        .filter(|(i, _)| mask & (1 << (i % 8)) != 0)
        .map(|(_, &id)| id)
        .collect()
}

fn agree(store: &ChunkStore, cluster: &Cluster, model: &Model) -> Result<(), TestCaseError> {
    store
        .check_invariants(cluster)
        .map_err(TestCaseError::fail)?;
    for (c, expect) in model.chunks.iter().enumerate() {
        let got = store.replicas(ChunkId(c as u64)).ok();
        prop_assert_eq!(got, expect.as_deref(), "replicas of chunk {}", c);
    }
    prop_assert_eq!(cluster.units().count(), model.units.len());
    for ((id, real), want) in cluster.units().zip(&model.units) {
        prop_assert_eq!(
            (real.used, real.alive, real.cordoned),
            (want.used, want.alive, want.cordoned),
            "{:?}",
            id
        );
    }
    prop_assert_eq!(store.metrics().under_replicated, model.pending.len() as u64);
    prop_assert_eq!(store.pending_repairs(), model.queue.len() as u64);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn indexed_placement_matches_linear_scan(
        (nodes, devices_per_node, units_per_device) in (1u32..4, 1u32..4, 1u32..5),
        capacities in proptest::collection::vec(1u32..7, 16..17),
        replication in 1u32..4,
        budget in budget(),
        ops in proptest::collection::vec(op(), 1..150),
    ) {
        let mut cluster = Cluster::new();
        let mut device_ids = Vec::new();
        let mut node_ids = Vec::new();
        let mut model = Model {
            replication: replication as usize,
            budget,
            units: Vec::new(),
            chunks: Vec::new(),
            pending: BTreeSet::new(),
            queue: VecDeque::new(),
        };
        let mut next_cap = capacities.iter().cycle();
        for _ in 0..nodes {
            let n = cluster.add_node();
            node_ids.push(n);
            for _ in 0..devices_per_node {
                let d = cluster.add_device(n);
                device_ids.push(d);
                for _ in 0..units_per_device {
                    let id = cluster.add_unit(d, *next_cap.next().unwrap());
                    model.units.push(cluster.unit(id).unwrap().clone());
                }
            }
        }
        let mut store = ChunkStore::new(DifsConfig {
            replication,
            chunk_bytes: 1 << 20,
            recovery_chunks_per_tick: budget,
        });
        agree(&store, &cluster, &model)?;
        for op in &ops {
            match *op {
                Op::Create => {
                    let made = store.create_chunk(&mut cluster).is_ok();
                    prop_assert_eq!(made, model.create());
                }
                Op::Delete(pick) => {
                    let live: Vec<usize> =
                        (0..model.chunks.len()).filter(|&c| model.chunks[c].is_some()).collect();
                    if let Some(&c) = live.get(pick as usize % live.len().max(1)) {
                        store.delete_chunk(&mut cluster, ChunkId(c as u64)).unwrap();
                        model.delete(c);
                    }
                }
                Op::FailUnit(pick) => {
                    let unit = UnitId(pick as u64 % model.units.len() as u64);
                    store.fail_unit(&mut cluster, unit);
                    model.fail_unit(unit);
                }
                Op::FailDevice(pick) => {
                    let device = device_ids[pick as usize % device_ids.len()];
                    store.fail_device(&mut cluster, device);
                    model.fail_device(device);
                }
                Op::AddUnit { device, capacity } => {
                    let device = device_ids[device as usize % device_ids.len()];
                    let id = cluster.add_unit(device, capacity);
                    model.units.push(cluster.unit(id).unwrap().clone());
                    store.retry_pending(&mut cluster);
                    model.retry_pending();
                }
                Op::CordonDrain { unit, budget } => {
                    let unit = UnitId(unit as u64 % model.units.len() as u64);
                    cluster.cordon_unit(unit);
                    model.unit(unit).cordoned = true;
                    let moved = store.drain_unit(&mut cluster, unit, budget);
                    prop_assert_eq!(moved, model.drain(unit, budget));
                }
                Op::Tick => {
                    store.tick(&mut cluster);
                    model.tick();
                }
                Op::Probe { needed, devices, nodes } => {
                    let devices = pick(&device_ids, devices);
                    let nodes = pick(&node_ids, nodes);
                    prop_assert_eq!(
                        choose_targets(&cluster, needed, &devices, &nodes),
                        oracle(&cluster.units().collect::<Vec<_>>(), needed, &devices, &nodes)
                    );
                }
            }
            prop_assert_eq!(
                choose_targets(&cluster, replication as usize, &[], &[]),
                oracle(&cluster.units().collect::<Vec<_>>(), replication as usize, &[], &[])
            );
            agree(&store, &cluster, &model)?;
        }
    }
}
