//! Cluster topology: nodes, devices, and storage units.
//!
//! Units carry a capacity in chunks and a used count maintained by the
//! chunk store. Unit lifecycle mirrors Salamander device events: a
//! regenerated minidisk becomes a fresh unit; a decommissioned one fails.
//!
//! The cluster also keeps the placement index that
//! [`choose_targets`](crate::placement::choose_targets) walks: each
//! device's best placeable unit (its *head*), ordered by placement rank.
//! Every change to a unit's `used`, `alive` or `cordoned` goes through a
//! method here, so the index never drifts from the units.

use crate::types::{DeviceId, NodeId, UnitId};
use std::cmp::Reverse;
use std::collections::BTreeSet;

/// One storage unit's state.
#[derive(Debug, Clone)]
pub struct Unit {
    /// Owning node.
    pub node: NodeId,
    /// Owning physical device.
    pub device: DeviceId,
    /// Capacity in chunks.
    pub capacity: u32,
    /// Chunks currently placed here.
    pub used: u32,
    /// Whether the unit is alive.
    pub alive: bool,
    /// Cordoned: alive and readable, but excluded from new placements
    /// (HDFS-style decommissioning state, used by proactive draining).
    pub cordoned: bool,
}

impl Unit {
    /// Free chunk slots.
    pub fn free(&self) -> u32 {
        self.capacity.saturating_sub(self.used)
    }

    /// Whether new replicas may land here.
    fn placeable(&self) -> bool {
        self.alive && !self.cordoned && self.free() > 0
    }
}

/// Placement rank of a placeable unit: most free first, then lowest id.
/// Ascending order of this key is descending preference.
type Rank = (Reverse<u32>, UnitId);

/// Cluster topology registry.
///
/// Unit and device ids are allocated densely from 0, so both live in
/// `Vec`s indexed by id.
#[derive(Debug, Clone, Default)]
pub struct Cluster {
    next_node: u32,
    /// Owning node of each device.
    devices: Vec<NodeId>,
    units: Vec<Unit>,
    /// Alive units of each device, ascending by id.
    device_units: Vec<Vec<UnitId>>,
    /// Rank of each device's best placeable unit, if it has one.
    heads: Vec<Option<Rank>>,
    /// Every `Some` of `heads`, in rank order.
    ranked: BTreeSet<Rank>,
}

impl Cluster {
    /// An empty cluster.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a node.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId(self.next_node);
        self.next_node += 1;
        id
    }

    /// Attach a device to `node`.
    pub fn add_device(&mut self, node: NodeId) -> DeviceId {
        let id = DeviceId(self.devices.len() as u32);
        self.devices.push(node);
        self.device_units.push(Vec::new());
        self.heads.push(None);
        id
    }

    /// Expose a unit of `capacity` chunks on `device`.
    ///
    /// # Panics
    ///
    /// Panics if the device was never added.
    pub fn add_unit(&mut self, device: DeviceId, capacity: u32) -> UnitId {
        let node = *self.devices.get(device.0 as usize).expect("unknown device");
        let id = UnitId(self.units.len() as u64);
        self.units.push(Unit {
            node,
            device,
            capacity,
            used: 0,
            alive: true,
            cordoned: false,
        });
        self.device_units[device.0 as usize].push(id);
        self.promote(id);
        id
    }

    /// Cordon a unit: it stays alive (readable, its replicas count) but
    /// receives no new placements. Idempotent; unknown units are ignored.
    pub fn cordon_unit(&mut self, unit: UnitId) {
        if let Some(u) = self.slot(unit) {
            self.units[u].cordoned = true;
            self.demote(unit);
        }
    }

    /// Mark a unit failed. Idempotent; unknown units are ignored.
    pub fn fail_unit(&mut self, unit: UnitId) {
        let Some(u) = self.slot(unit) else {
            return;
        };
        if !self.units[u].alive {
            return;
        }
        self.units[u].alive = false;
        let device = self.units[u].device.0 as usize;
        self.device_units[device].retain(|&x| x != unit);
        self.demote(unit);
    }

    /// Fail every unit on `device` (whole-SSD failure). Returns the failed
    /// unit ids, ascending.
    pub fn fail_device(&mut self, device: DeviceId) -> Vec<UnitId> {
        let Some(alive) = self.device_units.get_mut(device.0 as usize) else {
            return Vec::new();
        };
        let failed = std::mem::take(alive);
        for &id in &failed {
            self.units[id.0 as usize].alive = false;
        }
        self.set_head(device.0 as usize, None);
        failed
    }

    /// Unit accessor.
    pub fn unit(&self, id: UnitId) -> Option<&Unit> {
        self.slot(id).map(|u| &self.units[u])
    }

    /// All units (alive and failed), ascending by id.
    pub fn units(&self) -> impl Iterator<Item = (UnitId, &Unit)> {
        self.units
            .iter()
            .enumerate()
            .map(|(i, u)| (UnitId(i as u64), u))
    }

    /// Alive units only.
    pub fn alive_units(&self) -> impl Iterator<Item = (UnitId, &Unit)> {
        self.units().filter(|(_, u)| u.alive)
    }

    /// Total alive capacity in chunks.
    pub fn alive_capacity(&self) -> u64 {
        self.alive_units().map(|(_, u)| u.capacity as u64).sum()
    }

    /// Total used chunks on alive units.
    pub fn alive_used(&self) -> u64 {
        self.alive_units().map(|(_, u)| u.used as u64).sum()
    }

    /// Number of alive units.
    pub fn alive_unit_count(&self) -> u32 {
        self.alive_units().count() as u32
    }

    /// Each device's best placeable unit, best first. The best unit
    /// satisfying any device/node exclusion is the first head that does.
    pub(crate) fn ranked_heads(&self) -> impl Iterator<Item = (UnitId, &Unit)> {
        self.ranked
            .iter()
            .map(|&(_, id)| (id, &self.units[id.0 as usize]))
    }

    /// Place one replica on `unit`.
    pub(crate) fn take_slot(&mut self, unit: UnitId) {
        self.units[unit.0 as usize].used += 1;
        self.demote(unit);
    }

    /// Release one replica's slot on `unit`. Unknown units are ignored.
    pub(crate) fn release_slot(&mut self, unit: UnitId) {
        if let Some(u) = self.slot(unit) {
            self.units[u].used = self.units[u].used.saturating_sub(1);
            self.promote(unit);
        }
    }

    /// Check the placement index against a rebuild from the units: the
    /// heads are exactly each device's best placeable unit, the ordered
    /// set holds exactly the heads, and every device's alive-unit list is
    /// its alive units in id order.
    pub(crate) fn check_index(&self) -> Result<(), String> {
        let mut best: Vec<Option<Rank>> = vec![None; self.devices.len()];
        let mut alive = vec![0usize; self.devices.len()];
        for (id, u) in self.units() {
            let d = u.device.0 as usize;
            if u.alive {
                alive[d] += 1;
            }
            if let Some(rank) = Self::rank(id, u) {
                best[d] = Some(best[d].map_or(rank, |b| b.min(rank)));
            }
        }
        for (d, list) in self.device_units.iter().enumerate() {
            let in_order = list.windows(2).all(|w| w[0] < w[1]);
            let all_alive = list.iter().all(|&id| {
                self.unit(id)
                    .is_some_and(|u| u.alive && u.device.0 as usize == d)
            });
            if !in_order || !all_alive || list.len() != alive[d] {
                return Err(format!("device {d}: alive-unit list out of step"));
            }
        }
        for &(_, id) in self.heads.iter().flatten() {
            if !self.units[id.0 as usize].placeable() {
                return Err(format!("{id:?} is a head but not placeable"));
            }
        }
        if best != self.heads {
            return Err("placement heads differ from a rebuild".into());
        }
        let mut heads = self.heads.iter().flatten();
        if self.ranked.len() != heads.clone().count() || !heads.all(|h| self.ranked.contains(h)) {
            return Err("ranked set differs from the heads".into());
        }
        Ok(())
    }

    fn slot(&self, id: UnitId) -> Option<usize> {
        usize::try_from(id.0).ok().filter(|&u| u < self.units.len())
    }

    fn rank(id: UnitId, u: &Unit) -> Option<Rank> {
        u.placeable().then_some((Reverse(u.free()), id))
    }

    /// `unit` became better (or appeared): it replaces its device's head
    /// if it now outranks it.
    fn promote(&mut self, unit: UnitId) {
        let u = &self.units[unit.0 as usize];
        let device = u.device.0 as usize;
        if let Some(rank) = Self::rank(unit, u) {
            if self.heads[device].is_none_or(|head| rank < head) {
                self.set_head(device, Some(rank));
            }
        }
    }

    /// `unit` became worse: if it was its device's head, rescan the
    /// device's alive units for the new best.
    fn demote(&mut self, unit: UnitId) {
        let device = self.units[unit.0 as usize].device.0 as usize;
        if self.heads[device].is_some_and(|(_, head)| head == unit) {
            let best = self.device_units[device]
                .iter()
                .filter_map(|&id| Self::rank(id, &self.units[id.0 as usize]))
                .min();
            self.set_head(device, best);
        }
    }

    fn set_head(&mut self, device: usize, head: Option<Rank>) {
        let old = std::mem::replace(&mut self.heads[device], head);
        if old != head {
            if let Some(old) = old {
                self.ranked.remove(&old);
            }
            if let Some(new) = head {
                self.ranked.insert(new);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> (Cluster, Vec<UnitId>) {
        let mut c = Cluster::new();
        let mut units = Vec::new();
        for _ in 0..3 {
            let n = c.add_node();
            let d = c.add_device(n);
            units.push(c.add_unit(d, 5));
        }
        (c, units)
    }

    #[test]
    fn topology_registration() {
        let (c, units) = tiny();
        assert_eq!(c.alive_unit_count(), 3);
        assert_eq!(c.alive_capacity(), 15);
        let u = c.unit(units[0]).unwrap();
        assert_eq!(u.node, NodeId(0));
        assert_eq!(u.device, DeviceId(0));
        assert_eq!(u.free(), 5);
    }

    #[test]
    fn fail_unit_and_device() {
        let (mut c, units) = tiny();
        c.fail_unit(units[0]);
        assert!(!c.unit(units[0]).unwrap().alive);
        assert_eq!(c.alive_unit_count(), 2);
        // fail_device fails all that device's remaining units.
        let n = c.add_node();
        let d = c.add_device(n);
        let a = c.add_unit(d, 1);
        let b = c.add_unit(d, 1);
        let failed = c.fail_device(d);
        assert_eq!(failed, vec![a, b]);
        assert_eq!(c.fail_device(d), vec![], "idempotent");
        c.check_index().unwrap();
    }

    #[test]
    #[should_panic(expected = "unknown device")]
    fn unit_requires_device() {
        let mut c = Cluster::new();
        c.add_unit(DeviceId(9), 1);
    }

    #[test]
    fn heads_follow_slots_cordons_and_failures() {
        let mut c = Cluster::new();
        let n = c.add_node();
        let d = c.add_device(n);
        let a = c.add_unit(d, 2);
        let b = c.add_unit(d, 2);
        let head = |c: &Cluster| c.ranked_heads().map(|(id, _)| id).collect::<Vec<_>>();
        assert_eq!(head(&c), vec![a], "tie goes to the lower id");
        c.take_slot(a);
        assert_eq!(head(&c), vec![b], "a worse head is replaced by a rescan");
        c.release_slot(a);
        assert_eq!(head(&c), vec![a], "an improved unit retakes the head");
        c.cordon_unit(a);
        assert_eq!(head(&c), vec![b]);
        c.take_slot(b);
        c.take_slot(b);
        assert_eq!(head(&c), vec![], "full and cordoned units are not heads");
        c.release_slot(b);
        c.fail_unit(b);
        assert_eq!(head(&c), vec![]);
        let fresh = c.add_unit(d, 1);
        assert_eq!(head(&c), vec![fresh]);
        c.check_index().unwrap();
    }
}
