//! Replica placement.
//!
//! Replicas of a chunk must land on distinct *devices* (hard constraint —
//! two minidisks of one SSD fail together when the SSD dies) and prefer
//! distinct *nodes* (rack/host fault isolation, HDFS-style). Among eligible
//! units the least-loaded (most free chunks) wins, ties broken by id, so
//! placement is deterministic.
//!
//! The paper flags the mapping-flexibility vs correlated-failure trade-off
//! as an open question (§3.2); the distinct-device rule is the conservative
//! default it suggests managing "in the diFS".

use crate::cluster::Cluster;
use crate::types::{DeviceId, NodeId, UnitId};

/// Choose up to `needed` placement targets, excluding `exclude_devices`
/// and (softly) `exclude_nodes`.
///
/// Two passes: first require distinct nodes, then relax to distinct
/// devices only. Returns fewer than `needed` if the cluster cannot satisfy
/// the hard constraint.
///
/// Each pass walks the cluster's device heads (every device's best
/// placeable unit) in rank order. Exclusions are per device and per node,
/// which all units of a device share, so the best eligible unit is always
/// the first eligible head: O(R · log n) instead of a scan of every unit.
pub fn choose_targets(
    cluster: &Cluster,
    needed: usize,
    exclude_devices: &[DeviceId],
    exclude_nodes: &[NodeId],
) -> Vec<UnitId> {
    let mut chosen: Vec<UnitId> = Vec::with_capacity(needed);
    let mut used_devices = exclude_devices.to_vec();
    let mut used_nodes = exclude_nodes.to_vec();
    for relax_nodes in [false, true] {
        for (id, u) in cluster.ranked_heads() {
            if chosen.len() >= needed {
                break;
            }
            if used_devices.contains(&u.device) || (!relax_nodes && used_nodes.contains(&u.node)) {
                continue;
            }
            chosen.push(id);
            used_devices.push(u.device);
            used_nodes.push(u.node);
        }
        if chosen.len() >= needed {
            break;
        }
    }
    chosen
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// 3 nodes × 2 devices × 1 unit of capacity 4.
    fn cluster() -> (Cluster, Vec<UnitId>) {
        let mut c = Cluster::new();
        let mut units = Vec::new();
        for _ in 0..3 {
            let n = c.add_node();
            for _ in 0..2 {
                let d = c.add_device(n);
                units.push(c.add_unit(d, 4));
            }
        }
        (c, units)
    }

    #[test]
    fn spreads_across_nodes() {
        let (c, _) = cluster();
        let targets = choose_targets(&c, 3, &[], &[]);
        assert_eq!(targets.len(), 3);
        let nodes: BTreeSet<NodeId> = targets.iter().map(|t| c.unit(*t).unwrap().node).collect();
        assert_eq!(nodes.len(), 3, "one replica per node");
    }

    #[test]
    fn relaxes_to_distinct_devices_when_nodes_short() {
        let mut c = Cluster::new();
        let n = c.add_node();
        for _ in 0..4 {
            let d = c.add_device(n);
            c.add_unit(d, 4);
        }
        let targets = choose_targets(&c, 3, &[], &[]);
        assert_eq!(targets.len(), 3, "single node still yields 3 devices");
        let devices: BTreeSet<DeviceId> =
            targets.iter().map(|t| c.unit(*t).unwrap().device).collect();
        assert_eq!(devices.len(), 3);
    }

    #[test]
    fn never_two_replicas_on_one_device() {
        let mut c = Cluster::new();
        let n = c.add_node();
        let d = c.add_device(n);
        c.add_unit(d, 100);
        c.add_unit(d, 100);
        let targets = choose_targets(&c, 2, &[], &[]);
        assert_eq!(targets.len(), 1, "device constraint is hard");
    }

    #[test]
    fn honors_exclusions() {
        let (c, units) = cluster();
        let excl = [c.unit(units[0]).unwrap().device];
        let targets = choose_targets(&c, 3, &excl, &[]);
        assert!(!targets.contains(&units[0]));
        assert_eq!(targets.len(), 3);
    }

    #[test]
    fn skips_full_and_dead_units() {
        let (mut c, units) = cluster();
        // Fill unit 0 and kill unit 2.
        for _ in 0..4 {
            c.take_slot(units[0]);
        }
        c.fail_unit(units[2]);
        let targets = choose_targets(&c, 6, &[], &[]);
        assert!(!targets.contains(&units[0]));
        assert!(!targets.contains(&units[2]));
    }

    #[test]
    fn prefers_least_loaded() {
        let (mut c, units) = cluster();
        for (i, &u) in units.iter().enumerate() {
            if i != 4 {
                for _ in 0..3 {
                    c.take_slot(u);
                }
            }
        }
        let targets = choose_targets(&c, 1, &[], &[]);
        assert_eq!(targets, vec![units[4]]);
    }

    #[test]
    fn deterministic() {
        let (c, _) = cluster();
        let a = choose_targets(&c, 3, &[], &[]);
        let b = choose_targets(&c, 3, &[], &[]);
        assert_eq!(a, b);
    }
}
