//! Property-based tests for the diFS: random create/fail/add sequences
//! must preserve replication invariants and never lose a chunk that
//! always had a surviving replica.

use proptest::prelude::*;
use salamander_difs::cluster::Cluster;
use salamander_difs::store::ChunkStore;
use salamander_difs::types::{DifsConfig, UnitId};

#[derive(Debug, Clone)]
enum Action {
    Create,
    FailUnit(u8),
    AddUnit(u8),
}

fn action_strategy() -> impl Strategy<Value = Action> {
    prop_oneof![
        4 => Just(Action::Create),
        2 => any::<u8>().prop_map(Action::FailUnit),
        1 => any::<u8>().prop_map(Action::AddUnit),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_lifecycle_holds_invariants(
        actions in proptest::collection::vec(action_strategy(), 1..120),
        replication in 2u32..4,
    ) {
        let mut cluster = Cluster::new();
        let mut nodes = Vec::new();
        for _ in 0..5 {
            let n = cluster.add_node();
            let d = cluster.add_device(n);
            cluster.add_unit(d, 6);
            nodes.push((n, d));
        }
        let mut store = ChunkStore::new(DifsConfig {
            replication,
            chunk_bytes: 1 << 20,
            recovery_chunks_per_tick: None,
        });
        let mut failed: Vec<UnitId> = Vec::new();
        for a in &actions {
            match a {
                Action::Create => {
                    // May legitimately fail on capacity; both outcomes fine.
                    let _ = store.create_chunk(&mut cluster);
                }
                Action::FailUnit(pick) => {
                    let alive: Vec<UnitId> =
                        cluster.alive_units().map(|(id, _)| id).collect();
                    if alive.is_empty() {
                        continue;
                    }
                    let victim = alive[*pick as usize % alive.len()];
                    store.fail_unit(&mut cluster, victim);
                    failed.push(victim);
                }
                Action::AddUnit(pick) => {
                    let (_, d) = nodes[*pick as usize % nodes.len()];
                    cluster.add_unit(d, 6);
                    store.retry_pending(&mut cluster);
                }
            }
            store
                .check_invariants(&cluster)
                .map_err(TestCaseError::fail)?;
        }
        // Every surviving chunk references only alive units, and the
        // recovery accounting is internally consistent.
        let m = store.metrics();
        prop_assert_eq!(
            m.recovery_bytes,
            m.re_replications * store.config().chunk_bytes
        );
    }

    /// A chunk is only ever lost if at some instant all of its replicas
    /// had failed — with replication R, fewer than R failures can never
    /// lose data.
    #[test]
    fn fewer_failures_than_replicas_never_lose_data(
        kill in proptest::collection::vec(any::<u8>(), 1..2),
        n_chunks in 1u64..10,
    ) {
        let mut cluster = Cluster::new();
        for _ in 0..6 {
            let n = cluster.add_node();
            let d = cluster.add_device(n);
            cluster.add_unit(d, 8);
        }
        let mut store = ChunkStore::new(DifsConfig::default()); // R = 3
        for _ in 0..n_chunks {
            store.create_chunk(&mut cluster).unwrap();
        }
        // Fail at most 2 units (< R = 3), sequentially with recovery.
        for k in &kill {
            let alive: Vec<UnitId> = cluster.alive_units().map(|(id, _)| id).collect();
            if alive.is_empty() { break; }
            store.fail_unit(&mut cluster, alive[*k as usize % alive.len()]);
        }
        prop_assert_eq!(store.metrics().lost_chunks, 0);
        prop_assert_eq!(store.chunk_count(), n_chunks);
    }
}

mod namespace_props {
    use proptest::prelude::*;
    use salamander_difs::cluster::Cluster;
    use salamander_difs::namespace::{Namespace, NamespaceError};
    use salamander_difs::store::ChunkStore;
    use salamander_difs::types::DifsConfig;
    use std::collections::BTreeMap;

    #[derive(Debug, Clone)]
    enum FsOp {
        Create { name: u8, mb: u8 },
        Delete { name: u8 },
        Rename { from: u8, to: u8 },
    }

    fn fs_op() -> impl Strategy<Value = FsOp> {
        prop_oneof![
            3 => (any::<u8>(), 1u8..8).prop_map(|(name, mb)| FsOp::Create { name, mb }),
            1 => any::<u8>().prop_map(|name| FsOp::Delete { name }),
            1 => (any::<u8>(), any::<u8>()).prop_map(|(from, to)| FsOp::Rename { from, to }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Random create/delete/rename sequences keep the namespace, the
        /// chunk store, and the cluster's used counters consistent with a
        /// shadow model.
        #[test]
        fn namespace_matches_shadow_model(ops in proptest::collection::vec(fs_op(), 1..60)) {
            let mut cluster = Cluster::new();
            for _ in 0..6 {
                let n = cluster.add_node();
                let d = cluster.add_device(n);
                cluster.add_unit(d, 24);
            }
            let mut store = ChunkStore::new(DifsConfig::default());
            let mut ns = Namespace::new();
            // Shadow: path -> size in MB.
            let mut shadow: BTreeMap<String, u64> = BTreeMap::new();
            let mb = 1u64 << 20;
            for op in &ops {
                match op {
                    FsOp::Create { name, mb: size } => {
                        let path = format!("/f{}", name % 16);
                        let r = ns.create(&mut store, &mut cluster, &path, *size as u64 * mb);
                        match r {
                            Ok(()) => {
                                prop_assert!(!shadow.contains_key(&path));
                                shadow.insert(path, *size as u64 * mb);
                            }
                            Err(NamespaceError::AlreadyExists) => {
                                prop_assert!(shadow.contains_key(&path));
                            }
                            Err(NamespaceError::Store(_)) => {
                                // Capacity exhaustion: rollback must leave
                                // the namespace unchanged.
                                prop_assert!(!ns.list("/").contains(&path.as_str()));
                            }
                            Err(e) => return Err(TestCaseError::fail(format!("{e}"))),
                        }
                    }
                    FsOp::Delete { name } => {
                        let path = format!("/f{}", name % 16);
                        let r = ns.delete(&mut store, &mut cluster, &path);
                        prop_assert_eq!(r.is_ok(), shadow.remove(&path).is_some());
                    }
                    FsOp::Rename { from, to } => {
                        let from = format!("/f{}", from % 16);
                        let to = format!("/f{}", to % 16);
                        let r = ns.rename(&from, &to);
                        let expect_ok = shadow.contains_key(&from)
                            && !shadow.contains_key(&to)
                            && from != to;
                        prop_assert_eq!(r.is_ok(), expect_ok, "rename {} -> {}", from, to);
                        if expect_ok {
                            let size = shadow.remove(&from).unwrap();
                            shadow.insert(to, size);
                        }
                    }
                }
                store.check_invariants(&cluster).map_err(TestCaseError::fail)?;
            }
            // Final agreement.
            prop_assert_eq!(ns.file_count(), shadow.len());
            prop_assert_eq!(ns.total_bytes(), shadow.values().sum::<u64>());
            // Used chunks = Σ ceil(size/chunk) × R.
            let chunk = store.config().chunk_bytes;
            let expect_used: u64 = shadow
                .values()
                .map(|s| s.div_ceil(chunk).max(1) * 3)
                .sum();
            prop_assert_eq!(cluster.alive_used(), expect_used);
        }
    }
}
