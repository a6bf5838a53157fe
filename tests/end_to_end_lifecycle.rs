//! End-to-end lifecycle: real devices, real FTLs, real diFS, from fresh
//! deployment through shrinking, regeneration, recovery, and death.

use salamander::config::{Mode, SsdConfig};
use salamander::device::{HostEvent, SalamanderSsd};
use salamander_difs::types::DifsConfig;
use salamander_fleet::bridge::ClusterHarness;

fn difs_cfg() -> DifsConfig {
    DifsConfig {
        replication: 3,
        chunk_bytes: 256 * 1024,
        recovery_chunks_per_tick: None,
    }
}

/// Churn a single device and collect every event it ever emits.
fn life_events(mode: Mode, seed: u64) -> Vec<HostEvent> {
    let mut ssd = SalamanderSsd::open(SsdConfig::small_test().mode(mode).seed(seed));
    let mut events = Vec::new();
    let mut state = seed | 1;
    let mut guard = 0u64;
    while !ssd.is_dead() && guard < 3_000_000 {
        let mdisks = ssd.minidisks();
        if mdisks.is_empty() {
            break;
        }
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let id = mdisks[(state as usize / 7) % mdisks.len()];
        let lbas = ssd.minidisk_lbas(id).unwrap();
        let _ = ssd.write(id, (state % lbas as u64) as u32, None);
        events.extend(ssd.poll_events());
        guard += 1;
    }
    events.extend(ssd.poll_events());
    events
}

#[test]
fn regen_device_full_event_lifecycle() {
    let events = life_events(Mode::Regen, 1);
    let failed: Vec<_> = events
        .iter()
        .filter(|e| matches!(e, HostEvent::MinidiskFailed { .. }))
        .collect();
    let created: Vec<_> = events
        .iter()
        .filter(|e| matches!(e, HostEvent::MinidiskCreated { .. }))
        .collect();
    assert!(!failed.is_empty(), "device must shrink");
    assert!(!created.is_empty(), "device must regenerate");
    // Lifecycle ends with device failure, exactly once, as the last event.
    let death_count = events
        .iter()
        .filter(|e| matches!(e, HostEvent::DeviceFailed))
        .count();
    assert_eq!(death_count, 1);
    assert!(matches!(events.last(), Some(HostEvent::DeviceFailed)));
    // Every created minidisk either fails later or the device dies; ids
    // never repeat across the lifecycle.
    let mut seen = std::collections::HashSet::new();
    for e in &events {
        if let HostEvent::MinidiskCreated { id, .. } = e {
            assert!(seen.insert(*id), "minidisk ids must be unique");
        }
    }
}

#[test]
fn cluster_survives_device_aging_without_data_loss_until_capacity_gone() {
    // 6 nodes × 1 ShrinkS SSD, filled to 60%: as devices shrink the store
    // re-replicates; data loss may only appear once cluster capacity is
    // truly exhausted.
    let mut h = ClusterHarness::new(difs_cfg());
    for s in 0..6 {
        h.add_device(SsdConfig::small_test().mode(Mode::Shrink).seed(50 + s));
    }
    let chunks = h.fill(0.6);
    assert!(chunks > 0);
    let mut first_loss_capacity_ratio = None;
    let initial_capacity = h.cluster().alive_capacity();
    for _ in 0..200 {
        h.churn(5_000);
        h.check_invariants().unwrap();
        let m = h.metrics();
        if m.lost_chunks > 0 && first_loss_capacity_ratio.is_none() {
            first_loss_capacity_ratio =
                Some(h.cluster().alive_capacity() as f64 / initial_capacity as f64);
        }
        if h.alive_devices() == 0 {
            break;
        }
    }
    assert_eq!(h.alive_devices(), 0, "fast wear should exhaust the fleet");
    // Some loss is inevitable once the whole fleet dies, but it must not
    // start while the cluster still had most of its capacity.
    if let Some(ratio) = first_loss_capacity_ratio {
        assert!(
            ratio < 0.7,
            "data loss started while {}% capacity remained",
            (ratio * 100.0) as u32
        );
    }
    // Replication did real work first.
    assert!(h.metrics().recovery_bytes > 0);
}

#[test]
fn regen_cluster_recovers_more_but_keeps_capacity_longer() {
    let run = |mode: Mode| {
        let mut h = ClusterHarness::new(difs_cfg());
        for s in 0..4 {
            h.add_device(SsdConfig::small_test().mode(mode).seed(80 + s));
        }
        h.fill(0.5);
        let mut rounds_alive = 0;
        for _ in 0..300 {
            h.churn(5_000);
            if h.alive_devices() == 0 {
                break;
            }
            rounds_alive += 1;
        }
        (rounds_alive, h.metrics().recovery_bytes)
    };
    let (shrink_life, _) = run(Mode::Shrink);
    let (regen_life, _) = run(Mode::Regen);
    assert!(
        regen_life > shrink_life,
        "regen fleet lives longer: {regen_life} vs {shrink_life} rounds"
    );
}

/// Keep rewriting a working set with real payloads while the device
/// shrinks; every read of a surviving minidisk must return the last
/// written bytes (the FTL relocates data transparently). Each
/// checkpoint verifies the first `verify_per_checkpoint` shadow entries
/// in `(minidisk, lba)` order.
fn rewrite_through_shrinkage(verify_per_checkpoint: usize) {
    let mut ssd = SalamanderSsd::open(SsdConfig::small_test().mode(Mode::Shrink).seed(7));
    let opage = ssd.opage_bytes();
    // Ordered, so the entries a checkpoint verifies do not depend on a
    // per-process hash seed.
    let mut content: std::collections::BTreeMap<(u32, u32), u8> = std::collections::BTreeMap::new();
    let mut state = 0x1234_5678u64;
    for round in 0..60_000u32 {
        let mdisks = ssd.minidisks();
        if mdisks.is_empty() || ssd.is_dead() {
            break;
        }
        // Drop shadow entries for decommissioned minidisks.
        content.retain(|(m, _), _| mdisks.iter().any(|x| x.0 == *m));
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let id = mdisks[(state as usize / 7) % mdisks.len()];
        let lbas = ssd.minidisk_lbas(id).unwrap();
        let lba = (state % lbas as u64) as u32;
        let tag = (round % 251) as u8;
        if ssd.write(id, lba, Some(&vec![tag; opage])).is_ok() {
            content.insert((id.0, lba), tag);
        }
        if round % 5000 == 0 {
            let mdisks_now = ssd.minidisks();
            for (&(m, l), &tag) in content.iter().take(verify_per_checkpoint) {
                if !mdisks_now.iter().any(|x| x.0 == m) {
                    continue;
                }
                match ssd.read(salamander_ftl::types::MdiskId(m), l) {
                    Ok(Some(bytes)) => assert_eq!(
                        bytes,
                        vec![tag; opage],
                        "round {round}: minidisk {m} lba {l} read back {} not the acknowledged {tag}",
                        bytes[0]
                    ),
                    Ok(None) => panic!("data write read back as synthetic"),
                    Err(e) => panic!("read failed: {e}"),
                }
            }
        }
    }
    assert!(
        ssd.stats().mdisks_decommissioned > 0,
        "the device should have shrunk during the test"
    );
}

#[test]
fn written_data_survives_device_shrinkage() {
    rewrite_through_shrinkage(8);
}

/// The exhaustive twin: every surviving shadow entry at every
/// checkpoint. Fails deterministically until the FTL fix lands.
#[test]
#[ignore = "ROADMAP item 1: Ftl::flush_one stale read under hot_cold_separation"]
fn every_written_lba_survives_device_shrinkage() {
    rewrite_through_shrinkage(usize::MAX);
}
