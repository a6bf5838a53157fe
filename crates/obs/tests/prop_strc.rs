//! Property tests for the indexed binary flight-recorder format:
//! every event the taxonomy can express must survive a JSONL ↔ `.strc`
//! round-trip bit-exactly, at any chunk size (including 1-record
//! chunks and boundary-straddling traces), and the footer index must
//! agree with the records it summarizes.

mod common;

use common::{cluster_rollup_strategy, latency_rollup_strategy, record_strategy};
use proptest::prelude::*;
use salamander_obs::event::{SimTime, TraceEvent, TraceRecord};
use salamander_obs::strc::{convert_file, read_strc, summarize, write_strc, StrcReader};
use salamander_obs::trace::to_jsonl;
use std::path::PathBuf;

/// A per-case temp path; proptest shrinks re-run cases, so the file is
/// removed before each return path.
fn tmp(name: &str, case: u64) -> PathBuf {
    std::env::temp_dir().join(format!(
        "salamander-prop-strc-{}-{case}-{name}",
        std::process::id()
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn strc_round_trips_at_any_chunk_size(
        records in proptest::collection::vec(record_strategy(), 0..60),
        chunk_records in 1usize..10,
        case in any::<u64>(),
    ) {
        let path = tmp("roundtrip.strc", case);
        write_strc(&path, &records, chunk_records).unwrap();
        let back = read_strc(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        prop_assert_eq!(back, records);
    }

    #[test]
    fn footer_index_matches_the_records(
        records in proptest::collection::vec(record_strategy(), 0..60),
        chunk_records in 1usize..10,
        case in any::<u64>(),
    ) {
        let path = tmp("index.strc", case);
        write_strc(&path, &records, chunk_records).unwrap();
        let mut reader = StrcReader::open(&path).unwrap();
        prop_assert_eq!(reader.record_count(), records.len() as u64);
        let expected_chunks = records.len().div_ceil(chunk_records);
        prop_assert_eq!(reader.chunk_count(), expected_chunks);
        for i in 0..reader.chunk_count() {
            let chunk = reader.read_chunk(i).unwrap();
            prop_assert_eq!(&chunk[..], &records[i * chunk_records..(i * chunk_records + chunk.len())]);
            // The stored summary equals a fresh fold over the decoded
            // records (offsets aside, which only the writer knows).
            let mut fresh = summarize(&chunk);
            let stored = &reader.summaries()[i];
            fresh.offset = stored.offset;
            fresh.byte_len = stored.byte_len;
            prop_assert_eq!(&fresh, stored);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn latency_rollups_round_trip_at_any_chunk_size(
        rollups in proptest::collection::vec(latency_rollup_strategy(), 0..8),
        chunk_records in 1usize..5,
        case in any::<u64>(),
    ) {
        // ISSUE 9: arbitrary LatencyRollups — any class count, any bin
        // widths, any counter values — survive JSONL ↔ .strc at any
        // chunk size, byte-exactly in both directions.
        let records: Vec<TraceRecord> = rollups
            .into_iter()
            .enumerate()
            .map(|(i, r)| TraceRecord {
                seq: i as u64,
                time: SimTime::new(r.day, i as u64),
                event: TraceEvent::LatencyRollup(r),
            })
            .collect();
        let strc = tmp("lat.strc", case);
        let jsonl = tmp("lat.jsonl", case);
        write_strc(&strc, &records, chunk_records).unwrap();
        let back = read_strc(&strc).unwrap();
        let n = convert_file(&strc, &jsonl).unwrap();
        let text = std::fs::read_to_string(&jsonl).unwrap();
        let _ = std::fs::remove_file(&strc);
        let _ = std::fs::remove_file(&jsonl);
        prop_assert_eq!(n, records.len() as u64);
        prop_assert_eq!(text, to_jsonl(&records));
        prop_assert_eq!(back, records);
    }

    #[test]
    fn cluster_rollups_round_trip_at_any_chunk_size(
        rollups in proptest::collection::vec(cluster_rollup_strategy(), 0..8),
        chunk_records in 1usize..5,
        case in any::<u64>(),
    ) {
        // ISSUE 10: arbitrary ClusterRollups — any counter values, any
        // histogram lengths — survive JSONL ↔ .strc at any chunk size,
        // byte-exactly in both directions.
        let records: Vec<TraceRecord> = rollups
            .into_iter()
            .enumerate()
            .map(|(i, r)| TraceRecord {
                seq: i as u64,
                time: SimTime::new(r.day, i as u64),
                event: TraceEvent::ClusterRollup(r),
            })
            .collect();
        let strc = tmp("cluster.strc", case);
        let jsonl = tmp("cluster.jsonl", case);
        write_strc(&strc, &records, chunk_records).unwrap();
        let back = read_strc(&strc).unwrap();
        let n = convert_file(&strc, &jsonl).unwrap();
        let text = std::fs::read_to_string(&jsonl).unwrap();
        let _ = std::fs::remove_file(&strc);
        let _ = std::fs::remove_file(&jsonl);
        prop_assert_eq!(n, records.len() as u64);
        prop_assert_eq!(text, to_jsonl(&records));
        prop_assert_eq!(back, records);
    }

    #[test]
    fn jsonl_and_strc_converters_are_lossless(
        records in proptest::collection::vec(record_strategy(), 0..40),
        case in any::<u64>(),
    ) {
        let jsonl_in = tmp("conv-in.jsonl", case);
        let strc_mid = tmp("conv-mid.strc", case);
        let jsonl_out = tmp("conv-out.jsonl", case);
        let text = to_jsonl(&records);
        std::fs::write(&jsonl_in, &text).unwrap();
        let n1 = convert_file(&jsonl_in, &strc_mid).unwrap();
        let n2 = convert_file(&strc_mid, &jsonl_out).unwrap();
        let round = std::fs::read_to_string(&jsonl_out).unwrap();
        for p in [&jsonl_in, &strc_mid, &jsonl_out] {
            let _ = std::fs::remove_file(p);
        }
        prop_assert_eq!(n1, records.len() as u64);
        prop_assert_eq!(n2, records.len() as u64);
        // Byte-identical JSONL after a full round trip.
        prop_assert_eq!(round, text);
    }
}
