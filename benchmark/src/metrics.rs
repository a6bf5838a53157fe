//! The fixed metric vocabulary. `BENCHMARK.json` lists the same names,
//! units and directions; `--quick` fails if the two drift apart.
//!
//! Suffixes `_ns/_us/_ms/_s` are *host* time per call or per stage;
//! names containing `sim` are simulated time; bare names are exact
//! counts or ratios of exact counts for a given seed.

use std::collections::BTreeMap;

pub const LOWER: &str = "lower";
pub const HIGHER: &str = "higher";

/// Metrics in these units repeat exactly for a seed, so two runs of one
/// seed must agree on them; a size that does not (`VmHWM` per device)
/// carries another unit.
pub fn is_exact(unit: &str) -> bool {
    matches!(unit, "count" | "bytes")
}

/// `(name, unit, better)`.
pub type MetricDef = (&'static str, &'static str, &'static str);

/// What a user of the simulators pays, per workload. `failed_share` of
/// the issue text travels as the result line's `failed` / `attempted`
/// instead: the contract asks for metrics that are never 0 and this one
/// must always be.
pub const END_TO_END: &[MetricDef] = &[
    ("wall_s", "s", LOWER),
    ("cpu_s", "s", LOWER),
    ("sim_rate", "1/s", HIGHER),
    ("peak_rss_mb", "MiB", LOWER),
    ("setup_s", "s", LOWER),
];

/// One entry per single-layer measurement. The layer is the prefix.
pub const PER_LAYER: &[MetricDef] = &[
    // flash
    ("flash.program_ns", "ns", LOWER),
    ("flash.erase_ns", "ns", LOWER),
    ("flash.read_clean_ns", "ns", LOWER),
    ("flash.read_worn_ns", "ns", LOWER),
    ("flash.read_data_ns", "ns", LOWER),
    ("flash.replay_s", "s", LOWER),
    ("flash.programs", "count", LOWER),
    ("flash.reads", "count", LOWER),
    ("flash.erases", "count", LOWER),
    ("flash.retry_reads", "count", LOWER),
    ("flash.sim_busy_s", "s", LOWER),
    // ecc
    ("ecc.bch_encode_us.l0", "us", LOWER),
    ("ecc.bch_encode_us.l1", "us", LOWER),
    ("ecc.bch_decode_clean_us.l0", "us", LOWER),
    ("ecc.bch_decode_clean_us.l1", "us", LOWER),
    ("ecc.bch_decode_t_us.l0", "us", LOWER),
    ("ecc.bch_decode_t_us.l1", "us", LOWER),
    ("ecc.page_encode_ms.l0", "ms", LOWER),
    ("ecc.page_encode_ms.l1", "ms", LOWER),
    ("ecc.page_decode_ms.l0", "ms", LOWER),
    ("ecc.page_decode_ms.l1", "ms", LOWER),
    ("ecc.capability_ns", "ns", LOWER),
    ("ecc.corrected_bits", "count", LOWER),
    ("ecc.uncorrectable_pages", "count", LOWER),
    // ftl
    ("ftl.write_ns", "ns", LOWER),
    ("ftl.read_ns", "ns", LOWER),
    ("ftl.batch_p50_us", "us", LOWER),
    ("ftl.batch_p99_us", "us", LOWER),
    ("ftl.gc_pass_us", "us", LOWER),
    ("ftl.snapshot_ms", "ms", LOWER),
    ("ftl.host_writes", "count", LOWER),
    ("ftl.host_reads", "count", LOWER),
    ("ftl.opages_programmed", "count", LOWER),
    ("ftl.relocated_opages", "count", LOWER),
    ("ftl.gc_runs", "count", LOWER),
    ("ftl.write_amp", "ratio", LOWER),
    ("ftl.buffer_hit_share", "ratio", HIGHER),
    ("ftl.uncorrectable_reads", "count", LOWER),
    ("ftl.decommissions", "count", LOWER),
    ("ftl.regenerations", "count", HIGHER),
    // A defect counter, not a cost: see `workloads::device_mixed`.
    ("ftl.stale_reads_hot_cold", "count", LOWER),
    // core
    ("core.endurance_s.baseline", "s", LOWER),
    ("core.endurance_s.shrink", "s", LOWER),
    ("core.endurance_s.regen", "s", LOWER),
    ("core.open_ms", "ms", LOWER),
    ("core.sim_write_ns", "ns", LOWER),
    ("core.poll_events", "count", LOWER),
    // workload
    ("workload.next_op_ns.uniform", "ns", LOWER),
    ("workload.next_op_ns.zipfian", "ns", LOWER),
    // difs
    ("difs.create_chunk_us", "us", LOWER),
    ("difs.fail_unit_us", "us", LOWER),
    ("difs.fail_device_ms", "ms", LOWER),
    ("difs.tick_p50_us", "us", LOWER),
    ("difs.tick_p99_us", "us", LOWER),
    ("difs.retry_pending_us", "us", LOWER),
    ("difs.rollup_us", "us", LOWER),
    ("difs.invariants_ms", "ms", LOWER),
    ("difs.stage_s.ingest", "s", LOWER),
    ("difs.stage_s.minidisk", "s", LOWER),
    ("difs.stage_s.device", "s", LOWER),
    ("difs.re_replications", "count", LOWER),
    ("difs.recovery_bytes", "bytes", LOWER),
    ("difs.lost_chunks", "count", LOWER),
    ("difs.exposure_chunk_ticks", "count", LOWER),
    ("difs.max_under_replicated", "count", LOWER),
    // fleet
    ("fleet.run_s.regen3", "s", LOWER),
    ("fleet.run_s.shrink", "s", LOWER),
    ("fleet.run_s.baseline", "s", LOWER),
    ("fleet.observe_extra_s", "s", LOWER),
    ("fleet.ns_per_device_day", "ns", LOWER),
    ("fleet.bytes_per_device", "B/device", LOWER),
    ("fleet.device_days", "count", LOWER),
    ("fleet.deaths_wear", "count", LOWER),
    ("fleet.deaths_afr", "count", LOWER),
    ("fleet.harness_churn_s", "s", LOWER),
    ("fleet.harness_fill_s", "s", LOWER),
    ("fleet.harness_tick_p99_ms", "ms", LOWER),
    // exec
    ("exec.threads", "count", HIGHER),
    ("exec.par_map_overhead_us", "us", LOWER),
    ("exec.scaling", "ratio", HIGHER),
    // obs
    ("obs.emit_ns", "ns", LOWER),
    ("obs.emit_disabled_ns", "ns", LOWER),
    ("obs.strc_encode_ns_per_rec", "ns", LOWER),
    ("obs.strc_decode_ns_per_rec", "ns", LOWER),
    ("obs.strc_open_us", "us", LOWER),
    ("obs.strc_bytes_per_rec", "bytes", LOWER),
    ("obs.jsonl_encode_ns_per_rec", "ns", LOWER),
    ("obs.jsonl_parse_ns_per_rec", "ns", LOWER),
    ("obs.jsonl_bytes_per_rec", "bytes", LOWER),
    ("obs.chunk_decode_share", "ratio", LOWER),
    ("obs.metrics_render_us", "us", LOWER),
    ("obs.records", "count", LOWER),
    ("obs.dropped_records", "count", LOWER),
    // health
    ("health.query_ms.lifecycle", "ms", LOWER),
    ("health.query_ms.why", "ms", LOWER),
    ("health.query_ms.fleet", "ms", LOWER),
    ("health.query_ms.fleet_timeline", "ms", LOWER),
    ("health.query_ms.percentiles", "ms", LOWER),
    ("health.query_ms.latency", "ms", LOWER),
    ("health.query_ms.cluster", "ms", LOWER),
    ("health.query_ms.exposure", "ms", LOWER),
    ("health.query_ms.drill", "ms", LOWER),
    ("health.monitor_fold_ms", "ms", LOWER),
    ("health.anomalies", "count", LOWER),
    // telemetry
    ("telemetry.publish_us", "us", LOWER),
    ("telemetry.scrape_p50_us", "us", LOWER),
    ("telemetry.scrape_p99_us", "us", LOWER),
    ("telemetry.scrape_p50_us.metrics", "us", LOWER),
    ("telemetry.scrape_p50_us.health", "us", LOWER),
    ("telemetry.scrape_p50_us.fleet", "us", LOWER),
    ("telemetry.scrape_p50_us.fleet_series", "us", LOWER),
    ("telemetry.scrape_p50_us.latency", "us", LOWER),
    ("telemetry.scrape_p50_us.latency_series", "us", LOWER),
    ("telemetry.scrape_p50_us.cluster", "us", LOWER),
    ("telemetry.scrape_p50_us.cluster_series", "us", LOWER),
    ("telemetry.scrape_p50_us.trace_tail", "us", LOWER),
    ("telemetry.scrapes", "count", LOWER),
    ("telemetry.scrape_errors", "count", LOWER),
    // sustain
    ("sustain.model_us", "us", LOWER),
    // the instrument itself
    ("bench.trace_overhead_share", "ratio", LOWER),
    ("bench.span_coverage", "ratio", HIGHER),
];

/// Per-layer values one traced run produced. Setting a name that is
/// not in [`PER_LAYER`] is a bug in the benchmark and panics.
#[derive(Debug, Default)]
pub struct LayerMetrics(BTreeMap<&'static str, f64>);

impl LayerMetrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|&(n, _, _)| n == name),
            "unknown per-layer metric {name}"
        );
        self.0.insert(name, value);
    }

    /// Every [`PER_LAYER`] metric in order; a probe this workload does
    /// not run reads 0.
    pub fn complete(&self) -> Vec<(MetricDef, f64, bool)> {
        PER_LAYER
            .iter()
            .map(|&def| match self.0.get(def.0) {
                Some(&v) => (def, v, true),
                None => (def, 0.0, false),
            })
            .collect()
    }
}
