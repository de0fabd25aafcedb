//! The metric catalogue: every name and unit `BENCHMARK.json` declares.
//! `tests::catalogue_matches_benchmark_json` keeps the two in step.

/// The four workloads.
pub const WORKLOADS: &[&str] = &["drain_mem", "drain_disk", "paced_mem", "sketch_drain"];

/// End-to-end metrics: measured untraced, on every workload, each with
/// a regression bound in `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_ktuples_s", "ktuples/s"),
    ("cpu_us_per_tuple", "us"),
    ("fresh_p50_ms", "ms"),
    ("fresh_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: measured in the traced pass, no bound.
pub const PER_LAYER: &[(&str, &str)] = &[
    // Demoted from end-to-end (see README "What moved and why").
    ("restart_ms", "ms"),
    ("fresh_p99_ms", "ms"),
    ("read_p50_us", "us"),
    ("read_p99_us", "us"),
    ("trickle_fresh_p50_ms", "ms"),
    ("sustained_rate_ktuples_s", "ktuples/s"),
    ("failed_share", "ratio"),
    // log
    ("log.append_ns", "ns"),
    ("log.read_ns_per_record", "ns"),
    ("log.backlog_max_records", "records"),
    ("log.bytes_in", "bytes"),
    // executor.spout
    ("spout.next_us_p50", "us"),
    ("spout.settle_us_p50", "us"),
    ("spout.ack_latency_ms_p50", "ms"),
    ("spout.ack_latency_ms_p99", "ms"),
    ("spout.replays", "count"),
    // executor.emit / frame
    ("emit.batch_fill_mean", "tuples"),
    ("frame.pivot_ns_per_row", "ns"),
    ("frame.unpivot_ns_per_row", "ns"),
    // channel
    ("channel.hop_ns_per_batch", "ns"),
    ("channel.depth_high_water", "batches"),
    ("channel.stalls", "count"),
    ("channel.stall_ms", "ms"),
    // topology / rescale routing
    ("routing.hash_ns_per_tuple", "ns"),
    ("routing.partition_skew", "ratio"),
    // acker
    ("acker.cycle_ns_per_root", "ns"),
    ("acker.roots", "count"),
    // executor scheduler
    ("sched.runs", "count"),
    ("sched.steals", "count"),
    ("sched.parks", "count"),
    ("executor.threads", "count"),
    // operator / window
    ("operator.execute_us_p50", "us"),
    ("operator.execute_us_p99", "us"),
    ("operator.update_ns_per_tuple", "ns"),
    ("operator.busy_share", "ratio"),
    ("window.fired", "count"),
    ("window.late_dropped", "count"),
    ("window.refires", "count"),
    ("time.watermark_lag_ms_p50", "ms"),
    // sa-sketches / sa-core kernels
    ("kernel.onlinestats_ns", "ns"),
    ("kernel.countmin_ns", "ns"),
    ("kernel.countmin_bulk_ns_per_row", "ns"),
    ("reference.ktuples_s", "ktuples/s"),
    // checkpoint
    ("checkpoint.encode_us_per_commit", "us"),
    ("checkpoint.commit_us_p50", "us"),
    ("checkpoint.commit_us_p99", "us"),
    ("checkpoint.commits", "count"),
    ("checkpoint.bytes_per_commit", "bytes"),
    ("checkpoint.retries", "count"),
    // storage
    ("storage.append_us_p50", "us"),
    ("storage.sync_ms_p50", "ms"),
    ("storage.sync_ms_p99", "ms"),
    ("storage.fsyncs", "count"),
    ("storage.bytes_written", "bytes"),
    ("storage.write_amp", "ratio"),
    ("storage.reopen_ms", "ms"),
    // serving / query
    ("serving.publish_us_p50", "us"),
    ("serving.publish_us_p99", "us"),
    ("serving.epochs", "count"),
    ("serving.get_ns", "ns"),
    // alloc_stats
    ("alloc.allocs_per_tuple", "count"),
    // harness
    ("gen.late_ms_p99", "ms"),
    ("trace.overhead_share", "ratio"),
    // the budget table: one row per layer, ns of CPU per input tuple
    ("budget.log_ns_per_tuple", "ns"),
    ("budget.spout_ns_per_tuple", "ns"),
    ("budget.frame_ns_per_tuple", "ns"),
    ("budget.channel_ns_per_tuple", "ns"),
    ("budget.routing_ns_per_tuple", "ns"),
    ("budget.acker_ns_per_tuple", "ns"),
    ("budget.operator_ns_per_tuple", "ns"),
    ("budget.checkpoint_ns_per_tuple", "ns"),
    ("budget.storage_ns_per_tuple", "ns"),
    ("budget.serving_ns_per_tuple", "ns"),
    ("budget.unattributed_share", "ratio"),
];

/// The metrics the `layers` binary replays (source **R** in the
/// README); `e2e` reports them `skipped` when that binary is missing.
pub const REPLAYED: &[&str] = &[
    "log.read_ns_per_record",
    "frame.pivot_ns_per_row",
    "frame.unpivot_ns_per_row",
    "channel.hop_ns_per_batch",
    "routing.hash_ns_per_tuple",
    "acker.cycle_ns_per_root",
    "kernel.onlinestats_ns",
    "kernel.countmin_ns",
    "kernel.countmin_bulk_ns_per_row",
    "reference.ktuples_s",
    "checkpoint.encode_us_per_commit",
    "checkpoint.commit_us_p50",
    "checkpoint.commit_us_p99",
    "serving.publish_us_p50",
    "serving.publish_us_p99",
    "serving.get_ns",
];

/// The unit a catalogued metric is reported in.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END.iter().chain(PER_LAYER).find(|(n, _)| *n == name).map(|(_, u)| *u)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every `{"name": "...", "unit": "..."}` pair of one section.
    fn declared(json: &str, section: &str) -> Vec<(String, String)> {
        let start = json.find(&format!("\"{section}\"")).expect("section present");
        let body = &json[start..];
        let end = body.find(']').expect("section closes");
        let field = |obj: &str, key: &str| {
            let at = obj.find(&format!("\"{key}\"")).expect("key present");
            let rest = &obj[at + key.len() + 2..];
            let open = rest.find('"').expect("value opens");
            let close = rest[open + 1..].find('"').expect("value closes");
            rest[open + 1..open + 1 + close].to_string()
        };
        body[..end].split('{').skip(1).map(|obj| (field(obj, "name"), field(obj, "unit"))).collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        let pairs = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(declared(json, "end_to_end"), pairs(END_TO_END));
        assert_eq!(declared(json, "per_layer"), pairs(PER_LAYER));
        let names: Vec<String> = json
            [json.find("\"workloads\"").unwrap()..json.find("\"end_to_end\"").unwrap()]
            .split("\"name\"")
            .skip(1)
            .map(|s| s.split('"').nth(1).unwrap().to_string())
            .collect();
        assert_eq!(names, WORKLOADS);
    }

    #[test]
    fn names_are_unique_and_within_limits() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "duplicate {name}");
            assert!(name.len() <= 64 && unit.len() <= 16);
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        for r in REPLAYED {
            assert!(unit_of(r).is_some(), "{r} not catalogued");
        }
    }
}
