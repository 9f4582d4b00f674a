//! The metric catalogue. `BENCHMARK.json` lists the same names, units
//! and directions (a test keeps the two in step).

/// An end-to-end metric: what a user of the cluster sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    /// `None` for metrics that are printed only: they are missing on
    /// some workload, can be 0, or are wall-clock figures whose
    /// run-to-run spread on a small shared host comes too close to the
    /// widest bound allowed (0.25) to gate on.
    pub bound: Option<f64>,
    pub what: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: Option<f64>,
    what: &'static str,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        what,
    }
}

/// Every end-to-end metric, in print order.
#[rustfmt::skip]
pub const END_TO_END: &[EndToEnd] = &[
    e2e("setup_s", "s", "lower", Some(0.25), "spawn the cluster until it answers its first session (median of repeats)"),
    e2e("commit_p50_ms", "ms", "lower", None, "paced phase: due time to Committed reply, median"),
    e2e("commit_p99_ms", "ms", "lower", None, "paced phase: due time to Committed reply, 99th percentile"),
    e2e("answer_p99_ms", "ms", "lower", None, "paced phase: due time to any definite answer, 99th percentile"),
    e2e("read_p50_ms", "ms", "lower", None, "paced phase: due time to snapshot-read reply, median"),
    e2e("read_p99_ms", "ms", "lower", None, "paced phase: due time to snapshot-read reply, 99th percentile"),
    e2e("goodput_per_s", "1/s", "higher", None, "saturation: commits + served reads per second, first due to last answer"),
    e2e("cpu_us_per_op", "us", "lower", Some(0.25), "saturation: process CPU (user + system) per successful operation"),
    e2e("abort_frac", "frac", "lower", None, "paced phase: aborted writes / writes attempted"),
    e2e("failed_frac", "frac", "lower", None, "failed or unanswered sessions / sessions attempted"),
    e2e("peak_rss_mb", "MiB", "lower", Some(0.2), "peak resident set size (VmHWM)"),
];

/// A per-layer metric of the traced run, with the end-to-end metric and
/// workload it is expected to move.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

const CPU_PATH: &str = "goodput_per_s, cpu_us_per_op on writes_mem, mixed";
const FRONT_DOOR: &str = "commit_p99_ms, failed_frac on writes_mem, failover";
const TERMINATION: &str = "answer_p99_ms, abort_frac on failover";
const MSGS: &str = "cpu_us_per_op on writes_mem";
const PHASES: &str = "commit_p50_ms on writes_durable";
const FORCES: &str = "commit_p50_ms, goodput_per_s on writes_durable; no change on writes_mem";
const DEVICE: &str = "none: device baseline for writes_durable";

/// Wire labels the QC2 engines, termination and cross-shard commit can
/// send; each gets a `core.msgs.<LABEL>` metric.
pub const MSG_LABELS: &[&str] = &[
    "VOTE-REQ",
    "VOTE-YES",
    "VOTE-NO",
    "PREPARE-TO-COMMIT",
    "PC-ACK",
    "PREPARE-TO-ABORT",
    "PA-ACK",
    "COMMIT",
    "ABORT",
    "STATE-REQ",
    "STATE-REP",
    "DECIDED",
    "X-BRANCH-REQ",
    "X-VOTE-YES",
    "X-VOTE-NO",
    "X-DECIDE",
    "X-OUTCOME-REQ",
];

/// Labels of the termination protocol's own messages.
pub const TERMINATION_LABELS: &[&str] = &["STATE-REQ", "STATE-REP", "DECIDED"];

/// Every per-layer metric except the `core.msgs.<LABEL>` family.
#[rustfmt::skip]
const PER_LAYER: &[PerLayer] = &[
    layer("reactor.client.submit_call_us", "us", "lower", "commit_p50_ms on writes_mem"),
    layer("reactor.client.cpu_us_per_op", "us", "lower", CPU_PATH),
    layer("reactor.client.resubmits", "count", "lower", "answer_p99_ms on failover"),
    layer("reactor.front.cpu_us_per_op", "us", "lower", CPU_PATH),
    layer("reactor.sites.cpu_us_per_op", "us", "lower", CPU_PATH),
    layer("reactor.server.in_flight_mean", "count", "lower", "commit_p99_ms on writes_mem"),
    layer("reactor.server.peak_in_flight", "count", "lower", FRONT_DOOR),
    layer("reactor.server.ready_queue_peak", "count", "lower", FRONT_DOOR),
    layer("reactor.server.backpressure_stalls", "count", "lower", FRONT_DOOR),
    layer("reactor.server.rejected", "count", "lower", FRONT_DOOR),
    layer("reactor.wire.bytes_per_op", "B", "lower", "cpu_us_per_op on writes_mem, mixed"),
    layer("reactor.wire.codec_ns_per_op", "ns", "lower", "cpu_us_per_op on writes_mem, mixed"),
    layer("core.msgs_per_commit", MSG_UNIT, "lower", MSGS),
    layer("core.vote_ms_p50", "ms", "lower", PHASES),
    layer("core.prepare_ms_p50", "ms", "lower", PHASES),
    layer("core.decide_ms_p50", "ms", "lower", PHASES),
    layer("core.vote_ms_mean", "ms", "lower", PHASES),
    layer("core.prepare_ms_mean", "ms", "lower", PHASES),
    layer("core.decide_ms_mean", "ms", "lower", PHASES),
    layer("core.termination_msgs", "count", "lower", TERMINATION),
    layer("core.termination_rounds", "count", "lower", TERMINATION),
    layer("db.blocked_windows", "count", "lower", TERMINATION),
    layer("locks.pin_ms_p50", "ms", "lower", "abort_frac, commit_p99_ms on mixed"),
    layer("locks.pin_ms_mean", "ms", "lower", "abort_frac, commit_p99_ms on mixed"),
    layer("db.snapshot_reads_local_frac", "frac", "higher", "read_p50_ms on mixed"),
    layer("storage.forces_per_commit", "count", "lower", FORCES),
    layer("storage.records_per_force", "count", "higher", FORCES),
    layer("storage.fsync_us_p50", "us", "lower", DEVICE),
    layer("storage.fsync_us_p99", "us", "lower", DEVICE),
    layer("storage.disk_bytes_per_commit", "B", "lower", "goodput_per_s on writes_durable"),
    layer("alloc.count_per_op", "count", "lower", "cpu_us_per_op on writes_mem, mixed"),
    layer("alloc.bytes_per_op", "B", "lower", "cpu_us_per_op on writes_mem, mixed"),
    layer("harness.gen_cpu_us_per_op", "us", "lower", "none: the generator's own share of cpu_us_per_op"),
    layer("harness.gen_late_max_ms", "ms", "lower", "none: the paced phase is valid only while this is small"),
    layer("obs.overhead_frac", "frac", "lower", "none: tracing cost, 1 - traced / untraced goodput_per_s"),
];

/// Unit of messages per commit.
const MSG_UNIT: &str = "msg/commit";

/// The `core.msgs.<LABEL>` metric name of a wire label.
pub fn msg_metric(label: &str) -> String {
    format!("core.msgs.{label}")
}

/// Every per-layer metric as `(name, unit, better, what it moves)`:
/// [`PER_LAYER`], then one `core.msgs.<LABEL>` per [`MSG_LABELS`] entry.
pub fn per_layer() -> impl Iterator<Item = (String, &'static str, &'static str, &'static str)> {
    PER_LAYER
        .iter()
        .map(|m| (m.name.to_string(), m.unit, m.better, m.moves))
        .chain(
            MSG_LABELS
                .iter()
                .map(|l| (msg_metric(l), MSG_UNIT, "lower", MSGS)),
        )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` must list exactly the gated end-to-end metrics
    /// and every per-layer metric, with these units, directions and
    /// bounds.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        let entries = |key: &str| -> Vec<String> {
            let start = json.find(&format!("\"{key}\"")).expect(key);
            let body = &json[start..];
            let body = &body[..body.find(']').expect("list end")];
            body.lines()
                .filter(|l| l.contains("\"name\""))
                .map(|l| l.trim().trim_end_matches(',').to_string())
                .collect()
        };
        let want_e2e: Vec<String> = END_TO_END
            .iter()
            .filter_map(|m| {
                Some(format!(
                    "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                    m.name, m.unit, m.better, m.bound?
                ))
            })
            .collect();
        assert_eq!(entries("end_to_end"), want_e2e);
        let line = |name: &str, unit: &str, better: &str| {
            format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}")
        };
        let want_layers: Vec<String> = per_layer()
            .map(|(name, unit, better, _)| line(&name, unit, better))
            .collect();
        assert_eq!(entries("per_layer"), want_layers);
    }

    #[test]
    fn names_fit_the_benchmark_format() {
        let ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let mut names: Vec<String> = END_TO_END.iter().map(|m| m.name.to_string()).collect();
        names.extend(per_layer().map(|(name, ..)| name));
        assert!(names.iter().all(|n| ok(n)), "{names:?}");
        let mut unique = names.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), names.len());
    }
}
