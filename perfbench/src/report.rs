//! Folding measured clusters into the end-to-end and per-layer figures.

use crate::drive::PhaseOut;
use crate::measure::{self, Measured};
use crate::metrics::{self, MSG_LABELS, TERMINATION_LABELS};
use crate::workload::{Op, Plan};
use crate::{probe, procfs, stats};
use std::collections::BTreeMap;
use std::path::Path;

/// Metric values keyed by name.
pub type Values = BTreeMap<String, f64>;

/// Single-record appends timed by the `FileWal` probe.
const FSYNC_PROBES: usize = 200;
/// Passes of the wire-codec probe over one cluster's operations.
const CODEC_PASSES: usize = 5;

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Saturation-phase goodput and CPU cost over `runs`: successful
/// operations per second of burst time, and process CPU per success.
fn capacity(plan: &Plan, ops: &[Op], runs: &[&Measured]) -> (f64, f64) {
    let ok = measure::saturation(plan, ops, runs).ok as f64;
    let bursts = || runs.iter().flat_map(|m| &m.bursts);
    let span: f64 = bursts().map(PhaseOut::span_s).sum();
    let cpu: f64 = bursts().map(|b| b.process_cpu_s).sum();
    (ratio(ok, span), ratio(cpu * 1e6, ok))
}

/// End-to-end figures over every measured cluster: latencies pooled
/// over the paced phases (warm-up excluded), goodput and CPU cost over
/// all saturation bursts, set-up time as the median of every spawn.
pub fn end_to_end(plan: &Plan, ops: &[Op], runs: &[&Measured], setup: &[f64]) -> Values {
    let mut paced = measure::paced(plan, ops, runs, plan.warmup_sessions);
    let all = {
        let mut t = measure::paced(plan, ops, runs, 0);
        let sat = measure::saturation(plan, ops, runs);
        t.failed += sat.failed;
        t.answer_ms.extend(sat.answer_ms);
        t
    };
    let (goodput, cpu) = capacity(plan, ops, runs);
    let mut v = Values::new();
    let mut put = |k: &str, x: Option<f64>| {
        if let Some(x) = x {
            v.insert(k.to_string(), x);
        }
    };
    put("setup_s", stats::median(setup));
    let commit = stats::p50_p99(&mut paced.commit_ms);
    put("commit_p50_ms", commit.map(|c| c.0));
    put("commit_p99_ms", commit.map(|c| c.1));
    put(
        "answer_p99_ms",
        stats::p50_p99(&mut paced.answer_ms).map(|a| a.1),
    );
    let read = stats::p50_p99(&mut paced.read_ms);
    put("read_p50_ms", read.map(|r| r.0));
    put("read_p99_ms", read.map(|r| r.1));
    put("goodput_per_s", (goodput > 0.0).then_some(goodput));
    put("cpu_us_per_op", (cpu > 0.0).then_some(cpu));
    put(
        "abort_frac",
        (paced.writes > 0).then(|| ratio(paced.aborted as f64, paced.writes as f64)),
    );
    put(
        "failed_frac",
        Some(ratio(all.failed as f64, all.attempted() as f64)),
    );
    put("peak_rss_mb", Some(procfs::peak_rss_mb()));
    v
}

/// Per-layer figures of one traced cluster `m`, next to `base`, an
/// untraced cluster run on the same operations `ops`.
pub fn per_layer(
    plan: &Plan,
    ops: &[Op],
    m: &Measured,
    base: &Measured,
    work: &Path,
) -> Result<Values, String> {
    let sat = measure::saturation(plan, ops, &[m]);
    let sat_ok = sat.ok as f64;
    let thread_cpu = |pick: &dyn Fn(&str) -> bool| -> f64 {
        let s: f64 = m
            .bursts
            .iter()
            .flat_map(|b| &b.thread_cpu_s)
            .filter(|(name, _)| pick(name))
            .map(|(_, c)| c)
            .sum();
        ratio(s * 1e6, sat_ok)
    };
    // Thread names as the kernel keeps them: at most 15 bytes.
    let client = |n: &str| n == "qbc-reactor-cli";
    let front = |n: &str| n == "qbc-reactor-0";
    let reactor = |n: &str| n.starts_with("qbc-reactor-");

    let mut v = Values::new();
    let mut put = |k: &str, x: f64| {
        v.insert(k.to_string(), x);
    };
    put(
        "reactor.client.submit_call_us",
        ratio(
            m.paced.submit_call_ns as f64 / 1e3,
            plan.paced_sessions as f64,
        ),
    );
    put("reactor.client.cpu_us_per_op", thread_cpu(&client));
    put("reactor.client.resubmits", m.report.client.resubmits as f64);
    put("reactor.front.cpu_us_per_op", thread_cpu(&front));
    put(
        "reactor.sites.cpu_us_per_op",
        thread_cpu(&|n| reactor(n) && !front(n) && !client(n)),
    );
    put("harness.gen_cpu_us_per_op", thread_cpu(&|n| !reactor(n)));
    put(
        "reactor.server.in_flight_mean",
        stats::time_weighted_mean(&m.paced.in_flight).unwrap_or(0.0),
    );
    let s = &m.server_paced;
    put(
        "reactor.server.peak_in_flight",
        s.peak_sessions_in_flight as f64,
    );
    put("reactor.server.ready_queue_peak", s.ready_queue_peak as f64);
    put(
        "reactor.server.backpressure_stalls",
        s.backpressure_stalls as f64,
    );
    put("reactor.server.rejected", s.rejected as f64);
    let (wire_bytes, wire_ns) = probe::wire_codec(ops, CODEC_PASSES);
    put("reactor.wire.bytes_per_op", wire_bytes);
    put("reactor.wire.codec_ns_per_op", wire_ns);

    let obs = m
        .report
        .obs
        .as_ref()
        .ok_or("the traced cluster has no observer")?;
    let committed = m.report.client.committed as f64;
    let by_label = obs.msgs_by_label();
    let sent = |label: &str| by_label.get(label).copied().unwrap_or(0) as f64;
    put(
        "core.msgs_per_commit",
        ratio(obs.msgs_sent() as f64, committed),
    );
    for label in MSG_LABELS {
        put(&metrics::msg_metric(label), ratio(sent(label), committed));
    }
    // Phase and pin times of the paced phase, where latency is measured.
    let (phases, pins) = m
        .paced_obs
        .as_ref()
        .ok_or("the traced cluster has no observer")?;
    put("core.vote_ms_p50", phases.vote.p50().0 as f64);
    put("core.prepare_ms_p50", phases.prepare.p50().0 as f64);
    put("core.decide_ms_p50", phases.decide.p50().0 as f64);
    put("core.vote_ms_mean", phases.vote.mean());
    put("core.prepare_ms_mean", phases.prepare.mean());
    put("core.decide_ms_mean", phases.decide.mean());
    put(
        "core.termination_msgs",
        TERMINATION_LABELS.iter().map(|l| sent(l)).sum::<f64>(),
    );
    let mut registry = qbc_cluster::Registry::new();
    obs.fill_registry(qbc_simnet::Time(u64::MAX), &mut registry);
    let rounds = registry
        .prometheus_text()
        .lines()
        .find_map(|l| l.strip_prefix("qbc_termination_rounds_total "))
        .and_then(|n| n.trim().parse().ok())
        .unwrap_or(0.0);
    put("core.termination_rounds", rounds);
    put("db.blocked_windows", obs.blocked_window().count() as f64);
    put("locks.pin_ms_p50", pins.p50().0 as f64);
    put("locks.pin_ms_mean", pins.mean());
    let (reads, local) = obs.snapshot_reads();
    put(
        "db.snapshot_reads_local_frac",
        ratio(local as f64, reads as f64),
    );

    let cluster = &m.report.metrics;
    let forces = cluster.total_wal_forces() as f64;
    let records: u64 = cluster.shards.iter().map(|s| s.wal_records).sum();
    put(
        "storage.forces_per_commit",
        ratio(forces, cluster.total_committed() as f64),
    );
    put("storage.records_per_force", ratio(records as f64, forces));
    let (fsync_p50, fsync_p99) = probe::fsync_us(&work.join("fsync-probe"), FSYNC_PROBES)?;
    put("storage.fsync_us_p50", fsync_p50);
    put("storage.fsync_us_p99", fsync_p99);
    put(
        "storage.disk_bytes_per_commit",
        ratio(m.sat_write_bytes as f64, sat.committed as f64),
    );
    put("alloc.count_per_op", ratio(m.sat_allocs.0 as f64, sat_ok));
    put("alloc.bytes_per_op", ratio(m.sat_allocs.1 as f64, sat_ok));
    put("harness.gen_late_max_ms", base.paced.lateness.max_ms());
    let (traced, untraced) = (capacity(plan, ops, &[m]).0, capacity(plan, ops, &[base]).0);
    put("obs.overhead_frac", 1.0 - ratio(traced, untraced));
    Ok(v)
}
