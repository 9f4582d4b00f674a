//! One measured cluster: spawn it, run the paced phase and the
//! saturation bursts, shut it down and check every answer.

use crate::check;
use crate::drive::{run_phase, PhaseOut, PhaseSpec};
use crate::workload::{Op, Plan, Workload};
use crate::{alloc, procfs};
use qbc_cluster::{
    ClusterConfig, LatencyHistogram, Outcome, ReactorCluster, ReactorReport, ServerStats,
};
use qbc_obs::PhaseHists;
use qbc_votes::ItemId;
use std::time::Instant;

/// The write every freshly spawned cluster must answer before it counts
/// as set up. Value 0 is the initial value, so reads stay checkable.
fn first_writes() -> Vec<(ItemId, i64)> {
    vec![(ItemId(0), 0)]
}

/// Spawns a cluster and waits for it to answer its first session;
/// returns the cluster, the seconds that took, and the answer.
pub fn spawn_timed(w: Workload, cfg: &ClusterConfig) -> (ReactorCluster, f64, Outcome) {
    let t = Instant::now();
    let cluster = ReactorCluster::spawn(cfg.clone(), w.reactor_config());
    let outcome = cluster.submit(first_writes()).wait();
    (cluster, t.elapsed().as_secs_f64(), outcome)
}

/// Everything one cluster's phases measured.
pub struct Measured {
    pub setup_s: f64,
    pub paced: PhaseOut,
    pub bursts: Vec<PhaseOut>,
    /// Front-door counters at the end of the paced phase.
    pub server_paced: ServerStats,
    /// Commit-phase and pin-time histograms at the end of the paced
    /// phase (traced clusters only).
    pub paced_obs: Option<(PhaseHists, LatencyHistogram)>,
    pub report: ReactorReport,
    pub violations: Vec<String>,
    /// Bytes written to storage during the saturation bursts.
    pub sat_write_bytes: u64,
    /// Allocations and bytes during the saturation bursts (counted only
    /// when traced).
    pub sat_allocs: (u64, u64),
}

impl Measured {
    /// Sessions answered `Aborted` before the run killed a site.
    pub fn aborts_before_kill(&self) -> usize {
        let Some(kill) = self.bursts.first().and_then(|b| b.killed_at_ns) else {
            return 0;
        };
        self.bursts[0]
            .sessions
            .iter()
            .filter(|s| {
                matches!(s.outcome, Some(Outcome::Aborted { .. }))
                    && s.answer_ns.is_some_and(|a| a < kill)
            })
            .count()
    }
}

/// Measures one cluster built from `cfg` on `ops` (one cluster's share
/// of the run's operations). `traced` samples the front door, times
/// submit calls and counts allocations.
pub fn measure(
    w: Workload,
    plan: &Plan,
    ops: &[Op],
    cfg: &ClusterConfig,
    traced: bool,
) -> Measured {
    let (cluster, setup_s, first) = spawn_timed(w, cfg);
    let (paced_ops, bursts_ops) = split(plan, ops);
    let phase = |ops: &[Op], rate: f64, kill_at| {
        run_phase(
            &cluster,
            &PhaseSpec {
                ops,
                rate,
                kill_at,
                traced,
            },
        )
    };
    let pace = || {
        let paced = phase(paced_ops, plan.paced_rate, None);
        let obs = cluster.obs().map(|o| (o.phase_hists(), o.pin_time()));
        (paced, cluster.server_stats(), obs)
    };
    let saturate = || {
        let bytes0 = procfs::write_bytes();
        alloc::set_counting(traced);
        let allocs0 = alloc::totals();
        let bursts: Vec<PhaseOut> = bursts_ops
            .clone()
            .enumerate()
            .map(|(i, burst)| phase(burst, f64::INFINITY, plan.kill_at.filter(|_| i == 0)))
            .collect();
        let allocs1 = alloc::totals();
        alloc::set_counting(false);
        let allocs = (allocs1.0 - allocs0.0, allocs1.1 - allocs0.1);
        (bursts, procfs::write_bytes() - bytes0, allocs)
    };
    let ((paced, server_paced, paced_obs), (bursts, sat_write_bytes, sat_allocs)) =
        if plan.kill_at.is_some() {
            let sat = saturate();
            (pace(), sat)
        } else {
            let paced = pace();
            (paced, saturate())
        };
    let report = cluster.shutdown();

    let first_op = Op::Write(first_writes());
    let sessions: Vec<(&Op, Option<Outcome>)> = std::iter::once((&first_op, Some(first)))
        .chain(
            ops.iter()
                .zip(
                    paced
                        .sessions
                        .iter()
                        .chain(bursts.iter().flat_map(|b| &b.sessions)),
                )
                .map(|(op, s)| (op, s.outcome)),
        )
        .collect();
    let mut violations = check::check_run(&report, &sessions);
    if cfg.wal_dir.is_some() {
        violations.extend(check::check_recovery(cfg.clone(), &sessions));
    }
    Measured {
        setup_s,
        paced,
        bursts,
        server_paced,
        paced_obs,
        report,
        violations,
        sat_write_bytes,
        sat_allocs,
    }
}

/// Splits one cluster's operations into its paced phase and its bursts.
pub fn split<'a>(plan: &Plan, ops: &'a [Op]) -> (&'a [Op], std::slice::Chunks<'a, Op>) {
    let (paced, sat) = ops.split_at(plan.paced_sessions);
    (paced, sat.chunks(plan.burst_sessions))
}

/// Outcome tallies over a set of sessions.
#[derive(Default)]
pub struct Tally {
    pub commit_ms: Vec<f64>,
    pub read_ms: Vec<f64>,
    pub answer_ms: Vec<f64>,
    pub writes: usize,
    pub aborted: usize,
    pub committed: usize,
    /// Committed writes plus served reads.
    pub ok: usize,
    /// Failed, unavailable or unanswered.
    pub failed: usize,
}

impl Tally {
    /// Adds `phase`'s sessions (sent `ops`), skipping the first `skip`.
    pub fn add(&mut self, ops: &[Op], phase: &PhaseOut, skip: usize) {
        for (op, s) in ops.iter().zip(&phase.sessions).skip(skip) {
            self.writes += matches!(op, Op::Write(_)) as usize;
            let Some(ms) = s.latency_ms() else {
                self.failed += 1;
                continue;
            };
            match s.outcome {
                Some(Outcome::Committed { .. }) => {
                    self.committed += 1;
                    self.ok += 1;
                    self.commit_ms.push(ms);
                }
                Some(Outcome::ReadOk { .. }) => {
                    self.ok += 1;
                    self.read_ms.push(ms);
                }
                Some(Outcome::Aborted { .. }) => self.aborted += 1,
                _ => self.failed += 1,
            }
            self.answer_ms.push(ms);
        }
    }

    /// Sessions counted, answered or not.
    pub fn attempted(&self) -> usize {
        self.answer_ms.len() + self.failed
    }
}

/// Tallies every burst of the clusters in `runs` (which ran `ops`).
pub fn saturation(plan: &Plan, ops: &[Op], runs: &[&Measured]) -> Tally {
    let mut t = Tally::default();
    for (ops, m) in ops.chunks(plan.ops_per_cluster()).zip(runs) {
        for (b, phase) in split(plan, ops).1.zip(&m.bursts) {
            t.add(b, phase, 0);
        }
    }
    t
}

/// Tallies every paced phase of the clusters in `runs`, skipping each
/// one's first `skip` sessions.
pub fn paced(plan: &Plan, ops: &[Op], runs: &[&Measured], skip: usize) -> Tally {
    let mut t = Tally::default();
    for (ops, m) in ops.chunks(plan.ops_per_cluster()).zip(runs) {
        t.add(split(plan, ops).0, &m.paced, skip);
    }
    t
}
