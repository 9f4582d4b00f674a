//! Correctness gates: a run that breaks any of them fails the command.

use crate::workload::{Op, ITEMS_PER_SHARD};
use qbc_cluster::{ClusterConfig, Outcome, ReactorReport, ShardId, SimCluster};
use qbc_core::{Decision, TxnId};
use qbc_votes::{ItemId, Version};
use std::collections::{BTreeMap, HashMap};

/// Checks a run's client outcomes against the cluster's own harvest.
/// `sessions` pairs every operation the run sent with its outcome
/// (`None`: never answered). Returns one line per violated rule.
pub fn check_run(report: &ReactorReport, sessions: &[(&Op, Option<Outcome>)]) -> Vec<String> {
    let mut bad = Vec::new();
    if !report.atomicity_violations.is_empty() {
        bad.push(format!(
            "{} atomicity violations, first {:?}",
            report.atomicity_violations.len(),
            report.atomicity_violations[0]
        ));
    }
    let unanswered = sessions.iter().filter(|(_, o)| o.is_none()).count();
    if unanswered > 0 {
        bad.push(format!("{unanswered} sessions never answered"));
    }
    let harvested: HashMap<TxnId, Option<Decision>> =
        report.decisions.iter().map(|(h, d)| (h.txn, *d)).collect();
    let mut mismatched = Vec::new();
    for (_, outcome) in sessions {
        let (txn, want) = match outcome {
            Some(Outcome::Committed { txn, .. }) => (*txn, Decision::Commit),
            Some(Outcome::Aborted { txn }) => (*txn, Decision::Abort),
            _ => continue,
        };
        if harvested.get(&txn) != Some(&Some(want)) {
            mismatched.push(txn);
        }
    }
    if !mismatched.is_empty() {
        bad.push(format!(
            "{} client outcomes disagree with the harvested decisions, first {:?}",
            mismatched.len(),
            mismatched[0]
        ));
    }
    // Write values are unique per operation (value k belongs to the
    // k-th operation), so a read names the write it observed; 0 is the
    // initial value.
    let by_value: HashMap<i64, (&Op, Option<Outcome>)> = sessions
        .iter()
        .filter_map(|(op, o)| match op {
            Op::Write(w) if w[0].1 != 0 => Some((w[0].1, (*op, *o))),
            _ => None,
        })
        .collect();
    let mut dirty = 0usize;
    for (op, outcome) in sessions {
        let (Op::Read(item), Some(Outcome::ReadOk { value, .. })) = (op, outcome) else {
            continue;
        };
        let clean = *value == 0
            || matches!(by_value.get(value), Some((Op::Write(w), Some(Outcome::Committed { .. })))
                if w.iter().any(|(i, _)| i == item));
        if !clean {
            dirty += 1;
        }
    }
    if dirty > 0 {
        bad.push(format!(
            "{dirty} snapshot reads returned a value no committed write produced"
        ));
    }
    bad
}

/// Reopens the write-ahead logs of a finished durable run and checks
/// that every acknowledged commit survived recovery: its decision is
/// still `Commit`, and each item holds the write of the last commit
/// acknowledged on it.
pub fn check_recovery(cfg: ClusterConfig, sessions: &[(&Op, Option<Outcome>)]) -> Vec<String> {
    let mut cluster = SimCluster::new(cfg);
    cluster.run_to_quiescence(50_000_000);
    let shard_of = |item: ItemId| ShardId(item.0 / ITEMS_PER_SHARD);
    let mut bad = Vec::new();
    let mut lost = Vec::new();
    // item -> (version, value) of the newest acknowledged commit.
    let mut expect: BTreeMap<ItemId, (Version, i64)> = BTreeMap::new();
    for (op, outcome) in sessions {
        let (
            Op::Write(writes),
            Some(Outcome::Committed {
                txn,
                commit_version,
            }),
        ) = (op, outcome)
        else {
            continue;
        };
        let sites = cluster.map().sites_of(shard_of(writes[0].0));
        let nodes: Vec<_> = sites.iter().map(|&s| cluster.sim().node(s)).collect();
        let decisions: Vec<_> = nodes.iter().filter_map(|n| n.decision(*txn)).collect();
        if decisions.is_empty() || decisions.iter().any(|d| *d != Decision::Commit) {
            lost.push(*txn);
            continue;
        }
        let Some(version) =
            commit_version.or_else(|| nodes.iter().find_map(|n| n.commit_version_of(*txn)))
        else {
            lost.push(*txn);
            continue;
        };
        for &(item, value) in writes {
            let slot = expect.entry(item).or_insert((version, value));
            if version > slot.0 {
                *slot = (version, value);
            }
        }
    }
    if !lost.is_empty() {
        bad.push(format!(
            "{} acknowledged commits lost their decision across recovery, first {:?}",
            lost.len(),
            lost[0]
        ));
    }
    let stale: Vec<ItemId> = expect
        .iter()
        .filter(|(&item, &want)| {
            let newest = cluster
                .map()
                .sites_of(shard_of(item))
                .into_iter()
                .filter_map(|s| cluster.sim().node(s).item_value(item))
                .max_by_key(|(v, _)| *v);
            newest != Some(want)
        })
        .map(|(&item, _)| item)
        .collect();
    if !stale.is_empty() {
        bad.push(format!(
            "{} items lost their last acknowledged write across recovery, first {:?}",
            stale.len(),
            stale[0]
        ));
    }
    bad
}
