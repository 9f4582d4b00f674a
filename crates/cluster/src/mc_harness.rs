//! Small-configuration hosts and protocol invariants for the model
//! checker (`qbc-mc`).
//!
//! The checker itself is generic over any `simnet` process; what makes
//! it *prove* something about this system lives here: builders for the
//! two canonical exhaustive configurations (a 3-site single-shard
//! quorum commit, and a 2-shard cross-shard commit with a parent
//! crash), plus the invariant functions the ISSUE's safety argument
//! rests on — atomicity, decision stability, and bounded termination.
//!
//! Everything returns plain functions over
//! `ControlledHost<SiteNode>` so the `qbc-mc` dependency stays confined
//! to `dev-dependencies`: production builds of the cluster carry the
//! harness (it is cheap, and the CI smoke binary wants it) but not the
//! checker.
//!
//! The hosts always run the **in-memory WAL** backend: exploration
//! clones states freely, and the file-backed log is deliberately
//! un-clonable (one directory, one log). The durability *contract* is
//! identical by construction — `docs/wal-format.md` and the
//! `file_wal_matches_memory_wal` property pin that equivalence — so
//! what the checker proves about the memory model carries over.

use qbc_core::{Decision, LogRecord, ProtocolKind, TxnId, TxnSpec, WriteSet};
use qbc_db::{build_cluster, NetMsg, NodeConfig, SiteNode};
use qbc_simnet::{ControlledHost, Duration, HostConfig, SiteId};
use qbc_votes::{Catalog, CatalogBuilder, ItemId, Version};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The external client identity used for injected submissions; not a
/// member site, so replies to it are sunk by the host.
pub const CLIENT: SiteId = SiteId(99);

/// The paper's `T` for checker configurations. Small and round: all
/// protocol timeouts are fixed multiples, and the model checker only
/// cares about their relative order.
pub const T_BOUND: Duration = Duration(10);

/// A 3-site, 1-item majority catalog (`r = w = 2`) — the smallest
/// configuration where the quorum argument is non-trivial: one site can
/// fail and both quorums survive.
pub fn three_site_catalog() -> Catalog {
    CatalogBuilder::new()
        .item(ItemId(0))
        .copies_at([SiteId(0), SiteId(1), SiteId(2)])
        .quorums(2, 2)
        .build()
        .expect("static catalog")
}

/// A single-shard host: three sites over [`three_site_catalog`], one
/// client transaction (`TxnId(1)`, writing item 0) injected at site 0,
/// fault budgets from `host_cfg`, per-site knobs via `customize`.
///
/// The injected `BeginTxn` is itself a delivery choice, so the checker
/// also explores crash-before-arrival interleavings.
pub fn single_shard_host(
    protocol: ProtocolKind,
    host_cfg: HostConfig,
    customize: impl FnMut(NodeConfig) -> NodeConfig,
) -> ControlledHost<SiteNode> {
    let catalog = three_site_catalog();
    let sites = [SiteId(0), SiteId(1), SiteId(2)];
    let mut host =
        ControlledHost::new(host_cfg, build_cluster(sites, &catalog, T_BOUND, customize));
    host.inject(
        CLIENT,
        SiteId(0),
        NetMsg::BeginTxn {
            txn: TxnId(1),
            writeset: WriteSet::new([(ItemId(0), 7)]),
            protocol,
        },
    );
    host
}

/// The Paxos Commit checker host: [`single_shard_host`] pinned to
/// [`ProtocolKind::PaxosCommit`]. Over the 3-site catalog the 2F+1
/// acceptors are co-located with the participants (F = 1, majority 2),
/// the submitting site doubles as the ballot-0 leader, and leader
/// failover is any participant's watchdog standing up a recovery
/// candidate — so the same host shape that closes the quorum-commit
/// spaces closes this engine's too.
pub fn paxos_host(
    host_cfg: HostConfig,
    customize: impl FnMut(NodeConfig) -> NodeConfig,
) -> ControlledHost<SiteNode> {
    single_shard_host(ProtocolKind::PaxosCommit, host_cfg, customize)
}

/// A 2-shard cross-shard host: shard A = sites {0, 1} replicating item
/// 0 (`w = 2`), shard B = site {2} holding item 1, and one cross-shard
/// transaction (`TxnId(1)`) writing both items, parented at site 0.
/// Site 0 plays both the cross-shard coordinator and shard A's branch
/// coordinator (the home-branch placement the cluster front-ends use);
/// site 2 coordinates shard B's branch.
pub fn two_shard_host(
    protocol: ProtocolKind,
    host_cfg: HostConfig,
    mut customize: impl FnMut(NodeConfig) -> NodeConfig,
) -> ControlledHost<SiteNode> {
    let shard_a = CatalogBuilder::new()
        .item(ItemId(0))
        .copies_at([SiteId(0), SiteId(1)])
        .quorums(1, 2)
        .build()
        .map(Arc::new)
        .expect("static catalog");
    let shard_b = CatalogBuilder::new()
        .item(ItemId(1))
        .copies_at([SiteId(2)])
        .quorums(1, 1)
        .build()
        .map(Arc::new)
        .expect("static catalog");
    let parent = SiteId(0);
    let branches = vec![
        Arc::new(
            TxnSpec::from_catalog(
                TxnId(1),
                parent,
                WriteSet::new([(ItemId(0), 7)]),
                protocol,
                &shard_a,
            )
            .with_parent(parent),
        ),
        Arc::new(
            TxnSpec::from_catalog(
                TxnId(1),
                SiteId(2),
                WriteSet::new([(ItemId(1), 9)]),
                protocol,
                &shard_b,
            )
            .with_parent(parent),
        ),
    ];
    let nodes: Vec<(SiteId, SiteNode)> = [SiteId(0), SiteId(1)]
        .into_iter()
        .map(|s| (s, &shard_a))
        .chain([(SiteId(2), &shard_b)])
        .map(|(s, cat)| {
            let cfg = customize(NodeConfig::new(s, Arc::clone(cat), T_BOUND));
            (s, SiteNode::new(cfg, |_| 0))
        })
        .collect();
    let mut host = ControlledHost::new(host_cfg, nodes);
    host.inject(
        CLIENT,
        parent,
        NetMsg::BeginXTxn {
            txn: TxnId(1),
            branches,
        },
    );
    host
}

/// A 3-site cross-shard host where the parent holds *no* branch: site 0
/// is a pure client-parent X coordinator, shard A = site {1} (item 0),
/// shard B = site {2} (item 1). Unlike [`two_shard_host`] — where the
/// parent doubles as a branch coordinator, so "ask a sibling" and "ask
/// the parent" are the same site — here the two are distinct, which is
/// the configuration that exercises cooperative sibling outcome
/// discovery: with site 0 down, site 2's only living source of the
/// outcome is its sibling at site 1.
pub fn client_parent_host(
    protocol: ProtocolKind,
    host_cfg: HostConfig,
    mut customize: impl FnMut(NodeConfig) -> NodeConfig,
) -> ControlledHost<SiteNode> {
    let shard_a = CatalogBuilder::new()
        .item(ItemId(0))
        .copies_at([SiteId(1)])
        .quorums(1, 1)
        .build()
        .map(Arc::new)
        .expect("static catalog");
    let shard_b = CatalogBuilder::new()
        .item(ItemId(1))
        .copies_at([SiteId(2)])
        .quorums(1, 1)
        .build()
        .map(Arc::new)
        .expect("static catalog");
    let parent = SiteId(0);
    let branches = vec![
        Arc::new(
            TxnSpec::from_catalog(
                TxnId(1),
                SiteId(1),
                WriteSet::new([(ItemId(0), 7)]),
                protocol,
                &shard_a,
            )
            .with_parent(parent),
        ),
        Arc::new(
            TxnSpec::from_catalog(
                TxnId(1),
                SiteId(2),
                WriteSet::new([(ItemId(1), 9)]),
                protocol,
                &shard_b,
            )
            .with_parent(parent),
        ),
    ];
    let nodes: Vec<(SiteId, SiteNode)> = [(parent, &shard_a), (SiteId(1), &shard_a)]
        .into_iter()
        .chain([(SiteId(2), &shard_b)])
        .map(|(s, cat)| {
            let cfg = customize(NodeConfig::new(s, Arc::clone(cat), T_BOUND));
            (s, SiteNode::new(cfg, |_| 0))
        })
        .collect();
    let mut host = ControlledHost::new(host_cfg, nodes);
    host.inject(
        CLIENT,
        parent,
        NetMsg::BeginXTxn {
            txn: TxnId(1),
            branches,
        },
    );
    host
}

/// Finds the unique in-flight message matching `(from, to)` whose
/// payload debug-rendering contains `needle`, for pinned-schedule
/// tests. Panics with a dump of the wire if nothing matches.
pub fn find_in_flight(h: &ControlledHost<SiteNode>, from: SiteId, to: SiteId, needle: &str) -> u64 {
    let matches: Vec<u64> = h
        .in_flight()
        .iter()
        .filter(|m| m.from == from && m.to == to && format!("{:?}", m.msg).contains(needle))
        .map(|m| m.seq)
        .collect();
    assert!(
        !matches.is_empty(),
        "no in-flight {from} -> {to} message matching {needle:?}; wire: {:?}",
        h.in_flight()
            .iter()
            .map(|m| format!("{} -> {}: {:?}", m.from, m.to, m.msg))
            .collect::<Vec<_>>()
    );
    matches[0]
}

/// Delivers the matching in-flight message (see [`find_in_flight`]).
pub fn deliver(h: &mut ControlledHost<SiteNode>, from: SiteId, to: SiteId, needle: &str) {
    let seq = find_in_flight(h, from, to, needle);
    h.apply(qbc_simnet::Choice::Deliver { seq });
}

/// Drops (loses) the matching in-flight message instead.
pub fn drop_in_flight(h: &mut ControlledHost<SiteNode>, from: SiteId, to: SiteId, needle: &str) {
    let seq = find_in_flight(h, from, to, needle);
    h.apply(qbc_simnet::Choice::Drop { seq });
}

/// Every decision any site holds for `txn` — volatile (live engine or
/// retired record) and durable (WAL `Decided` records, which survive a
/// crash that wipes the volatile tables). `(site, decision, version,
/// provenance)` tuples for error messages.
fn decisions_of(
    h: &ControlledHost<SiteNode>,
    txn: TxnId,
) -> Vec<(SiteId, Decision, Option<Version>, &'static str)> {
    let mut out = Vec::new();
    for s in h.sites() {
        let n = h.node(s);
        if let Some(d) = n.decision(txn) {
            out.push((s, d, n.commit_version_of(txn), "volatile"));
        }
        for r in n.log_records() {
            if let LogRecord::Decided {
                txn: t,
                decision,
                commit_version,
            } = r
            {
                if *t == txn {
                    out.push((s, *decision, *commit_version, "durable"));
                }
            }
        }
    }
    out
}

/// Atomicity over the given transactions: no reachable state may hold
/// both a commit and an abort for the same transaction anywhere in the
/// cluster — across sites, and across the volatile/durable line at one
/// site (a crashed site's pre-crash commit record counts even while its
/// tables are empty). Committers must also agree on the installed
/// version, and no site's own audit log may have flagged a violation.
pub fn atomicity(txns: Vec<TxnId>) -> impl Fn(&ControlledHost<SiteNode>) -> Result<(), String> {
    move |h| {
        for s in h.sites() {
            if let Some(v) = h.node(s).violations().first() {
                return Err(format!("{s} audit violation: {v:?}"));
            }
        }
        for &txn in &txns {
            let ds = decisions_of(h, txn);
            let commit = ds.iter().find(|(_, d, _, _)| *d == Decision::Commit);
            let abort = ds.iter().find(|(_, d, _, _)| *d == Decision::Abort);
            if let (Some(c), Some(a)) = (commit, abort) {
                return Err(format!(
                    "{txn:?} committed at {} ({}) but aborted at {} ({})",
                    c.0, c.3, a.0, a.3
                ));
            }
            let mut versions: Vec<(SiteId, Version)> = ds
                .iter()
                .filter_map(|(s, d, v, _)| {
                    (*d == Decision::Commit)
                        .then(|| v.map(|v| (*s, v)))
                        .flatten()
                })
                .collect();
            versions.dedup_by_key(|(_, v)| *v);
            if versions.len() > 1 {
                return Err(format!(
                    "{txn:?} committed with diverging versions: {versions:?}"
                ));
            }
        }
        Ok(())
    }
}

/// Decision stability: a decided transaction never changes its mind.
/// Checked per site as (a) the durable log never holds two `Decided`
/// (or two `XDecision`) records for one transaction with conflicting
/// outcomes — re-announcements may re-log the *same* outcome — and
/// (b) the volatile decision, when present alongside a durable one,
/// matches it (recovery replays the log, so divergence here means a
/// decided outcome flipped across a crash).
pub fn decision_stability() -> impl Fn(&ControlledHost<SiteNode>) -> Result<(), String> {
    |h| {
        for s in h.sites() {
            let n = h.node(s);
            let mut durable: BTreeMap<TxnId, (Decision, Option<Version>)> = BTreeMap::new();
            let mut x_durable: BTreeMap<TxnId, Decision> = BTreeMap::new();
            for r in n.log_records() {
                match r {
                    LogRecord::Decided {
                        txn,
                        decision,
                        commit_version,
                    } => {
                        if let Some(prev) = durable.insert(*txn, (*decision, *commit_version)) {
                            if prev != (*decision, *commit_version) {
                                return Err(format!(
                                    "{s} logged conflicting decisions for {txn:?}: {prev:?} then {:?}",
                                    (*decision, *commit_version)
                                ));
                            }
                        }
                    }
                    LogRecord::XDecision { txn, decision, .. } => {
                        if let Some(prev) = x_durable.insert(*txn, *decision) {
                            if prev != *decision {
                                return Err(format!(
                                    "{s} logged conflicting X-decisions for {txn:?}: {prev:?} then {decision:?}"
                                ));
                            }
                        }
                    }
                    _ => {}
                }
            }
            for (&txn, &(d, _)) in &durable {
                if let Some(vd) = n.decision(txn) {
                    if vd != d {
                        return Err(format!(
                            "{s} volatile decision {vd:?} contradicts durable {d:?} for {txn:?}"
                        ));
                    }
                }
            }
            for (&txn, &d) in &x_durable {
                if let Some(vd) = n.x_decision(txn) {
                    if vd != d {
                        return Err(format!(
                            "{s} volatile X-decision {vd:?} contradicts durable {d:?} for {txn:?}"
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

/// Bounded termination, checked at quiescent states (no delivery or
/// timer enabled — nothing is ever going to happen again): every *live*
/// site still hosting one of the given transactions must have decided
/// it. Sound even under crashes because an undecided engine always
/// keeps a watchdog, election, or retry timer armed — a quiescent
/// undecided site is precisely a lost wakeup, the bug class this
/// invariant exists to catch. Sites that are down (and sites that never
/// learned of the transaction because its messages died with a crash)
/// are exempt: termination cannot be demanded of a corpse.
pub fn quiescent_termination(
    txns: Vec<TxnId>,
) -> impl Fn(&ControlledHost<SiteNode>) -> Result<(), String> {
    move |h| {
        for s in h.sites() {
            if !h.is_up(s) {
                continue;
            }
            let n = h.node(s);
            for &txn in &txns {
                if n.known_txns().contains(&txn) && n.decision(txn).is_none() {
                    return Err(format!(
                        "{s} still hosts undecided {txn:?} at quiescence (blocked: {})",
                        n.is_blocked(txn)
                    ));
                }
            }
        }
        Ok(())
    }
}
