//! Event-loop hosting: a site with `NodeConfig::event_loop` on only
//! stages its log records, and forces them when its host quiesces it.
//! Nothing that depends on a staged record leaves the site before that
//! force: not a vote, and not a decision event.

use qbc_core::{Decision, LogRecord, Msg, ProtocolKind, TxnId, WriteSet};
use qbc_db::{build_cluster, DecisionEvent, NetMsg, SiteNode};
use qbc_simnet::{sites, Duration, NodeDriver, SiteId, Time};
use qbc_votes::{CatalogBuilder, ItemId};
use std::collections::VecDeque;

const CLIENT: SiteId = SiteId(9);
const TXN: TxnId = TxnId(1);

/// `n` event-loop sites; item `x` has a copy at each of `copies`.
fn drivers(n: u32, copies: impl IntoIterator<Item = SiteId>) -> Vec<NodeDriver<SiteNode>> {
    let catalog = CatalogBuilder::new()
        .item(ItemId(0))
        .copies_at(copies)
        .majority()
        .build()
        .unwrap();
    let mut out = Vec::new();
    let drivers = build_cluster(sites(n), &catalog, Duration(10), |mut c| {
        c.event_loop = true;
        c
    })
    .into_iter()
    .map(|(s, n)| NodeDriver::new(s, n, s.0 as u64, Time(0), &mut out))
    .collect();
    assert!(out.is_empty(), "fresh sites send nothing at start");
    drivers
}

fn begin() -> NetMsg {
    NetMsg::BeginTxn {
        txn: TXN,
        writeset: WriteSet::new([(ItemId(0), 5)]),
        protocol: ProtocolKind::QuorumCommit2,
    }
}

fn proto(msg: &NetMsg) -> Option<&Msg> {
    match msg {
        NetMsg::Proto(m) | NetMsg::ProtoW { msg: m, .. } => Some(m),
        _ => None,
    }
}

fn is_vote_yes(msg: &NetMsg) -> bool {
    matches!(proto(msg), Some(Msg::Vote { yes: true, .. }))
}

fn drain(d: &mut NodeDriver<SiteNode>) -> Vec<DecisionEvent> {
    let mut evs = Vec::new();
    d.node_mut().drain_decision_events(&mut evs);
    evs
}

#[test]
fn a_vote_waits_for_the_force_that_logs_it() {
    let mut d = drivers(3, sites(3));
    let mut out = Vec::new();
    d[0].deliver(Time(0), CLIENT, begin(), &mut out);
    d[0].quiesce(Time(0), &mut out);
    let vote_req = out
        .drain(..)
        .find(|(to, m)| *to == SiteId(1) && matches!(proto(m), Some(Msg::VoteReq { .. })))
        .map(|(_, m)| m)
        .expect("the coordinator asks site 1 for its vote");

    let p = &mut d[1];
    let forces = p.node().wal_forces();
    p.deliver(Time(1), SiteId(0), vote_req, &mut out);
    assert!(
        !out.iter().any(|(_, m)| is_vote_yes(m)),
        "VOTE-YES left before its Voted record was forced: {out:?}"
    );
    assert_eq!(p.node().staged_records(), 1, "the Voted record is staged");
    assert_eq!(p.node().wal_forces(), forces, "delivery forces nothing");

    p.quiesce(Time(1), &mut out);
    assert!(
        out.iter().any(|(to, m)| *to == SiteId(0) && is_vote_yes(m)),
        "quiescence releases the vote: {out:?}"
    );
    assert_eq!(p.node().wal_forces(), forces + 1, "one force per turn");
    assert_eq!(p.node().staged_records(), 0);
    assert!(p
        .node()
        .log_records()
        .any(|r| matches!(r, LogRecord::Voted { spec } if spec.id == TXN)));
}

/// Runs the transaction to completion the way the reactor does: deliver
/// until nothing is queued, then quiesce every site. Every decision
/// event must come out of a quiescence, after the force that made the
/// site's commit record durable. The coordinator, site 0, holds no copy:
/// it adopts its engine's decision directly instead of applying one.
#[test]
fn a_decision_event_waits_for_the_commit_force() {
    let mut d = drivers(4, (1..4).map(SiteId));
    let mut queue: VecDeque<(SiteId, SiteId, NetMsg)> = VecDeque::new();
    queue.push_back((CLIENT, SiteId(0), begin()));
    let mut out = Vec::new();
    let mut decided = Vec::new();
    for turn in 0..50u64 {
        let now = Time(turn);
        while let Some((from, to, msg)) = queue.pop_front() {
            let site = &mut d[to.0 as usize];
            site.deliver(now, from, msg, &mut out);
            assert_eq!(drain(site), vec![], "{to} told a decision at delivery");
            queue.extend(out.drain(..).map(|(t, m)| (to, t, m)));
        }
        for (i, site) in d.iter_mut().enumerate() {
            let forces = site.node().wal_forces();
            let staged = site.node().staged_records();
            site.quiesce(now, &mut out);
            queue.extend(out.drain(..).map(|(t, m)| (SiteId(i as u32), t, m)));
            assert_eq!(
                site.node().wal_forces(),
                forces + u64::from(staged > 0),
                "one force per site per turn"
            );
            for ev in drain(site) {
                assert_eq!(ev.txn, TXN);
                assert_eq!(ev.decision, Decision::Commit);
                let durable = site.node().log_records().any(|r| {
                    matches!(r, LogRecord::Decided { txn, decision: Decision::Commit, .. } if *txn == TXN)
                });
                assert!(durable, "site {i} told a commit before forcing it");
                assert!(staged > 0, "site {i}'s event was released by this force");
                decided.push(i);
            }
        }
        let staged = d.iter().any(|s| s.node().staged_records() > 0);
        if queue.is_empty() && !staged && decided.len() == 4 {
            break;
        }
    }
    decided.sort_unstable();
    assert_eq!(decided, vec![0, 1, 2, 3], "every site decides exactly once");
}
