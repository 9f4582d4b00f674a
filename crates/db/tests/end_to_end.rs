//! End-to-end protocol runs on the deterministic simulator.

use qbc_core::{Decision, LocalState, ProtocolKind, SiteVotes, TxnId, WriteSet};
use qbc_db::{build_cluster, NodeConfig, SiteNode};
use qbc_simnet::{sites, DelayModel, Duration, Sim, SimConfig, SiteId, Time};
use qbc_votes::{Catalog, CatalogBuilder, ItemId};

/// Catalog: one item `x` replicated at s0..s4 (unit votes, r=2, w=4).
fn small_catalog() -> Catalog {
    CatalogBuilder::new()
        .item(ItemId(0))
        .copies_at(sites(5))
        .quorums(2, 4)
        .build()
        .unwrap()
}

const T: Duration = Duration(10);

fn sim_with(
    catalog: &Catalog,
    n: u32,
    seed: u64,
    customize: impl FnMut(NodeConfig) -> NodeConfig,
) -> Sim<SiteNode> {
    let nodes = build_cluster(sites(n), catalog, T, customize);
    Sim::new(
        SimConfig {
            seed,
            delay: DelayModel::uniform(Duration(2), T),
            record_trace: true,
        },
        nodes,
    )
}

fn begin(sim: &mut Sim<SiteNode>, at: Time, site: SiteId, txn: u64, value: i64, p: ProtocolKind) {
    sim.schedule_call(at, site, move |node, ctx| {
        node.begin_transaction(ctx, TxnId(txn), WriteSet::new([(ItemId(0), value)]), p);
    });
}

fn decisions(sim: &Sim<SiteNode>, txn: TxnId) -> Vec<(SiteId, Option<Decision>)> {
    sim.nodes().map(|(s, n)| (s, n.decision(txn))).collect()
}

fn assert_all_committed(sim: &Sim<SiteNode>, txn: TxnId) {
    for (s, d) in decisions(sim, txn) {
        assert_eq!(d, Some(Decision::Commit), "site {s} must commit");
    }
}

fn assert_all_aborted(sim: &Sim<SiteNode>, txn: TxnId) {
    for (s, d) in decisions(sim, txn) {
        assert_eq!(d, Some(Decision::Abort), "site {s} must abort");
    }
}

fn assert_consistent(sim: &Sim<SiteNode>, txn: TxnId) {
    let set: std::collections::BTreeSet<Decision> =
        sim.nodes().filter_map(|(_, n)| n.decision(txn)).collect();
    assert!(set.len() <= 1, "atomicity violated: {set:?}");
    for (s, n) in sim.nodes() {
        assert!(
            n.violations().is_empty(),
            "violations at {s}: {:?}",
            n.violations()
        );
    }
}

#[test]
fn failure_free_commit_all_protocols() {
    let catalog = small_catalog();
    for (i, p) in ProtocolKind::ALL.into_iter().enumerate() {
        if p == ProtocolKind::SkeenQuorum {
            continue; // covered separately (needs site votes)
        }
        let mut sim = sim_with(&catalog, 5, 7 + i as u64, |c| c);
        begin(&mut sim, Time(0), SiteId(0), 1, 42, p);
        sim.run_until(Time(2_000));
        assert_all_committed(&sim, TxnId(1));
        assert_consistent(&sim, TxnId(1));
        // Values applied at every copy.
        for (s, n) in sim.nodes() {
            let (_, v) = n.item_value(ItemId(0)).expect("copy exists");
            assert_eq!(v, 42, "value at {s}");
        }
    }
}

#[test]
fn failure_free_commit_skeen() {
    let catalog = small_catalog();
    let sv = SiteVotes::uniform(sites(5), 3, 3);
    let mut sim = sim_with(&catalog, 5, 3, move |c| c.with_site_votes(sv.clone()));
    begin(
        &mut sim,
        Time(0),
        SiteId(0),
        1,
        9,
        ProtocolKind::SkeenQuorum,
    );
    sim.run_until(Time(2_000));
    assert_all_committed(&sim, TxnId(1));
    assert_consistent(&sim, TxnId(1));
}

#[test]
fn one_no_vote_aborts_everywhere() {
    let catalog = small_catalog();
    for p in [
        ProtocolKind::TwoPhase,
        ProtocolKind::ThreePhase,
        ProtocolKind::QuorumCommit1,
        ProtocolKind::QuorumCommit2,
    ] {
        let mut sim = sim_with(&catalog, 5, 11, |c| {
            if c.site == SiteId(3) {
                c.vote_no(TxnId(1))
            } else {
                c
            }
        });
        begin(&mut sim, Time(0), SiteId(0), 1, 5, p);
        sim.run_until(Time(2_000));
        assert_all_aborted(&sim, TxnId(1));
        assert_consistent(&sim, TxnId(1));
        // No value applied anywhere.
        for (_, n) in sim.nodes() {
            let (_, v) = n.item_value(ItemId(0)).unwrap();
            assert_eq!(v, 0);
        }
    }
}

#[test]
fn two_pc_blocks_on_coordinator_crash_after_votes() {
    let catalog = small_catalog();
    let mut sim = sim_with(&catalog, 5, 13, |c| c);
    begin(&mut sim, Time(0), SiteId(0), 1, 5, ProtocolKind::TwoPhase);
    // Crash the coordinator after votes are cast (T=10: VoteReq ≤10,
    // votes ≤20) but before its COMMIT command is sent... 2PC decides
    // when the last vote arrives, so crash at the instant votes land at
    // earliest possible decision time minus epsilon is racy with random
    // delays; instead block all outgoing command links, then crash.
    for s in 1..5 {
        sim.schedule_block_link(Time(11), SiteId(0), SiteId(s));
    }
    sim.schedule_crash(Time(30), SiteId(0));
    sim.run_until(Time(3_000));
    // Participants voted yes, coordinator unreachable: cooperative
    // termination finds all-W and blocks. The transaction stays
    // undecided at s1..s4, and the item stays locked.
    for s in 1..5u32 {
        let n = sim.node(SiteId(s));
        assert_eq!(n.decision(TxnId(1)), None, "s{s} must be undecided");
        assert_eq!(n.local_state(TxnId(1)), Some(LocalState::Wait));
        assert!(n.is_item_locked(ItemId(0)), "blocked txn pins the item");
    }
    assert_consistent(&sim, TxnId(1));
}

#[test]
fn qc1_terminates_after_coordinator_crash_before_prepare() {
    let catalog = small_catalog();
    let mut sim = sim_with(&catalog, 5, 17, |c| c);
    begin(
        &mut sim,
        Time(0),
        SiteId(0),
        1,
        5,
        ProtocolKind::QuorumCommit1,
    );
    // Cut the coordinator off after VoteReq delivery but before it can
    // send PREPARE-TO-COMMIT, then crash it: participants are all in W.
    for s in 1..5 {
        sim.schedule_block_link(Time(11), SiteId(0), SiteId(s));
    }
    sim.schedule_crash(Time(30), SiteId(0));
    sim.run_until(Time(3_000));
    // TP1: all-W partition {s1..s4} holds 4 ≥ r(x)=2 votes among
    // non-PC sites → abort quorum → everyone aborts and unlocks.
    for s in 1..5u32 {
        let n = sim.node(SiteId(s));
        assert_eq!(n.decision(TxnId(1)), Some(Decision::Abort), "s{s}");
        assert!(!n.is_item_locked(ItemId(0)));
    }
    assert_consistent(&sim, TxnId(1));
}

#[test]
fn qc2_terminates_after_coordinator_crash_before_prepare() {
    let catalog = small_catalog();
    let mut sim = sim_with(&catalog, 5, 19, |c| c);
    begin(
        &mut sim,
        Time(0),
        SiteId(0),
        1,
        5,
        ProtocolKind::QuorumCommit2,
    );
    for s in 1..5 {
        sim.schedule_block_link(Time(11), SiteId(0), SiteId(s));
    }
    sim.schedule_crash(Time(30), SiteId(0));
    sim.run_until(Time(3_000));
    // TP2 abort rule needs w(x)=4 votes from non-PC sites: s1..s4 hold
    // exactly 4 → abort.
    for s in 1..5u32 {
        assert_eq!(
            sim.node(SiteId(s)).decision(TxnId(1)),
            Some(Decision::Abort),
            "s{s}"
        );
    }
    assert_consistent(&sim, TxnId(1));
}

#[test]
fn crashed_participant_recovers_and_learns_commit() {
    let catalog = small_catalog();
    let mut sim = sim_with(&catalog, 5, 23, |c| c);
    begin(
        &mut sim,
        Time(0),
        SiteId(0),
        1,
        77,
        ProtocolKind::QuorumCommit1,
    );
    // s4 crashes right after voting; the rest commit (w(x)=4 of 5 votes
    // reachable... s4's ack may be missing: commit needs w(x)=4 votes of
    // PC-acks among 5 copies: s0,s1,s2,s3 suffice).
    sim.schedule_crash(Time(25), SiteId(4));
    sim.schedule_recover(Time(500), SiteId(4));
    sim.run_until(Time(5_000));
    assert_all_committed(&sim, TxnId(1));
    assert_consistent(&sim, TxnId(1));
    let (_, v) = sim.node(SiteId(4)).item_value(ItemId(0)).unwrap();
    assert_eq!(v, 77, "recovered site must apply the committed value");
}

#[test]
fn partition_heals_and_stragglers_learn_the_outcome() {
    let catalog = small_catalog();
    let mut sim = sim_with(&catalog, 5, 29, |c| c);
    begin(
        &mut sim,
        Time(0),
        SiteId(0),
        1,
        5,
        ProtocolKind::QuorumCommit1,
    );
    // Partition away s3, s4 before the prepare round completes there.
    sim.schedule_partition(
        Time(12),
        vec![
            vec![SiteId(0), SiteId(1), SiteId(2)],
            vec![SiteId(3), SiteId(4)],
        ],
    );
    sim.schedule_heal(Time(600));
    sim.run_until(Time(6_000));
    // Majority side cannot commit (w(x)=4 > 3 copies reachable) → the
    // outcome either way must become uniform after healing.
    assert_consistent(&sim, TxnId(1));
    let d0 = sim.node(SiteId(0)).decision(TxnId(1));
    assert!(d0.is_some(), "must terminate after heal");
    for s in 1..5u32 {
        assert_eq!(sim.node(SiteId(s)).decision(TxnId(1)), d0, "s{s} agrees");
    }
}

#[test]
fn quorum_read_returns_latest_committed_value() {
    let catalog = small_catalog();
    let mut sim = sim_with(&catalog, 5, 31, |c| c);
    begin(
        &mut sim,
        Time(0),
        SiteId(0),
        1,
        123,
        ProtocolKind::QuorumCommit2,
    );
    sim.schedule_call(Time(1_000), SiteId(2), |node, ctx| {
        node.start_read(ctx, 900, ItemId(0));
    });
    // Poll after the collection window but before the collector retires
    // (read tables are bounded: entries are dropped a couple of windows
    // after resolving).
    sim.run_until(Time(1_040));
    match sim.node(SiteId(2)).read_result(900) {
        Some(qbc_db::ReadResult::Success { value, .. }) => assert_eq!(value, 123),
        other => panic!("read should succeed, got {other:?}"),
    }
}

#[test]
fn quorum_read_fails_while_item_is_pinned_by_blocked_txn() {
    let catalog = small_catalog();
    let mut sim = sim_with(&catalog, 5, 37, |c| c);
    begin(&mut sim, Time(0), SiteId(0), 1, 5, ProtocolKind::TwoPhase);
    // Block the 2PC coordinator's commands and crash it: participants
    // stay blocked in W holding X-locks.
    for s in 1..5 {
        sim.schedule_block_link(Time(11), SiteId(0), SiteId(s));
    }
    sim.schedule_crash(Time(30), SiteId(0));
    // All copies are pinned: the read cannot assemble r(x)=2 votes.
    sim.schedule_call(Time(1_000), SiteId(2), |node, ctx| {
        node.start_read(ctx, 901, ItemId(0));
    });
    // The collection window (2T = 20) expires at t=1020; poll before
    // the resolved collector retires.
    sim.run_until(Time(1_040));
    assert_eq!(
        sim.node(SiteId(2)).read_result(901),
        Some(qbc_db::ReadResult::Unavailable),
        "blocked locks must make the item unreadable"
    );
}

#[test]
fn sequential_transactions_advance_versions() {
    let catalog = small_catalog();
    let mut sim = sim_with(&catalog, 5, 41, |c| c);
    begin(
        &mut sim,
        Time(0),
        SiteId(0),
        1,
        10,
        ProtocolKind::QuorumCommit2,
    );
    begin(
        &mut sim,
        Time(500),
        SiteId(1),
        2,
        20,
        ProtocolKind::QuorumCommit2,
    );
    begin(
        &mut sim,
        Time(1_000),
        SiteId(2),
        3,
        30,
        ProtocolKind::QuorumCommit2,
    );
    sim.run_until(Time(4_000));
    for txn in [1u64, 2, 3] {
        assert_all_committed(&sim, TxnId(txn));
    }
    for (s, n) in sim.nodes() {
        let (ver, v) = n.item_value(ItemId(0)).unwrap();
        assert_eq!(v, 30, "final value at {s}");
        assert_eq!(ver, qbc_votes::Version(3), "three writes at {s}");
    }
}

#[test]
fn concurrent_conflicting_transactions_no_wait_aborts_one() {
    let catalog = small_catalog();
    let mut sim = sim_with(&catalog, 5, 43, |c| c);
    // Two transactions writing x at the same instant from different
    // coordinators: no-wait locking votes no for the loser at each site.
    begin(
        &mut sim,
        Time(0),
        SiteId(0),
        1,
        100,
        ProtocolKind::QuorumCommit1,
    );
    begin(
        &mut sim,
        Time(0),
        SiteId(4),
        2,
        200,
        ProtocolKind::QuorumCommit1,
    );
    sim.run_until(Time(5_000));
    assert_consistent(&sim, TxnId(1));
    assert_consistent(&sim, TxnId(2));
    let d1 = sim.node(SiteId(0)).decision(TxnId(1));
    let d2 = sim.node(SiteId(4)).decision(TxnId(2));
    assert!(
        d1 == Some(Decision::Abort) || d2 == Some(Decision::Abort),
        "at least one of two conflicting transactions must abort (got {d1:?}, {d2:?})"
    );
    // Whatever committed (if anything) is the uniform durable value.
    for (_, n) in sim.nodes() {
        let (_, v) = n.item_value(ItemId(0)).unwrap();
        assert!(v == 0 || v == 100 || v == 200);
    }
}

#[test]
fn partitioned_but_alive_coordinator_hands_off_to_termination() {
    // The coordinator stays up but is partitioned away right after the
    // votes: its ack window expires below quorum and it hands off to
    // the termination protocol (CoordPhase::HandedOff). The majority
    // side terminates by itself; the minority (coordinator) side
    // eventually learns after the heal.
    let catalog = small_catalog();
    let mut sim = sim_with(&catalog, 5, 47, |c| c);
    begin(
        &mut sim,
        Time(0),
        SiteId(0),
        1,
        5,
        ProtocolKind::QuorumCommit1,
    );
    sim.schedule_partition(
        Time(21),
        vec![
            vec![SiteId(0)],
            vec![SiteId(1), SiteId(2), SiteId(3), SiteId(4)],
        ],
    );
    sim.run_until(Time(2_500));
    // Majority side {s1..s4}: 4 votes of x; TP1 terminates it (which
    // way depends on whether prepares landed before the cut).
    let d1 = sim.node(SiteId(1)).decision(TxnId(1));
    assert!(d1.is_some(), "majority side must terminate without s0");
    for s in 2..5u32 {
        assert_eq!(sim.node(SiteId(s)).decision(TxnId(1)), d1, "s{s}");
    }
    // Heal: the coordinator converges to the same outcome.
    sim.schedule_heal(Time(2_600));
    sim.run_until(Time(8_000));
    assert_eq!(sim.node(SiteId(0)).decision(TxnId(1)), d1, "s0 converges");
    assert_consistent(&sim, TxnId(1));
}

#[test]
fn deterministic_replay_same_seed_same_outcome() {
    let catalog = small_catalog();
    let run = |seed: u64| {
        let mut sim = sim_with(&catalog, 5, seed, |c| c);
        begin(
            &mut sim,
            Time(0),
            SiteId(0),
            1,
            5,
            ProtocolKind::QuorumCommit1,
        );
        sim.schedule_partition(
            Time(15),
            vec![
                vec![SiteId(0), SiteId(1)],
                vec![SiteId(2), SiteId(3), SiteId(4)],
            ],
        );
        sim.schedule_heal(Time(800));
        sim.run_until(Time(5_000));
        (
            decisions(&sim, TxnId(1)),
            sim.stats().sent,
            sim.stats().delivered,
        )
    };
    assert_eq!(run(99), run(99));
}
