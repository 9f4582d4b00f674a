//! Read-path table hygiene (ISSUE 8): resolved read collectors — quorum
//! and snapshot alike, including reads of unknown items — retire a few
//! collection windows after resolving, so the per-site `reads` /
//! `snap_reads` maps stay bounded on long-running sites instead of
//! growing until the next crash.

use qbc_core::{ProtocolKind, TxnId, WriteSet};
use qbc_db::{build_cluster, NodeConfig, ReadResult, SiteNode};
use qbc_simnet::{sites, DelayModel, Duration, Sim, SimConfig, SiteId, Time};
use qbc_votes::{Catalog, CatalogBuilder, ItemId};

/// One item `x` replicated at s0..s4 (unit votes, r=2, w=4).
fn small_catalog() -> Catalog {
    CatalogBuilder::new()
        .item(ItemId(0))
        .copies_at(sites(5))
        .quorums(2, 4)
        .build()
        .unwrap()
}

const T: Duration = Duration(10);

fn sim_with(seed: u64, customize: impl FnMut(NodeConfig) -> NodeConfig) -> Sim<SiteNode> {
    let nodes = build_cluster(sites(5), &small_catalog(), T, customize);
    Sim::new(
        SimConfig {
            seed,
            delay: DelayModel::uniform(Duration(2), T),
            record_trace: true,
        },
        nodes,
    )
}

fn commit(sim: &mut Sim<SiteNode>, at: Time, txn: u64, value: i64) {
    sim.schedule_call(at, SiteId(0), move |node, ctx| {
        node.begin_transaction(
            ctx,
            TxnId(txn),
            WriteSet::new([(ItemId(0), value)]),
            ProtocolKind::QuorumCommit1,
        );
    });
}

#[test]
fn resolved_quorum_read_collectors_retire_and_bound_the_table() {
    let mut sim = sim_with(3, |c| c);
    commit(&mut sim, Time(0), 1, 42);
    sim.run_until(Time(500));

    // A burst of reads. Each collector resolves by its collection
    // window (2T = 20) and must be dropped a couple of windows later.
    for i in 0..10u64 {
        let req = 100 + i;
        sim.schedule_call(Time(1_000 + i), SiteId(2), move |node, ctx| {
            node.start_read(ctx, req, ItemId(0));
        });
    }
    // In-window: every read has resolved and is still pollable.
    sim.run_until(Time(1_045));
    let node = sim.node(SiteId(2));
    assert_eq!(node.reads_table_len(), 10, "all collectors live in-window");
    for i in 0..10u64 {
        match node.read_result(100 + i) {
            Some(ReadResult::Success { value, .. }) => assert_eq!(value, 42),
            other => panic!("read {i} did not succeed in-window: {other:?}"),
        }
    }

    // Past the retirement TTL: the table is empty again — the leak this
    // test regresses was entries surviving until the next crash.
    sim.run_until(Time(1_200));
    let node = sim.node(SiteId(2));
    assert_eq!(node.reads_table_len(), 0, "resolved collectors must retire");
    assert_eq!(node.read_result(100), None);
}

#[test]
fn unknown_item_read_resolves_unavailable_and_retires() {
    let mut sim = sim_with(5, |c| c);
    // `ItemId(77)` is not in the catalog: the read resolves Unavailable
    // immediately — and, post-fix, its collector retires like any
    // other instead of leaking forever.
    sim.schedule_call(Time(100), SiteId(1), |node, ctx| {
        node.start_read(ctx, 500, ItemId(77));
    });
    sim.run_until(Time(110));
    let node = sim.node(SiteId(1));
    assert_eq!(node.read_result(500), Some(ReadResult::Unavailable));
    assert_eq!(node.reads_table_len(), 1);

    sim.run_until(Time(300));
    let node = sim.node(SiteId(1));
    assert_eq!(node.reads_table_len(), 0, "unknown-item collector leaked");
    assert_eq!(node.read_result(500), None);
}

#[test]
fn snapshot_read_collectors_retire_and_bound_the_table() {
    let mut sim = sim_with(7, |c| c.with_snapshot_reads(2));
    commit(&mut sim, Time(0), 1, 42);
    commit(&mut sim, Time(200), 2, 43);
    sim.run_until(Time(500));

    // Local snapshot reads resolve synchronously at the shard
    // watermark. After two commits the coordinator has heard every
    // peer's watermark at least at version 1, so the read lands on the
    // first committed value (the commit-stable prefix, not the
    // frontier).
    for i in 0..8u64 {
        let req = 600 + i;
        sim.schedule_call(Time(1_000 + i), SiteId(0), move |node, ctx| {
            node.start_snapshot_read(ctx, req, ItemId(0));
        });
    }
    sim.run_until(Time(1_020));
    let node = sim.node(SiteId(0));
    assert_eq!(node.snap_reads_table_len(), 8);
    for i in 0..8u64 {
        match node.snap_read_result(600 + i) {
            Some(ReadResult::Success { value, .. }) => {
                assert!(
                    value == 42 || value == 43,
                    "snapshot read saw a non-committed value {value}"
                );
            }
            other => panic!("snapshot read {i} did not succeed: {other:?}"),
        }
    }

    sim.run_until(Time(1_200));
    let node = sim.node(SiteId(0));
    assert_eq!(node.snap_reads_table_len(), 0);
    assert_eq!(node.snap_read_result(600), None);

    // Unknown item on the snapshot path: same unified retirement.
    sim.schedule_call(Time(1_300), SiteId(0), |node, ctx| {
        node.start_snapshot_read(ctx, 900, ItemId(77));
    });
    sim.run_until(Time(1_310));
    assert_eq!(
        sim.node(SiteId(0)).snap_read_result(900),
        Some(ReadResult::Unavailable)
    );
    sim.run_until(Time(1_500));
    let node = sim.node(SiteId(0));
    assert_eq!(node.snap_reads_table_len(), 0);
    assert_eq!(node.snap_read_result(900), None);
}
