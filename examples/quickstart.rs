//! Quickstart: a five-site replicated database committing one
//! transaction under the paper's QC2 + TP2 protocol.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use quorum_commit::core::{ProtocolKind, TxnId, WriteSet};
use quorum_commit::db::{build_cluster, SiteNode};
use quorum_commit::simnet::{sites, DelayModel, Duration, Sim, SimConfig, SiteId, Time};
use quorum_commit::votes::{CatalogBuilder, ItemId};

fn main() {
    // 1. Describe the replicated data: one item `x`, a copy at each of
    //    five sites, one vote per copy, majority quorums (r=3, w=3).
    let catalog = CatalogBuilder::new()
        .item(ItemId(0))
        .copies_at(sites(5))
        .majority()
        .build()
        .expect("valid catalog");

    // 2. Build one database node per site. T (the longest end-to-end
    //    delay) is 10 ticks; protocol timeouts derive from it.
    let nodes = build_cluster(sites(5), &catalog, Duration(10), |cfg| cfg);

    // 3. Put the nodes on the deterministic simulator.
    let mut sim: Sim<SiteNode> = Sim::new(
        SimConfig {
            seed: 42,
            delay: DelayModel::uniform(Duration(2), Duration(10)),
            record_trace: true,
        },
        nodes,
    );

    // 4. A client submits a transaction at site 0: write x := 7 under
    //    the paper's quorum commit protocol 2 (with termination
    //    protocol 2 standing by, should anything fail).
    sim.schedule_call(Time(0), SiteId(0), |node, ctx| {
        node.begin_transaction(
            ctx,
            TxnId(1),
            WriteSet::new([(ItemId(0), 7)]),
            ProtocolKind::QuorumCommit2,
        );
    });

    // 5. Run to quiescence and inspect.
    sim.run_to_quiescence(100_000);

    println!("decisions:");
    for (site, node) in sim.nodes() {
        println!(
            "  {site}: {:?}, x = {:?}",
            node.decision(TxnId(1)),
            node.item_value(ItemId(0))
        );
    }
    println!("\nnetwork: {}", sim.stats());
    let all_committed = sim
        .nodes()
        .all(|(_, n)| n.decision(TxnId(1)) == Some(quorum_commit::core::Decision::Commit));
    assert!(all_committed, "failure-free run must commit everywhere");
    println!("all five sites committed x := 7 — quickstart OK");
}
