//! Substrate independence: the same `SiteNode` code that runs on the
//! deterministic simulator commits transactions on real OS threads with
//! crossbeam channels (the `simnet::threaded` transport).

use quorum_commit::core::{Decision, ProtocolKind, TxnId, WriteSet};
use quorum_commit::db::{NetMsg, NodeConfig, SiteNode};
use quorum_commit::simnet::threaded::{ThreadedConfig, ThreadedNet};
use quorum_commit::simnet::{sites, Duration, SiteId};
use quorum_commit::votes::{CatalogBuilder, ItemId};
use std::sync::Arc;

fn cluster(n: u32) -> Vec<(SiteId, SiteNode)> {
    let catalog = CatalogBuilder::new()
        .item(ItemId(0))
        .copies_at(sites(n))
        .majority()
        .build()
        .map(Arc::new)
        .unwrap();
    sites(n)
        .into_iter()
        .map(|s| {
            // Timer ticks map to milliseconds on the threaded runtime;
            // keep T small so watchdogs stay responsive in test time.
            let cfg = NodeConfig::new(s, Arc::clone(&catalog), Duration(20));
            (s, SiteNode::new(cfg, |_| 0))
        })
        .collect()
}

/// Drives a transaction by injecting a `VoteReq`-triggering call: the
/// threaded transport has no `schedule_call`, so we start the
/// transaction through a message the node understands — the coordinator
/// role is exercised by sending the begin request from a test-side
/// "client" via a direct state mutation before spawn.
#[test]
fn threaded_cluster_commits_failure_free() {
    let mut nodes = cluster(5);
    // Start the transaction on the coordinator node *before* spawning:
    // its kickoff actions are buffered as local/self messages and flushed
    // once the event loop starts... simpler: drive it through on_start by
    // wrapping the coordinator node.
    struct Kickoff(SiteNode);
    impl quorum_commit::simnet::Process for Kickoff {
        type Msg = NetMsg;
        type Timer = quorum_commit::db::NodeTimer;
        fn on_start(&mut self, ctx: &mut quorum_commit::simnet::Ctx<'_, NetMsg, Self::Timer>) {
            if self.0.site() == SiteId(0) {
                self.0.begin_transaction(
                    ctx,
                    TxnId(1),
                    WriteSet::new([(ItemId(0), 99)]),
                    ProtocolKind::QuorumCommit2,
                );
            }
        }
        fn on_message(
            &mut self,
            ctx: &mut quorum_commit::simnet::Ctx<'_, NetMsg, Self::Timer>,
            from: SiteId,
            msg: NetMsg,
        ) {
            self.0.on_message(ctx, from, msg);
        }
        fn on_timer(
            &mut self,
            ctx: &mut quorum_commit::simnet::Ctx<'_, NetMsg, Self::Timer>,
            id: quorum_commit::simnet::TimerId,
            t: Self::Timer,
        ) {
            self.0.on_timer(ctx, id, t);
        }
    }

    let wrapped: Vec<(SiteId, Kickoff)> = nodes.drain(..).map(|(s, n)| (s, Kickoff(n))).collect();
    let net = ThreadedNet::spawn(
        ThreadedConfig {
            delay_ms: 1,
            seed: 7,
        },
        wrapped,
    );

    // Real time: the commit needs a handful of 1 ms hops; one second is
    // a generous margin even on loaded CI machines.
    std::thread::sleep(std::time::Duration::from_secs(1));
    let nodes = net.shutdown();
    for (s, k) in &nodes {
        assert_eq!(
            k.0.decision(TxnId(1)),
            Some(Decision::Commit),
            "site {s} must commit on the threaded runtime"
        );
        let (_, v) = k.0.item_value(ItemId(0)).unwrap();
        assert_eq!(v, 99);
    }
}
