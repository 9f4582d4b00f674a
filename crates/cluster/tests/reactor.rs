//! The reactor front-end: differential conformance against the
//! threaded baseline, backpressure isolation, coordinator-kill
//! resubmission, and per-loop-turn group commit on file WALs.
//! Wall-clock tests — kept small and time-bounded like the threaded
//! suite; the deterministic substrate carries the correctness evidence.

use qbc_cluster::{
    ClusterConfig, Outcome, ReactorCluster, ReactorConfig, SimCluster, ThreadedCluster,
};
use qbc_core::{Decision, WriteSet};
use qbc_simnet::Duration;
use qbc_storage::TempDir;
use qbc_votes::ItemId;
use std::io::Write as _;
use std::os::unix::net::UnixStream;

/// The shared differential workload: conflict-free (every session
/// writes its own items), so on *any* correct substrate every
/// transaction must commit — timing cannot change the answer. Twelve
/// single-shard writesets plus two cross-shard ones (items 0..7 live in
/// shard 0, 8..15 in shard 1).
fn workload() -> Vec<Vec<(ItemId, i64)>> {
    let mut w: Vec<Vec<(ItemId, i64)>> = Vec::new();
    for i in 0..6u32 {
        w.push(vec![(ItemId(i), i as i64 + 100)]);
    }
    for i in 8..14u32 {
        w.push(vec![(ItemId(i), i as i64 + 100)]);
    }
    w.push(vec![(ItemId(6), 1), (ItemId(14), 2)]);
    w.push(vec![(ItemId(7), 3), (ItemId(15), 4)]);
    w
}

#[test]
fn reactor_decisions_match_the_threaded_baseline() {
    let cfg = || ClusterConfig {
        t_bound: Duration(20),
        seed: 21,
        ..Default::default()
    };

    // Reactor substrate: block on every session handle.
    let cluster = ReactorCluster::spawn(cfg(), ReactorConfig::default());
    let handles: Vec<_> = workload().into_iter().map(|w| cluster.submit(w)).collect();
    let reactor: Vec<Decision> = handles
        .into_iter()
        .map(|h| match h.wait() {
            Outcome::Committed { .. } => Decision::Commit,
            Outcome::Aborted { .. } => Decision::Abort,
            other => panic!("reactor session ended {other:?}"),
        })
        .collect();
    let report = cluster.shutdown();
    assert_eq!(report.atomicity_violations, vec![]);
    for (h, d) in &report.decisions {
        assert_eq!(*d, Some(Decision::Commit), "{h:?} on the reactor");
    }

    // Threaded baseline: same workload, decisions read at harvest.
    let mut baseline = ThreadedCluster::spawn(cfg(), 1);
    let n = workload().len();
    for w in workload() {
        baseline.submit(WriteSet::new(w));
    }
    std::thread::sleep(std::time::Duration::from_millis(900));
    let report = baseline.shutdown();
    assert_eq!(report.atomicity_violations, vec![]);
    let threaded: Vec<Decision> = report
        .decisions
        .iter()
        .map(|(h, d)| d.unwrap_or_else(|| panic!("{h:?} undecided on the threaded substrate")))
        .collect();

    assert_eq!(reactor.len(), n);
    assert_eq!(
        reactor, threaded,
        "the two substrates decided the same workload differently"
    );
}

#[test]
fn a_slow_client_does_not_stall_other_sessions() {
    let cfg = ClusterConfig {
        shards: 1,
        t_bound: Duration(20),
        seed: 7,
        ..Default::default()
    };
    let rcfg = ReactorConfig {
        // Tiny reply budget per connection: a few KiB of unread replies
        // (kernel buffer + queued frames) trips the pause.
        write_hwm: 2 * 1024,
        sockbuf: Some(4 * 1024),
        ..Default::default()
    };
    let cluster = ReactorCluster::spawn(cfg, rcfg);

    // The rogue connection floods submissions and never reads a reply.
    let mut rogue = UnixStream::connect(cluster.socket()).expect("connect rogue");
    let mut flood = Vec::new();
    for i in 0..3000u64 {
        let mut payload = Vec::new();
        qbc_reactor::Request::Submit {
            session: i,
            writes: vec![(ItemId(0), i as i64)],
        }
        .encode_into(&mut payload);
        flood.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        flood.extend_from_slice(&payload);
    }
    rogue.write_all(&flood).expect("flood");

    // Unrelated sessions on the well-behaved client keep completing
    // while the rogue connection is paused.
    for round in 0..3 {
        let handles: Vec<_> = (1..8u32)
            .map(|i| cluster.submit(vec![(ItemId(i), round * 10 + i as i64)]))
            .collect();
        for h in handles {
            let o = h.wait();
            assert!(
                matches!(o, Outcome::Committed { .. }),
                "well-behaved session starved in round {round}: {o:?}"
            );
        }
    }

    // The pause must actually have happened (else the test proved
    // nothing): wait briefly for the flood's replies to pile up.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while cluster.server_stats().backpressure_stalls == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "flooded connection never hit the write high-water mark"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    }

    drop(rogue);
    let report = cluster.shutdown();
    assert_eq!(report.atomicity_violations, vec![]);
    assert!(report.server.backpressure_stalls > 0);
}

#[test]
fn killing_the_coordinator_resubmits_to_a_survivor() {
    let cfg = ClusterConfig {
        shards: 1,
        // Two copies per item: items whose copy pair excludes the
        // victim keep full participation and can still commit (the
        // paper's vote round needs *every* copy site; a transaction
        // touching a dead copy presumed-aborts instead).
        replication: 2,
        t_bound: Duration(20),
        seed: 3,
        ..Default::default()
    };
    let rcfg = ReactorConfig {
        // Fast front-door timeout so begins swallowed whole by the
        // killed site bounce back quickly.
        txn_timeout_ms: 500,
        ..Default::default()
    };
    let cluster = ReactorCluster::spawn(cfg, rcfg);
    let shard = qbc_cluster::ShardId(0);
    let victim = cluster.map().coordinator(shard, 0);
    let spared: Vec<ItemId> = cluster
        .map()
        .catalog(shard)
        .items()
        .filter(|(_, placement)| !placement.holds(victim))
        .map(|(item, _)| item)
        .collect();
    assert!(spared.len() >= 2, "placement: {spared:?}");

    // In-flight work racing the kill: every session must still resolve
    // — by the survivors' termination protocol if the victim had
    // started it, by timeout + resubmission if it swallowed the begin.
    let racing: Vec<_> = (0..8u32)
        .map(|i| cluster.submit(vec![(ItemId(i), i as i64)]))
        .collect();
    cluster.kill_site(victim);
    for h in racing {
        let o = h.wait();
        assert!(
            !matches!(o, Outcome::Failed),
            "session racing the kill was dropped on the floor: {o:?}"
        );
    }
    // Let the decision messages reach the copy sites so the racing
    // sessions' pins are released before the fresh round conflicts
    // with them.
    std::thread::sleep(std::time::Duration::from_millis(200));

    // New work after the kill routes around the victim; sessions on
    // items it held no copy of must commit via the survivors.
    let fresh: Vec<_> = spared
        .iter()
        .map(|&item| cluster.submit(vec![(item, 1_000)]))
        .collect();
    for h in fresh {
        let o = h.wait();
        assert!(
            matches!(o, Outcome::Committed { .. }),
            "post-kill submission did not commit via the survivors: {o:?}"
        );
    }

    let report = cluster.shutdown();
    assert_eq!(report.atomicity_violations, vec![]);
}

/// A burst of concurrent writes on file WALs: the event loop forces each
/// site's log once per turn, so many records share one force. Every
/// acknowledged commit must then survive a restart from the same
/// directories.
#[test]
fn durable_sites_share_forces_and_recover_every_acknowledged_commit() {
    let dir = TempDir::new("reactor-durable");
    let cfg = || {
        ClusterConfig {
            items_per_shard: 256,
            // Generous: a burst queued behind real fsyncs must never
            // trip a vote timer.
            t_bound: Duration(2_000),
            seed: 13,
            ..Default::default()
        }
        .with_wal_dir(dir.path())
    };
    let cluster = ReactorCluster::spawn(cfg(), ReactorConfig::default());
    // One write per item: conflict-free, so every session must commit.
    let handles: Vec<_> = (0..500u32)
        .map(|i| cluster.submit(vec![(ItemId(i), i as i64 + 1)]))
        .collect();
    let acked: Vec<_> = handles
        .into_iter()
        .map(|h| match h.wait() {
            Outcome::Committed { txn, .. } => txn,
            other => panic!("durable session ended {other:?}"),
        })
        .collect();
    let report = cluster.shutdown();
    assert_eq!(report.atomicity_violations, vec![]);
    let records: u64 = report.metrics.shards.iter().map(|s| s.wal_records).sum();
    let forces = report.metrics.total_wal_forces();
    assert!(
        records >= 4 * forces,
        "{records} records over {forces} forces: the burst was not batched"
    );

    // Reopen the same directories on the deterministic substrate: every
    // site replays its log on startup.
    let mut restarted = SimCluster::new(cfg());
    assert!(restarted.run_to_quiescence(50_000_000).drained());
    for txn in acked {
        let decisions: Vec<Decision> = restarted
            .map()
            .all_sites()
            .into_iter()
            .filter_map(|s| restarted.sim().node(s).decision(txn))
            .collect();
        assert!(
            !decisions.is_empty() && decisions.iter().all(|d| *d == Decision::Commit),
            "acknowledged {txn:?} recovered as {decisions:?}"
        );
    }
}
