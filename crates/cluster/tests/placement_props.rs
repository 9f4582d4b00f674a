//! `ShardMap` catalogs, built from one placement per rotation class,
//! place every item exactly where a per-item reference model puts it,
//! and every site loads exactly the copies that model assigns it.

use proptest::prelude::*;
use qbc_cluster::{ClusterConfig, ShardId, ShardMap};
use qbc_db::{NodeConfig, SiteNode};
use qbc_simnet::{Duration, SiteId};
use qbc_votes::{ItemId, Version};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// A valid cluster shape: up to 3 shards of up to 5 sites, any
/// replication, any Gifford-valid quorums, and item counts below and
/// above the number of rotation classes.
fn arb_config() -> impl Strategy<Value = ClusterConfig> {
    (1u32..=3, 1u32..=5)
        .prop_flat_map(|(shards, sites)| (Just((shards, sites)), 1..=sites))
        .prop_flat_map(|((shards, sites), rep)| {
            // w > rep/2 and r > rep - w.
            (Just((shards, sites, rep)), (rep / 2 + 1)..=rep)
        })
        .prop_flat_map(|((shards, sites, rep), w)| {
            (
                Just((shards, sites, rep, w)),
                (rep - w + 1)..=rep,
                1u32..=40,
            )
        })
        .prop_map(|((shards, sites, rep, w), r, items)| ClusterConfig {
            shards,
            sites_per_shard: sites,
            replication: rep,
            read_quorum: r,
            write_quorum: w,
            items_per_shard: items,
            ..ClusterConfig::default()
        })
}

/// The per-item model: item k of shard s keeps unit-vote copies at the
/// `replication` shard sites starting from site k mod sites_per_shard.
fn reference(cfg: &ClusterConfig) -> BTreeMap<ItemId, BTreeMap<SiteId, u32>> {
    let mut out = BTreeMap::new();
    for shard in 0..cfg.shards {
        for k in 0..cfg.items_per_shard {
            let copies = (0..cfg.replication)
                .map(|j| {
                    let site = shard * cfg.sites_per_shard + (k + j) % cfg.sites_per_shard;
                    (SiteId(site), 1)
                })
                .collect();
            out.insert(ItemId(shard * cfg.items_per_shard + k), copies);
        }
    }
    out
}

proptest! {
    #[test]
    fn shard_catalogs_match_per_item_model(
        cfg in arb_config(),
        picks in proptest::collection::vec(0u32..200, 1..6),
    ) {
        let map = ShardMap::new(&cfg);
        let model = reference(&cfg);
        let space = cfg.shards * cfg.items_per_shard;
        for shard in (0..cfg.shards).map(ShardId) {
            let cat = map.catalog(shard);
            prop_assert!(cat.placements().len() <= cfg.sites_per_shard as usize);
            prop_assert_eq!(cat.len(), cfg.items_per_shard as usize);
            prop_assert_eq!(cat.item_ids().collect::<Vec<_>>(), map.items_of(shard));
            // Every id in the cluster (and past it) answers as the model
            // does: present with its copies and quorums in its own shard,
            // absent elsewhere.
            for id in (0..space + 3).map(ItemId) {
                let expected = model
                    .get(&id)
                    .filter(|_| map.shard_of_item(id) == Some(shard));
                match (cat.item(id), expected) {
                    (None, None) => {}
                    (Some(p), Some(copies)) => {
                        prop_assert_eq!(&p.copies, copies);
                        prop_assert_eq!(p.read_quorum, cfg.read_quorum);
                        prop_assert_eq!(p.write_quorum, cfg.write_quorum);
                    }
                    (got, want) => prop_assert!(false, "{id}: {got:?} vs {want:?}"),
                }
                for site in map.all_sites() {
                    prop_assert_eq!(
                        cat.holds(id, site),
                        expected.is_some_and(|c| c.contains_key(&site))
                    );
                }
            }
            let ws: Vec<ItemId> = picks
                .iter()
                .map(|&p| ItemId(shard.0 * cfg.items_per_shard + p % cfg.items_per_shard))
                .collect();
            let participants: BTreeSet<SiteId> = ws
                .iter()
                .flat_map(|id| model[id].keys().copied())
                .collect();
            prop_assert_eq!(cat.participants(ws), participants);
        }
    }

    #[test]
    fn sites_load_exactly_their_copies(cfg in arb_config(), snapshot in proptest::bool::ANY) {
        let map = ShardMap::new(&cfg);
        let model = reference(&cfg);
        for shard in (0..cfg.shards).map(ShardId) {
            for site in map.sites_of(shard) {
                let mut nc = NodeConfig::new(site, Arc::clone(map.catalog(shard)), Duration(10));
                nc.snapshot_reads = snapshot;
                let node = SiteNode::new(nc, |id| i64::from(id.0) * 3 + 1);
                for (&id, copies) in &model {
                    let expected = copies
                        .contains_key(&site)
                        .then(|| (Version::INITIAL, i64::from(id.0) * 3 + 1));
                    prop_assert_eq!(node.item_value(id), expected, "{} at {}", id, site);
                }
            }
        }
    }
}
