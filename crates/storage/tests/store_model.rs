//! The flat [`VersionedStore`] behaves exactly like a per-item
//! `BTreeMap` of version chains under random sequences of loads,
//! writes, snapshot reads, recovered-chain installs, watermark GC and
//! retention changes.

use proptest::prelude::*;
use qbc_storage::{StoreError, VersionedStore};
use qbc_votes::{ItemId, Version};
use std::collections::BTreeMap;

/// The reference: one ascending chain per item, trimmed by the same
/// rules the store documents.
struct Model {
    chains: BTreeMap<ItemId, Vec<(Version, i64)>>,
    retention: usize,
}

impl Model {
    fn apply(&mut self, item: ItemId, version: Version, value: i64) -> Result<(), StoreError> {
        let chain = self.chains.entry(item).or_default();
        if let Some(&(stored, _)) = chain.last() {
            if stored >= version {
                return Err(StoreError::VersionRegression {
                    item,
                    stored,
                    offered: version,
                });
            }
        }
        chain.push((version, value));
        if chain.len() > self.retention {
            let excess = chain.len() - self.retention;
            chain.drain(..excess);
        }
        Ok(())
    }

    fn read_at(&self, item: ItemId, at: Version) -> Option<(Version, i64)> {
        let chain = self.chains.get(&item)?;
        chain
            .iter()
            .rev()
            .find(|(v, _)| *v <= at)
            .or_else(|| chain.first())
            .copied()
    }

    fn gc_below(&mut self, watermark: Version) {
        for chain in self.chains.values_mut() {
            if let Some(keep_from) = chain.iter().rposition(|(v, _)| *v <= watermark) {
                chain.drain(..keep_from);
            }
        }
    }
}

#[derive(Clone, Debug)]
enum Op {
    Initialize(ItemId, i64),
    Apply(ItemId, Version, i64),
    ReadAt(ItemId, Version),
    Install(ItemId, Vec<(Version, i64)>),
    Gc(Version),
    SetRetention(usize),
}

/// Mostly a small dense id range, sometimes far-off ids that land out
/// of order and break contiguity.
fn arb_item() -> impl Strategy<Value = ItemId> {
    prop_oneof![
        6 => (0u32..12).prop_map(ItemId),
        1 => (1_000u32..1_004).prop_map(ItemId),
    ]
}

fn arb_op(retentions: std::ops::RangeInclusive<usize>) -> impl Strategy<Value = Op> {
    prop_oneof![
        2 => (arb_item(), 0i64..100).prop_map(|(i, v)| Op::Initialize(i, v)),
        8 => (arb_item(), 0u64..40, 0i64..100).prop_map(|(i, v, x)| Op::Apply(i, Version(v), x)),
        4 => (arb_item(), 0u64..45).prop_map(|(i, v)| Op::ReadAt(i, Version(v))),
        2 => (arb_item(), proptest::collection::vec((0u64..40, 0i64..100), 0..5)).prop_map(
            |(i, mut chain)| {
                chain.sort_by_key(|&(v, _)| v);
                chain.dedup_by_key(|&mut (v, _)| v);
                Op::Install(i, chain.into_iter().map(|(v, x)| (Version(v), x)).collect())
            }
        ),
        2 => (0u64..40).prop_map(|v| Op::Gc(Version(v))),
        1 => retentions.prop_map(Op::SetRetention),
    ]
}

fn run(retention: usize, ops: Vec<Op>) -> Result<(), TestCaseError> {
    let mut store: VersionedStore<i64> = VersionedStore::with_retention(retention);
    let mut model = Model {
        chains: BTreeMap::new(),
        retention,
    };
    for op in ops {
        match op.clone() {
            Op::Initialize(item, value) => {
                store.initialize(item, value);
                model.chains.insert(item, vec![(Version::INITIAL, value)]);
            }
            Op::Apply(item, version, value) => {
                prop_assert_eq!(
                    store.apply(item, version, value),
                    model.apply(item, version, value),
                    "{:?}",
                    op
                );
            }
            Op::ReadAt(item, at) => {
                prop_assert_eq!(
                    store.read_at(item, at).map(|(v, x)| (v, *x)),
                    model.read_at(item, at)
                );
            }
            Op::Install(item, chain) => {
                store.install_chain(item, &chain);
                for (v, x) in chain {
                    let _ = model.apply(item, v, x);
                }
            }
            Op::Gc(watermark) => {
                store.gc_below(watermark);
                model.gc_below(watermark);
            }
            Op::SetRetention(r) => {
                store.set_retention(r);
                model.retention = r;
            }
        }
        // The whole observable state after every step.
        prop_assert_eq!(store.len(), model.chains.len());
        prop_assert_eq!(
            store.items().collect::<Vec<_>>(),
            model.chains.keys().copied().collect::<Vec<_>>()
        );
        for (&item, chain) in &model.chains {
            prop_assert_eq!(store.versions(item), Some(chain.as_slice()), "{:?}", item);
            let newest = chain.last().copied();
            prop_assert_eq!(store.read(item).map(|(v, x)| (v, *x)), newest);
            prop_assert_eq!(store.version(item), newest.map(|(v, _)| v));
        }
        prop_assert_eq!(store.read(ItemId(500)), None);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// Retention 1: the classic single-slot store.
    #[test]
    fn single_version_store_matches_model(
        ops in proptest::collection::vec(arb_op(1..=1), 1..80),
    ) {
        run(1, ops)?;
    }

    /// Retention > 1, including lazy trimming after retention changes.
    #[test]
    fn multi_version_store_matches_model(
        retention in 2usize..5,
        ops in proptest::collection::vec(arb_op(1..=5), 1..80),
    ) {
        run(retention, ops)?;
    }
}
