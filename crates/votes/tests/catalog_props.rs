//! The placement-interned catalog answers every query exactly as a
//! per-item reference model does: one `BTreeMap` entry per item, each
//! with its own copy of its copies and quorums.

use proptest::prelude::*;
use qbc_simnet::SiteId;
use qbc_votes::{Catalog, CatalogBuilder, ItemId, Placement, VoteError};
use std::collections::{BTreeMap, BTreeSet};

/// Sites the generated placements draw from.
const SITES: u32 = 10;

/// One placement of the reference model: copies → weight, r, w.
type RefPlacement = (BTreeMap<SiteId, u32>, u32, u32);

/// A valid placement: `weights.len()` copies on consecutive sites from
/// `offset`, with majority, read-one/write-all or read-all quorums.
fn placement((weights, style, offset): (Vec<u32>, u32, u32)) -> RefPlacement {
    let copies: BTreeMap<SiteId, u32> = weights
        .iter()
        .enumerate()
        .map(|(i, &w)| (SiteId((offset + i as u32) % SITES), w))
        .collect();
    let v: u32 = copies.values().sum();
    let (r, w) = match style {
        0 => (v - (v / 2 + 1) + 1, v / 2 + 1),
        1 => (1, v),
        _ => (v, v),
    };
    (copies, r, w)
}

fn arb_placements() -> impl Strategy<Value = Vec<RefPlacement>> {
    proptest::collection::vec(
        (
            proptest::collection::vec(1u32..=3, 1..=6),
            0u32..3,
            0u32..SITES,
        )
            .prop_map(placement),
        1..=5,
    )
}

/// Item ids with a placement choice each: contiguous from a base, or
/// scattered (possibly repeating, which the catalog must reject).
fn arb_items() -> impl Strategy<Value = Vec<(ItemId, usize)>> {
    (
        proptest::bool::ANY,
        0u32..1_000,
        proptest::collection::vec((0u32..300, 0usize..5), 0..=60),
    )
        .prop_map(|(contiguous, base, picks)| {
            picks
                .into_iter()
                .enumerate()
                .map(|(k, (scatter, p))| {
                    let id = if contiguous { base + k as u32 } else { scatter };
                    (ItemId(id), p)
                })
                .collect()
        })
}

fn arb_site_sets() -> impl Strategy<Value = Vec<BTreeSet<SiteId>>> {
    proptest::collection::vec(
        proptest::collection::vec(proptest::bool::ANY, SITES as usize).prop_map(|bits| {
            bits.iter()
                .enumerate()
                .filter(|(_, &b)| b)
                .map(|(s, _)| SiteId(s as u32))
                .collect()
        }),
        1..=4,
    )
}

fn to_placement((copies, r, w): &RefPlacement) -> Placement {
    Placement::new(copies.iter().map(|(&s, &v)| (s, v)), *r, *w)
}

/// Checks every query of `cat` against the per-item model `model`.
fn check(
    cat: &Catalog,
    model: &BTreeMap<ItemId, RefPlacement>,
    sets: &[BTreeSet<SiteId>],
) -> Result<(), TestCaseError> {
    prop_assert_eq!(cat.len(), model.len());
    prop_assert_eq!(cat.is_empty(), model.is_empty());
    prop_assert_eq!(
        cat.item_ids().collect::<Vec<_>>(),
        model.keys().copied().collect::<Vec<_>>()
    );
    let distinct: BTreeSet<&RefPlacement> = model.values().collect();
    prop_assert_eq!(cat.placements().len(), distinct.len());
    let probe_max = model.keys().next_back().map_or(10, |id| id.0 + 10);
    for id in (0..=probe_max).map(ItemId) {
        let got = cat.item(id);
        match model.get(&id) {
            None => {
                prop_assert!(got.is_none(), "{id} unexpectedly present");
                prop_assert!(cat.placement_of(id).is_none());
            }
            Some(expected) => {
                let got = got.expect("item present");
                let (copies, r, w) = expected;
                prop_assert_eq!(&got.copies, copies);
                prop_assert_eq!((got.read_quorum, got.write_quorum), (*r, *w));
                prop_assert_eq!(got.total_votes(), copies.values().sum::<u32>());
                prop_assert_eq!(
                    cat.placements()[cat.placement_of(id).expect("present")].clone(),
                    got.clone()
                );
                for set in sets {
                    let votes: u32 = set.iter().filter_map(|s| copies.get(s)).sum();
                    prop_assert_eq!(got.votes_among(set), votes);
                    prop_assert_eq!(got.read_quorum_among(set), votes >= *r);
                    prop_assert_eq!(got.write_quorum_among(set), votes >= *w);
                }
            }
        }
        for s in (0..SITES).map(SiteId) {
            let holds = model.get(&id).is_some_and(|(c, _, _)| c.contains_key(&s));
            prop_assert_eq!(cat.holds(id, s), holds);
            prop_assert_eq!(cat.item(id).map_or(0, |p| p.weight_at(s)), {
                model
                    .get(&id)
                    .and_then(|(c, _, _)| c.get(&s).copied())
                    .unwrap_or(0)
            });
        }
    }
    for s in (0..SITES).map(SiteId) {
        let local: Vec<ItemId> = model
            .iter()
            .filter(|(_, (c, _, _))| c.contains_key(&s))
            .map(|(&id, _)| id)
            .collect();
        prop_assert_eq!(cat.items_at(s).collect::<Vec<_>>(), local.clone());
        prop_assert_eq!(cat.copies_at(s), local.len());
    }
    let all: BTreeSet<SiteId> = model
        .values()
        .flat_map(|(c, _, _)| c.keys().copied())
        .collect();
    prop_assert_eq!(cat.all_sites(), all);
    // Participants of every prefix of the item list, plus unknown ids.
    let ids: Vec<ItemId> = model.keys().copied().collect();
    for n in [0, 1, ids.len() / 2, ids.len()] {
        let ws: Vec<ItemId> = ids[..n.min(ids.len())]
            .iter()
            .copied()
            .chain([ItemId(probe_max + 1)])
            .collect();
        let expected: BTreeSet<SiteId> = ws
            .iter()
            .filter_map(|id| model.get(id))
            .flat_map(|(c, _, _)| c.keys().copied())
            .collect();
        prop_assert_eq!(cat.participants(ws), expected);
    }
    Ok(())
}

proptest! {
    /// Hand-built catalogs with mixed placements, through both the
    /// per-item builder and the placement-indexed constructor.
    #[test]
    fn interned_catalog_matches_per_item_model(
        placements in arb_placements(),
        items in arb_items(),
        sets in arb_site_sets(),
    ) {
        let items: Vec<(ItemId, usize)> =
            items.into_iter().map(|(id, p)| (id, p % placements.len())).collect();
        let ids: BTreeSet<ItemId> = items.iter().map(|&(id, _)| id).collect();
        let duplicate = ids.len() < items.len();

        let mut b = CatalogBuilder::new();
        for &(id, p) in &items {
            let (copies, r, w) = &placements[p];
            b = b.item(id);
            for (&s, &v) in copies {
                b = b.copy(s, v);
            }
            b = b.quorums(*r, *w);
        }
        let built = b.build();
        let candidates: Vec<Placement> = placements.iter().map(to_placement).collect();
        let indexed = Catalog::with_placements(&candidates, items.iter().copied());
        if duplicate {
            prop_assert!(matches!(built, Err(VoteError::DuplicateItem(_))));
            prop_assert!(matches!(indexed, Err(VoteError::DuplicateItem(_))));
            return Ok(());
        }
        let model: BTreeMap<ItemId, RefPlacement> =
            items.iter().map(|&(id, p)| (id, placements[p].clone())).collect();
        let built = built.expect("valid placements");
        let indexed = indexed.expect("valid placements");
        check(&built, &model, &sets)?;
        check(&indexed, &model, &sets)?;
        prop_assert_eq!(
            built.items().collect::<Vec<_>>(),
            indexed.items().collect::<Vec<_>>()
        );
    }

    /// An invalid placement is rejected whichever item first uses it.
    #[test]
    fn invalid_placements_are_rejected(
        weights in proptest::collection::vec(1u32..=3, 1..=5),
        n_items in 1u32..20,
    ) {
        let v: u32 = weights.iter().sum();
        // w ≤ v/2 breaks Gifford's write-majority rule.
        let bad = Placement::new(
            weights.iter().enumerate().map(|(i, &w)| (SiteId(i as u32), w)),
            v,
            v / 2,
        );
        let r = Catalog::with_placements(&[bad], (0..n_items).map(|k| (ItemId(k), 0)));
        prop_assert!(r.is_err());
    }
}
