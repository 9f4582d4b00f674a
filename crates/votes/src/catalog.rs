//! The replicated-data catalog: every item's placement and quorums.

use crate::item::{ItemId, Placement, VoteError};
use crate::table::ItemTable;
use qbc_simnet::SiteId;
use std::collections::BTreeSet;

/// The full replication catalog of the database: the [`Placement`] of
/// every logical data item. Immutable once built; shared by every site.
///
/// Each distinct placement is stored and validated once; items point at
/// theirs through a flat, id-ordered index (an [`ItemTable`] of
/// placement numbers). An item therefore costs one index entry, and
/// building a catalog of contiguous ids allocates the same handful of
/// buffers whatever its size.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Catalog {
    placements: Vec<Placement>,
    /// Number of items using each placement.
    sizes: Vec<u32>,
    items: ItemTable<u32>,
}

impl Catalog {
    /// Builds a catalog from per-item placements, merging equal
    /// placements, validating each distinct one and rejecting duplicate
    /// item ids.
    pub fn new(items: impl IntoIterator<Item = (ItemId, Placement)>) -> Result<Self, VoteError> {
        let (ids, placements): (Vec<ItemId>, Vec<Placement>) = items.into_iter().unzip();
        Self::with_placements(&placements, ids.into_iter().zip(0..))
    }

    /// Builds a catalog from candidate placements plus an item →
    /// placement assignment (an index into `placements`), without a
    /// [`Placement`] per item. Equal placements are merged, each is
    /// validated once, placements no item uses are dropped, and
    /// duplicate item ids are rejected.
    ///
    /// # Panics
    /// Panics if an assignment names a placement out of range.
    pub fn with_placements(
        placements: &[Placement],
        assignment: impl IntoIterator<Item = (ItemId, usize)>,
    ) -> Result<Self, VoteError> {
        let assignment = assignment.into_iter();
        let mut remap: Vec<Option<u32>> = vec![None; placements.len()];
        let mut kept: Vec<Placement> = Vec::new();
        let mut items = Vec::with_capacity(assignment.size_hint().0);
        for (id, p) in assignment {
            let index = match remap[p] {
                Some(index) => index,
                None => {
                    let placement = &placements[p];
                    let index = match kept.iter().position(|k| k == placement) {
                        Some(i) => i as u32,
                        None => {
                            placement.validate(id)?;
                            kept.push(placement.clone());
                            kept.len() as u32 - 1
                        }
                    };
                    remap[p] = Some(index);
                    index
                }
            };
            items.push((id, index));
        }
        Self::assemble(kept, items)
    }

    fn assemble(
        placements: Vec<Placement>,
        mut items: Vec<(ItemId, u32)>,
    ) -> Result<Self, VoteError> {
        if !items.windows(2).all(|w| w[0].0 < w[1].0) {
            items.sort_by_key(|&(id, _)| id);
            if let Some(w) = items.windows(2).find(|w| w[0].0 == w[1].0) {
                return Err(VoteError::DuplicateItem(w[0].0));
            }
        }
        let mut sizes = vec![0; placements.len()];
        for &(_, p) in &items {
            sizes[p as usize] += 1;
        }
        Ok(Catalog {
            placements,
            sizes,
            items: ItemTable::from_sorted(items),
        })
    }

    /// Looks up an item's placement.
    pub fn item(&self, id: ItemId) -> Option<&Placement> {
        self.items.get(id).map(|&p| &self.placements[p as usize])
    }

    /// Looks up an item's placement, panicking on unknown id (for
    /// internal use where the id is known to exist).
    pub fn expect_item(&self, id: ItemId) -> &Placement {
        self.item(id).unwrap_or_else(|| panic!("unknown item {id}"))
    }

    /// True when `site` stores a copy of item `id`.
    pub fn holds(&self, id: ItemId, site: SiteId) -> bool {
        self.item(id).is_some_and(|p| p.holds(site))
    }

    /// The distinct placements, indexed by [`Catalog::placement_of`].
    pub fn placements(&self) -> &[Placement] {
        &self.placements
    }

    /// Number of items using placement `p` (an index into
    /// [`Catalog::placements`]).
    pub fn placement_len(&self, p: usize) -> usize {
        self.sizes[p] as usize
    }

    /// The index into [`Catalog::placements`] of an item's placement.
    pub fn placement_of(&self, id: ItemId) -> Option<usize> {
        self.items.get(id).map(|&p| p as usize)
    }

    /// Every item with its placement index, in id order.
    pub fn assignment(&self) -> impl ExactSizeIterator<Item = (ItemId, usize)> + '_ {
        self.items.iter().map(|(id, &p)| (id, p as usize))
    }

    /// Every item with its placement, in id order.
    pub fn items(&self) -> impl ExactSizeIterator<Item = (ItemId, &Placement)> + '_ {
        self.items
            .iter()
            .map(|(id, &p)| (id, &self.placements[p as usize]))
    }

    /// All item ids, in order.
    pub fn item_ids(&self) -> impl ExactSizeIterator<Item = ItemId> + '_ {
        self.items.ids()
    }

    /// The items `site` stores a copy of, in id order.
    pub fn items_at(&self, site: SiteId) -> impl Iterator<Item = ItemId> + '_ {
        let held: Vec<bool> = self.placements.iter().map(|p| p.holds(site)).collect();
        self.items
            .iter()
            .filter(move |&(_, &p)| held[p as usize])
            .map(|(id, _)| id)
    }

    /// How many items `site` stores a copy of.
    pub fn copies_at(&self, site: SiteId) -> usize {
        self.placements
            .iter()
            .zip(&self.sizes)
            .filter(|(p, _)| p.holds(site))
            .map(|(_, &n)| n as usize)
            .sum()
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when the catalog holds no items.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The participant set of a transaction: every site holding a copy of
    /// any item in its writeset. (The paper's commit protocol distributes
    /// update values "to all sites which contain data items to be
    /// updated".)
    pub fn participants(&self, writeset: impl IntoIterator<Item = ItemId>) -> BTreeSet<SiteId> {
        let mut out = BTreeSet::new();
        for id in writeset {
            if let Some(placement) = self.item(id) {
                out.extend(placement.sites());
            }
        }
        out
    }

    /// Every site that stores at least one copy of anything.
    pub fn all_sites(&self) -> BTreeSet<SiteId> {
        self.placements.iter().flat_map(|p| p.sites()).collect()
    }
}

/// Fluent builder for [`Catalog`].
///
/// ```
/// use qbc_votes::{CatalogBuilder, ItemId};
/// use qbc_simnet::SiteId;
///
/// let catalog = CatalogBuilder::new()
///     .item(ItemId(0))
///     .copy(SiteId(1), 1)
///     .copy(SiteId(2), 1)
///     .copy(SiteId(3), 1)
///     .quorums(2, 2)
///     .build()
///     .unwrap();
/// assert_eq!(catalog.len(), 1);
/// ```
#[derive(Debug, Default)]
pub struct CatalogBuilder {
    done: Vec<(ItemId, Placement)>,
    current: Option<(ItemId, Placement)>,
}

impl CatalogBuilder {
    /// Starts an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    fn flush(&mut self) {
        if let Some(item) = self.current.take() {
            self.done.push(item);
        }
    }

    fn current(&mut self, call: &str) -> &mut Placement {
        match self.current.as_mut() {
            Some((_, placement)) => placement,
            None => panic!("call .item() before .{call}()"),
        }
    }

    /// Starts a new item with the given id.
    pub fn item(mut self, id: ItemId) -> Self {
        self.flush();
        self.current = Some((id, Placement::new([], 1, 1)));
        self
    }

    /// Places a copy of the current item at `site` with `weight` votes.
    ///
    /// # Panics
    /// Panics if no item was started.
    pub fn copy(mut self, site: SiteId, weight: u32) -> Self {
        self.current("copy").copies.insert(site, weight);
        self
    }

    /// Places unit-weight copies of the current item at every given site.
    pub fn copies_at(mut self, sites: impl IntoIterator<Item = SiteId>) -> Self {
        let cur = self.current("copies_at");
        for s in sites {
            cur.copies.insert(s, 1);
        }
        self
    }

    /// Sets `r(x)` and `w(x)` of the current item.
    ///
    /// # Panics
    /// Panics if no item was started.
    pub fn quorums(mut self, read: u32, write: u32) -> Self {
        let cur = self.current("quorums");
        cur.read_quorum = read;
        cur.write_quorum = write;
        self
    }

    /// Uses majority quorums for the current item:
    /// `w = floor(v/2)+1`, `r = v - w + 1` (minimal read quorum).
    pub fn majority(mut self) -> Self {
        let cur = self.current("majority");
        let v = cur.total_votes();
        let w = v / 2 + 1;
        cur.read_quorum = v - w + 1;
        cur.write_quorum = w;
        self
    }

    /// Uses read-one/write-all quorums for the current item.
    pub fn read_one_write_all(mut self) -> Self {
        let cur = self.current("read_one_write_all");
        cur.read_quorum = 1;
        cur.write_quorum = cur.total_votes();
        self
    }

    /// Finishes, validating every distinct placement.
    pub fn build(mut self) -> Result<Catalog, VoteError> {
        self.flush();
        Catalog::new(self.done)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Example 1 configuration of the paper: items x and y, four
    /// unit-vote copies each, r = 2, w = 3.
    pub fn example1_catalog() -> Catalog {
        CatalogBuilder::new()
            .item(ItemId(0))
            .copies_at([SiteId(1), SiteId(2), SiteId(3), SiteId(4)])
            .quorums(2, 3)
            .item(ItemId(1))
            .copies_at([SiteId(5), SiteId(6), SiteId(7), SiteId(8)])
            .quorums(2, 3)
            .build()
            .expect("valid catalog")
    }

    #[test]
    fn example1_catalog_builds() {
        let c = example1_catalog();
        assert_eq!(c.len(), 2);
        let x = c.expect_item(ItemId(0));
        assert_eq!(x.total_votes(), 4);
        assert_eq!(x.read_quorum, 2);
        assert_eq!(x.write_quorum, 3);
    }

    #[test]
    fn participants_unions_copy_sites() {
        let c = example1_catalog();
        let p = c.participants([ItemId(0), ItemId(1)]);
        assert_eq!(p.len(), 8);
        let px = c.participants([ItemId(0)]);
        assert_eq!(
            px,
            [SiteId(1), SiteId(2), SiteId(3), SiteId(4)]
                .into_iter()
                .collect()
        );
    }

    #[test]
    fn duplicate_item_rejected() {
        let r = CatalogBuilder::new()
            .item(ItemId(0))
            .copy(SiteId(1), 1)
            .quorums(1, 1)
            .item(ItemId(0))
            .copy(SiteId(2), 1)
            .quorums(1, 1)
            .build();
        assert!(matches!(r, Err(VoteError::DuplicateItem(_))));
    }

    #[test]
    fn majority_quorums_satisfy_constraints() {
        let c = CatalogBuilder::new()
            .item(ItemId(0))
            .copies_at([SiteId(0), SiteId(1), SiteId(2), SiteId(3), SiteId(4)])
            .majority()
            .build()
            .unwrap();
        let m = c.expect_item(ItemId(0));
        assert_eq!(m.write_quorum, 3);
        assert_eq!(m.read_quorum, 3);
    }

    #[test]
    fn read_one_write_all_satisfies_constraints() {
        let c = CatalogBuilder::new()
            .item(ItemId(0))
            .copies_at([SiteId(0), SiteId(1), SiteId(2)])
            .read_one_write_all()
            .build()
            .unwrap();
        let m = c.expect_item(ItemId(0));
        assert_eq!(m.read_quorum, 1);
        assert_eq!(m.write_quorum, 3);
    }

    #[test]
    fn invalid_quorums_rejected_at_build() {
        let r = CatalogBuilder::new()
            .item(ItemId(0))
            .copies_at([SiteId(0), SiteId(1)])
            .quorums(1, 1)
            .build();
        assert!(r.is_err());
    }

    #[test]
    fn item_lookup_by_id() {
        let c = example1_catalog();
        assert!(c.holds(ItemId(1), SiteId(5)));
        assert!(!c.holds(ItemId(1), SiteId(1)));
        assert!(c.item(ItemId(5)).is_none());
        assert!(!c.holds(ItemId(5), SiteId(1)));
    }

    #[test]
    fn equal_placements_are_stored_once() {
        let c = CatalogBuilder::new()
            .item(ItemId(0))
            .copies_at([SiteId(1), SiteId(2), SiteId(3)])
            .majority()
            .item(ItemId(1))
            .copies_at([SiteId(1), SiteId(2), SiteId(3)])
            .majority()
            .item(ItemId(2))
            .copies_at([SiteId(2), SiteId(3), SiteId(4)])
            .majority()
            .build()
            .unwrap();
        assert_eq!(c.placements().len(), 2);
        assert_eq!(c.placement_of(ItemId(0)), c.placement_of(ItemId(1)));
        assert_ne!(c.placement_of(ItemId(0)), c.placement_of(ItemId(2)));
        assert_eq!(
            c.items_at(SiteId(1)).collect::<Vec<_>>(),
            vec![ItemId(0), ItemId(1)]
        );
        assert_eq!(c.copies_at(SiteId(1)), 2);
        assert_eq!(c.copies_at(SiteId(3)), 3);
        assert_eq!(c.placement_len(c.placement_of(ItemId(2)).unwrap()), 1);
        assert_eq!(c.all_sites().len(), 4);
    }

    #[test]
    fn with_placements_merges_equal_and_drops_unused() {
        let p = |sites: [u32; 2]| Placement::new(sites.map(|s| (SiteId(s), 1)), 1, 2);
        let candidates = [p([0, 1]), p([1, 2]), p([0, 1]), p([7, 8])];
        let c = Catalog::with_placements(&candidates, (0..6).map(|k| (ItemId(k), k as usize % 3)))
            .unwrap();
        assert_eq!(c.placements(), &candidates[..2]);
        assert_eq!(c.placement_of(ItemId(2)), Some(0));
        assert_eq!(c.all_sites(), (0..3).map(SiteId).collect());
        let dup = Catalog::with_placements(&candidates, [(ItemId(4), 0), (ItemId(4), 1)]);
        assert_eq!(dup, Err(VoteError::DuplicateItem(ItemId(4))));
        let bad =
            Catalog::with_placements(&[Placement::new([(SiteId(0), 1)], 1, 2)], [(ItemId(3), 0)]);
        assert!(matches!(
            bad,
            Err(VoteError::QuorumTooLarge {
                item: ItemId(3),
                ..
            })
        ));
    }
}
