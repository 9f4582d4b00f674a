//! The replicated-data catalog: every item's placement and quorums.

use crate::item::{ItemId, ItemSpec, VoteError};
use qbc_simnet::SiteId;
use std::collections::{BTreeMap, BTreeSet};

/// The full replication catalog of the database: one [`ItemSpec`] per
/// logical data item. Immutable once built; shared by every site.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Catalog {
    items: BTreeMap<ItemId, ItemSpec>,
}

impl Catalog {
    /// Builds a catalog from specs, validating each and rejecting
    /// duplicate item ids.
    pub fn new(specs: impl IntoIterator<Item = ItemSpec>) -> Result<Self, VoteError> {
        let mut items = BTreeMap::new();
        for spec in specs {
            spec.validate()?;
            let id = spec.id;
            if items.insert(id, spec).is_some() {
                return Err(VoteError::DuplicateItem(id));
            }
        }
        Ok(Catalog { items })
    }

    /// Looks up an item's spec.
    pub fn item(&self, id: ItemId) -> Option<&ItemSpec> {
        self.items.get(&id)
    }

    /// Looks up an item's spec, panicking on unknown id (for internal use
    /// where the id is known to exist).
    pub fn expect_item(&self, id: ItemId) -> &ItemSpec {
        self.items
            .get(&id)
            .unwrap_or_else(|| panic!("unknown item {id}"))
    }

    /// Looks an item up by name.
    pub fn item_by_name(&self, name: &str) -> Option<&ItemSpec> {
        self.items.values().find(|s| s.name == name)
    }

    /// Iterates over all items.
    pub fn items(&self) -> impl Iterator<Item = &ItemSpec> {
        self.items.values()
    }

    /// All item ids.
    pub fn item_ids(&self) -> impl Iterator<Item = ItemId> + '_ {
        self.items.keys().copied()
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
            if let Some(spec) = self.items.get(&id) {
                out.extend(spec.sites());
            }
        }
        out
    }

    /// Every site that stores at least one copy of anything.
    pub fn all_sites(&self) -> BTreeSet<SiteId> {
        let mut out = BTreeSet::new();
        for spec in self.items.values() {
            out.extend(spec.sites());
        }
        out
    }
}

/// Fluent builder for [`Catalog`].
///
/// ```
/// use qbc_votes::{CatalogBuilder, ItemId};
/// use qbc_simnet::SiteId;
///
/// let catalog = CatalogBuilder::new()
///     .item(ItemId(0), "x")
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
    done: Vec<ItemSpec>,
    current: Option<ItemSpec>,
}

impl CatalogBuilder {
    /// Starts an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    fn flush(&mut self) {
        if let Some(spec) = self.current.take() {
            self.done.push(spec);
        }
    }

    /// Starts a new item with the given id and name.
    pub fn item(mut self, id: ItemId, name: impl Into<String>) -> Self {
        self.flush();
        self.current = Some(ItemSpec {
            id,
            name: name.into(),
            copies: BTreeMap::new(),
            read_quorum: 1,
            write_quorum: 1,
        });
        self
    }

    /// Places a copy of the current item at `site` with `weight` votes.
    ///
    /// # Panics
    /// Panics if no item was started.
    pub fn copy(mut self, site: SiteId, weight: u32) -> Self {
        self.current
            .as_mut()
            .expect("call .item() before .copy()")
            .copies
            .insert(site, weight);
        self
    }

    /// Places unit-weight copies of the current item at every given site.
    pub fn copies_at(mut self, sites: impl IntoIterator<Item = SiteId>) -> Self {
        let cur = self
            .current
            .as_mut()
            .expect("call .item() before .copies_at()");
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
        let cur = self
            .current
            .as_mut()
            .expect("call .item() before .quorums()");
        cur.read_quorum = read;
        cur.write_quorum = write;
        self
    }

    /// Uses majority quorums for the current item:
    /// `w = floor(v/2)+1`, `r = v - w + 1` (minimal read quorum).
    pub fn majority(mut self) -> Self {
        let cur = self
            .current
            .as_mut()
            .expect("call .item() before .majority()");
        let v: u32 = cur.copies.values().sum();
        let w = v / 2 + 1;
        let r = v - w + 1;
        cur.read_quorum = r;
        cur.write_quorum = w;
        self
    }

    /// Uses read-one/write-all quorums for the current item.
    pub fn read_one_write_all(mut self) -> Self {
        let cur = self
            .current
            .as_mut()
            .expect("call .item() before .read_one_write_all()");
        let v: u32 = cur.copies.values().sum();
        cur.read_quorum = 1;
        cur.write_quorum = v;
        self
    }

    /// Finishes, validating every item.
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
            .item(ItemId(0), "x")
            .copies_at([SiteId(1), SiteId(2), SiteId(3), SiteId(4)])
            .quorums(2, 3)
            .item(ItemId(1), "y")
            .copies_at([SiteId(5), SiteId(6), SiteId(7), SiteId(8)])
            .quorums(2, 3)
            .build()
            .expect("valid catalog")
    }

    #[test]
    fn example1_catalog_builds() {
        let c = example1_catalog();
        assert_eq!(c.len(), 2);
        let x = c.item_by_name("x").unwrap();
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
            .item(ItemId(0), "x")
            .copy(SiteId(1), 1)
            .quorums(1, 1)
            .item(ItemId(0), "x2")
            .copy(SiteId(2), 1)
            .quorums(1, 1)
            .build();
        assert!(matches!(r, Err(VoteError::DuplicateItem(_))));
    }

    #[test]
    fn majority_quorums_satisfy_constraints() {
        let c = CatalogBuilder::new()
            .item(ItemId(0), "m")
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
            .item(ItemId(0), "rowa")
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
            .item(ItemId(0), "bad")
            .copies_at([SiteId(0), SiteId(1)])
            .quorums(1, 1)
            .build();
        assert!(r.is_err());
    }

    #[test]
    fn item_lookup_by_name_and_id() {
        let c = example1_catalog();
        assert_eq!(c.item_by_name("y").unwrap().id, ItemId(1));
        assert!(c.item(ItemId(5)).is_none());
        assert!(c.item_by_name("zz").is_none());
    }
}
