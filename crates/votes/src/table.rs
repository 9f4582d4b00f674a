//! A flat, id-ordered item map.

use crate::item::ItemId;

/// A map from [`ItemId`] to `T` stored as one vector sorted by id.
///
/// A lookup first probes the slot at `id - first_id`, which is the
/// right one whenever the stored ids are contiguous (a shard's catalog,
/// a fully replicated site's copies), and falls back to a binary search
/// otherwise. Iteration is in id order with nothing to sort, and the
/// whole map is a single allocation: no per-item heap node. Inserting
/// above the largest id appends; inserting below it shifts the tail,
/// which only loads out of id order pay.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ItemTable<T> {
    entries: Vec<(ItemId, T)>,
}

impl<T> Default for ItemTable<T> {
    fn default() -> Self {
        ItemTable {
            entries: Vec::new(),
        }
    }
}

impl<T> ItemTable<T> {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reserves room for `additional` more entries.
    pub fn reserve(&mut self, additional: usize) {
        self.entries.reserve(additional);
    }

    fn position(&self, id: ItemId) -> Result<usize, usize> {
        let Some(&(first, _)) = self.entries.first() else {
            return Err(0);
        };
        let guess = id.0.wrapping_sub(first.0) as usize;
        match self.entries.get(guess) {
            Some(&(at, _)) if at == id => Ok(guess),
            _ => self.entries.binary_search_by_key(&id, |&(at, _)| at),
        }
    }

    /// The value stored for `id`.
    pub fn get(&self, id: ItemId) -> Option<&T> {
        self.position(id).ok().map(|i| &self.entries[i].1)
    }

    /// The value stored for `id`, mutably.
    pub fn get_mut(&mut self, id: ItemId) -> Option<&mut T> {
        self.position(id).ok().map(|i| &mut self.entries[i].1)
    }

    /// Stores `value` for `id`, returning the value it replaces.
    pub fn insert(&mut self, id: ItemId, value: T) -> Option<T> {
        if self.entries.last().is_none_or(|&(last, _)| last < id) {
            self.entries.push((id, value));
            return None;
        }
        match self.position(id) {
            Ok(i) => Some(std::mem::replace(&mut self.entries[i].1, value)),
            Err(i) => {
                self.entries.insert(i, (id, value));
                None
            }
        }
    }

    /// Entries in id order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (ItemId, &T)> + '_ {
        self.entries.iter().map(|(id, v)| (*id, v))
    }

    /// Values in id order, mutably.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut T> + '_ {
        self.entries.iter_mut().map(|(_, v)| v)
    }

    /// Ids in order.
    pub fn ids(&self) -> impl ExactSizeIterator<Item = ItemId> + '_ {
        self.entries.iter().map(|&(id, _)| id)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl<T> ItemTable<T> {
    /// Adopts entries already sorted by strictly increasing id.
    pub(crate) fn from_sorted(entries: Vec<(ItemId, T)>) -> Self {
        debug_assert!(entries.windows(2).all(|w| w[0].0 < w[1].0));
        ItemTable { entries }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(ids: &[u32]) -> ItemTable<u32> {
        let mut t = ItemTable::new();
        for &i in ids {
            t.insert(ItemId(i), i * 2);
        }
        t
    }

    #[test]
    fn contiguous_and_sparse_lookups_agree() {
        let dense = table(&(10..20).collect::<Vec<_>>());
        assert_eq!(dense.get(ItemId(15)), Some(&30));
        assert_eq!(dense.get(ItemId(9)), None);
        assert_eq!(dense.get(ItemId(20)), None);
        let sparse = table(&[7, 3, 40]);
        assert_eq!(sparse.get(ItemId(3)), Some(&6));
        assert_eq!(sparse.get(ItemId(40)), Some(&80));
        assert_eq!(sparse.get(ItemId(8)), None);
        assert_eq!(
            sparse.ids().collect::<Vec<_>>(),
            vec![ItemId(3), ItemId(7), ItemId(40)]
        );
    }

    #[test]
    fn insert_keeps_id_order_and_replaces() {
        let mut t = ItemTable::new();
        assert_eq!(t.insert(ItemId(5), 'a'), None);
        assert_eq!(t.insert(ItemId(1), 'b'), None);
        assert_eq!(t.insert(ItemId(9), 'c'), None);
        assert_eq!(t.insert(ItemId(5), 'd'), Some('a'));
        let all: Vec<(ItemId, char)> = t.iter().map(|(i, c)| (i, *c)).collect();
        assert_eq!(
            all,
            vec![(ItemId(1), 'b'), (ItemId(5), 'd'), (ItemId(9), 'c')]
        );
    }
}
