//! Per-site stable storage: WAL + item store + crash semantics.
//!
//! [`SiteStorage`] is the durable half of a database site. The volatile
//! half (protocol engines, lock tables, in-flight buffers) lives in the
//! node and is destroyed by `crash()`; everything in here survives.
//! The `incarnation` counter distinguishes pre- and post-crash lifetimes
//! of a site (useful for debugging and for ignoring stale state).
//!
//! The WAL half is generic over its [`WalBackend`]: the deterministic
//! in-memory [`Wal`] by default (the simulator's durability model), or
//! a disk-backed [`crate::FileWal`]/[`crate::EitherWal`] when forces
//! should hit a real device.

use crate::store::{StoreError, VersionedStore};
use crate::wal::{Lsn, Wal, WalBackend};
use qbc_votes::{ItemId, Version};
use std::marker::PhantomData;

/// Durable state of one database site, generic over the log backend
/// `W` (in-memory [`Wal`] unless chosen otherwise).
#[derive(Clone, Debug, Default)]
pub struct SiteStorage<R, V, W = Wal<R>> {
    wal: W,
    items: VersionedStore<V>,
    incarnation: u32,
    _record: PhantomData<fn() -> R>,
}

impl<R, V: Clone, W: WalBackend<R> + Default> SiteStorage<R, V, W> {
    /// Empty storage for a fresh site (backends with a default empty
    /// state; a [`crate::FileWal`] is opened first and passed to
    /// [`SiteStorage::with_wal`]).
    pub fn new() -> Self {
        Self::with_wal(W::default())
    }
}

impl<R, V: Clone, W: WalBackend<R>> SiteStorage<R, V, W> {
    /// Storage over an already-opened log backend. A reopened disk log
    /// arrives with its recovered records; the caller replays them.
    pub fn with_wal(wal: W) -> Self {
        SiteStorage {
            wal,
            items: VersionedStore::new(),
            incarnation: 0,
            _record: PhantomData,
        }
    }

    /// Force-appends a log record (durable on return).
    pub fn log(&mut self, record: R) -> Lsn {
        self.wal.append(record)
    }

    /// Stages a log record for the next [`SiteStorage::force_log`]
    /// (group commit). Volatile until forced: a crash discards it.
    pub fn log_buffered(&mut self, record: R) -> Lsn {
        self.wal.buffer(record)
    }

    /// Forces every staged log record durable in one flush. Returns the
    /// number of records flushed (zero: nothing pending, no force paid).
    pub fn force_log(&mut self) -> usize {
        self.wal.force()
    }

    /// Number of WAL forces paid so far.
    pub fn wal_forces(&self) -> u64 {
        self.wal.forces()
    }

    /// Read-only view of the log for recovery.
    pub fn wal(&self) -> &W {
        &self.wal
    }

    /// Discards durable log records below `cutoff` (after a checkpoint
    /// record has captured everything recovery needed from them). See
    /// [`WalBackend::truncate_before`].
    pub fn truncate_log_before(&mut self, cutoff: Lsn) {
        self.wal.truncate_before(cutoff);
    }

    /// Installs an initial copy of an item (database load time).
    pub fn initialize_item(&mut self, item: ItemId, value: V) {
        self.items.initialize(item, value);
    }

    /// Reserves room for `additional` more item copies.
    pub fn reserve_items(&mut self, additional: usize) {
        self.items.reserve(additional);
    }

    /// Applies a committed update durably.
    pub fn apply_update(
        &mut self,
        item: ItemId,
        version: Version,
        value: V,
    ) -> Result<(), StoreError> {
        self.items.apply(item, version, value)
    }

    /// Reads the newest local copy of an item.
    pub fn read_item(&self, item: ItemId) -> Option<(Version, &V)> {
        self.items.read(item)
    }

    /// Reads the newest local copy at or below `at` (snapshot read);
    /// falls back to the oldest retained version when all are newer.
    pub fn read_item_at(&self, item: ItemId, at: Version) -> Option<(Version, &V)> {
        self.items.read_at(item, at)
    }

    /// Version of the newest local copy of an item.
    pub fn item_version(&self, item: ItemId) -> Option<Version> {
        self.items.version(item)
    }

    /// Full retained version chain of an item, ascending.
    pub fn item_versions(&self, item: ItemId) -> Option<&[(Version, V)]> {
        self.items.versions(item)
    }

    /// Sets how many versions each item retains (≥ 1; default 1).
    pub fn set_version_retention(&mut self, retention: usize) {
        self.items.set_retention(retention);
    }

    /// Drops item versions a monotone watermark has made unreachable.
    pub fn gc_versions_below(&mut self, watermark: Version) {
        self.items.gc_below(watermark);
    }

    /// Installs a recovered version chain wholesale (checkpoint
    /// recovery); already-present versions are skipped.
    pub fn install_item_chain(&mut self, item: ItemId, chain: &[(Version, V)]) {
        self.items.install_chain(item, chain);
    }

    /// Every local copy with its retained version chain (ascending),
    /// in id order.
    pub fn item_chains(&self) -> impl Iterator<Item = (ItemId, &[(Version, V)])> + '_ {
        self.items.chains()
    }

    /// Marks a crash: durable state is retained, buffered (unforced) log
    /// records are lost, and the incarnation counter is bumped. The
    /// caller is responsible for discarding its volatile state (the
    /// simulator invokes `Process::on_crash`).
    pub fn crash(&mut self) {
        self.wal.lose_volatile();
        self.incarnation += 1;
    }

    /// How many times this site has crashed.
    pub fn incarnation(&self) -> u32 {
        self.incarnation
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug, PartialEq)]
    enum Rec {
        Voted(u32),
        Committed(u32),
    }

    #[test]
    fn log_survives_crash() {
        let mut st: SiteStorage<Rec, i64> = SiteStorage::new();
        st.log(Rec::Voted(1));
        st.log(Rec::Committed(1));
        st.crash();
        let recs: Vec<&Rec> = st.wal().replay().map(|(_, r)| r).collect();
        assert_eq!(recs, vec![&Rec::Voted(1), &Rec::Committed(1)]);
        assert_eq!(st.incarnation(), 1);
    }

    #[test]
    fn items_survive_crash() {
        let mut st: SiteStorage<Rec, i64> = SiteStorage::new();
        st.initialize_item(ItemId(1), 7);
        st.apply_update(ItemId(1), Version(1), 9).unwrap();
        st.crash();
        st.crash();
        assert_eq!(st.read_item(ItemId(1)), Some((Version(1), &9)));
        assert_eq!(st.incarnation(), 2);
    }

    #[test]
    fn item_listing() {
        let mut st: SiteStorage<Rec, i64> = SiteStorage::new();
        st.initialize_item(ItemId(3), 0);
        st.initialize_item(ItemId(1), 0);
        let items: Vec<ItemId> = st.item_chains().map(|(i, _)| i).collect();
        assert_eq!(items, vec![ItemId(1), ItemId(3)]);
    }

    #[test]
    fn truncation_is_reachable_through_site_storage() {
        let mut st: SiteStorage<u32, i64> = SiteStorage::new();
        for r in 0..4 {
            st.log(r);
        }
        st.truncate_log_before(Lsn(2));
        let recs: Vec<u32> = st.wal().replay().map(|(_, r)| *r).collect();
        assert_eq!(recs, vec![2, 3]);
        assert_eq!(st.wal().start_lsn(), Lsn(2));
    }
}
