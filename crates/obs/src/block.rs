//! Blocking-window and pin-time accounting — the paper's headline
//! quantities.
//!
//! *Pin time* is the virtual-time span one item copy is X-locked by an
//! undecided transaction (vote cast → decision applied at that site).
//! *Read unavailability* is the span during which the live, unpinned
//! copies of an item muster fewer than `r(x)` votes, so a Gifford
//! quorum read would return `Unavailable`. A *blocked window* is the
//! per-site span between the termination protocol declaring a
//! transaction blocked and the decision finally arriving — the
//! operator-facing cost of the blocking effect under coordinator
//! failure.

use crate::hist::LatencyHistogram;
use qbc_core::TxnId;
use qbc_simnet::{SiteId, Time};
use qbc_votes::{Catalog, ItemId, Placement};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// One closed (or still-open) span of read unavailability.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Window {
    /// When the item's available votes dropped below `r(x)`.
    pub from: Time,
    /// When a read quorum became available again (`None` while open).
    pub until: Option<Time>,
}

impl Window {
    /// Length of the window, measured to `now` while still open.
    pub fn length(&self, now: Time) -> qbc_simnet::Duration {
        self.until.unwrap_or(now).since(self.from)
    }
}

/// Per-item availability report.
#[derive(Clone, Debug)]
pub struct ItemAvailability {
    /// The item.
    pub item: ItemId,
    /// Every unavailability window observed, in time order.
    pub windows: Vec<Window>,
}

impl ItemAvailability {
    /// Total unavailable virtual time up to `now`.
    pub fn unavailable(&self, now: Time) -> qbc_simnet::Duration {
        qbc_simnet::Duration(self.windows.iter().map(|w| w.length(now).0).sum())
    }
}

/// Read availability of an item: the open window, if any, and the
/// closed ones.
#[derive(Clone, Debug, Default)]
struct Avail {
    open: Option<Time>,
    windows: Vec<Window>,
}

impl Avail {
    fn reevaluate(&mut self, now: Time, ok: bool) {
        match (ok, self.open) {
            (false, None) => self.open = Some(now),
            (true, Some(from)) => {
                self.windows.push(Window {
                    from,
                    until: Some(now),
                });
                self.open = None;
            }
            _ => {}
        }
    }

    fn count(&self) -> u64 {
        self.windows.len() as u64 + u64::from(self.open.is_some())
    }

    fn total(&self, now: Time) -> u64 {
        self.windows.iter().map(|w| w.length(now).0).sum::<u64>()
            + self.open.map_or(0, |from| now.since(from).0)
    }

    fn report(&self, item: ItemId) -> ItemAvailability {
        let mut windows = self.windows.clone();
        if let Some(from) = self.open {
            windows.push(Window { from, until: None });
        }
        ItemAvailability { item, windows }
    }
}

/// True when the live, unpinned copies of a placement muster `r(x)`.
fn readable(
    p: &Placement,
    down: &BTreeSet<SiteId>,
    pinned: &BTreeMap<SiteId, (TxnId, Time)>,
) -> bool {
    let votes: u32 = p
        .copies
        .iter()
        .filter(|(s, _)| !down.contains(s) && !pinned.contains_key(s))
        .map(|(_, w)| w)
        .sum();
    votes >= p.read_quorum
}

/// An item pinned at least once: from then on it is tracked on its own.
#[derive(Clone, Debug)]
struct ItemState {
    /// Registered catalog and placement index of the item.
    catalog: usize,
    placement: usize,
    /// Live pins: which transaction holds the copy at each site, and
    /// since when.
    pinned: BTreeMap<SiteId, (TxnId, Time)>,
    avail: Avail,
}

/// A registered catalog. Until an item is first pinned, its
/// availability depends only on its placement and the down set, so
/// every never-pinned item of a placement shares one [`Avail`].
#[derive(Debug)]
struct Registered {
    catalog: Arc<Catalog>,
    /// Per placement: the availability of its never-pinned items.
    shared: Vec<Avail>,
    /// Per placement: how many of its items are tracked on their own.
    split: Vec<u64>,
}

impl Registered {
    /// Per placement: how many items still follow the shared state.
    fn unsplit(&self, p: usize) -> u64 {
        self.catalog.placement_len(p) as u64 - self.split[p]
    }
}

/// Tracks copy pins, site liveness, and the derived per-item
/// unavailability windows and per-transaction blocked windows.
#[derive(Debug, Default)]
pub(crate) struct BlockingTracker {
    catalogs: Vec<Registered>,
    items: BTreeMap<ItemId, ItemState>,
    down: BTreeSet<SiteId>,
    /// When each (site, txn) was first declared blocked.
    blocked_since: BTreeMap<(SiteId, TxnId), Time>,
    pub(crate) pin_time: LatencyHistogram,
    pub(crate) blocked_window: LatencyHistogram,
}

impl BlockingTracker {
    /// Registers a catalog's placements and item → placement map.
    /// Registered catalogs must cover disjoint items (a cluster's
    /// shards do).
    pub(crate) fn register_catalog(&mut self, catalog: Arc<Catalog>) {
        let n = catalog.placements().len();
        self.catalogs.push(Registered {
            catalog,
            shared: vec![Avail::default(); n],
            split: vec![0; n],
        });
    }

    fn reevaluate(&mut self, now: Time) {
        let down = &self.down;
        for reg in &mut self.catalogs {
            for (p, avail) in reg.catalog.placements().iter().zip(&mut reg.shared) {
                avail.reevaluate(now, readable(p, down, &BTreeMap::new()));
            }
        }
        for st in self.items.values_mut() {
            let p = &self.catalogs[st.catalog].catalog.placements()[st.placement];
            st.avail.reevaluate(now, readable(p, down, &st.pinned));
        }
    }

    pub(crate) fn pin_start(&mut self, now: Time, site: SiteId, txn: TxnId, item: ItemId) {
        let st = match self.items.entry(item) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => {
                let Some((c, p)) = self
                    .catalogs
                    .iter()
                    .enumerate()
                    .find_map(|(c, reg)| reg.catalog.placement_of(item).map(|p| (c, p)))
                else {
                    return;
                };
                let reg = &mut self.catalogs[c];
                reg.split[p] += 1;
                e.insert(ItemState {
                    catalog: c,
                    placement: p,
                    pinned: BTreeMap::new(),
                    avail: reg.shared[p].clone(),
                })
            }
        };
        st.pinned.insert(site, (txn, now));
        let p = &self.catalogs[st.catalog].catalog.placements()[st.placement];
        st.avail
            .reevaluate(now, readable(p, &self.down, &st.pinned));
    }

    pub(crate) fn pin_end(&mut self, now: Time, site: SiteId, item: ItemId) {
        if let Some(st) = self.items.get_mut(&item) {
            if let Some((_, since)) = st.pinned.remove(&site) {
                self.pin_time.record(now.since(since));
                let p = &self.catalogs[st.catalog].catalog.placements()[st.placement];
                st.avail
                    .reevaluate(now, readable(p, &self.down, &st.pinned));
            }
        }
    }

    pub(crate) fn crash(&mut self, now: Time, site: SiteId) {
        self.down.insert(site);
        // A crash wipes the site's lock table: its pins evaporate
        // (without contributing pin-time — the copy is simply gone
        // until recovery re-pins it from the WAL).
        for st in self.items.values_mut() {
            st.pinned.remove(&site);
        }
        self.reevaluate(now);
        // Volatile blocked state is also gone.
        self.blocked_since.retain(|(s, _), _| *s != site);
    }

    pub(crate) fn recover(&mut self, now: Time, site: SiteId) {
        self.down.remove(&site);
        self.reevaluate(now);
    }

    pub(crate) fn blocked(&mut self, now: Time, site: SiteId, txn: TxnId) {
        self.blocked_since.entry((site, txn)).or_insert(now);
    }

    pub(crate) fn decided(&mut self, now: Time, site: SiteId, txn: TxnId) {
        if let Some(since) = self.blocked_since.remove(&(site, txn)) {
            self.blocked_window.record(now.since(since));
        }
    }

    /// Sums `f` over every item: once per item tracked on its own, once
    /// per placement for all its never-pinned items.
    fn sum_over_items(&self, f: impl Fn(&Avail) -> u64) -> u64 {
        let own: u64 = self.items.values().map(|st| f(&st.avail)).sum();
        let shared: u64 = self
            .catalogs
            .iter()
            .flat_map(|reg| {
                reg.shared
                    .iter()
                    .enumerate()
                    .map(|(p, avail)| f(avail) * reg.unsplit(p))
            })
            .sum();
        own + shared
    }

    /// Count of *closed* unavailability windows plus currently open ones.
    pub(crate) fn window_count(&self) -> u64 {
        self.sum_over_items(Avail::count)
    }

    /// Total unavailable ticks across items, open windows measured to
    /// `now`.
    pub(crate) fn unavailable_total(&self, now: Time) -> u64 {
        self.sum_over_items(|a| a.total(now))
    }

    /// Per-item report in item order (open windows included with
    /// `until: None`).
    pub(crate) fn report(&self) -> Vec<ItemAvailability> {
        let mut out: Vec<ItemAvailability> = self
            .catalogs
            .iter()
            .flat_map(|reg| {
                reg.catalog
                    .assignment()
                    .map(|(item, p)| match self.items.get(&item) {
                        Some(st) => st.avail.report(item),
                        None => reg.shared[p].report(item),
                    })
            })
            .collect();
        out.sort_by_key(|a| a.item);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qbc_votes::CatalogBuilder;

    fn tracker() -> BlockingTracker {
        let mut t = BlockingTracker::default();
        // Item 0: three single-vote copies, r = 2.
        let catalog = CatalogBuilder::new()
            .item(ItemId(0))
            .copies_at([SiteId(0), SiteId(1), SiteId(2)])
            .quorums(2, 2)
            .build()
            .unwrap();
        t.register_catalog(Arc::new(catalog));
        t
    }

    #[test]
    fn window_opens_when_pins_break_the_read_quorum() {
        let mut t = tracker();
        t.pin_start(Time(10), SiteId(0), TxnId(1), ItemId(0));
        assert_eq!(t.unavailable_total(Time(20)), 0); // 2 of 3 free: r met
        t.pin_start(Time(20), SiteId(1), TxnId(1), ItemId(0));
        assert_eq!(t.window_count(), 1); // 1 of 3 free: r broken
        t.pin_end(Time(50), SiteId(1), ItemId(0));
        t.pin_end(Time(55), SiteId(0), ItemId(0));
        assert_eq!(t.unavailable_total(Time(100)), 30); // [20, 50)
        assert_eq!(t.window_count(), 1);
        let rep = t.report();
        assert_eq!(
            rep[0].windows,
            vec![Window {
                from: Time(20),
                until: Some(Time(50))
            }]
        );
    }

    #[test]
    fn crash_counts_as_unavailable_copy_and_drops_pins() {
        let mut t = tracker();
        t.pin_start(Time(5), SiteId(1), TxnId(1), ItemId(0));
        t.crash(Time(10), SiteId(0)); // down copy + pinned copy: 1 vote left
        assert_eq!(t.window_count(), 1);
        t.recover(Time(40), SiteId(0));
        // Site 1 still pinned: 2 of 3 available, quorum restored.
        assert_eq!(t.unavailable_total(Time(40)), 30);
        // The crashed site's own pin would have been dropped silently.
        assert_eq!(t.pin_time.count(), 0);
        t.pin_end(Time(41), SiteId(1), ItemId(0));
        assert_eq!(t.pin_time.count(), 1);
    }

    #[test]
    fn blocked_windows_measure_declare_to_decide() {
        let mut t = tracker();
        t.blocked(Time(100), SiteId(1), TxnId(7));
        t.blocked(Time(120), SiteId(1), TxnId(7)); // re-declare keeps the first
        t.decided(Time(400), SiteId(1), TxnId(7));
        assert_eq!(t.blocked_window.count(), 1);
        assert_eq!(t.blocked_window.max(), qbc_simnet::Duration(300));
        // A decision without a prior blocked declaration records nothing.
        t.decided(Time(500), SiteId(2), TxnId(8));
        assert_eq!(t.blocked_window.count(), 1);
    }

    #[test]
    fn crashes_open_windows_for_never_pinned_items_too() {
        // Items 0..3 share one placement (r = 2 of 3); item 3 has its
        // own, on sites 3..5, which never go down.
        let catalog = CatalogBuilder::new()
            .item(ItemId(0))
            .copies_at([SiteId(0), SiteId(1), SiteId(2)])
            .quorums(2, 2)
            .item(ItemId(1))
            .copies_at([SiteId(0), SiteId(1), SiteId(2)])
            .quorums(2, 2)
            .item(ItemId(2))
            .copies_at([SiteId(0), SiteId(1), SiteId(2)])
            .quorums(2, 2)
            .item(ItemId(3))
            .copies_at([SiteId(3), SiteId(4), SiteId(5)])
            .quorums(2, 2)
            .build()
            .unwrap();
        let mut t = BlockingTracker::default();
        t.register_catalog(Arc::new(catalog));
        // Item 1 is pinned at site 2 before the crashes: tracked on its
        // own from then on.
        t.pin_start(Time(5), SiteId(2), TxnId(1), ItemId(1));
        t.crash(Time(10), SiteId(0)); // items 0 and 2: 2 of 3 left
        assert_eq!(t.window_count(), 1); // item 1: site 0 down + pin
        t.crash(Time(20), SiteId(1)); // items 0 and 2 drop below r
        assert_eq!(t.window_count(), 3);
        t.recover(Time(50), SiteId(1));
        t.recover(Time(60), SiteId(0));
        // Items 0 and 2: [20, 50); item 1: [10, 60) (its crashed pin
        // site 2 stays up, the pin is still held).
        assert_eq!(t.unavailable_total(Time(100)), 30 + 30 + 50);
        let rep = t.report();
        let windows: Vec<(ItemId, Vec<Window>)> =
            rep.into_iter().map(|a| (a.item, a.windows)).collect();
        let w = |from, until| Window {
            from: Time(from),
            until: Some(Time(until)),
        };
        assert_eq!(
            windows,
            vec![
                (ItemId(0), vec![w(20, 50)]),
                (ItemId(1), vec![w(10, 60)]),
                (ItemId(2), vec![w(20, 50)]),
                (ItemId(3), vec![]),
            ]
        );
    }

    #[test]
    fn unmatched_pin_end_is_ignored() {
        let mut t = tracker();
        t.pin_end(Time(5), SiteId(0), ItemId(0));
        assert_eq!(t.pin_time.count(), 0);
        assert_eq!(t.window_count(), 0);
    }
}
