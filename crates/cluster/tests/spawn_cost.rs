//! Spawn cost does not grow with the item count: building a cluster —
//! its shard map and catalogs, the observer and every site with its
//! local copies loaded — makes the same number of heap allocations
//! for 8 and for 65,536 items per shard. Allocation counts do not
//! depend on the machine, so the bound is exact.
//!
//! The counting allocator is this test binary's own; it counts per
//! thread, so tests running in parallel do not disturb each other.

use qbc_cluster::{ClusterConfig, ObsConfig, SimCluster};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    // `try_with`: the slot is gone while a thread tears down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; the counter is a
// const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Heap allocations (and reallocations) made on this thread while
/// building one cluster.
fn spawn_allocs(cfg: ClusterConfig) -> u64 {
    let before = ALLOCS.with(Cell::get);
    let cluster = SimCluster::new(cfg);
    let after = ALLOCS.with(Cell::get);
    drop(cluster);
    after - before
}

/// The allocations a spawn may make beyond the 8-item one's. Zero: no
/// buffer is sized by the item count except through an exact reserve.
const SLACK: u64 = 0;

fn assert_item_count_free(shape: &str, base: ClusterConfig) {
    let small = spawn_allocs(ClusterConfig {
        items_per_shard: 8,
        ..base.clone()
    });
    let large = spawn_allocs(ClusterConfig {
        items_per_shard: 65_536,
        ..base
    });
    assert!(
        large <= small + SLACK,
        "{shape}: spawn allocations grow with the item count: \
         {small} for 8 items per shard, {large} for 65,536"
    );
}

fn benchmark_shape() -> ClusterConfig {
    ClusterConfig {
        shards: 2,
        sites_per_shard: 3,
        replication: 3,
        read_quorum: 2,
        write_quorum: 2,
        ..ClusterConfig::default()
    }
}

#[test]
fn spawn_allocations_do_not_grow_with_items() {
    assert_item_count_free("full replication", benchmark_shape());
}

#[test]
fn spawn_allocations_do_not_grow_with_items_under_partial_replication() {
    // Two copies over three sites: each site holds a non-contiguous
    // two thirds of its shard's items.
    let cfg = ClusterConfig {
        replication: 2,
        ..benchmark_shape()
    };
    assert_item_count_free("partial replication", cfg);
}

#[test]
fn spawn_allocations_do_not_grow_with_items_with_snapshot_reads_and_obs() {
    let retention = ClusterConfig::default().version_retention;
    let mut cfg = benchmark_shape().with_snapshot_reads(retention);
    cfg.obs = ObsConfig::on();
    assert_item_count_free("snapshot reads + obs", cfg);
}
