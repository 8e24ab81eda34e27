//! What the all-pairs route table costs in memory, counted by the allocator:
//! live bytes, live blocks and the high-water mark. No timing, no `/proc`.
//!
//! One `#[test]` only: the counters are process-wide, and a second test
//! running beside it would be counted too.

use pnet::routing::{Parallelism, RouteAlgo, Router};
use pnet::topology::{assemble_homogeneous, failures, Jellyfish, LinkProfile};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static LIVE_BLOCKS: AtomicUsize = AtomicUsize::new(0);
static HIGH_WATER: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, counting. `realloc` and `alloc_zeroed` keep their
/// default bodies, which go through `alloc` and `dealloc`.
struct Counting;

// SAFETY: every request is passed to `System` unchanged and its answer
// returned unchanged; the counters are statistics and guard no memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let live = LIVE_BYTES.fetch_add(layout.size(), Relaxed) + layout.size();
        HIGH_WATER.fetch_max(live, Relaxed);
        LIVE_BLOCKS.fetch_add(1, Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for
        // `layout`, which is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size(), Relaxed);
        LIVE_BLOCKS.fetch_sub(1, Relaxed);
        // SAFETY: `ptr` came from `alloc` above, that is from `System.alloc`,
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn live() -> (usize, usize) {
    (LIVE_BYTES.load(Relaxed), LIVE_BLOCKS.load(Relaxed))
}

/// What `router` holds, as (bytes, blocks): everything its drop gives back.
/// Per-thread search scratch stays with its thread and is not counted, so
/// the answer does not depend on how many threads filled the table.
fn footprint(router: Router) -> (usize, usize) {
    let before = live();
    drop(router);
    let after = live();
    (before.0 - after.0, before.1 - after.1)
}

const MB: usize = 1 << 20;

#[test]
fn route_table_footprint_follows_its_links() {
    // The fabric and K of the benchmark's `pipeline_cold` / `churn_reconverge`.
    let profile = LinkProfile::paper_default();
    let mut net = assemble_homogeneous(&Jellyfish::new(64, 8, 1, 1), 4, &profile);
    let algo = RouteAlgo::Ksp { k: 32 };
    let entries = 4 * 64 * 63;

    let empty = footprint(Router::new(&net, algo));
    let filled = |par| {
        let router = Router::new(&net, algo);
        router.precompute_all_pairs_with(par);
        assert_eq!(router.cached_entries(), entries);
        router
    };
    let serial = footprint(filled(Parallelism::Serial));
    assert_eq!(serial, footprint(filled(Parallelism::default())));

    // The four planes are copies of one graph, so they share one set per
    // rack pair: 64 · 63 sets of 482 k link ids in all, 1.9 MB. Stored once
    // per plane the table took 9.4 MB; as nested `Arc<Vec<Path>>`s, 25 MB in
    // 34 blocks per entry. A set is two blocks, its `Arc` and its links; a
    // plane adds its hop table on first use.
    let (bytes, blocks) = (serial.0 - empty.0, serial.1 - empty.1);
    assert!(bytes <= 7 * MB / 2, "table holds {bytes} bytes");
    assert!(
        blocks <= 2 * 64 * 63 + 2 * 4,
        "table holds {blocks} blocks for {entries} entries"
    );

    // A repair allocates what it recomputes, not a second index of the
    // table (that was 19 MB: a sort buffer and the new postings).
    let router = filled(Parallelism::default());
    let cable = failures::fabric_cables(&net, None)[5];
    failures::fail_cable(&mut net, cable);
    let before = LIVE_BYTES.load(Relaxed);
    HIGH_WATER.store(before, Relaxed);
    let stats = router.refresh(&net);
    let peak = HIGH_WATER.load(Relaxed) - before;
    assert!(stats.entries_repaired > 0 && !stats.full_rebuild);
    assert_eq!(stats.slots_scanned, 64 * 64);
    assert!(
        peak <= 4 * MB,
        "one repair raised the high-water mark by {peak} bytes"
    );
}
