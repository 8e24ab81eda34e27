//! What the all-pairs route table, a run's flow records and the packet
//! simulator's in-flight packets cost in memory, counted by the allocator:
//! live bytes, live blocks, allocation calls and the high-water mark. No
//! timing, no `/proc`.
//!
//! Every test holds `ONE_AT_A_TIME` throughout: the counters are
//! process-wide, and a test running beside another would be counted too.

use pnet::core::{PNetSpec, PathPolicy, TopologyKind};
use pnet::htsim::apps::OpenLoopDriver;
use pnet::htsim::{run, run_to_completion, CcAlgo, FlowSpec, SimConfig, SimTime, Simulator};
use pnet::routing::{host_route, Parallelism, Path, RouteAlgo, Router};
use pnet::topology::{
    assemble_homogeneous, failures, FatTree, HostId, Jellyfish, LinkProfile, NetworkClass, PlaneId,
    RackId,
};
use pnet::workloads::tm;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Mutex;

static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static LIVE_BLOCKS: AtomicUsize = AtomicUsize::new(0);
static HIGH_WATER: AtomicUsize = AtomicUsize::new(0);
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

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
        ALLOCS.fetch_add(1, Relaxed);
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

/// What `held` holds, as (bytes, blocks): everything its drop gives back.
/// Per-thread search scratch stays with its thread and is not counted, so
/// a router's answer does not depend on how many threads filled its table.
fn footprint<T>(held: T) -> (usize, usize) {
    let before = live();
    drop(held);
    let after = live();
    (before.0 - after.0, before.1 - after.1)
}

const MB: usize = 1 << 20;

#[test]
fn route_table_footprint_follows_its_links() {
    let _alone = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
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
    // rack pair: 64 · 63 sets of 482 k links in all, each a `u16` offset,
    // 1.33 MB with the sets' end offsets. With 32-bit links the table took
    // 2.25 MB; stored once per plane, 9.4 MB; as nested `Arc<Vec<Path>>`s,
    // 25 MB in 34 blocks per entry. A set is two blocks, its `Arc` and its
    // block; a plane adds its hop table on first use.
    let (bytes, blocks) = (serial.0 - empty.0, serial.1 - empty.1);
    assert!(bytes <= 7 * MB / 4, "table holds {bytes} bytes");
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

#[test]
fn an_open_loop_run_keeps_each_record_once() {
    let _alone = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let net = assemble_homogeneous(&FatTree::three_tier(4), 1, &LinkProfile::paper_default());
    let router = Router::new(&net, RouteAlgo::Ksp { k: 1 });
    let factory = Box::new(|src, dst, _size| {
        let (a, b) = (net.rack_of_host(src), net.rack_of_host(dst));
        let paths = router.paths_in_plane(PlaneId(0), a, b);
        let route = host_route(&net, src, dst, paths.get(0));
        (vec![route.expect("hosts attach to plane 0")], CcAlgo::Reno)
    });
    // Host h sits in rack h / 2, so h and h + 7 never share a rack.
    let mut src = 0u32;
    let next_flow = Box::new(move || {
        src = (src + 5) % 16;
        (HostId(src), HostId((src + 7) % 16), 1_500)
    });
    let gap = Box::new(|| SimTime::from_ns(900));
    let mut sim = Simulator::new(&net, SimConfig::default());
    let stop = SimTime::from_ms(3);
    let mut driver = OpenLoopDriver::start(&mut sim, factory, next_flow, gap, stop);
    run(&mut sim, &mut driver, None);

    let flows = driver.started as usize;
    assert!(flows > 3_000, "only {flows} flows");
    assert_eq!(driver.completed.len(), flows);
    // A `Vec` grown by pushes holds at most the next power of two of its
    // length. A second copy of the records, or 80-byte records, is over.
    let held = (
        std::mem::take(&mut sim.records),
        std::mem::take(&mut driver.completed),
    );
    let (bytes, _) = footprint(held);
    assert!(
        bytes <= 64 * flows.next_power_of_two(),
        "{flows} records hold {bytes} bytes"
    );
}

#[test]
fn in_flight_packets_cost_their_slot_and_fifo_entry() {
    let _alone = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    // `packet_bulk`'s shape at 16 ToR: one host permutation of two-subflow
    // LIA flows over the two best paths across two planes.
    let net = assemble_homogeneous(
        &Jellyfish::new(16, 4, 4, 1),
        2,
        &LinkProfile::paper_default(),
    );
    let router = Router::new(&net, RouteAlgo::Ksp { k: 2 });
    let spec = |src: HostId, dst: HostId, paths: &[Path]| FlowSpec {
        src,
        dst,
        size_bytes: 300_000,
        routes: paths
            .iter()
            .map(|p| host_route(&net, src, dst, p).expect("hosts attach to every plane"))
            .collect(),
        cc: CcAlgo::Lia,
        owner_tag: u64::from(src.0),
    };
    let flows: Vec<FlowSpec> = tm::random_permutation(net.n_hosts(), 1)
        .into_iter()
        .enumerate()
        .map(|(i, j)| {
            let (src, dst) = (HostId(i as u32), HostId(j as u32));
            let (a, b) = (net.rack_of_host(src), net.rack_of_host(dst));
            spec(src, dst, &router.k_best_across_planes(a, b, 2))
        })
        .collect();

    let before = live().0;
    let mut sim = Simulator::new(&net, SimConfig::default());
    for f in &flows {
        sim.start_flow(f.clone());
    }
    HIGH_WATER.store(LIVE_BYTES.load(Relaxed), Relaxed);
    run_to_completion(&mut sim);
    let peak = HIGH_WATER.load(Relaxed) - before;
    let packets = sim.packet_arena().capacity();
    assert_eq!(sim.records.len(), flows.len());
    assert!(
        packets > 2_000,
        "only {packets} packets in flight at the peak"
    );
    // Everything the simulator holds at its peak (queues, calendar, flows
    // included), per packet in flight: this run reads 136 bytes, and the
    // bound is that plus 10 %. The 24-byte arena slot counts three times
    // while the arena's `Vec` doubles (the old block and the new one), and
    // FIFO entries grow the same way. With the calendar's slots staged in
    // pooled buffers that each kept the largest load they had held, it read
    // 215; with 48-byte packets holding an `Arc` route, 8-byte FIFO entries
    // and a free list of its own, 297.
    let per_packet = peak / packets;
    assert!(
        per_packet <= 149,
        "{peak} bytes at the peak for {packets} packets in flight: {per_packet} per packet"
    );

    // Every connection retired, so each flow below takes over a slot whose
    // subflows already hold two routes of at least two links. Rack-local
    // routes are two links long (uplink, downlink): they fit. The first
    // flow may grow the per-`ConnId` tables; the second allocates nothing.
    assert_eq!(sim.live_conns(), 0);
    let (h0, h1) = (HostId(0), HostId(1));
    assert_eq!(net.rack_of_host(h0), net.rack_of_host(h1));
    let local = |src, dst| spec(src, dst, &[0, 1].map(|p| Path::intra_rack(PlaneId(p))));
    sim.start_flow(local(h0, h1));
    let second = local(h1, h0);
    assert!(second.routes.iter().all(|r| r.len() == 2));
    let allocs = ALLOCS.load(Relaxed);
    sim.start_flow(second);
    let made = ALLOCS.load(Relaxed) - allocs;
    assert_eq!(
        made, 0,
        "a flow started into a recycled slot made {made} allocations"
    );
    run_to_completion(&mut sim);
    assert_eq!(sim.records.len(), flows.len() + 2);
}

#[test]
fn the_rpc_selector_holds_only_the_shortest_tiers() {
    let _alone = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    // The benchmark's `packet_rpc` fabric and policy: one subflow per plane
    // reads only each plane's shortest tier.
    let topology = TopologyKind::Jellyfish {
        n_tors: 64,
        degree: 8,
        hosts_per_tor: 4,
    };
    let pnet = PNetSpec::new(topology, NetworkClass::ParallelHeterogeneous, 4, 1).build();
    let policy = PathPolicy::PlaneKsp { per_plane: 1 };
    assert_eq!(policy.route_algo(), RouteAlgo::Ecmp);
    let entries = 4 * 64 * 63;

    // The four planes differ, so each entry is its own set: 47 882 paths
    // in all, 1.03 MB in two blocks per entry. The 32-wide KSP table it
    // replaced held 516 096 paths in 5.57 MB.
    let empty = footprint(pnet.selector(policy.clone()));
    let warmed = pnet.selector(policy.clone());
    warmed.warm();
    let table = footprint(warmed);
    let (bytes, blocks) = (table.0 - empty.0, table.1 - empty.1);
    assert!(bytes <= 9 * MB / 8, "table holds {bytes} bytes");
    assert!(
        blocks <= 2 * entries + 2 * 4,
        "table holds {blocks} blocks for {entries} entries"
    );

    // Entry for entry, the selector's table is the shortest tier of a
    // 32-wide KSP table's, and a tier wider than 32 is cut there.
    let narrow = Router::new(&pnet.net, policy.route_algo());
    let wide = Router::new(&pnet.net, RouteAlgo::Ksp { k: 32 });
    let (mut paths, mut capped) = (0, 0);
    for plane in pnet.net.planes() {
        for a in (0..64).map(RackId) {
            for b in (0..64).map(RackId).filter(|&b| b != a) {
                let (n, w) = (
                    narrow.paths_in_plane(plane, a, b),
                    wide.paths_in_plane(plane, a, b),
                );
                let tier = w.shortest_tier();
                assert_eq!(n.len(), tier, "{plane}: {a} -> {b}");
                assert!(n.iter().eq(w.iter().take(tier)), "{plane}: {a} -> {b}");
                paths += tier;
                capped += usize::from(tier == 32);
            }
        }
    }
    assert_eq!(paths, 47_882);
    assert!(capped > 0, "no tier reached the cap");
}
