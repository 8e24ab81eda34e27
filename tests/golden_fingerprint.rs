//! Golden output fingerprints for the routing/MCF hot paths and the packet
//! engine.
//!
//! The KSP/MCF overhaul (CSR plane graphs, epoch-stamped scratch, Lawler's
//! optimization) and the packet-engine overhaul (calendar queue, packet
//! arena) promised *byte-identical* outputs to the straightforward
//! implementations they replaced. Those implementations are gone; these
//! constants, minted while they still ran, are what holds the promise now.
//! Each test hashes a complete all-pairs route table, a GK solve, or every
//! flow-completion record of a packet run into a single FNV-1a fingerprint
//! and compares it against a committed constant. Any change to path
//! contents, path order, tie-breaking, float operation order in GK, or
//! event dispatch order shows up as a fingerprint mismatch — if one
//! of these fails after an optimization, the optimization changed observable
//! behaviour and must be fixed (do not re-pin without understanding why).

use pnet::flowsim::{commodity, mcf, throughput};
use pnet::htsim::{run_to_completion, CcAlgo, FlowRecord, FlowSpec, SimConfig, Simulator};
use pnet::routing::{host_route, Parallelism, RouteAlgo, Router};
use pnet::topology::{
    assemble_homogeneous, FatTree, HostId, Jellyfish, LinkId, LinkProfile, Network, PlaneId, RackId,
};
use pnet::workloads::tm;

/// 64-bit FNV-1a, seeded with the standard offset basis. No external crates:
/// the point is a stable, dependency-free digest of structured output.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, x: u64) {
        for byte in x.to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Hash the full all-pairs route table of `net` under KSP-k, in canonical
/// (src, dst, plane) order: every path's plane and exact link sequence
/// contributes, so path set, order, and tie-breaking are all pinned.
fn ksp_table_fingerprint(net: &Network, k: usize) -> u64 {
    let router = Router::with_parallelism(net, RouteAlgo::Ksp { k }, Parallelism::Serial);
    router.precompute_all_pairs_with(Parallelism::Serial);
    let mut h = Fnv::new();
    let racks = router.n_racks();
    for a in 0..racks {
        for b in 0..racks {
            if a == b {
                continue;
            }
            for p in 0..router.n_planes() {
                let paths =
                    router.paths_in_plane(PlaneId(p as u16), RackId(a as u32), RackId(b as u32));
                h.u64(paths.len() as u64);
                for path in paths.iter() {
                    h.u64(path.plane.0 as u64);
                    h.u64(path.n_links() as u64);
                    for l in path.links() {
                        h.u64(l.0 as u64);
                    }
                }
            }
        }
    }
    h.0
}

#[test]
fn jellyfish_ksp_table_fingerprint_is_stable() {
    let net = assemble_homogeneous(
        &Jellyfish::new(16, 4, 1, 7),
        2,
        &LinkProfile::paper_default(),
    );
    assert_eq!(
        ksp_table_fingerprint(&net, 8),
        GOLDEN_JELLYFISH_KSP,
        "all-pairs KSP table changed on seeded Jellyfish(16, 4, seed 7) x2 planes, k=8"
    );
}

#[test]
fn fat_tree_ksp_table_fingerprint_is_stable() {
    let net = assemble_homogeneous(&FatTree::three_tier(4), 2, &LinkProfile::paper_default());
    assert_eq!(
        ksp_table_fingerprint(&net, 8),
        GOLDEN_FAT_TREE_KSP,
        "all-pairs KSP table changed on fat tree k=4 x2 planes, KSP k=8"
    );
}

/// A serial AnyPath GK solve at eps = 0.1 of a random permutation over the
/// `n` single-host racks of a seeded `Jellyfish(n, degree, 1, 7)` with two
/// planes, and its digest: lambda, the phase count and every per-commodity
/// rate, bit-exactly.
fn gk_permutation_fingerprint(n: usize, degree: usize) -> (mcf::McfSolution, u64) {
    let net = assemble_homogeneous(
        &Jellyfish::new(n, degree, 1, 7),
        2,
        &LinkProfile::paper_default(),
    );
    let c = commodity::permutation(&tm::random_permutation(n, 7));
    let sol = mcf::solve_with_options(
        &net,
        &c,
        &mcf::PathMode::AnyPath,
        0.1,
        mcf::McfOptions {
            parallelism: Parallelism::Serial,
            ..Default::default()
        },
    );
    let digest = solution_digest(&sol);
    (sol, digest)
}

/// A GK solution's lambda, phase count and every per-commodity rate,
/// bit-exactly.
fn solution_digest(sol: &mcf::McfSolution) -> u64 {
    let mut h = Fnv::new();
    h.u64(sol.lambda.to_bits());
    h.u64(sol.phases as u64);
    for r in &sol.rates {
        h.u64(r.to_bits());
    }
    h.0
}

/// `pipeline_cold`'s seed-1 fabric and permutation solved in KSP mode: each
/// flow may split over its 8 best paths across the four planes, at eps =
/// 0.1. Pins the Explicit-route half of the solver, which the AnyPath pins
/// above never enter.
#[test]
fn gk_ksp_mode_fingerprint_is_stable() {
    let net = assemble_homogeneous(
        &Jellyfish::new(64, 8, 1, 1),
        4,
        &LinkProfile::paper_default(),
    );
    let c = commodity::permutation(&tm::random_permutation(64, 1));
    let router = Router::new(&net, RouteAlgo::Ksp { k: 8 });
    let mode = mcf::ksp_mode(&net, &router, &c, 8);
    let sol = mcf::solve(&net, &c, &mode, 0.1);
    assert_eq!(
        solution_digest(&sol),
        GOLDEN_GK_KSP,
        "KSP-mode GK solve changed (lambda {} over {} phases)",
        sol.lambda,
        sol.phases
    );
}

/// Hash-placed single-path ECMP under max-min waterfilling: the totals of a
/// permutation and of all-to-all traffic on 1, 2 and 4 planes. A moved
/// route or a reordered waterfilling step changes a rate, and with it the
/// bits of its total.
#[test]
fn ecmp_maxmin_fingerprint_is_stable() {
    let mut h = Fnv::new();
    for planes in [1, 2, 4] {
        let net = assemble_homogeneous(
            &Jellyfish::new(16, 4, 2, 7),
            planes,
            &LinkProfile::paper_default(),
        );
        let perm = commodity::permutation(&tm::random_permutation(32, 3));
        for c in [perm, commodity::all_to_all(32)] {
            h.u64(throughput::ecmp_throughput(&net, &c).to_bits());
        }
    }
    assert_eq!(h.0, GOLDEN_ECMP_MAXMIN, "ECMP max-min totals changed");
}

#[test]
fn gk_mcf_lambda_fingerprint_is_stable() {
    // Same construction as the benchmark's `pipeline_cold`, scaled down.
    let (sol, digest) = gk_permutation_fingerprint(16, 4);
    assert_eq!(
        digest, GOLDEN_GK_LAMBDA,
        "GK solve changed (lambda {} over {} phases)",
        sol.lambda, sol.phases
    );
    // Before planes shared trees this solve ran 32 464 Dijkstras in its phase
    // loop, one per source and stale plane. The refreshes are the same ones;
    // some are now copies of the twin plane's tree.
    assert_eq!(sol.trees_built + sol.trees_shared + sol.trees_kept, 32_464);
    assert!(sol.trees_shared > 0 && sol.trees_built < 32_464);
}

/// The same solve on planes of 96 switches, where every Dijkstra frontier
/// spans two 64-bit words; the pins above stop at 64. About 7 s in a debug
/// build.
#[test]
fn gk_mcf_lambda_above_one_frontier_word_is_stable() {
    let (sol, digest) = gk_permutation_fingerprint(96, 6);
    assert_eq!(
        digest, GOLDEN_GK_LAMBDA_96,
        "GK solve changed on 96-switch planes (lambda {} over {} phases)",
        sol.lambda, sol.phases
    );
    assert_eq!(
        (sol.trees_built, sol.trees_shared, sol.trees_kept),
        (134_784, 134_784, 0)
    );
}

/// `pipeline_cold`'s seed-1 instance at full size: what the benchmark's
/// `PINNED` phase count is made of. Phase 1 refreshes all 256 trees, each of
/// the other 8 940 the 64 trees of its one stale plane — 572 416 refreshes,
/// every one a Dijkstra before planes shared trees. Three planes of four
/// find the rotation's previous plane holding their lengths. About 3 s in a
/// debug build.
#[test]
fn full_size_cold_solve_shares_three_trees_of_four() {
    let net = assemble_homogeneous(
        &Jellyfish::new(64, 8, 1, 1),
        4,
        &LinkProfile::paper_default(),
    );
    let c = commodity::permutation(&tm::random_permutation(64, 1));
    let sol = mcf::solve(&net, &c, &mcf::PathMode::AnyPath, 0.1);
    assert_eq!(sol.phases, 8_941);
    assert_eq!(sol.lambda, 399_821_109_123.459_7);
    assert_eq!(
        (sol.trees_built, sol.trees_shared, sol.trees_kept),
        (143_104, 429_312, 0)
    );
}

#[test]
fn post_churn_ksp_table_fingerprint_is_stable() {
    // A seeded churn walk absorbed through the incremental delta path must
    // land on a pinned table fingerprint — and that fingerprint must equal a
    // from-scratch rebuild on the final link state, tying the pin to the
    // cold-precompute semantics rather than to the repair code itself.
    use pnet::topology::ChurnSchedule;
    let mut net = assemble_homogeneous(
        &Jellyfish::new(16, 4, 1, 7),
        2,
        &LinkProfile::paper_default(),
    );
    let router = Router::with_parallelism(&net, RouteAlgo::Ksp { k: 8 }, Parallelism::Serial);
    router.precompute_all_pairs_with(Parallelism::Serial);
    for &ev in &ChurnSchedule::random_walk(&net, 12, 0.2, 21).events {
        ev.apply(&mut net);
        let stats = router.refresh(&net);
        assert!(!stats.full_rebuild, "cable churn must take the delta path");
    }
    let fresh = Router::with_parallelism(&net, RouteAlgo::Ksp { k: 8 }, Parallelism::Serial);
    fresh.precompute_all_pairs_with(Parallelism::Serial);
    assert_eq!(
        router.table_fingerprint(),
        fresh.table_fingerprint(),
        "incremental repair diverged from a from-scratch rebuild"
    );
    assert_eq!(
        router.table_fingerprint(),
        GOLDEN_POST_CHURN_KSP,
        "post-churn route table changed on seeded Jellyfish(16, 4, seed 7) x2 \
         planes, k=8, random_walk(12 events, 0.2, seed 21)"
    );
}

/// Hash every flow-completion record of a finished packet run, sorted by
/// owner tag: start/finish timestamps (picosecond-exact), sizes,
/// retransmit/timeout counts, and subflow counts all contribute. Any change
/// to event dispatch order anywhere in the packet engine — queue swap, arena
/// refactor, batching — moves at least one completion time and shows up here.
fn flow_records_fingerprint(records: &[FlowRecord]) -> u64 {
    let mut recs: Vec<_> = records.iter().collect();
    recs.sort_by_key(|r| r.owner_tag);
    let mut h = Fnv::new();
    h.u64(recs.len() as u64);
    for r in recs {
        h.u64(r.owner_tag);
        h.u64(u64::from(r.src.0));
        h.u64(u64::from(r.dst.0));
        h.u64(r.size_bytes);
        h.u64(r.start.as_ps());
        h.u64(r.finish.as_ps());
        h.u64(r.retransmits);
        h.u64(r.timeouts);
        h.u64(r.n_subflows as u64);
    }
    h.0
}

/// Start `flows` at time zero on a fresh engine over `net`, take `failed`
/// (if any) dark before the first event, and run until the queue drains.
fn run_batch(
    net: &Network,
    cfg: SimConfig,
    flows: Vec<FlowSpec>,
    failed: Option<LinkId>,
) -> Vec<FlowRecord> {
    let mut sim = Simulator::new(net, cfg);
    for f in flows {
        sim.start_flow(f);
    }
    if let Some(l) = failed {
        sim.fail_link(l);
    }
    run_to_completion(&mut sim);
    sim.records
}

/// The host route over `plane`'s first KSP path.
fn route_in_plane(
    net: &Network,
    router: &Router,
    src: HostId,
    dst: HostId,
    plane: u16,
) -> Vec<LinkId> {
    let (ra, rb) = (net.rack_of_host(src), net.rack_of_host(dst));
    let path = router
        .paths_in_plane(PlaneId(plane), ra, rb)
        .get(0)
        .to_path();
    host_route(net, src, dst, &path).expect("invariant: host pair is routable")
}

#[test]
fn packet_sim_fct_fingerprint_is_stable() {
    // A mid-size multi-plane MPTCP run: 32 flows under LIA, one subflow per
    // plane.
    let net = assemble_homogeneous(
        &Jellyfish::new(16, 4, 2, 7),
        3,
        &LinkProfile::paper_default(),
    );
    let router = Router::with_parallelism(&net, RouteAlgo::Ksp { k: 2 }, Parallelism::Serial);
    let flows = tm::permutation_pairs(32, 9)
        .iter()
        .enumerate()
        .map(|(i, &(a, b))| {
            let (src, dst) = (HostId(a as u32), HostId(b as u32));
            FlowSpec {
                src,
                dst,
                size_bytes: 200_000 + 37_000 * (i as u64 % 5),
                routes: (0..3)
                    .map(|p| route_in_plane(&net, &router, src, dst, p))
                    .collect(),
                cc: CcAlgo::Lia,
                owner_tag: i as u64,
            }
        })
        .collect();
    let records = run_batch(&net, SimConfig::default(), flows, None);
    assert_eq!(
        flow_records_fingerprint(&records),
        GOLDEN_SIM_FCT,
        "packet-level event order changed: a 32-flow 3-plane MPTCP run no \
         longer reproduces the pinned flow-completion records"
    );
}

/// The fat tree k=4 x2 planes the DCTCP and failover cases run on, with a
/// one-path-per-plane router.
fn fat_tree_two_planes() -> (Network, Router) {
    let net = assemble_homogeneous(&FatTree::three_tier(4), 2, &LinkProfile::paper_default());
    let router = Router::with_parallelism(&net, RouteAlgo::Ksp { k: 1 }, Parallelism::Serial);
    (net, router)
}

#[test]
fn packet_sim_dctcp_incast_fingerprint_is_stable() {
    // 14-to-1 DCTCP incast into host 0 from every host outside its rack,
    // seven single-path senders per plane, marking at K = 20 packets.
    let (net, router) = fat_tree_two_planes();
    let flows = (2..16u32)
        .map(|h| {
            let (src, dst) = (HostId(h), HostId(0));
            FlowSpec {
                src,
                dst,
                size_bytes: 400_000 + 60_000 * u64::from(h % 3),
                routes: vec![route_in_plane(&net, &router, src, dst, (h % 2) as u16)],
                cc: CcAlgo::Dctcp,
                owner_tag: u64::from(h),
            }
        })
        .collect();
    let cfg = SimConfig {
        ecn_threshold_packets: Some(20),
        ..SimConfig::default()
    };
    let records = run_batch(&net, cfg, flows, None);
    assert_eq!(
        flow_records_fingerprint(&records),
        GOLDEN_SIM_FCT_DCTCP,
        "ECN marking or the DCTCP window response changed: a 14-to-1 incast \
         no longer reproduces the pinned flow-completion records"
    );
}

#[test]
fn packet_sim_failover_fingerprint_is_stable() {
    // Eight 2-subflow LIA flows across the fabric, with the first fabric
    // link of flow 0's plane-0 subflow dark from the start: that subflow (and
    // any other routed over the cable) black-holes, backs its RTO off, and is
    // declared dead; its data is re-injected on the surviving plane.
    let (net, router) = fat_tree_two_planes();
    let flows: Vec<FlowSpec> = (0..8u32)
        .map(|h| {
            let (src, dst) = (HostId(h), HostId(15 - h));
            FlowSpec {
                src,
                dst,
                size_bytes: 300_000 + 50_000 * u64::from(h % 3),
                routes: (0..2)
                    .map(|p| route_in_plane(&net, &router, src, dst, p))
                    .collect(),
                cc: CcAlgo::Lia,
                owner_tag: u64::from(h),
            }
        })
        .collect();
    // routes[0] = [host uplink, fabric links.., host downlink].
    let failed = flows[0].routes[0][1];
    let records = run_batch(&net, SimConfig::default(), flows, Some(failed));
    let dead_after = u64::from(SimConfig::default().tcp.dead_after_backoff);
    assert!(
        records
            .iter()
            .any(|r| r.owner_tag == 0 && r.timeouts >= dead_after),
        "flow 0 must back its dark subflow off {dead_after} times before giving it up"
    );
    assert_eq!(
        flow_records_fingerprint(&records),
        GOLDEN_SIM_FCT_FAILOVER,
        "RTO backoff, subflow death or re-injection changed: the failover \
         batch no longer reproduces the pinned flow-completion records"
    );
}

// Pinned fingerprints. Regenerate only when an *intentional* output change
// lands, and record why in the commit message.
const GOLDEN_JELLYFISH_KSP: u64 = 14853875402589996389;
// Incremental-repair end state of a 12-event churn walk; must also equal a
// from-scratch rebuild (asserted in the same test).
const GOLDEN_POST_CHURN_KSP: u64 = 3576556970543380266;
const GOLDEN_FAT_TREE_KSP: u64 = 11144640133350879781;
// lambda 199901380670.61145 over 2028 phases.
const GOLDEN_GK_LAMBDA: u64 = 2946497110374994333;
// lambda 199857549857.54987 over 2807 phases, minted with the 4-ary heap
// Dijkstra the bitset frontier replaced.
const GOLDEN_GK_LAMBDA_96: u64 = 15002067845247366420;
// Minted before Explicit routes became one flat table and before the cold
// and warm solves shared one body.
const GOLDEN_GK_KSP: u64 = 6197694358928288419;
const GOLDEN_ECMP_MAXMIN: u64 = 13167328887666313324;
// Pinned by the pre-calendar-queue BinaryHeap engine; the calendar/arena
// engine must reproduce it bit-for-bit.
const GOLDEN_SIM_FCT: u64 = 2982833380558106106;
// Minted at commit 3cb3e90 (PR 12), the last with the frozen BinaryHeap
// engine (`htsim/src/reference.rs`): it and the production engine produced
// these records field for field. With marking off the incast hashes to
// 13059643403910299804 (826 retransmits against 0), with the cable up the
// failover batch hashes to 6872668805703274398: both cases exercise what
// they name.
const GOLDEN_SIM_FCT_DCTCP: u64 = 16224481060384148449;
const GOLDEN_SIM_FCT_FAILOVER: u64 = 3790533921027936315;
