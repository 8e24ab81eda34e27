//! Golden output fingerprints for the routing/MCF hot paths and the packet
//! engine.
//!
//! The KSP/MCF overhaul (CSR plane graphs, epoch-stamped scratch, the path
//! search by length tier) and the packet-engine overhaul (calendar queue,
//! packet arena) promised *byte-identical* outputs to the implementations
//! they replaced. Those implementations are gone; these
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
    assemble_homogeneous, failures, FatTree, HostId, Jellyfish, LinkId, LinkProfile, Network,
    NodeKind, PlaneId, RackId,
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

/// The all-pairs table of `net` under `algo`, filled serially, as
/// [`Router::table_fingerprint`] hashes it.
fn table_fingerprint(net: &Network, algo: RouteAlgo) -> u64 {
    let router = Router::new(net, algo);
    router.precompute_all_pairs_with(Parallelism::Serial);
    router.table_fingerprint()
}

/// A 32-ToR degree-4 Jellyfish with 30 % of its cables failed: long detours,
/// cut vertices and unreachable pairs, where a path search has the most
/// prefixes to rule out.
fn cut_jellyfish() -> Network {
    let mut net = assemble_homogeneous(
        &Jellyfish::new(32, 4, 1, 7),
        1,
        &LinkProfile::paper_default(),
    );
    failures::fail_random_fraction(&mut net, 0.3, 7);
    net
}

#[test]
fn cut_jellyfish_ksp_table_fingerprints_are_stable() {
    let net = cut_jellyfish();
    for (k, golden) in [
        (8, GOLDEN_CUT_JELLYFISH_KSP8),
        (32, GOLDEN_CUT_JELLYFISH_KSP32),
    ] {
        assert_eq!(
            table_fingerprint(&net, RouteAlgo::Ksp { k }),
            golden,
            "all-pairs KSP table changed on Jellyfish(32, 4, seed 7) with 30 % of \
             its cables failed (seed 7), k={k}"
        );
    }
}

#[test]
fn cut_jellyfish_ecmp_table_fingerprint_is_stable() {
    assert_eq!(
        table_fingerprint(&cut_jellyfish(), RouteAlgo::Ecmp { cap: 16 }),
        GOLDEN_CUT_JELLYFISH_ECMP16,
        "all-pairs ECMP table changed on the 30 %-cut Jellyfish(32, 4, seed 7), cap 16"
    );
}

/// A k = 4 fat tree whose pod 0 lost an aggregation switch: the other one is
/// a cut vertex between pod 0's racks and the rest of the fabric.
#[test]
fn cut_vertex_fat_tree_ksp_table_fingerprint_is_stable() {
    let mut net = assemble_homogeneous(&FatTree::three_tier(4), 1, &LinkProfile::paper_default());
    let (agg, _) = net
        .nodes()
        .find(|(_, n)| n.kind == NodeKind::Agg { pod: 0 })
        .expect("pod 0 has an aggregation switch");
    failures::fail_switch(&mut net, agg);
    assert_eq!(
        table_fingerprint(&net, RouteAlgo::Ksp { k: 64 }),
        GOLDEN_CUT_VERTEX_FAT_TREE_KSP64,
        "all-pairs KSP table changed on fat tree k=4 without one pod-0 agg switch, k=64"
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

/// The Explicit-route scorer on the values it must order exactly: free host
/// links (lengths +0.0), K = 6 candidates of mixed hop counts, then the
/// cable that carried the most flow failed under the same candidates (+∞
/// costs, ties among ∞) with a cold and a warm re-solve. The warm half
/// solves the capacitated problem (`try_solve_warm` takes no options) from
/// the free-host-link solution's lengths.
#[test]
fn gk_explicit_edge_values_fingerprint_is_stable() {
    let mut net = assemble_homogeneous(
        &Jellyfish::new(16, 4, 2, 3),
        2,
        &LinkProfile::paper_default(),
    );
    let c = commodity::permutation(&tm::random_permutation(32, 5));
    let router = Router::new(&net, RouteAlgo::Ksp { k: 12 });
    let mode = mcf::ksp_mode(&net, &router, &c, 6);
    let mixed = c.iter().any(|c| {
        let (a, b) = (net.rack_of_host(c.src), net.rack_of_host(c.dst));
        let ps = router.k_best_across_planes(a, b, 12);
        ps.len() >= 6 && ps[0].switch_hops() != ps[5].switch_hops()
    });
    assert!(mixed, "some commodity's six candidates differ in hop count");
    let opts = mcf::McfOptions {
        host_links_free: true,
        parallelism: Parallelism::Serial,
    };
    let cold = mcf::try_solve(&net, &c, &mode, 0.1, opts).expect("solves");
    let hottest = failures::fabric_cables(&net, None)
        .into_iter()
        .max_by(|&a, &b| {
            let load = |l: LinkId| cold.link_flow[l.index()] + cold.link_flow[l.reverse().index()];
            load(a).total_cmp(&load(b))
        })
        .expect("the fabric has cables");
    failures::fail_cable(&mut net, hottest);
    let failed = mcf::try_solve(&net, &c, &mode, 0.1, opts).expect("re-solves cold");
    let warm = mcf::try_solve_warm(&net, &c, &mode, 0.1, &cold).expect("re-solves warm");
    let mut h = Fnv::new();
    for sol in [&cold, &failed, &warm] {
        h.u64(solution_digest(sol));
        for x in sol.link_flow.iter().chain(&sol.length) {
            h.u64(x.to_bits());
        }
    }
    assert_eq!(
        h.0, GOLDEN_GK_EXPLICIT_EDGES,
        "Explicit-mode GK changed (cold lambda {} over {} phases; after the failure \
         cold {} over {}, warm {} over {})",
        cold.lambda, cold.phases, failed.lambda, failed.phases, warm.lambda, warm.phases
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
    // Before planes shared trees this solve built 32 464 trees in its phase
    // loop, one per source and stale plane. The refreshes are the same ones;
    // some are now copies of the twin plane's tree.
    assert_eq!(sol.trees_built + sol.trees_shared + sol.trees_kept, 32_464);
    assert!(sol.trees_shared > 0 && sol.trees_built < 32_464);
}

/// The same solve on planes of 96 switches, past the 64 the pins above stop
/// at; its 96 sources fill twelve kernel blocks per plane. Minted when the
/// trees came from a Dijkstra whose frontier spanned two 64-bit words. About
/// 7 s in a debug build.
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
/// every one a build before planes shared trees. Three planes of four find
/// the rotation's previous plane holding their lengths. About 3 s in a debug
/// build.
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

/// Fig 7's path, which the permutation pins above never take: differently
/// wired planes, several hosts per ToR, all-to-all demand and free host
/// links, then a warm re-solve after one fabric cable fails; the warm half
/// solves the capacitated problem (`try_solve_warm` takes no options) from
/// the free-host-link lengths. Each solve's digest also holds its three
/// tree counters.
#[test]
fn gk_heterogeneous_all_to_all_fingerprint_is_stable() {
    use pnet::topology::{parallel, NetworkClass};
    let mut net = parallel::jellyfish_network(
        NetworkClass::ParallelHeterogeneous,
        Jellyfish::new(16, 4, 2, 0),
        3,
        5,
        &LinkProfile::paper_default(),
    );
    let c = commodity::all_to_all(32);
    let opts = mcf::McfOptions {
        host_links_free: true,
        parallelism: Parallelism::Serial,
    };
    let cold = mcf::try_solve(&net, &c, &mcf::PathMode::AnyPath, 0.1, opts).expect("solves");
    let cable = failures::fabric_cables(&net, Some(PlaneId(1)))[3];
    failures::fail_cable(&mut net, cable);
    let warm =
        mcf::try_solve_warm(&net, &c, &mcf::PathMode::AnyPath, 0.1, &cold).expect("re-solves");
    let mut h = Fnv::new();
    for sol in [&cold, &warm] {
        h.u64(solution_digest(sol));
        for n in [sol.trees_built, sol.trees_shared, sol.trees_kept] {
            h.u64(n);
        }
    }
    assert_eq!(
        h.0,
        GOLDEN_GK_HETERO_ALL_TO_ALL,
        "heterogeneous all-to-all GK changed (cold lambda {} over {} phases, trees {:?}; \
         warm lambda {} over {} phases, trees {:?})",
        cold.lambda,
        cold.phases,
        (cold.trees_built, cold.trees_shared, cold.trees_kept),
        warm.lambda,
        warm.phases,
        (warm.trees_built, warm.trees_shared, warm.trees_kept),
    );
}

/// A ToR cut off in one plane only: every fabric cable of rack 5's ToR in
/// plane 0 fails, so that rack is unreachable in plane 0 from every other
/// source, and its own sources reach nothing there but themselves. Every
/// source reads fifteen racks. An all-to-all AnyPath solve runs cold, then
/// warm after one of the cables is restored. The digest holds each solve's
/// λ, phases, rates, link flows, lengths and tree counters.
#[test]
fn gk_isolated_tor_fingerprint_is_stable() {
    let mut net = assemble_homogeneous(
        &Jellyfish::new(16, 4, 2, 9),
        2,
        &LinkProfile::paper_default(),
    );
    let tor = net
        .tor_of_rack(RackId(5), PlaneId(0))
        .expect("rack 5 has a plane-0 ToR");
    let cut: Vec<LinkId> = failures::fabric_cables(&net, Some(PlaneId(0)))
        .into_iter()
        .filter(|&l| net.link(l).src == tor || net.link(l).dst == tor)
        .collect();
    assert_eq!(cut.len(), 4, "a degree-4 ToR has four fabric cables");
    for &l in &cut {
        failures::fail_cable(&mut net, l);
    }
    let c = commodity::all_to_all(32);
    let opts = mcf::McfOptions {
        host_links_free: false,
        parallelism: Parallelism::Serial,
    };
    let cold = mcf::try_solve(&net, &c, &mcf::PathMode::AnyPath, 0.1, opts).expect("solves");
    failures::restore_cable(&mut net, cut[0]);
    let warm =
        mcf::try_solve_warm(&net, &c, &mcf::PathMode::AnyPath, 0.1, &cold).expect("re-solves");
    let mut h = Fnv::new();
    for sol in [&cold, &warm] {
        h.u64(solution_digest(sol));
        for x in sol.link_flow.iter().chain(&sol.length) {
            h.u64(x.to_bits());
        }
        for n in [sol.trees_built, sol.trees_shared, sol.trees_kept] {
            h.u64(n);
        }
    }
    assert_eq!(
        h.0,
        GOLDEN_GK_ISOLATED_TOR,
        "GK with a ToR isolated in one plane changed (cold lambda {} over {} phases, \
         trees {:?}; warm lambda {} over {} phases, trees {:?})",
        cold.lambda,
        cold.phases,
        (cold.trees_built, cold.trees_shared, cold.trees_kept),
        warm.lambda,
        warm.phases,
        (warm.trees_built, warm.trees_shared, warm.trees_kept),
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
    run_batch_counting(net, cfg, flows, failed).0
}

/// [`run_batch`], also returning the calendar's work counts: slots opened
/// and events that took the late heap.
fn run_batch_counting(
    net: &Network,
    cfg: SimConfig,
    flows: Vec<FlowSpec>,
    failed: Option<LinkId>,
) -> (Vec<FlowRecord>, [u64; 2]) {
    let mut sim = Simulator::new(net, cfg);
    for f in flows {
        sim.start_flow(f);
    }
    if let Some(l) = failed {
        sim.fail_link(l);
    }
    run_to_completion(&mut sim);
    let counts = [sim.calendar_slot_opens(), sim.calendar_late_pushes()];
    (sim.records, counts)
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

/// The 32-flow LIA batch the `GOLDEN_SIM_FCT*` LIA cases run: a multi-plane
/// MPTCP permutation on a 16-rack Jellyfish, one subflow per plane over
/// each plane's first KSP path, every link at `profile`'s speed. Returns the
/// records and the calendar's work counts.
fn lia_batch(profile: &LinkProfile) -> (Vec<FlowRecord>, [u64; 2]) {
    let net = assemble_homogeneous(&Jellyfish::new(16, 4, 2, 7), 3, profile);
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
    run_batch_counting(&net, SimConfig::default(), flows, None)
}

#[test]
fn packet_sim_fct_fingerprint_is_stable() {
    // A mid-size multi-plane MPTCP run: 32 flows under LIA, one subflow per
    // plane.
    let (records, counts) = lia_batch(&LinkProfile::paper_default());
    assert_eq!(
        flow_records_fingerprint(&records),
        GOLDEN_SIM_FCT,
        "packet-level event order changed: a 32-flow 3-plane MPTCP run no \
         longer reproduces the pinned flow-completion records"
    );
    // Every delay at 100G is at least an ACK's 3.2 ns serialization, past
    // the 1-ns bucket being drained: the late heap is never used.
    assert_eq!(
        counts,
        [1952, 0],
        "calendar [slot opens, late pushes] at 100G"
    );
}

#[test]
fn packet_sim_400g_fct_fingerprint_is_stable() {
    // The same batch at 400 Gb/s: a 40-byte ACK serializes in 0.8 ns, so
    // its departure can land in the 1-ns bucket the calendar is draining,
    // the one path to the late heap.
    let (records, counts) = lia_batch(&LinkProfile::speed_gbps(400));
    assert_eq!(
        flow_records_fingerprint(&records),
        GOLDEN_SIM_FCT_400G,
        "sub-nanosecond event order changed: the 32-flow LIA batch at 400G no \
         longer reproduces the pinned flow-completion records"
    );
    assert_eq!(
        counts,
        [1485, 4840],
        "calendar [slot opens, late pushes] at 400G"
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
// Minted with Yen's K shortest paths algorithm, before the search by length
// tier replaced it: the cut fabrics are where that search has the most to
// rule out.
const GOLDEN_CUT_JELLYFISH_KSP8: u64 = 8943801096007862005;
const GOLDEN_CUT_JELLYFISH_KSP32: u64 = 15651502737401402980;
const GOLDEN_CUT_JELLYFISH_ECMP16: u64 = 13914852350984558645;
const GOLDEN_CUT_VERTEX_FAT_TREE_KSP64: u64 = 9877551514689718077;
// lambda 199901380670.61145 over 2028 phases.
const GOLDEN_GK_LAMBDA: u64 = 2946497110374994333;
// lambda 199857549857.54987 over 2807 phases, minted with the 4-ary heap
// Dijkstra that a bitset-frontier Dijkstra and then the blocked Bellman–Ford
// replaced.
const GOLDEN_GK_LAMBDA_96: u64 = 15002067845247366420;
// Minted before Explicit routes became one flat table and before the cold
// and warm solves shared one body.
const GOLDEN_GK_KSP: u64 = 6197694358928288419;
// Cold: lambda 12590945836.701698 over 1247 phases, trees (119712, 0, 0);
// warm: lambda 9441233140.655071 over 77 phases, trees (7392, 0, 0). Minted
// with the per-source Dijkstra that the blocked Bellman–Ford replaced.
const GOLDEN_GK_HETERO_ALL_TO_ALL: u64 = 17101496976981860298;
// Cold: lambda 119101123595.50694 over 1697 phases; after the failure, cold
// 99043715846.99446 over 1451 and warm 99166666666.66673 over 141. Minted
// with the per-route scorer, before candidates were scored by equal-length
// run; eight commodities have a candidate through the failed cable, four of
// them two.
const GOLDEN_GK_EXPLICIT_EDGES: u64 = 478259666085826298;
// Cold: lambda 3333238369.2772284 over 1171 phases, trees (72604, 0, 2340);
// warm: lambda 4950495049.504951 over 123 phases, trees (7872, 0, 0). Minted
// while each source's bundle held every switch's distance and parent.
const GOLDEN_GK_ISOLATED_TOR: u64 = 14209252456081626339;
const GOLDEN_ECMP_MAXMIN: u64 = 13167328887666313324;
// Pinned by the pre-calendar-queue BinaryHeap engine; the calendar/arena
// engine must reproduce it bit-for-bit.
const GOLDEN_SIM_FCT: u64 = 2982833380558106106;
// Minted with the calendar that sorted each opened 16.4 ns slot whole and
// heaped every event scheduled into it.
const GOLDEN_SIM_FCT_400G: u64 = 15479597210232354342;
// Minted at commit 3cb3e90 (PR 12), the last with the frozen BinaryHeap
// engine (`htsim/src/reference.rs`): it and the production engine produced
// these records field for field. With marking off the incast hashes to
// 13059643403910299804 (826 retransmits against 0), with the cable up the
// failover batch hashes to 6872668805703274398: both cases exercise what
// they name.
const GOLDEN_SIM_FCT_DCTCP: u64 = 16224481060384148449;
const GOLDEN_SIM_FCT_FAILOVER: u64 = 3790533921027936315;
