//! Property-based tests (proptest) over the core data structures and
//! invariants of the whole workspace.

use proptest::prelude::*;

use pnet::flowsim::{commodity, mcf, Commodity};
use pnet::htsim::{run_to_completion, CcAlgo, FlowSpec, SimConfig, Simulator};
use pnet::routing::{self, Parallelism, PlaneGraph, RouteAlgo, Router};
use pnet::topology::{
    assemble_homogeneous, failures, ChurnEvent, ChurnSchedule, FatTree, HostId, Jellyfish, LinkId,
    LinkProfile, Network, NodeKind, PlaneId, RackId, Xpander,
};
use pnet::workloads::sizes::EmpiricalCdf;

// ---------------------------------------------------------------------
// Topology invariants
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn jellyfish_always_regular_and_connected(
        n_tors in 4usize..40,
        degree in 2usize..6,
        seed in 0u64..1000,
    ) {
        prop_assume!(degree < n_tors);
        prop_assume!(n_tors * degree % 2 == 0);
        let jf = Jellyfish::new(n_tors, degree, 1, seed);
        let edges = jf.generate_edges();
        prop_assert_eq!(edges.len(), n_tors * degree / 2);
        let mut deg = vec![0usize; n_tors];
        for &(a, b) in &edges {
            prop_assert!(a != b);
            deg[a] += 1;
            deg[b] += 1;
        }
        prop_assert!(deg.iter().all(|&d| d == degree));
        let net = assemble_homogeneous(&jf, 1, &LinkProfile::paper_default());
        prop_assert!(net.plane_connects_all_hosts(PlaneId(0)));
    }

    #[test]
    fn xpander_lifts_stay_regular(degree in 3usize..6, lifts in 0u32..4, seed in 0u64..100) {
        let x = Xpander::new(degree, lifts, 1, seed);
        let edges = x.generate_edges();
        let n = x.n_tors();
        prop_assert_eq!(edges.len(), n * degree / 2);
        let mut deg = vec![0usize; n];
        let mut seen = std::collections::HashSet::new();
        for &(a, b) in &edges {
            prop_assert!(a != b, "self loop");
            let k = (a.min(b), a.max(b));
            prop_assert!(seen.insert(k), "multi-edge");
            deg[a] += 1;
            deg[b] += 1;
        }
        prop_assert!(deg.iter().all(|&d| d == degree));
    }

    #[test]
    fn multi_plane_assembly_validates(planes in 1usize..5, seed in 0u64..50) {
        let jf = Jellyfish::new(10, 3, 2, seed);
        let net = assemble_homogeneous(&jf, planes, &LinkProfile::paper_default());
        prop_assert_eq!(net.validate(), Ok(()));
        prop_assert_eq!(net.n_planes() as usize, planes);
        // One uplink per host per plane.
        for h in 0..net.n_hosts() {
            for p in net.planes() {
                prop_assert!(net.host_uplink(HostId(h as u32), p).is_some());
            }
        }
    }

    #[test]
    fn failure_injection_is_partial(frac in 0.0f64..1.0, seed in 0u64..50) {
        let mut net = assemble_homogeneous(
            &FatTree::three_tier(4), 2, &LinkProfile::paper_default());
        let total = failures::fabric_cables(&net, None).len();
        let failed = failures::fail_random_fraction(&mut net, frac, seed);
        prop_assert_eq!(failed.len(), failures::fraction_count(total, frac));
        // The integer-exact count stays within half a cable of len * frac.
        prop_assert!((failed.len() as f64 - total as f64 * frac).abs() <= 0.5 + 1e-6);
        failures::restore_all(&mut net);
        prop_assert_eq!(failures::failed_fraction(&net), 0.0);
    }
}

// ---------------------------------------------------------------------
// Routing invariants
// ---------------------------------------------------------------------

fn small_jellyfish(seed: u64) -> Network {
    assemble_homogeneous(
        &Jellyfish::new(12, 3, 1, seed),
        2,
        &LinkProfile::paper_default(),
    )
}

/// Every simple ToR-to-ToR path of the plane by exhaustive DFS, sorted by
/// (length, link ids): the canonical sequence `ksp` must emit a prefix of.
fn brute_force_paths(pg: &PlaneGraph, src: RackId, dst: RackId) -> Vec<Vec<LinkId>> {
    fn dfs(
        pg: &PlaneGraph,
        u: usize,
        t: usize,
        seen: &mut [bool],
        stack: &mut Vec<LinkId>,
        out: &mut Vec<Vec<LinkId>>,
    ) {
        if u == t {
            out.push(stack.clone());
            return;
        }
        for &(v, l) in pg.neighbors(u) {
            let v = v as usize;
            if !seen[v] {
                seen[v] = true;
                stack.push(l);
                dfs(pg, v, t, seen, stack, out);
                stack.pop();
                seen[v] = false;
            }
        }
    }
    let (s, t) = (pg.tor(src), pg.tor(dst));
    let mut seen = vec![false; pg.n_switches()];
    seen[s] = true;
    let mut all = Vec::new();
    dfs(pg, s, t, &mut seen, &mut Vec::new(), &mut all);
    all.sort_by(|a, b| a.len().cmp(&b.len()).then_with(|| a.cmp(b)));
    all
}

/// Plane 0's `src -> dst` entry of a K = `k` route table, as link lists.
fn ksp(net: &Network, src: RackId, dst: RackId, k: usize) -> Vec<Vec<LinkId>> {
    let router = Router::new(net, RouteAlgo::Ksp { k });
    let set = router.paths_in_plane(PlaneId(0), src, dst);
    set.iter().map(|p| p.links().collect()).collect()
}

/// Plane 0's K = `k` table entry is exactly the first `k` entries of the
/// brute-force list, link for link; returns how many simple paths there are.
fn assert_ksp_is_canonical(net: &Network, src: RackId, dst: RackId, k: usize) -> usize {
    let got = ksp(net, src, dst, k);
    let brute = brute_force_paths(&PlaneGraph::build(net, PlaneId(0)), src, dst);
    assert_eq!(
        got,
        brute[..k.min(brute.len())],
        "ksp diverged from the brute-force enumeration ({src}->{dst}, k={k})"
    );
    brute.len()
}

fn jellyfish_plane(tors: usize, degree: usize, seed: u64) -> Network {
    assemble_homogeneous(
        &Jellyfish::new(tors, degree, 1, seed),
        1,
        &LinkProfile::paper_default(),
    )
}

fn fat_tree_k4() -> Network {
    assemble_homogeneous(&FatTree::three_tier(4), 1, &LinkProfile::paper_default())
}

#[test]
fn ksp_is_canonical_on_fixed_graphs() {
    // Seeded Jellyfish of different degrees: different tier structures.
    for (tors, degree, seed, dst, k) in [
        (8, 3, 5, 5, 12),
        (8, 3, 11, 6, 10),
        (9, 4, 23, 4, 14),
        (10, 3, 47, 7, 12),
    ] {
        assert_ksp_is_canonical(
            &jellyfish_plane(tors, degree, seed),
            RackId(0),
            RackId(dst),
            k,
        );
    }
    // K far beyond the simple-path count of a sparse graph: the search runs
    // out of tiers before it reaches K, and the result is every simple path.
    let ring = jellyfish_plane(7, 2, 13);
    let n_paths = assert_ksp_is_canonical(&ring, RackId(0), RackId(3), 64);
    assert!((1..64).contains(&n_paths), "{n_paths} simple paths");
    // Fat tree: same-pod, adjacent-pod and far-pod destinations; k below, at
    // and above the equal-cost path count, where every tie-break is live.
    let net = fat_tree_k4();
    for dst in [1u32, 3, 7] {
        for k in [1usize, 4, 9, 16] {
            assert_ksp_is_canonical(&net, RackId(0), RackId(dst), k);
        }
    }
}

/// A pod left with one aggregation switch: that switch is a cut vertex, so
/// its two racks have one simple path between them however large K is — the
/// case on which enumerating by increasing length would walk every simple
/// prefix of the rest of the fabric.
#[test]
fn ksp_behind_a_cut_vertex_returns_the_one_path() {
    let mut net = fat_tree_k4();
    let (agg, _) = net
        .nodes()
        .find(|(_, n)| n.kind == NodeKind::Agg { pod: 0 })
        .unwrap();
    failures::fail_switch(&mut net, agg);
    assert_eq!(assert_ksp_is_canonical(&net, RackId(0), RackId(1), 32), 1);
    // The other pods are still reached, through the cut vertex.
    assert!(assert_ksp_is_canonical(&net, RackId(0), RackId(7), 32) >= 32);
}

#[test]
fn ksp_to_an_unreachable_rack_is_empty() {
    let mut net = fat_tree_k4();
    let tor = net.tor_of_rack(RackId(5), PlaneId(0)).unwrap();
    failures::fail_switch(&mut net, tor);
    assert!(ksp(&net, RackId(0), RackId(5), 8).is_empty());
    assert!(assert_ksp_is_canonical(&net, RackId(0), RackId(4), 8) >= 8);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Canonicity, not plausibility: on small random planes with up to 40 %
    /// of the cables failed, `ksp` is the brute-force list's prefix for K
    /// from 1 to beyond the number of simple paths.
    #[test]
    fn ksp_equals_brute_force_enumeration(
        fat_tree: bool,
        tors in 6usize..11,
        seed in 0u64..1000,
        fail in 0.0f64..0.4,
        a in 0u32..6, b in 0u32..6,
        k in 1usize..48,
        beyond: bool,
    ) {
        prop_assume!(a != b);
        let mut net = if fat_tree {
            fat_tree_k4()
        } else {
            // Degree 3 needs an even number of switches.
            let degree = if tors % 2 == 0 { 3 } else { 4 };
            assemble_homogeneous(
                &Jellyfish::new(tors, degree, 1, seed),
                1,
                &LinkProfile::paper_default(),
            )
        };
        failures::fail_random_fraction(&mut net, fail, seed);
        let n_paths = assert_ksp_is_canonical(&net, RackId(a), RackId(b), k);
        if beyond && n_paths < 400 {
            assert_ksp_is_canonical(&net, RackId(a), RackId(b), n_paths + 2);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn ksp_paths_sorted_simple_distinct(
        seed in 0u64..200, a in 0u32..12, b in 0u32..12, k in 1usize..12,
    ) {
        prop_assume!(a != b);
        let net = small_jellyfish(seed);
        let router = Router::new(&net, RouteAlgo::Ksp { k });
        let set = router.paths_in_plane(PlaneId(0), RackId(a), RackId(b));
        let paths: Vec<routing::Path> = set.iter().map(|p| p.to_path()).collect();
        prop_assert!(!paths.is_empty());
        prop_assert!(paths.len() <= k);
        for w in paths.windows(2) {
            prop_assert!(w[0].links.len() <= w[1].links.len(), "not sorted");
            prop_assert!(w[0].links != w[1].links, "duplicate");
        }
        for p in &paths {
            prop_assert!(p.validate(&net).is_ok(), "invalid path");
        }
        // First path length equals the hop table's distance.
        let pg = PlaneGraph::build(&net, PlaneId(0));
        let hops = pg.hops_to(pg.tor(RackId(b)))[pg.tor(RackId(a))];
        prop_assert_eq!(paths[0].links.len(), usize::from(hops));
    }

    #[test]
    fn cross_plane_merge_is_sorted_prefix_monotone(
        seed in 0u64..100, a in 0u32..12, b in 0u32..12,
    ) {
        prop_assume!(a != b);
        let net = small_jellyfish(seed);
        let router = Router::new(&net, RouteAlgo::Ksp { k: 6 });
        let k4 = router.k_best_across_planes(RackId(a), RackId(b), 4);
        let k8 = router.k_best_across_planes(RackId(a), RackId(b), 8);
        prop_assert_eq!(&k8[..4], &k4[..]);
        for w in k8.windows(2) {
            prop_assert!(w[0].links.len() <= w[1].links.len());
        }
    }

    #[test]
    fn rotate_ties_preserves_set_and_lengths(
        seed in 0u64..100, a in 0u32..12, b in 0u32..12, hash: u64,
    ) {
        prop_assume!(a != b);
        let net = small_jellyfish(seed);
        let router = Router::new(&net, RouteAlgo::Ksp { k: 8 });
        let orig = router.k_best_across_planes(RackId(a), RackId(b), 8);
        let order: Vec<usize> = routing::tie_rotated(&orig, hash).collect();
        // The positions are a permutation...
        let mut sorted = order.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..orig.len()).collect::<Vec<_>>());
        // ...that keeps the list sorted by length.
        for w in order.windows(2) {
            prop_assert!(orig[w[0]].links.len() <= orig[w[1]].links.len());
        }
    }

}

/// A shortest-first path list of one plane in route-table order (length,
/// then link ids), by `shape`: empty, a single path, `k` equally long paths,
/// a mixed list, and 32 paths that together fill the `u16` offset range.
/// Link ids lie within `u16::MAX` of a random base, as a plane's do.
fn sorted_paths(shape: u8, k: usize, len: usize, plane: u16, seed: u64) -> Vec<routing::Path> {
    let mut x = seed;
    let mut next = || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (x >> 33) as u32
    };
    let base = next();
    let lens: Vec<usize> = match shape {
        0 => Vec::new(),
        1 => vec![len],
        2 => vec![len; k],
        3 => (0..k).map(|_| 1 + next() as usize % len).collect(),
        _ => vec![2047; 32],
    };
    let mut path = |&len: &usize| routing::Path {
        plane: PlaneId(plane),
        links: (0..len).map(|_| LinkId(base + next() % 65_536)).collect(),
    };
    let mut paths: Vec<_> = lens.iter().map(&mut path).collect();
    paths.sort_by(|a, b| (a.links.len(), &a.links).cmp(&(b.links.len(), &b.links)));
    paths
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The flat route-table entry is its nested form, path for path, and
    /// every selector reads the same answer off either.
    #[test]
    fn path_set_equals_its_nested_form(
        shape in 0u8..5, k in 1usize..=32, len in 1usize..12, plane in 0u16..8,
        seed: u64, hash: u64,
    ) {
        use routing::{PathRef, PlanePaths};
        let nested = sorted_paths(shape, k, len, plane, seed);
        let set = PlanePaths::from(nested.as_slice());
        prop_assert_eq!(set.len(), nested.len());
        prop_assert_eq!(set.is_empty(), nested.is_empty());
        for (i, path) in nested.iter().enumerate() {
            prop_assert_eq!(set.get(i), PathRef::from(path));
        }
        let back: Vec<routing::Path> = set.iter().map(|p| p.to_path()).collect();
        prop_assert_eq!(&back, &nested);

        let rotated: Vec<usize> = set.tie_rotated(hash).collect();
        prop_assert_eq!(rotated, routing::tie_rotated(&nested, hash).collect::<Vec<_>>());
        // The slice form of `shortest_tier`.
        let tier = nested.iter().take_while(|p| p.links.len() == nested[0].links.len()).count();
        prop_assert_eq!(set.shortest_tier(), tier);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Incremental delta repair is *equivalent* to rebuilding: after any
    /// seeded random walk of cable down/up events, the live router's table
    /// fingerprint must be byte-identical to a from-scratch router built on
    /// the final link state — same path sets, same order, same tie-breaks.
    #[test]
    fn churn_refresh_matches_full_rebuild(
        seed in 0u64..60,
        n_events in 1usize..16,
        churn_seed in 0u64..60,
    ) {
        let mut net = small_jellyfish(seed);
        let router =
            Router::with_parallelism(&net, RouteAlgo::Ksp { k: 4 }, Parallelism::Serial);
        router.precompute_all_pairs_with(Parallelism::Serial);
        let sched = ChurnSchedule::random_walk(&net, n_events, 0.25, churn_seed);
        prop_assume!(!sched.events.is_empty());
        for &ev in &sched.events {
            ev.apply(&mut net);
            let stats = router.refresh(&net);
            prop_assert!(!stats.full_rebuild, "cable churn must take the delta path");
        }
        let fresh =
            Router::with_parallelism(&net, RouteAlgo::Ksp { k: 4 }, Parallelism::Serial);
        fresh.precompute_all_pairs_with(Parallelism::Serial);
        prop_assert_eq!(router.table_fingerprint(), fresh.table_fingerprint());
    }

    /// `ChurnEvent::Up` on a cable that was never failed is a deterministic
    /// no-op (`restore_cable` is an idempotent bool set): link state is
    /// untouched and the delta-repair path leaves the table fingerprint
    /// exactly where it was.
    #[test]
    fn up_on_healthy_cable_is_a_noop(seed in 0u64..40, pick in 0usize..64) {
        let mut net = small_jellyfish(seed);
        let cables = failures::fabric_cables(&net, None);
        let cable = cables[pick % cables.len()];
        let router =
            Router::with_parallelism(&net, RouteAlgo::Ksp { k: 4 }, Parallelism::Serial);
        router.precompute_all_pairs_with(Parallelism::Serial);
        let fp_before = router.table_fingerprint();
        let up_before: Vec<bool> = net.links().map(|(_, l)| l.up).collect();
        ChurnEvent::Up(cable).apply(&mut net);
        let up_after: Vec<bool> = net.links().map(|(_, l)| l.up).collect();
        prop_assert_eq!(up_before, up_after, "restoring a healthy cable flipped link state");
        let stats = router.refresh(&net);
        prop_assert!(!stats.full_rebuild, "a no-op event must not force a rebuild");
        prop_assert_eq!(
            router.table_fingerprint(), fp_before,
            "no-op churn moved the table fingerprint"
        );
    }

    /// `random_walk` with the concurrent-down cap floored at one cable must
    /// still emit exactly `n_events` events (a strict down/up alternation),
    /// never exceed the cap, and stay deterministic in the seed — no
    /// livelock, no panic when the cap leaves a single eligible cable.
    #[test]
    fn random_walk_cap_floor_still_makes_progress(
        seed in 0u64..40, walk_seed in 0u64..40,
    ) {
        let net = small_jellyfish(seed);
        // fraction 0.0 floors the cap at one concurrent down cable.
        let sched = ChurnSchedule::random_walk(&net, 12, 0.0, walk_seed);
        prop_assert_eq!(sched.events.len(), 12);
        let mut down = 0i64;
        for &ev in &sched.events {
            match ev {
                ChurnEvent::Down(_) => down += 1,
                ChurnEvent::Up(_) => down -= 1,
            }
            prop_assert!((0..=1).contains(&down), "cap floor of one exceeded");
        }
        let replay = ChurnSchedule::random_walk(&net, 12, 0.0, walk_seed);
        prop_assert_eq!(sched.events, replay.events);
    }

    /// With no fabric cables at all, neither direction has an eligible
    /// cable: the walk must terminate with an empty schedule rather than
    /// spinning or panicking on an empty sample range.
    #[test]
    fn random_walk_with_no_cables_is_an_empty_schedule(
        n_events in 0usize..32, walk_seed: u64,
    ) {
        let net = Network::default();
        let sched = ChurnSchedule::random_walk(&net, n_events, 0.5, walk_seed);
        prop_assert!(sched.events.is_empty());
    }

    #[test]
    fn host_routes_chain_endpoints(seed in 0u64..50, a in 0u32..12, b in 0u32..12) {
        prop_assume!(a != b);
        let net = small_jellyfish(seed);
        let router = Router::new(&net, RouteAlgo::Ksp { k: 4 });
        for p in router.k_best_across_planes(RackId(a), RackId(b), 4) {
            let route = routing::host_route(&net, HostId(a), HostId(b), &p).unwrap();
            prop_assert_eq!(net.link(route[0]).src, net.host_node(HostId(a)));
            prop_assert_eq!(net.link(*route.last().unwrap()).dst, net.host_node(HostId(b)));
            for w in route.windows(2) {
                prop_assert_eq!(net.link(w[0]).dst, net.link(w[1]).src);
            }
        }
    }
}

proptest! {
    // Eight (fabric, algorithm, mirror) combinations share the cases.
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The bulk fill computes one plane per shape class and writes the
    /// same-shape planes' sets off it; a lazy miss computes on the plane's own
    /// graph. Whatever mix of whole, cut and alike-cut planes the failures
    /// leave, the two tables are the same bytes.
    #[test]
    fn bulk_fill_equals_key_by_key_fill(
        seed in 0u64..60,
        frac in 0.0f64..0.4,
        fail_seed in 0u64..60,
        fat_tree: bool,
        ecmp: bool,
        mirror: bool,
    ) {
        let profile = LinkProfile::paper_default();
        let mut net = if fat_tree {
            assemble_homogeneous(&FatTree::three_tier(4), 2, &profile)
        } else {
            assemble_homogeneous(&Jellyfish::new(12, 3, 1, seed), 4, &profile)
        };
        failures::fail_random_fraction(&mut net, frac, fail_seed);
        if mirror {
            // Plane 1 cut exactly where plane 0 is: a class of their own.
            let [from, to] = [0, 1].map(|p| failures::fabric_cables(&net, Some(PlaneId(p))));
            for (c0, c1) in from.into_iter().zip(to) {
                if net.link(c0).up {
                    failures::restore_cable(&mut net, c1);
                } else {
                    failures::fail_cable(&mut net, c1);
                }
            }
        }
        let algo = if ecmp { RouteAlgo::Ecmp } else { RouteAlgo::Ksp { k: 6 } };
        let bulk = Router::new(&net, algo);
        bulk.precompute_all_pairs();
        let lazy = Router::new(&net, algo);
        let racks = lazy.n_racks() as u32;
        for p in net.planes() {
            for (a, b) in (0..racks).flat_map(|a| (0..racks).map(move |b| (a, b))) {
                if a != b {
                    lazy.paths_in_plane(p, RackId(a), RackId(b));
                }
            }
        }
        prop_assert_eq!(bulk.table_fingerprint(), lazy.table_fingerprint());
    }
}

// ---------------------------------------------------------------------
// Flow-level solver invariants
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn maxmin_always_feasible_and_fair(
        n_links in 1usize..8,
        n_flows in 1usize..10,
        seed: u64,
    ) {
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let caps: Vec<f64> = (0..n_links).map(|_| rng.random_range(1.0..100.0)).collect();
        let flows: Vec<Vec<usize>> = (0..n_flows)
            .map(|_| {
                let len = rng.random_range(1..=n_links);
                (0..len).map(|_| rng.random_range(0..n_links)).collect()
            })
            .collect();
        let rates = pnet::flowsim::maxmin::maxmin_rates(&caps, &flows);
        prop_assert!(pnet::flowsim::maxmin::is_maxmin_fair(&caps, &flows, &rates));
    }

    #[test]
    fn gk_solution_is_feasible_and_positive(seed in 0u64..50, eps in 0.05f64..0.3) {
        let net = small_jellyfish(seed);
        let c = commodity::all_to_all(6);
        let sol = mcf::solve(&net, &c, &mcf::PathMode::AnyPath, eps);
        prop_assert!(sol.lambda > 0.0);
        let caps = mcf::link_capacities(&net);
        for (f, cap) in sol.link_flow.iter().zip(&caps) {
            prop_assert!(*f <= cap * 1.000001 + 1.0, "infeasible: {f} > {cap}");
        }
        // Rates consistent with lambda.
        for (r, cm) in sol.rates.iter().zip(&c) {
            prop_assert!(*r >= sol.lambda * cm.demand * 0.999999);
        }
    }

    /// Warm-started GK after a churn walk lands within the pinned λ
    /// tolerance of a cold re-solve on the same link state, and stays a
    /// feasible primal (the congestion rescale guarantees that
    /// unconditionally, but pin it anyway).
    #[test]
    fn warm_gk_matches_cold_after_churn(seed in 0u64..20, churn_seed in 0u64..20) {
        let mut net = small_jellyfish(seed);
        let c = commodity::all_to_all(6);
        let base = mcf::solve(&net, &c, &mcf::PathMode::AnyPath, 0.1);
        ChurnSchedule::random_walk(&net, 6, 0.15, churn_seed).apply_all(&mut net);
        // AnyPath needs some plane to connect every commodity pair.
        prop_assume!(net.planes().any(|p| net.plane_connects_all_hosts(p)));
        let cold = mcf::solve(&net, &c, &mcf::PathMode::AnyPath, 0.1);
        let warm = mcf::solve_warm(&net, &c, &mcf::PathMode::AnyPath, 0.1, &base);
        prop_assert!(
            (warm.lambda - cold.lambda).abs() <= mcf::WARM_LAMBDA_TOLERANCE * cold.lambda,
            "warm λ {} vs cold λ {} exceeds the pinned tolerance",
            warm.lambda, cold.lambda
        );
        prop_assert!(warm.phases < cold.phases, "warm start saved no phases");
        let caps = mcf::link_capacities(&net);
        for (f, cap) in warm.link_flow.iter().zip(&caps) {
            prop_assert!(*f <= cap * 1.000001 + 1.0, "warm primal infeasible");
        }
    }

    #[test]
    fn gk_lambda_below_trivial_upper_bound(seed in 0u64..30) {
        // One commodity: lambda * d can never exceed the host uplink total.
        let net = small_jellyfish(seed);
        let c = vec![Commodity::unit(HostId(0), HostId(7))];
        let sol = mcf::solve(&net, &c, &mcf::PathMode::AnyPath, 0.1);
        let uplink_total = 2.0 * 100e9; // 2 planes x 100G
        prop_assert!(sol.rates[0] <= uplink_total * 1.001);
    }
}

// ---------------------------------------------------------------------
// Workload invariants
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn cdf_quantile_monotone_and_in_support(
        p1 in 0.001f64..1.0, p2 in 0.001f64..1.0,
    ) {
        let cdf = EmpiricalCdf::new(&[(1_000.0, 0.3), (50_000.0, 0.8), (2_000_000.0, 1.0)]);
        let (lo, hi) = (p1.min(p2), p1.max(p2));
        prop_assert!(cdf.quantile(lo) <= cdf.quantile(hi));
        prop_assert!(cdf.quantile(lo) >= 1_000);
        prop_assert!(cdf.quantile(hi) <= 2_000_000);
    }

    #[test]
    fn permutations_are_derangements(n in 2usize..60, seed: u64) {
        let p = pnet::workloads::tm::random_permutation(n, seed);
        let mut seen = vec![false; n];
        for (i, &j) in p.iter().enumerate() {
            prop_assert!(i != j);
            prop_assert!(!seen[j]);
            seen[j] = true;
        }
    }
}

// ---------------------------------------------------------------------
// Packet simulator invariants
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn every_flow_completes_with_conservation(
        seed in 0u64..30,
        n_flows in 1usize..8,
        size_kb in 1u64..500,
    ) {
        let net = small_jellyfish(seed);
        let router = Router::new(&net, RouteAlgo::Ksp { k: 2 });
        // Finished flows retire; their subflows' final state comes back as
        // one post-mortem record each.
        use pnet::htsim::{EventMask, TelemetryConfig, TraceRecord};
        let cfg = SimConfig {
            telemetry: TelemetryConfig {
                events: EventMask::SUBFLOW_FINISH,
                sample_interval: None,
            },
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(&net, cfg);
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for i in 0..n_flows {
            let a = rng.random_range(0..12u32);
            let mut b = rng.random_range(0..11u32);
            if b >= a { b += 1; }
            let paths = router.k_best_across_planes(RackId(a), RackId(b), 2);
            let routes: Vec<Vec<pnet::topology::LinkId>> = paths
                .iter()
                .filter_map(|p| routing::host_route(&net, HostId(a), HostId(b), p))
                .collect();
            sim.start_flow(FlowSpec {
                src: HostId(a),
                dst: HostId(b),
                size_bytes: size_kb * 1000,
                routes,
                cc: CcAlgo::Lia,
                owner_tag: i as u64,
            });
        }
        run_to_completion(&mut sim);
        prop_assert_eq!(sim.records.len(), n_flows, "some flow never finished");
        prop_assert_eq!(sim.live_conns(), 0, "a drained network holds no connection state");
        let post_mortems = sim.telemetry().expect("telemetry was enabled").records();
        for rec in &sim.records {
            prop_assert!(rec.finish >= rec.start);
            prop_assert!(sim.conn(rec.conn).is_none());
            // Conservation: every packet of the flow was assigned to exactly
            // one subflow's sequence space (and acked there, or the flow
            // would not have finished).
            let sent: u64 = post_mortems
                .iter()
                .map(|r| match *r {
                    TraceRecord::SubflowFinish { conn, highest_sent, .. }
                        if conn == u64::from(rec.conn.0) => highest_sent,
                    _ => 0,
                })
                .sum();
            prop_assert_eq!(sent, rec.size_bytes.div_ceil(1500));
        }
    }
}

// ---------------------------------------------------------------------
// Calendar event queue vs. reference binary-heap model
// ---------------------------------------------------------------------

use pnet::htsim::event::{Event, EventKind, EventQueue, CHUNK};
use pnet::htsim::SimTime;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The calendar/ladder queue must pop the exact sequence a binary heap
    /// ordered by (time, insertion seq) would: same times, same identities,
    /// for any interleaving of schedules and pops. AppTimer tags carry the
    /// identity; they double as the model's tie-break because they are
    /// assigned in schedule order. Offsets are relative to the time of the
    /// most recently popped event ("now"), mirroring the simulator's
    /// invariant that nothing is scheduled in the past, and span
    /// same-bucket (< 2^10 ps, the late heap), same-slot (2^10..2^14 ps,
    /// `later`), nearby-slot, same-window (< ~67 us) and far-future
    /// (overflow ladder) distances, plus same-timestamp bursts.
    ///
    /// After every op the calendar's memory bound (event.rs module docs) is
    /// checked through its one accessor: chunks of `CHUNK` events hold the
    /// staged events with under a chunk of slack per occupied slot, and
    /// `open`, `later` and the drain at most twice the largest slot load
    /// (or two chunks) each, so `staged_capacity()` stays within
    /// `pending + CHUNK × occupied + 6 × max(load, CHUNK)` at the peaks of
    /// the run. The model over-counts all three peaks from the pending set
    /// alone — every pending event, distinct 2^14 ps slots, and the most
    /// events sharing one — so the bound holds whatever the window does.
    #[test]
    fn calendar_queue_matches_binary_heap_model(
        seed in 0u64..400,
        n_ops in 1usize..400,
    ) {
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);

        let mut q = EventQueue::new();
        let mut model: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        let mut now = 0u64;
        let mut next_tag = 0u64;
        let mut slots: BTreeMap<u64, usize> = BTreeMap::new();
        let (mut peak_pending, mut peak_slots, mut peak_load) = (0usize, 0usize, 0usize);

        let check_pop = |got: Option<Event>, want: Option<(u64, u64)>|
         -> Result<Option<u64>, TestCaseError> {
            match (got, want) {
                (None, None) => Ok(None),
                (Some(ev), Some((t, tag))) => {
                    prop_assert_eq!(ev.time, SimTime::from_ps(t));
                    let EventKind::AppTimer { tag: got_tag, .. } = ev.kind else {
                        panic!("queue returned a non-AppTimer event");
                    };
                    prop_assert_eq!(got_tag, tag);
                    Ok(Some(t))
                }
                (got, want) => {
                    prop_assert!(false, "pop disagreement: got {:?}, want {:?}", got, want);
                    Ok(None)
                }
            }
        };

        let unstage = |slots: &mut BTreeMap<u64, usize>, t: u64| {
            let load = slots.get_mut(&(t >> 14)).expect("popped event was pending");
            *load -= 1;
            if *load == 0 {
                slots.remove(&(t >> 14));
            }
        };

        for _ in 0..n_ops {
            match rng.random_range(0..14u32) {
                // Schedule: bucket-, slot-, window- and ladder-scale offsets;
                // roll 2 schedules a burst at one timestamp.
                roll @ 0..=8 => {
                    let offset = match roll {
                        0 => rng.random_range(0..1u64 << 10),
                        1 => rng.random_range(1u64 << 10..1 << 14),
                        2 => rng.random_range(0..1u64 << 14),
                        3 | 4 => rng.random_range(0..100_000u64),
                        5 | 6 => rng.random_range(0..70_000_000u64),
                        _ => rng.random_range(0..10_000_000_000u64),
                    };
                    let at = now + offset;
                    let copies = if roll == 2 { rng.random_range(2..24usize) } else { 1 };
                    for _ in 0..copies {
                        q.schedule(
                            SimTime::from_ps(at),
                            EventKind::AppTimer { app: 0, tag: next_tag },
                        );
                        model.push(Reverse((at, next_tag)));
                        next_tag += 1;
                        let load = slots.entry(at >> 14).or_default();
                        *load += 1;
                        peak_load = peak_load.max(*load);
                        peak_slots = peak_slots.max(slots.len());
                        peak_pending = peak_pending.max(model.len());
                    }
                }
                _ => {
                    prop_assert_eq!(
                        q.peek_time(),
                        model.peek().map(|Reverse((t, _))| SimTime::from_ps(*t))
                    );
                    let want = model.pop().map(|Reverse(e)| e);
                    if let Some(t) = check_pop(q.pop(), want)? {
                        now = t;
                        unstage(&mut slots, t);
                    }
                }
            }
            prop_assert_eq!(q.len(), model.len());
            prop_assert!(
                q.staged_capacity()
                    <= peak_pending + CHUNK * peak_slots + 6 * peak_load.max(CHUNK),
                "{} events of capacity for {} pending over {} slots of at most {}",
                q.staged_capacity(), peak_pending, peak_slots, peak_load
            );
        }

        // Drain both to the end: the tails must agree too.
        while let Some(want) = model.pop().map(|Reverse(e)| e) {
            if let Some(t) = check_pop(q.pop(), Some(want))? {
                now = t;
            }
        }
        let _ = now;
        prop_assert!(q.pop().is_none());
        prop_assert!(q.is_empty());
        prop_assert_eq!(q.dispatched(), next_tag);
    }
}
