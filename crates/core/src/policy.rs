//! Path-selection policies: how a P-Net end host picks dataplane(s) and
//! path(s) for each flow (sections 3.4 and 4 of the paper). Each leaf
//! policy is one rule of `pnet_routing::choice`; the two wrappers dispatch
//! on flow size (the paper's section 5.1.2 rule: "flows smaller than or
//! equal to 100 MB ... should use single-path routing; flows larger than or
//! equal to 1 GB ... multipath") and narrow the planes.

use pnet_htsim::CcAlgo;
use pnet_routing::{hash_plane, subflow_width, Flow, RouteAlgo, Router};
use pnet_topology::{HostId, LinkId, Network, PlaneId};

/// A path-selection policy.
#[derive(Debug, Clone)]
pub enum PathPolicy {
    /// Hash → plane, hash → ECMP path: the "naive" baseline whose failure on
    /// sparse traffic motivates the paper (Figure 6b). Single subflow, Reno.
    EcmpHash,
    /// Planes in round-robin order per flow ("by default, round-robin is
    /// used for load balancing"); a hash pick among the plane's shortest paths.
    RoundRobin,
    /// The *low-latency* interface: the plane with the fewest switch hops to
    /// the destination (section 5.2.1); a hash pick among its shortest paths.
    ShortestPlane,
    /// The *high-throughput* interface: MPTCP (LIA) over the `k` globally
    /// shortest paths across planes.
    MultipathKsp { k: usize },
    /// MPTCP (LIA) with `per_plane` subflows in *every* usable plane, each on
    /// that plane's shortest paths: the natural path manager when each plane
    /// is a separate interface, and the paper's "4-way KSP on a 4-plane
    /// P-Net" small-flow configuration.
    PlaneKsp { per_plane: usize },
    /// Below `cutoff_bytes` (inclusive) use `small`, above it `large`.
    SizeThreshold {
        cutoff_bytes: u64,
        small: Box<PathPolicy>,
        large: Box<PathPolicy>,
    },
    /// Restrict `inner` to a subset of planes, the paper's *performance
    /// isolation* (section 7): "user-facing frontend traffic can be assigned
    /// to one dataplane, and background data analysis traffic ... to another".
    Pinned {
        planes: Vec<u16>,
        inner: Box<PathPolicy>,
    },
}

impl PathPolicy {
    /// The paper's recommended host default: 100 MB cutoff between
    /// single-path (shortest-plane) and multipath (`k`-way KSP).
    pub fn paper_default(k: usize) -> PathPolicy {
        PathPolicy::SizeThreshold {
            cutoff_bytes: 100_000_000,
            small: Box::new(PathPolicy::ShortestPlane),
            large: Box::new(PathPolicy::MultipathKsp { k }),
        }
    }

    /// The narrowest route table that answers every select as a 32-wide KSP
    /// table would. Rules that read only shortest tiers get ECMP capped at
    /// 32: an ECMP entry is the first tier cut at its cap, the prefix a
    /// KSP-32 entry starts with. The subflow rules get KSP as wide as they
    /// fetch, at least 32.
    pub fn route_algo(&self) -> RouteAlgo {
        let shortest = RouteAlgo::Ecmp { cap: 32 };
        let ksp = |k: usize| RouteAlgo::Ksp { k: k.max(32) };
        match self {
            PathPolicy::EcmpHash | PathPolicy::RoundRobin | PathPolicy::ShortestPlane => shortest,
            PathPolicy::PlaneKsp { per_plane: 1 } => shortest,
            PathPolicy::PlaneKsp { per_plane } => ksp(*per_plane),
            PathPolicy::MultipathKsp { k } => ksp(subflow_width(*k)),
            PathPolicy::SizeThreshold { small, large, .. } => {
                match (small.route_algo(), large.route_algo()) {
                    (RouteAlgo::Ecmp { .. }, RouteAlgo::Ecmp { .. }) => shortest,
                    (a, b) => ksp(a.per_plane_limit().max(b.per_plane_limit())),
                }
            }
            PathPolicy::Pinned { inner, .. } => inner.route_algo(),
        }
    }
}

/// A stateful selector binding a policy to a router over its network.
pub struct PathSelector {
    router: Router,
    policy: PathPolicy,
    rr: u64,
}

impl PathSelector {
    /// A selector for `policy` over `net`'s current link state, with a
    /// router that holds the paths the policy reads
    /// ([`PathPolicy::route_algo`]) and no others.
    pub fn new(net: &Network, policy: PathPolicy) -> Self {
        PathSelector {
            router: Router::new(net, policy.route_algo()),
            policy,
            rr: 0,
        }
    }

    /// Fill the router's all-pairs route table, so that
    /// [`PathSelector::select`] never pays a lazy path search.
    pub fn warm(&self) {
        self.router.precompute_all_pairs();
    }

    /// Select subflow routes and a congestion controller for a flow.
    ///
    /// # Panics
    /// If no usable plane connects the two hosts: every plane the policy may
    /// use has a dead uplink at either end, or no path between the racks.
    pub fn select(
        &mut self,
        net: &Network,
        src: HostId,
        dst: HostId,
        flow_id: u64,
        size_bytes: u64,
    ) -> (Vec<Vec<LinkId>>, CcAlgo) {
        let flow = Flow::new(net, src, dst, flow_id);
        let (routes, cc) = place(&self.router, flow, &self.policy, &mut self.rr, size_bytes);
        assert!(!routes.is_empty(), "no usable route {src}->{dst}");
        (routes, cc)
    }
}

/// Place `flow` by `policy`: a leaf is one `pnet_routing::choice` rule, a
/// wrapper picks the leaf by size or narrows the flow's planes.
pub(crate) fn place(
    router: &Router,
    flow: Flow<'_>,
    policy: &PathPolicy,
    rr: &mut u64,
    size_bytes: u64,
) -> (Vec<Vec<LinkId>>, CcAlgo) {
    let n_planes = flow.net.n_planes();
    let single = |route: Option<Vec<LinkId>>| (route.into_iter().collect(), CcAlgo::Reno);
    match policy {
        PathPolicy::EcmpHash => single(router.hashed_route(flow, hash_plane(n_planes, flow.hash))),
        PathPolicy::RoundRobin => {
            let preferred = PlaneId((*rr % u64::from(n_planes)) as u16);
            *rr += 1;
            single(router.hashed_route(flow, preferred))
        }
        PathPolicy::ShortestPlane => single(router.shortest_plane_route(flow)),
        PathPolicy::MultipathKsp { k } => (router.subflows(flow, *k), CcAlgo::Lia),
        PathPolicy::PlaneKsp { per_plane } => {
            (router.plane_subflows(flow, *per_plane), CcAlgo::Lia)
        }
        PathPolicy::SizeThreshold {
            cutoff_bytes,
            small,
            large,
        } => {
            let inner = if size_bytes <= *cutoff_bytes {
                small
            } else {
                large
            };
            place(router, flow, inner, rr, size_bytes)
        }
        PathPolicy::Pinned { planes, inner } => {
            assert!(!planes.is_empty(), "Pinned needs at least one plane");
            let pinned = Flow {
                planes: Some(planes),
                ..flow
            };
            place(router, pinned, inner, rr, size_bytes)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnet_routing::{subflow_width, Parallelism, RouteAlgo};
    use pnet_topology::{
        assemble_homogeneous, failures, parallel, FatTree, Jellyfish, LinkProfile, NetworkClass,
    };

    fn par4() -> Network {
        assemble_homogeneous(&FatTree::three_tier(4), 4, &LinkProfile::paper_default())
    }

    #[test]
    fn ecmp_hash_is_per_flow_stable() {
        let net = par4();
        let mut s = PathSelector::new(&net, PathPolicy::EcmpHash);
        let (a, cc) = s.select(&net, HostId(0), HostId(15), 7, 1000);
        let (b, _) = s.select(&net, HostId(0), HostId(15), 7, 1000);
        assert_eq!(a, b, "same flow id must map to the same path");
        assert_eq!(a.len(), 1);
        assert_eq!(cc, CcAlgo::Reno);
    }

    #[test]
    fn ecmp_hash_spreads_flows_over_planes() {
        let net = par4();
        let mut s = PathSelector::new(&net, PathPolicy::EcmpHash);
        let mut planes_seen = std::collections::HashSet::new();
        for f in 0..64 {
            let (routes, _) = s.select(&net, HostId(0), HostId(15), f, 1000);
            let plane = net.link(routes[0][0]).plane;
            planes_seen.insert(plane);
        }
        assert_eq!(planes_seen.len(), 4, "hash should hit all 4 planes");
    }

    #[test]
    fn round_robin_cycles_planes() {
        let net = par4();
        let mut s = PathSelector::new(&net, PathPolicy::RoundRobin);
        let planes: Vec<u16> = (0..8)
            .map(|f| {
                let (routes, _) = s.select(&net, HostId(0), HostId(15), f, 1000);
                net.link(routes[0][0]).plane.0
            })
            .collect();
        assert_eq!(planes, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn multipath_uses_all_planes() {
        let net = par4();
        let mut s = PathSelector::new(&net, PathPolicy::MultipathKsp { k: 16 });
        let (routes, cc) = s.select(&net, HostId(0), HostId(15), 0, 1 << 31);
        assert_eq!(routes.len(), 16);
        assert_eq!(cc, CcAlgo::Lia);
        let planes: std::collections::HashSet<u16> =
            routes.iter().map(|r| net.link(r[0]).plane.0).collect();
        assert_eq!(planes.len(), 4, "16 best paths should span all 4 planes");
    }

    #[test]
    fn shortest_plane_picks_minimum_hops() {
        // Heterogeneous Jellyfish: the chosen plane must match the min over
        // planes of the shortest-path length.
        let proto = Jellyfish::new(16, 4, 2, 0);
        let net = parallel::jellyfish_network(
            NetworkClass::ParallelHeterogeneous,
            proto,
            4,
            3,
            &LinkProfile::paper_default(),
        );
        let mut s = PathSelector::new(&net, PathPolicy::ShortestPlane);
        let check = Router::new(&net, RouteAlgo::Ksp { k: 1 });
        for (a, b) in [(0u32, 20u32), (3, 17), (5, 30), (9, 12)] {
            let (routes, _) = s.select(&net, HostId(a), HostId(b), 0, 1000);
            let hops = routes[0].len() - 1;
            let (ra, rb) = (net.rack_of_host(HostId(a)), net.rack_of_host(HostId(b)));
            let best = net.planes().filter_map(|p| {
                let set = check.paths_in_plane(p, ra, rb);
                (!set.is_empty()).then(|| set.get(0).n_links() + 1)
            });
            assert_eq!(Some(hops), best.min(), "pair ({a},{b})");
        }
    }

    /// One rule, same answer: the routes the flow solver builds for
    /// commodity `i` are the ones the selector picks for flow id `i`, under
    /// each of the five leaf rules, on 4- and 2-plane heterogeneous Jellyfish
    /// with host 0's plane-0 uplink dead. The solver side is
    /// `mcf::commodity_routes` with the rule's flow-level twin, over the
    /// solver's own tables: `subflow_width(k)`-wide KSP for `MultipathKsp`
    /// (as `mcf::ksp_mode`), KSP-32 for `PlaneKsp { per_plane: 2 }`, and for
    /// the shortest-tier rules ECMP capped at 64 (as
    /// `throughput::ecmp_throughput`), whose answers agree with the
    /// selector's ECMP-32 table because every shortest tier here holds fewer
    /// than 32 paths. Commodity `i` is the selector's `i`-th select, so
    /// `RoundRobin`'s counter reads `i`. At K = 24 and 32 the selector reads
    /// past 32 paths per plane, as wide as the solver. The solver fans out
    /// over the pool (`RAYON_NUM_THREADS`), the selector is serial.
    #[test]
    fn the_flow_solver_and_the_selector_choose_the_same_routes() {
        use pnet_flowsim::{commodity, mcf::commodity_routes};
        let c = commodity::all_to_all(12);
        let par = Parallelism::default();
        for planes in [4, 2] {
            let mut net = parallel::jellyfish_network(
                NetworkClass::ParallelHeterogeneous,
                Jellyfish::new(16, 4, 2, 5),
                planes,
                5,
                &LinkProfile::paper_default(),
            );
            let up = net.host_uplink(HostId(0), PlaneId(0)).unwrap();
            failures::fail_cable(&mut net, up);
            let wide = Router::new(&net, RouteAlgo::Ksp { k: 32 });
            for (a, b) in c
                .iter()
                .map(|c| (net.rack_of_host(c.src), net.rack_of_host(c.dst)))
            {
                for plane in net.planes() {
                    assert!(wide.paths_in_plane(plane, a, b).shortest_tier() < 32);
                }
            }
            let same = |policy: PathPolicy, solver: Vec<Vec<Vec<LinkId>>>| {
                let mut s = PathSelector::new(&net, policy.clone());
                for (i, c) in c.iter().enumerate() {
                    let (routes, _) = s.select(&net, c.src, c.dst, i as u64, 1 << 20);
                    assert!(!routes.is_empty());
                    assert_eq!(
                        routes, solver[i],
                        "{planes} planes, {policy:?}, commodity {i}"
                    );
                }
            };
            type Rule<'r> = dyn Fn(usize, Flow<'_>) -> Vec<Vec<LinkId>> + Sync + 'r;
            let twin =
                |router: &Router, rule: &Rule<'_>| commodity_routes(&net, router, &c, par, rule);
            for k in [4, 8, 16, 24, 32] {
                let width = subflow_width(k);
                let ksp = Router::new(&net, RouteAlgo::Ksp { k: width });
                let subflows = twin(&ksp, &|_, flow| ksp.subflows(flow, k));
                same(PathPolicy::MultipathKsp { k }, subflows);
            }
            let plane_subflows = twin(&wide, &|_, flow| wide.plane_subflows(flow, 2));
            same(PathPolicy::PlaneKsp { per_plane: 2 }, plane_subflows);

            let ecmp = Router::new(&net, RouteAlgo::Ecmp { cap: 64 });
            let n = net.n_planes();
            let one = |route: Option<Vec<LinkId>>| route.into_iter().collect();
            let hashed = twin(&ecmp, &|_, flow| {
                one(ecmp.hashed_route(flow, hash_plane(n, flow.hash)))
            });
            same(PathPolicy::EcmpHash, hashed);
            let round_robin = twin(&ecmp, &|i, flow| {
                one(ecmp.hashed_route(flow, PlaneId((i % usize::from(n)) as u16)))
            });
            same(PathPolicy::RoundRobin, round_robin);
            let shortest = twin(&ecmp, &|_, flow| one(ecmp.shortest_plane_route(flow)));
            same(PathPolicy::ShortestPlane, shortest);
            let per_plane = twin(&ecmp, &|_, flow| ecmp.plane_subflows(flow, 1));
            same(PathPolicy::PlaneKsp { per_plane: 1 }, per_plane);
        }
    }

    #[test]
    fn size_threshold_dispatches() {
        let net = par4();
        let mut s = PathSelector::new(&net, PathPolicy::paper_default(16));
        let (small, cc_small) = s.select(&net, HostId(0), HostId(15), 0, 1_000_000);
        let (large, cc_large) = s.select(&net, HostId(0), HostId(15), 0, 2_000_000_000);
        assert_eq!(small.len(), 1);
        assert_eq!(cc_small, CcAlgo::Reno);
        assert!(large.len() > 1);
        assert_eq!(cc_large, CcAlgo::Lia);
    }

    #[test]
    fn intra_rack_flows_work_under_all_policies() {
        let net = par4();
        for policy in [
            PathPolicy::EcmpHash,
            PathPolicy::RoundRobin,
            PathPolicy::ShortestPlane,
            PathPolicy::MultipathKsp { k: 8 },
        ] {
            let mut s = PathSelector::new(&net, policy);
            let (routes, _) = s.select(&net, HostId(0), HostId(1), 0, 1000);
            for r in &routes {
                assert_eq!(r.len(), 2, "intra-rack route is up+down");
            }
        }
    }

    #[test]
    fn pinned_policy_confines_traffic() {
        let net = par4();
        // Frontend pinned to plane 0; background pinned to planes 1-3.
        let mut frontend = PathSelector::new(
            &net,
            PathPolicy::Pinned {
                planes: vec![0],
                inner: Box::new(PathPolicy::EcmpHash),
            },
        );
        let mut background = PathSelector::new(
            &net,
            PathPolicy::Pinned {
                planes: vec![1, 2, 3],
                inner: Box::new(PathPolicy::MultipathKsp { k: 12 }),
            },
        );
        for f in 0..32 {
            let (routes, _) = frontend.select(&net, HostId(0), HostId(15), f, 1000);
            assert_eq!(net.link(routes[0][0]).plane, PlaneId(0));
            let (routes, _) = background.select(&net, HostId(0), HostId(15), f, 1 << 31);
            for r in &routes {
                assert_ne!(
                    net.link(r[0]).plane,
                    PlaneId(0),
                    "background leaked onto plane 0"
                );
            }
        }
    }

    #[test]
    fn pinned_mask_does_not_leak_across_selects() {
        let net = par4();
        let mut s = PathSelector::new(
            &net,
            PathPolicy::SizeThreshold {
                cutoff_bytes: 1000,
                small: Box::new(PathPolicy::Pinned {
                    planes: vec![0],
                    inner: Box::new(PathPolicy::EcmpHash),
                }),
                large: Box::new(PathPolicy::MultipathKsp { k: 16 }),
            },
        );
        let (_small, _) = s.select(&net, HostId(0), HostId(15), 1, 500);
        // Large flows after a pinned select must see all planes again.
        let (large, _) = s.select(&net, HostId(0), HostId(15), 2, 1_000_000);
        let planes: std::collections::HashSet<u16> =
            large.iter().map(|r| net.link(r[0]).plane.0).collect();
        assert_eq!(planes.len(), 4, "mask leaked: {planes:?}");
    }

    #[test]
    fn failure_masking_avoids_dead_plane() {
        let mut net = par4();
        // Fail host 0's uplink into plane 0.
        let up = net.host_uplink(HostId(0), PlaneId(0)).unwrap();
        pnet_topology::failures::fail_cable(&mut net, up);
        let mut s = PathSelector::new(&net, PathPolicy::EcmpHash);
        for f in 0..32 {
            let (routes, _) = s.select(&net, HostId(0), HostId(15), f, 1000);
            assert_ne!(
                net.link(routes[0][0]).plane,
                PlaneId(0),
                "flow hashed onto the dead plane"
            );
        }
    }

    /// `inner` pinned to plane 2 after host 0's plane-2 uplink failed: no
    /// plane is usable, so `select` panics with its documented message.
    fn select_on_dead_pinned_plane(inner: PathPolicy, dst: HostId) {
        let mut net = par4();
        let up = net.host_uplink(HostId(0), PlaneId(2)).unwrap();
        pnet_topology::failures::fail_cable(&mut net, up);
        let pinned = PathPolicy::Pinned {
            planes: vec![2],
            inner: Box::new(inner),
        };
        PathSelector::new(&net, pinned).select(&net, HostId(0), dst, 0, 1000);
    }

    #[test]
    #[should_panic(expected = "no usable route")]
    fn ecmp_hash_with_no_usable_plane_panics_as_documented() {
        select_on_dead_pinned_plane(PathPolicy::EcmpHash, HostId(15));
    }

    #[test]
    #[should_panic(expected = "no usable route")]
    fn round_robin_with_no_usable_plane_panics_as_documented() {
        select_on_dead_pinned_plane(PathPolicy::RoundRobin, HostId(15));
    }

    #[test]
    #[should_panic(expected = "no usable route")]
    fn intra_rack_shortest_plane_with_no_usable_plane_panics_as_documented() {
        select_on_dead_pinned_plane(PathPolicy::ShortestPlane, HostId(1));
    }
}
