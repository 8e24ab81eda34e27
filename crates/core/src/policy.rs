//! Path-selection policies: how a P-Net end host picks dataplane(s) and
//! path(s) for each flow (sections 3.4 and 4 of the paper).
//!
//! * [`PathPolicy::EcmpHash`] — hash the flow onto one plane, then onto one
//!   equal-cost shortest path inside it. The "naive" baseline whose failure
//!   on sparse traffic motivates the paper (Figure 6b).
//! * [`PathPolicy::RoundRobin`] — cycle planes per flow ("by default,
//!   round-robin is used for load balancing").
//! * [`PathPolicy::ShortestPlane`] — the *low-latency* pseudo interface:
//!   send on the plane with the fewest hops to this destination — the
//!   heterogeneous P-Net advantage (section 5.2.1).
//! * [`PathPolicy::MultipathKsp`] — the *high-throughput* interface: MPTCP
//!   subflows over the K globally shortest paths across all planes.
//! * [`PathPolicy::SizeThreshold`] — the paper's empirical rule from
//!   section 5.1.2: small flows use single-path, large flows multipath
//!   ("flows smaller than or equal to 100 MB ... should use single-path
//!   routing; flows larger than or equal to 1 GB ... multipath").

use pnet_htsim::CcAlgo;
use pnet_routing::{
    flow_hash, hash_index, hash_plane, hash_select, host_route, tie_rotated, Path, PathRef, Router,
};
use pnet_topology::{HostId, LinkId, Network, PlaneId, RackId};

/// A path-selection policy.
#[derive(Debug, Clone)]
pub enum PathPolicy {
    /// Hash → plane, hash → ECMP path. Single subflow, Reno.
    EcmpHash,
    /// Planes in round-robin order per flow; shortest path within the
    /// chosen plane (hash-balanced over equal-cost candidates).
    RoundRobin,
    /// The plane with the fewest switch hops to the destination; shortest
    /// path within it (hash-balanced over equal-cost candidates).
    ShortestPlane,
    /// MPTCP (LIA) over the `k` globally shortest paths across planes.
    MultipathKsp { k: usize },
    /// MPTCP (LIA) with `per_plane` subflows in *every* usable plane (each
    /// on that plane's shortest paths). Where `MultipathKsp` can put several
    /// subflows in one plane, sharing its host uplink, this spreads the
    /// subflow set over all planes — the natural MPTCP path-manager
    /// behaviour when each plane is a separate interface/IP, and the
    /// configuration behind the paper's "4-way KSP on a 4-plane P-Net"
    /// small-flow results.
    PlaneKsp { per_plane: usize },
    /// Dispatch on flow size: below `cutoff_bytes` use `small`, at or above
    /// use `large`.
    SizeThreshold {
        cutoff_bytes: u64,
        small: Box<PathPolicy>,
        large: Box<PathPolicy>,
    },
    /// Restrict `inner` to a subset of planes — the paper's *performance
    /// isolation* (section 7): "operators can assign different traffic
    /// classes to different dataplanes... user-facing frontend traffic can
    /// be assigned to one dataplane, and background data analysis traffic
    /// can be assigned to another".
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
}

/// A stateful selector binding a policy to a network's router.
pub struct PathSelector {
    router: Router,
    policy: PathPolicy,
    rr: u64,
}

impl PathSelector {
    /// Create a selector. `router` should be built with an algorithm
    /// compatible with the policy (KSP with a large enough k covers all
    /// policies; see [`crate::pnet::PNet::selector`]).
    pub fn new(router: Router, policy: PathPolicy) -> Self {
        PathSelector {
            router,
            policy,
            rr: 0,
        }
    }

    /// Access the underlying router.
    pub fn router(&self) -> &Router {
        &self.router
    }

    /// Bulk-precompute the router's all-pairs route table in parallel, so
    /// subsequent [`PathSelector::select`] calls never pay the lazy
    /// per-pair path search.
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
        let flow = Flow {
            router: &self.router,
            net,
            src,
            dst,
            ra: net.rack_of_host(src),
            rb: net.rack_of_host(dst),
            hash: flow_hash(src, dst, flow_id),
            pinned: None,
        };
        let (routes, cc) = flow.place(&self.policy, &mut self.rr, size_bytes);
        assert!(!routes.is_empty(), "no usable route {src}->{dst}");
        (routes, cc)
    }
}

/// One flow being placed: the fabric, the flow's endpoints and hash, and the
/// planes its policy may use. Route-table path sets are read in place; only
/// the host routes handed back are built.
#[derive(Clone, Copy)]
struct Flow<'a> {
    router: &'a Router,
    net: &'a Network,
    src: HostId,
    dst: HostId,
    ra: RackId,
    rb: RackId,
    hash: u64,
    /// When set (by [`PathPolicy::Pinned`]), only these planes are usable.
    pinned: Option<&'a [u16]>,
}

impl<'a> Flow<'a> {
    fn place(
        self,
        policy: &'a PathPolicy,
        rr: &mut u64,
        size_bytes: u64,
    ) -> (Vec<Vec<LinkId>>, CcAlgo) {
        let (ra, rb, h) = (self.ra, self.rb, self.hash);
        match policy {
            PathPolicy::EcmpHash => {
                let plane = self.usable_plane(hash_plane(self.net.n_planes(), h));
                (self.single_route_in(plane), CcAlgo::Reno)
            }
            PathPolicy::RoundRobin => {
                let start = PlaneId((*rr % self.net.n_planes() as u64) as u16);
                *rr += 1;
                (self.single_route_in(self.usable_plane(start)), CcAlgo::Reno)
            }
            PathPolicy::ShortestPlane => (self.shortest_plane_route(), CcAlgo::Reno),
            PathPolicy::MultipathKsp { k } => {
                if ra == rb {
                    return (self.intra_rack_routes(), CcAlgo::Lia);
                }
                // Wide fetch, per-flow hash rotation of equal-cost ties,
                // then truncate: flows between the same racks get
                // *different* shortest-path subsets.
                let mut ps = self.router.k_best_across_planes(ra, rb, 2 * *k);
                ps.retain(|p| self.plane_usable(p.plane));
                let best = tie_rotated(&ps, h).take(*k);
                (
                    best.filter_map(|i| self.route(&ps[i])).collect(),
                    CcAlgo::Lia,
                )
            }
            PathPolicy::PlaneKsp { per_plane } => {
                if ra == rb {
                    return (self.intra_rack_routes(), CcAlgo::Lia);
                }
                let mut routes = Vec::new();
                for plane in self.usable_planes() {
                    let set = self.router.paths_in_plane(plane, ra, rb);
                    let best = set.tie_rotated(h ^ plane.0 as u64).take(*per_plane);
                    routes.extend(best.filter_map(|i| self.route(set.get(i))));
                }
                (routes, CcAlgo::Lia)
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
                self.place(inner, rr, size_bytes)
            }
            PathPolicy::Pinned { planes, inner } => {
                assert!(!planes.is_empty(), "Pinned needs at least one plane");
                let pinned = Flow {
                    pinned: Some(planes),
                    ..self
                };
                pinned.place(inner, rr, size_bytes)
            }
        }
    }

    /// The host route along `path`, if both hosts are attached to its plane.
    fn route<'p>(&self, path: impl Into<PathRef<'p>>) -> Option<Vec<LinkId>> {
        host_route(self.net, self.src, self.dst, path)
    }

    /// Same-rack flows: one up-down route through every usable plane's ToR.
    fn intra_rack_routes(&self) -> Vec<Vec<LinkId>> {
        let planes = self.usable_planes();
        let routes = planes.map(|plane| self.route(&Path::intra_rack(plane)));
        routes.flatten().collect()
    }

    /// A single route within `plane`: intra-rack, or hash-selected among the
    /// plane's shortest paths, so "single path" means "a shortest path" for
    /// every policy. No route when no plane is usable.
    fn single_route_in(&self, plane: Option<PlaneId>) -> Vec<Vec<LinkId>> {
        let Some(plane) = plane else {
            return Vec::new();
        };
        if self.ra == self.rb {
            return self.route(&Path::intra_rack(plane)).into_iter().collect();
        }
        let set = self.router.paths_in_plane(plane, self.ra, self.rb);
        let tier = set.shortest_tier();
        if tier == 0 {
            return Vec::new();
        }
        let route = self.route(set.get(hash_index(tier, self.hash)));
        route.into_iter().collect()
    }

    /// The lowest-hop route across all usable planes (ties hash-balanced).
    fn shortest_plane_route(&self) -> Vec<Vec<LinkId>> {
        if self.ra == self.rb {
            let planes: Vec<PlaneId> = self.usable_planes().collect();
            if planes.is_empty() {
                return Vec::new();
            }
            let plane = *hash_select(&planes, self.hash);
            return self.route(&Path::intra_rack(plane)).into_iter().collect();
        }
        let sets: Vec<_> = self
            .usable_planes()
            .map(|plane| self.router.paths_in_plane(plane, self.ra, self.rb))
            .collect();
        // Every plane's shortest tier that is as short as the best plane's,
        // in plane order.
        let tiers = sets.iter().map(|set| set.iter().take(set.shortest_tier()));
        let best_len = tiers.clone().flatten().map(|p| p.n_links()).min();
        let ties: Vec<PathRef> = tiers
            .flatten()
            .filter(|p| Some(p.n_links()) == best_len)
            .collect();
        if ties.is_empty() {
            return Vec::new();
        }
        let route = self.route(*hash_select(&ties, self.hash));
        route.into_iter().collect()
    }

    /// Planes where both hosts have live uplinks.
    fn usable_planes(&self) -> impl Iterator<Item = PlaneId> + '_ {
        self.net.planes().filter(|&p| self.plane_usable(p))
    }

    fn plane_usable(&self, plane: PlaneId) -> bool {
        self.pinned.is_none_or(|planes| planes.contains(&plane.0))
            && self.net.host_uplink(self.src, plane).is_some()
            && self.net.host_uplink(self.dst, plane).is_some()
    }

    /// `preferred` if usable, otherwise the next usable plane (failure
    /// masking: "end hosts can quickly detect individual dataplane failures
    /// via link status and avoid using the broken dataplane(s)"); `None`
    /// when no plane is.
    fn usable_plane(&self, preferred: PlaneId) -> Option<PlaneId> {
        let n = self.net.n_planes();
        (0..n)
            .map(|off| PlaneId((preferred.0 + off) % n))
            .find(|&p| self.plane_usable(p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnet_routing::RouteAlgo;
    use pnet_topology::{
        assemble_homogeneous, parallel, FatTree, Jellyfish, LinkProfile, NetworkClass,
    };

    fn par4() -> Network {
        assemble_homogeneous(&FatTree::three_tier(4), 4, &LinkProfile::paper_default())
    }

    fn selector(net: &Network, policy: PathPolicy) -> PathSelector {
        PathSelector::new(Router::new(net, RouteAlgo::Ksp { k: 32 }), policy)
    }

    #[test]
    fn ecmp_hash_is_per_flow_stable() {
        let net = par4();
        let mut s = selector(&net, PathPolicy::EcmpHash);
        let (a, cc) = s.select(&net, HostId(0), HostId(15), 7, 1000);
        let (b, _) = s.select(&net, HostId(0), HostId(15), 7, 1000);
        assert_eq!(a, b, "same flow id must map to the same path");
        assert_eq!(a.len(), 1);
        assert_eq!(cc, CcAlgo::Reno);
    }

    #[test]
    fn ecmp_hash_spreads_flows_over_planes() {
        let net = par4();
        let mut s = selector(&net, PathPolicy::EcmpHash);
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
        let mut s = selector(&net, PathPolicy::RoundRobin);
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
        let mut s = selector(&net, PathPolicy::MultipathKsp { k: 16 });
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
        let mut s = selector(&net, PathPolicy::ShortestPlane);
        let check = Router::new(&net, RouteAlgo::Ksp { k: 1 });
        for (a, b) in [(0u32, 20u32), (3, 17), (5, 30), (9, 12)] {
            let (routes, _) = s.select(&net, HostId(a), HostId(b), 0, 1000);
            let hops = routes[0].len() - 1;
            let (_, best) = check
                .shortest_plane(net.rack_of_host(HostId(a)), net.rack_of_host(HostId(b)))
                .unwrap();
            assert_eq!(hops, best, "pair ({a},{b})");
        }
    }

    #[test]
    fn size_threshold_dispatches() {
        let net = par4();
        let mut s = selector(&net, PathPolicy::paper_default(16));
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
            let mut s = selector(&net, policy);
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
        let mut frontend = selector(
            &net,
            PathPolicy::Pinned {
                planes: vec![0],
                inner: Box::new(PathPolicy::EcmpHash),
            },
        );
        let mut background = selector(
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
        let mut s = selector(
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
        let mut s = selector(&net, PathPolicy::EcmpHash);
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
        selector(&net, pinned).select(&net, HostId(0), dst, 0, 1000);
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
