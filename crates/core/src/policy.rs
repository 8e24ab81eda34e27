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
use pnet_routing::{flow_hash, hash_plane, hash_select, host_route, Path, Router};
use pnet_topology::{HostId, LinkId, Network, PlaneId};

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
    /// on that plane's shortest paths). Guarantees the subflow set spreads
    /// over all planes — the natural MPTCP path-manager behaviour when each
    /// plane is a separate interface/IP, and the configuration behind the
    /// paper's "4-way KSP on a 4-plane P-Net" small-flow results.
    PlaneKsp { per_plane: usize },
    /// MPTCP (LIA) with up to `per_plane` *edge-disjoint* subflow paths per
    /// plane: no two subflows share any cable, so a single link failure or
    /// hotspot degrades at most one subflow — the resilience-maximizing
    /// variant of [`PathPolicy::PlaneKsp`].
    DisjointPerPlane { per_plane: usize },
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
    /// When set (by [`PathPolicy::Pinned`]), only these planes are usable.
    pinned: Option<Vec<PlaneId>>,
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
            pinned: None,
        }
    }

    /// Access the underlying router.
    pub fn router(&self) -> &Router {
        &self.router
    }

    /// Bulk-precompute the router's all-pairs route table in parallel, so
    /// subsequent [`PathSelector::select`] calls never pay the lazy
    /// per-pair Yen/ECMP cost.
    pub fn warm(&self) {
        self.router.precompute_all_pairs();
    }

    /// Select subflow routes and a congestion controller for a flow.
    ///
    /// # Panics
    /// If no plane connects the two hosts (total disconnection).
    pub fn select(
        &mut self,
        net: &Network,
        src: HostId,
        dst: HostId,
        flow_id: u64,
        size_bytes: u64,
    ) -> (Vec<Vec<LinkId>>, CcAlgo) {
        let policy = self.policy.clone();
        self.select_with(&policy, net, src, dst, flow_id, size_bytes)
    }

    fn select_with(
        &mut self,
        policy: &PathPolicy,
        net: &Network,
        src: HostId,
        dst: HostId,
        flow_id: u64,
        size_bytes: u64,
    ) -> (Vec<Vec<LinkId>>, CcAlgo) {
        let (ra, rb) = (net.rack_of_host(src), net.rack_of_host(dst));
        let h = flow_hash(src, dst, flow_id);
        match policy {
            PathPolicy::EcmpHash => {
                let plane = self.usable_plane(net, src, dst, hash_plane(net.n_planes(), h));
                let path = self.single_path_in(net, plane, ra, rb, h);
                (self.expand(net, src, dst, &[path]), CcAlgo::Reno)
            }
            PathPolicy::RoundRobin => {
                let start = PlaneId((self.rr % net.n_planes() as u64) as u16);
                self.rr += 1;
                let plane = self.usable_plane(net, src, dst, start);
                let path = self.single_path_in(net, plane, ra, rb, h);
                (self.expand(net, src, dst, &[path]), CcAlgo::Reno)
            }
            PathPolicy::ShortestPlane => {
                let path = self.shortest_plane_path(net, src, dst, ra, rb, h);
                (self.expand(net, src, dst, &[path]), CcAlgo::Reno)
            }
            PathPolicy::MultipathKsp { k } => {
                let paths = if ra == rb {
                    self.usable_planes(net, src, dst)
                        .into_iter()
                        .map(Path::intra_rack)
                        .collect()
                } else {
                    // Wide fetch, per-flow hash rotation of equal-cost ties,
                    // then truncate: flows between the same racks get
                    // *different* shortest-path subsets.
                    let mut ps = self.router.k_best_across_planes(ra, rb, 2 * *k);
                    ps.retain(|p| self.plane_usable(net, src, dst, p.plane));
                    pnet_routing::rotate_ties(&mut ps, h);
                    ps.truncate(*k);
                    ps
                };
                assert!(!paths.is_empty(), "no usable path {src}->{dst}");
                (self.expand(net, src, dst, &paths), CcAlgo::Lia)
            }
            PathPolicy::PlaneKsp { per_plane } => {
                let mut paths = Vec::new();
                for plane in self.usable_planes(net, src, dst) {
                    if ra == rb {
                        paths.push(Path::intra_rack(plane));
                        continue;
                    }
                    let set = self.router.paths_in_plane(plane, ra, rb);
                    let mut v: Vec<Path> = set.to_vec();
                    pnet_routing::rotate_ties(&mut v, h ^ plane.0 as u64);
                    paths.extend(v.into_iter().take(*per_plane));
                }
                assert!(!paths.is_empty(), "no usable path {src}->{dst}");
                (self.expand(net, src, dst, &paths), CcAlgo::Lia)
            }
            PathPolicy::DisjointPerPlane { per_plane } => {
                let mut paths = Vec::new();
                for plane in self.usable_planes(net, src, dst) {
                    if ra == rb {
                        paths.push(Path::intra_rack(plane));
                        continue;
                    }
                    let pg = &self.router.plane_graphs()[plane.index()];
                    paths.extend(pnet_routing::edge_disjoint_paths(pg, ra, rb, *per_plane));
                }
                assert!(!paths.is_empty(), "no usable path {src}->{dst}");
                (self.expand(net, src, dst, &paths), CcAlgo::Lia)
            }
            PathPolicy::SizeThreshold {
                cutoff_bytes,
                small,
                large,
            } => {
                if size_bytes <= *cutoff_bytes {
                    self.select_with(small, net, src, dst, flow_id, size_bytes)
                } else {
                    self.select_with(large, net, src, dst, flow_id, size_bytes)
                }
            }
            PathPolicy::Pinned { planes, inner } => {
                assert!(!planes.is_empty(), "Pinned needs at least one plane");
                let saved = self.pinned.take();
                self.pinned = Some(planes.iter().map(|&p| PlaneId(p)).collect());
                let result = self.select_with(inner, net, src, dst, flow_id, size_bytes);
                self.pinned = saved;
                result
            }
        }
    }

    /// A single path within `plane` (intra-rack or hash-selected among the
    /// plane's candidates).
    fn single_path_in(
        &mut self,
        _net: &Network,
        plane: PlaneId,
        ra: pnet_topology::RackId,
        rb: pnet_topology::RackId,
        h: u64,
    ) -> Path {
        if ra == rb {
            return Path::intra_rack(plane);
        }
        let set = self.router.paths_in_plane(plane, ra, rb);
        assert!(!set.is_empty(), "no path in {plane} between {ra} and {rb}");
        // Restrict the hash choice to the shortest tier so "single path"
        // means "a shortest path" for every policy.
        let best = set[0].links.len();
        let shortest: Vec<&Path> = set.iter().filter(|p| p.links.len() == best).collect();
        (*hash_select(&shortest, h)).clone()
    }

    /// The lowest-hop path across all usable planes (ties hash-balanced).
    fn shortest_plane_path(
        &mut self,
        net: &Network,
        src: HostId,
        dst: HostId,
        ra: pnet_topology::RackId,
        rb: pnet_topology::RackId,
        h: u64,
    ) -> Path {
        if ra == rb {
            let planes = self.usable_planes(net, src, dst);
            return Path::intra_rack(planes[(h % planes.len() as u64) as usize]);
        }
        let mut best: Vec<Path> = Vec::new();
        let mut best_len = usize::MAX;
        for plane in net.planes() {
            if !self.plane_usable(net, src, dst, plane) {
                continue;
            }
            let set = self.router.paths_in_plane(plane, ra, rb);
            if let Some(p) = set.first() {
                match p.links.len().cmp(&best_len) {
                    std::cmp::Ordering::Less => {
                        best_len = p.links.len();
                        best = set
                            .iter()
                            .filter(|q| q.links.len() == best_len)
                            .cloned()
                            .collect();
                    }
                    std::cmp::Ordering::Equal => {
                        best.extend(set.iter().filter(|q| q.links.len() == best_len).cloned());
                    }
                    std::cmp::Ordering::Greater => {}
                }
            }
        }
        assert!(!best.is_empty(), "no usable path {src}->{dst}");
        hash_select(&best, h).clone()
    }

    /// Planes where both hosts have live uplinks.
    fn usable_planes(&self, net: &Network, src: HostId, dst: HostId) -> Vec<PlaneId> {
        net.planes()
            .filter(|&p| self.plane_usable(net, src, dst, p))
            .collect()
    }

    fn plane_usable(&self, net: &Network, src: HostId, dst: HostId, plane: PlaneId) -> bool {
        if let Some(pinned) = &self.pinned {
            if !pinned.contains(&plane) {
                return false;
            }
        }
        net.host_uplink(src, plane).is_some() && net.host_uplink(dst, plane).is_some()
    }

    /// `preferred` if usable, otherwise the next usable plane (failure
    /// masking: "end hosts can quickly detect individual dataplane failures
    /// via link status and avoid using the broken dataplane(s)").
    fn usable_plane(&self, net: &Network, src: HostId, dst: HostId, preferred: PlaneId) -> PlaneId {
        let n = net.n_planes();
        (0..n)
            .map(|off| PlaneId((preferred.0 + off) % n))
            .find(|&p| self.plane_usable(net, src, dst, p))
            .expect("invariant: assembled multi-plane networks keep every host pair connected")
    }

    fn expand(&self, net: &Network, src: HostId, dst: HostId, paths: &[Path]) -> Vec<Vec<LinkId>> {
        let routes: Vec<Vec<LinkId>> = paths
            .iter()
            .filter_map(|p| host_route(net, src, dst, p))
            .collect();
        assert!(!routes.is_empty(), "no expandable route {src}->{dst}");
        routes
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
    fn disjoint_per_plane_subflows_share_no_cable() {
        let net = par4();
        let mut s = selector(&net, PathPolicy::DisjointPerPlane { per_plane: 2 });
        let (routes, cc) = s.select(&net, HostId(0), HostId(15), 3, 1 << 30);
        assert_eq!(cc, CcAlgo::Lia);
        // k=4 fat tree: 2 disjoint fabric paths per plane x 4 planes; host
        // links are shared per plane by construction (one uplink), so check
        // disjointness over the fabric portion only.
        assert_eq!(routes.len(), 8);
        let mut seen = std::collections::HashSet::new();
        for r in &routes {
            for &l in &r[1..r.len() - 1] {
                assert!(seen.insert(l.0 / 2), "fabric cable shared across subflows");
            }
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
}
