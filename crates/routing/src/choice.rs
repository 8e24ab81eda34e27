//! Path choice: the rules every layer picks a flow's routes by.
//!
//! The flow solver's route builder (`pnet_flowsim::mcf::commodity_routes`)
//! and the host stack's path selector (`pnet_core::PathSelector`) call these
//! rules and nothing else, so a flow gets the same routes at the flow level
//! as at the packet level: [`Router::subflows`] (MPTCP over KSP),
//! [`Router::plane_subflows`] (MPTCP with one interface per plane),
//! [`Router::hashed_route`] (ECMP, round robin) and
//! [`Router::shortest_plane_route`] (the low-latency plane). Only the two
//! subflow rules read past a plane's shortest tier.
//!
//! A plane is *usable* when the caller allows it and both hosts have a live
//! uplink into it: the paper's failure masking (section 3.4), "end hosts can
//! quickly detect individual dataplane failures via link status and avoid
//! using the broken dataplane(s)".

use crate::ecmp::{flow_hash, hash_index};
use crate::path::{host_route, tie_rotated, Path, PathRef};
use crate::router::Router;
use pnet_topology::{HostId, LinkId, Network, PlaneId, RackId};
use std::cmp::Ordering;

/// Paths a `k`-subflow choice fetches across planes before it rotates and
/// truncates: `2k`, at least 8, so a flow's hash has equal-length
/// alternatives to spread over. Routers that serve subflow choices are
/// built at least this wide per plane.
pub const fn subflow_width(k: usize) -> usize {
    if k > 4 {
        2 * k
    } else {
        8
    }
}

/// One flow as a path choice sees it: the fabric, the two hosts, the flow
/// hash and the planes the caller allows.
#[derive(Clone, Copy)]
pub struct Flow<'a> {
    pub net: &'a Network,
    pub src: HostId,
    pub dst: HostId,
    /// [`flow_hash`] of the hosts and the flow id.
    pub hash: u64,
    /// The planes the caller allows, by index; `None` allows every plane.
    pub planes: Option<&'a [u16]>,
}

impl<'a> Flow<'a> {
    /// Flow `id` from `src` to `dst`, allowed every plane.
    pub fn new(net: &'a Network, src: HostId, dst: HostId, id: u64) -> Self {
        Flow {
            net,
            src,
            dst,
            hash: flow_hash(src, dst, id),
            planes: None,
        }
    }

    /// The source and destination racks.
    pub fn racks(&self) -> (RackId, RackId) {
        (
            self.net.rack_of_host(self.src),
            self.net.rack_of_host(self.dst),
        )
    }

    /// May the flow use `plane`: allowed, and both hosts have a live uplink
    /// into it.
    pub fn usable(&self, plane: PlaneId) -> bool {
        self.planes.is_none_or(|planes| planes.contains(&plane.0))
            && self.net.host_uplink(self.src, plane).is_some()
            && self.net.host_uplink(self.dst, plane).is_some()
    }

    /// The usable planes, in plane order.
    pub fn usable_planes(self) -> impl Iterator<Item = PlaneId> + 'a {
        self.net.planes().filter(move |&p| self.usable(p))
    }

    /// The host route along `path` ([`host_route`]).
    pub fn route<'p>(&self, path: impl Into<PathRef<'p>>) -> Option<Vec<LinkId>> {
        host_route(self.net, self.src, self.dst, path)
    }
}

impl Router {
    /// The subflow routes of `flow` over at most `k` paths: the
    /// [`subflow_width`]`(k)` best paths across planes, kept where the plane
    /// is usable, each equal-length tier rotated by the flow hash, the first
    /// `k` taken. A same-rack flow gets one intra-rack route per usable
    /// plane. Empty when no usable plane connects the racks.
    pub fn subflows(&self, flow: Flow<'_>, k: usize) -> Vec<Vec<LinkId>> {
        let (ra, rb) = flow.racks();
        if ra == rb {
            let intra = flow.usable_planes().map(Path::intra_rack);
            return intra.filter_map(|path| flow.route(&path)).collect();
        }
        let mut paths = self.k_best_across_planes(ra, rb, subflow_width(k));
        paths.retain(|p| flow.usable(p.plane));
        let best = tie_rotated(&paths, flow.hash).take(k);
        best.filter_map(|i| flow.route(&paths[i])).collect()
    }

    /// One route for `flow` in the first usable plane from `preferred`
    /// onwards, cyclically: the intra-rack route, or a hash pick among the
    /// plane's shortest tier. `None` when no plane is usable, or the usable
    /// one does not connect the racks.
    pub fn hashed_route(&self, flow: Flow<'_>, preferred: PlaneId) -> Option<Vec<LinkId>> {
        let n = flow.net.n_planes();
        let plane = (0..n)
            .map(|off| PlaneId((preferred.0 + off) % n))
            .find(|&p| flow.usable(p))?;
        let (ra, rb) = flow.racks();
        if ra == rb {
            return flow.route(&Path::intra_rack(plane));
        }
        let set = self.paths_in_plane(plane, ra, rb);
        let tier = set.shortest_tier();
        if tier == 0 {
            return None;
        }
        flow.route(set.get(hash_index(tier, flow.hash)))
    }

    /// Up to `per_plane` routes in every usable plane: each plane's path set
    /// with its equal-length tiers rotated by `hash ^ plane`, the first
    /// `per_plane` taken, planes in order. A same-rack flow gets
    /// [`Router::subflows`]' intra-rack routes.
    pub fn plane_subflows(&self, flow: Flow<'_>, per_plane: usize) -> Vec<Vec<LinkId>> {
        let (ra, rb) = flow.racks();
        if ra == rb {
            return self.subflows(flow, per_plane);
        }
        let mut routes = Vec::new();
        for plane in flow.usable_planes() {
            let set = self.paths_in_plane(plane, ra, rb);
            let best = set.tie_rotated(flow.hash ^ u64::from(plane.0));
            routes.extend(best.take(per_plane).filter_map(|i| flow.route(set.get(i))));
        }
        routes
    }

    /// The lowest-hop route across usable planes: among the shortest tiers
    /// of the planes whose best path is the shortest overall, taken in plane
    /// order, the hash pick. A same-rack pair's set is its one intra-rack
    /// path, so a same-rack flow takes that of a hash-picked usable plane.
    /// `None` when no usable plane connects the racks.
    pub fn shortest_plane_route(&self, flow: Flow<'_>) -> Option<Vec<LinkId>> {
        let (ra, rb) = flow.racks();
        // Each usable plane's (best length, shortest tier), twice: once to
        // count the ties, once to walk to the picked one.
        let tiers = || {
            flow.usable_planes().filter_map(move |plane| {
                let set = self.paths_in_plane(plane, ra, rb);
                let len = set.iter().next()?.n_links();
                Some((len, set.shortest_tier(), set))
            })
        };
        let (best, n_ties) = tiers().fold((usize::MAX, 0), |(best, n), (len, tier, _)| {
            match len.cmp(&best) {
                Ordering::Less => (len, tier),
                Ordering::Equal => (best, n + tier),
                Ordering::Greater => (best, n),
            }
        });
        if n_ties == 0 {
            return None;
        }
        let mut pick = hash_index(n_ties, flow.hash);
        for (_, tier, set) in tiers().filter(|&(len, ..)| len == best) {
            if pick < tier {
                return flow.route(set.get(pick));
            }
            pick -= tier;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RouteAlgo;
    use pnet_topology::{assemble_homogeneous, failures, FatTree, LinkProfile};

    #[test]
    fn width_is_twice_k_and_at_least_eight() {
        let widths: Vec<usize> = [1, 3, 4, 5, 16].map(subflow_width).to_vec();
        assert_eq!(widths, [8, 8, 8, 10, 32]);
    }

    /// Host 0's plane-0 uplink is down: every rule routes around plane 0,
    /// and a flow pinned to plane 0 gets nothing. With both planes usable, a
    /// same-rack flow's shortest plane is the hash pick.
    #[test]
    fn a_dead_uplink_masks_its_plane_in_every_rule() {
        let mut net =
            assemble_homogeneous(&FatTree::three_tier(4), 2, &LinkProfile::paper_default());
        let up = net.host_uplink(HostId(0), PlaneId(0)).unwrap();
        failures::fail_cable(&mut net, up);
        let router = Router::new(&net, RouteAlgo::Ksp { k: 8 });
        for (dst, id) in [(HostId(1), 0), (HostId(15), 3)] {
            let flow = Flow::new(&net, HostId(0), dst, id);
            let subflows = router.subflows(flow, 1);
            let per_plane = router.plane_subflows(flow, 1);
            assert_eq!((subflows.len(), per_plane.len()), (1, 1));
            let single = router.hashed_route(flow, PlaneId(0)).unwrap();
            let shortest = router.shortest_plane_route(flow).unwrap();
            for route in subflows
                .iter()
                .chain(&per_plane)
                .chain([&single, &shortest])
            {
                assert_eq!(net.link(route[0]).plane, PlaneId(1));
            }
            let pinned = Flow {
                planes: Some(&[0]),
                ..flow
            };
            assert!(router.subflows(pinned, 4).is_empty());
            assert!(router.plane_subflows(pinned, 4).is_empty());
            assert_eq!(router.hashed_route(pinned, PlaneId(0)), None);
            assert_eq!(router.shortest_plane_route(pinned), None);
        }
        for id in 0..8 {
            let flow = Flow::new(&net, HostId(2), HostId(3), id);
            let route = router.shortest_plane_route(flow).unwrap();
            assert_eq!(route.len(), 2);
            assert_eq!(net.link(route[0]).plane, PlaneId((flow.hash % 2) as u16));
        }
    }
}
