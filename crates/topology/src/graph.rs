//! The arena network graph shared by every topology, router, and simulator in
//! this workspace.
//!
//! A [`Network`] stores nodes (hosts and switches) and *directed* links in
//! flat vectors. Physical cables are added with [`Network::add_duplex_link`],
//! which allocates the two directions as an adjacent pair so that
//! [`LinkId::reverse`] is a constant-time bit flip.
//!
//! Multi-plane networks (P-Nets) are represented in a single `Network`:
//! switches and links carry the [`PlaneId`] they belong to, while hosts are
//! shared by all planes. Routing code that must stay within one plane simply
//! filters links by plane — which is exactly the paper's forwarding
//! constraint ("once a packet leaves an end host and enters a particular
//! dataplane, it stays within the dataplane until reaching the destination
//! host").

use crate::ids::{HostId, LinkId, NodeId, PlaneId, RackId};
use serde::{Deserialize, Serialize};

/// What role a node plays in the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NodeKind {
    /// An end system. Hosts belong to every plane (they are where planes meet).
    Host { host: HostId, rack: RackId },
    /// Top-of-rack switch: the first switch hop of a plane.
    Tor { rack: RackId },
    /// Aggregation-tier switch (fat-tree pods).
    Agg { pod: u32 },
    /// Core/spine-tier switch.
    Core,
}

impl NodeKind {
    /// True if this node is an end host.
    #[inline]
    pub fn is_host(self) -> bool {
        matches!(self, NodeKind::Host { .. })
    }

    /// True if this node is any kind of switch.
    #[inline]
    pub fn is_switch(self) -> bool {
        !self.is_host()
    }
}

/// A node in the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Node {
    /// Role of the node.
    pub kind: NodeKind,
    /// The plane a switch belongs to. `None` for hosts, which are members of
    /// all planes.
    pub plane: Option<PlaneId>,
}

/// A directed link. Capacities are in bits per second and delays in
/// picoseconds, matching the simulator's clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Link {
    /// Transmitting endpoint.
    pub src: NodeId,
    /// Receiving endpoint.
    pub dst: NodeId,
    /// Line rate in bits per second.
    pub capacity_bps: u64,
    /// Propagation delay in picoseconds.
    pub delay_ps: u64,
    /// The plane this link belongs to. Host uplinks/downlinks belong to the
    /// plane of the switch they attach to.
    pub plane: PlaneId,
    /// False if the link has been failed (see [`crate::failures`]).
    pub up: bool,
}

/// Convert gigabits per second to bits per second.
#[inline]
pub const fn gbps(g: u64) -> u64 {
    g * 1_000_000_000
}

/// Convert microseconds to picoseconds.
#[inline]
pub const fn micros_ps(us: u64) -> u64 {
    us * 1_000_000
}

/// Convert nanoseconds to picoseconds.
#[inline]
pub const fn nanos_ps(ns: u64) -> u64 {
    ns * 1_000
}

/// The arena graph.
///
/// Invariants (checked by [`Network::validate`]):
/// * links come in reverse pairs `(2k, 2k+1)` with mirrored endpoints,
/// * link endpoints are valid node ids,
/// * hosts are connected only to ToR switches,
/// * a switch's links all carry the switch's own plane id.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Network {
    nodes: Vec<Node>,
    links: Vec<Link>,
    /// Outgoing links per node.
    out_adj: Vec<Vec<LinkId>>,
    /// host index -> node id
    hosts: Vec<NodeId>,
    /// number of planes in the network (>= 1 once built)
    n_planes: u16,
    /// rack count (max rack id + 1)
    n_racks: u32,
}

impl Network {
    /// Create an empty network expecting `n_planes` planes.
    pub fn new(n_planes: u16) -> Self {
        assert!(n_planes >= 1, "a network needs at least one plane");
        Network {
            n_planes,
            ..Default::default()
        }
    }

    /// Number of planes.
    #[inline]
    pub fn n_planes(&self) -> u16 {
        self.n_planes
    }

    /// All plane ids.
    pub fn planes(&self) -> impl Iterator<Item = PlaneId> {
        (0..self.n_planes).map(PlaneId)
    }

    /// Number of nodes (hosts + switches).
    #[inline]
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of directed links.
    #[inline]
    pub fn n_links(&self) -> usize {
        self.links.len()
    }

    /// Number of hosts.
    #[inline]
    pub fn n_hosts(&self) -> usize {
        self.hosts.len()
    }

    /// Number of racks.
    #[inline]
    pub fn n_racks(&self) -> usize {
        self.n_racks as usize
    }

    /// Add a host in `rack`; returns its node id. Host ids are assigned
    /// densely in insertion order.
    pub fn add_host(&mut self, rack: RackId) -> NodeId {
        let host = HostId(self.hosts.len() as u32);
        let id = self.push_node(Node {
            kind: NodeKind::Host { host, rack },
            plane: None,
        });
        self.hosts.push(id);
        self.n_racks = self.n_racks.max(rack.0 + 1);
        id
    }

    /// Add a switch belonging to `plane`.
    pub fn add_switch(&mut self, kind: NodeKind, plane: PlaneId) -> NodeId {
        assert!(kind.is_switch(), "add_switch called with a host kind");
        assert!(plane.0 < self.n_planes, "plane out of range");
        if let NodeKind::Tor { rack } = kind {
            self.n_racks = self.n_racks.max(rack.0 + 1);
        }
        self.push_node(Node {
            kind,
            plane: Some(plane),
        })
    }

    fn push_node(&mut self, node: Node) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(node);
        self.out_adj.push(Vec::new());
        id
    }

    /// Add a duplex (bidirectional) link between `a` and `b`. Returns the
    /// pair of directed links `(a->b, b->a)`.
    pub fn add_duplex_link(
        &mut self,
        a: NodeId,
        b: NodeId,
        capacity_bps: u64,
        delay_ps: u64,
        plane: PlaneId,
    ) -> (LinkId, LinkId) {
        assert!(a != b, "self-loops are not allowed");
        assert!(plane.0 < self.n_planes, "plane out of range");
        assert!(capacity_bps > 0, "links need positive capacity");
        let fwd = LinkId(self.links.len() as u32);
        debug_assert_eq!(fwd.0 % 2, 0, "duplex links must start on even ids");
        self.links.push(Link {
            src: a,
            dst: b,
            capacity_bps,
            delay_ps,
            plane,
            up: true,
        });
        let rev = LinkId(self.links.len() as u32);
        self.links.push(Link {
            src: b,
            dst: a,
            capacity_bps,
            delay_ps,
            plane,
            up: true,
        });
        self.out_adj[a.index()].push(fwd);
        self.out_adj[b.index()].push(rev);
        (fwd, rev)
    }

    /// Node accessor.
    #[inline]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Link accessor.
    #[inline]
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.index()]
    }

    /// Mutable link accessor (used by failure injection).
    #[inline]
    pub(crate) fn link_mut(&mut self, id: LinkId) -> &mut Link {
        &mut self.links[id.index()]
    }

    /// All nodes with ids.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeId(i as u32), n))
    }

    /// All links with ids.
    pub fn links(&self) -> impl Iterator<Item = (LinkId, &Link)> {
        self.links
            .iter()
            .enumerate()
            .map(|(i, l)| (LinkId(i as u32), l))
    }

    /// Outgoing links of a node (including failed links; callers filter with
    /// [`Link::up`] as appropriate).
    #[inline]
    pub fn out_links(&self, id: NodeId) -> &[LinkId] {
        &self.out_adj[id.index()]
    }

    /// Outgoing links of `node` that are up and belong to `plane`.
    pub fn out_links_in_plane<'a>(
        &'a self,
        node: NodeId,
        plane: PlaneId,
    ) -> impl Iterator<Item = LinkId> + 'a {
        self.out_adj[node.index()]
            .iter()
            .copied()
            .filter(move |&l| {
                let link = self.link(l);
                link.up && link.plane == plane
            })
    }

    /// The node id of host `h`.
    #[inline]
    pub fn host_node(&self, h: HostId) -> NodeId {
        self.hosts[h.index()]
    }

    /// All host node ids, in host-id order.
    #[inline]
    pub fn host_nodes(&self) -> &[NodeId] {
        &self.hosts
    }

    /// The rack of a host.
    pub fn rack_of_host(&self, h: HostId) -> RackId {
        match self.node(self.host_node(h)).kind {
            NodeKind::Host { rack, .. } => rack,
            #[expect(
                clippy::unreachable,
                reason = "invariant: the host table lists only Host nodes (checked by validate)"
            )]
            NodeKind::Tor { .. } | NodeKind::Agg { .. } | NodeKind::Core => {
                unreachable!(
                    "invariant: the host table lists only Host nodes (checked by validate)"
                )
            }
        }
    }

    /// The host's uplink into `plane` (host -> ToR direction), if the host
    /// has one and it is up.
    pub fn host_uplink(&self, h: HostId, plane: PlaneId) -> Option<LinkId> {
        let node = self.host_node(h);
        self.out_links_in_plane(node, plane).next()
    }

    /// The ToR switch of `rack` in `plane`, if present.
    pub fn tor_of_rack(&self, rack: RackId, plane: PlaneId) -> Option<NodeId> {
        // Linear scan is fine: used in construction and tests, not hot paths.
        self.nodes().find_map(|(id, n)| match n.kind {
            NodeKind::Tor { rack: r } if r == rack && n.plane == Some(plane) => Some(id),
            NodeKind::Host { .. }
            | NodeKind::Tor { .. }
            | NodeKind::Agg { .. }
            | NodeKind::Core => None,
        })
    }

    /// Total one-directional fabric capacity of a plane (sum over up links).
    pub fn plane_capacity_bps(&self, plane: PlaneId) -> u128 {
        self.links
            .iter()
            .filter(|l| l.plane == plane && l.up)
            .map(|l| l.capacity_bps as u128)
            .sum()
    }

    /// Count duplex cables (directed links / 2) in a plane, excluding host
    /// attachment links.
    pub fn fabric_cables_in_plane(&self, plane: PlaneId) -> usize {
        self.links
            .iter()
            .filter(|l| {
                l.plane == plane
                    && self.node(l.src).kind.is_switch()
                    && self.node(l.dst).kind.is_switch()
            })
            .count()
            / 2
    }

    /// Check structural invariants; returns a description of the first
    /// violation found.
    pub fn validate(&self) -> Result<(), String> {
        for (i, l) in self.links.iter().enumerate() {
            let id = LinkId(i as u32);
            let rev = self.link(id.reverse());
            if rev.src != l.dst || rev.dst != l.src {
                return Err(format!("{id}: reverse pair endpoints not mirrored"));
            }
            if l.src.index() >= self.nodes.len() || l.dst.index() >= self.nodes.len() {
                return Err(format!("{id}: dangling endpoint"));
            }
            if l.plane.0 >= self.n_planes {
                return Err(format!("{id}: plane out of range"));
            }
            let sk = self.node(l.src);
            let dk = self.node(l.dst);
            if sk.kind.is_host() && dk.kind.is_host() {
                return Err(format!("{id}: host-to-host link"));
            }
            if sk.kind.is_host() && !matches!(dk.kind, NodeKind::Tor { .. }) {
                return Err(format!("{id}: host attached to non-ToR switch"));
            }
            for end in [sk, dk] {
                if let Some(p) = end.plane {
                    if p != l.plane {
                        return Err(format!("{id}: crosses planes ({p} vs {})", l.plane));
                    }
                }
            }
        }
        for (n, adj) in self.out_adj.iter().enumerate() {
            for &l in adj {
                if self.link(l).src != NodeId(n as u32) {
                    return Err(format!("adjacency of n{n} lists foreign link {l}"));
                }
            }
        }
        for (i, &n) in self.hosts.iter().enumerate() {
            match self.node(n).kind {
                NodeKind::Host { host, .. } if host == HostId(i as u32) => {}
                NodeKind::Host { .. }
                | NodeKind::Tor { .. }
                | NodeKind::Agg { .. }
                | NodeKind::Core => return Err(format!("host table slot {i} does not match node")),
            }
        }
        Ok(())
    }

    /// Switch count per plane, for structural assertions.
    pub fn switches_in_plane(&self, plane: PlaneId) -> usize {
        self.nodes
            .iter()
            .filter(|n| n.kind.is_switch() && n.plane == Some(plane))
            .count()
    }

    /// Whether every host can reach every other host inside `plane`
    /// (traversing only up links of that plane). Runs one BFS from the first
    /// host; sufficient because the host set is symmetric under the builders.
    pub fn plane_connects_all_hosts(&self, plane: PlaneId) -> bool {
        let Some(&start) = self.hosts.first() else {
            return true;
        };
        let mut seen = vec![false; self.nodes.len()];
        let mut queue = std::collections::VecDeque::new();
        seen[start.index()] = true;
        queue.push_back(start);
        while let Some(u) = queue.pop_front() {
            for l in self.out_links_in_plane(u, plane) {
                let v = self.link(l).dst;
                if !seen[v.index()] {
                    seen[v.index()] = true;
                    queue.push_back(v);
                }
            }
        }
        self.hosts.iter().all(|h| seen[h.index()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Network {
        // 2 hosts, 2 racks, 1 ToR per rack, a cable between the ToRs.
        let mut net = Network::new(1);
        let h0 = net.add_host(RackId(0));
        let h1 = net.add_host(RackId(1));
        let t0 = net.add_switch(NodeKind::Tor { rack: RackId(0) }, PlaneId(0));
        let t1 = net.add_switch(NodeKind::Tor { rack: RackId(1) }, PlaneId(0));
        net.add_duplex_link(h0, t0, gbps(100), nanos_ps(100), PlaneId(0));
        net.add_duplex_link(h1, t1, gbps(100), nanos_ps(100), PlaneId(0));
        net.add_duplex_link(t0, t1, gbps(100), micros_ps(1), PlaneId(0));
        net
    }

    #[test]
    fn build_and_validate_tiny() {
        let net = tiny();
        assert_eq!(net.n_hosts(), 2);
        assert_eq!(net.n_racks(), 2);
        assert_eq!(net.n_links(), 6);
        net.validate().unwrap();
        assert!(net.plane_connects_all_hosts(PlaneId(0)));
    }

    #[test]
    fn duplex_pairs_mirror() {
        let net = tiny();
        for (id, l) in net.links() {
            let r = net.link(id.reverse());
            assert_eq!(r.src, l.dst);
            assert_eq!(r.dst, l.src);
            assert_eq!(r.capacity_bps, l.capacity_bps);
        }
    }

    #[test]
    fn host_uplink_found() {
        let net = tiny();
        let l = net.host_uplink(HostId(0), PlaneId(0)).unwrap();
        assert_eq!(net.link(l).src, net.host_node(HostId(0)));
        assert!(net.node(net.link(l).dst).kind.is_switch());
    }

    #[test]
    fn tor_lookup() {
        let net = tiny();
        let t = net.tor_of_rack(RackId(1), PlaneId(0)).unwrap();
        assert!(matches!(net.node(t).kind, NodeKind::Tor { rack } if rack == RackId(1)));
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_rejected() {
        let mut net = Network::new(1);
        let h = net.add_host(RackId(0));
        net.add_duplex_link(h, h, gbps(1), 0, PlaneId(0));
    }

    #[test]
    #[should_panic(expected = "plane out of range")]
    fn plane_bounds_checked() {
        let mut net = Network::new(1);
        net.add_switch(NodeKind::Core, PlaneId(1));
    }

    #[test]
    fn unit_conversions() {
        assert_eq!(gbps(100), 100_000_000_000);
        assert_eq!(micros_ps(1), 1_000_000);
        assert_eq!(nanos_ps(120), 120_000);
    }

    #[test]
    fn disconnected_plane_detected() {
        let mut net = Network::new(1);
        let h0 = net.add_host(RackId(0));
        let h1 = net.add_host(RackId(1));
        let t0 = net.add_switch(NodeKind::Tor { rack: RackId(0) }, PlaneId(0));
        let t1 = net.add_switch(NodeKind::Tor { rack: RackId(1) }, PlaneId(0));
        net.add_duplex_link(h0, t0, gbps(1), 0, PlaneId(0));
        net.add_duplex_link(h1, t1, gbps(1), 0, PlaneId(0));
        // No ToR-ToR cable: hosts cannot reach each other.
        assert!(!net.plane_connects_all_hosts(PlaneId(0)));
    }

    #[test]
    fn plane_capacity_sums_up_links() {
        let net = tiny();
        // 6 directed links at 100G each.
        assert_eq!(net.plane_capacity_bps(PlaneId(0)), 6 * gbps(100) as u128);
    }

    #[test]
    fn fabric_cables_exclude_host_links() {
        let net = tiny();
        assert_eq!(net.fabric_cables_in_plane(PlaneId(0)), 1);
    }
}
