//! Compact per-plane switch graphs in CSR (compressed sparse row) form.
//!
//! All routing algorithms run on a [`PlaneGraph`]: the switches of one plane
//! with dense indices and a flat adjacency array that remembers the
//! underlying [`LinkId`]s. The CSR layout — one offsets vector plus one
//! packed `(neighbor, link)` array — keeps every traversal cache-linear and
//! allocation-free: a BFS touches two contiguous arrays instead of chasing
//! one heap-allocated `Vec` per node, and node lookup is a dense vector
//! index instead of a `HashMap` probe (node ids are arena-dense in
//! `pnet_topology`). Building it once per plane avoids filtering the full
//! multi-plane [`Network`] adjacency on every traversal.

use pnet_topology::{LinkId, Network, NodeId, NodeKind, PlaneId, RackId};
use std::sync::OnceLock;

/// [`PlaneGraph::hops_to`] entry of a switch with no path to the target.
pub const UNREACHABLE: u16 = u16::MAX;

/// Switch-level graph of a single plane. Only *up* links are included, so a
/// graph built after failure injection reflects the failures (rebuild after
/// changing link state).
#[derive(Debug, Clone)]
pub struct PlaneGraph {
    /// Which plane this graph describes.
    pub plane: PlaneId,
    /// Node id of each switch, indexed by dense switch index.
    nodes: Vec<NodeId>,
    /// Dense switch index of each network node (`u32::MAX` for nodes not in
    /// this plane), indexed by `NodeId`. Node ids are arena-dense, so a flat
    /// vector replaces the former `HashMap<NodeId, usize>`.
    dense_of: Vec<u32>,
    /// CSR offsets: neighbors of dense switch `u` live at
    /// `packed[offsets[u]..offsets[u + 1]]`.
    offsets: Vec<u32>,
    /// Packed adjacency: `(dense neighbor, link id)` pairs, per-node runs
    /// sorted by link id for deterministic traversal order.
    packed: Vec<(u32, LinkId)>,
    /// Dense switch index of each rack's ToR.
    tor_of_rack: Vec<u32>,
    /// See [`PlaneGraph::base`].
    base: u32,
    /// Hop count of every ordered switch pair, target-major: entry
    /// `t * n + v` is the length of the shortest `v -> t` path. Filled by the
    /// first [`PlaneGraph::hops_to`], so a snapshot nobody routes on (the
    /// solver's per-solve graphs) never pays for it.
    hops: OnceLock<Vec<u16>>,
}

impl PlaneGraph {
    /// Extract the switch graph of `plane` from `net`.
    ///
    /// One pass over the nodes assigns dense indices; one pass over the link
    /// arena counts per-switch degrees and a second fills the packed CSR
    /// rows — no per-node `out_links_in_plane` scans. Links are visited in
    /// `LinkId` order, so each CSR row comes out sorted by link id without an
    /// explicit sort.
    pub fn build(net: &Network, plane: PlaneId) -> Self {
        let mut nodes = Vec::new();
        let mut dense_of = vec![u32::MAX; net.n_nodes()];
        let mut tor_of_rack = vec![u32::MAX; net.n_racks()];
        for (id, node) in net.nodes() {
            if node.kind.is_switch() && node.plane == Some(plane) {
                let dense = nodes.len() as u32;
                dense_of[id.index()] = dense;
                if let NodeKind::Tor { rack } = node.kind {
                    tor_of_rack[rack.index()] = dense;
                }
                nodes.push(id);
            }
        }
        let n = nodes.len();
        // Degree-counting pass, then prefix-sum, then fill.
        let mut offsets = vec![0u32; n + 1];
        let in_plane = |link: &pnet_topology::Link| {
            link.up
                && link.plane == plane
                && dense_of[link.src.index()] != u32::MAX
                && dense_of[link.dst.index()] != u32::MAX
        };
        for (_, link) in net.links() {
            if in_plane(link) {
                offsets[dense_of[link.src.index()] as usize + 1] += 1;
            }
        }
        for i in 1..=n {
            offsets[i] += offsets[i - 1];
        }
        // Link ids ascend, so the plane's first link is its lowest.
        let base = net.links().find(|(_, link)| link.plane == plane);
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        let mut packed = vec![(0u32, LinkId(0)); offsets[n] as usize];
        for (id, link) in net.links() {
            if in_plane(link) {
                let u = dense_of[link.src.index()] as usize;
                packed[cursor[u] as usize] = (dense_of[link.dst.index()], id);
                cursor[u] += 1;
            }
        }
        PlaneGraph {
            plane,
            nodes,
            dense_of,
            offsets,
            packed,
            tor_of_rack,
            base: base.map_or(0, |(id, _)| id.0),
            hops: OnceLock::new(),
        }
    }

    /// Build all plane graphs of a network, in plane-index order.
    pub fn build_all(net: &Network) -> Vec<PlaneGraph> {
        net.planes().map(|p| PlaneGraph::build(net, p)).collect()
    }

    /// Number of switches in the plane.
    #[inline]
    pub fn n_switches(&self) -> usize {
        self.nodes.len()
    }

    /// Number of racks served.
    #[inline]
    pub fn n_racks(&self) -> usize {
        self.tor_of_rack.len()
    }

    /// Dense switch index of a rack's ToR.
    ///
    /// # Panics
    /// If the rack has no ToR in this plane.
    #[inline]
    pub fn tor(&self, rack: RackId) -> usize {
        let t = self.tor_of_rack[rack.index()];
        assert!(t != u32::MAX, "rack {rack} has no ToR in {}", self.plane);
        t as usize
    }

    /// Node id of a dense switch index.
    #[inline]
    pub fn node(&self, dense: usize) -> NodeId {
        self.nodes[dense]
    }

    /// Dense index of a switch node, if it is in this plane.
    #[inline]
    pub fn dense(&self, node: NodeId) -> Option<usize> {
        match self.dense_of.get(node.index()) {
            Some(&d) if d != u32::MAX => Some(d as usize),
            _ => None,
        }
    }

    /// Neighbors of a dense switch index: `(dense neighbor, link)` pairs in
    /// link-id order, as one contiguous CSR slice.
    #[inline]
    pub fn neighbors(&self, dense: usize) -> &[(u32, LinkId)] {
        &self.packed[self.offsets[dense] as usize..self.offsets[dense + 1] as usize]
    }

    /// Offset of `dense`'s first CSR entry: `neighbors(dense)[j]` sits at
    /// flat position `row_start(dense) + j`, the position
    /// [`PlaneGraph::link_at`] takes.
    #[inline]
    pub fn row_start(&self, dense: usize) -> usize {
        self.offsets[dense] as usize
    }

    /// Link of the packed CSR entry at flat position `pos` (see
    /// [`PlaneGraph::row_start`]).
    #[inline]
    pub fn link_at(&self, pos: usize) -> LinkId {
        self.packed[pos].1
    }

    /// Lowest id of any link of this plane in the network, up or down, host
    /// attachments included. Link state cannot move it, and it is even (a
    /// cable's two directions are `2k, 2k + 1`). The route table stores a
    /// link as its offset from the base, so a [`PathSet`](crate::PathSet)
    /// means the same paths in every plane of a [shape class](shape_classes).
    #[inline]
    pub fn base(&self) -> u32 {
        self.base
    }

    /// Whether `other` is a copy of this graph up to the plane base: same
    /// switch count, same rack → ToR index, CSR rows equal position by
    /// position in neighbour index and in link offset from the
    /// [base](PlaneGraph::base). Every traversal takes identical steps on
    /// both, link-id tie-breaks included, and finds the same paths as
    /// offsets.
    pub fn same_shape(&self, other: &PlaneGraph) -> bool {
        let offset = |pg: &PlaneGraph, l: LinkId| l.0 - pg.base;
        self.tor_of_rack == other.tor_of_rack
            && self.offsets == other.offsets
            && (self.packed.iter().zip(&other.packed))
                .all(|(&(u, a), &(v, b))| u == v && offset(self, a) == offset(other, b))
    }

    /// Exact hop count from every switch to `target` (both dense indices):
    /// `hops_to(t)[v]` is the length of the shortest `v -> t` path over up
    /// links, [`UNREACHABLE`] if there is none. Directions are kept apart, so
    /// a cable with one direction down is handled. The whole table — one BFS
    /// per switch, `n²` `u16`s — is built by the first call on this snapshot.
    pub fn hops_to(&self, target: usize) -> &[u16] {
        let n = self.n_switches();
        let table = self.hops.get_or_init(|| self.all_pairs_hops());
        &table[target * n..(target + 1) * n]
    }

    fn all_pairs_hops(&self) -> Vec<u16> {
        let n = self.n_switches();
        assert!(n <= UNREACHABLE as usize, "hop counts are u16");
        let mut table = vec![UNREACHABLE; n * n];
        let mut queue: Vec<u32> = Vec::with_capacity(n);
        // A forward BFS from `s` yields `d(s, v)` for every `v`: column `s`.
        for s in 0..n {
            queue.clear();
            queue.push(s as u32);
            table[s * n + s] = 0;
            let mut head = 0;
            while head < queue.len() {
                let u = queue[head] as usize;
                head += 1;
                let next = table[u * n + s] + 1;
                for &(v, _) in self.neighbors(u) {
                    let cell = &mut table[v as usize * n + s];
                    if *cell == UNREACHABLE {
                        *cell = next;
                        queue.push(v);
                    }
                }
            }
        }
        table
    }

    /// Total directed fabric links in the plane graph.
    #[inline]
    pub fn n_directed_links(&self) -> usize {
        self.packed.len()
    }

    /// Every directed fabric link in the plane graph, in packed CSR order
    /// (each duplex cable appears once per direction). Used to diff link
    /// membership against a mutated [`Network`].
    pub fn link_ids(&self) -> impl Iterator<Item = LinkId> + '_ {
        self.packed.iter().map(|&(_, l)| l)
    }
}

/// Shape class of each of `planes`: the lowest index of a plane with the
/// [same shape](PlaneGraph::same_shape). A homogeneous P-Net is one class
/// (its planes are stamped from one graph, link for link); a plane with a
/// failed cable is alone in its own.
pub fn shape_classes(planes: &[PlaneGraph]) -> Vec<usize> {
    (0..planes.len())
        .map(|p| {
            (0..p)
                .find(|&q| planes[q].same_shape(&planes[p]))
                .unwrap_or(p)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::bfs_dist;
    use pnet_topology::{assemble_homogeneous, failures, FatTree, Jellyfish, LinkProfile};

    /// `pg` without the directed link `l`; its reverse stays up. No cable
    /// failure does that, but link state is per direction.
    fn without_link(mut pg: PlaneGraph, l: LinkId) -> PlaneGraph {
        let at = pg.packed.iter().position(|&(_, x)| x == l).unwrap();
        pg.packed.remove(at);
        for off in pg.offsets.iter_mut().filter(|off| **off as usize > at) {
            *off -= 1;
        }
        pg.hops = OnceLock::new();
        pg
    }

    fn assert_hops_match_bfs(pg: &PlaneGraph) {
        for s in 0..pg.n_switches() {
            for (t, &d) in bfs_dist(pg, s).iter().enumerate() {
                let want = u16::try_from(d).unwrap_or(UNREACHABLE);
                assert_eq!(pg.hops_to(t)[s], want, "hops {s} -> {t}");
            }
        }
    }

    #[test]
    fn hops_to_is_exact_per_direction_and_marks_unreachable() {
        let net = assemble_homogeneous(
            &Jellyfish::new(10, 3, 1, 4),
            1,
            &LinkProfile::paper_default(),
        );
        let full = PlaneGraph::build(&net, PlaneId(0));
        assert_hops_match_bfs(&full);
        // One direction of one cable down: 0 -> v is a detour, v -> 0 is not.
        let (v, l) = full.neighbors(0)[0];
        let one_way = without_link(full, l);
        assert_hops_match_bfs(&one_way);
        assert_eq!(one_way.hops_to(0)[v as usize], 1);
        assert!(one_way.hops_to(v as usize)[0] > 1, "table assumed symmetry");
        // Every out-link of switch 0 down: it reaches nothing, all reach it.
        let mut island = one_way;
        while let Some(&(_, l)) = island.neighbors(0).first() {
            island = without_link(island, l);
        }
        assert_hops_match_bfs(&island);
        for t in 1..island.n_switches() {
            assert_eq!(island.hops_to(t)[0], UNREACHABLE);
            assert!(island.hops_to(0)[t] < 10);
        }
    }

    #[test]
    fn fat_tree_plane_graph_counts() {
        let net = assemble_homogeneous(&FatTree::three_tier(4), 2, &LinkProfile::paper_default());
        let pg = PlaneGraph::build(&net, PlaneId(0));
        assert_eq!(pg.n_switches(), 20);
        assert_eq!(pg.n_racks(), 8);
        // 32 duplex fabric cables -> 64 directed links.
        assert_eq!(pg.n_directed_links(), 64);
        // Every rack has a ToR.
        for r in 0..8 {
            let t = pg.tor(RackId(r));
            assert!(t < pg.n_switches());
        }
    }

    #[test]
    fn failed_links_excluded() {
        let mut net =
            assemble_homogeneous(&FatTree::three_tier(4), 1, &LinkProfile::paper_default());
        let before = PlaneGraph::build(&net, PlaneId(0)).n_directed_links();
        let cables = failures::fabric_cables(&net, None);
        failures::fail_cable(&mut net, cables[0]);
        let after = PlaneGraph::build(&net, PlaneId(0)).n_directed_links();
        assert_eq!(after, before - 2);
    }

    #[test]
    fn same_shape_holds_for_identical_planes_only() {
        let mut net = assemble_homogeneous(
            &Jellyfish::new(16, 4, 1, 9),
            3,
            &LinkProfile::paper_default(),
        );
        let pgs = PlaneGraph::build_all(&net);
        for a in &pgs {
            for b in &pgs {
                assert!(a.same_shape(b), "{} vs {}", a.plane, b.plane);
            }
        }
        assert_eq!(shape_classes(&pgs), [0, 0, 0]);
        // Link ids differ between the copies; offsets from the base line up.
        assert_ne!(pgs[0].link_at(0), pgs[1].link_at(0));
        assert_eq!(pgs[1].link_at(5), pgs[1].neighbors(1)[1].1);
        for at in 0..pgs[0].n_directed_links() {
            let offset = |pg: &PlaneGraph| pg.link_at(at).0 - pg.base();
            assert_eq!(offset(&pgs[0]), offset(&pgs[2]));
        }
        let first = |p| net.links().find(|(_, l)| l.plane == PlaneId(p)).unwrap().0;
        assert_eq!(
            pgs.iter().map(|pg| pg.base()).collect::<Vec<_>>(),
            [0, 1, 2].map(|p| first(p).0)
        );
        // A failed cable changes one plane's rows, and only that plane's.
        let cable = failures::fabric_cables(&net, Some(PlaneId(1)))[3];
        failures::fail_cable(&mut net, cable);
        let cut = PlaneGraph::build_all(&net);
        assert!(!cut[1].same_shape(&cut[0]) && !cut[0].same_shape(&cut[1]));
        assert!(!cut[1].same_shape(&pgs[1]));
        assert!(cut[0].same_shape(&cut[2]));
        assert_eq!(shape_classes(&cut), [0, 1, 0]);
        assert_eq!(cut[1].base(), pgs[1].base(), "a failure moved the base");
        // Same size and degree, different wiring.
        let other = assemble_homogeneous(
            &Jellyfish::new(16, 4, 1, 10),
            1,
            &LinkProfile::paper_default(),
        );
        assert!(!pgs[0].same_shape(&PlaneGraph::build(&other, PlaneId(0))));
    }

    #[test]
    fn planes_have_disjoint_switches() {
        let net = assemble_homogeneous(&FatTree::three_tier(4), 2, &LinkProfile::paper_default());
        let pg0 = PlaneGraph::build(&net, PlaneId(0));
        let pg1 = PlaneGraph::build(&net, PlaneId(1));
        for i in 0..pg0.n_switches() {
            assert!(pg1.dense(pg0.node(i)).is_none());
        }
    }

    #[test]
    fn jellyfish_plane_graph() {
        let net = assemble_homogeneous(
            &Jellyfish::new(10, 3, 1, 4),
            1,
            &LinkProfile::paper_default(),
        );
        let pg = PlaneGraph::build(&net, PlaneId(0));
        assert_eq!(pg.n_switches(), 10);
        assert_eq!(pg.n_directed_links(), 30);
        // 3-regular.
        for u in 0..10 {
            assert_eq!(pg.neighbors(u).len(), 3);
        }
    }

    #[test]
    fn csr_rows_sorted_by_link_id() {
        let net = assemble_homogeneous(
            &Jellyfish::new(16, 4, 1, 9),
            2,
            &LinkProfile::paper_default(),
        );
        for plane in [PlaneId(0), PlaneId(1)] {
            let pg = PlaneGraph::build(&net, plane);
            for u in 0..pg.n_switches() {
                let row = pg.neighbors(u);
                for w in row.windows(2) {
                    assert!(w[0].1 < w[1].1, "row of {u} not sorted by link id");
                }
            }
        }
    }

    #[test]
    fn dense_and_node_are_inverse() {
        let net = assemble_homogeneous(&FatTree::three_tier(4), 2, &LinkProfile::paper_default());
        let pg = PlaneGraph::build(&net, PlaneId(1));
        for u in 0..pg.n_switches() {
            assert_eq!(pg.dense(pg.node(u)), Some(u));
        }
    }
}
