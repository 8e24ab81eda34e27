//! Path types shared by all routing algorithms.
//!
//! Routing operates at *rack level*: a [`Path`] is a sequence of fabric links
//! from the source rack's ToR to the destination rack's ToR, entirely within
//! one plane (the P-Net forwarding constraint). Host-level source routes for
//! the packet simulator are derived with [`host_route`], which prepends the
//! source host's uplink and appends the destination host's downlink.
//!
//! An owned [`Path`] is what a query *returns*. The route table holds
//! [`PathSet`]s — one allocation per distinct entry, its links stored
//! relative to the plane's [base](crate::PlaneGraph::base), so that every
//! plane of a shape class shares one set — and lends them as
//! [`PlanePaths`], which decode [`PathRef`]s in one plane on read.

use pnet_topology::{HostId, LinkId, Network, PlaneId};
use std::fmt;
use std::sync::Arc;

/// A rack-to-rack path inside one plane.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Path {
    /// The plane the path lives in.
    pub plane: PlaneId,
    /// Fabric links from the source ToR to the destination ToR. Empty when
    /// source and destination racks coincide.
    pub links: Vec<LinkId>,
}

impl Path {
    /// An intra-rack path (source and destination behind the same ToR).
    pub fn intra_rack(plane: PlaneId) -> Self {
        Path {
            plane,
            links: Vec::new(),
        }
    }

    /// Number of switch hops a packet traverses end to end (ToRs included).
    /// An intra-rack path crosses one switch; each fabric link adds one.
    #[inline]
    pub fn switch_hops(&self) -> usize {
        self.links.len() + 1
    }

    /// Sum of propagation delays along the fabric links, picoseconds.
    pub fn fabric_delay_ps(&self, net: &Network) -> u64 {
        self.links.iter().map(|&l| net.link(l).delay_ps).sum()
    }

    /// Check the path is well-formed in `net`: consecutive links share
    /// endpoints, all links are up and in the declared plane, and no switch
    /// repeats (simple path).
    pub fn validate(&self, net: &Network) -> Result<(), String> {
        let mut seen = std::collections::BTreeSet::new();
        for (i, &l) in self.links.iter().enumerate() {
            let link = net.link(l);
            if link.plane != self.plane {
                return Err(format!("link {l} not in plane {}", self.plane));
            }
            if !link.up {
                return Err(format!("link {l} is down"));
            }
            if i > 0 {
                let prev = net.link(self.links[i - 1]);
                if prev.dst != link.src {
                    return Err(format!("links {} -> {l} do not chain", self.links[i - 1]));
                }
            }
            if !seen.insert(link.src) {
                return Err(format!("switch {} repeats", link.src));
            }
        }
        if let Some(&last) = self.links.last() {
            let dst = net.link(last).dst;
            if seen.contains(&dst) {
                return Err(format!("switch {dst} repeats at path end"));
            }
        }
        Ok(())
    }
}

/// A borrowed [`Path`]: what a [`PlanePaths`] lends and every reader of a
/// path takes (`&Path` converts). Equal when plane and links are.
#[derive(Clone, Copy)]
pub struct PathRef<'a> {
    /// The plane the path lives in.
    pub plane: PlaneId,
    links: Links<'a>,
}

/// The links behind a [`PathRef`], as the two owners store them.
#[derive(Clone, Copy)]
enum Links<'a> {
    /// An owned [`Path`]'s ids.
    Ids(&'a [LinkId]),
    /// A [`PathSet`]'s offsets, and the plane base they are added to.
    Offsets(u32, &'a [u16]),
}

impl<'a> PathRef<'a> {
    /// Number of fabric links.
    pub fn n_links(self) -> usize {
        match self.links {
            Links::Ids(ids) => ids.len(),
            Links::Offsets(_, rel) => rel.len(),
        }
    }

    /// Link `i`: an owned path's id, or the plane base plus a set's offset.
    fn link(self, i: usize) -> LinkId {
        match self.links {
            Links::Ids(ids) => ids[i],
            Links::Offsets(base, rel) => LinkId(base + u32::from(rel[i])),
        }
    }

    /// Fabric links from the source ToR to the destination ToR.
    pub fn links(self) -> impl DoubleEndedIterator<Item = LinkId> + ExactSizeIterator + Clone + 'a {
        (0..self.n_links()).map(move |i| self.link(i))
    }

    /// The path, owned.
    pub fn to_path(self) -> Path {
        Path {
            plane: self.plane,
            links: self.links().collect(),
        }
    }
}

impl PartialEq for PathRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.plane == other.plane && self.links().eq(other.links())
    }
}

impl Eq for PathRef<'_> {}

impl fmt::Debug for PathRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ", self.plane)?;
        f.debug_list().entries(self.links()).finish()
    }
}

impl<'a> From<&'a Path> for PathRef<'a> {
    fn from(path: &'a Path) -> Self {
        PathRef {
            plane: path.plane,
            links: Links::Ids(&path.links),
        }
    }
}

/// The widest K a route table is asked for. A [`PathSet`] counts its paths
/// and its links in `u16`, and routers are built up to
/// `max(`[`subflow_width`](crate::subflow_width)`(K), 32)` paths per plane
/// (the flow solver's 2K to merge across planes, the path selector at least
/// 32): 2 · 256 = 512 paths of up to 127 links each fit. The command lines
/// reject a wider K.
pub const MAX_K: usize = 256;

/// The paths of one route-table entry, shortest first and then by link ids,
/// in one allocation and in no plane: each link is stored as its
/// `u16` offset from the plane's [base](crate::PlaneGraph::base). Planes of
/// one [shape class](crate::plane_graph::shape_classes) compute equal sets,
/// so they share one; [`PlanePaths`] reads it in a given plane.
#[derive(Debug, PartialEq, Eq)]
pub struct PathSet {
    n_paths: u16,
    /// `n_paths` words holding each path's end offset into the links, then
    /// every path's links back to back.
    block: Box<[u16]>,
}

impl PathSet {
    /// The set of `paths`, each the links of one path of a plane whose base
    /// is `base`, shortest first and then by link ids.
    pub(crate) fn from_links<P: ExactSizeIterator<Item = LinkId>>(
        base: u32,
        paths: impl ExactSizeIterator<Item = P> + Clone,
    ) -> PathSet {
        let (n_paths, n_links) = (paths.len(), paths.clone().map(|p| p.len()).sum::<usize>());
        let wide = usize::from(u16::MAX);
        assert!(
            n_paths <= wide && n_links <= wide,
            "path counts and end offsets are u16"
        );
        let mut block = Vec::with_capacity(n_paths + n_links);
        block.resize(n_paths, 0);
        for (i, path) in paths.enumerate() {
            for l in path {
                // Below the base wraps past the bound too.
                let offset = l.0.wrapping_sub(base);
                assert!(
                    offset <= u32::from(u16::MAX),
                    "link offsets from the plane base are u16: {l} is {offset} past {base}"
                );
                block.push(offset as u16);
            }
            block[i] = (block.len() - n_paths) as u16;
        }
        PathSet {
            n_paths: n_paths as u16,
            block: block.into_boxed_slice(),
        }
    }

    /// Number of paths.
    pub fn len(&self) -> usize {
        usize::from(self.n_paths)
    }

    /// True when the racks are disconnected in this plane.
    pub fn is_empty(&self) -> bool {
        self.n_paths == 0
    }

    /// Every link of every path, back to back in path order, as offsets
    /// from the plane base.
    pub(crate) fn links(&self) -> &[u16] {
        &self.block[self.len()..]
    }

    /// Path `i`'s links as offsets from the plane base. Panics past the end.
    pub(crate) fn rel(&self, i: usize) -> &[u16] {
        assert!(i < self.len(), "path {i} of a {}-path set", self.len());
        let start = if i == 0 { 0 } else { self.block[i - 1] };
        &self.links()[usize::from(start)..usize::from(self.block[i])]
    }
}

/// A [`PathSet`] read in one plane: what
/// [`Router::paths_in_plane`](crate::Router::paths_in_plane) returns. Links
/// decode on read; cloning copies a pointer.
#[derive(Debug, Clone)]
pub struct PlanePaths {
    plane: PlaneId,
    /// The plane's [`PlaneGraph::base`](crate::PlaneGraph::base).
    base: u32,
    pub(crate) set: Arc<PathSet>,
}

/// Path for path: an empty set equals an empty set, whatever its plane.
impl PartialEq for PlanePaths {
    fn eq(&self, other: &PlanePaths) -> bool {
        self.iter().eq(other.iter())
    }
}

impl From<&[Path]> for PlanePaths {
    /// Flatten `paths`, which share one plane (an empty list gives an empty
    /// set in plane 0) and are shortest first, then by link ids. The base is their
    /// lowest link id, so the `u16` bound is on the spread of their ids.
    fn from(paths: &[Path]) -> Self {
        let plane = paths.first().map_or(PlaneId(0), |p| p.plane);
        assert!(paths.iter().all(|p| p.plane == plane), "one plane per set");
        let base = paths.iter().flat_map(|p| &p.links).map(|l| l.0).min();
        let base = base.unwrap_or(0);
        let links = paths.iter().map(|p| p.links.iter().copied());
        PlanePaths::new(plane, base, Arc::new(PathSet::from_links(base, links)))
    }
}

impl PlanePaths {
    /// `set` read in `plane`, whose base is `base`.
    pub(crate) fn new(plane: PlaneId, base: u32, set: Arc<PathSet>) -> Self {
        PlanePaths { plane, base, set }
    }

    /// Number of paths.
    pub fn len(&self) -> usize {
        self.set.len()
    }

    /// True when the racks are disconnected in this plane.
    pub fn is_empty(&self) -> bool {
        self.set.is_empty()
    }

    /// Path `i`, 0 being the shortest. Panics past the end.
    pub fn get(&self, i: usize) -> PathRef<'_> {
        PathRef {
            plane: self.plane,
            links: Links::Offsets(self.base, self.set.rel(i)),
        }
    }

    /// The paths, shortest first.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = PathRef<'_>> + ExactSizeIterator + Clone {
        (0..self.len()).map(|i| self.get(i))
    }

    /// How many leading paths are as short as the first one.
    pub fn shortest_tier(&self) -> usize {
        let best = self.iter().next().map(|p| p.n_links());
        self.iter()
            .take_while(|p| Some(p.n_links()) == best)
            .count()
    }

    /// [`tie_rotated`] over this set.
    pub fn tie_rotated(&self, hash: u64) -> impl Iterator<Item = usize> + '_ {
        rotated(self.len(), |i| self.set.rel(i).len(), hash)
    }
}

/// Build the full host-to-host source route for the packet simulator:
/// `src` uplink into the plane, the rack path, then `dst`'s downlink.
///
/// Returns `None` if either host lacks an up link into the path's plane.
pub fn host_route<'a>(
    net: &Network,
    src: HostId,
    dst: HostId,
    path: impl Into<PathRef<'a>>,
) -> Option<Vec<LinkId>> {
    let path = path.into();
    let up = net.host_uplink(src, path.plane)?;
    let down = net.host_uplink(dst, path.plane)?.reverse();
    if !net.link(down).up {
        return None;
    }
    let mut route = Vec::with_capacity(path.n_links() + 2);
    route.push(up);
    route.extend(path.links());
    route.push(down);
    // The rack path must start at src's ToR and end at dst's ToR.
    debug_assert_eq!(
        net.link(route[0]).dst,
        net.link(route[1]).src,
        "rack path does not start at the source ToR"
    );
    Some(route)
}

/// Positions of a shortest-first path list in *tie-rotated* order: each
/// equal-length tier rotated left by `hash` modulo its size, so that
/// different flows pick *different* (but still shortest-first) path subsets.
/// Without this, deterministic KSP ordering funnels every flow between the
/// same racks through the same lexicographically-first paths — the opposite
/// of what a hashing path manager (ECMP, MPTCP subflow setup) does. This is
/// the one place the rule lives: [`Router::subflows`](crate::Router::subflows)
/// and the selector's per-plane KSP read path sets through it and never
/// reorder them.
pub fn tie_rotated(paths: &[Path], hash: u64) -> impl Iterator<Item = usize> + '_ {
    rotated(paths.len(), |i| paths[i].links.len(), hash)
}

/// [`tie_rotated`] for `n` paths, path `i` having `len_of(i)` links.
fn rotated<'a>(
    n: usize,
    len_of: impl Fn(usize) -> usize + 'a,
    hash: u64,
) -> impl Iterator<Item = usize> + 'a {
    // The tier `start..end` holding the position being emitted.
    let (mut start, mut end) = (0, 0);
    (0..n).map(move |i| {
        if i == end {
            let len = len_of(i);
            (start, end) = (i, i + (i..n).take_while(|&j| len_of(j) == len).count());
        }
        let tier = end - start;
        start + (i - start + (hash % tier as u64) as usize) % tier
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnet_topology::{assemble_homogeneous, FatTree, HostId, LinkProfile, PlaneId, RackId};

    fn net() -> Network {
        assemble_homogeneous(&FatTree::three_tier(4), 2, &LinkProfile::paper_default())
    }

    #[test]
    fn intra_rack_path_hops() {
        let p = Path::intra_rack(PlaneId(0));
        assert_eq!(p.switch_hops(), 1);
        assert!(p.links.is_empty());
    }

    #[test]
    fn host_route_shape_intra_rack() {
        let n = net();
        // Hosts 0 and 1 share rack 0 in a k=4 fat tree.
        let p = Path::intra_rack(PlaneId(0));
        let r = host_route(&n, HostId(0), HostId(1), &p).unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(n.link(r[0]).src, n.host_node(HostId(0)));
        assert_eq!(n.link(r[1]).dst, n.host_node(HostId(1)));
    }

    /// A route-table entry is shortest first, then by link ids; the merge
    /// across planes is shortest first, then by rank in the plane's tier,
    /// then by plane.
    #[test]
    fn sort_orders_by_len_then_plane() {
        let n = net();
        let router = crate::Router::new(&n, crate::RouteAlgo::Ksp { k: 6 });
        let (a, b) = (RackId(0), RackId(7));
        for plane in [PlaneId(0), PlaneId(1)] {
            let set = router.paths_in_plane(plane, a, b);
            let keys: Vec<(usize, Vec<LinkId>)> = set
                .iter()
                .map(|p| (p.n_links(), p.links().collect()))
                .collect();
            assert!(keys.is_sorted(), "{plane}: {keys:?}");
        }
        let merged = router.k_best_across_planes(a, b, 12);
        let keys: Vec<(usize, u16)> = merged.iter().map(|p| (p.links.len(), p.plane.0)).collect();
        // Two copies of one plane: four shortest paths each, then two longer.
        let want = [
            (4, 0),
            (4, 1),
            (4, 0),
            (4, 1),
            (4, 0),
            (4, 1),
            (4, 0),
            (4, 1),
        ];
        assert_eq!(keys[..8], want);
        assert_eq!(keys[8..], [(6, 0), (6, 1), (6, 0), (6, 1)]);
    }

    /// Paths in plane 1 whose ids run from `base` to `base + span`.
    fn spread(base: u32, span: u32) -> Vec<Path> {
        let path = |ids: &[u32]| Path {
            plane: PlaneId(1),
            links: ids.iter().map(|&l| LinkId(base + l)).collect(),
        };
        vec![path(&[span]), path(&[0, span / 2])]
    }

    #[test]
    fn a_set_bounds_the_spread_of_its_ids_not_their_position() {
        let far = spread(3 * 65_536 + 7, u32::from(u16::MAX));
        let set = PlanePaths::from(&far[..]);
        assert!(set.iter().eq(far.iter().map(PathRef::from)));
    }

    #[test]
    #[should_panic(expected = "link offsets from the plane base are u16")]
    fn a_set_rejects_an_offset_past_u16() {
        let _ = PlanePaths::from(&spread(2, 65_536)[..]);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Offsets decode back to the ids they were stored from, up to
        /// `u16::MAX` past the base.
        #[test]
        fn offsets_decode_to_their_ids(
            base in 0u32..=(u32::MAX - 65_535), seed: u64, n_paths in 1usize..=8,
        ) {
            let mut x = seed;
            let mut next = || {
                x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                (x >> 33) as u32
            };
            let mut paths: Vec<Vec<LinkId>> = (0..n_paths)
                .map(|_| (0..next() % 6).map(|_| LinkId(base + next() % 65_536)).collect())
                .collect();
            paths[0].push(LinkId(base + u32::from(u16::MAX)));
            let set = PathSet::from_links(base, paths.iter().map(|p| p.iter().copied()));
            let set = PlanePaths::new(PlaneId(2), base, Arc::new(set));
            proptest::prop_assert_eq!(set.len(), n_paths);
            for (i, ids) in paths.iter().enumerate() {
                proptest::prop_assert!(set.get(i).links().eq(ids.iter().copied()), "path {i}");
                proptest::prop_assert_eq!(set.get(i).n_links(), ids.len());
            }
        }
    }

    #[test]
    fn validate_rejects_cross_plane() {
        let n = net();
        // Take a plane-1 uplink but declare plane 0.
        let up = n.host_uplink(HostId(0), PlaneId(1)).unwrap();
        let p = Path {
            plane: PlaneId(0),
            links: vec![up],
        };
        assert!(p.validate(&n).is_err());
    }
}
