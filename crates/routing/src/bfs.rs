//! Breadth-first shortest paths on plane graphs: distances and
//! deterministic single paths.
//!
//! Traversals run on the CSR adjacency of [`PlaneGraph`] with their state in
//! an epoch-stamped [`RouteScratch`]. Hop counts alone come from
//! [`PlaneGraph::hops_to`]; [`bfs_dist`] is the reference its tests check it
//! against. Equal-cost path sets are the first tier of the path search in
//! [`crate::tier_search`].

use crate::path::Path;
use crate::plane_graph::PlaneGraph;
use crate::scratch::{with_thread_scratch, RouteScratch};
use pnet_topology::{LinkId, RackId};

/// BFS over the whole plane from dense index `src`, leaving distances and
/// first-discovery parents in the current search generation of `scratch`.
/// Nothing is avoided — this is the plain distance field.
fn bfs_fill(pg: &PlaneGraph, src: usize, scratch: &mut RouteScratch) {
    scratch.ensure(pg.n_switches());
    scratch.begin_search();
    let mut queue = std::mem::take(&mut scratch.queue);
    queue.clear();
    scratch.visit(src, 0, (0, LinkId(0)));
    queue.push(src as u32);
    let mut head = 0;
    while head < queue.len() {
        let u = queue[head] as usize;
        head += 1;
        let du = scratch.dist(u);
        for &(v, l) in pg.neighbors(u) {
            let v = v as usize;
            if scratch.dist(v) == u32::MAX {
                scratch.visit(v, du + 1, (u as u32, l));
                queue.push(v as u32);
            }
        }
    }
    scratch.queue = queue;
}

/// Distance (in fabric links) from `src` to every switch; `u32::MAX` for
/// unreachable switches.
pub fn bfs_dist(pg: &PlaneGraph, src: usize) -> Vec<u32> {
    with_thread_scratch(|scratch| {
        bfs_fill(pg, src, scratch);
        (0..pg.n_switches()).map(|u| scratch.dist(u)).collect()
    })
}

/// One shortest ToR-to-ToR path, deterministic (prefers lowest link ids).
/// `None` if unreachable. Same-rack queries return the empty intra-rack path.
pub fn shortest_path(pg: &PlaneGraph, src: RackId, dst: RackId) -> Option<Path> {
    if src == dst {
        return Some(Path::intra_rack(pg.plane));
    }
    let s = pg.tor(src);
    let t = pg.tor(dst);
    // BFS storing the first (lowest-link-id) parent; neighbor lists are
    // sorted by link id, so first discovery is the deterministic choice.
    with_thread_scratch(|scratch| {
        bfs_fill(pg, s, scratch);
        let d = scratch.dist(t);
        if d == u32::MAX {
            return None;
        }
        let mut links = vec![LinkId(0); d as usize];
        let mut cur = t;
        for i in (0..d as usize).rev() {
            let (p, l) = scratch.parent(cur);
            links[i] = l;
            cur = p as usize;
        }
        Some(Path {
            plane: pg.plane,
            links,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tier_search::all_shortest_paths;
    use crate::{RouteAlgo, Router};
    use pnet_topology::{assemble_homogeneous, FatTree, LinkProfile, Network, PlaneId};

    fn ft_net() -> Network {
        assemble_homogeneous(&FatTree::three_tier(4), 1, &LinkProfile::paper_default())
    }

    #[test]
    fn same_pod_distance_is_two_links() {
        let net = ft_net();
        let pg = PlaneGraph::build(&net, PlaneId(0));
        // Racks 0 and 1 share pod 0: ToR-agg-ToR = 2 links = 3 switch hops.
        let p = shortest_path(&pg, RackId(0), RackId(1)).unwrap();
        assert_eq!(p.links.len(), 2);
        assert_eq!(p.switch_hops(), 3);
        p.validate(&net).unwrap();
    }

    #[test]
    fn cross_pod_distance_is_four_links() {
        let net = ft_net();
        let pg = PlaneGraph::build(&net, PlaneId(0));
        let p = shortest_path(&pg, RackId(0), RackId(7)).unwrap();
        assert_eq!(p.links.len(), 4); // ToR-agg-core-agg-ToR
        assert_eq!(p.switch_hops(), 5);
        p.validate(&net).unwrap();
    }

    #[test]
    fn ecmp_path_count_in_fat_tree() {
        let net = ft_net();
        let pg = PlaneGraph::build(&net, PlaneId(0));
        // k=4 fat tree: (k/2)^2 = 4 shortest cross-pod paths.
        let paths = all_shortest_paths(&pg, RackId(0), RackId(7), 64);
        assert_eq!(paths.len(), 4);
        for p in &paths {
            assert_eq!(p.links.len(), 4);
            p.validate(&net).unwrap();
        }
        // Same-pod: k/2 = 2 paths.
        let paths = all_shortest_paths(&pg, RackId(0), RackId(1), 64);
        assert_eq!(paths.len(), 2);
    }

    #[test]
    fn enumeration_respects_cap() {
        let net = ft_net();
        let pg = PlaneGraph::build(&net, PlaneId(0));
        let paths = all_shortest_paths(&pg, RackId(0), RackId(7), 3);
        assert_eq!(paths.len(), 3);
    }

    #[test]
    fn paths_are_distinct() {
        let net = ft_net();
        let pg = PlaneGraph::build(&net, PlaneId(0));
        let paths = all_shortest_paths(&pg, RackId(0), RackId(7), 64);
        let set: std::collections::HashSet<_> = paths.iter().map(|p| p.links.clone()).collect();
        assert_eq!(set.len(), paths.len());
    }

    #[test]
    fn batched_ecmp_matches_per_pair() {
        let net = ft_net();
        let pg = PlaneGraph::build(&net, PlaneId(0));
        let router = Router::new(&net, RouteAlgo::Ecmp { cap: 64 });
        router.precompute_all_pairs();
        for dst in (1..8).map(RackId) {
            let batched = router.paths_in_plane(PlaneId(0), RackId(0), dst);
            let single = all_shortest_paths(&pg, RackId(0), dst, 64);
            assert!(
                batched.iter().eq(single.iter().map(crate::PathRef::from)),
                "batched ECMP diverged for destination {dst}"
            );
        }
    }

    #[test]
    fn deterministic_shortest_path() {
        let net = ft_net();
        let pg = PlaneGraph::build(&net, PlaneId(0));
        let a = shortest_path(&pg, RackId(0), RackId(7)).unwrap();
        let b = shortest_path(&pg, RackId(0), RackId(7)).unwrap();
        assert_eq!(a, b);
    }
}
