//! Test-only: the breadth-first reference [`PlaneGraph::hops_to`] is checked
//! against, and the distance and equal-cost checks of the route table.

use crate::plane_graph::PlaneGraph;
use std::collections::VecDeque;

/// Distance (in fabric links) from `src` to every switch; `u32::MAX` for
/// unreachable switches.
pub(crate) fn bfs_dist(pg: &PlaneGraph, src: usize) -> Vec<u32> {
    let mut dist = vec![u32::MAX; pg.n_switches()];
    dist[src] = 0;
    let mut queue = VecDeque::from([src]);
    while let Some(u) = queue.pop_front() {
        for &(v, _) in pg.neighbors(u) {
            let v = v as usize;
            if dist[v] == u32::MAX {
                dist[v] = dist[u] + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}

mod tests {
    use crate::path::PathRef;
    use crate::{RouteAlgo, Router};
    use pnet_topology::{assemble_homogeneous, FatTree, LinkProfile, Network, PlaneId, RackId};

    fn ft_net() -> Network {
        assemble_homogeneous(&FatTree::three_tier(4), 1, &LinkProfile::paper_default())
    }

    /// The first path of plane 0's `src -> dst` entry, owned.
    fn shortest(net: &Network, src: u32, dst: u32) -> crate::Path {
        let router = Router::new(net, RouteAlgo::Ksp { k: 1 });
        let set = router.paths_in_plane(PlaneId(0), RackId(src), RackId(dst));
        set.get(0).to_path()
    }

    /// Plane 0's equal-cost paths `src -> dst`, up to 32.
    fn ecmp(net: &Network, src: u32, dst: u32) -> Vec<crate::Path> {
        let router = Router::new(net, RouteAlgo::Ecmp);
        let set = router.paths_in_plane(PlaneId(0), RackId(src), RackId(dst));
        set.iter().map(PathRef::to_path).collect()
    }

    #[test]
    fn same_pod_distance_is_two_links() {
        let net = ft_net();
        // Racks 0 and 1 share pod 0: ToR-agg-ToR = 2 links = 3 switch hops.
        let p = shortest(&net, 0, 1);
        assert_eq!(p.links.len(), 2);
        assert_eq!(p.switch_hops(), 3);
        p.validate(&net).unwrap();
    }

    #[test]
    fn cross_pod_distance_is_four_links() {
        let net = ft_net();
        let p = shortest(&net, 0, 7);
        assert_eq!(p.links.len(), 4); // ToR-agg-core-agg-ToR
        assert_eq!(p.switch_hops(), 5);
        p.validate(&net).unwrap();
    }

    #[test]
    fn ecmp_path_count_in_fat_tree() {
        let net = ft_net();
        // k=4 fat tree: (k/2)^2 = 4 shortest cross-pod paths.
        let paths = ecmp(&net, 0, 7);
        assert_eq!(paths.len(), 4);
        for p in &paths {
            assert_eq!(p.links.len(), 4);
            p.validate(&net).unwrap();
        }
        // Same-pod: k/2 = 2 paths.
        assert_eq!(ecmp(&net, 0, 1).len(), 2);
    }

    /// A k = 12 fat tree has 36 shortest paths between pods; ECMP keeps 32.
    #[test]
    fn enumeration_respects_cap() {
        let fat = FatTree::three_tier(12);
        let net = assemble_homogeneous(&fat, 1, &LinkProfile::paper_default());
        assert_eq!(ecmp(&net, 0, 71).len(), 32);
        assert_eq!(RouteAlgo::Ecmp.per_plane_limit(), 32);
    }

    #[test]
    fn paths_are_distinct() {
        let paths = ecmp(&ft_net(), 0, 7);
        let set: std::collections::HashSet<_> = paths.iter().map(|p| p.links.clone()).collect();
        assert_eq!(set.len(), paths.len());
    }

    /// A bulk ECMP fill holds what lazy lookups compute, and each entry is
    /// the first tier of the KSP entry.
    #[test]
    fn batched_ecmp_matches_per_pair() {
        let net = ft_net();
        let router = Router::new(&net, RouteAlgo::Ecmp);
        router.precompute_all_pairs();
        let ksp = Router::new(&net, RouteAlgo::Ksp { k: 8 });
        for dst in 1..8 {
            let batched = router.paths_in_plane(PlaneId(0), RackId(0), RackId(dst));
            let single = ecmp(&net, 0, dst);
            assert!(
                batched.iter().eq(single.iter().map(PathRef::from)),
                "batched ECMP diverged for destination {dst}"
            );
            let tiers = ksp.paths_in_plane(PlaneId(0), RackId(0), RackId(dst));
            assert!(batched.iter().eq(tiers.iter().take(tiers.shortest_tier())));
        }
    }

    #[test]
    fn deterministic_shortest_path() {
        let net = ft_net();
        assert_eq!(shortest(&net, 0, 7), shortest(&net, 0, 7));
    }
}
