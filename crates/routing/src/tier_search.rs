//! K shortest loopless paths on plane graphs, enumerated by length tier.
//!
//! The paper pairs KSP routing with MPTCP as the forwarding scheme that can
//! actually exploit P-Net capacity (section 4), following Jellyfish \[38\].
//! Paths are ranked by fabric-link count, ties by their link ids, so route
//! tables are reproducible across runs.
//!
//! One enumerator fills every route-table entry (`route_set`): for each
//! length from the shortest up it walks the plane depth-first and emits the
//! simple paths of exactly that length, fewest links first and, within a
//! length, in link-id order. A KSP entry takes tiers until it holds K paths;
//! an ECMP entry is the first tier, truncated at its cap. Emitted sequences
//! are canonical — the K smallest simple paths in (length, link ids) order:
//! `tests/props.rs` checks that link for link against a brute-force
//! enumeration of every simple path; `tests/golden_fingerprint.rs` pins it
//! for full topologies.

use crate::path::PathSet;
use crate::plane_graph::{PlaneGraph, UNREACHABLE};
use crate::router::RouteAlgo;
use crate::scratch::{with_thread_scratch, RouteScratch};
use pnet_topology::RackId;

/// One turn of the depth-first walk (a CSR entry tried, or a backtrack) or
/// one switch dequeued by a slack check, on this thread: the search's unit
/// of work, which the tests bound per table entry.
#[cfg(test)]
fn step() {
    tests::STEPS.with(|c| c.set(c.get() + 1));
}

#[cfg(not(test))]
fn step() {}

/// Length of the shortest `v -> t` path that avoids every switch on the
/// scratch's path, `u32::MAX` if there is none: a BFS in a fresh generation
/// of `scratch`, stopped when it discovers `t`.
fn detour(pg: &PlaneGraph, v: usize, t: usize, scratch: &mut RouteScratch) -> u32 {
    let mut queue = std::mem::take(&mut scratch.queue);
    queue.clear();
    scratch.begin_search();
    scratch.reach(v, 0);
    queue.push(v as u32);
    let mut head = 0;
    let mut found = u32::MAX;
    'bfs: while head < queue.len() {
        let u = queue[head] as usize;
        head += 1;
        step();
        let next = scratch.dist(u) + 1;
        for &(w, _) in pg.neighbors(u) {
            let w = w as usize;
            if w == t {
                found = next;
                break 'bfs;
            }
            if scratch.dist(w) == u32::MAX && !scratch.on_path(w) {
                scratch.reach(w, next);
                queue.push(w as u32);
            }
        }
    }
    scratch.queue = queue;
    found
}

/// Append to the scratch's paths every simple `s -> t` path of exactly `len`
/// links, in link-id order, until it holds `limit`. Returns whether a branch
/// was cut for lack of budget — `t` lies farther from its switch than the
/// links left, by the table or by the BFS — rather than because `t` cannot
/// be reached from it at all.
///
/// A branch from a path of `depth` links to a switch `v` leaves `rem = len -
/// depth - 1` links. It is taken when `v` is neither `t` nor on the path and
/// a simple continuation of at most `rem` links may exist:
/// * `hops_to(t)[v] == rem` (tight): the static table says so;
/// * `hops_to(t)[v] < rem` (slack): so does a BFS from `v` that avoids the
///   path. Without it a switch behind a cut vertex would be walked through
///   every simple prefix of the fabric before the budget ran out.
fn tier(
    pg: &PlaneGraph,
    hops: &[u16],
    (s, t): (usize, usize),
    len: u32,
    limit: usize,
    scratch: &mut RouteScratch,
) -> bool {
    let mut cut = false;
    let mut frames = std::mem::take(&mut scratch.frames);
    let mut prefix = std::mem::take(&mut scratch.prefix);
    frames.clear();
    prefix.clear();
    scratch.begin_path();
    scratch.set_on_path(s, true);
    frames.push((s as u32, 0));
    while let Some(top) = frames.last_mut() {
        step();
        let u = top.0 as usize;
        let Some(&(v, l)) = pg.neighbors(u).get(top.1 as usize) else {
            scratch.set_on_path(u, false);
            frames.pop();
            prefix.pop();
            continue;
        };
        top.1 += 1;
        let v = v as usize;
        let rem = len - prefix.len() as u32 - 1;
        if v == t {
            if rem == 0 {
                scratch.arena.extend_from_slice(&prefix);
                scratch.arena.push(l);
                scratch.ends.push(scratch.arena.len() as u32);
                if scratch.ends.len() == limit {
                    break;
                }
            }
            continue;
        }
        if scratch.on_path(v) || hops[v] == UNREACHABLE {
            continue;
        }
        // Links from `v` to `t`: the table's lower bound, or, with links to
        // spare, the exact count around the path.
        let h = u32::from(hops[v]);
        let to_t = if h < rem {
            detour(pg, v, t, scratch)
        } else {
            h
        };
        if to_t == u32::MAX {
            continue;
        }
        if to_t > rem {
            cut = true;
            continue;
        }
        scratch.set_on_path(v, true);
        frames.push((v as u32, 0));
        prefix.push(l);
    }
    scratch.frames = frames;
    scratch.prefix = prefix;
    cut
}

/// The route-table entry `algo` gives the rack pair `src -> dst` of `pg`:
/// up to [`RouteAlgo::per_plane_limit`] simple paths, shortest first, as one
/// [`PathSet`]. `Ksp` takes tiers of growing length; `Ecmp` the first only.
/// Same-rack pairs hold the one intra-rack path (none at a limit of 0).
///
/// For `L = hops_to(t)[s], L + 1, …` one [`tier`] search emits every simple
/// path of exactly `L` links, stopping at the limit, or after a tier in
/// which no branch was cut for lack of budget, or at `L = n − 1`. The first
/// `limit` paths emitted are the `limit` smallest in (length, link ids)
/// order, because
/// * tiers run in increasing `L`;
/// * within a tier the search visits each CSR row in link-id order, so
///   paths of equal length come out in lexicographic order;
/// * both prunes drop only branches with no simple continuation of at most
///   the links left, so neither drops a path of exactly `L` links;
/// * a tier that cut nothing for budget took every branch with a simple
///   continuation to `t` at all, so it explored every simple path of the
///   plane that reaches `t`, none longer than `L`: a longer tier would walk
///   the same tree and find no path.
///
/// The first tier never branches with slack — a switch one link further
/// along a shortest path has exactly the links left to go — so ECMP reads
/// the static table only.
pub(crate) fn route_set(
    pg: &PlaneGraph,
    algo: RouteAlgo,
    src: RackId,
    dst: RackId,
    scratch: &mut RouteScratch,
) -> PathSet {
    let limit = algo.per_plane_limit();
    if limit == 0 || src == dst {
        // No path, or the one intra-rack path with no link.
        let paths = usize::from(limit > 0);
        return PathSet::from_links(pg.base(), (0..paths).map(|_| std::iter::empty()));
    }
    let (s, t) = (pg.tor(src), pg.tor(dst));
    let hops = pg.hops_to(t);
    scratch.ensure(pg.n_switches());
    scratch.arena.clear();
    scratch.ends.clear();
    if hops[s] != UNREACHABLE {
        let longest = pg.n_switches() as u32 - 1;
        let mut len = u32::from(hops[s]);
        while tier(pg, hops, (s, t), len, limit, scratch)
            && matches!(algo, RouteAlgo::Ksp { .. })
            && scratch.ends.len() < limit
            && len < longest
        {
            len += 1;
        }
    }
    let (arena, ends) = (&scratch.arena, &scratch.ends);
    let start = |i: usize| if i == 0 { 0 } else { ends[i - 1] as usize };
    let path = |i: usize| arena[start(i)..ends[i] as usize].iter().copied();
    PathSet::from_links(pg.base(), (0..ends.len()).map(path))
}

/// [`route_set`] for each rack in `dsts`, on this thread's scratch.
pub(crate) fn route_sets(
    pg: &PlaneGraph,
    algo: RouteAlgo,
    src: RackId,
    dsts: &[RackId],
) -> Vec<PathSet> {
    with_thread_scratch(|scratch| {
        let set = |&dst: &RackId| route_set(pg, algo, src, dst, scratch);
        dsts.iter().map(set).collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Parallelism;
    use crate::path::{Path, PathRef, PlanePaths};
    use crate::plane_graph::shape_classes;
    use crate::router::Router;
    use pnet_topology::{
        assemble_homogeneous, failures, parallel, FatTree, Jellyfish, LinkProfile, Network,
        NetworkClass, PlaneId,
    };
    use std::cell::Cell;
    use std::collections::BTreeSet;

    thread_local! {
        /// [`step`]s taken on this thread.
        pub(super) static STEPS: Cell<u64> = const { Cell::new(0) };
    }

    fn ft_net() -> Network {
        assemble_homogeneous(&FatTree::three_tier(4), 1, &LinkProfile::paper_default())
    }

    fn jellyfish_net(tors: usize, degree: usize, seed: u64) -> Network {
        assemble_homogeneous(
            &Jellyfish::new(tors, degree, 1, seed),
            1,
            &LinkProfile::paper_default(),
        )
    }

    /// Plane 0's `src -> dst` entry of a K = `k` route table, owned.
    fn ksp(net: &Network, src: u32, dst: u32, k: usize) -> Vec<Path> {
        let router = Router::new(net, RouteAlgo::Ksp { k });
        let set = router.paths_in_plane(PlaneId(0), RackId(src), RackId(dst));
        set.iter().map(PathRef::to_path).collect()
    }

    /// Steps a serial all-pairs fill of `net` at K = `k` takes, and the
    /// entries it fills.
    fn filled(net: &Network, k: usize) -> (u64, u64) {
        STEPS.with(|c| c.set(0));
        let router = Router::new(net, RouteAlgo::Ksp { k });
        router.precompute_all_pairs_with(Parallelism::Serial);
        (STEPS.with(Cell::get), router.cached_entries() as u64)
    }

    /// Regression guards that timing noise cannot hide. On the fabric of
    /// the benchmark's `pipeline_cold` an entry costs 609 steps. A bulk fill
    /// searches one plane per shape class: four planes that are copies cost
    /// what one costs, differently wired planes cost their sum.
    #[test]
    fn tier_search_steps_per_entry_stay_bounded() {
        let cold = |planes| {
            assemble_homogeneous(
                &Jellyfish::new(64, 8, 1, 1),
                planes,
                &LinkProfile::paper_default(),
            )
        };
        let ((four, entries), (one, _)) = (filled(&cold(4), 32), filled(&cold(1), 32));
        assert_eq!(entries, 4 * 64 * 63);
        assert_eq!(four, one, "same-shape planes were searched again");
        let per_entry = one / (64 * 63);
        assert!(per_entry <= 700, "{per_entry} steps per table entry");

        // No two planes alike: nothing to share, every plane searched.
        let hetero = parallel::jellyfish_network(
            NetworkClass::ParallelHeterogeneous,
            Jellyfish::new(16, 4, 1, 7),
            3,
            7,
            &LinkProfile::paper_default(),
        );
        let (whole, _) = filled(&hetero, 32);
        let planes = PlaneGraph::build_all(&hetero);
        assert_eq!(shape_classes(&planes), [0, 1, 2]);
        STEPS.with(|c| c.set(0));
        for pg in &planes {
            for src in (0..16).map(RackId) {
                let dsts: Vec<RackId> = (0..16).map(RackId).filter(|&d| d != src).collect();
                route_sets(pg, RouteAlgo::Ksp { k: 32 }, src, &dsts);
            }
        }
        assert_eq!(whole, STEPS.with(Cell::get));
    }

    /// The slack check's guard. On a 32-ToR degree-4 Jellyfish with 30 % of
    /// its cables failed, pruning by the static hop table alone takes 11 264
    /// steps per entry at K = 32; with the BFS on slack branches it takes
    /// 2 005.
    #[test]
    fn tier_search_behind_cut_vertices_stays_bounded() {
        let mut net = jellyfish_net(32, 4, 7);
        failures::fail_random_fraction(&mut net, 0.3, 7);
        let (steps, entries) = filled(&net, 32);
        assert_eq!(entries, 32 * 31);
        let per_entry = steps / entries;
        assert!(per_entry <= 2500, "{per_entry} steps per table entry");
    }

    #[test]
    fn first_path_is_shortest() {
        let paths = ksp(&ft_net(), 0, 7, 8);
        assert_eq!(paths[0].links.len(), 4);
        for w in paths.windows(2) {
            assert!(w[0].links.len() <= w[1].links.len(), "not sorted by length");
        }
    }

    #[test]
    fn paths_are_simple_and_distinct() {
        let net = ft_net();
        let paths = ksp(&net, 0, 7, 16);
        let set: BTreeSet<_> = paths.iter().map(|p| p.links.clone()).collect();
        assert_eq!(set.len(), paths.len(), "duplicate path");
        for p in &paths {
            p.validate(&net).expect("non-simple or broken path");
        }
    }

    #[test]
    fn matches_ecmp_count_for_equal_cost_prefix() {
        // In a k=4 fat tree there are exactly 4 shortest cross-pod paths;
        // KSP(4) must return exactly those 4 (all length 4).
        let paths = ksp(&ft_net(), 0, 7, 4);
        assert_eq!(paths.len(), 4);
        assert!(paths.iter().all(|p| p.links.len() == 4));
    }

    #[test]
    fn longer_paths_appear_after_shortest_exhausted() {
        let paths = ksp(&ft_net(), 0, 7, 6);
        assert_eq!(paths.len(), 6);
        assert!(paths[4].links.len() > 4);
    }

    #[test]
    fn jellyfish_ksp_is_deterministic() {
        let net = jellyfish_net(16, 4, 3);
        let a = ksp(&net, 0, 9, 8);
        let b = ksp(&net, 0, 9, 8);
        assert_eq!(a, b);
        assert_eq!(a.len(), 8);
    }

    #[test]
    fn k_zero_and_same_rack() {
        let net = ft_net();
        assert!(ksp(&net, 0, 7, 0).is_empty());
        let same = ksp(&net, 3, 3, 5);
        assert_eq!(same.len(), 1);
        assert!(same[0].links.is_empty());
    }

    #[test]
    fn ksp_prefix_stability() {
        // ksp(k) is a prefix of ksp(k') for k < k' — required for the
        // multipath sweeps of Figures 6c and 8c to be monotone.
        let net = jellyfish_net(14, 4, 8);
        let small = ksp(&net, 1, 12, 4);
        let big = ksp(&net, 1, 12, 8);
        assert_eq!(&big[..4], &small[..]);
    }

    #[test]
    fn batched_destinations_match_per_pair_ksp() {
        let net = jellyfish_net(12, 4, 31);
        let pg = PlaneGraph::build(&net, PlaneId(0));
        // Every rack, the source included (its entry is the intra-rack path).
        let dsts: Vec<RackId> = (0..12).map(RackId).collect();
        let all = route_sets(&pg, RouteAlgo::Ksp { k: 6 }, RackId(2), &dsts);
        assert_eq!(all.len(), 12);
        for (r, set) in (0..12u32).zip(all) {
            assert_eq!(
                PlanePaths::new(pg.plane, pg.base(), std::sync::Arc::new(set)),
                PlanePaths::from(ksp(&net, 2, r, 6).as_slice()),
                "batched KSP diverged for destination rack {r}"
            );
        }
    }
}
