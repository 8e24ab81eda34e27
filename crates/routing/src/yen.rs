//! Yen's K-shortest-loopless-paths algorithm (Yen 1971 \[45\]) on plane graphs.
//!
//! The paper pairs KSP routing with MPTCP as the forwarding scheme that can
//! actually exploit P-Net capacity (section 4), following Jellyfish \[38\].
//! Paths are ranked by fabric-link count with deterministic tie-breaking, so
//! route tables are reproducible across runs.
//!
//! ## Hot-path structure
//!
//! [`ksp`] implements Yen with **Lawler's optimization**: an accepted path
//! that was generated by deviating from its parent at spur index `d` only
//! needs to be spurred from `d` onward — every deviation at an earlier index
//! shares its root with the parent and was already generated (or will be,
//! from whichever path is accepted with that shorter root). Each spur search
//! is **goal-directed and length-capped**: it reads the plane's exact
//! hop-to-target table ([`PlaneGraph::hops_to`]) to walk only the corridor
//! of switches that can still lie on a shortest spur path, and gives up at
//! the length no candidate can still win with (see `constrained_shortest`
//! and the bar rule in `yen_paths`). Accepted paths and waiting candidates
//! sit back to back, whole, in one per-call arena and are handled as 12-byte
//! records, and the result is written from there into one [`PathSet`] block:
//! no path is allocated on its own. All BFS state
//! lives in an epoch-stamped [`RouteScratch`], and the banned first-link set
//! per root prefix is maintained incrementally while the spur index advances.
//!
//! Under the strict total candidate order (length, then lexicographic link
//! ids) the emitted sequence is canonical: the true K smallest simple paths.
//! `tests/props.rs` checks that claim link for link against a brute-force
//! enumeration of every simple path; `tests/golden_fingerprint.rs` pins it
//! for full topologies.

use crate::path::{Path, PathSet, PlanePaths};
use crate::plane_graph::PlaneGraph;
use crate::scratch::{with_thread_scratch, Hop, RouteScratch};
use pnet_topology::{LinkId, RackId};
use std::cmp::Ordering;

/// A path in the arena, accepted or waiting as a candidate: `len` hops at
/// `start`, and the spur index at which it deviates from its parent (0 for
/// the first path).
#[derive(Clone, Copy)]
struct Stored {
    start: u32,
    len: u32,
    dev: u32,
}

impl Stored {
    fn hops<'a>(&self, arena: &'a [Hop]) -> &'a [Hop] {
        &arena[self.start as usize..][..self.len as usize]
    }

    /// The strict total order of paths: length, then lexicographic link ids.
    fn cmp(&self, other: &Stored, arena: &[Hop]) -> Ordering {
        self.len
            .cmp(&other.len)
            .then_with(|| self.hops(arena).cmp(other.hops(arena)))
    }
}

/// Shortest path `src -> dst` honoring the bans staged in `scratch` (banned
/// switches and banned link slots), provided it has at most `cap` links.
/// Appends its hops to `arena` and returns their number; `None` if `dst` is
/// unreachable or farther than `cap`.
///
/// A BFS confined to a corridor: a switch `v` found at depth `d` is admitted
/// only if `d + hops_to(dst)[v] <= bound`, for `bound` the unbanned distance
/// first, then the smallest value that was cut, until `dst` is reached. Bans
/// only remove links, so the table is a lower bound that drops by at most one
/// per surviving link: every BFS predecessor of an admitted switch is
/// admitted too, each level keeps its queue order, and the first bound that
/// reaches `dst` leaves the first-discovery parent chain of the unconfined
/// BFS — with CSR rows sorted by link id, the lexicographically smallest
/// link sequence among the shortest paths.
fn constrained_shortest(
    pg: &PlaneGraph,
    src: usize,
    dst: usize,
    cap: u32,
    scratch: &mut RouteScratch,
    arena: &mut Vec<Hop>,
) -> Option<u32> {
    let hops = pg.hops_to(dst);
    // No simple path is longer; this also stops at `UNREACHABLE` entries.
    let cap = cap.min(pg.n_switches() as u32 - 1);
    let mut bound = u32::from(hops[src]);
    let mut queue = std::mem::take(&mut scratch.queue);
    let mut found = None;
    'bounds: while bound <= cap {
        scratch.begin_search();
        queue.clear();
        scratch.visit(src, 0, (0, LinkId(0)));
        queue.push(src as u32);
        let mut next_bound = u32::MAX;
        let mut head = 0;
        while head < queue.len() {
            let u = queue[head] as usize;
            head += 1;
            #[cfg(test)]
            tests::DEQUEUES.with(|c| c.set(c.get() + 1));
            let depth = scratch.dist(u) + 1;
            for &(v, l) in pg.neighbors(u) {
                let v = v as usize;
                let through = depth + u32::from(hops[v]);
                let open = |s: &RouteScratch| {
                    !s.node_banned(v) && !s.link_slot_banned(l.index()) && s.dist(v) == u32::MAX
                };
                if through > bound {
                    if through < next_bound && open(scratch) {
                        next_bound = through;
                    }
                } else if open(scratch) {
                    scratch.visit(v, depth, (u as u32, l));
                    if v == dst {
                        found = Some(depth);
                        break 'bounds;
                    }
                    queue.push(v as u32);
                }
            }
        }
        bound = next_bound;
    }
    scratch.queue = queue;
    // Copy the parent chain out, last hop first.
    let len = found?;
    let start = arena.len();
    arena.resize(start + len as usize, (LinkId(0), 0));
    let mut cur = dst;
    for hop in arena[start..].iter_mut().rev() {
        let (pred, link) = scratch.parent(cur);
        *hop = (link, cur as u32);
        cur = pred as usize;
    }
    debug_assert_eq!(cur, src);
    Some(len)
}

/// Yen's loop. The ban and search generations of `scratch` are clobbered.
fn yen_paths(pg: &PlaneGraph, s: usize, t: usize, k: usize, scratch: &mut RouteScratch) -> PathSet {
    let mut arena = std::mem::take(&mut scratch.arena);
    arena.clear();
    let mut accepted: Vec<Stored> = Vec::new();
    // The candidates that can still be accepted, worst first (the best one
    // pops off the end): never more than there are slots left in `accepted`.
    let mut cands: Vec<Stored> = Vec::new();
    // Indices of accepted paths whose link prefix matches the current root
    // (and which are long enough to continue past it) — maintained
    // incrementally as the spur index advances.
    let mut matching: Vec<usize> = Vec::new();

    scratch.begin_node_bans();
    scratch.begin_link_bans();
    let mut next =
        constrained_shortest(pg, s, t, u32::MAX, scratch, &mut arena).map(|len| Stored {
            start: 0,
            len,
            dev: 0,
        });
    while let Some(prev) = next {
        accepted.push(prev);
        if accepted.len() == k {
            break;
        }
        let (at, d) = (prev.start as usize, prev.dev as usize);

        // Lawler: spur indices < d would duplicate candidates already
        // generated from prev's ancestors sharing that root.
        matching.clear();
        matching.extend((0..accepted.len()).filter(|&i| {
            let acc = accepted[i].hops(&arena);
            acc.len() > d && acc[..d] == arena[at..at + d]
        }));
        scratch.begin_node_bans();
        let mut spur_node = s;
        for hop in &arena[at..at + d] {
            scratch.ban_node(spur_node);
            spur_node = hop.1 as usize;
        }

        for spur_idx in d..prev.len as usize {
            // Ban the continuation link of every accepted path sharing this
            // root, so the spur cannot recreate an accepted path.
            scratch.begin_link_bans();
            for &i in &matching {
                scratch.ban_link_slot(accepted[i].hops(&arena)[spur_idx].0.index());
            }
            // With `need` slots left and as many candidates waiting, the
            // worst of them is the bar: no two candidates are the same path,
            // so each one ahead of a newcomer takes a slot before it could.
            // A newcomer must sort before the bar — be shorter, or as long
            // with smaller link ids, which its root may already rule out.
            let need = k - accepted.len();
            let cap = if cands.len() == need {
                let bar = cands[0];
                let room = bar.len.saturating_sub(spur_idx as u32);
                let root_loses =
                    room > 0 && arena[at..at + spur_idx] > bar.hops(&arena)[..spur_idx];
                room - u32::from(root_loses)
            } else {
                u32::MAX
            };
            // The candidate is the root, copied, then the spur path.
            let start = arena.len();
            arena.extend_from_within(at..at + spur_idx);
            match constrained_shortest(pg, spur_node, t, cap, scratch, &mut arena) {
                None => arena.truncate(start),
                Some(n) => {
                    let cand = Stored {
                        start: start as u32,
                        len: spur_idx as u32 + n,
                        dev: spur_idx as u32,
                    };
                    let pos = cands.partition_point(|c| c.cmp(&cand, &arena).is_gt());
                    // Lawler's partition: each candidate is the best of its
                    // own (root, banned continuations) class; no two are equal.
                    debug_assert!(cands[pos..]
                        .first()
                        .is_none_or(|c| c.cmp(&cand, &arena).is_lt()));
                    cands.insert(pos, cand);
                    if cands.len() > need {
                        cands.remove(0);
                    }
                }
            }
            let (link, head) = arena[at + spur_idx];
            matching.retain(|&i| {
                let acc = accepted[i].hops(&arena);
                acc.len() > spur_idx + 1 && acc[spur_idx].0 == link
            });
            scratch.ban_node(spur_node);
            spur_node = head as usize;
        }
        next = cands.pop();
    }
    // Accepted in the candidate order, which is `sort_paths` order.
    let links = |acc: &Stored| acc.hops(&arena).iter().map(|hop| hop.0);
    let paths = PathSet::from_links(pg.base(), accepted.iter().map(links));
    scratch.arena = arena;
    paths
}

/// K shortest loopless ToR-to-ToR paths within one plane, shortest first.
/// Returns fewer than `k` paths when the graph does not contain `k` simple
/// paths. Same-rack queries return the single intra-rack path.
pub fn ksp(pg: &PlaneGraph, src: RackId, dst: RackId, k: usize) -> Vec<Path> {
    let set = with_thread_scratch(|scratch| ksp_with_scratch(pg, src, dst, k, scratch));
    let set = PlanePaths::new(pg.plane, pg.base(), std::sync::Arc::new(set));
    set.iter().map(|p| p.to_path()).collect()
}

/// [`ksp`] with an explicit scratch, as the one block the route table stores.
pub fn ksp_with_scratch(
    pg: &PlaneGraph,
    src: RackId,
    dst: RackId,
    k: usize,
    scratch: &mut RouteScratch,
) -> PathSet {
    if k == 0 || src == dst {
        // No path, or the one intra-rack path with no link.
        let paths = usize::from(k > 0);
        return PathSet::from_links(pg.base(), (0..paths).map(|_| std::iter::empty()));
    }
    scratch.ensure(pg.n_switches(), pg.link_bound());
    yen_paths(pg, pg.tor(src), pg.tor(dst), k, scratch)
}

/// KSP from `src` to each rack in `dsts`: one path set per entry of `dsts`,
/// each the corresponding [`ksp`] result.
pub fn ksp_destinations(pg: &PlaneGraph, src: RackId, dsts: &[RackId], k: usize) -> Vec<PathSet> {
    with_thread_scratch(|scratch| {
        let set = |&dst: &RackId| ksp_with_scratch(pg, src, dst, k, scratch);
        dsts.iter().map(set).collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Parallelism;
    use crate::plane_graph::shape_classes;
    use crate::router::{RouteAlgo, Router};
    use pnet_topology::{
        assemble_homogeneous, parallel, FatTree, Jellyfish, LinkProfile, Network, NetworkClass,
        PlaneId,
    };
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use std::cell::Cell;
    use std::collections::BTreeSet;

    thread_local! {
        /// Switches dequeued by [`constrained_shortest`] on this thread.
        pub(super) static DEQUEUES: Cell<u64> = const { Cell::new(0) };
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

    /// The unconfined BFS that [`constrained_shortest`] replaced, kept as its
    /// reference: first-discovery parents over the whole plane.
    fn plain_shortest(
        pg: &PlaneGraph,
        src: usize,
        dst: usize,
        scratch: &mut RouteScratch,
    ) -> Option<Vec<Hop>> {
        scratch.begin_search();
        scratch.visit(src, 0, (0, LinkId(0)));
        let mut queue = vec![src];
        let mut head = 0;
        'search: while head < queue.len() {
            let u = queue[head];
            head += 1;
            for &(v, l) in pg.neighbors(u) {
                let v = v as usize;
                if scratch.node_banned(v)
                    || scratch.link_slot_banned(l.index())
                    || scratch.dist(v) != u32::MAX
                {
                    continue;
                }
                scratch.visit(v, scratch.dist(u) + 1, (u as u32, l));
                if v == dst {
                    break 'search;
                }
                queue.push(v);
            }
        }
        if scratch.dist(dst) == u32::MAX {
            return None;
        }
        let mut hops = Vec::new();
        let mut cur = dst;
        while cur != src {
            let (pred, link) = scratch.parent(cur);
            hops.push((link, cur as u32));
            cur = pred as usize;
        }
        hops.reverse();
        Some(hops)
    }

    /// Same hops as the plain BFS under any bans, and `None` exactly when the
    /// plain path is absent or longer than the cap.
    #[test]
    fn corridor_search_equals_plain_bfs_under_random_bans_and_caps() {
        let mut rng = StdRng::seed_from_u64(16);
        let mut scratch = RouteScratch::new();
        let (mut found, mut capped, mut cut_off) = (0, 0, 0);
        for case in 0..900u64 {
            let net = match case % 3 {
                0 => ft_net(),
                1 => jellyfish_net(16, 4, case),
                _ => jellyfish_net(20, 3, case),
            };
            let pg = PlaneGraph::build(&net, PlaneId(0));
            let n = pg.n_switches();
            scratch.ensure(n, pg.link_bound());
            let src = rng.random_range(0..n);
            let dst = (src + rng.random_range(1..n)) % n;
            scratch.begin_node_bans();
            scratch.begin_link_bans();
            // Yen never bans the spur node itself.
            for v in (0..n).filter(|&v| v != src) {
                if rng.random_bool(0.15) {
                    scratch.ban_node(v);
                }
            }
            for l in pg.link_ids() {
                if rng.random_bool(0.2) {
                    scratch.ban_link_slot(l.index());
                }
            }
            let cap = if rng.random_bool(0.3) {
                u32::MAX
            } else {
                rng.random_range(0..7u32)
            };
            let plain = plain_shortest(&pg, src, dst, &mut scratch);
            match &plain {
                None => cut_off += 1,
                Some(p) if p.len() as u32 > cap => capped += 1,
                Some(_) => found += 1,
            }
            let want = plain.filter(|p| p.len() as u32 <= cap);
            // What the arena already holds must survive either outcome.
            let mut arena = vec![(LinkId(7), 7)];
            let got = constrained_shortest(&pg, src, dst, cap, &mut scratch, &mut arena);
            assert_eq!(got, want.as_ref().map(|p| p.len() as u32), "case {case}");
            assert_eq!(arena[0], (LinkId(7), 7));
            assert_eq!(arena[1..], want.unwrap_or_default()[..], "case {case}");
        }
        assert!(
            found > 100 && capped > 100 && cut_off > 100,
            "lopsided cases: {found} found, {capped} capped, {cut_off} cut off"
        );
    }

    /// Regression guards that timing noise cannot hide. Spur searches walk a
    /// corridor, not the plane: the unguided BFS dequeued 1 046 switches per
    /// entry here; corridor and bar together leave 328. And a bulk fill
    /// searches one plane per shape class: four planes that are copies cost
    /// what one costs, differently wired planes cost their sum.
    #[test]
    fn spur_search_dequeues_per_entry_stay_bounded() {
        let filled = |net: &Network| {
            DEQUEUES.with(|c| c.set(0));
            let router = Router::new(net, RouteAlgo::Ksp { k: 32 });
            router.precompute_all_pairs_with(Parallelism::Serial);
            (DEQUEUES.with(Cell::get), router.cached_entries() as u64)
        };
        // The fabric of the benchmark's `pipeline_cold`, and one plane of it.
        let cold = |planes| {
            assemble_homogeneous(
                &Jellyfish::new(64, 8, 1, 1),
                planes,
                &LinkProfile::paper_default(),
            )
        };
        let ((four, entries), (one, _)) = (filled(&cold(4)), filled(&cold(1)));
        assert_eq!(entries, 4 * 64 * 63);
        assert_eq!(four, one, "same-shape planes were searched again");
        let per_entry = one / (64 * 63);
        assert!(per_entry <= 400, "{per_entry} dequeues per table entry");

        // No two planes alike: nothing to share, every plane searched.
        let hetero = parallel::jellyfish_network(
            NetworkClass::ParallelHeterogeneous,
            Jellyfish::new(16, 4, 1, 7),
            3,
            7,
            &LinkProfile::paper_default(),
        );
        let (whole, _) = filled(&hetero);
        let planes = PlaneGraph::build_all(&hetero);
        assert_eq!(shape_classes(&planes), [0, 1, 2]);
        DEQUEUES.with(|c| c.set(0));
        for pg in &planes {
            for src in (0..16).map(RackId) {
                let dsts: Vec<RackId> = (0..16).map(RackId).filter(|&d| d != src).collect();
                ksp_destinations(pg, src, &dsts, 32);
            }
        }
        assert_eq!(whole, DEQUEUES.with(Cell::get));
    }

    #[test]
    fn first_path_is_shortest() {
        let net = ft_net();
        let pg = PlaneGraph::build(&net, PlaneId(0));
        let paths = ksp(&pg, RackId(0), RackId(7), 8);
        assert_eq!(paths[0].links.len(), 4);
        for w in paths.windows(2) {
            assert!(w[0].links.len() <= w[1].links.len(), "not sorted by length");
        }
    }

    #[test]
    fn paths_are_simple_and_distinct() {
        let net = ft_net();
        let pg = PlaneGraph::build(&net, PlaneId(0));
        let paths = ksp(&pg, RackId(0), RackId(7), 16);
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
        let net = ft_net();
        let pg = PlaneGraph::build(&net, PlaneId(0));
        let paths = ksp(&pg, RackId(0), RackId(7), 4);
        assert_eq!(paths.len(), 4);
        assert!(paths.iter().all(|p| p.links.len() == 4));
    }

    #[test]
    fn longer_paths_appear_after_shortest_exhausted() {
        let net = ft_net();
        let pg = PlaneGraph::build(&net, PlaneId(0));
        let paths = ksp(&pg, RackId(0), RackId(7), 6);
        assert_eq!(paths.len(), 6);
        assert!(paths[4].links.len() > 4);
    }

    #[test]
    fn jellyfish_ksp_is_deterministic() {
        let pg = PlaneGraph::build(&jellyfish_net(16, 4, 3), PlaneId(0));
        let a = ksp(&pg, RackId(0), RackId(9), 8);
        let b = ksp(&pg, RackId(0), RackId(9), 8);
        assert_eq!(a, b);
        assert_eq!(a.len(), 8);
    }

    #[test]
    fn k_zero_and_same_rack() {
        let net = ft_net();
        let pg = PlaneGraph::build(&net, PlaneId(0));
        assert!(ksp(&pg, RackId(0), RackId(7), 0).is_empty());
        let same = ksp(&pg, RackId(3), RackId(3), 5);
        assert_eq!(same.len(), 1);
        assert!(same[0].links.is_empty());
    }

    #[test]
    fn ksp_prefix_stability() {
        // ksp(k) is a prefix of ksp(k') for k < k' — required for the
        // multipath sweeps of Figures 6c and 8c to be monotone.
        let pg = PlaneGraph::build(&jellyfish_net(14, 4, 8), PlaneId(0));
        let small = ksp(&pg, RackId(1), RackId(12), 4);
        let big = ksp(&pg, RackId(1), RackId(12), 8);
        assert_eq!(&big[..4], &small[..]);
    }

    #[test]
    fn batched_destinations_match_per_pair_ksp() {
        let pg = PlaneGraph::build(&jellyfish_net(12, 4, 31), PlaneId(0));
        // Every rack, the source included (its entry is the intra-rack path).
        let dsts: Vec<RackId> = (0..12).map(RackId).collect();
        let all = ksp_destinations(&pg, RackId(2), &dsts, 6);
        assert_eq!(all.len(), 12);
        for (r, set) in (0..12u32).zip(all) {
            assert_eq!(
                PlanePaths::new(pg.plane, pg.base(), std::sync::Arc::new(set)),
                PlanePaths::from(ksp(&pg, RackId(2), RackId(r), 6).as_slice()),
                "batched KSP diverged for destination rack {r}"
            );
        }
    }
}
