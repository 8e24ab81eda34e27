//! The multi-plane router with a thread-shareable route table.
//!
//! A [`Router`] wraps the per-plane graphs of a network and serves path sets
//! per (plane, src rack, dst rack). Two algorithms are supported, matching
//! the paper's two routing regimes:
//!
//! * [`RouteAlgo::Ecmp`] — the equal-cost shortest paths, up to one
//!   width shared by every layer, the fat-tree default;
//! * [`RouteAlgo::Ksp`] — K shortest paths, the expander default and the
//!   multipath substrate for MPTCP.
//!
//! Both are one search (`tier_search`): paths by length tier, the
//! first tier for ECMP, as many tiers as K takes for KSP.
//!
//! Path computation is a pure function of the plane graphs, so the
//! route table is filled either lazily, one entry per missed lookup, or in
//! bulk by [`Router::precompute_with`], which fans per-(shape class, src)
//! batches across threads. A table entry stores its links as
//! offsets from the plane's [base](PlaneGraph::base), so planes that are
//! copies of one graph ([`PlaneGraph::same_shape`]) compute an entry once
//! and hold the same `Arc<PathSet>`; [`PlanePaths`] reads it back in each
//! plane. Serial and parallel precomputation produce identical tables — see
//! `tests/determinism.rs`.
//!
//! Cross-plane queries ([`Router::k_best_across_planes`]) merge the
//! per-plane path sets shortest-first — this is how a P-Net host builds its
//! bounded set of subflow paths spanning all dataplanes.
//!
//! ## Link churn and incremental repair
//!
//! Under link churn the router does not start over: [`Router::refresh`]
//! diffs the network against its plane graphs and repairs exactly the
//! cached entries that link delta can affect.
//!
//! The plane graphs and the dense `(plane, src, dst)` table sit behind one
//! `RwLock`; every method takes `&self`. A hit indexes under the read lock.
//! Everything that writes — a missed lookup's fill, a bulk fill, a refresh
//! from the diff to the last repaired commit — holds the write lock, so
//! writers apply one after the other and no reader ever sees a table that
//! disagrees with the plane graphs.

use crate::exec::Parallelism;
use crate::fnv::Fnv;
use crate::path::{Path, PathSet, PlanePaths};
use crate::plane_graph::{shape_classes, PlaneGraph};
use crate::scratch::with_thread_scratch;
use crate::tier_search;
use pnet_topology::{LinkDelta, LinkId, Network, PlaneId, RackId};
use std::collections::BTreeSet;
use std::ops::Range;
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Paths of a shortest tier an ECMP entry keeps: the one width the flow
/// solver and the host stack both hash over. A KSP-32 entry starts with
/// the same paths.
const SHORTEST_TIER_WIDTH: usize = 32;

/// Which path computation the router serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteAlgo {
    /// The equal-cost shortest paths per plane, up to 32.
    Ecmp,
    /// K shortest simple paths, `k` per plane.
    Ksp { k: usize },
}

impl RouteAlgo {
    /// Paths this algorithm yields per plane at most.
    pub fn per_plane_limit(self) -> usize {
        match self {
            RouteAlgo::Ecmp => SHORTEST_TIER_WIDTH,
            RouteAlgo::Ksp { k } => k,
        }
    }
}

/// Table position of `(plane, src, dst)` among `racks` racks. This and
/// [`key_of`] are the only places that know the table layout.
fn slot_of(racks: usize, plane: PlaneId, src: RackId, dst: RackId) -> usize {
    assert!(
        src.index() < racks && dst.index() < racks,
        "rack pair ({src}, {dst}) outside a {racks}-rack fabric"
    );
    (plane.index() * racks + src.index()) * racks + dst.index()
}

/// Inverse of [`slot_of`].
fn key_of(racks: usize, slot: usize) -> (PlaneId, RackId, RackId) {
    let (plane, src, dst) = (slot / racks / racks, slot / racks % racks, slot % racks);
    (
        PlaneId(plane as u16),
        RackId(src as u32),
        RackId(dst as u32),
    )
}

/// One (plane, src) run of the slots handed to [`Router::fill`].
struct Run {
    /// Shape class of `plane`.
    class: usize,
    src: RackId,
    plane: PlaneId,
    /// Where the run sits in the slot list.
    at: Range<usize>,
}

/// Position of `dst` in the sorted destination list of one batch.
fn batch_index(batch: &[RackId], dst: RackId) -> usize {
    batch
        .binary_search(&dst)
        .expect("invariant: a batch holds every destination of its runs")
}

/// The cable (duplex pair, even-direction representative) a link belongs to.
fn cable_of(link: LinkId) -> LinkId {
    LinkId(link.0 & !1)
}

/// Outcome of one [`Router::refresh`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaStats {
    /// Plane graphs rebuilt (only the planes touched by the delta).
    pub planes_rebuilt: usize,
    /// Table slots read to find the affected entries: `racks²` per plane
    /// with a switch-to-switch cable in the delta.
    pub slots_scanned: usize,
    /// Cached entries invalidated and recomputed.
    pub entries_repaired: usize,
    /// Cached entries left untouched (their `Arc`s are byte-identical and
    /// pointer-identical to before the delta).
    pub entries_reused: usize,
    /// Always `false`: a refresh only ever repairs. Kept because the
    /// standalone benchmark reads it.
    pub full_rebuild: bool,
}

/// Everything a lookup, a fill or a repair touches, under one lock: the
/// plane graphs and the dense route table computed from them.
struct State {
    planes: Vec<PlaneGraph>,
    /// [`shape_classes`] of `planes`.
    classes: Vec<usize>,
    /// Racks per plane; the table holds `planes · racks²` slots.
    racks: usize,
    /// The committed path sets, `None` until first computed. Slots of one
    /// rack pair that hold equal sets hold one `Arc`.
    slots: Vec<Option<Arc<PathSet>>>,
    /// Slots holding a path set.
    entries: usize,
}

impl State {
    /// An empty table over a fresh extraction of every plane of `net`.
    fn build(net: &Network) -> State {
        let planes = PlaneGraph::build_all(net);
        let racks = planes.first().map_or(0, |pg| pg.n_racks());
        let n_slots = planes.len() * racks * racks;
        State {
            classes: shape_classes(&planes),
            planes,
            racks,
            slots: vec![None; n_slots],
            entries: 0,
        }
    }

    /// Store `set` in `slot` (overwriting), as the `Arc` another plane holds
    /// for the same rack pair when that set is equal: a plane that repairs
    /// back to its class's paths shares them again.
    fn commit(&mut self, slot: usize, set: Arc<PathSet>) {
        let per_plane = self.racks * self.racks;
        let twins = (slot % per_plane..self.slots.len()).step_by(per_plane);
        let twin = twins
            .filter_map(|at| self.slots[at].as_ref().filter(|_| at != slot))
            .find(|held| Arc::ptr_eq(held, &set) || held.as_ref() == set.as_ref());
        let set = twin.map_or(set, Arc::clone);
        if self.slots[slot].replace(set).is_none() {
            self.entries += 1;
        }
    }

    /// What `slot` holds, read in its own plane.
    fn view(&self, slot: usize) -> Option<PlanePaths> {
        let set = self.slots[slot].as_ref()?;
        let plane = key_of(self.racks, slot).0;
        let base = self.planes[plane.index()].base();
        Some(PlanePaths::new(plane, base, Arc::clone(set)))
    }

    /// The set a plane of `slot`'s shape class holds for its rack pair.
    fn class_twin(&self, slot: usize) -> Option<Arc<PathSet>> {
        let (plane, src, dst) = key_of(self.racks, slot);
        let class = self.classes[plane.index()];
        let mut same = (0..self.planes.len()).filter(|&p| self.classes[p] == class);
        same.find_map(|p| self.slots[slot_of(self.racks, PlaneId(p as u16), src, dst)].clone())
    }
}

/// Path provider over all planes of one network. All lookups take `&self`;
/// the router is `Sync` and can be shared across threads (e.g. behind an
/// `Arc`) once built.
pub struct Router {
    algo: RouteAlgo,
    state: RwLock<State>,
}

impl Router {
    /// Build a router for `net` (captures the current link up/down state;
    /// [`Router::refresh`] after failure injection).
    pub fn new(net: &Network, algo: RouteAlgo) -> Self {
        Router {
            algo,
            state: RwLock::new(State::build(net)),
        }
    }

    /// [`Router::new`]; the strategy is ignored. Construction only extracts
    /// the plane graphs, which is too little work to fan out — pass the
    /// strategy to [`Router::precompute_all_pairs_with`] instead.
    pub fn with_parallelism(net: &Network, algo: RouteAlgo, _par: Parallelism) -> Self {
        Self::new(net, algo)
    }

    fn read(&self) -> RwLockReadGuard<'_, State> {
        self.state
            .read()
            .expect("invariant: router lock is never poisoned")
    }

    fn write(&self) -> RwLockWriteGuard<'_, State> {
        self.state
            .write()
            .expect("invariant: router lock is never poisoned")
    }

    /// The algorithm in use.
    pub fn algo(&self) -> RouteAlgo {
        self.algo
    }

    /// Number of planes.
    pub fn n_planes(&self) -> usize {
        self.read().planes.len()
    }

    /// Racks served by the network.
    pub fn n_racks(&self) -> usize {
        self.read().racks
    }

    /// Route-table entries currently materialized.
    pub fn cached_entries(&self) -> usize {
        self.read().entries
    }

    /// FNV-1a fingerprint of the materialized route table, in canonical
    /// (plane, src, dst) order: entry count, every key, every path's plane
    /// and exact link sequence. Two routers over the same topology with the
    /// same entries materialized fingerprint equal iff their tables are
    /// byte-identical — the equivalence check for incremental repair.
    pub fn table_fingerprint(&self) -> u64 {
        let st = self.read();
        let mut h = Fnv::new();
        h.u64(st.entries as u64);
        for i in 0..st.slots.len() {
            let Some(paths) = st.view(i) else { continue };
            let (p, s, d) = key_of(st.racks, i);
            h.u64(u64::from(p.0));
            h.u64(u64::from(s.0));
            h.u64(u64::from(d.0));
            h.u64(paths.len() as u64);
            for path in paths.iter() {
                h.u64(u64::from(path.plane.0));
                h.u64(path.n_links() as u64);
                for l in path.links() {
                    h.u64(u64::from(l.0));
                }
            }
        }
        h.0
    }

    /// Pure per-key path computation (the function the table memoizes).
    fn compute(pg: &PlaneGraph, algo: RouteAlgo, src: RackId, dst: RackId) -> PathSet {
        with_thread_scratch(|scratch| tier_search::route_set(pg, algo, src, dst, scratch))
    }

    /// The path set of every slot in `slots`, computed on `st`'s plane
    /// graphs, in no particular order. `slots` must be ascending: that puts
    /// the slots of one (plane, src) next to each other. The runs of one
    /// (shape class, src) are one batched computation, on the lowest plane
    /// among them, for the union of their destinations, and every plane of
    /// the group gets the same `Arc` per destination. Groups fan out across
    /// threads.
    ///
    /// The result equals per-key `compute` on each plane's own graph: the
    /// searches read neighbours, hop counts and link ids, and planes
    /// of one class differ only in the base their link ids count from, which
    /// a set does not store.
    ///
    /// Callers hold the write lock across the fan-out. That cannot deadlock:
    /// the pool's jobs read only `st`'s plane graphs, never the lock, and a
    /// fan-out issued while the pool is busy runs inline on the caller
    /// (`vendor/rayon`).
    fn fill(&self, st: &State, slots: &[usize], par: Parallelism) -> Vec<(usize, Arc<PathSet>)> {
        let keys: Vec<_> = slots.iter().map(|&slot| key_of(st.racks, slot)).collect();
        let dsts: Vec<RackId> = keys.iter().map(|key| key.2).collect();
        let mut runs: Vec<Run> = Vec::new();
        for run in keys.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
            let (plane, src, _) = run[0];
            let at = runs.last().map_or(0, |prev| prev.at.end);
            runs.push(Run {
                class: st.classes[plane.index()],
                src,
                plane,
                at: at..at + run.len(),
            });
        }
        // Stable: a group's runs stay in plane order, lowest first.
        runs.sort_by_key(|run| (run.class, run.src));
        let groups: Vec<_> = runs
            .chunk_by(|a, b| (a.class, a.src) == (b.class, b.src))
            .collect();
        let computed = par.map_indexed(groups.len(), |i| {
            let lead = &groups[i][0];
            let pg = &st.planes[lead.plane.index()];
            let wanted = groups[i].iter().flat_map(|run| &dsts[run.at.clone()]);
            let mut batch: Vec<RackId> = wanted.copied().collect();
            batch.sort_unstable();
            batch.dedup();
            let sets = tier_search::route_sets(pg, self.algo, lead.src, &batch);
            let sets: Vec<Arc<PathSet>> = sets.into_iter().map(Arc::new).collect();
            let of = |cell: usize| Arc::clone(&sets[batch_index(&batch, dsts[cell])]);
            let cells = groups[i].iter().flat_map(|run| run.at.clone());
            cells
                .map(|cell| (slots[cell], of(cell)))
                .collect::<Vec<_>>()
        });
        computed.into_iter().flatten().collect()
    }

    /// Path set between two racks within one plane (memoized, shared). A
    /// miss takes the set another plane of the shape class already holds,
    /// and computes only when none does.
    pub fn paths_in_plane(&self, plane: PlaneId, src: RackId, dst: RackId) -> PlanePaths {
        {
            let st = self.read();
            if let Some(hit) = st.view(slot_of(st.racks, plane, src, dst)) {
                return hit;
            }
        }
        let mut st = self.write();
        let slot = slot_of(st.racks, plane, src, dst);
        // Another writer may have filled the slot between the two locks. The
        // first one wins, so repeat lookups keep returning the same `Arc`.
        if st.slots[slot].is_none() {
            let pg = &st.planes[plane.index()];
            let set = (st.class_twin(slot))
                .unwrap_or_else(|| Arc::new(Self::compute(pg, self.algo, src, dst)));
            st.commit(slot, set);
        }
        st.view(slot).expect("invariant: the slot was just filled")
    }

    /// Bulk-fill the route table for every (plane, src, dst) combination of
    /// the given rack pairs, fanning the independent path searches across
    /// threads. The resulting table is identical to serially
    /// computing each entry.
    pub fn precompute_with(&self, pairs: &[(RackId, RackId)], par: Parallelism) {
        let mut st = self.write();
        // Skip slots that are already materialized: precompute after lazy
        // use must not replace Arcs callers may have compared by pointer.
        let mut todo: Vec<usize> = Vec::new();
        for &(src, dst) in pairs {
            for p in 0..st.planes.len() {
                let slot = slot_of(st.racks, PlaneId(p as u16), src, dst);
                if st.slots[slot].is_none() {
                    todo.push(slot);
                }
            }
        }
        todo.sort_unstable();
        todo.dedup();
        for (slot, set) in self.fill(&st, &todo, par) {
            st.commit(slot, set);
        }
    }

    /// [`Router::precompute_with`] over all ordered rack pairs (src != dst)
    /// with the default strategy — the all-pairs route tables every
    /// experiment sweep starts from.
    pub fn precompute_all_pairs(&self) {
        self.precompute_all_pairs_with(Parallelism::default());
    }

    /// [`Router::precompute_all_pairs`] with an explicit execution strategy.
    pub fn precompute_all_pairs_with(&self, par: Parallelism) {
        let n = self.n_racks();
        let pairs: Vec<(RackId, RackId)> = (0..n)
            .flat_map(|a| {
                (0..n)
                    .filter(move |&b| b != a)
                    .map(move |b| (RackId(a as u32), RackId(b as u32)))
            })
            .collect();
        self.precompute_with(&pairs, par);
    }

    /// The `k` globally best paths between two racks across *all* planes,
    /// shortest first. Within an equal-length tier the planes are
    /// *interleaved* (plane 0's first tie, plane 1's first tie, ...), so a
    /// truncated prefix spreads over as many planes as possible — which is
    /// what an MPTCP path manager wants from its subflow set.
    pub fn k_best_across_planes(&self, src: RackId, dst: RackId, k: usize) -> Vec<Path> {
        let per_plane: Vec<PlanePaths> = (0..self.n_planes())
            .map(|plane| self.paths_in_plane(PlaneId(plane as u16), src, dst))
            .collect();
        // Each plane's set is already shortest-first, so the interleaved
        // order is the sort by (length, rank within the plane's run of that
        // length, plane); the path's position in its set rides along.
        let mut ranked: Vec<(usize, usize, usize, usize)> = Vec::new();
        for (plane, paths) in per_plane.iter().enumerate() {
            let mut run_start = 0;
            for (i, path) in paths.iter().enumerate() {
                if path.n_links() != paths.get(run_start).n_links() {
                    run_start = i;
                }
                ranked.push((path.n_links(), i - run_start, plane, i));
            }
        }
        ranked.sort_unstable();
        ranked.truncate(k);
        ranked
            .into_iter()
            .map(|(_, _, plane, i)| per_plane[plane].get(i).to_path())
            .collect()
    }

    /// Repair the locked table for `delta`, the diff of `net` against the
    /// plane graphs `st` holds. Only the planes touched by the delta are
    /// re-extracted, and only the cached entries the delta can affect are
    /// recomputed:
    ///
    /// * a *down* cable can only remove paths, so exactly the entries whose
    ///   committed path set traverses it change;
    /// * an *up* cable can only add paths through itself, so an entry can
    ///   change only if the best possible new path — bounded below by
    ///   `min(d(s,u) + 1 + d(v,t), d(s,v) + 1 + d(u,t))`, read off the rebuilt
    ///   plane's hop table — is at most the entry's current
    ///   k-th (KSP) or first (ECMP) path length (ties included: an
    ///   equal-length path can displace by the canonical order), or the
    ///   entry holds fewer than its limit of paths.
    ///
    /// Both rules are read off one walk over the `racks²` slots of each plane
    /// the delta touches ([`DeltaStats::slots_scanned`]); a set's links sit
    /// back to back, so the down rule is a scan of one block. Every other
    /// entry keeps its exact `Arc` — byte- and pointer-identical — and a
    /// recomputed one equal to another plane's takes that plane's `Arc`.
    /// Recomputation reuses the batched path search, so the repaired
    /// table equals a from-scratch rebuild of the new topology (see
    /// `tests/props.rs`).
    fn repair(&self, st: &mut State, net: &Network, delta: &LinkDelta) -> DeltaStats {
        let down: BTreeSet<LinkId> = delta.down.iter().map(|&l| cable_of(l)).collect();
        let up: BTreeSet<LinkId> = delta.up.iter().map(|&l| cable_of(l)).collect();

        // Re-extract the touched planes in place.
        let touched: BTreeSet<PlaneId> =
            down.iter().chain(&up).map(|&c| net.link(c).plane).collect();
        for &p in &touched {
            st.planes[p.index()] = PlaneGraph::build(net, p);
        }
        st.classes = shape_classes(&st.planes);

        // Affected slots, plane by plane: the sets through a down cable, and
        // those the BFS lower bound says an up cable can improve.
        let limit = self.algo.per_plane_limit();
        let mut affected: Vec<usize> = Vec::new();
        let mut slots_scanned = 0;
        for &plane in &touched {
            let pg = &st.planes[plane.index()];
            // The delta's switch-to-switch cables in this plane, as the dense
            // indices of their ends: a host attachment is on no rack path.
            let ends = |c: &LinkId| {
                let link = net.link(*c);
                let pair = pg.dense(link.src).zip(pg.dense(link.dst));
                pair.filter(|_| link.plane == plane)
            };
            // Cut cables as sets store them: `u16` offsets from the (even)
            // base, so an offset's cable is its even half too.
            let cut: Vec<u16> = (down.iter().filter(|c| ends(c).is_some()))
                .filter_map(|c| u16::try_from(c.0 - pg.base()).ok())
                .collect();
            let added: Vec<(usize, usize)> = up.iter().filter_map(ends).collect();
            if cut.is_empty() && added.is_empty() {
                continue;
            }
            slots_scanned += st.racks * st.racks;
            let severed = |set: &PathSet| {
                !cut.is_empty() && set.links().iter().any(|&l| cut.contains(&(l & !1)))
            };
            for d in (0..st.racks as u32).map(RackId) {
                // An unreachable end is `UNREACHABLE` hops away: longer than any path.
                let to_t = pg.hops_to(pg.tor(d));
                for s in (0..st.racks as u32).map(RackId) {
                    let slot = slot_of(st.racks, plane, s, d);
                    let Some(set) = &st.slots[slot] else { continue };
                    // The kept path a new one must beat or tie: KSP's longest,
                    // ECMP's (all equal) first. A set below its limit takes any.
                    let kept = match self.algo {
                        RouteAlgo::Ksp { .. } => set.len().saturating_sub(1),
                        RouteAlgo::Ecmp => 0,
                    };
                    let full = !set.is_empty() && set.len() >= limit;
                    let bar = full.then(|| set.rel(kept).len());
                    let ts = pg.tor(s);
                    let shortens = |&(u, v): &(usize, usize)| {
                        let via = |near, far: usize| {
                            u32::from(pg.hops_to(near)[ts]) + 1 + u32::from(to_t[far])
                        };
                        bar.is_none_or(|bar| via(u, v).min(via(v, u)) as usize <= bar)
                    };
                    if severed(set) || added.iter().any(shortens) {
                        affected.push(slot);
                    }
                }
            }
        }
        affected.sort_unstable();

        // Recompute the affected slots on the new plane graphs and overwrite.
        for (slot, set) in self.fill(st, &affected, Parallelism::default()) {
            st.commit(slot, set);
        }
        DeltaStats {
            planes_rebuilt: touched.len(),
            slots_scanned,
            entries_repaired: affected.len(),
            entries_reused: st.entries - affected.len(),
            full_rebuild: false,
        }
    }

    /// Bring the router up to date with `net` after link state changed.
    ///
    /// `net` must be the network the router was built on, up to link state:
    /// the same planes with the same switches. Only the entries the link
    /// delta can affect are recomputed and every other cached `Arc` stays
    /// intact (the rules are on `repair`); an empty delta returns at once.
    /// The delta is computed from `net` itself, so the repaired table always
    /// equals a rebuild. Holds the write lock from the diff to the last
    /// commit, so concurrent refreshes apply one after the other.
    pub fn refresh(&self, net: &Network) -> DeltaStats {
        let mut st = self.write();
        let delta = Self::diff_links(&st.planes, net);
        if delta.is_empty() {
            return DeltaStats {
                planes_rebuilt: 0,
                slots_scanned: 0,
                entries_repaired: 0,
                entries_reused: st.entries,
                full_rebuild: false,
            };
        }
        self.repair(&mut st, net, &delta)
    }

    /// Diff `net`'s fabric-link membership against `planes`, at cable
    /// granularity. Panics unless `net` has the same planes and switch
    /// rosters: a link delta is all `refresh` can apply.
    fn diff_links(planes: &[PlaneGraph], net: &Network) -> LinkDelta {
        // Every in-plane switch of `net` is in the graph, and the graph has
        // no extras.
        let same_roster = |pg: &PlaneGraph| {
            let own = net
                .nodes()
                .filter(|(_, node)| node.kind.is_switch() && node.plane == Some(pg.plane));
            own.map(|(id, _)| pg.dense(id))
                .try_fold(0, |n, d| d.map(|_| n + 1))
                == Some(pg.n_switches())
        };
        assert!(
            planes.iter().map(|pg| pg.plane).eq(net.planes()) && planes.iter().all(same_roster),
            "invariant: refresh is handed the network the router was built on, up to link state"
        );
        // `dense` is `Some` exactly for the plane's own switches, so host
        // attachments drop out.
        let old: BTreeSet<LinkId> = planes
            .iter()
            .flat_map(|pg| pg.link_ids().map(cable_of))
            .collect();
        let new: BTreeSet<LinkId> = net
            .links()
            .filter(|(_, link)| {
                let pg = &planes[link.plane.index()];
                link.up && pg.dense(link.src).is_some() && pg.dense(link.dst).is_some()
            })
            .map(|(id, _)| cable_of(id))
            .collect();
        LinkDelta {
            down: old.difference(&new).copied().collect(),
            up: new.difference(&old).copied().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnet_topology::{
        assemble_homogeneous, failures, ChurnSchedule, FatTree, HostId, Jellyfish, LinkProfile,
        NodeKind,
    };
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    #[test]
    fn ecmp_router_caches() {
        let net = assemble_homogeneous(&FatTree::three_tier(4), 2, &LinkProfile::paper_default());
        let r = Router::new(&net, RouteAlgo::Ecmp);
        let a = r.paths_in_plane(PlaneId(0), RackId(0), RackId(7));
        let b = r.paths_in_plane(PlaneId(0), RackId(0), RackId(7));
        assert!(Arc::ptr_eq(&a.set, &b.set));
        assert_eq!(a.len(), 4);
    }

    #[test]
    fn cross_plane_merge_respects_k() {
        let net = assemble_homogeneous(&FatTree::three_tier(4), 2, &LinkProfile::paper_default());
        let r = Router::new(&net, RouteAlgo::Ksp { k: 4 });
        let merged = r.k_best_across_planes(RackId(0), RackId(7), 6);
        assert_eq!(merged.len(), 6);
        // With two identical planes, the 4+4 candidates interleave; the
        // merged set must be sorted by length.
        for w in merged.windows(2) {
            assert!(w[0].links.len() <= w[1].links.len());
        }
        // Both planes should be represented (homogeneous planes tie, sort
        // breaks ties by plane, so first 4 come from plane 0 then plane 1).
        assert!(merged.iter().any(|p| p.plane == PlaneId(1)));
    }

    #[test]
    fn cross_plane_merge_alternates_planes_inside_a_tier() {
        let net = assemble_homogeneous(&FatTree::three_tier(4), 2, &LinkProfile::paper_default());
        let r = Router::new(&net, RouteAlgo::Ksp { k: 4 });
        let merged = r.k_best_across_planes(RackId(0), RackId(7), 6);
        // Two identical planes, four equal-length paths each: one tier, so
        // the merge is plane 0's i-th path, then plane 1's i-th path.
        let planes: Vec<u16> = merged.iter().map(|p| p.plane.0).collect();
        assert_eq!(planes, [0, 1, 0, 1, 0, 1]);
        for (i, path) in merged.iter().enumerate() {
            let set = r.paths_in_plane(path.plane, RackId(0), RackId(7));
            assert_eq!(set.get(i / 2), path.into());
        }
    }

    #[test]
    #[should_panic(expected = "outside a 8-rack fabric")]
    fn out_of_range_rack_panics_instead_of_aliasing() {
        let net = assemble_homogeneous(&FatTree::three_tier(4), 1, &LinkProfile::paper_default());
        let r = Router::new(&net, RouteAlgo::Ecmp);
        // Unchecked, this would be the table position of (plane 0, 1, 0).
        r.paths_in_plane(PlaneId(0), RackId(0), RackId(r.n_racks() as u32));
    }

    #[test]
    fn refresh_picks_up_failures() {
        let mut net =
            assemble_homogeneous(&FatTree::three_tier(4), 1, &LinkProfile::paper_default());
        let r = Router::new(&net, RouteAlgo::Ecmp);
        assert_eq!(r.paths_in_plane(PlaneId(0), RackId(0), RackId(7)).len(), 4);
        // Fail one agg-core cable on a path and refresh.
        let cables = failures::fabric_cables(&net, None);
        failures::fail_cable(&mut net, cables[0]);
        let stats = r.refresh(&net);
        assert_eq!(stats.planes_rebuilt, 1);
        assert_eq!(stats.entries_repaired + stats.entries_reused, 1);
        let after = r.paths_in_plane(PlaneId(0), RackId(0), RackId(7)).len();
        assert!(after <= 4);
    }

    /// Incremental repair vs from-scratch rebuild on the same final topology:
    /// the tables must be byte-identical under any fail/restore sequence.
    fn assert_matches_rebuild(net: &Network, r: &Router) {
        let fresh = Router::new(net, r.algo());
        fresh.precompute_all_pairs();
        assert_eq!(
            r.table_fingerprint(),
            fresh.table_fingerprint(),
            "incremental table diverged from a from-scratch rebuild"
        );
    }

    /// One cable fails, then comes back: each link delta `refresh` finds
    /// repairs part of the table, and the result equals a rebuild.
    #[test]
    fn apply_delta_repairs_single_cable_down_and_up() {
        let mut net = assemble_homogeneous(
            &Jellyfish::new(12, 3, 1, 4),
            2,
            &LinkProfile::paper_default(),
        );
        let r = Router::new(&net, RouteAlgo::Ksp { k: 4 });
        r.precompute_all_pairs();
        let total = r.cached_entries();
        let cables = failures::fabric_cables(&net, None);

        failures::fail_cable(&mut net, cables[3]);
        let stats = r.refresh(&net);
        assert_eq!(stats.planes_rebuilt, 1);
        assert!(stats.entries_repaired > 0, "some entry used the cable");
        assert!(stats.entries_repaired < total, "repair must be partial");
        assert_eq!(stats.entries_reused + stats.entries_repaired, total);
        assert_matches_rebuild(&net, &r);

        failures::restore_cable(&mut net, cables[3]);
        let stats = r.refresh(&net);
        assert!(stats.entries_repaired > 0);
        assert_eq!(stats.entries_reused + stats.entries_repaired, total);
        assert_matches_rebuild(&net, &r);
    }

    /// A delta in plane 0, applied through `refresh`, leaves plane 1 alone.
    #[test]
    fn apply_delta_preserves_untouched_arcs() {
        let mut net = assemble_homogeneous(
            &Jellyfish::new(12, 3, 1, 4),
            2,
            &LinkProfile::paper_default(),
        );
        let r = Router::new(&net, RouteAlgo::Ksp { k: 4 });
        r.precompute_all_pairs();
        // Fail a plane-0 cable: every plane-1 entry must keep its exact Arc.
        let c = failures::fabric_cables(&net, Some(PlaneId(0)))[0];
        let before: Vec<_> = (1..12u32)
            .map(|b| r.paths_in_plane(PlaneId(1), RackId(0), RackId(b)))
            .collect();
        failures::fail_cable(&mut net, c);
        r.refresh(&net);
        for (b, arc) in (1..12u32).zip(before) {
            let after = r.paths_in_plane(PlaneId(1), RackId(0), RackId(b));
            assert!(
                Arc::ptr_eq(&arc.set, &after.set),
                "plane-1 entry (0,{b}) was replaced by a plane-0 delta"
            );
        }
    }

    /// The repair's work is one walk of each touched plane's `racks²` slots,
    /// however many cables the delta names there; a change with no
    /// switch-to-switch cable is no delta at all and reads none.
    #[test]
    fn repair_scans_each_touched_plane_once() {
        let mut net = assemble_homogeneous(
            &Jellyfish::new(12, 3, 1, 4),
            3,
            &LinkProfile::paper_default(),
        );
        let r = Router::new(&net, RouteAlgo::Ksp { k: 4 });
        r.precompute_all_pairs();
        let cable = |plane, i| failures::fabric_cables(&net, Some(PlaneId(plane)))[i];
        let (a, b, c) = (cable(0, 1), cable(0, 5), cable(2, 3));
        let uplink = cable_of(net.host_uplink(HostId(0), PlaneId(1)).unwrap());
        let mut apply = |down: &[LinkId], up: &[LinkId]| {
            down.iter().for_each(|&l| failures::fail_cable(&mut net, l));
            up.iter()
                .for_each(|&l| failures::restore_cable(&mut net, l));
            let stats = r.refresh(&net);
            assert_matches_rebuild(&net, &r);
            stats
        };
        let one = apply(&[a], &[]);
        assert_eq!((one.planes_rebuilt, one.slots_scanned), (1, 12 * 12));
        // Everything repaired sits in the cable's plane: the other two
        // planes' 2 · 12 · 11 entries are all reused.
        assert!(one.entries_repaired > 0 && one.entries_reused >= 2 * 12 * 11);

        let burst = apply(&[b, c], &[a]);
        assert_eq!(
            (burst.planes_rebuilt, burst.slots_scanned),
            (2, 2 * 12 * 12)
        );

        let host = apply(&[uplink], &[]);
        assert_eq!((host.planes_rebuilt, host.slots_scanned), (0, 0));
        assert_eq!(host.entries_repaired, 0);
    }

    #[test]
    fn churn_walk_refresh_matches_rebuild() {
        let mut net = assemble_homogeneous(
            &Jellyfish::new(12, 3, 1, 9),
            2,
            &LinkProfile::paper_default(),
        );
        let r = Router::new(&net, RouteAlgo::Ksp { k: 4 });
        r.precompute_all_pairs();
        let sched = ChurnSchedule::random_walk(&net, 12, 0.2, 21);
        assert!(!sched.events.is_empty());
        for &ev in &sched.events {
            ev.apply(&mut net);
            // Every event is a switch-to-switch cable: one plane to repair.
            assert_eq!(r.refresh(&net).planes_rebuilt, 1);
        }
        assert_matches_rebuild(&net, &r);
    }

    /// A structurally different network (3 planes) is no link delta.
    #[test]
    #[should_panic(expected = "invariant")]
    fn refresh_refuses_a_structural_change() {
        let net = assemble_homogeneous(&FatTree::three_tier(4), 2, &LinkProfile::paper_default());
        let r = Router::new(&net, RouteAlgo::Ksp { k: 2 });
        r.precompute_all_pairs();
        let other = assemble_homogeneous(&FatTree::three_tier(4), 3, &LinkProfile::paper_default());
        r.refresh(&other);
    }

    #[test]
    fn ecmp_delta_matches_rebuild() {
        let mut net =
            assemble_homogeneous(&FatTree::three_tier(4), 2, &LinkProfile::paper_default());
        let r = Router::new(&net, RouteAlgo::Ecmp);
        r.precompute_all_pairs();
        let cables = failures::fabric_cables(&net, None);
        failures::fail_cable(&mut net, cables[1]);
        failures::fail_cable(&mut net, cables[7]);
        r.refresh(&net);
        assert_matches_rebuild(&net, &r);
        failures::restore_cable(&mut net, cables[7]);
        r.refresh(&net);
        assert_matches_rebuild(&net, &r);
    }

    /// A k = 12 fat tree's 36-path inter-pod tiers fill the 32-path ECMP
    /// width, and stay full with one agg-core cable down (35 paths). So the
    /// cable's return repairs exactly the full entries it ties into: a path
    /// through it has the tier's length, and may sort into the first 32.
    #[test]
    fn ecmp_delta_on_full_tiers_matches_rebuild() {
        let fat = FatTree::three_tier(12);
        let mut net = assemble_homogeneous(&fat, 1, &LinkProfile::paper_default());
        let r = Router::new(&net, RouteAlgo::Ecmp);
        r.precompute_all_pairs();
        let kind = |c: LinkId| &net.node(net.link(c).src).kind;
        let agg_core = |&c: &LinkId| {
            let ends = (kind(c), kind(c.reverse()));
            matches!(
                ends,
                (NodeKind::Agg { .. }, NodeKind::Core) | (NodeKind::Core, NodeKind::Agg { .. })
            )
        };
        let cables = failures::fabric_cables(&net, None);
        let cable = cables.into_iter().find(agg_core).unwrap();
        failures::fail_cable(&mut net, cable);
        r.refresh(&net);
        assert_matches_rebuild(&net, &r);
        failures::restore_cable(&mut net, cable);
        let stats = r.refresh(&net);
        assert!(stats.entries_repaired > 0 && stats.entries_reused > 0);
        assert_matches_rebuild(&net, &r);
    }

    /// Every materialized slot decodes to what `compute` finds on the slot's
    /// *own* plane graph, link for link, and holds the very `Arc` its class
    /// lead holds for the rack pair.
    fn assert_exact_and_shared(r: &Router, when: &str) {
        let st = r.read();
        for slot in 0..st.slots.len() {
            let Some(got) = st.view(slot) else { continue };
            let (p, s, d) = key_of(st.racks, slot);
            let pg = &st.planes[p.index()];
            let want = Arc::new(Router::compute(pg, r.algo, s, d));
            assert_eq!(
                got,
                PlanePaths::new(p, pg.base(), want),
                "{when}: {p} {s}->{d}"
            );
            let lead = PlaneId(st.classes[p.index()] as u16);
            let held = st.slots[slot_of(st.racks, lead, s, d)].as_ref();
            assert!(
                held.is_some_and(|held| Arc::ptr_eq(held, &got.set)),
                "{when}: {p} {s}->{d} is not its class lead's set"
            );
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// Sharing is exact. A random homogeneous fabric walks through random
        /// fail/restore steps, each toggling the same cable position in a
        /// random subset of planes, so classes split and merge. After every
        /// step each slot equals its own plane's `compute` and shares its
        /// class lead's `Arc`; once every cable is back, every plane holds
        /// plane 0's sets and the table fingerprints as it did pristine.
        #[test]
        fn shared_tables_equal_per_plane_compute(
            planes in 2usize..=4, tors in 8usize..=13, seed: u64, walk: u64, ecmp: bool,
        ) {
            let degree = if tors.is_multiple_of(2) { 3 } else { 4 };
            let fabric = Jellyfish::new(tors, degree, 1, seed);
            let mut net = assemble_homogeneous(&fabric, planes, &LinkProfile::paper_default());
            let algo = if ecmp { RouteAlgo::Ecmp } else { RouteAlgo::Ksp { k: 6 } };
            let r = Router::new(&net, algo);
            // Lazy entries first, on different planes: the bulk fill must keep
            // their `Arc`s, and plane 0's miss takes the set plane 1 holds.
            let keys = [(0, 0, 5), (1, 0, 7), (1, 3, 2), (0, 3, 2)];
            let lookup = |(p, s, d)| r.paths_in_plane(PlaneId(p), RackId(s), RackId(d));
            let lazy = keys.map(lookup);
            assert!(Arc::ptr_eq(&lazy[2].set, &lazy[3].set));
            r.precompute_all_pairs();
            let pristine = r.table_fingerprint();
            assert_eq!(r.read().classes, vec![0; planes]);
            assert_exact_and_shared(&r, "pristine");
            for (set, key) in lazy.iter().zip(keys) {
                assert!(Arc::ptr_eq(&set.set, &lookup(key).set), "precompute replaced a live Arc");
            }

            let positions = failures::fabric_cables(&net, Some(PlaneId(0))).len();
            let mut rng = StdRng::seed_from_u64(walk);
            for step in 0..6 {
                let at = rng.random_range(0..positions);
                for p in (0..planes as u16).filter(|_| rng.random_bool(0.6)) {
                    let cable = failures::fabric_cables(&net, Some(PlaneId(p)))[at];
                    if net.link(cable).up {
                        failures::fail_cable(&mut net, cable);
                    } else {
                        failures::restore_cable(&mut net, cable);
                    }
                }
                r.refresh(&net);
                assert_exact_and_shared(&r, &format!("step {step}"));
            }
            for cable in failures::fabric_cables(&net, None) {
                failures::restore_cable(&mut net, cable);
            }
            r.refresh(&net);
            assert_eq!(r.read().classes, vec![0; planes]);
            assert_exact_and_shared(&r, "restored");
            assert_eq!(r.table_fingerprint(), pristine);
        }
    }

    /// One 12-ToR Möbius ladder wired one perfect matching after another;
    /// `flip` numbers each matching's cables in reverse. Every switch meets
    /// each matching once, so flipping keeps every CSR row's order and moves
    /// every cable's offset from the plane base.
    struct Ladder {
        flip: bool,
    }

    impl pnet_topology::PlaneBuilder for Ladder {
        fn n_racks(&self) -> usize {
            12
        }

        fn hosts_per_rack(&self) -> usize {
            1
        }

        fn build_plane(
            &self,
            net: &mut Network,
            plane: PlaneId,
            profile: &LinkProfile,
        ) -> Vec<pnet_topology::NodeId> {
            let tor = |rack| pnet_topology::NodeKind::Tor { rack: RackId(rack) };
            let tors: Vec<_> = (0..12).map(|r| net.add_switch(tor(r), plane)).collect();
            // The matchings {2i, 2i + 1}, {2i + 1, 2i + 2} and {i, i + 6}, as
            // (first end, stride between ends, step to the other end).
            for (first, stride, step) in [(0, 2, 1), (1, 2, 1), (0, 1, 6)] {
                let mut matching: Vec<usize> = (first..12).step_by(stride).take(6).collect();
                if self.flip {
                    matching.reverse();
                }
                for a in matching {
                    let (speed, delay) = (profile.link_speed_bps, profile.fabric_delay_ps);
                    net.add_duplex_link(tors[a], tors[(a + step) % 12], speed, delay, plane);
                }
            }
            tors
        }

        fn describe(&self) -> String {
            format!("ladder (flip {})", self.flip)
        }
    }

    /// The control: two planes of one shape whose links count from their
    /// bases differently are two classes. Nothing is shared, and every slot
    /// still equals its own plane's `compute`.
    #[test]
    fn planes_numbered_apart_do_not_share() {
        let (plain, flipped) = (Ladder { flip: false }, Ladder { flip: true });
        let planes: [&dyn pnet_topology::PlaneBuilder; 2] = [&plain, &flipped];
        let net = pnet_topology::assemble(&planes, &LinkProfile::paper_default());
        let pgs = PlaneGraph::build_all(&net);
        let same_rows = (0..pgs[0].n_switches()).all(|u| {
            let row = |pg: &PlaneGraph| pg.neighbors(u).iter().map(|&(v, _)| v).collect::<Vec<_>>();
            row(&pgs[0]) == row(&pgs[1])
        });
        assert!(same_rows, "the control must differ in numbering only");
        assert_eq!(shape_classes(&pgs), [0, 1]);
        for algo in [RouteAlgo::Ksp { k: 6 }, RouteAlgo::Ecmp] {
            let r = Router::new(&net, algo);
            // A miss in plane 0 must not take plane 1's set.
            r.paths_in_plane(PlaneId(1), RackId(0), RackId(5));
            r.paths_in_plane(PlaneId(0), RackId(0), RackId(5));
            r.precompute_all_pairs();
            assert_exact_and_shared(&r, "control");
            let st = r.read();
            let per_plane = st.racks * st.racks;
            for (a, b) in st.slots[..per_plane].iter().zip(&st.slots[per_plane..]) {
                if let (Some(a), Some(b)) = (a, b) {
                    assert!(
                        !Arc::ptr_eq(a, b),
                        "{algo:?}: planes numbered apart share a set"
                    );
                }
            }
        }
    }

    #[test]
    fn precompute_matches_lazy_lookups() {
        let net = assemble_homogeneous(&FatTree::three_tier(4), 2, &LinkProfile::paper_default());
        let warm = Router::new(&net, RouteAlgo::Ksp { k: 6 });
        warm.precompute_all_pairs();
        let lazy = Router::new(&net, RouteAlgo::Ksp { k: 6 });
        for a in 0..8u32 {
            for b in 0..8u32 {
                if a == b {
                    continue;
                }
                for p in 0..2u16 {
                    assert_eq!(
                        warm.paths_in_plane(PlaneId(p), RackId(a), RackId(b)),
                        lazy.paths_in_plane(PlaneId(p), RackId(a), RackId(b)),
                        "mismatch at plane {p} pair ({a},{b})"
                    );
                }
            }
        }
        // 8 racks, 56 ordered pairs, 2 planes.
        assert_eq!(warm.cached_entries(), 112);
    }

    #[test]
    fn serial_and_parallel_precompute_agree() {
        let net = assemble_homogeneous(
            &Jellyfish::new(12, 3, 1, 4),
            2,
            &LinkProfile::paper_default(),
        );
        let a = Router::new(&net, RouteAlgo::Ksp { k: 8 });
        a.precompute_all_pairs_with(Parallelism::Serial);
        let b = Router::new(&net, RouteAlgo::Ksp { k: 8 });
        b.precompute_all_pairs_with(Parallelism::Rayon);
        assert_eq!(a.table_fingerprint(), b.table_fingerprint());
        for x in 0..12u32 {
            for y in 0..12u32 {
                if x == y {
                    continue;
                }
                for p in 0..2u16 {
                    assert_eq!(
                        a.paths_in_plane(PlaneId(p), RackId(x), RackId(y)),
                        b.paths_in_plane(PlaneId(p), RackId(x), RackId(y)),
                    );
                }
            }
        }
    }

    #[test]
    fn precompute_keeps_existing_arcs() {
        let net = assemble_homogeneous(&FatTree::three_tier(4), 1, &LinkProfile::paper_default());
        let r = Router::new(&net, RouteAlgo::Ecmp);
        let before = r.paths_in_plane(PlaneId(0), RackId(0), RackId(7));
        r.precompute_all_pairs();
        let after = r.paths_in_plane(PlaneId(0), RackId(0), RackId(7));
        assert!(
            Arc::ptr_eq(&before.set, &after.set),
            "precompute replaced a live Arc"
        );
    }

    /// A bulk fill races lazy lookups from a second OS thread on a fresh
    /// 2-plane router. The first writer of a slot wins, so every set a lookup
    /// got is the very `Arc` the table holds afterwards, and the table equals
    /// a serial rebuild. The race runs on a thread the test gives up on after
    /// two minutes: a deadlock fails the test instead of wedging the suite.
    #[test]
    fn bulk_fill_races_lazy_lookups() {
        let net = assemble_homogeneous(
            &Jellyfish::new(12, 3, 1, 4),
            2,
            &LinkProfile::paper_default(),
        );
        let serial = Router::new(&net, RouteAlgo::Ksp { k: 4 });
        serial.precompute_all_pairs_with(Parallelism::Serial);
        let want = serial.table_fingerprint();
        let race = move || {
            for round in 0..50u64 {
                let r = Router::new(&net, RouteAlgo::Ksp { k: 4 });
                let start = std::sync::Barrier::new(2);
                let got = std::thread::scope(|s| {
                    let reader = s.spawn(|| {
                        let mut rng = StdRng::seed_from_u64(round);
                        start.wait();
                        let mut got = Vec::new();
                        for _ in 0..200 {
                            let p = PlaneId(rng.random_range(0..2u16));
                            let a = RackId(rng.random_range(0..12u32));
                            let b = RackId((a.0 + rng.random_range(1..12u32)) % 12);
                            got.push(((p, a, b), r.paths_in_plane(p, a, b)));
                        }
                        got
                    });
                    start.wait();
                    r.precompute_all_pairs();
                    reader.join().expect("the reader panicked")
                });
                assert_eq!(r.table_fingerprint(), want, "round {round}");
                let st = r.read();
                for ((p, a, b), set) in got {
                    let held = st.slots[slot_of(st.racks, p, a, b)].as_ref();
                    assert!(
                        held.is_some_and(|held| Arc::ptr_eq(held, &set.set)),
                        "round {round}: {p} {a}->{b} was replaced"
                    );
                }
            }
        };
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            race();
            tx.send(())
        });
        rx.recv_timeout(std::time::Duration::from_secs(120))
            .expect("the race did not finish");
    }

    #[test]
    fn router_is_shareable_across_threads() {
        let net = assemble_homogeneous(&FatTree::three_tier(4), 2, &LinkProfile::paper_default());
        let r = Arc::new(Router::new(&net, RouteAlgo::Ksp { k: 4 }));
        r.precompute_all_pairs();
        let reference = r.k_best_across_planes(RackId(0), RackId(7), 8);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let r = Arc::clone(&r);
                let want = reference.clone();
                std::thread::spawn(move || {
                    for _ in 0..50 {
                        assert_eq!(r.k_best_across_planes(RackId(0), RackId(7), 8), want);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }
}
