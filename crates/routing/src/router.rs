//! The multi-plane router with a thread-shareable route table.
//!
//! A [`Router`] wraps the per-plane graphs of a network and serves path sets
//! per (plane, src rack, dst rack). Two algorithms are supported, matching
//! the paper's two routing regimes:
//!
//! * [`RouteAlgo::Ecmp`] — all equal-cost shortest paths (capped), the
//!   fat-tree default;
//! * [`RouteAlgo::Ksp`] — Yen K-shortest-paths, the expander default and the
//!   multipath substrate for MPTCP.
//!
//! Path computation is a pure function of the plane-graph snapshot, so the
//! route table is filled either lazily behind an `RwLock` (concurrent
//! readers, `&self` throughout) or in bulk by [`Router::precompute`], which
//! fans the per-(plane, src, dst) Yen/ECMP computations across threads and
//! commits results in deterministic index order. Serial and parallel
//! precomputation produce identical tables — see `tests/determinism.rs`.
//!
//! Cross-plane queries ([`Router::k_best_across_planes`]) merge the
//! per-plane path sets shortest-first — this is how a P-Net host builds its
//! bounded set of subflow paths spanning all dataplanes.
//!
//! ## Link churn and incremental repair
//!
//! Under link churn the router does not start over: [`Router::apply_delta`]
//! repairs exactly the cached entries a link delta can affect, and
//! [`Router::refresh`] diffs the network against the current snapshot to
//! synthesize that delta (falling back to a full rebuild only when the
//! change is not expressible as a link delta). Every applied change bumps
//! the router *epoch*; the plane-graph snapshot is swapped atomically, so
//! concurrent lazy lookups either see the old consistent snapshot or the
//! new one, never a mix (they re-run if the epoch moved under them).

use crate::bfs;
use crate::exec::Parallelism;
use crate::path::{sort_paths, Path};
use crate::plane_graph::PlaneGraph;
pub use crate::repair::DeltaStats;
use crate::repair::{bfs_hop_dists, Fnv, LinkIndex, RouteKey};
use crate::yen;
use pnet_topology::{LinkDelta, Network, PlaneId, RackId};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Which path computation the router serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteAlgo {
    /// All equal-cost shortest paths, up to `cap` per plane.
    Ecmp { cap: usize },
    /// Yen K-shortest-paths, `k` per plane.
    Ksp { k: usize },
}

impl RouteAlgo {
    /// Paths this algorithm yields per plane at most.
    pub fn per_plane_limit(self) -> usize {
        match self {
            RouteAlgo::Ecmp { cap } => cap,
            RouteAlgo::Ksp { k } => k,
        }
    }
}

/// Route table plus its inverted cable → entry index, kept consistent under
/// one lock: every commit notes the entry's cables in the same critical
/// section that inserts the paths.
struct TableState {
    table: BTreeMap<RouteKey, Arc<Vec<Path>>>,
    index: LinkIndex,
}

/// Path provider over all planes of one network. All lookups take `&self`;
/// the router is `Sync` and can be shared across threads (e.g. behind an
/// `Arc`) once built.
pub struct Router {
    planes: RwLock<Arc<Vec<PlaneGraph>>>,
    algo: RouteAlgo,
    state: RwLock<TableState>,
    /// Bumped once per applied topology change. Lazy computations snapshot
    /// the epoch before computing and re-run if it moved by commit time, so
    /// a stale path set computed against a pre-delta snapshot can never
    /// land in a post-delta table.
    epoch: AtomicU64,
}

impl Router {
    /// Build a router for `net` (captures the current link up/down state;
    /// [`Router::refresh`] after failure injection).
    pub fn new(net: &Network, algo: RouteAlgo) -> Self {
        Router {
            planes: RwLock::new(Arc::new(PlaneGraph::build_all(net))),
            algo,
            state: RwLock::new(TableState {
                table: BTreeMap::new(),
                index: LinkIndex::new(),
            }),
            epoch: AtomicU64::new(0),
        }
    }

    /// [`Router::new`]; the strategy is ignored. Construction only extracts
    /// the plane graphs, which is too little work to fan out — pass the
    /// strategy to [`Router::precompute_all_pairs_with`] instead.
    pub fn with_parallelism(net: &Network, algo: RouteAlgo, _par: Parallelism) -> Self {
        Self::new(net, algo)
    }

    /// The algorithm in use.
    pub fn algo(&self) -> RouteAlgo {
        self.algo
    }

    /// Number of planes.
    pub fn n_planes(&self) -> usize {
        self.plane_graphs().len()
    }

    /// Racks served by the network.
    pub fn n_racks(&self) -> usize {
        self.plane_graphs().first().map_or(0, |pg| pg.n_racks())
    }

    /// The current plane-graph snapshot (e.g. for custom analyses). The
    /// returned `Arc` stays internally consistent even if a delta swaps the
    /// router to a newer snapshot concurrently.
    pub fn plane_graphs(&self) -> Arc<Vec<PlaneGraph>> {
        Arc::clone(
            &self
                .planes
                .read()
                .expect("invariant: plane-snapshot lock is never poisoned"),
        )
    }

    /// The current epoch: 0 at construction, +1 per applied delta/refresh.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Route-table entries currently materialized.
    pub fn cached_entries(&self) -> usize {
        self.state
            .read()
            .expect("invariant: route-table lock is never poisoned")
            .table
            .len()
    }

    /// FNV-1a fingerprint of the materialized route table, in canonical
    /// (plane, src, dst) order: entry count, every key, every path's plane
    /// and exact link sequence. Two routers over the same topology with the
    /// same entries materialized fingerprint equal iff their tables are
    /// byte-identical — the equivalence check for incremental repair.
    pub fn table_fingerprint(&self) -> u64 {
        let st = self
            .state
            .read()
            .expect("invariant: route-table lock is never poisoned");
        let mut h = Fnv::new();
        h.u64(st.table.len() as u64);
        for (&(p, s, d), paths) in &st.table {
            h.u64(u64::from(p.0));
            h.u64(u64::from(s.0));
            h.u64(u64::from(d.0));
            h.u64(paths.len() as u64);
            for path in paths.iter() {
                h.u64(u64::from(path.plane.0));
                h.u64(path.links.len() as u64);
                for l in &path.links {
                    h.u64(u64::from(l.0));
                }
            }
        }
        h.0
    }

    /// Pure per-key path computation (the function the table memoizes).
    fn compute(
        planes: &[PlaneGraph],
        algo: RouteAlgo,
        plane: PlaneId,
        src: RackId,
        dst: RackId,
    ) -> Vec<Path> {
        let pg = &planes[plane.index()];
        let mut paths = match algo {
            RouteAlgo::Ecmp { cap } => bfs::all_shortest_paths(pg, src, dst, cap),
            RouteAlgo::Ksp { k } => yen::ksp(pg, src, dst, k),
        };
        sort_paths(&mut paths);
        paths
    }

    /// Batched per-(plane, src) computation: identical per-destination output
    /// to [`Router::compute`], but the first shortest-path BFS (KSP) or the
    /// whole distance field (ECMP) is shared across the destination list.
    fn compute_batch(
        planes: &[PlaneGraph],
        algo: RouteAlgo,
        plane: PlaneId,
        src: RackId,
        dsts: &[RackId],
    ) -> Vec<Vec<Path>> {
        let pg = &planes[plane.index()];
        let mut per_dst = match algo {
            RouteAlgo::Ecmp { cap } => bfs::ecmp_destinations(pg, src, dsts, cap),
            RouteAlgo::Ksp { k } => yen::ksp_destinations(pg, src, dsts, k),
        };
        for paths in &mut per_dst {
            sort_paths(paths);
        }
        per_dst
    }

    /// Path set between two racks within one plane (memoized, shared).
    pub fn paths_in_plane(&self, plane: PlaneId, src: RackId, dst: RackId) -> Arc<Vec<Path>> {
        let key = (plane, src, dst);
        if let Some(p) = self
            .state
            .read()
            .expect("invariant: route-table lock is never poisoned")
            .table
            .get(&key)
        {
            return Arc::clone(p);
        }
        loop {
            let epoch = self.epoch();
            let planes = self.plane_graphs();
            let paths = Self::compute(&planes, self.algo, plane, src, dst);
            let mut st = self
                .state
                .write()
                .expect("invariant: route-table lock is never poisoned");
            if self.epoch() != epoch {
                continue; // a delta landed mid-compute; redo on the new snapshot
            }
            // First writer wins so repeat lookups keep returning the same Arc.
            if let Some(p) = st.table.get(&key) {
                return Arc::clone(p);
            }
            let arc = Arc::new(paths);
            st.index.note(key, &arc);
            st.table.insert(key, Arc::clone(&arc));
            return arc;
        }
    }

    /// Bulk-fill the route table for every (plane, src, dst) combination of
    /// the given rack pairs, fanning the independent Yen/ECMP computations
    /// across threads. Results are committed in deterministic index order;
    /// the resulting table is identical to serially computing each entry.
    pub fn precompute(&self, pairs: &[(RackId, RackId)]) {
        self.precompute_with(pairs, Parallelism::default());
    }

    /// [`Router::precompute`] with an explicit execution strategy.
    pub fn precompute_with(&self, pairs: &[(RackId, RackId)], par: Parallelism) {
        loop {
            let epoch = self.epoch();
            let planes = self.plane_graphs();
            let n_planes = planes.len();
            // Skip keys that are already materialized (precompute after lazy
            // use must not replace Arcs callers may have compared by
            // pointer), then group the remainder by (plane, src): one
            // batched computation per group shares the source-side BFS work
            // across destinations.
            let mut groups: Vec<((PlaneId, RackId), Vec<RackId>)> = Vec::new();
            {
                let st = self
                    .state
                    .read()
                    .expect("invariant: route-table lock is never poisoned");
                let mut group_of: BTreeMap<(PlaneId, RackId), usize> = BTreeMap::new();
                let mut seen: BTreeSet<RouteKey> = BTreeSet::new();
                for &(src, dst) in pairs {
                    for p in 0..n_planes {
                        let key = (PlaneId(p as u16), src, dst);
                        if st.table.contains_key(&key) || !seen.insert(key) {
                            continue;
                        }
                        let g = *group_of.entry((key.0, src)).or_insert_with(|| {
                            groups.push(((key.0, src), Vec::new()));
                            groups.len() - 1
                        });
                        groups[g].1.push(dst);
                    }
                }
            }
            // Fan out per group; per-destination results are identical to
            // per-key `compute`, and commit order does not affect the table.
            let computed: Vec<Vec<Vec<Path>>> = par.map_indexed(groups.len(), |i| {
                let ((plane, src), dsts) = &groups[i];
                Self::compute_batch(&planes, self.algo, *plane, *src, dsts)
            });
            let mut st = self
                .state
                .write()
                .expect("invariant: route-table lock is never poisoned");
            if self.epoch() != epoch {
                continue; // results are stale against the new snapshot
            }
            for (((plane, src), dsts), per_dst) in groups.into_iter().zip(computed) {
                for (dst, paths) in dsts.into_iter().zip(per_dst) {
                    let key = (plane, src, dst);
                    if !st.table.contains_key(&key) {
                        let arc = Arc::new(paths);
                        st.index.note(key, &arc);
                        st.table.insert(key, arc);
                    }
                }
            }
            return;
        }
    }

    /// [`Router::precompute`] over all ordered rack pairs (src != dst) —
    /// the all-pairs route tables every experiment sweep starts from.
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
        let n_planes = self.n_planes();
        let mut all: Vec<Path> = Vec::new();
        for plane in 0..n_planes {
            let paths = self.paths_in_plane(PlaneId(plane as u16), src, dst);
            all.extend(paths.iter().cloned());
        }
        sort_paths(&mut all);
        // Re-order each equal-length tier: round-robin over planes.
        let mut out: Vec<Path> = Vec::with_capacity(all.len());
        let mut start = 0;
        while start < all.len() {
            let len = all[start].links.len();
            let mut end = start + 1;
            while end < all.len() && all[end].links.len() == len {
                end += 1;
            }
            // The tier is sorted by (plane, links); split per plane
            // preserving order, then interleave.
            let tier: Vec<Path> = all[start..end].to_vec();
            let mut per_plane: Vec<Vec<Path>> = vec![Vec::new(); n_planes];
            for p in tier {
                per_plane[p.plane.index()].push(p);
            }
            let mut idx = 0;
            loop {
                let mut any = false;
                for plane_paths in &per_plane {
                    if idx < plane_paths.len() {
                        out.push(plane_paths[idx].clone());
                        any = true;
                    }
                }
                if !any {
                    break;
                }
                idx += 1;
            }
            start = end;
        }
        out.truncate(k);
        out
    }

    /// The plane offering the shortest path between two racks (the paper's
    /// "low-latency" interface selects this plane for small RPCs). Ties go
    /// to the lowest plane id. `None` if no plane connects the racks.
    pub fn shortest_plane(&self, src: RackId, dst: RackId) -> Option<(PlaneId, usize)> {
        let mut best: Option<(PlaneId, usize)> = None;
        for plane in 0..self.n_planes() {
            let paths = self.paths_in_plane(PlaneId(plane as u16), src, dst);
            if let Some(p) = paths.first() {
                let hops = p.switch_hops();
                if best.is_none_or(|(_, b)| hops < b) {
                    best = Some((PlaneId(plane as u16), hops));
                }
            }
        }
        best
    }

    /// Repair the route table for a link delta: `net` must already reflect
    /// the delta's link states. Only the planes touched by the delta are
    /// re-extracted, and only the cached entries the delta can affect are
    /// recomputed:
    ///
    /// * a *down* cable can only remove paths, so exactly the entries whose
    ///   committed path set traverses it (inverted-index lookup) change;
    /// * an *up* cable can only add paths through itself, so an entry can
    ///   change only if the best possible new path — bounded below by
    ///   `min(d(s,u) + 1 + d(v, t), d(s,v) + 1 + d(u, t))` from two hop-BFS
    ///   runs off the cable's endpoints — is at most the entry's current
    ///   k-th (KSP) or first (ECMP) path length (ties included: an
    ///   equal-length path can displace by the canonical order), or the
    ///   entry holds fewer than its limit of paths.
    ///
    /// Every other entry keeps its exact `Arc` — byte- and pointer-
    /// identical. Recomputation reuses the batched Yen/ECMP machinery, so
    /// the repaired table equals a from-scratch rebuild of the new topology
    /// (see `tests/props.rs`). Bumps the epoch once.
    pub fn apply_delta(&self, net: &Network, delta: &LinkDelta) -> DeltaStats {
        self.apply_delta_with(net, delta, Parallelism::default())
    }

    /// [`Router::apply_delta`] with an explicit execution strategy for the
    /// recomputation fan-out.
    pub fn apply_delta_with(
        &self,
        net: &Network,
        delta: &LinkDelta,
        par: Parallelism,
    ) -> DeltaStats {
        let canon = |cables: &[pnet_topology::LinkId]| -> Vec<pnet_topology::LinkId> {
            let mut v: Vec<pnet_topology::LinkId> = cables
                .iter()
                .map(|l| pnet_topology::LinkId(l.0 & !1))
                .collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        let down = canon(&delta.down);
        let up = canon(&delta.up);

        // Swap in a snapshot with the touched planes re-extracted, then bump
        // the epoch: readers that grab the epoch before the bump cannot have
        // seen the new snapshot (swap happens first), so their commit check
        // catches them.
        let old_planes = self.plane_graphs();
        let touched: BTreeSet<PlaneId> =
            down.iter().chain(&up).map(|&c| net.link(c).plane).collect();
        let mut rebuilt: Vec<PlaneGraph> = (*old_planes).clone();
        for &p in &touched {
            rebuilt[p.index()] = PlaneGraph::build(net, p);
        }
        let new_planes = Arc::new(rebuilt);
        *self
            .planes
            .write()
            .expect("invariant: plane-snapshot lock is never poisoned") = Arc::clone(&new_planes);
        self.epoch.fetch_add(1, Ordering::AcqRel);

        // Affected entries. Down cables: inverted-index rows. Up cables: the
        // BFS lower bound over every cached entry of the cable's plane.
        let mut affected: BTreeSet<RouteKey> = BTreeSet::new();
        let cached_total;
        {
            let mut st = self
                .state
                .write()
                .expect("invariant: route-table lock is never poisoned");
            cached_total = st.table.len();
            st.index.compact();
            for &c in &down {
                affected.extend(st.index.entries_for(c));
            }
            for &c in &up {
                let link = net.link(c);
                let plane = link.plane;
                let pg = &new_planes[plane.index()];
                let (Some(du), Some(dv)) = (pg.dense(link.src), pg.dense(link.dst)) else {
                    continue; // host attachment cable: rack-level routing unaffected
                };
                let dist_u = bfs_hop_dists(pg, du);
                let dist_v = bfs_hop_dists(pg, dv);
                let limit = self.algo.per_plane_limit();
                let lo = (plane, RackId(0), RackId(0));
                let hi = (plane, RackId(u32::MAX), RackId(u32::MAX));
                for (&key, paths) in st.table.range(lo..=hi) {
                    let (_, s, d) = key;
                    let (ts, td) = (pg.tor(s), pg.tor(d));
                    let via = |a: &[u32], b: &[u32]| -> u64 {
                        if a[ts] == u32::MAX || b[td] == u32::MAX {
                            u64::MAX
                        } else {
                            u64::from(a[ts]) + 1 + u64::from(b[td])
                        }
                    };
                    let lb = via(&dist_u, &dist_v).min(via(&dist_v, &dist_u));
                    let threshold = match self.algo {
                        _ if paths.len() < limit => u64::MAX,
                        RouteAlgo::Ksp { .. } => {
                            paths.last().map_or(u64::MAX, |p| p.links.len() as u64)
                        }
                        RouteAlgo::Ecmp { .. } => {
                            paths.first().map_or(u64::MAX, |p| p.links.len() as u64)
                        }
                    };
                    if lb <= threshold {
                        affected.insert(key);
                    }
                }
            }
        }

        // Recompute the affected entries against the new snapshot, grouped
        // by (plane, src) exactly like precompute, and overwrite.
        let mut groups: Vec<((PlaneId, RackId), Vec<RackId>)> = Vec::new();
        let mut group_of: BTreeMap<(PlaneId, RackId), usize> = BTreeMap::new();
        for &(plane, src, dst) in &affected {
            let g = *group_of.entry((plane, src)).or_insert_with(|| {
                groups.push(((plane, src), Vec::new()));
                groups.len() - 1
            });
            groups[g].1.push(dst);
        }
        let computed: Vec<Vec<Vec<Path>>> = par.map_indexed(groups.len(), |i| {
            let ((plane, src), dsts) = &groups[i];
            Self::compute_batch(&new_planes, self.algo, *plane, *src, dsts)
        });
        {
            let mut st = self
                .state
                .write()
                .expect("invariant: route-table lock is never poisoned");
            for (((plane, src), dsts), per_dst) in groups.into_iter().zip(computed) {
                for (dst, paths) in dsts.into_iter().zip(per_dst) {
                    let key = (plane, src, dst);
                    let arc = Arc::new(paths);
                    st.index.note(key, &arc);
                    st.table.insert(key, arc);
                }
            }
        }
        DeltaStats {
            epoch: self.epoch(),
            planes_rebuilt: touched.len(),
            entries_repaired: affected.len(),
            entries_reused: cached_total - affected.len(),
            full_rebuild: false,
        }
    }

    /// Bring the router up to date with `net` after link state changed.
    ///
    /// When the change is expressible as a link delta against the current
    /// snapshot — same planes, same switch rosters, only link up/down
    /// membership differs — the diff is routed through
    /// [`Router::apply_delta`], repairing only the affected entries and
    /// keeping every other cached `Arc` intact. Otherwise (plane count or
    /// switch roster changed, i.e. the router was handed a structurally
    /// different network) it falls back to the historical behaviour: drop
    /// the whole table and re-extract every plane graph. The returned
    /// [`DeltaStats`] says which route was taken (`full_rebuild`).
    pub fn refresh(&self, net: &Network) -> DeltaStats {
        if let Some(delta) = self.diff_links(net) {
            if delta.is_empty() {
                return DeltaStats {
                    epoch: self.epoch(),
                    planes_rebuilt: 0,
                    entries_repaired: 0,
                    entries_reused: self.cached_entries(),
                    full_rebuild: false,
                };
            }
            return self.apply_delta(net, &delta);
        }
        // Full-rebuild fallback: nothing cached survives a structural change.
        *self
            .planes
            .write()
            .expect("invariant: plane-snapshot lock is never poisoned") =
            Arc::new(PlaneGraph::build_all(net));
        self.epoch.fetch_add(1, Ordering::AcqRel);
        let mut st = self
            .state
            .write()
            .expect("invariant: route-table lock is never poisoned");
        st.table.clear();
        st.index.clear();
        DeltaStats {
            epoch: self.epoch(),
            planes_rebuilt: self.n_planes(),
            entries_repaired: 0,
            entries_reused: 0,
            full_rebuild: true,
        }
    }

    /// Diff `net`'s fabric-link membership against the current snapshot.
    /// `Some(delta)` when the network has the same plane count and switch
    /// rosters and only link up/down state differs; `None` when the change
    /// is structural and needs a full rebuild.
    fn diff_links(&self, net: &Network) -> Option<LinkDelta> {
        let planes = self.plane_graphs();
        let net_planes: Vec<PlaneId> = net.planes().collect();
        if planes.len() != net_planes.len() {
            return None;
        }
        for (pg, &p) in planes.iter().zip(&net_planes) {
            if pg.plane != p {
                return None;
            }
            // Switch roster must match: every in-plane switch of `net` is in
            // the graph, and the graph has no extras.
            let mut n_switches = 0usize;
            for (id, node) in net.nodes() {
                if node.kind.is_switch() && node.plane == Some(p) {
                    n_switches += 1;
                    pg.dense(id)?;
                }
            }
            if n_switches != pg.n_switches() {
                return None;
            }
        }
        // Membership diff at cable granularity, per plane.
        let mut old_cables: BTreeSet<u32> = BTreeSet::new();
        for pg in planes.iter() {
            old_cables.extend(pg.link_ids().map(|l| l.0 & !1));
        }
        let mut new_cables: BTreeSet<u32> = BTreeSet::new();
        for (id, link) in net.links() {
            if link.up
                && net.node(link.src).kind.is_switch()
                && net.node(link.dst).kind.is_switch()
                && planes[link.plane.index()].dense(link.src).is_some()
                && planes[link.plane.index()].dense(link.dst).is_some()
            {
                new_cables.insert(id.0 & !1);
            }
        }
        Some(LinkDelta {
            down: old_cables
                .difference(&new_cables)
                .map(|&c| pnet_topology::LinkId(c))
                .collect(),
            up: new_cables
                .difference(&old_cables)
                .map(|&c| pnet_topology::LinkId(c))
                .collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnet_topology::{
        assemble_homogeneous, failures, parallel, ChurnSchedule, FatTree, Jellyfish, LinkProfile,
        NetworkClass,
    };

    #[test]
    fn ecmp_router_caches() {
        let net = assemble_homogeneous(&FatTree::three_tier(4), 2, &LinkProfile::paper_default());
        let r = Router::new(&net, RouteAlgo::Ecmp { cap: 16 });
        let a = r.paths_in_plane(PlaneId(0), RackId(0), RackId(7));
        let b = r.paths_in_plane(PlaneId(0), RackId(0), RackId(7));
        assert!(Arc::ptr_eq(&a, &b));
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
    fn shortest_plane_prefers_shorter_heterogeneous_plane() {
        let proto = Jellyfish::new(16, 4, 2, 0);
        let net = parallel::jellyfish_network(
            NetworkClass::ParallelHeterogeneous,
            proto,
            4,
            77,
            &LinkProfile::paper_default(),
        );
        let r = Router::new(&net, RouteAlgo::Ksp { k: 1 });
        // For every pair, the chosen plane must not be beaten by any other.
        for a in 0..4u32 {
            for b in 4..8u32 {
                let (plane, hops) = r.shortest_plane(RackId(a), RackId(b)).unwrap();
                for p in 0..4u16 {
                    let paths = r.paths_in_plane(PlaneId(p), RackId(a), RackId(b));
                    if let Some(best) = paths.first() {
                        assert!(
                            hops <= best.switch_hops(),
                            "plane {plane} not minimal for ({a},{b})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn refresh_picks_up_failures() {
        let mut net =
            assemble_homogeneous(&FatTree::three_tier(4), 1, &LinkProfile::paper_default());
        let r = Router::new(&net, RouteAlgo::Ecmp { cap: 16 });
        assert_eq!(r.paths_in_plane(PlaneId(0), RackId(0), RackId(7)).len(), 4);
        // Fail one agg-core cable on a path and refresh.
        let cables = failures::fabric_cables(&net, None);
        failures::fail_cable(&mut net, cables[0]);
        let stats = r.refresh(&net);
        assert!(
            !stats.full_rebuild,
            "pure link delta must not drop the table"
        );
        assert_eq!(stats.epoch, 1);
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
        let down = LinkDelta {
            down: vec![cables[3]],
            up: vec![],
        };
        let stats = r.apply_delta(&net, &down);
        assert_eq!(stats.planes_rebuilt, 1);
        assert!(stats.entries_repaired > 0, "some entry used the cable");
        assert!(stats.entries_repaired < total, "repair must be partial");
        assert_eq!(stats.entries_reused + stats.entries_repaired, total);
        assert_matches_rebuild(&net, &r);

        failures::restore_cable(&mut net, cables[3]);
        let up = LinkDelta {
            down: vec![],
            up: vec![cables[3]],
        };
        let stats = r.apply_delta(&net, &up);
        assert!(stats.entries_repaired > 0);
        assert_eq!(stats.epoch, 2);
        assert_matches_rebuild(&net, &r);
    }

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
        r.apply_delta(
            &net,
            &LinkDelta {
                down: vec![c],
                up: vec![],
            },
        );
        for (b, arc) in (1..12u32).zip(before) {
            let after = r.paths_in_plane(PlaneId(1), RackId(0), RackId(b));
            assert!(
                Arc::ptr_eq(&arc, &after),
                "plane-1 entry (0,{b}) was replaced by a plane-0 delta"
            );
        }
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
            let stats = r.refresh(&net);
            assert!(!stats.full_rebuild);
        }
        assert_eq!(r.epoch(), sched.events.len() as u64);
        assert_matches_rebuild(&net, &r);
    }

    #[test]
    fn refresh_falls_back_on_structural_change() {
        let net = assemble_homogeneous(&FatTree::three_tier(4), 2, &LinkProfile::paper_default());
        let r = Router::new(&net, RouteAlgo::Ksp { k: 2 });
        r.precompute_all_pairs();
        // A structurally different network (3 planes): full rebuild.
        let other = assemble_homogeneous(&FatTree::three_tier(4), 3, &LinkProfile::paper_default());
        let stats = r.refresh(&other);
        assert!(stats.full_rebuild);
        assert_eq!(r.cached_entries(), 0);
        assert_eq!(r.n_planes(), 3);
    }

    #[test]
    fn ecmp_delta_matches_rebuild() {
        let mut net =
            assemble_homogeneous(&FatTree::three_tier(4), 2, &LinkProfile::paper_default());
        let r = Router::new(&net, RouteAlgo::Ecmp { cap: 16 });
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
                        *warm.paths_in_plane(PlaneId(p), RackId(a), RackId(b)),
                        *lazy.paths_in_plane(PlaneId(p), RackId(a), RackId(b)),
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
                        *a.paths_in_plane(PlaneId(p), RackId(x), RackId(y)),
                        *b.paths_in_plane(PlaneId(p), RackId(x), RackId(y)),
                    );
                }
            }
        }
    }

    #[test]
    fn precompute_keeps_existing_arcs() {
        let net = assemble_homogeneous(&FatTree::three_tier(4), 1, &LinkProfile::paper_default());
        let r = Router::new(&net, RouteAlgo::Ecmp { cap: 8 });
        let before = r.paths_in_plane(PlaneId(0), RackId(0), RackId(7));
        r.precompute_all_pairs();
        let after = r.paths_in_plane(PlaneId(0), RackId(0), RackId(7));
        assert!(
            Arc::ptr_eq(&before, &after),
            "precompute replaced a live Arc"
        );
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
                // pnet-tidy: allow(D2) -- this test exists to prove the router is shareable across real OS threads
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
