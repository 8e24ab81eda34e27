//! Reusable, epoch-stamped traversal scratch.
//!
//! Every search needs a distance array, the set of switches on the path
//! being grown, a stack and somewhere to put the paths it finds. Allocating
//! those per call (`vec![u32::MAX; n]`, a fresh set per branch) dominates the
//! all-pairs KSP hot path, so a [`RouteScratch`] keeps them alive and
//! invalidates by bumping a generation counter: an entry is only meaningful
//! when its stamp equals the current epoch, so "clearing" an array is a
//! single integer increment instead of an `O(n)` fill.
//!
//! A scratch is plain mutable state owned by one worker. The path searches
//! reach it through [`with_thread_scratch`], which hands out one scratch per
//! OS thread — the per-index closures of
//! [`crate::exec::Parallelism::map_indexed`] stay pure in their *outputs*
//! (scratch contents never influence results, only allocation reuse), so
//! serial and parallel runs remain bit-identical.

use pnet_topology::LinkId;
use std::cell::RefCell;

/// Per-worker traversal scratch. All arrays are epoch-stamped; `begin_*`
/// methods start a fresh logical state in O(1).
#[derive(Debug, Default)]
pub(crate) struct RouteScratch {
    // --- BFS distances, valid where `stamp[i] == epoch`. ------------------
    epoch: u32,
    stamp: Vec<u32>,
    dist: Vec<u32>,
    // --- Switches on the path being grown, iff `path[i] == path_epoch`. ---
    path_epoch: u32,
    path: Vec<u32>,
    // --- FIFO queue storage reused across BFS calls. ----------------------
    pub(crate) queue: Vec<u32>,
    // --- One path search: its stack of (switch, next CSR entry) frames,
    // the links of the path being grown, and the paths found, back to back
    // with each one's end offset. ------------------------------------------
    pub(crate) frames: Vec<(u32, u32)>,
    pub(crate) prefix: Vec<LinkId>,
    pub(crate) arena: Vec<LinkId>,
    pub(crate) ends: Vec<u32>,
}

impl RouteScratch {
    /// Make sure the arrays cover `n_nodes` switches. Growing resets the
    /// epochs (stamps in the fresh region are zeroed, so epoch 0 must never
    /// be a live generation — counters start at 0 and are bumped *before*
    /// first use).
    pub(crate) fn ensure(&mut self, n_nodes: usize) {
        if self.stamp.len() < n_nodes {
            self.stamp.resize(n_nodes, 0);
            self.dist.resize(n_nodes, 0);
            self.path.resize(n_nodes, 0);
        }
    }

    /// Start a fresh BFS generation: all distances become "unset".
    #[inline]
    pub(crate) fn begin_search(&mut self) {
        self.epoch = bump(&mut self.epoch, &mut self.stamp);
    }

    /// Distance of `u` in the current generation, `u32::MAX` if unset.
    #[inline]
    pub(crate) fn dist(&self, u: usize) -> u32 {
        if self.stamp[u] == self.epoch {
            self.dist[u]
        } else {
            u32::MAX
        }
    }

    /// Set the distance of `u` in the current generation.
    #[inline]
    pub(crate) fn reach(&mut self, u: usize, d: u32) {
        self.stamp[u] = self.epoch;
        self.dist[u] = d;
    }

    /// Start a fresh path: no switch is on it.
    #[inline]
    pub(crate) fn begin_path(&mut self) {
        self.path_epoch = bump(&mut self.path_epoch, &mut self.path);
    }

    /// Put switch `u` on the path, or take it off.
    #[inline]
    pub(crate) fn set_on_path(&mut self, u: usize, on: bool) {
        self.path[u] = if on { self.path_epoch } else { 0 };
    }

    /// Is switch `u` on the path?
    #[inline]
    pub(crate) fn on_path(&self, u: usize) -> bool {
        self.path[u] == self.path_epoch
    }
}

/// Advance an epoch counter, clearing `stamps` on (rare) wrap-around so a
/// stale stamp can never alias a live generation.
#[inline]
fn bump(epoch: &mut u32, stamps: &mut [u32]) -> u32 {
    if *epoch == u32::MAX {
        stamps.fill(0);
        *epoch = 1;
    } else {
        *epoch += 1;
    }
    *epoch
}

thread_local! {
    static SCRATCH: RefCell<RouteScratch> = RefCell::new(RouteScratch::default());
}

/// Run `f` with this thread's [`RouteScratch`], so the path searches get
/// allocation reuse without threading a scratch through their callers;
/// nested calls must pass the borrowed scratch down instead of re-entering.
pub(crate) fn with_thread_scratch<R>(f: impl FnOnce(&mut RouteScratch) -> R) -> R {
    SCRATCH.with(|s| f(&mut s.borrow_mut()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epochs_invalidate_without_clearing() {
        let mut s = RouteScratch::default();
        s.ensure(4);
        s.begin_search();
        s.reach(2, 7);
        assert_eq!(s.dist(2), 7);
        assert_eq!(s.dist(1), u32::MAX);
        s.begin_search();
        assert_eq!(s.dist(2), u32::MAX, "stale entry leaked across epochs");
    }

    #[test]
    fn path_marks_are_generation_scoped() {
        let mut s = RouteScratch::default();
        s.ensure(4);
        s.begin_path();
        s.set_on_path(1, true);
        s.set_on_path(2, true);
        assert!(s.on_path(1) && s.on_path(2));
        assert!(!s.on_path(0));
        s.set_on_path(2, false);
        assert!(!s.on_path(2));
        s.begin_path();
        assert!(!s.on_path(1), "a mark leaked across paths");
    }

    #[test]
    fn ensure_grows_preserving_soundness() {
        let mut s = RouteScratch::default();
        s.ensure(2);
        s.begin_search();
        s.reach(0, 1);
        s.ensure(10);
        // Freshly grown region is unset in the current generation.
        assert_eq!(s.dist(9), u32::MAX);
        assert_eq!(s.dist(0), 1);
    }

    #[test]
    fn wraparound_resets_stamps() {
        let mut s = RouteScratch::default();
        s.ensure(2);
        s.epoch = u32::MAX - 1;
        s.stamp.fill(u32::MAX - 1);
        s.begin_search(); // -> MAX
        s.reach(0, 3);
        s.begin_search(); // wraps -> 1, stamps cleared
        assert_eq!(s.dist(0), u32::MAX);
    }

    #[test]
    fn thread_scratch_is_reusable() {
        let a = with_thread_scratch(|s| {
            s.ensure(8);
            s.begin_search();
            s.reach(3, 9);
            s.dist(3)
        });
        assert_eq!(a, 9);
        let b = with_thread_scratch(|s| s.dist(3));
        // Same generation persists across with_thread_scratch calls on the
        // same thread until someone begins a new search.
        assert_eq!(b, 9);
    }
}
