//! Incremental route repair support: the inverted cable → route-entry index
//! and delta bookkeeping behind [`crate::Router::apply_delta`].
//!
//! The index answers "which cached route-table slots have a path through
//! this cable?" in one CSR row scan. A commit to the route table only *notes*
//! its slot (four bytes); the slot's cables are read off its committed path
//! set when the notes are compacted into CSR form (counting sort by cable),
//! lazily, at the start of each delta application — a table that never sees
//! a delta never pays for the index. Every commit bumps the slot's
//! generation, which invalidates every older posting for that slot — stale
//! postings are filtered on query and dropped at the next compaction, so the
//! index never needs a scatter-delete.

use crate::path::Path;
use pnet_topology::LinkId;
use std::sync::Arc;

/// One cell of the router's dense `(plane, src, dst)` route table.
#[derive(Clone, Default)]
pub(crate) struct Slot {
    /// The committed path set, `None` until first computed.
    pub(crate) paths: Option<Arc<Vec<Path>>>,
    /// Bumped on every commit; a [`LinkIndex`] posting is live iff it
    /// carries the slot's current generation.
    pub(crate) gen: u32,
}

/// Outcome of one [`crate::Router::apply_delta`] or [`crate::Router::refresh`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaStats {
    /// Router epoch after the operation (bumped once per applied change).
    pub epoch: u64,
    /// Plane graphs rebuilt (only the planes touched by the delta).
    pub planes_rebuilt: usize,
    /// Cached entries invalidated and recomputed.
    pub entries_repaired: usize,
    /// Cached entries left untouched (their `Arc`s are byte-identical and
    /// pointer-identical to before the delta).
    pub entries_reused: usize,
    /// True when the change was not expressible as a link delta and the
    /// whole table was dropped instead (see [`crate::Router::refresh`]).
    pub full_rebuild: bool,
}

/// 64-bit FNV-1a over `u64` words — the workspace's golden-fingerprint
/// hash. The router uses it for route-table fingerprints; the planner
/// reuses it for topology / commodity-set / solution cache keys so that
/// every fingerprint in the system is the same deterministic function.
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv::new()
    }
}

impl Fnv {
    /// The FNV-1a 64-bit offset basis.
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Fold one `u64` word into the digest, byte by byte (little-endian).
    pub fn u64(&mut self, x: u64) {
        for byte in x.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Inverted index: fabric cable (duplex pair, even-direction representative)
/// → route-table slots whose committed path set traverses it.
#[derive(Default)]
pub(crate) struct LinkIndex {
    /// CSR offsets over cable index (`LinkId.0 >> 1`): compacted postings of
    /// cable `c` live at `postings[offsets[c]..offsets[c + 1]]`. Empty until
    /// the first compaction.
    offsets: Vec<u32>,
    /// Compacted postings: `(slot, generation at compaction)`.
    postings: Vec<(u32, u32)>,
    /// Slots committed since the last compaction.
    staged: Vec<u32>,
}

impl LinkIndex {
    /// Record that `slot` was just committed: its postings are superseded by
    /// those of its new path set at the next compaction.
    pub(crate) fn note(&mut self, slot: u32) {
        self.staged.push(slot);
    }

    /// Fold the noted slots' cables into the CSR rows, dropping stale
    /// generations.
    pub(crate) fn compact(&mut self, slots: &[Slot]) {
        if self.staged.is_empty() {
            return;
        }
        // Survivors of the old rows first (in row order), then the noted
        // slots (in slot order): a stable counting sort by cable.
        let live = |slot: u32, g: u32| slots[slot as usize].gen == g;
        let mut merged: Vec<(u32, u32, u32)> = Vec::new();
        for (c, row) in self.offsets.windows(2).enumerate() {
            for &(slot, g) in &self.postings[row[0] as usize..row[1] as usize] {
                if live(slot, g) {
                    merged.push((c as u32, slot, g));
                }
            }
        }
        let mut staged = std::mem::take(&mut self.staged);
        staged.sort_unstable();
        staged.dedup();
        let mut cables: Vec<u32> = Vec::new();
        for slot in staged {
            let cell = &slots[slot as usize];
            let paths = cell.paths.iter().flat_map(|set| set.iter());
            cables.clear();
            cables.extend(paths.flat_map(|p| p.links.iter().map(|l| l.0 >> 1)));
            cables.sort_unstable();
            cables.dedup();
            merged.extend(cables.iter().map(|&c| (c, slot, cell.gen)));
        }
        let n_cables = merged.iter().map(|&(c, _, _)| c as usize + 1).max();
        let mut counts = vec![0u32; n_cables.unwrap_or(0) + 1];
        for &(c, _, _) in &merged {
            counts[c as usize + 1] += 1;
        }
        for i in 1..counts.len() {
            counts[i] += counts[i - 1];
        }
        let mut postings = vec![(0u32, 0u32); merged.len()];
        let mut cursor = counts.clone();
        for (c, slot, g) in merged {
            postings[cursor[c as usize] as usize] = (slot, g);
            cursor[c as usize] += 1;
        }
        self.offsets = counts;
        self.postings = postings;
    }

    /// Slots whose committed path set traverses `cable`. Call
    /// [`LinkIndex::compact`] first; staged postings are not consulted.
    pub(crate) fn entries_for<'a>(
        &'a self,
        cable: LinkId,
        slots: &'a [Slot],
    ) -> impl Iterator<Item = usize> + 'a {
        let c = (cable.0 >> 1) as usize;
        let row = if c + 1 < self.offsets.len() {
            &self.postings[self.offsets[c] as usize..self.offsets[c + 1] as usize]
        } else {
            &[]
        };
        row.iter()
            .filter(|&&(slot, g)| slots[slot as usize].gen == g)
            .map(|&(slot, _)| slot as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnet_topology::PlaneId;

    fn path(plane: u16, links: &[u32]) -> Path {
        Path {
            plane: PlaneId(plane),
            links: links.iter().map(|&l| LinkId(l)).collect(),
        }
    }

    /// What the router's commit does: store the set, bump the generation,
    /// note the slot.
    fn commit(idx: &mut LinkIndex, slots: &mut [Slot], slot: u32, paths: &[Path]) {
        let cell = &mut slots[slot as usize];
        cell.paths = Some(Arc::new(paths.to_vec()));
        cell.gen += 1;
        idx.note(slot);
    }

    #[test]
    fn index_round_trip_and_dedup() {
        let (mut idx, mut slots) = (LinkIndex::default(), vec![Slot::default(); 3]);
        // Two paths sharing cable 2 (links 4 and 5): one posting, not two.
        commit(
            &mut idx,
            &mut slots,
            1,
            &[path(0, &[0, 4]), path(0, &[5, 8])],
        );
        commit(&mut idx, &mut slots, 2, &[path(0, &[8])]);
        idx.compact(&slots);
        let hits = |l: u32| idx.entries_for(LinkId(l), &slots).collect::<Vec<_>>();
        assert_eq!(hits(4), vec![1]);
        assert_eq!(hits(5), vec![1], "both directions hit one cable");
        assert_eq!(hits(8), vec![1, 2]);
    }

    #[test]
    fn renoting_invalidates_old_postings() {
        let (mut idx, mut slots) = (LinkIndex::default(), vec![Slot::default(); 2]);
        commit(&mut idx, &mut slots, 1, &[path(0, &[4])]);
        idx.compact(&slots);
        // Entry recomputed: its paths no longer touch cable 2.
        commit(&mut idx, &mut slots, 1, &[path(0, &[6])]);
        let count = |idx: &LinkIndex, l: u32| idx.entries_for(LinkId(l), &slots).count();
        assert_eq!(count(&idx, 4), 0, "stale posting read");
        idx.compact(&slots);
        assert_eq!(count(&idx, 4), 0);
        assert_eq!(count(&idx, 6), 1);
    }

    #[test]
    fn query_out_of_range_cable_is_empty() {
        let (mut idx, mut slots) = (LinkIndex::default(), vec![Slot::default(); 2]);
        commit(&mut idx, &mut slots, 1, &[path(0, &[0])]);
        idx.compact(&slots);
        assert_eq!(idx.entries_for(LinkId(1 << 20), &slots).count(), 0);
    }
}
