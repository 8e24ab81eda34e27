//! Strongly-typed identifiers for network entities.
//!
//! All graph storage is arena-based: nodes and links live in `Vec`s inside
//! [`crate::Network`] and are referred to by these index newtypes. Using
//! distinct types (instead of bare `usize`) prevents the classic
//! index-confusion bugs when code juggles hosts, nodes, links, and planes at
//! the same time.

use serde::{Deserialize, Serialize};

/// Index of a node (host or switch) within a [`crate::Network`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub u32);

/// Index of a *directed* link within a [`crate::Network`].
///
/// Physical cables are represented as two directed links created together;
/// [`LinkId::reverse`] maps one direction to the other.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct LinkId(pub u32);

/// Index of a dataplane (forwarding plane). Serial networks have exactly one
/// plane (`PlaneId(0)`); an N-way P-Net has planes `0..N`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct PlaneId(pub u16);

/// Dense index of a host (end system). `HostId(i)` is the i-th host; the
/// mapping to its [`NodeId`] is held by the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct HostId(pub u32);

/// Dense index of a rack. Every host belongs to one rack; each plane has one
/// ToR switch per rack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct RackId(pub u32);

impl NodeId {
    /// Convert to a plain index for arena access.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl LinkId {
    /// Convert to a plain index for arena access.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The directed link going the opposite way over the same cable.
    ///
    /// Duplex links are always allocated in adjacent pairs `(2k, 2k+1)`, so
    /// the reverse is computed by flipping the low bit.
    #[inline]
    pub fn reverse(self) -> LinkId {
        LinkId(self.0 ^ 1)
    }
}

impl PlaneId {
    /// Convert to a plain index for arena access.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl HostId {
    /// Convert to a plain index for arena access.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl RackId {
    /// Convert to a plain index for arena access.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl std::fmt::Display for LinkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "l{}", self.0)
    }
}

impl std::fmt::Display for PlaneId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl std::fmt::Display for HostId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "h{}", self.0)
    }
}

impl std::fmt::Display for RackId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "r{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// mcf.rs and router.rs sort `Vec<RackId>` / `Vec<LinkId>` with plain
    /// `sort_unstable()` (the form `clippy::disallowed_methods` leaves alone).
    /// That is only equivalent to the old `sort_unstable_by_key(|x| x.0)`
    /// because the derived `Ord` on these newtypes IS the inner-u32 order and
    /// duplicates are indistinguishable whole elements. Pin the equivalence so
    /// a future field addition (which would make the unstable sort
    /// reorder-prone again) fails loudly here.
    #[test]
    fn newtype_sort_unstable_matches_inner_key_sort() {
        let raw = [7u32, 3, 7, 0, 3, 9, 1, 7, 0];
        let mut by_whole: Vec<RackId> = raw.iter().map(|&x| RackId(x)).collect();
        let mut by_key: Vec<RackId> = by_whole.clone();
        by_whole.sort_unstable();
        by_key.sort_unstable_by_key(|r| r.0);
        assert_eq!(by_whole, by_key);
        let mut lw: Vec<LinkId> = raw.iter().map(|&x| LinkId(x)).collect();
        let mut lk: Vec<LinkId> = lw.clone();
        lw.sort_unstable();
        lk.sort_unstable_by_key(|l| l.0);
        assert_eq!(lw, lk);
        // dedup after the whole-element sort leaves exactly the distinct keys
        lw.dedup();
        assert_eq!(lw, [0, 1, 3, 7, 9].map(LinkId).to_vec());
    }

    #[test]
    fn reverse_flips_low_bit() {
        assert_eq!(LinkId(0).reverse(), LinkId(1));
        assert_eq!(LinkId(1).reverse(), LinkId(0));
        assert_eq!(LinkId(6).reverse(), LinkId(7));
        assert_eq!(LinkId(7).reverse(), LinkId(6));
    }

    #[test]
    fn reverse_is_involution() {
        for i in 0..100 {
            let l = LinkId(i);
            assert_eq!(l.reverse().reverse(), l);
            assert_ne!(l.reverse(), l);
        }
    }

    #[test]
    fn display_forms() {
        assert_eq!(NodeId(3).to_string(), "n3");
        assert_eq!(LinkId(4).to_string(), "l4");
        assert_eq!(PlaneId(1).to_string(), "p1");
        assert_eq!(HostId(9).to_string(), "h9");
        assert_eq!(RackId(2).to_string(), "r2");
    }

    #[test]
    fn ordering_follows_index() {
        assert!(NodeId(1) < NodeId(2));
        assert!(HostId(0) < HostId(10));
    }
}
