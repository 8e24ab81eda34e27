//! ECMP-style hash-based path selection (section 4 of the paper).
//!
//! In a P-Net running plain ECMP, "each end host selects, for each flow, one
//! of the N parallel dataplanes using a hashing algorithm", and the flow then
//! takes one of the equal-cost shortest paths inside that plane, again by
//! hash. Hashing is per-flow (5-tuple-like): all packets of a flow stay on
//! one path, which is exactly why sparse traffic cannot use more than 1/N of
//! a P-Net's capacity with single-path ECMP (Figure 6b).

use pnet_topology::{HostId, PlaneId};

/// A deterministic 64-bit flow hash (splitmix64 over src/dst/flow id).
/// Plays the role of the switch/NIC 5-tuple hash.
pub fn flow_hash(src: HostId, dst: HostId, flow: u64) -> u64 {
    let mut x = (src.0 as u64) << 40 ^ (dst.0 as u64) << 16 ^ flow;
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The position a flow with `hash` picks among `n` items. Panics when `n`
/// is 0.
pub fn hash_index(n: usize, hash: u64) -> usize {
    assert!(n > 0, "hash pick in an empty path set");
    (hash % n as u64) as usize
}

/// ECMP plane choice for a flow in an `n_planes`-way P-Net.
pub fn hash_plane(n_planes: u16, hash: u64) -> PlaneId {
    // Use high bits for the plane so plane and path choices decorrelate.
    PlaneId((hash >> 48) as u16 % n_planes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_is_deterministic() {
        let a = flow_hash(HostId(1), HostId(2), 3);
        let b = flow_hash(HostId(1), HostId(2), 3);
        assert_eq!(a, b);
    }

    #[test]
    fn hash_separates_flows() {
        let a = flow_hash(HostId(1), HostId(2), 3);
        let b = flow_hash(HostId(1), HostId(2), 4);
        let c = flow_hash(HostId(2), HostId(1), 3);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn selection_in_range() {
        for f in 0..100 {
            let h = flow_hash(HostId(0), HostId(1), f);
            assert!(hash_index(3, h) < 3);
        }
    }

    #[test]
    fn plane_choice_covers_all_planes() {
        let mut seen = [false; 4];
        for f in 0..256 {
            let h = flow_hash(HostId(5), HostId(9), f);
            seen[hash_plane(4, h).index()] = true;
        }
        assert!(seen.iter().all(|&s| s), "hash never chose some plane");
    }

    #[test]
    fn plane_choice_roughly_uniform() {
        let mut counts = [0usize; 4];
        let n = 4000;
        for f in 0..n {
            let h = flow_hash(HostId(3), HostId(7), f);
            counts[hash_plane(4, h).index()] += 1;
        }
        for &c in &counts {
            let expect = n as f64 / 4.0;
            assert!(
                (c as f64 - expect).abs() < expect * 0.2,
                "plane imbalance: {counts:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_selection_panics() {
        hash_index(0, 7);
    }
}
