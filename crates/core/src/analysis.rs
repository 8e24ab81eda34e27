//! Hop-count and resiliency analyses (sections 5.2.1 and 5.4).
//!
//! The heterogeneous P-Net advantage is structural: with N independently
//! random planes, the minimum-over-planes path length between two racks is
//! stochastically smaller than any single plane's. These helpers compute
//! the hop statistics behind Figure 14's failure sweep, `pnet exp expand`
//! and `pnet topology`'s hop histogram, all read from the planes'
//! [`PlaneGraph::hops_to`] tables.

use pnet_routing::plane_graph::UNREACHABLE;
use pnet_routing::PlaneGraph;
use pnet_topology::{Network, PlaneId, RackId};

/// Mean switch hops over all rack pairs when every flow must stay in one
/// *fixed* plane (serial networks, or per-plane view of a P-Net).
pub fn mean_hops_single_plane(net: &Network) -> f64 {
    histogram_of(&[PlaneGraph::build(net, PlaneId(0))]).mean()
}

/// Mean switch hops over all rack pairs when the host may pick the best
/// plane per destination (the P-Net host stack's shortest-plane interface).
pub fn mean_hops_best_plane(net: &Network) -> f64 {
    hop_histogram_best_plane(net).mean()
}

/// The distribution of best-plane switch hops over all ordered rack pairs:
/// `histogram[h]` = number of pairs at `h` switch hops. Disconnected pairs
/// are counted in `unreachable`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HopHistogram {
    pub histogram: Vec<u64>,
    pub unreachable: u64,
}

impl HopHistogram {
    /// Mean switch hops of reachable pairs.
    pub fn mean(&self) -> f64 {
        let total: u64 = self.histogram.iter().sum();
        if total == 0 {
            return f64::NAN;
        }
        let weighted: u64 = self
            .histogram
            .iter()
            .enumerate()
            .map(|(h, &c)| h as u64 * c)
            .sum();
        weighted as f64 / total as f64
    }
}

/// Hop histogram with best-plane selection.
pub fn hop_histogram_best_plane(net: &Network) -> HopHistogram {
    histogram_of(&PlaneGraph::build_all(net))
}

/// Histogram of the minimum over `planes` of each ordered rack pair's
/// fabric-link distance, read from the planes' hop tables.
fn histogram_of(planes: &[PlaneGraph]) -> HopHistogram {
    let mut histogram = Vec::new();
    let mut unreachable = 0u64;
    let n_racks = planes[0].n_racks() as u32;
    for a in (0..n_racks).map(RackId) {
        for b in (0..n_racks).map(RackId) {
            if a == b {
                continue;
            }
            let links = planes.iter().map(|pg| pg.hops_to(pg.tor(b))[pg.tor(a)]);
            let d = links
                .min()
                .expect("invariant: a network has at least one plane");
            if d == UNREACHABLE {
                unreachable += 1;
                continue;
            }
            let hops = d as usize + 1; // switch hops = fabric links + 1
            if histogram.len() <= hops {
                histogram.resize(hops + 1, 0);
            }
            histogram[hops] += 1;
        }
    }
    HopHistogram {
        histogram,
        unreachable,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnet_topology::{
        assemble_homogeneous, failures, parallel, FatTree, Jellyfish, LinkProfile, NetworkClass,
    };

    #[test]
    fn fat_tree_hop_mix() {
        let net = assemble_homogeneous(&FatTree::three_tier(4), 1, &LinkProfile::paper_default());
        let h = hop_histogram_best_plane(&net);
        // 8 racks: same-pod pairs at 3 switch hops (2 per pod x 2 ordered x
        // 4 pods = 8... precisely: per pod 2 racks -> 2 ordered pairs), so 8
        // pairs at 3 hops; the other 48 ordered pairs at 5 hops.
        assert_eq!(h.histogram[3], 8);
        assert_eq!(h.histogram[5], 48);
        assert_eq!(h.unreachable, 0);
        let expect_mean = (8.0 * 3.0 + 48.0 * 5.0) / 56.0;
        assert!((h.mean() - expect_mean).abs() < 1e-12);
    }

    #[test]
    fn heterogeneous_shortens_paths() {
        // The paper's core structural claim: min-over-planes beats any
        // single plane on expanders.
        let proto = Jellyfish::new(32, 4, 1, 0);
        let base = LinkProfile::paper_default();
        let serial = parallel::jellyfish_network(NetworkClass::SerialLow, proto, 4, 11, &base);
        let hetero =
            parallel::jellyfish_network(NetworkClass::ParallelHeterogeneous, proto, 4, 11, &base);
        let homo =
            parallel::jellyfish_network(NetworkClass::ParallelHomogeneous, proto, 4, 11, &base);
        let s = mean_hops_single_plane(&serial);
        let het = mean_hops_best_plane(&hetero);
        let hom = mean_hops_best_plane(&homo);
        assert!(
            het < s - 0.2,
            "heterogeneous mean {het} not clearly below serial {s}"
        );
        // Homogeneous planes are identical: best-plane = single-plane.
        assert!((hom - s).abs() < 1e-9, "homogeneous {hom} vs serial {s}");
    }

    #[test]
    fn unreachable_pairs_excluded_from_mean() {
        // Cut every fabric cable of rack 0's ToR in a 1-plane k=4 fat tree:
        // its 14 ordered pairs become unreachable and leave the mean, which
        // is then over the other 7 racks (6 same-pod pairs at 3 hops, 36
        // cross-pod pairs at 5).
        let mut net =
            assemble_homogeneous(&FatTree::three_tier(4), 1, &LinkProfile::paper_default());
        let tor = net.tor_of_rack(RackId(0), PlaneId(0)).unwrap();
        for cable in failures::fabric_cables(&net, None) {
            if net.link(cable).src == tor || net.link(cable).dst == tor {
                failures::fail_cable(&mut net, cable);
            }
        }
        let h = hop_histogram_best_plane(&net);
        assert_eq!(h.unreachable, 14);
        assert_eq!(h.histogram[3], 6);
        assert_eq!(h.histogram[5], 36);
        assert_eq!(h.mean(), (6.0 * 3.0 + 36.0 * 5.0) / 42.0);
        assert_eq!(mean_hops_single_plane(&net), h.mean());
    }
}
