//! Convenience constructors for the four network classes compared throughout
//! the paper's evaluation (section 5):
//!
//! 1. **Serial low-bandwidth** — one plane at the base link speed.
//! 2. **Parallel homogeneous** — N identical planes at the base speed.
//! 3. **Parallel heterogeneous** — N differently-seeded expander planes.
//! 4. **Serial high-bandwidth** — one plane with links at N x the base speed.

use crate::builder::{assemble, assemble_homogeneous, PlaneBuilder};
use crate::fattree::FatTree;
use crate::graph::Network;
use crate::jellyfish::Jellyfish;
use crate::profile::LinkProfile;
use crate::xpander::Xpander;

/// The four network classes of the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NetworkClass {
    /// Single plane at base speed (the normalization baseline).
    SerialLow,
    /// N identical planes at base speed.
    ParallelHomogeneous,
    /// N differently-seeded planes at base speed (expander topologies only).
    ParallelHeterogeneous,
    /// Single plane at N x base speed (the ideal but cost-prohibitive
    /// comparison point).
    SerialHigh,
}

impl NetworkClass {
    /// All four classes in the paper's presentation order.
    pub fn all() -> [NetworkClass; 4] {
        [
            NetworkClass::SerialLow,
            NetworkClass::ParallelHomogeneous,
            NetworkClass::ParallelHeterogeneous,
            NetworkClass::SerialHigh,
        ]
    }

    /// Label used in experiment output (matches the paper's legends).
    pub fn label(self) -> &'static str {
        match self {
            NetworkClass::SerialLow => "serial low-bw",
            NetworkClass::ParallelHomogeneous => "parallel homogeneous",
            NetworkClass::ParallelHeterogeneous => "parallel heterogeneous",
            NetworkClass::SerialHigh => "serial high-bw",
        }
    }
}

/// Build a fat-tree network of the given class.
///
/// Fat trees have no heterogeneous variant (every k-ary fat tree of the same
/// k is isomorphic, as the paper notes: "there are no parallel heterogeneous
/// fat trees"); requesting one panics.
pub fn fattree_network(
    class: NetworkClass,
    k: usize,
    n_planes: usize,
    base: &LinkProfile,
) -> Network {
    let ft = FatTree::three_tier(k);
    match class {
        NetworkClass::SerialLow => assemble_homogeneous(&ft, 1, base),
        NetworkClass::ParallelHomogeneous => assemble_homogeneous(&ft, n_planes, base),
        #[expect(
            clippy::panic,
            reason = "invariant: classes_for offers no heterogeneous fat tree, as the paper has none"
        )]
        NetworkClass::ParallelHeterogeneous => {
            panic!("fat trees have no heterogeneous parallel variant")
        }
        NetworkClass::SerialHigh => assemble_homogeneous(&ft, 1, &base.scaled(n_planes as u64)),
    }
}

/// Build a Jellyfish network of the given class. `seed` controls the random
/// graph(s); heterogeneous planes use `seed`, `seed + 1`, ... .
pub fn jellyfish_network(
    class: NetworkClass,
    proto: Jellyfish,
    n_planes: usize,
    seed: u64,
    base: &LinkProfile,
) -> Network {
    let with_seed = |s: u64| Jellyfish { seed: s, ..proto };
    expander_network(class, with_seed, n_planes, seed, base)
}

/// Build an Xpander network of the given class (same seeding convention as
/// [`jellyfish_network`]).
pub fn xpander_network(
    class: NetworkClass,
    proto: Xpander,
    n_planes: usize,
    seed: u64,
    base: &LinkProfile,
) -> Network {
    let with_seed = |s: u64| Xpander { seed: s, ..proto };
    expander_network(class, with_seed, n_planes, seed, base)
}

/// The body of both expander constructors: `with_seed(s)` is the family's
/// plane built from seed `s`.
fn expander_network<B: PlaneBuilder>(
    class: NetworkClass,
    with_seed: impl Fn(u64) -> B,
    n_planes: usize,
    seed: u64,
    base: &LinkProfile,
) -> Network {
    match class {
        NetworkClass::SerialLow => assemble_homogeneous(&with_seed(seed), 1, base),
        NetworkClass::ParallelHomogeneous => assemble_homogeneous(&with_seed(seed), n_planes, base),
        NetworkClass::ParallelHeterogeneous => {
            let builders: Vec<B> = (0..n_planes).map(|i| with_seed(seed + i as u64)).collect();
            let refs: Vec<&dyn PlaneBuilder> =
                builders.iter().map(|b| b as &dyn PlaneBuilder).collect();
            assemble(&refs, base)
        }
        NetworkClass::SerialHigh => {
            assemble_homogeneous(&with_seed(seed), 1, &base.scaled(n_planes as u64))
        }
    }
}

/// A *mixed-type* P-Net (section 7, "P-Net with different topology types"):
/// one fat-tree plane plus `n_expander` differently-seeded Jellyfish planes
/// over the same racks and hosts. Operators get the fat tree's predictable
/// bisection for data-intensive traffic and the expanders' short paths for
/// latency-sensitive traffic.
///
/// The Jellyfish planes reuse the fat tree's rack shape (k²/2 racks, k/2
/// hosts per rack) with ToR degree `expander_degree` (defaults to k when 0,
/// matching the fat-tree ToR's uplink count).
pub fn mixed_fattree_expander(
    k: usize,
    n_expander: usize,
    expander_degree: usize,
    seed: u64,
    base: &LinkProfile,
) -> Network {
    let ft = FatTree::three_tier(k);
    let n_tors = ft.n_racks();
    let degree = if expander_degree == 0 {
        k.min(n_tors - 1)
    } else {
        expander_degree
    };
    let jellies: Vec<Jellyfish> = (0..n_expander)
        .map(|i| Jellyfish::new(n_tors, degree, k / 2, seed + i as u64))
        .collect();
    let mut builders: Vec<&dyn PlaneBuilder> = vec![&ft];
    builders.extend(jellies.iter().map(|j| j as &dyn PlaneBuilder));
    assemble(&builders, base)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::PlaneId;

    #[test]
    fn four_classes_fat_tree() {
        let base = LinkProfile::paper_default();
        let low = fattree_network(NetworkClass::SerialLow, 4, 4, &base);
        let homo = fattree_network(NetworkClass::ParallelHomogeneous, 4, 4, &base);
        let high = fattree_network(NetworkClass::SerialHigh, 4, 4, &base);
        assert_eq!(low.n_planes(), 1);
        assert_eq!(homo.n_planes(), 4);
        assert_eq!(high.n_planes(), 1);
        assert_eq!(low.n_hosts(), homo.n_hosts());
        assert_eq!(low.n_hosts(), high.n_hosts());
        // Serial high runs 4x faster links.
        let l = low.link(low.out_links(low.host_node(crate::ids::HostId(0)))[0]);
        let h = high.link(high.out_links(high.host_node(crate::ids::HostId(0)))[0]);
        assert_eq!(h.capacity_bps, 4 * l.capacity_bps);
    }

    #[test]
    #[should_panic(expected = "no heterogeneous")]
    fn heterogeneous_fat_tree_rejected() {
        fattree_network(
            NetworkClass::ParallelHeterogeneous,
            4,
            4,
            &LinkProfile::paper_default(),
        );
    }

    #[test]
    fn heterogeneous_jellyfish_planes_differ() {
        let base = LinkProfile::paper_default();
        let proto = Jellyfish::new(16, 4, 2, 0);
        let net = jellyfish_network(NetworkClass::ParallelHeterogeneous, proto, 3, 10, &base);
        assert_eq!(net.n_planes(), 3);
        net.validate().unwrap();
        for p in net.planes() {
            assert!(net.plane_connects_all_hosts(p));
        }
        // Planes should not be identical: compare fabric edge sets by
        // (rack, rack) pairs.
        let edge_set = |plane: PlaneId| {
            let mut edges: Vec<(u32, u32)> = net
                .links()
                .filter(|(id, l)| {
                    id.0 % 2 == 0
                        && l.plane == plane
                        && net.node(l.src).kind.is_switch()
                        && net.node(l.dst).kind.is_switch()
                })
                .map(|(_, l)| {
                    let ra = match net.node(l.src).kind {
                        crate::graph::NodeKind::Tor { rack } => rack.0,
                        _ => u32::MAX,
                    };
                    let rb = match net.node(l.dst).kind {
                        crate::graph::NodeKind::Tor { rack } => rack.0,
                        _ => u32::MAX,
                    };
                    (ra.min(rb), ra.max(rb))
                })
                .collect();
            edges.sort_unstable();
            edges
        };
        assert_ne!(edge_set(PlaneId(0)), edge_set(PlaneId(1)));
    }

    #[test]
    fn homogeneous_jellyfish_planes_identical() {
        let base = LinkProfile::paper_default();
        let proto = Jellyfish::new(16, 4, 2, 0);
        let net = jellyfish_network(NetworkClass::ParallelHomogeneous, proto, 2, 10, &base);
        // Both planes built from the same seed: same switch counts and same
        // cable counts (full isomorphism by construction).
        assert_eq!(
            net.fabric_cables_in_plane(PlaneId(0)),
            net.fabric_cables_in_plane(PlaneId(1))
        );
    }

    #[test]
    fn xpander_classes_build() {
        let base = LinkProfile::paper_default();
        let proto = Xpander::new(3, 2, 2, 0);
        for class in [
            NetworkClass::SerialLow,
            NetworkClass::ParallelHomogeneous,
            NetworkClass::ParallelHeterogeneous,
            NetworkClass::SerialHigh,
        ] {
            let net = xpander_network(class, proto, 2, 5, &base);
            net.validate().unwrap();
            assert!(net.plane_connects_all_hosts(PlaneId(0)));
        }
    }

    #[test]
    fn mixed_topology_pnet_builds() {
        let base = LinkProfile::paper_default();
        let net = mixed_fattree_expander(4, 3, 3, 7, &base);
        net.validate().unwrap();
        assert_eq!(net.n_planes(), 4);
        assert_eq!(net.n_hosts(), 16);
        for p in net.planes() {
            assert!(net.plane_connects_all_hosts(p), "plane {p} disconnected");
        }
        // Plane 0 is the fat tree (has Agg/Core switches); planes 1.. are
        // ToR-only expanders.
        let agg_in = |plane: PlaneId| {
            net.nodes()
                .filter(|(_, n)| {
                    n.plane == Some(plane)
                        && matches!(
                            n.kind,
                            crate::graph::NodeKind::Agg { .. } | crate::graph::NodeKind::Core
                        )
                })
                .count()
        };
        assert!(agg_in(PlaneId(0)) > 0);
        assert_eq!(agg_in(PlaneId(1)), 0);
    }

    #[test]
    fn labels_match_paper() {
        assert_eq!(NetworkClass::SerialLow.label(), "serial low-bw");
        assert_eq!(
            NetworkClass::ParallelHeterogeneous.label(),
            "parallel heterogeneous"
        );
    }
}
