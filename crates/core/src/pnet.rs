//! The top-level P-Net object: a declarative spec, the assembled network,
//! and factories for routers, selectors, and simulator flow factories.

use crate::policy::{PathPolicy, PathSelector};
use pnet_routing::{RouteAlgo, Router};
use pnet_topology::{parallel, FatTree, Jellyfish, LinkProfile, Network, NetworkClass, Xpander};

/// Which topology family the planes use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyKind {
    /// Three-tier k-ary fat tree planes.
    FatTree { k: usize },
    /// Jellyfish (random regular graph) planes.
    Jellyfish {
        n_tors: usize,
        degree: usize,
        hosts_per_tor: usize,
    },
    /// Xpander (2-lift expander) planes.
    Xpander {
        degree: usize,
        lifts: u32,
        hosts_per_tor: usize,
    },
}

/// Declarative description of one of the paper's four network classes over
/// a chosen topology family.
#[derive(Debug, Clone, Copy)]
pub struct PNetSpec {
    pub topology: TopologyKind,
    pub class: NetworkClass,
    /// Number of dataplanes N (for the serial classes this sets the
    /// high-bandwidth multiplier). The paper bounds this at 8 (section 3.4).
    pub n_planes: usize,
    /// Base per-plane link profile (100G paper default).
    pub profile: LinkProfile,
    /// Seed for randomized topologies; heterogeneous planes use seed,
    /// seed+1, ...
    pub seed: u64,
}

impl PNetSpec {
    /// New spec with the paper's defaults (100G links).
    pub fn new(topology: TopologyKind, class: NetworkClass, n_planes: usize, seed: u64) -> Self {
        assert!(
            (1..=8).contains(&n_planes),
            "the paper limits parallelism to <= 8 dataplanes"
        );
        PNetSpec {
            topology,
            class,
            n_planes,
            profile: LinkProfile::paper_default(),
            seed,
        }
    }

    /// Build the network.
    pub fn build(&self) -> PNet {
        let net = match self.topology {
            TopologyKind::FatTree { k } => {
                parallel::fattree_network(self.class, k, self.n_planes, &self.profile)
            }
            TopologyKind::Jellyfish {
                n_tors,
                degree,
                hosts_per_tor,
            } => parallel::jellyfish_network(
                self.class,
                Jellyfish::new(n_tors, degree, hosts_per_tor, self.seed),
                self.n_planes,
                self.seed,
                &self.profile,
            ),
            TopologyKind::Xpander {
                degree,
                lifts,
                hosts_per_tor,
            } => parallel::xpander_network(
                self.class,
                Xpander::new(degree, lifts, hosts_per_tor, self.seed),
                self.n_planes,
                self.seed,
                &self.profile,
            ),
        };
        PNet { spec: *self, net }
    }

    /// Hosts this spec will produce.
    pub fn n_hosts(&self) -> usize {
        match self.topology {
            TopologyKind::FatTree { k } => FatTree::three_tier(k).n_hosts(),
            TopologyKind::Jellyfish {
                n_tors,
                hosts_per_tor,
                ..
            } => n_tors * hosts_per_tor,
            TopologyKind::Xpander {
                degree,
                lifts,
                hosts_per_tor,
            } => ((degree + 1) << lifts) * hosts_per_tor,
        }
    }
}

/// The KSP route-table width `policy` needs: wide enough for any built-in
/// policy (floor 32), recursing into the wrapper variants so a nested
/// `MultipathKsp { k > 32 }` is never truncated.
fn ksp_width(policy: &PathPolicy) -> usize {
    match policy {
        PathPolicy::EcmpHash
        | PathPolicy::RoundRobin
        | PathPolicy::ShortestPlane
        | PathPolicy::PlaneKsp { .. }
        | PathPolicy::DisjointPerPlane { .. } => 32,
        PathPolicy::MultipathKsp { k } => (*k).max(32),
        PathPolicy::SizeThreshold { small, large, .. } => ksp_width(small).max(ksp_width(large)),
        PathPolicy::Pinned { inner, .. } => ksp_width(inner),
    }
}

/// An assembled P-Net.
pub struct PNet {
    pub spec: PNetSpec,
    pub net: Network,
}

impl PNet {
    /// A router over the current link state (lazy route table).
    pub fn router(&self, algo: RouteAlgo) -> Router {
        Router::new(&self.net, algo)
    }

    /// A path selector for `policy`, backed by a KSP router wide enough for
    /// any of the built-in policies (`k = max(32, policy k)`).
    pub fn selector(&self, policy: PathPolicy) -> PathSelector {
        let k = ksp_width(&policy);
        PathSelector::new(self.router(RouteAlgo::Ksp { k }), policy)
    }

    /// Shorthand: the four comparison networks of the evaluation over one
    /// topology family, in the paper's order (heterogeneous omitted for fat
    /// trees, which have no heterogeneous variant).
    pub fn evaluation_set(
        topology: TopologyKind,
        n_planes: usize,
        seed: u64,
    ) -> Vec<(NetworkClass, PNet)> {
        let classes: Vec<NetworkClass> = match topology {
            TopologyKind::FatTree { .. } => vec![
                NetworkClass::SerialLow,
                NetworkClass::ParallelHomogeneous,
                NetworkClass::SerialHigh,
            ],
            TopologyKind::Jellyfish { .. } | TopologyKind::Xpander { .. } => {
                NetworkClass::all().to_vec()
            }
        };
        classes
            .into_iter()
            .map(|class| {
                (
                    class,
                    PNetSpec::new(topology, class, n_planes, seed).build(),
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fat_tree_spec_builds() {
        let spec = PNetSpec::new(
            TopologyKind::FatTree { k: 4 },
            NetworkClass::ParallelHomogeneous,
            4,
            0,
        );
        let pnet = spec.build();
        assert_eq!(pnet.net.n_planes(), 4);
        assert_eq!(pnet.net.n_hosts(), 16);
        assert_eq!(spec.n_hosts(), 16);
    }

    #[test]
    fn jellyfish_heterogeneous_spec_builds() {
        let spec = PNetSpec::new(
            TopologyKind::Jellyfish {
                n_tors: 12,
                degree: 3,
                hosts_per_tor: 2,
            },
            NetworkClass::ParallelHeterogeneous,
            2,
            5,
        );
        let pnet = spec.build();
        pnet.net.validate().unwrap();
        assert_eq!(pnet.net.n_hosts(), 24);
        assert_eq!(spec.n_hosts(), 24);
    }

    #[test]
    fn xpander_spec_builds() {
        let spec = PNetSpec::new(
            TopologyKind::Xpander {
                degree: 3,
                lifts: 2,
                hosts_per_tor: 1,
            },
            NetworkClass::SerialHigh,
            4,
            1,
        );
        let pnet = spec.build();
        assert_eq!(pnet.net.n_planes(), 1);
        assert_eq!(spec.n_hosts(), 16);
        // High-bandwidth: links at 4 x 100G.
        let (_, link) = pnet.net.links().next().unwrap();
        assert_eq!(link.capacity_bps, 400_000_000_000);
    }

    #[test]
    fn evaluation_set_shapes() {
        let ft = PNet::evaluation_set(TopologyKind::FatTree { k: 4 }, 2, 0);
        assert_eq!(ft.len(), 3);
        let jf = PNet::evaluation_set(
            TopologyKind::Jellyfish {
                n_tors: 10,
                degree: 3,
                hosts_per_tor: 1,
            },
            2,
            0,
        );
        assert_eq!(jf.len(), 4);
        // Equal host counts across classes.
        let hosts: Vec<usize> = jf.iter().map(|(_, p)| p.net.n_hosts()).collect();
        assert!(hosts.iter().all(|&h| h == hosts[0]));
    }

    #[test]
    #[should_panic(expected = "<= 8")]
    fn parallelism_bound_enforced() {
        PNetSpec::new(
            TopologyKind::FatTree { k: 4 },
            NetworkClass::ParallelHomogeneous,
            9,
            0,
        );
    }
}
