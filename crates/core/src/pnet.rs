//! The top-level P-Net object: a declarative spec, the assembled network,
//! and its path selectors.

use crate::policy::{PathPolicy, PathSelector};
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

/// An assembled P-Net.
pub struct PNet {
    pub spec: PNetSpec,
    pub net: Network,
}

impl PNet {
    /// A path selector for `policy` over the current link state
    /// ([`PathSelector::new`]).
    pub fn selector(&self, policy: PathPolicy) -> PathSelector {
        PathSelector::new(&self.net, policy)
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

    /// The selector's table changes no answer: under every policy,
    /// [`PathSelector::new`] picks the routes that `place` picks over a
    /// 32-wide KSP table, flow for flow. On a k = 12 fat tree an inter-pod
    /// pair has 36 shortest paths per plane, so the ECMP width cuts; on a
    /// heterogeneous Jellyfish host 0's plane-0 uplink is dead. A third of the flows leave
    /// host 0, a seventh stay in their rack, and sizes alternate around
    /// `paper_default`'s cutoff.
    #[test]
    fn the_selector_answers_as_a_32_wide_ksp_table_would() {
        use crate::policy::place;
        use pnet_routing::{Flow, RouteAlgo, Router};
        use pnet_topology::{failures, HostId, PlaneId, RackId};
        let fat = PNetSpec::new(
            TopologyKind::FatTree { k: 12 },
            NetworkClass::ParallelHomogeneous,
            2,
            0,
        )
        .build();
        let far = Router::new(&fat.net, RouteAlgo::Ksp { k: 40 });
        let tier = far.paths_in_plane(PlaneId(0), RackId(0), RackId(71));
        assert_eq!(tier.shortest_tier(), 36);
        let mut jelly = PNetSpec::new(
            TopologyKind::Jellyfish {
                n_tors: 16,
                degree: 4,
                hosts_per_tor: 2,
            },
            NetworkClass::ParallelHeterogeneous,
            4,
            5,
        )
        .build();
        let up = jelly.net.host_uplink(HostId(0), PlaneId(0)).unwrap();
        failures::fail_cable(&mut jelly.net, up);
        let policies = [
            PathPolicy::EcmpHash,
            PathPolicy::RoundRobin,
            PathPolicy::ShortestPlane,
            PathPolicy::PlaneKsp { per_plane: 1 },
            PathPolicy::PlaneKsp { per_plane: 2 },
            PathPolicy::MultipathKsp { k: 4 },
            PathPolicy::MultipathKsp { k: 16 },
            PathPolicy::paper_default(16),
            PathPolicy::Pinned {
                planes: vec![1],
                inner: Box::new(PathPolicy::PlaneKsp { per_plane: 1 }),
            },
        ];
        for pnet in [&fat, &jelly] {
            let n = pnet.net.n_hosts() as u32;
            let wide = Router::new(&pnet.net, RouteAlgo::Ksp { k: 32 });
            for policy in &policies {
                let mut narrow = PathSelector::new(&pnet.net, policy.clone());
                let mut rr = 0;
                for f in 0..240u32 {
                    let src = if f % 3 == 0 { 0 } else { f * 37 % n };
                    let dst = if f % 7 == 0 {
                        src ^ 1
                    } else {
                        (src + 1 + f * 101 % (n - 1)) % n
                    };
                    let (src, dst) = (HostId(src), HostId(dst));
                    let size = if f % 2 == 0 { 1_500 } else { 1 << 30 };
                    let (id, net) = (u64::from(f), &pnet.net);
                    let flow = Flow::new(net, src, dst, id);
                    assert_eq!(
                        narrow.select(net, src, dst, id, size),
                        place(&wide, flow, policy, &mut rr, size),
                        "{policy:?}, flow {f}"
                    );
                }
            }
        }
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
