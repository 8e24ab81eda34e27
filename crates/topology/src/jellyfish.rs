//! Jellyfish: random-regular-graph topologies (Singla et al., NSDI'12 \[38\]).
//!
//! A Jellyfish plane is a random d-regular graph among the ToR switches, with
//! h hosts per ToR. The paper's heterogeneous P-Nets instantiate a
//! *differently seeded* Jellyfish per plane; the homogeneous variant reuses
//! the same seed so every plane is an identical copy.
//!
//! Construction follows the Jellyfish paper: repeatedly join random pairs of
//! switches with free ports; when blocked (remaining free ports only between
//! already-adjacent or identical switches), break a random existing edge and
//! reconnect. We additionally verify connectivity and re-seed in the (rare)
//! event of a disconnected result.

use crate::builder::PlaneBuilder;
use crate::graph::{Network, NodeKind};
use crate::ids::{NodeId, PlaneId, RackId};
use crate::profile::LinkProfile;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};
use std::collections::BTreeSet;

/// A Jellyfish plane builder.
#[derive(Debug, Clone, Copy)]
pub struct Jellyfish {
    /// Number of ToR switches.
    pub n_tors: usize,
    /// Network degree of each ToR (ports used for switch-to-switch links).
    pub degree: usize,
    /// Hosts attached to each ToR.
    pub hosts_per_tor: usize,
    /// RNG seed. Different seeds yield different random graphs — this is the
    /// heterogeneity knob of the paper's heterogeneous P-Nets.
    pub seed: u64,
}

impl Jellyfish {
    /// Create a builder; `n_tors * degree` must be even (handshake lemma) and
    /// `degree < n_tors` (simple graph).
    pub fn new(n_tors: usize, degree: usize, hosts_per_tor: usize, seed: u64) -> Self {
        assert!(n_tors >= 2, "need at least two ToRs");
        assert!(degree >= 1, "degree must be positive");
        assert!(
            degree < n_tors,
            "degree must be < n_tors for a simple graph"
        );
        assert!(
            (n_tors * degree).is_multiple_of(2),
            "n_tors * degree must be even (handshake lemma)"
        );
        Jellyfish {
            n_tors,
            degree,
            hosts_per_tor,
            seed,
        }
    }

    /// The paper's packet-simulation scale: 686 hosts as 98 ToRs x 7 hosts
    /// with 7 network ports each (14-port switches, as in the k=14 fat tree
    /// equivalence of the Jellyfish paper).
    pub fn paper_686(seed: u64) -> Self {
        Jellyfish::new(98, 7, 7, seed)
    }

    /// The paper's LP scale: "1024-host equivalent" Jellyfish built from the
    /// same equipment as a k=16 fat tree — 128 ToRs, 8 hosts and 8 network
    /// ports per ToR.
    pub fn paper_1024(seed: u64) -> Self {
        Jellyfish::new(128, 8, 8, seed)
    }

    /// Total hosts of one plane.
    pub fn n_hosts(&self) -> usize {
        self.n_tors * self.hosts_per_tor
    }

    /// Generate the random regular adjacency (pairs of ToR indices).
    /// Deterministic in `self.seed`.
    pub fn generate_edges(&self) -> Vec<(usize, usize)> {
        // Retry with derived seeds until connected (virtually always the
        // first attempt: random regular graphs with d >= 3 are connected
        // w.h.p., so 64 reseeded attempts make failure astronomically
        // unlikely).
        (0..64u64)
            .find_map(|attempt| {
                let seed = self
                    .seed
                    .wrapping_add(attempt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
                let edges = random_regular_graph(self.n_tors, self.degree, seed);
                let regular = edges.len() == self.n_tors * self.degree / 2;
                (regular && is_connected(self.n_tors, &edges)).then_some(edges)
            })
            .expect("invariant: 64 reseeded attempts always yield a connected regular graph")
    }
}

/// Random d-regular simple graph via the Jellyfish incremental procedure.
fn random_regular_graph(n: usize, d: usize, seed: u64) -> Vec<(usize, usize)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut free: Vec<usize> = vec![d; n];
    let mut adj: BTreeSet<(usize, usize)> = BTreeSet::new();
    let mut edges: Vec<(usize, usize)> = Vec::with_capacity(n * d / 2);

    let key = |a: usize, b: usize| if a < b { (a, b) } else { (b, a) };

    loop {
        // Candidate switches with free ports.
        let mut open: Vec<usize> = (0..n).filter(|&v| free[v] > 0).collect();
        if open.is_empty() {
            break;
        }
        // Try to find a random valid pair among open switches.
        open.shuffle(&mut rng);
        let mut paired = false;
        'outer: for i in 0..open.len() {
            for j in (i + 1)..open.len() {
                let (a, b) = (open[i], open[j]);
                if !adj.contains(&key(a, b)) {
                    adj.insert(key(a, b));
                    edges.push(key(a, b));
                    free[a] -= 1;
                    free[b] -= 1;
                    paired = true;
                    break 'outer;
                }
            }
        }
        if paired {
            continue;
        }
        // Blocked: every pair of switches with free ports is already
        // adjacent. Repair with the Jellyfish edge swap. Two sub-cases:
        //
        // (a) some switch x holds >= 2 free ports: break a random edge
        //     (u, v) not incident nor adjacent to x and add (x,u), (x,v);
        // (b) the leftovers are single free ports on >= 2 mutually adjacent
        //     switches x, y: break an edge (u, v) with x !~ u and y !~ v and
        //     add (x,u), (y,v).
        //
        // (Total free-port count is even by the handshake lemma, so a lone
        // single free port cannot occur.)
        if let Some(&x) = open.iter().find(|&&v| free[v] >= 2) {
            let candidates: Vec<usize> = (0..edges.len())
                .filter(|&e| {
                    let (u, v) = edges[e];
                    u != x && v != x && !adj.contains(&key(x, u)) && !adj.contains(&key(x, v))
                })
                .collect();
            if candidates.is_empty() {
                break; // let the connectivity retry pick a fresh seed
            }
            let e = candidates[rng.random_range(0..candidates.len())];
            let (u, v) = edges.swap_remove(e);
            adj.remove(&key(u, v));
            adj.insert(key(x, u));
            adj.insert(key(x, v));
            edges.push(key(x, u));
            edges.push(key(x, v));
            free[x] -= 2;
        } else {
            debug_assert!(open.len() >= 2, "odd total free-port count");
            let (x, y) = (open[0], open[1]);
            // Find (u, v) with both orientations considered.
            let mut found = None;
            let mut order: Vec<usize> = (0..edges.len()).collect();
            order.shuffle(&mut rng);
            for e in order {
                let (u, v) = edges[e];
                if u == x || u == y || v == x || v == y {
                    continue;
                }
                if !adj.contains(&key(x, u)) && !adj.contains(&key(y, v)) {
                    found = Some((e, u, v));
                    break;
                }
                if !adj.contains(&key(x, v)) && !adj.contains(&key(y, u)) {
                    found = Some((e, v, u));
                    break;
                }
            }
            let Some((e, u, v)) = found else {
                break; // let the connectivity retry pick a fresh seed
            };
            let removed = edges.swap_remove(e);
            adj.remove(&removed);
            adj.insert(key(x, u));
            adj.insert(key(y, v));
            edges.push(key(x, u));
            edges.push(key(y, v));
            free[x] -= 1;
            free[y] -= 1;
        }
    }
    edges
}

fn is_connected(n: usize, edges: &[(usize, usize)]) -> bool {
    if n == 0 {
        return true;
    }
    let mut adj = vec![Vec::new(); n];
    for &(a, b) in edges {
        adj[a].push(b);
        adj[b].push(a);
    }
    let mut seen = vec![false; n];
    let mut stack = vec![0usize];
    seen[0] = true;
    let mut count = 1;
    while let Some(u) = stack.pop() {
        for &v in &adj[u] {
            if !seen[v] {
                seen[v] = true;
                count += 1;
                stack.push(v);
            }
        }
    }
    count == n
}

impl PlaneBuilder for Jellyfish {
    fn n_racks(&self) -> usize {
        self.n_tors
    }

    fn hosts_per_rack(&self) -> usize {
        self.hosts_per_tor
    }

    fn build_plane(&self, net: &mut Network, plane: PlaneId, profile: &LinkProfile) -> Vec<NodeId> {
        let tors: Vec<NodeId> = (0..self.n_tors)
            .map(|r| {
                net.add_switch(
                    NodeKind::Tor {
                        rack: RackId(r as u32),
                    },
                    plane,
                )
            })
            .collect();
        for (a, b) in self.generate_edges() {
            net.add_duplex_link(
                tors[a],
                tors[b],
                profile.link_speed_bps,
                profile.fabric_delay_ps,
                plane,
            );
        }
        tors
    }

    fn describe(&self) -> String {
        format!(
            "jellyfish(tors={}, d={}, h={}, seed={})",
            self.n_tors, self.degree, self.hosts_per_tor, self.seed
        )
    }
}

/// Incrementally expand a (possibly multi-plane) Jellyfish P-Net with one
/// new rack (section 6.1: "the incremental expansion support of
/// expander-based networks means operators can more easily scale up their
/// network").
///
/// The classic Jellyfish expansion, applied per plane: create the rack's
/// hosts once and, in *every* plane, a new ToR; then for each pair of the
/// new ToR's ports, pick a random existing fabric cable of that plane,
/// unplug it, and connect both freed ends to the new ToR. Unplugged cables
/// are modelled as failed links (the arena keeps them for id stability);
/// new cables are appended.
///
/// Returns the new rack id. `degree` must be even (ports are spliced in
/// pairs) and each plane must contain `degree/2` vertex-disjoint cables.
pub fn expand_rack(
    net: &mut crate::graph::Network,
    degree: usize,
    hosts: usize,
    profile: &crate::profile::LinkProfile,
    seed: u64,
) -> crate::ids::RackId {
    use crate::failures;
    use crate::graph::NodeKind;
    use rand::seq::SliceRandom;

    assert!(
        degree >= 2 && degree.is_multiple_of(2),
        "degree must be even, >= 2"
    );
    let rack = crate::ids::RackId(net.n_racks() as u32);
    let host_nodes: Vec<crate::ids::NodeId> = (0..hosts).map(|_| net.add_host(rack)).collect();

    for plane in net.planes().collect::<Vec<_>>() {
        let tor = net.add_switch(NodeKind::Tor { rack }, plane);
        for &h in &host_nodes {
            net.add_duplex_link(h, tor, profile.link_speed_bps, profile.host_delay_ps, plane);
        }

        // Candidate cables: up fabric cables of this plane, not touching tor.
        let mut cables = failures::fabric_cables(net, Some(plane));
        cables.retain(|&c| {
            let l = net.link(c);
            l.up && l.src != tor && l.dst != tor
        });
        let need = degree / 2;
        assert!(
            cables.len() >= need,
            "plane {plane} has only {} cables; need {need}",
            cables.len()
        );
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ (plane.0 as u64) << 32);
        cables.shuffle(&mut rng);
        // Disjoint cables so the new ToR gets `degree` distinct neighbors.
        let mut used: BTreeSet<crate::ids::NodeId> = BTreeSet::new();
        let mut picked = Vec::with_capacity(need);
        for c in cables {
            let l = *net.link(c);
            if used.contains(&l.src) || used.contains(&l.dst) {
                continue;
            }
            used.insert(l.src);
            used.insert(l.dst);
            picked.push(c);
            if picked.len() == need {
                break;
            }
        }
        assert!(
            picked.len() == need,
            "could not find {need} disjoint cables to splice in {plane}"
        );
        for c in picked {
            let l = *net.link(c);
            failures::fail_cable(net, c); // unplug
            net.add_duplex_link(
                l.src,
                tor,
                profile.link_speed_bps,
                profile.fabric_delay_ps,
                plane,
            );
            net.add_duplex_link(
                l.dst,
                tor,
                profile.link_speed_bps,
                profile.fabric_delay_ps,
                plane,
            );
        }
    }
    rack
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::assemble_homogeneous;

    #[test]
    fn regular_and_connected() {
        let jf = Jellyfish::new(20, 4, 2, 7);
        let edges = jf.generate_edges();
        assert_eq!(edges.len(), 20 * 4 / 2);
        let mut deg = vec![0usize; 20];
        for &(a, b) in &edges {
            assert_ne!(a, b, "self loop");
            deg[a] += 1;
            deg[b] += 1;
        }
        assert!(deg.iter().all(|&d| d == 4), "not 4-regular: {deg:?}");
        assert!(is_connected(20, &edges));
    }

    #[test]
    fn no_duplicate_edges() {
        let jf = Jellyfish::new(30, 5, 1, 42);
        let edges = jf.generate_edges();
        let set: BTreeSet<_> = edges.iter().collect();
        assert_eq!(set.len(), edges.len());
    }

    #[test]
    fn deterministic_in_seed() {
        let a = Jellyfish::new(24, 4, 1, 5).generate_edges();
        let b = Jellyfish::new(24, 4, 1, 5).generate_edges();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = Jellyfish::new(24, 4, 1, 5).generate_edges();
        let b = Jellyfish::new(24, 4, 1, 6).generate_edges();
        assert_ne!(a, b);
    }

    #[test]
    fn builds_valid_network() {
        let jf = Jellyfish::new(12, 3, 2, 99);
        let net = assemble_homogeneous(&jf, 1, &LinkProfile::paper_default());
        assert_eq!(net.n_hosts(), 24);
        assert_eq!(net.switches_in_plane(PlaneId(0)), 12);
        assert_eq!(net.fabric_cables_in_plane(PlaneId(0)), 12 * 3 / 2);
        net.validate().unwrap();
        assert!(net.plane_connects_all_hosts(PlaneId(0)));
    }

    #[test]
    fn paper_686_shape() {
        let jf = Jellyfish::paper_686(1);
        assert_eq!(jf.n_hosts(), 686);
        assert_eq!(jf.n_tors, 98);
    }

    #[test]
    fn paper_1024_shape() {
        let jf = Jellyfish::paper_1024(1);
        assert_eq!(jf.n_hosts(), 1024);
    }

    #[test]
    #[should_panic(expected = "even")]
    fn odd_stub_count_rejected() {
        Jellyfish::new(5, 3, 1, 0);
    }

    #[test]
    fn incremental_expansion_keeps_connectivity_and_degree() {
        use crate::ids::{HostId, PlaneId};
        let profile = LinkProfile::paper_default();
        let mut net = assemble_homogeneous(&Jellyfish::new(12, 4, 2, 3), 2, &profile);
        let before_hosts = net.n_hosts();
        let rack = expand_rack(&mut net, 4, 2, &profile, 99);
        assert_eq!(net.n_hosts(), before_hosts + 2);
        assert_eq!(net.n_racks(), 13);
        net.validate().unwrap();
        for p in net.planes() {
            assert!(net.plane_connects_all_hosts(p), "plane {p} broke");
            // New ToR has `degree` live fabric neighbors + 2 host links.
            let tor = net.tor_of_rack(rack, p).unwrap();
            let live_fabric = net
                .out_links_in_plane(tor, p)
                .filter(|&l| net.node(net.link(l).dst).kind.is_switch())
                .count();
            assert_eq!(live_fabric, 4);
        }
        // New hosts have one uplink per plane.
        let new_host = HostId((before_hosts) as u32);
        assert!(net.host_uplink(new_host, PlaneId(0)).is_some());
        assert!(net.host_uplink(new_host, PlaneId(1)).is_some());
        // Existing ToRs keep their degree: splice removes one cable per two
        // new ports, so every touched ToR lost one neighbor and gained the
        // new ToR.
        for r in 0..12u32 {
            for p in net.planes() {
                let tor = net.tor_of_rack(crate::ids::RackId(r), p).unwrap();
                let live = net
                    .out_links_in_plane(tor, p)
                    .filter(|&l| net.node(net.link(l).dst).kind.is_switch())
                    .count();
                assert_eq!(live, 4, "rack {r} degree changed in {p}");
            }
        }
    }

    #[test]
    fn repeated_expansion_grows_the_fabric() {
        let profile = LinkProfile::paper_default();
        let mut net = assemble_homogeneous(&Jellyfish::new(10, 4, 1, 1), 1, &profile);
        for i in 0..5 {
            expand_rack(&mut net, 4, 1, &profile, 100 + i);
        }
        assert_eq!(net.n_racks(), 15);
        assert_eq!(net.n_hosts(), 15);
        assert!(net.plane_connects_all_hosts(crate::ids::PlaneId(0)));
        net.validate().unwrap();
    }

    #[test]
    fn paper_scale_generation_is_regular() {
        // The real experiment scale must come out exactly d-regular too.
        let jf = Jellyfish::paper_686(3);
        let edges = jf.generate_edges();
        let mut deg = vec![0usize; jf.n_tors];
        for &(a, b) in &edges {
            deg[a] += 1;
            deg[b] += 1;
        }
        assert!(deg.iter().all(|&d| d == jf.degree));
    }
}
