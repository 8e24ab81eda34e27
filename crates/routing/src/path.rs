//! Path types shared by all routing algorithms.
//!
//! Routing operates at *rack level*: a [`Path`] is a sequence of fabric links
//! from the source rack's ToR to the destination rack's ToR, entirely within
//! one plane (the P-Net forwarding constraint). Host-level source routes for
//! the packet simulator are derived with [`host_route`], which prepends the
//! source host's uplink and appends the destination host's downlink.

use pnet_topology::{HostId, LinkId, Network, PlaneId};

/// A rack-to-rack path inside one plane.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Path {
    /// The plane the path lives in.
    pub plane: PlaneId,
    /// Fabric links from the source ToR to the destination ToR. Empty when
    /// source and destination racks coincide.
    pub links: Vec<LinkId>,
}

impl Path {
    /// An intra-rack path (source and destination behind the same ToR).
    pub fn intra_rack(plane: PlaneId) -> Self {
        Path {
            plane,
            links: Vec::new(),
        }
    }

    /// Number of switch hops a packet traverses end to end (ToRs included).
    /// An intra-rack path crosses one switch; each fabric link adds one.
    #[inline]
    pub fn switch_hops(&self) -> usize {
        self.links.len() + 1
    }

    /// Sum of propagation delays along the fabric links, picoseconds.
    pub fn fabric_delay_ps(&self, net: &Network) -> u64 {
        self.links.iter().map(|&l| net.link(l).delay_ps).sum()
    }

    /// Check the path is well-formed in `net`: consecutive links share
    /// endpoints, all links are up and in the declared plane, and no switch
    /// repeats (simple path).
    pub fn validate(&self, net: &Network) -> Result<(), String> {
        let mut seen = std::collections::BTreeSet::new();
        for (i, &l) in self.links.iter().enumerate() {
            let link = net.link(l);
            if link.plane != self.plane {
                return Err(format!("link {l} not in plane {}", self.plane));
            }
            if !link.up {
                return Err(format!("link {l} is down"));
            }
            if i > 0 {
                let prev = net.link(self.links[i - 1]);
                if prev.dst != link.src {
                    return Err(format!("links {} -> {l} do not chain", self.links[i - 1]));
                }
            }
            if !seen.insert(link.src) {
                return Err(format!("switch {} repeats", link.src));
            }
        }
        if let Some(&last) = self.links.last() {
            let dst = net.link(last).dst;
            if seen.contains(&dst) {
                return Err(format!("switch {dst} repeats at path end"));
            }
        }
        Ok(())
    }
}

/// Build the full host-to-host source route for the packet simulator:
/// `src` uplink into the plane, the rack path, then `dst`'s downlink.
///
/// Returns `None` if either host lacks an up link into the path's plane.
pub fn host_route(net: &Network, src: HostId, dst: HostId, path: &Path) -> Option<Vec<LinkId>> {
    let up = net.host_uplink(src, path.plane)?;
    let down = net.host_uplink(dst, path.plane)?.reverse();
    if !net.link(down).up {
        return None;
    }
    let mut route = Vec::with_capacity(path.links.len() + 2);
    route.push(up);
    route.extend_from_slice(&path.links);
    route.push(down);
    // The rack path must start at src's ToR and end at dst's ToR.
    debug_assert_eq!(
        net.link(route[0]).dst,
        net.link(route[1]).src,
        "rack path does not start at the source ToR"
    );
    Some(route)
}

/// Reverse a host route (for ACKs): reverse link order and flip each link.
pub fn reverse_route(route: &[LinkId]) -> Vec<LinkId> {
    route.iter().rev().map(|l| l.reverse()).collect()
}

/// Positions of a shortest-first path list in *tie-rotated* order: each
/// equal-length tier rotated left by `hash` modulo its size, so that
/// different flows pick *different* (but still shortest-first) path subsets.
/// Without this, deterministic KSP ordering funnels every flow between the
/// same racks through the same lexicographically-first paths — the opposite
/// of what a hashing path manager (ECMP, MPTCP subflow setup) does.
pub fn tie_rotated(paths: &[Path], hash: u64) -> impl Iterator<Item = usize> + '_ {
    // The tier `start..end` holding the position being emitted.
    let (mut start, mut end) = (0, 0);
    (0..paths.len()).map(move |i| {
        if i == end {
            let len = paths[i].links.len();
            let tier = paths[i..].iter().take_while(|p| p.links.len() == len);
            (start, end) = (i, i + tier.count());
        }
        let n = end - start;
        start + (i - start + (hash % n as u64) as usize) % n
    })
}

/// Reorder a shortest-first path list into [`tie_rotated`] order.
pub fn rotate_ties(paths: &mut [Path], hash: u64) {
    let order: Vec<usize> = tie_rotated(paths, hash).collect();
    let hollow = |p: &mut Path| std::mem::replace(p, Path::intra_rack(p.plane));
    let mut old: Vec<Path> = paths.iter_mut().map(hollow).collect();
    for (slot, from) in paths.iter_mut().zip(order) {
        *slot = hollow(&mut old[from]);
    }
}

/// Order paths the way every selector in this workspace expects: shortest
/// first, ties broken by plane then by link ids (deterministic).
pub fn sort_paths(paths: &mut [Path]) {
    paths.sort_by(|a, b| {
        a.links
            .len()
            .cmp(&b.links.len())
            .then(a.plane.cmp(&b.plane))
            .then_with(|| a.links.cmp(&b.links))
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnet_topology::{assemble_homogeneous, FatTree, HostId, LinkProfile, PlaneId};

    fn net() -> Network {
        assemble_homogeneous(&FatTree::three_tier(4), 2, &LinkProfile::paper_default())
    }

    #[test]
    fn intra_rack_path_hops() {
        let p = Path::intra_rack(PlaneId(0));
        assert_eq!(p.switch_hops(), 1);
        assert!(p.links.is_empty());
    }

    #[test]
    fn host_route_shape_intra_rack() {
        let n = net();
        // Hosts 0 and 1 share rack 0 in a k=4 fat tree.
        let p = Path::intra_rack(PlaneId(0));
        let r = host_route(&n, HostId(0), HostId(1), &p).unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(n.link(r[0]).src, n.host_node(HostId(0)));
        assert_eq!(n.link(r[1]).dst, n.host_node(HostId(1)));
    }

    #[test]
    fn reverse_route_mirrors() {
        let n = net();
        let p = Path::intra_rack(PlaneId(1));
        let r = host_route(&n, HostId(0), HostId(1), &p).unwrap();
        let rev = reverse_route(&r);
        assert_eq!(rev.len(), r.len());
        assert_eq!(n.link(rev[0]).src, n.host_node(HostId(1)));
        assert_eq!(n.link(*rev.last().unwrap()).dst, n.host_node(HostId(0)));
    }

    #[test]
    fn sort_orders_by_len_then_plane() {
        let mut paths = vec![
            Path {
                plane: PlaneId(1),
                links: vec![LinkId(0), LinkId(2)],
            },
            Path {
                plane: PlaneId(0),
                links: vec![LinkId(4), LinkId(6)],
            },
            Path {
                plane: PlaneId(1),
                links: vec![LinkId(8)],
            },
        ];
        sort_paths(&mut paths);
        assert_eq!(paths[0].links.len(), 1);
        assert_eq!(paths[1].plane, PlaneId(0));
        assert_eq!(paths[2].plane, PlaneId(1));
    }

    #[test]
    fn validate_rejects_cross_plane() {
        let n = net();
        // Take a plane-1 uplink but declare plane 0.
        let up = n.host_uplink(HostId(0), PlaneId(1)).unwrap();
        let p = Path {
            plane: PlaneId(0),
            links: vec![up],
        };
        assert!(p.validate(&n).is_err());
    }
}
