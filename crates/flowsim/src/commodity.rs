//! Commodities: host-to-host demands for the flow-level solvers.
//!
//! Rack-level experiments (e.g. Figure 7's rack-level all-to-all) are
//! expressed with topologies that attach one host per rack, so a single
//! commodity type suffices.

use pnet_topology::HostId;

/// A demand between two hosts, in bits per second. The max-concurrent-flow
/// solver scales every commodity by a common factor λ; a commodity with
/// demand d receives rate λ·d.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Commodity {
    /// Source host.
    pub src: HostId,
    /// Destination host.
    pub dst: HostId,
    /// Demand in bits per second; must be positive.
    pub demand: f64,
}

impl Commodity {
    /// A unit-demand commodity (demands are relative; the solvers only care
    /// about ratios between commodities).
    pub fn unit(src: HostId, dst: HostId) -> Self {
        Commodity {
            src,
            dst,
            demand: 1.0,
        }
    }
}

/// All-to-all unit commodities among `n` hosts (n·(n−1) entries).
pub fn all_to_all(n: usize) -> Vec<Commodity> {
    let mut out = Vec::with_capacity(n * (n - 1));
    for a in 0..n {
        for b in 0..n {
            if a != b {
                out.push(Commodity::unit(HostId(a as u32), HostId(b as u32)));
            }
        }
    }
    out
}

/// Commodities for an explicit permutation: host i sends to `perm[i]`
/// (entries with `perm[i] == i` are skipped).
pub fn permutation(perm: &[usize]) -> Vec<Commodity> {
    perm.iter()
        .enumerate()
        .filter(|&(i, &j)| i != j)
        .map(|(i, &j)| Commodity::unit(HostId(i as u32), HostId(j as u32)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_to_all_counts() {
        let c = all_to_all(4);
        assert_eq!(c.len(), 12);
        assert!(c.iter().all(|c| c.src != c.dst));
    }

    #[test]
    fn permutation_skips_fixed_points() {
        let c = permutation(&[1, 0, 2, 3]);
        assert_eq!(c.len(), 2);
        assert_eq!(c[0].src, HostId(0));
        assert_eq!(c[0].dst, HostId(1));
    }
}
