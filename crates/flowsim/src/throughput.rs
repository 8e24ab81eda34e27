//! Experiment-level throughput drivers: the quantities plotted in Figures
//! 6, 7, and 8 of the paper.
//!
//! Three regimes:
//!
//! * [`ecmp_throughput`] — per-flow single-path routing by hash (plane by
//!   hash, then one equal-cost path by hash), rates from exact max-min
//!   waterfilling. This is the "naive ECMP" of section 4.
//! * [`ksp_multipath_throughput`] — each flow may split over the K globally
//!   shortest paths across all planes (the MPTCP + KSP configuration),
//!   solved as max concurrent flow.
//! * [`ideal_core_throughput`] — no path constraint and uncapacitated host
//!   links (Figure 7), max concurrent flow with a free per-plane
//!   shortest-path oracle.
//!
//! All functions return *total* delivered rate in bits per second; the
//! experiment binaries normalize against the serial low-bandwidth network as
//! in the paper ("throughput normalized against serial low-bandwidth").

use crate::commodity::Commodity;
use crate::maxmin;
use crate::mcf::{self, McfError, McfOptions, McfSolution, PathMode};
use pnet_routing::{Parallelism, RouteAlgo, Router};
use pnet_topology::Network;

/// Total throughput of hash-based single-path ECMP under max-min fairness.
pub fn ecmp_throughput(net: &Network, commodities: &[Commodity]) -> f64 {
    let router = Router::new(net, RouteAlgo::Ecmp { cap: 64 });
    let mode = mcf::ecmp_mode_with(net, &router, commodities, Parallelism::default());
    let PathMode::Explicit(routes) = &mode else {
        unreachable!("invariant: ecmp_mode_with builds PathMode::Explicit, one path per commodity")
    };
    let flows: Vec<Vec<usize>> = (0..routes.len())
        .map(|i| {
            let mut one = routes.routes(i);
            let route = one.next().expect("invariant: ECMP routes every commodity");
            route.iter().map(|l| l.index()).collect()
        })
        .collect();
    maxmin::total_rate(&maxmin::maxmin_rates(&mcf::link_capacities(net), &flows))
}

/// Total throughput when every flow may split across its K best paths
/// (merged across planes), via max concurrent flow. Returns
/// `(total_rate, lambda)`.
pub fn ksp_multipath_throughput(
    net: &Network,
    commodities: &[Commodity],
    k: usize,
    eps: f64,
) -> Result<(f64, f64), McfError> {
    // The router computes a wider per-plane candidate set than K so that
    // per-flow hash rotation has equal-cost alternatives to spread over
    // (see `mcf::ksp_mode`).
    let wide = (2 * k).max(8);
    let router = Router::new(net, RouteAlgo::Ksp { k: wide });
    let sol = try_ksp_solution(net, &router, commodities, k, eps, McfOptions::default())?;
    Ok((sol.total_rate(), sol.lambda))
}

/// The K-subflow solution against a caller-provided router snapshot: the
/// router's tables must already reflect `net`, and `k` must not exceed its
/// per-plane width.
pub fn try_ksp_solution(
    net: &Network,
    router: &Router,
    commodities: &[Commodity],
    k: usize,
    eps: f64,
    opts: McfOptions,
) -> Result<McfSolution, McfError> {
    let mode = mcf::ksp_mode(net, router, commodities, k);
    mcf::try_solve(net, commodities, &mode, eps, opts)
}

/// Ideal *core* throughput with no path constraint (each plane freely
/// routed) and host attachment links uncapacitated, measuring only the
/// switch fabric — the paper's rack-level "total capacity of the network
/// core" (Figure 7). Returns `(total_rate, lambda)`.
pub fn ideal_core_throughput(
    net: &Network,
    commodities: &[Commodity],
    eps: f64,
) -> Result<(f64, f64), McfError> {
    let opts = McfOptions {
        host_links_free: true,
        ..Default::default()
    };
    let sol = mcf::try_solve(net, commodities, &PathMode::AnyPath, eps, opts)?;
    Ok((sol.total_rate(), sol.lambda))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commodity;
    use pnet_topology::{assemble_homogeneous, FatTree, LinkProfile};
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    fn cross_pod_permutation(n: usize, seed: u64) -> Vec<Commodity> {
        // Random derangement-ish permutation.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut perm: Vec<usize> = (0..n).collect();
        perm.shuffle(&mut rng);
        commodity::permutation(&perm)
    }

    #[test]
    fn ecmp_permutation_does_not_scale_with_planes() {
        // The headline negative result (Figure 6b): adding planes barely
        // helps permutation traffic under single-path ECMP.
        let base = LinkProfile::paper_default();
        let serial = assemble_homogeneous(&FatTree::three_tier(4), 1, &base);
        let par4 = assemble_homogeneous(&FatTree::three_tier(4), 4, &base);
        let c = cross_pod_permutation(16, 9);
        let t1 = ecmp_throughput(&serial, &c);
        let t4 = ecmp_throughput(&par4, &c);
        // Some improvement from collision avoidance is possible, but far
        // below the 4x capacity increase.
        assert!(
            t4 < 2.0 * t1,
            "ECMP should not extract parallel capacity: {t1} vs {t4}"
        );
        assert!(t4 >= t1 * 0.8, "more planes should not hurt much");
    }

    #[test]
    fn multipath_recovers_parallel_capacity() {
        // With enough subflows (K = 8 per the paper's N x 8 rule for N=2... 16),
        // a 2-plane P-Net reaches ~2x the serial throughput on permutation.
        let base = LinkProfile::paper_default();
        let serial = assemble_homogeneous(&FatTree::three_tier(4), 1, &base);
        let par2 = assemble_homogeneous(&FatTree::three_tier(4), 2, &base);
        let c = cross_pod_permutation(16, 5);
        let (t1, _) = ksp_multipath_throughput(&serial, &c, 8, 0.05).unwrap();
        let (t2, _) = ksp_multipath_throughput(&par2, &c, 16, 0.05).unwrap();
        let ratio = t2 / t1;
        assert!(
            ratio > 1.7,
            "2-plane multipath should nearly double throughput, got {ratio}"
        );
    }

    #[test]
    fn ideal_at_least_matches_constrained() {
        let base = LinkProfile::paper_default();
        let net = assemble_homogeneous(&FatTree::three_tier(4), 2, &base);
        let c = cross_pod_permutation(16, 2);
        let opts = McfOptions::default();
        let ideal = mcf::try_solve(&net, &c, &PathMode::AnyPath, 0.05, opts).unwrap();
        let (ksp1, _) = ksp_multipath_throughput(&net, &c, 1, 0.05).unwrap();
        let ideal = ideal.total_rate();
        assert!(
            ideal >= ksp1 * 0.95,
            "ideal {ideal} should dominate single-path {ksp1}"
        );
    }
}
