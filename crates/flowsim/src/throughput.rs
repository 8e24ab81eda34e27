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
//! * [`ideal_throughput`] — no path constraint (Figure 7), max concurrent
//!   flow with a free per-plane shortest-path oracle.
//!
//! All functions return *total* delivered rate in bits per second; the
//! experiment binaries normalize against the serial low-bandwidth network as
//! in the paper ("throughput normalized against serial low-bandwidth").

use crate::commodity::Commodity;
use crate::maxmin;
use crate::mcf::{self, PathMode};
use pnet_routing::{RouteAlgo, Router};
use pnet_topology::Network;

/// Total throughput of hash-based single-path ECMP under max-min fairness.
pub fn ecmp_throughput(net: &Network, commodities: &[Commodity]) -> f64 {
    let router = Router::new(net, RouteAlgo::Ecmp { cap: 64 });
    ecmp_throughput_with(net, &router, commodities)
}

/// As [`ecmp_throughput`], but pinned to a caller-provided ECMP router —
/// the snapshot entry point: no router is built here, so concurrent
/// queries against the same topology generation share one path table.
pub fn ecmp_throughput_with(net: &Network, router: &Router, commodities: &[Commodity]) -> f64 {
    let mode = mcf::ecmp_mode(net, router, commodities);
    let PathMode::Explicit(paths) = mode else {
        unreachable!("invariant: ecmp_mode builds PathMode::Explicit, one path per commodity")
    };
    let routes: Vec<Vec<pnet_topology::LinkId>> =
        paths.into_iter().map(|mut p| p.swap_remove(0)).collect();
    let rates = mcf::single_path_maxmin(net, &routes);
    maxmin::total_rate(&rates)
}

/// Total throughput when every flow may split across its K best paths
/// (merged across planes), via max concurrent flow. Returns
/// `(total_rate, lambda)`.
pub fn ksp_multipath_throughput(
    net: &Network,
    commodities: &[Commodity],
    k: usize,
    eps: f64,
) -> (f64, f64) {
    // The router computes a wider per-plane candidate set than K so that
    // per-flow hash rotation has equal-cost alternatives to spread over
    // (see `mcf::ksp_mode`).
    let wide = (2 * k).max(8);
    let router = Router::new(net, RouteAlgo::Ksp { k: wide });
    let sol = ksp_solution_with(
        net,
        &router,
        commodities,
        k,
        eps,
        mcf::McfOptions::default(),
    );
    (sol.total_rate(), sol.lambda)
}

/// Full KSP-multipath solution against a caller-provided router snapshot.
/// The planner's generation entry point: the router's tables must already
/// reflect `net`, and `k` must not exceed the router's per-plane width.
pub fn ksp_solution_with(
    net: &Network,
    router: &Router,
    commodities: &[Commodity],
    k: usize,
    eps: f64,
    opts: mcf::McfOptions,
) -> mcf::McfSolution {
    let mode = mcf::ksp_mode(net, router, commodities, k);
    mcf::solve_with_options(net, commodities, &mode, eps, opts)
}

/// Fallible twin of [`ksp_solution_with`]: degenerate inputs (bad `eps`,
/// empty or unroutable commodities) come back as [`mcf::McfError`] instead
/// of panicking — what a serving layer wants.
pub fn try_ksp_solution(
    net: &Network,
    router: &Router,
    commodities: &[Commodity],
    k: usize,
    eps: f64,
    opts: mcf::McfOptions,
) -> Result<mcf::McfSolution, mcf::McfError> {
    let mode = mcf::ksp_mode(net, router, commodities, k);
    mcf::try_solve_with_options(net, commodities, &mode, eps, opts)
}

/// Ideal total throughput with no path constraint (each plane freely
/// routed). Returns `(total_rate, lambda)`.
pub fn ideal_throughput(net: &Network, commodities: &[Commodity], eps: f64) -> (f64, f64) {
    let sol = mcf::solve(net, commodities, &PathMode::AnyPath, eps);
    (sol.total_rate(), sol.lambda)
}

/// Fallible free-routing solve returning the full solution — the planner's
/// ideal-throughput entry point ([`ideal_throughput`] /
/// [`ideal_core_throughput`] with typed errors and the whole primal).
pub fn try_ideal_solution(
    net: &Network,
    commodities: &[Commodity],
    eps: f64,
    opts: mcf::McfOptions,
) -> Result<mcf::McfSolution, mcf::McfError> {
    mcf::try_solve_with_options(net, commodities, &PathMode::AnyPath, eps, opts)
}

/// Ideal *core* throughput: like [`ideal_throughput`] but with host
/// attachment links uncapacitated, measuring only the switch fabric — the
/// paper's rack-level "total capacity of the network core" (Figure 7).
pub fn ideal_core_throughput(net: &Network, commodities: &[Commodity], eps: f64) -> (f64, f64) {
    let sol = mcf::solve_with_options(
        net,
        commodities,
        &PathMode::AnyPath,
        eps,
        mcf::McfOptions {
            host_links_free: true,
            ..Default::default()
        },
    );
    (sol.total_rate(), sol.lambda)
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
        let (t1, _) = ksp_multipath_throughput(&serial, &c, 8, 0.05);
        let (t2, _) = ksp_multipath_throughput(&par2, &c, 16, 0.05);
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
        let (ideal, _) = ideal_throughput(&net, &c, 0.05);
        let (ksp1, _) = ksp_multipath_throughput(&net, &c, 1, 0.05);
        assert!(
            ideal >= ksp1 * 0.95,
            "ideal {ideal} should dominate single-path {ksp1}"
        );
    }
}
