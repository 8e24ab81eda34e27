//! Experiment-level throughput drivers: the quantities plotted in Figures
//! 6, 7, and 8 of the paper.
//!
//! Three regimes:
//!
//! * [`ecmp_throughput`] — per-flow single-path routing by hash (plane by
//!   hash, the next usable one where a host's uplink is dead, then one
//!   equal-cost path by hash), rates from exact max-min waterfilling. This
//!   is the "naive ECMP" of section 4.
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
use pnet_routing::{hash_plane, subflow_width, Parallelism, RouteAlgo, Router};
use pnet_topology::Network;

/// Total throughput of hash-based single-path ECMP under max-min fairness:
/// commodity `i` takes [`Router::hashed_route`] of flow `i` from its
/// [`hash_plane`]. A commodity that no plane connects ships nothing.
pub fn ecmp_throughput(net: &Network, commodities: &[Commodity]) -> f64 {
    let router = Router::new(net, RouteAlgo::Ecmp);
    let par = Parallelism::default();
    let routes = mcf::commodity_routes(net, &router, commodities, par, |_, flow| {
        router.hashed_route(flow, hash_plane(net.n_planes(), flow.hash))
    });
    let flows: Vec<Vec<usize>> = (routes.iter().flatten())
        .map(|route| route.iter().map(|l| l.index()).collect())
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
    let wide = subflow_width(k);
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
    use pnet_topology::{assemble_homogeneous, FatTree, LinkId, LinkProfile};
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

    /// Host 0's plane-0 uplink is down on a 2-plane fat tree: both route
    /// builders mask the plane (section 3.4) instead of losing the flows
    /// that hash or rank onto it.
    #[test]
    fn a_dead_host_uplink_is_masked_by_ecmp_and_ksp() {
        use pnet_topology::{failures, HostId, PlaneId};
        let base = LinkProfile::paper_default();
        let mut net = assemble_homogeneous(&FatTree::three_tier(4), 2, &base);
        let up = net.host_uplink(HostId(0), PlaneId(0)).unwrap();
        failures::fail_cable(&mut net, up);
        let c = commodity::all_to_all(16);

        let total = ecmp_throughput(&net, &c);
        assert!(total.is_finite() && total > 0.0, "ECMP total {total}");
        assert!(ksp_multipath_throughput(&net, &c, 1, 0.1).is_ok());

        let dead = |route: &[LinkId]| route.contains(&up) || route.contains(&up.reverse());
        let router = Router::new(&net, RouteAlgo::Ecmp);
        let n_planes = net.n_planes();
        let ecmp = mcf::commodity_routes(&net, &router, &c, Parallelism::Serial, |_, flow| {
            router.hashed_route(flow, hash_plane(n_planes, flow.hash))
        });
        assert!(ecmp.iter().all(|r| r.as_ref().is_some_and(|r| !dead(r))));
        let wide = subflow_width(1);
        let router = Router::new(&net, RouteAlgo::Ksp { k: wide });
        let PathMode::Explicit(ksp) = mcf::ksp_mode(&net, &router, &c, 1) else {
            panic!("ksp_mode builds explicit routes");
        };
        for i in 0..c.len() {
            assert!(ksp.routes(i).next().is_some(), "commodity {i} has no route");
            assert!(ksp.routes(i).all(|r| !dead(r)), "commodity {i}");
        }
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
