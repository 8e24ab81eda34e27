//! Max concurrent flow via the Garg–Könemann / Fleischer multiplicative-
//! weights framework — the workspace's replacement for the paper's Gurobi LP.
//!
//! Given commodities (host-to-host demands) and either explicit candidate
//! path sets (the "routes computed by ECMP or KSP" constraint of section
//! 5.1.1) or free routing within each plane (the "ideal throughput under no
//! path constraint" of Figure 7), the solver maximizes the uniform scale
//! factor λ such that every commodity i can ship λ·dᵢ simultaneously without
//! exceeding any link capacity.
//!
//! The algorithm maintains a length ℓₑ per link, starting at δ/cₑ, routes
//! each commodity along its currently-shortest allowed path, and inflates
//! lengths multiplicatively — the classic (1−ε)-approximation. We finish
//! with a congestion rescale (divide all flow by the max link utilization),
//! which guarantees a *feasible* primal solution regardless of floating-
//! point noise; λ is then exact-feasible and ≥ (1−O(ε))·OPT.

use crate::commodity::Commodity;
use pnet_routing::Parallelism;
use pnet_topology::{HostId, LinkId, Network, PlaneId, RackId};

/// How commodities may be routed.
#[derive(Debug, Clone)]
pub enum PathMode {
    /// The allowed routes of every commodity, each a full host-to-host link
    /// sequence (see [`Candidates`]). A commodity may split across its
    /// routes.
    Explicit(Candidates),
    /// Any path within any single plane (host uplink + fabric + downlink).
    AnyPath,
}

/// Result of a max-concurrent-flow run.
#[derive(Debug, Clone)]
pub struct McfSolution {
    /// The achieved uniform scale factor: commodity `i` ships `lambda *
    /// demand_i` bits per second.
    pub lambda: f64,
    /// Phases executed by the multiplicative-weights loop.
    pub phases: usize,
    /// Feasible per-link flow (bits per second), after rescaling.
    pub link_flow: Vec<f64>,
    /// Feasible per-commodity rate (bits per second), after rescaling.
    pub rates: Vec<f64>,
    /// The final multiplicative-weights length vector (one entry per
    /// directed link). This is the solver's dual profile: feeding it to
    /// [`try_solve_warm`] after a link delta re-solves from this
    /// point instead of from the uniform δ/cₑ start.
    pub length: Vec<f64>,
    /// Shortest-path trees (one per source and stale plane) the AnyPath
    /// phase loop built by Dijkstra. The three counters are exact, identical
    /// under `Serial` and `Rayon`, and 0 in `Explicit` mode.
    pub trees_built: u64,
    /// Trees taken from a same-shape plane holding bit-equal lengths.
    pub trees_shared: u64,
    /// Trees kept because none of their chains crossed a grown link.
    pub trees_kept: u64,
}

impl McfSolution {
    /// Total shipped rate over all commodities (bits per second).
    pub fn total_rate(&self) -> f64 {
        self.rates.iter().sum()
    }
}

/// Capacity of every directed link, indexed by `LinkId`. Down links get
/// capacity 0 (they cannot carry flow).
pub fn link_capacities(net: &Network) -> Vec<f64> {
    net.links()
        .map(|(_, l)| if l.up { l.capacity_bps as f64 } else { 0.0 })
        .collect()
}

/// Why a solve was refused or did not converge: what [`try_solve`] and
/// [`try_solve_warm`] return instead of panicking.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum McfError {
    /// `eps` outside the open interval (0, 0.5). The Fleischer start value
    /// `δ = (m/(1−ε))^(−1/ε)` degenerates outside it: ε = 0 divides by zero
    /// in the exponent, ε ≥ 1 sends the exponent through −1 where δ stops
    /// shrinking and the (1−ε) factor flips sign, and a NaN ε poisons every
    /// downstream comparison. Also raised for non-finite ε.
    InvalidEps { eps: f64 },
    /// The commodity set is empty — λ would be unconstrained.
    NoCommodities,
    /// Commodity `index` has a non-finite or non-positive demand.
    InvalidDemand { index: usize },
    /// `Explicit` mode: the path table length differs from the commodity
    /// count.
    PathTableMismatch { paths: usize, commodities: usize },
    /// Commodity `index` has no usable route: an empty `Explicit` path set,
    /// or (AnyPath) no plane connects its endpoints under the current link
    /// state.
    UnroutableCommodity { index: usize },
    /// No commodity could be seeded with positive congestion — every route
    /// is empty or uncapacitated, so there is nothing to solve.
    NoFeasibleFlow,
    /// Warm start: the previous solution's length profile belongs to a
    /// different network arena (link count mismatch).
    WarmArenaMismatch { expected: usize, got: usize },
    /// Warm start: the previous solution's λ is not positive.
    NonPositiveWarmLambda,
    /// The phase loop hit its hard cap with the length mass still below 1:
    /// a λ scored now would come from a truncated run.
    PhaseLimit { phases: usize },
}

impl std::fmt::Display for McfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            McfError::InvalidEps { eps } => write!(
                f,
                "eps out of range: {eps} not in (0, 0.5); \
                 delta = (m/(1-eps))^(-1/eps) would be NaN or garbage"
            ),
            McfError::NoCommodities => write!(f, "no commodities"),
            McfError::InvalidDemand { index } => {
                write!(
                    f,
                    "commodity {index} has a non-finite or non-positive demand"
                )
            }
            McfError::PathTableMismatch { paths, commodities } => write!(
                f,
                "explicit path table has {paths} entries for {commodities} commodities"
            ),
            McfError::UnroutableCommodity { index } => {
                write!(f, "commodity {index} has no allowed path")
            }
            McfError::NoFeasibleFlow => {
                write!(f, "all commodities have empty routes; nothing to solve")
            }
            McfError::WarmArenaMismatch { expected, got } => write!(
                f,
                "warm start from a different network arena ({got} lengths for {expected} links)"
            ),
            McfError::NonPositiveWarmLambda => {
                write!(f, "warm start needs a positive previous λ")
            }
            McfError::PhaseLimit { phases } => {
                write!(f, "no convergence within the {phases}-phase limit")
            }
        }
    }
}

impl std::error::Error for McfError {}

/// The checks a solve makes on its arguments before it builds anything.
fn validate_inputs(commodities: &[Commodity], mode: &PathMode, eps: f64) -> Result<(), McfError> {
    if !(eps > 0.0 && eps < 0.5) {
        return Err(McfError::InvalidEps { eps });
    }
    if commodities.is_empty() {
        return Err(McfError::NoCommodities);
    }
    for (i, c) in commodities.iter().enumerate() {
        if !(c.demand > 0.0 && c.demand.is_finite()) {
            return Err(McfError::InvalidDemand { index: i });
        }
    }
    if let PathMode::Explicit(routes) = mode {
        if routes.len() != commodities.len() {
            return Err(McfError::PathTableMismatch {
                paths: routes.len(),
                commodities: commodities.len(),
            });
        }
        if let Some(index) = (0..routes.len()).find(|&i| routes.routes(i).len() == 0) {
            return Err(McfError::UnroutableCommodity { index });
        }
    }
    Ok(())
}

/// Solver options.
#[derive(Debug, Clone, Copy, Default)]
pub struct McfOptions {
    /// Treat host attachment links as uncapacitated. This turns commodities
    /// into *rack-level* demands constrained only by the switch fabric —
    /// the paper's "ideal throughput under no path constraint, representing
    /// the total capacity of the network core" (Figure 7).
    pub host_links_free: bool,
    /// Execution strategy for the batched per-source shortest-path-tree
    /// computations (AnyPath mode). The per-source Dijkstras of one phase
    /// are independent given the phase-start length vector, so they fan out
    /// across threads; length updates stay sequential, so `Serial` and
    /// `Rayon` produce bit-identical solutions.
    pub parallelism: Parallelism,
}

/// [`try_solve`] with default [`McfOptions`], panicking on its errors. Kept
/// only because the standalone benchmark calls it.
pub fn solve(net: &Network, commodities: &[Commodity], mode: &PathMode, eps: f64) -> McfSolution {
    expect_solved(try_solve(net, commodities, mode, eps, Default::default()))
}

/// [`try_solve`], panicking on its errors. Kept only because the standalone
/// benchmark calls it.
pub fn solve_with_options(
    net: &Network,
    commodities: &[Commodity],
    mode: &PathMode,
    eps: f64,
    opts: McfOptions,
) -> McfSolution {
    expect_solved(try_solve(net, commodities, mode, eps, opts))
}

/// [`try_solve_warm`], panicking on its errors. Kept only because the
/// standalone benchmark calls it.
pub fn solve_warm(
    net: &Network,
    commodities: &[Commodity],
    mode: &PathMode,
    eps: f64,
    warm: &McfSolution,
) -> McfSolution {
    expect_solved(try_solve_warm(net, commodities, mode, eps, warm))
}

/// The panicking entries' one unwrap: the error's message is the panic's.
fn expect_solved(checked: Result<McfSolution, McfError>) -> McfSolution {
    if let Err(e) = &checked {
        assert!(checked.is_ok(), "{e}");
    }
    checked.expect("invariant: asserted Ok above")
}

/// Solve max concurrent flow from the uniform start. `eps` trades accuracy
/// for speed (the result is ≥ (1−O(eps))·OPT; 0.05–0.15 are sensible).
pub fn try_solve(
    net: &Network,
    commodities: &[Commodity],
    mode: &PathMode,
    eps: f64,
    opts: McfOptions,
) -> Result<McfSolution, McfError> {
    solve_from(net, commodities, mode, eps, opts, None)
}

/// Relative λ tolerance the warm-started solver is held to against a cold
/// re-solve of the same instance: tests and the reconvergence benchmark
/// assert `|λ_warm − λ_cold| ≤ WARM_LAMBDA_TOLERANCE · λ_cold`.
///
/// Why 0.10: GK at ε = 0.1 itself only guarantees (1−ε)³ ≈ 0.73·OPT; both
/// solvers land far closer in practice, and this bound is about their *gap*.
/// Paper-scale reconvergence scenarios (single cable / ≤4% bursts on 64–98
/// ToR fabrics) stay within ~3%. The pinned value is sized to the harshest
/// property-test envelope instead — 15% concurrent cable loss on a
/// degree-3, 12-rack fabric, where a single event can halve a rack's plane
/// capacity — whose exhaustively enumerated worst case is 8.3%. That tail
/// is not phase-limited: sweeping [`WARM_PHASE_BUDGET`] over 8–16 moves the
/// worst case non-monotonically within 6.9–8.9%, and doubling the budget
/// outright (measured with a forced 2× phase extension) bought back only
/// ~1.5 points while halving the reconvergence speedup. The tolerance is
/// the documented trade.
pub const WARM_LAMBDA_TOLERANCE: f64 = 0.10;

/// Phase-budget compression of a warm start. The warm solver's δ is the cold
/// δ raised to `1 / WARM_PHASE_BUDGET`, i.e. the length mass starts that
/// many multiplicative decades closer to the `Σ cₑ·ℓₑ ≥ 1` stopping rule, so
/// the phase count shrinks by roughly this factor. The theoretical
/// (1−O(ε)) guarantee formally degrades with the shorter homotopy; what
/// makes the shortcut safe is that the start point is not uniform but the
/// previous solve's near-optimal dual profile, and the empirical
/// [`WARM_LAMBDA_TOLERANCE`] cross-check holds the result to the cold answer.
pub const WARM_PHASE_BUDGET: f64 = 16.0;

/// Re-solve max concurrent flow after a link delta, warm-started from
/// `warm` (a solution for the *same network arena* — same link ids — under
/// the previous link state; the current state is read from `net`).
///
/// Instead of the uniform δ/cₑ start, lengths begin at the previous dual
/// profile, rescaled so the carried mass is `δ_w` per link on average:
///
/// * links usable then and now carry their previous length (rescaled) — the
///   congestion structure the last solve learned survives the delta;
/// * links restored by the delta (unusable then, usable now) start fresh at
///   `δ_w/cₑ`, exactly like a cold start treats every link;
/// * links failed by the delta are pinned to ∞ (unroutable), and
///   uncapacitated links to 0, as in a cold start.
///
/// `δ_w` is compressed by [`WARM_PHASE_BUDGET`], so the phase loop runs ~16×
/// shorter than cold. Demands are pre-scaled by the same shortest-path
/// seeding pass the cold solver uses, run against the current topology.
/// Feasibility is unconditional (the final congestion rescale), and
/// near-optimality is asserted against a cold re-solve by the churn tests
/// and the reconvergence benchmark.
pub fn try_solve_warm(
    net: &Network,
    commodities: &[Commodity],
    mode: &PathMode,
    eps: f64,
    warm: &McfSolution,
) -> Result<McfSolution, McfError> {
    let opts = McfOptions::default();
    solve_from(net, commodities, mode, eps, opts, Some(warm))
}

/// The one body of every solve. A cold solve (`warm` is `None`) starts
/// every usable link at δ/cₑ; a warm one starts from [`warm_start`]'s
/// profile and completes its last phase. Everything else is shared, and the
/// errors come in this order: the inputs ([`validate_inputs`]),
/// [`McfError::NonPositiveWarmLambda`], [`McfError::WarmArenaMismatch`],
/// [`McfError::UnroutableCommodity`], [`McfError::NoFeasibleFlow`].
fn solve_from(
    net: &Network,
    commodities: &[Commodity],
    mode: &PathMode,
    eps: f64,
    opts: McfOptions,
    warm: Option<&McfSolution>,
) -> Result<McfSolution, McfError> {
    validate_inputs(commodities, mode, eps)?;
    if warm.is_some_and(|w| w.lambda.is_nan() || w.lambda <= 0.0) {
        return Err(McfError::NonPositiveWarmLambda);
    }
    let mut caps = link_capacities(net);
    if opts.host_links_free {
        for (id, l) in net.links() {
            if l.up && (net.node(l.src).kind.is_host() || net.node(l.dst).kind.is_host()) {
                caps[id.index()] = f64::INFINITY;
            }
        }
    }
    if let Some(w) = warm.filter(|w| w.length.len() != caps.len()) {
        return Err(McfError::WarmArenaMismatch {
            expected: caps.len(),
            got: w.length.len(),
        });
    }
    let m = caps.iter().filter(|&&c| c > 0.0 && c.is_finite()).count() as f64;

    // One route source and one source grouping for the whole solve: in
    // AnyPath mode the oracle's plane graphs and host-uplink cache are shared
    // between demand pre-scaling and the phase loop.
    let routes = Routes::new(net, mode);
    let sources = Sources::new(net, commodities);

    // --- Demand pre-scaling so that OPT λ' is Θ(1). -----------------------
    // Lower bound: route every commodity on a shortest allowed path under
    // the current link state and scale by the resulting congestion. A warm
    // solve runs this too rather than reuse the previous λ: after a
    // capacity-reducing delta that λ overshoots the new optimum, every phase
    // then grows lengths too aggressively, and the run ends in far fewer
    // phases than its budget intends.
    let seed_routes = shortest_routes_unit(net, commodities, &routes, &sources, opts.parallelism)?;
    let mut seed_load = vec![0.0f64; caps.len()];
    for (c, route) in commodities.iter().zip(&seed_routes) {
        for &l in route {
            seed_load[l.index()] += c.demand;
        }
    }
    let seed_congestion = seed_load
        .iter()
        .zip(&caps)
        .filter(|&(_, &c)| c > 0.0)
        .map(|(&f, &c)| f / c)
        .fold(0.0f64, f64::max);
    if seed_congestion.is_nan() || seed_congestion <= 0.0 {
        return Err(McfError::NoFeasibleFlow);
    }
    let scale = 1.0 / seed_congestion; // demands multiplied by this => OPT' in [1, ...]

    // --- Fleischer phases. -------------------------------------------------
    let delta = (m / (1.0 - eps)).powf(-1.0 / eps);
    let (length, d_sum) = match warm {
        None => {
            let length = caps
                .iter()
                .map(|&c| if c > 0.0 { delta / c } else { f64::INFINITY })
                .collect();
            (length, m * delta) // Σ cₑ·ℓₑ over usable links
        }
        Some(w) => warm_start(&caps, m, delta, &w.length),
    };
    gk_core(
        net,
        commodities,
        &routes,
        &sources,
        eps,
        opts,
        &caps,
        scale,
        length,
        d_sum,
        warm.is_some(),
        MAX_PHASES,
    )
}

/// A warm solve's start lengths and their mass Σ cₑ·ℓₑ, from the previous
/// profile `prev` and the cold start value `delta`.
fn warm_start(caps: &[f64], m: f64, delta: f64, prev: &[f64]) -> (Vec<f64>, f64) {
    // The cold run walks the total length mass Σ cₑ·ℓₑ from m·δ up to 1; the
    // phase count is proportional to those multiplicative decades. Start the
    // warm run at the B-th root of the cold start mass — the same decades
    // divided by WARM_PHASE_BUDGET — rather than at δ^(1/B) per link, which
    // would land within a small factor of 1 and leave almost no phases.
    let delta_w = (m * delta).powf(1.0 / WARM_PHASE_BUDGET) / m;
    // A previous length is carried iff it is a real dual value for a link
    // that is still capacitated: finite and positive. Restored links show up
    // as ∞ (failed at warm time) or 0 (uncapacitated at warm time) in the
    // warm profile — both start fresh.
    //
    // Carried masses are compressed to the warm run's dynamic range by the
    // same B-th root as δ itself. The previous run's terminal profile spans
    // the *cold* range — a saturated link's mass cₑ·ℓₑ sits ~1/δ above an
    // idle link's. Carried raw into a run with only 1/B of those decades of
    // headroom, the hot links would start so far above everything else that
    // the mass cap is reached before they ever become competitive again:
    // their capacity goes unused, the rest congests, and λ collapses. The
    // B-th root maps [δ, 1] onto [δ^(1/B), 1], preserving the ordering and
    // relative log-structure at exactly the scale the warm run can traverse.
    let root = 1.0 / WARM_PHASE_BUDGET;
    let carried_mass: f64 = caps
        .iter()
        .zip(prev)
        .filter(|&(&c, &w)| c > 0.0 && c.is_finite() && w > 0.0 && w.is_finite())
        .map(|(&c, &w)| (c * w).powf(root))
        .sum();
    let n_fresh = caps
        .iter()
        .zip(prev)
        .filter(|&(&c, &w)| c > 0.0 && c.is_finite() && !(w > 0.0 && w.is_finite()))
        .count();
    let carried = m - n_fresh as f64;
    let rescale = if carried_mass > 0.0 {
        carried * delta_w / carried_mass
    } else {
        0.0
    };
    let mut d_sum = 0.0f64;
    let length = caps
        .iter()
        .zip(prev)
        .map(|(&c, &w)| {
            if c <= 0.0 {
                f64::INFINITY
            } else if !c.is_finite() {
                0.0
            } else {
                let l = if w > 0.0 && w.is_finite() {
                    (c * w).powf(root) / c * rescale
                } else {
                    delta_w / c
                };
                d_sum += c * l;
                l
            }
        })
        .collect();
    (length, d_sum)
}

/// Hard cap on phases: generous versus the theoretical bound; stops a runaway
/// loop on degenerate inputs with [`McfError::PhaseLimit`].
const MAX_PHASES: usize = 200_000;

/// The Fleischer phase loop + congestion rescale of [`solve_from`], from a
/// chosen start point: the lengths, their mass `d_sum` and the demand
/// pre-scale.
#[allow(clippy::too_many_arguments)]
fn gk_core(
    net: &Network,
    commodities: &[Commodity],
    routes: &Routes<'_>,
    sources: &Sources,
    eps: f64,
    opts: McfOptions,
    caps: &[f64],
    scale: f64,
    mut length: Vec<f64>,
    mut d_sum: f64,
    complete_last_phase: bool,
    max_phases: usize,
) -> Result<McfSolution, McfError> {
    let mut flow = vec![0.0f64; caps.len()];
    let mut sent = vec![0.0f64; commodities.len()];
    let mut phases = 0usize;

    // Persistent per-source tree bundles (AnyPath): refreshed in place each
    // phase instead of reallocated, and one route buffer serves every push.
    let (mut phase_trees, n_planes): (Vec<PlaneTrees>, usize) = match routes {
        Routes::AnyPath(oracle) => (
            (0..sources.hosts.len())
                .map(|_| oracle.empty_trees())
                .collect(),
            oracle.planes.len(),
        ),
        Routes::Explicit(_) => (Vec::new(), 0),
    };
    // Per-plane CSR-order weight snapshot, regathered once per phase and
    // shared by every source's Dijkstra. A plane is dirty when one of its
    // fabric links grew since its last gather: pushes mark the chosen
    // plane, and clean planes skip both the gather and all their Dijkstras
    // next phase (their trees are already exactly what a recompute would
    // produce). Host attachment links never dirty a plane — they are not
    // part of the plane graphs, and `best_route_into` reads them straight
    // from `length`.
    //
    // `grown` refines the per-plane flag to a per-link bitset: a push on a
    // fabric link sets its bit alongside the plane flag, and both are
    // cleared together after the refresh. Within a dirty plane, a source
    // whose recorded shortest-path chains traverse no grown link skips its
    // Dijkstra entirely (see `refresh_trees` for why that is exact).
    //
    // `sibling` names, per dirty plane, a same-shape plane whose trees it may
    // share instead (see `AnyPathOracle::siblings`), decided once per phase.
    let mut phase_w: Vec<Vec<f64>> = Vec::new();
    let mut plane_dirty: Vec<bool> = vec![true; n_planes];
    let mut sibling: Vec<Option<usize>> = Vec::new();
    let n_words = caps.len().div_ceil(64);
    let mut grown: Vec<Vec<u64>> = vec![vec![0u64; n_words]; n_planes];
    let mut route: Vec<LinkId> = Vec::new();

    // Late-window primal scoring for warm runs. A short warm run's first
    // phases route on lengths that do not yet reflect the post-delta
    // congestion, and with only ~1/B as many phases as a cold run that
    // transient is a visible fraction of the accumulated flow — it creates
    // one over-utilized link and the congestion rescale drags λ down. Any
    // prefix-to-end window of routed flow is itself a feasible primal after
    // its own congestion rescale, so the accumulators are snapshotted on a
    // geometric phase grid (ratio 1.3) and the final λ is the best over the
    // full window and every suffix window (O(log P) snapshots, each O(m) to
    // store). Cold runs skip all of this: their λ is pinned bit-identical
    // to the historical solver.
    let mut snaps: Vec<(Vec<f64>, Vec<f64>, usize)> = Vec::new();
    let mut next_snap = 2usize;

    'outer: while d_sum < 1.0 && phases < max_phases {
        phases += 1;
        if complete_last_phase && phases == next_snap {
            snaps.push((flow.clone(), sent.clone(), phases - 1));
            next_snap = (next_snap + 1).max((next_snap as f64 * 1.3) as usize);
        }
        // AnyPath: one shortest-path-tree bundle per active source, all
        // computed against the phase-start length vector. The per-source
        // Dijkstras are independent, so they run in parallel (Fleischer's
        // phase framework: routing on phase-start shortest paths preserves
        // the (1-O(eps)) guarantee, and the final congestion rescale keeps
        // the primal feasible regardless). Sequential consumption below
        // keeps serial and parallel runs bit-identical.
        if let Routes::AnyPath(oracle) = routes {
            oracle.edge_weights(&length, &plane_dirty, &mut phase_w);
            oracle.siblings(&phase_w, &plane_dirty, &mut sibling);
            // A phase whose dirty planes all share has no Dijkstra to fan
            // out; handing 64 index hand-offs to the pool costs more than
            // doing them.
            let all_share = plane_dirty
                .iter()
                .zip(&sibling)
                .all(|(&d, s)| !d || s.is_some());
            let par = if all_share {
                Parallelism::Serial
            } else {
                opts.parallelism
            };
            par.update_indexed(&mut phase_trees, |i, t| {
                oracle.refresh_trees(
                    net,
                    sources.hosts[i],
                    &sources.targets[i],
                    &phase_w,
                    &plane_dirty,
                    &sibling,
                    &grown,
                    t,
                )
            });
            for (g, &d) in grown.iter_mut().zip(&plane_dirty) {
                if d {
                    g.iter_mut().for_each(|w| *w = 0);
                }
            }
            plane_dirty.fill(false);
        }
        for (si, group) in sources.commodities.iter().enumerate() {
            for &i in group {
                let mut remaining = commodities[i].demand * scale;
                while remaining > 0.0 {
                    // A warm run completes its final phase instead of
                    // stopping mid-commodity: with only a handful of phases,
                    // an uneven last phase would starve the not-yet-routed
                    // commodities and drag λ (= the min rate ratio) down.
                    // Cold runs keep the historical mid-phase stop — its
                    // imbalance is amortized over thousands of phases, and
                    // the pinned golden λ depends on the exact float
                    // sequence.
                    if d_sum >= 1.0 && !complete_last_phase {
                        break 'outer;
                    }
                    match routes {
                        Routes::Explicit(candidates) => {
                            route.clear();
                            route.extend_from_slice(candidates.best(i, &length));
                        }
                        Routes::AnyPath(oracle) => {
                            let p = oracle
                                .best_route_into(
                                    net,
                                    commodities[i].src,
                                    commodities[i].dst,
                                    &phase_trees[si],
                                    &length,
                                    &mut route,
                                )
                                .expect("invariant: the seeding pass routed every commodity");
                            // Routes longer than uplink + downlink grow
                            // fabric lengths: plane p's trees go stale.
                            // Record exactly which fabric links grow so
                            // unaffected sources can keep their trees.
                            if route.len() > 2 {
                                plane_dirty[p] = true;
                                let g = &mut grown[p];
                                for &l in &route[1..route.len() - 1] {
                                    g[l.index() >> 6] |= 1 << (l.index() & 63);
                                }
                            }
                        }
                    };
                    let bottleneck = route
                        .iter()
                        .map(|&l| caps[l.index()])
                        .fold(f64::INFINITY, f64::min);
                    let push = remaining.min(bottleneck);
                    for &l in &route {
                        let e = l.index();
                        flow[e] += push;
                        if !caps[e].is_finite() {
                            continue; // uncapacitated (rack-level host link)
                        }
                        let grow = eps * push / caps[e];
                        let old = length[e];
                        length[e] = old * (1.0 + grow);
                        d_sum += caps[e] * (length[e] - old);
                    }
                    sent[i] += push;
                    remaining -= push;
                }
            }
        }
    }

    if phases == max_phases && d_sum < 1.0 {
        return Err(McfError::PhaseLimit { phases });
    }

    // --- Congestion rescale to a feasible primal. --------------------------
    let score = |flow: &[f64], sent: &[f64]| -> (f64, Vec<f64>, Vec<f64>) {
        let congestion = flow
            .iter()
            .zip(caps)
            .filter(|&(_, &c)| c > 0.0)
            .map(|(&f, &c)| f / c)
            .fold(0.0f64, f64::max)
            .max(f64::MIN_POSITIVE);
        let rates: Vec<f64> = sent.iter().map(|&s| s / congestion).collect();
        let lambda = rates
            .iter()
            .zip(commodities)
            .map(|(&r, c)| r / c.demand)
            .fold(f64::INFINITY, f64::min);
        let link_flow: Vec<f64> = flow.iter().map(|&f| f / congestion).collect();
        (lambda, rates, link_flow)
    };
    let (mut lambda, mut rates, mut link_flow) = score(&flow, &sent);
    for (s_flow, s_sent, s_phases) in &snaps {
        if !(1..phases).contains(s_phases) {
            continue;
        }
        let late_flow: Vec<f64> = flow.iter().zip(s_flow).map(|(&a, &b)| a - b).collect();
        let late_sent: Vec<f64> = sent.iter().zip(s_sent).map(|(&a, &b)| a - b).collect();
        let (l2, r2, lf2) = score(&late_flow, &late_sent);
        if l2 > lambda {
            lambda = l2;
            rates = r2;
            link_flow = lf2;
        }
    }

    let count = |f: fn(&PlaneTrees) -> u64| phase_trees.iter().map(f).sum();
    Ok(McfSolution {
        lambda,
        phases,
        link_flow,
        rates,
        length,
        trees_built: count(|t| t.built),
        trees_shared: count(|t| t.shared),
        trees_kept: count(|t| t.kept),
    })
}

/// Shortest allowed route per commodity under unit lengths (used for demand
/// pre-scaling). Explicit mode: fewest links among candidates. AnyPath:
/// BFS-shortest across planes, with one tree bundle per source computed in
/// parallel rather than one per commodity; a commodity no plane connects is
/// [`McfError::UnroutableCommodity`]. Link state is frozen for the solve,
/// so every commodity this routes the phase loop routes too.
fn shortest_routes_unit(
    net: &Network,
    commodities: &[Commodity],
    routes: &Routes<'_>,
    sources: &Sources,
    par: Parallelism,
) -> Result<Vec<Vec<LinkId>>, McfError> {
    let oracle = match routes {
        Routes::Explicit(candidates) => {
            let fewest_links = |i| {
                let shortest = candidates.routes(i).min_by_key(|r| r.len());
                shortest.expect("invariant: every commodity has a non-empty candidate path set")
            };
            return Ok((0..candidates.len())
                .map(|i| fewest_links(i).to_vec())
                .collect());
        }
        Routes::AnyPath(oracle) => oracle,
    };
    let unit: Vec<f64> = net.links().map(|_| 1.0).collect();
    // One gather and one sibling decision serve every source; fresh bundles
    // are invalid in every plane, so the grown bitsets are never consulted
    // and an empty slice suffices.
    let all = vec![true; oracle.planes.len()];
    let (mut w, mut sibling) = (Vec::new(), Vec::new());
    oracle.edge_weights(&unit, &all, &mut w);
    oracle.siblings(&w, &all, &mut sibling);
    let trees: Vec<PlaneTrees> = par.map_indexed(sources.hosts.len(), |si| {
        let (src, targets) = (sources.hosts[si], &sources.targets[si]);
        let mut t = oracle.empty_trees();
        oracle.refresh_trees(net, src, targets, &w, &all, &sibling, &[], &mut t);
        t
    });
    let mut seeded = vec![None; commodities.len()];
    for (group, trees) in sources.commodities.iter().zip(&trees) {
        for &i in group {
            let (c, mut route) = (&commodities[i], Vec::new());
            let found = oracle.best_route_into(net, c.src, c.dst, trees, &unit, &mut route);
            seeded[i] = found.map(|_| route);
        }
    }
    seeded
        .into_iter()
        .enumerate()
        .map(|(index, r)| r.ok_or(McfError::UnroutableCommodity { index }))
        .collect()
}

/// The active sources of a solve, grouped once for the seeding pass and the
/// phase loop: the source hosts in ascending order, each one's commodities
/// in index order, and the sorted, deduplicated racks those commodities go
/// to — where the source's trees are read, so where its Dijkstras may stop.
struct Sources {
    hosts: Vec<HostId>,
    commodities: Vec<Vec<usize>>,
    targets: Vec<Vec<RackId>>,
}

impl Sources {
    fn new(net: &Network, commodities: &[Commodity]) -> Self {
        let mut by_src: Vec<Vec<usize>> = vec![Vec::new(); net.n_hosts()];
        for (i, c) in commodities.iter().enumerate() {
            by_src[c.src.index()].push(i);
        }
        let mut sources = Sources {
            hosts: Vec::new(),
            commodities: Vec::new(),
            targets: Vec::new(),
        };
        for (h, group) in by_src.into_iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            let mut targets: Vec<RackId> = group
                .iter()
                .map(|&i| net.rack_of_host(commodities[i].dst))
                .collect();
            targets.sort_unstable();
            targets.dedup();
            sources.hosts.push(HostId(h as u32));
            sources.commodities.push(group);
            sources.targets.push(targets);
        }
        sources
    }
}

/// The `Explicit` routes of a solve, back to back in one table: every push
/// reads all of a commodity's candidates, and where separate `Vec`s would
/// have landed in the heap should not set the solver's speed. Commodity `i`
/// owns routes `first[i]..first[i + 1]`; route `r` is
/// `links[ends[r]..ends[r + 1]]`.
#[derive(Debug, Clone)]
pub struct Candidates {
    links: Vec<LinkId>,
    ends: Vec<usize>,
    first: Vec<usize>,
}

impl Candidates {
    /// The table of `paths`, where `paths[i]` are the routes of commodity
    /// `i`, each a full host-to-host link sequence.
    pub fn new(paths: &[Vec<Vec<LinkId>>]) -> Self {
        let mut flat = Candidates {
            links: Vec::new(),
            ends: vec![0],
            first: vec![0],
        };
        for cands in paths {
            for route in cands {
                flat.links.extend_from_slice(route);
                flat.ends.push(flat.links.len());
            }
            flat.first.push(flat.ends.len() - 1);
        }
        flat
    }

    /// Commodities in the table.
    pub(crate) fn len(&self) -> usize {
        self.first.len() - 1
    }

    /// The routes of commodity `i`, in the order given.
    pub(crate) fn routes(&self, i: usize) -> impl ExactSizeIterator<Item = &[LinkId]> + '_ {
        (self.first[i]..self.first[i + 1]).map(|r| &self.links[self.ends[r]..self.ends[r + 1]])
    }

    /// The minimum-length candidate of commodity `i` (the first of equals),
    /// each candidate's length summed once.
    fn best(&self, i: usize, length: &[f64]) -> &[LinkId] {
        let mut best: Option<(f64, &[LinkId])> = None;
        for route in self.routes(i) {
            let cost: f64 = route.iter().map(|&l| length[l.index()]).sum();
            if best.is_none_or(|(b, _)| cost.total_cmp(&b).is_lt()) {
                best = Some((cost, route));
            }
        }
        best.expect("invariant: every commodity has a non-empty candidate path set")
            .1
    }
}

// --------------------------------------------------------------------------
// AnyPath oracle: per-plane Dijkstra over the switch graphs.
// --------------------------------------------------------------------------

use pnet_routing::PlaneGraph;

/// Parent sentinel: `u64::MAX` cannot encode a real (node, edge) pair.
const NO_PARENT: u64 = u64::MAX;

/// One plane's tree: (dist to each dense switch, packed parent of each
/// switch). A parent packs `(dense parent node) << 32 | CSR edge position`
/// ([`PlaneGraph::link_at`] names the link), or [`NO_PARENT`] at the tree
/// root — one word instead of a 24-byte `Option<(usize, LinkId)>`, so
/// refreshes touch less memory, and free of link ids, so a tree means the
/// same thing on every plane of one shape.
type PlaneTree = (Vec<f64>, Vec<u64>);

/// Shortest-path trees from one source rack, one per plane. Persistent: the
/// phase loop refreshes the same trees in place every phase (dist refilled,
/// the frontier reused) instead of reallocating — refreshing performs the
/// exact same float operations as building fresh, so solutions are
/// bit-identical.
///
/// Planes that share a tree share it by index: `of[p]` names the buffer
/// holding plane `p`'s tree, and a hand-off from a sibling is `of[p] =
/// of[q]`. There are as many buffers as planes, so a plane about to run
/// Dijkstra while another plane reads its buffer always finds one that no
/// plane reads.
struct PlaneTrees {
    /// One (dist, parent) buffer per plane, each sized to the largest plane.
    bufs: Vec<PlaneTree>,
    /// The buffer holding each plane's tree.
    of: Vec<usize>,
    /// Reused Dijkstra frontier, one bit per dense switch (cleared per
    /// plane).
    frontier: Vec<u64>,
    /// Scratch target-marks for early-terminated Dijkstra (shared across the
    /// planes of one refresh; every set bit is cleared again before reuse).
    mask: Vec<bool>,
    /// Whether each plane's tree has been computed at least once — until it
    /// has, there are no recorded chains to test against grown links and the
    /// Dijkstra must run unconditionally.
    valid: Vec<bool>,
    /// Dirty-plane refreshes of this bundle by outcome, summed over sources
    /// into [`McfSolution`]'s `trees_*` counters.
    built: u64,
    shared: u64,
    kept: u64,
}

impl PlaneTrees {
    /// Plane `p`'s (dist, parent) arrays.
    fn tree(&self, p: usize) -> &PlaneTree {
        &self.bufs[self.of[p]]
    }
}

/// A solve's route source: the caller's [`PathMode`] with the AnyPath oracle
/// built. An `Explicit` solve reads neither the plane graphs nor the uplink
/// cache, so it does not build them.
enum Routes<'a> {
    Explicit(&'a Candidates),
    AnyPath(AnyPathOracle),
}

impl<'a> Routes<'a> {
    fn new(net: &Network, mode: &'a PathMode) -> Self {
        match mode {
            PathMode::Explicit(candidates) => Routes::Explicit(candidates),
            PathMode::AnyPath => Routes::AnyPath(AnyPathOracle::new(net)),
        }
    }
}

struct AnyPathOracle {
    planes: Vec<PlaneGraph>,
    /// Shape class of each plane: the lowest plane index with the same
    /// shape ([`PlaneGraph::same_shape`]). A homogeneous P-Net is one class.
    class: Vec<usize>,
    /// Host uplink per (host, plane), cached once: `host_uplink` scans the
    /// host's link arena slice on every call, and `best_route` asks for it
    /// several times per commodity per phase. Link state is frozen for the
    /// duration of a solve, so the cache cannot go stale mid-run.
    uplinks: Vec<Option<LinkId>>,
    n_planes: usize,
}

impl AnyPathOracle {
    fn new(net: &Network) -> Self {
        let planes = PlaneGraph::build_all(net);
        let n_planes = planes.len();
        let class = pnet_routing::plane_graph::shape_classes(&planes);
        let mut uplinks = Vec::with_capacity(net.n_hosts() * n_planes);
        for h in 0..net.n_hosts() {
            for p in 0..n_planes {
                uplinks.push(net.host_uplink(HostId(h as u32), PlaneId(p as u16)));
            }
        }
        AnyPathOracle {
            planes,
            class,
            uplinks,
            n_planes,
        }
    }

    #[inline]
    fn uplink(&self, h: HostId, p: usize) -> Option<LinkId> {
        self.uplinks[h.index() * self.n_planes + p]
    }

    /// Empty tree bundle sized for this oracle, to be filled by
    /// [`AnyPathOracle::refresh_trees`].
    fn empty_trees(&self) -> PlaneTrees {
        let max_n = self
            .planes
            .iter()
            .map(|pg| pg.n_switches())
            .max()
            .unwrap_or(0);
        PlaneTrees {
            bufs: vec![(vec![f64::INFINITY; max_n], vec![NO_PARENT; max_n]); self.n_planes],
            of: (0..self.n_planes).collect(),
            frontier: vec![0; max_n.div_ceil(64)],
            mask: vec![false; max_n],
            valid: vec![false; self.planes.len()],
            built: 0,
            shared: 0,
            kept: 0,
        }
    }

    /// Gather `length` into per-plane CSR-edge-order weight arrays. Every
    /// same-phase Dijkstra (one per source) then reads its relaxation weight
    /// at the CSR position it is already walking, instead of chasing
    /// `length[link.index()]` — one gather per plane per phase, shared by
    /// all sources. Values are copied verbatim, so sums are bit-identical.
    /// Planes whose `dirty` flag is unset kept their previous weights and
    /// are skipped.
    fn edge_weights(&self, length: &[f64], dirty: &[bool], out: &mut Vec<Vec<f64>>) {
        out.resize(self.planes.len(), Vec::new());
        for ((pg, w), _) in self
            .planes
            .iter()
            .zip(out.iter_mut())
            .zip(dirty)
            .filter(|&(_, &d)| d)
        {
            pg.gather_weights(length, w);
        }
    }

    /// For every dirty plane `p`, name a plane `q` whose trees `p` may share
    /// instead of running Dijkstra: `q` has `p`'s shape, holds a snapshot
    /// equal to `p`'s in every bit, and its trees are current for that
    /// snapshot — `q` is clean, or `q < p` and so refreshed before `p` in
    /// the same pass. Sharing is exact: a plane's Dijkstra is a function of
    /// (shape, CSR-order weights, source ToR, targets) — it pops in `(dist
    /// bits, dense node)` order, relaxes in CSR row order, and compares no
    /// link id — so equal inputs give equal distances and equal parent
    /// *positions*, and a tree `q` kept rather than rebuilt is observably a
    /// rebuilt one (see [`AnyPathOracle::refresh_trees`]). Planes that differ
    /// in shape or lengths (heterogeneous fabrics, a failed cable, a warm
    /// start) find no sibling at the cost of one short-circuited compare.
    fn siblings(&self, weights: &[Vec<f64>], dirty: &[bool], out: &mut Vec<Option<usize>>) {
        let n = self.planes.len();
        out.clear();
        out.extend((0..n).map(|p| {
            (0..n).find(|&q| {
                dirty[p]
                    && q != p
                    && self.class[q] == self.class[p]
                    && (q < p || !dirty[q])
                    && weights[p]
                        .iter()
                        .zip(&weights[q])
                        .all(|(a, b)| a.to_bits() == b.to_bits())
            })
        }));
    }

    /// Dijkstra from `src`'s ToR in every plane under per-plane CSR-order
    /// `weights` (see [`AnyPathOracle::edge_weights`]), refreshing `out` in
    /// place.
    ///
    /// The frontier is a bitset, one bit per dense switch, keyed by `dist`.
    /// A pop scans the set bits in ascending node order and keeps a node
    /// only when its distance bits are strictly smaller, which yields the
    /// least `(dist bits, node)`: the order an indexed heap on distance bits
    /// pops in (non-negative floats order like their bit patterns). The
    /// settle order, every relaxation, parent and early stop are therefore a
    /// heap's, with no sift and no position index.
    ///
    /// `targets` are the destination racks the caller will read out of the
    /// trees (via [`AnyPathOracle::best_route_into`]): each plane's Dijkstra
    /// stops as soon as every target is settled. A target's distance and the
    /// parent pointers along its shortest path are final at settle time, so
    /// every value the caller can observe is identical to a full run — only
    /// relaxations of never-read nodes are skipped. An empty `targets` slice
    /// settles everything.
    ///
    /// Parents are *not* cleared between refreshes: every node on a
    /// backtracked path was improved (and its parent overwritten) during
    /// this refresh before its settle, except the root, whose distance 0.0
    /// no relaxation can beat — so only the root's sentinel is written.
    /// Stale parents of nodes off the returned paths are never read.
    ///
    /// Planes whose `dirty` flag is unset are skipped entirely: their
    /// weights match the previous refresh, so the (dist, parent) arrays
    /// already hold exactly what recomputing would produce.
    ///
    /// Within a dirty plane, `grown[p]` (a bitset over link ids: the links
    /// whose length grew since the plane's last gather) refines the skip to
    /// *per source*: if none of this source's recorded shortest-path chains
    /// (root → each target) traverses a grown link, the Dijkstra is skipped
    /// and the arrays are kept. This is exact, not approximate: lengths only
    /// grow within a solve, so the recorded chains — untouched by the delta
    /// — still achieve their old distances while every other path can only
    /// have gotten longer; the targets' distances are therefore unchanged.
    /// Parents are also reproduced bit-for-bit by a hypothetical re-run: a
    /// rival same-distance achiever would have to pop no later than the
    /// recorded parent to displace it, but growth can only move rivals'
    /// keys (and hence their pops) later, never earlier. Only the stale
    /// never-read remainder of the arrays differs from a re-run.
    ///
    /// A dirty plane whose tree is not kept takes plane `sibling[p]`'s
    /// buffer when there is one (see [`AnyPathOracle::siblings`]), and runs
    /// Dijkstra otherwise.
    #[allow(clippy::too_many_arguments)]
    fn refresh_trees(
        &self,
        net: &Network,
        src: HostId,
        targets: &[RackId],
        weights: &[Vec<f64>],
        dirty: &[bool],
        sibling: &[Option<usize>],
        grown: &[Vec<u64>],
        out: &mut PlaneTrees,
    ) {
        let rack = net.rack_of_host(src);
        let PlaneTrees {
            bufs,
            of,
            frontier,
            mask,
            valid,
            built,
            shared,
            kept,
        } = out;
        for (p, pg) in self.planes.iter().enumerate() {
            if !dirty[p] {
                continue;
            }
            if valid[p] {
                let (dist, parent) = &bufs[of[p]];
                let g = &grown[p];
                let hit = targets.iter().any(|&r| {
                    let t = pg.tor(r);
                    if dist[t].is_infinite() {
                        return false; // unreachable stays unreachable: growth never severs or adds links
                    }
                    let mut cur = t;
                    loop {
                        let pv = parent[cur];
                        if pv == NO_PARENT {
                            return false;
                        }
                        let e = pg.link_at(pv as u32 as usize).index();
                        if g[e >> 6] & (1u64 << (e & 63)) != 0 {
                            return true;
                        }
                        cur = (pv >> 32) as usize;
                    }
                });
                if !hit {
                    *kept += 1;
                    continue;
                }
            }
            valid[p] = true;
            if let Some(q) = sibling[p].filter(|&q| valid[q]) {
                of[p] = of[q];
                *shared += 1;
                continue;
            }
            *built += 1;
            // Build in a buffer no other plane reads (see `PlaneTrees`).
            if (0..of.len()).any(|r| r != p && of[r] == of[p]) {
                of[p] = (0..bufs.len())
                    .find(|b| !of.contains(b))
                    .expect("invariant: a shared buffer leaves one of the n buffers unheld");
            }
            let n = pg.n_switches();
            let (dist, parent) = &mut bufs[of[p]];
            let dist = &mut dist[..n];
            let w = &weights[p];
            let s = pg.tor(rack);
            let mut remaining = 0usize;
            for &r in targets {
                let t = pg.tor(r);
                if !mask[t] {
                    mask[t] = true;
                    remaining += 1;
                }
            }
            let early = !targets.is_empty();
            dist.fill(f64::INFINITY);
            dist[s] = 0.0;
            parent[s] = NO_PARENT;
            let front = &mut frontier[..n.div_ceil(64)];
            front.fill(0);
            front[s >> 6] = 1 << (s & 63);
            loop {
                // Pop the least (dist bits, node).
                let (mut u, mut du) = (usize::MAX, u64::MAX);
                for (i, &word) in front.iter().enumerate() {
                    let mut bits = word;
                    while bits != 0 {
                        let v = (i << 6) | bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        let dv = dist[v].to_bits();
                        if dv < du {
                            (u, du) = (v, dv);
                        }
                    }
                }
                if u == usize::MAX {
                    break;
                }
                front[u >> 6] &= !(1 << (u & 63));
                if early && mask[u] {
                    mask[u] = false;
                    remaining -= 1;
                    if remaining == 0 {
                        break;
                    }
                }
                let d = f64::from_bits(du);
                let row = pg.neighbors(u);
                let start = pg.row_start(u);
                let wrow = &w[start..start + row.len()];
                for (j, (&(v, _), &wt)) in row.iter().zip(wrow).enumerate() {
                    let v = v as usize;
                    let nd = d + wt;
                    if nd < dist[v] {
                        dist[v] = nd;
                        parent[v] = ((u as u64) << 32) | (start + j) as u64;
                        front[v >> 6] |= 1 << (v & 63);
                    }
                }
            }
            // Unreachable targets never pop: clear their marks for the next
            // plane/refresh.
            if remaining > 0 {
                for &r in targets {
                    mask[pg.tor(r)] = false;
                }
            }
        }
    }

    /// Best full route `src -> dst` across all planes given precomputed
    /// trees, written into `route` (cleared first); returns the chosen
    /// plane's index, or `None` when no plane connects the two hosts. Falls
    /// back across planes where a host lacks an uplink.
    fn best_route_into(
        &self,
        net: &Network,
        src: HostId,
        dst: HostId,
        trees: &PlaneTrees,
        length: &[f64],
        route: &mut Vec<LinkId>,
    ) -> Option<usize> {
        let dst_rack = net.rack_of_host(dst);
        let mut best: Option<(f64, usize)> = None;
        for (p, pg) in self.planes.iter().enumerate() {
            let (Some(up), Some(down)) = (
                self.uplink(src, p),
                self.uplink(dst, p).map(|l| l.reverse()),
            ) else {
                continue;
            };
            let t = pg.tor(dst_rack);
            let dist = &trees.tree(p).0;
            if dist[t].is_infinite() {
                continue;
            }
            let total = length[up.index()] + dist[t] + length[down.index()];
            if best.is_none_or(|(b, _)| total < b) {
                best = Some((total, p));
            }
        }
        let (_, p) = best?;
        let pg = &self.planes[p];
        let parent = &trees.tree(p).1;
        // Backtrack the fabric portion, then reverse in place within the
        // route buffer (slot 0 holds the uplink; the downlink is appended).
        route.clear();
        route.push(
            self.uplink(src, p)
                .expect("invariant: the chosen plane has an uplink for the source host"),
        );
        let mut cur = pg.tor(dst_rack);
        loop {
            let pv = parent[cur];
            if pv == NO_PARENT {
                break;
            }
            route.push(pg.link_at(pv as u32 as usize));
            cur = (pv >> 32) as usize;
        }
        route[1..].reverse();
        route.push(
            self.uplink(dst, p)
                .expect("invariant: the chosen plane has an uplink for the destination host")
                .reverse(),
        );
        Some(p)
    }
}

/// Convenience: rack paths (`&Path`s, or the views of a
/// [`pnet_routing::PlanePaths`]) expanded to full host routes for one commodity.
fn expand_host_routes<'a, P: Into<pnet_routing::PathRef<'a>>>(
    net: &Network,
    src: HostId,
    dst: HostId,
    rack_paths: impl IntoIterator<Item = P>,
) -> Vec<Vec<LinkId>> {
    rack_paths
        .into_iter()
        .filter_map(|p| pnet_routing::host_route(net, src, dst, p))
        .collect()
}

/// Helper bundling router + commodity list into explicit K-path mode across
/// all planes (the MPTCP + KSP configuration). Candidate-set construction
/// fans out across commodities.
pub fn ksp_mode(
    net: &Network,
    router: &pnet_routing::Router,
    commodities: &[Commodity],
    k: usize,
) -> PathMode {
    ksp_mode_with(net, router, commodities, k, Parallelism::default())
}

/// [`ksp_mode`] with an explicit execution strategy. Each commodity's
/// candidate set is a pure function of the frozen router tables and the
/// commodity index, so parallel construction is element-identical to serial.
pub fn ksp_mode_with(
    net: &Network,
    router: &pnet_routing::Router,
    commodities: &[Commodity],
    k: usize,
    par: Parallelism,
) -> PathMode {
    // Warm the route table in bulk first: precompute fans the per-pair
    // Yen/ECMP computations across threads without lock contention.
    router.precompute_with(&inter_rack_pairs(net, commodities), par);
    let paths = par.map_indexed(commodities.len(), |i| {
        let c = &commodities[i];
        let (sa, sb) = (net.rack_of_host(c.src), net.rack_of_host(c.dst));
        let rack_paths = if sa == sb {
            // Intra-rack: one host->ToR->host path per plane (MPTCP can
            // still stripe across all planes).
            net.planes().map(pnet_routing::Path::intra_rack).collect()
        } else {
            // Fetch a wide candidate set, hash-rotate each equal-length
            // tier per flow (the MPTCP path manager's spread), then keep
            // the K best for this flow.
            let wide = (2 * k).max(8);
            let mut ps = router.k_best_across_planes(sa, sb, wide);
            pnet_routing::path::rotate_ties(
                &mut ps,
                pnet_routing::flow_hash(c.src, c.dst, i as u64),
            );
            ps.truncate(k);
            ps
        };
        expand_host_routes(net, c.src, c.dst, &rack_paths)
    });
    PathMode::Explicit(Candidates::new(&paths))
}

/// Helper: single hash-selected ECMP path per commodity (plane by hash, then
/// equal-cost path by hash), the paper's naive P-Net ECMP. Candidate-set
/// construction fans out across commodities under `par`.
pub fn ecmp_mode_with(
    net: &Network,
    router: &pnet_routing::Router,
    commodities: &[Commodity],
    par: Parallelism,
) -> PathMode {
    use pnet_routing::{flow_hash, hash_index, hash_plane};
    router.precompute_with(&inter_rack_pairs(net, commodities), par);
    let n_planes = net.n_planes();
    let paths = par.map_indexed(commodities.len(), |i| {
        let c = &commodities[i];
        let h = flow_hash(c.src, c.dst, i as u64);
        let plane = hash_plane(n_planes, h);
        let (sa, sb) = (net.rack_of_host(c.src), net.rack_of_host(c.dst));
        if sa == sb {
            let path = pnet_routing::Path::intra_rack(plane);
            return expand_host_routes(net, c.src, c.dst, [&path]);
        }
        let set = router.paths_in_plane(plane, sa, sb);
        assert!(!set.is_empty(), "no ECMP path in plane {plane}");
        expand_host_routes(net, c.src, c.dst, [set.get(hash_index(set.len(), h))])
    });
    PathMode::Explicit(Candidates::new(&paths))
}

/// Distinct inter-rack (src, dst) rack pairs of a commodity list, in first-
/// appearance order — the precompute work-list for the helpers above.
fn inter_rack_pairs(net: &Network, commodities: &[Commodity]) -> Vec<(RackId, RackId)> {
    let mut seen = std::collections::BTreeSet::new();
    let mut pairs = Vec::new();
    for c in commodities {
        let (sa, sb) = (net.rack_of_host(c.src), net.rack_of_host(c.dst));
        if sa != sb && seen.insert((sa, sb)) {
            pairs.push((sa, sb));
        }
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commodity;
    use pnet_routing::{RouteAlgo, Router};
    use pnet_topology::{assemble_homogeneous, gbps, FatTree, Jellyfish, LinkProfile};

    const EPS: f64 = 0.05;
    const OPTS: McfOptions = McfOptions {
        host_links_free: false,
        parallelism: Parallelism::Serial,
    };

    /// Regression (PR 9): `eps` outside (0, 0.5) must surface as a typed
    /// error, never as a NaN δ = (m/(1−ε))^(−1/ε) silently corrupting the
    /// phase loop. Pre-fix the only guard was an `assert!` panic and no
    /// checked entry point existed.
    #[test]
    fn bad_eps_is_a_typed_error() {
        let net = assemble_homogeneous(&FatTree::three_tier(4), 1, &LinkProfile::paper_default());
        let c = vec![Commodity::unit(HostId(0), HostId(15))];
        for eps in [0.0, -0.1, 0.5, 1.0, 2.0, f64::NAN, f64::INFINITY] {
            let got = try_solve(&net, &c, &PathMode::AnyPath, eps, OPTS);
            assert!(
                matches!(got, Err(McfError::InvalidEps { .. })),
                "eps {eps} must be rejected, got {got:?}"
            );
            // The degenerate δ the guard exists for: outside (0, 0.5) the
            // Fleischer start value is NaN, 0, or ≥ 1 — all garbage.
            let m = 10.0f64;
            let delta = (m / (1.0 - eps)).powf(-1.0 / eps);
            assert!(
                !(delta > 0.0 && delta < 1.0) || eps >= 0.5,
                "delta {delta} for eps {eps} would have been accepted"
            );
        }
        // Warm variant enforces the same contract.
        let warm = solve(&net, &c, &PathMode::AnyPath, EPS);
        let got = try_solve_warm(&net, &c, &PathMode::AnyPath, 1.0, &warm);
        assert!(matches!(got, Err(McfError::InvalidEps { .. })));
        // In-range eps still solves.
        let ok = try_solve(&net, &c, &PathMode::AnyPath, EPS, OPTS);
        assert!(ok.is_ok());
    }

    #[test]
    fn degenerate_inputs_are_typed_errors() {
        let net = assemble_homogeneous(&FatTree::three_tier(4), 1, &LinkProfile::paper_default());
        let c = vec![Commodity::unit(HostId(0), HostId(15))];
        assert!(matches!(
            try_solve(&net, &[], &PathMode::AnyPath, EPS, OPTS),
            Err(McfError::NoCommodities)
        ));
        let mut bad = c.clone();
        bad[0].demand = f64::NAN;
        assert!(matches!(
            try_solve(&net, &bad, &PathMode::AnyPath, EPS, OPTS),
            Err(McfError::InvalidDemand { index: 0 })
        ));
        assert!(matches!(
            try_solve(
                &net,
                &c,
                &PathMode::Explicit(Candidates::new(&[Vec::new()])),
                EPS,
                OPTS
            ),
            Err(McfError::UnroutableCommodity { index: 0 })
        ));
        assert!(matches!(
            try_solve(
                &net,
                &c,
                &PathMode::Explicit(Candidates::new(&[])),
                EPS,
                OPTS
            ),
            Err(McfError::PathTableMismatch {
                paths: 0,
                commodities: 1
            })
        ));
        let warm = solve(&net, &c, &PathMode::AnyPath, EPS);
        let mut stale = warm.clone();
        stale.length.pop();
        assert!(matches!(
            try_solve_warm(&net, &c, &PathMode::AnyPath, EPS, &stale),
            Err(McfError::WarmArenaMismatch { .. })
        ));
        let mut dead = warm.clone();
        dead.lambda = 0.0;
        assert!(matches!(
            try_solve_warm(&net, &c, &PathMode::AnyPath, EPS, &dead),
            Err(McfError::NonPositiveWarmLambda)
        ));
        // The checked and panicking paths agree on good inputs.
        let a = solve(&net, &c, &PathMode::AnyPath, EPS);
        let b =
            try_solve(&net, &c, &PathMode::AnyPath, EPS, OPTS).expect("valid instance must solve");
        assert_eq!(a.lambda.to_bits(), b.lambda.to_bits());
    }

    #[test]
    fn single_pair_gets_link_rate() {
        // Two hosts in different racks of a 1-plane fat tree; only
        // commodity. λ·d should equal one link rate (100G).
        let net = assemble_homogeneous(&FatTree::three_tier(4), 1, &LinkProfile::paper_default());
        let c = vec![Commodity::unit(HostId(0), HostId(15))];
        let sol = solve(&net, &c, &PathMode::AnyPath, EPS);
        let rate = sol.rates[0];
        assert!(
            (rate - gbps(100) as f64).abs() / (gbps(100) as f64) < 3.0 * EPS,
            "rate {rate} not ~100G"
        );
    }

    #[test]
    fn uplink_is_the_bottleneck_for_fan_out() {
        // One source sending to 4 destinations: the source's single 100G
        // uplink caps total at 100G, so λ·d = 25G each.
        let net = assemble_homogeneous(&FatTree::three_tier(4), 1, &LinkProfile::paper_default());
        let c: Vec<Commodity> = [4u32, 8, 12, 15]
            .iter()
            .map(|&d| Commodity::unit(HostId(0), HostId(d)))
            .collect();
        let sol = solve(&net, &c, &PathMode::AnyPath, EPS);
        for &r in &sol.rates {
            assert!((r - 25e9).abs() / 25e9 < 4.0 * EPS, "rates {:?}", sol.rates);
        }
    }

    #[test]
    fn two_planes_double_the_pair_rate() {
        let net = assemble_homogeneous(&FatTree::three_tier(4), 2, &LinkProfile::paper_default());
        let c = vec![Commodity::unit(HostId(0), HostId(15))];
        let sol = solve(&net, &c, &PathMode::AnyPath, EPS);
        assert!(
            (sol.rates[0] - 200e9).abs() / 200e9 < 3.0 * EPS,
            "rate {} not ~200G",
            sol.rates[0]
        );
    }

    #[test]
    fn explicit_single_path_restricts() {
        // Same pair, but restricted to one plane-0 route: 100G even though
        // the network has two planes.
        let net = assemble_homogeneous(&FatTree::three_tier(4), 2, &LinkProfile::paper_default());
        let router = Router::new(&net, RouteAlgo::Ksp { k: 1 });
        let c = vec![Commodity::unit(HostId(0), HostId(15))];
        let mode = ksp_mode(&net, &router, &c, 1);
        let sol = solve(&net, &c, &mode, EPS);
        assert!(
            (sol.rates[0] - 100e9).abs() / 100e9 < 3.0 * EPS,
            "rate {}",
            sol.rates[0]
        );
    }

    #[test]
    fn feasibility_always_holds() {
        let net = assemble_homogeneous(
            &Jellyfish::new(12, 3, 2, 5),
            2,
            &LinkProfile::paper_default(),
        );
        let c = commodity::all_to_all(8);
        let sol = solve(&net, &c, &PathMode::AnyPath, 0.1);
        let caps = link_capacities(&net);
        for (f, c) in sol.link_flow.iter().zip(&caps) {
            assert!(f <= &(c * 1.000001 + 1.0), "infeasible link flow");
        }
        assert!(sol.lambda > 0.0);
    }

    #[test]
    fn permutation_fat_tree_full_bisection_with_ecmp_paths() {
        // k=4 fat tree is non-blocking: a permutation routed over ALL
        // equal-cost paths (splittable) achieves the full 100G per host.
        let net = assemble_homogeneous(&FatTree::three_tier(4), 1, &LinkProfile::paper_default());
        let router = Router::new(&net, RouteAlgo::Ecmp { cap: 16 });
        // Cross-pod cyclic shift permutation: host i -> (i + 8) mod 16.
        let perm: Vec<usize> = (0..16).map(|i| (i + 8) % 16).collect();
        let c = commodity::permutation(&perm);
        let paths: Vec<Vec<Vec<LinkId>>> = c
            .iter()
            .map(|cm| {
                let (ra, rb) = (net.rack_of_host(cm.src), net.rack_of_host(cm.dst));
                let set = router.paths_in_plane(PlaneId(0), ra, rb);
                expand_host_routes(&net, cm.src, cm.dst, set.iter())
            })
            .collect();
        let sol = solve(&net, &c, &PathMode::Explicit(Candidates::new(&paths)), EPS);
        let per_host = sol.rates[0];
        assert!(
            per_host > 0.85 * 100e9,
            "expected near-full bisection, got {per_host}"
        );
    }

    #[test]
    fn warm_resolve_matches_cold_after_failure() {
        use pnet_topology::failures;
        let mut net = assemble_homogeneous(
            &Jellyfish::new(12, 3, 2, 5),
            2,
            &LinkProfile::paper_default(),
        );
        let c = commodity::all_to_all(8);
        let base = solve(&net, &c, &PathMode::AnyPath, 0.1);
        let cable = failures::fabric_cables(&net, None)[2];
        failures::fail_cable(&mut net, cable);
        let cold = solve(&net, &c, &PathMode::AnyPath, 0.1);
        let warm = solve_warm(&net, &c, &PathMode::AnyPath, 0.1, &base);
        assert!(
            (warm.lambda - cold.lambda).abs() <= WARM_LAMBDA_TOLERANCE * cold.lambda,
            "warm λ {} vs cold λ {}",
            warm.lambda,
            cold.lambda
        );
        // Minted before trees were shared between planes (PR 16's tree): the
        // cut plane has its own shape, so every refresh is a Dijkstra.
        assert_eq!(warm.lambda.to_bits(), 0x421a_8b38_ef54_e9e8);
        assert_eq!(
            (warm.trees_built, warm.trees_shared, warm.trees_kept),
            (1840, 0, 0)
        );
        assert!(
            warm.phases < cold.phases,
            "warm ({}) should need fewer phases than cold ({})",
            warm.phases,
            cold.phases
        );
        // Warm solutions are feasible unconditionally (congestion rescale).
        let caps = link_capacities(&net);
        for (f, cap) in warm.link_flow.iter().zip(&caps) {
            assert!(f <= &(cap * 1.000001 + 1.0), "infeasible warm link flow");
        }
    }

    #[test]
    fn warm_resolve_handles_restored_links() {
        use pnet_topology::failures;
        let mut net = assemble_homogeneous(
            &Jellyfish::new(12, 3, 2, 5),
            2,
            &LinkProfile::paper_default(),
        );
        let cable = failures::fabric_cables(&net, None)[4];
        failures::fail_cable(&mut net, cable);
        let c = commodity::all_to_all(8);
        // Base solve sees the cable down: its length is ∞ in the profile.
        let base = solve(&net, &c, &PathMode::AnyPath, 0.1);
        assert!(base.length[cable.index()].is_infinite());
        failures::restore_cable(&mut net, cable);
        let cold = solve(&net, &c, &PathMode::AnyPath, 0.1);
        let warm = solve_warm(&net, &c, &PathMode::AnyPath, 0.1, &base);
        assert!(
            (warm.lambda - cold.lambda).abs() <= WARM_LAMBDA_TOLERANCE * cold.lambda,
            "warm λ {} vs cold λ {} after restore",
            warm.lambda,
            cold.lambda
        );
        // Same shape again, but the carried profile differs between the
        // planes: λ and the 1 888 refreshes are PR 16's, bit for bit.
        assert_eq!(warm.lambda.to_bits(), 0x421a_8b81_618b_bf9a);
        assert_eq!(warm.trees_built + warm.trees_shared, 1886);
        assert_eq!(warm.trees_kept, 2);
        // The restored cable must be routable again in the warm solve.
        assert!(warm.length[cable.index()].is_finite());
    }

    /// Source-0 bundle on `net` under `length`, with tree sharing as the
    /// oracle decides it (`share`) or with Dijkstra in every plane.
    fn bundle(oracle: &AnyPathOracle, net: &Network, length: &[f64], share: bool) -> PlaneTrees {
        let all = vec![true; oracle.planes.len()];
        let targets: Vec<RackId> = (1..net.n_racks() as u32).map(RackId).collect();
        let (mut w, mut sibling) = (Vec::new(), Vec::new());
        oracle.edge_weights(length, &all, &mut w);
        oracle.siblings(&w, &all, &mut sibling);
        if !share {
            sibling.fill(None);
        }
        let mut t = oracle.empty_trees();
        oracle.refresh_trees(net, HostId(0), &targets, &w, &all, &sibling, &[], &mut t);
        t
    }

    #[test]
    fn shared_tree_equals_dijkstra_on_that_plane() {
        use rand::{rngs::StdRng, RngExt, SeedableRng};
        let net = assemble_homogeneous(
            &Jellyfish::new(14, 4, 1, 3),
            3,
            &LinkProfile::paper_default(),
        );
        let oracle = AnyPathOracle::new(&net);
        assert_eq!(oracle.class, [0, 0, 0]);
        let n_edges = oracle.planes[0].n_directed_links();
        let mut rng = StdRng::seed_from_u64(11);
        // All-equal weights make every comparison a tie; small integers tie
        // often; the rest are generic.
        for round in 0..12 {
            let wts: Vec<f64> = (0..n_edges)
                .map(|_| match round {
                    0 => 1.0,
                    1..=3 => rng.random_range(1u32..4) as f64,
                    _ => rng.random_range(1e-9..1.0),
                })
                .collect();
            // Every plane gets the same CSR-order weights, on its own links.
            let mut length = vec![1.0; net.n_links()];
            for pg in &oracle.planes {
                for (pos, &x) in wts.iter().enumerate() {
                    length[pg.link_at(pos).index()] = x;
                }
            }
            let shared = bundle(&oracle, &net, &length, true);
            let built = bundle(&oracle, &net, &length, false);
            assert_eq!((shared.built, shared.shared), (1, 2));
            assert_eq!((built.built, built.shared), (3, 0));
            for (p, pg) in oracle.planes.iter().enumerate() {
                for r in 1..net.n_racks() as u32 {
                    let t = pg.tor(RackId(r));
                    let (a, b) = (shared.tree(p).0[t], built.tree(p).0[t]);
                    assert_eq!(a.to_bits(), b.to_bits(), "round {round} plane {p}");
                    let links = chain(&shared, pg, p, t);
                    assert_eq!(links, chain(&built, pg, p, t), "round {round}");
                    assert!(links.iter().all(|&l| net.link(l).plane.0 == p as u16));
                }
            }
        }
    }

    /// The links from plane `p`'s tree root to switch `v`, target first.
    fn chain(t: &PlaneTrees, pg: &PlaneGraph, p: usize, mut v: usize) -> Vec<LinkId> {
        let mut links = Vec::new();
        while t.tree(p).1[v] != NO_PARENT {
            let pv = t.tree(p).1[v];
            links.push(pg.link_at(pv as u32 as usize));
            v = (pv >> 32) as usize;
        }
        links
    }

    /// Dijkstra's answer from `s` by definition, for weights no sum absorbs
    /// (`d + w > d`, so pops come in strictly ascending (dist bits, node)
    /// order): each switch's least path sum, by Bellman–Ford to a fixpoint,
    /// and as its parent the first achiever in (dist bits, node, CSR
    /// position) order.
    fn reference_tree(pg: &PlaneGraph, w: &[f64], s: usize) -> PlaneTree {
        let n = pg.n_switches();
        let edges: Vec<(usize, usize, usize)> = (0..n)
            .flat_map(|u| {
                let start = pg.row_start(u);
                let row = pg.neighbors(u).iter().enumerate();
                row.map(move |(j, &(v, _))| (u, v as usize, start + j))
            })
            .collect();
        let mut dist = vec![f64::INFINITY; n];
        dist[s] = 0.0;
        let mut changed = true;
        while changed {
            changed = false;
            for &(u, v, pos) in &edges {
                if dist[u] + w[pos] < dist[v] {
                    dist[v] = dist[u] + w[pos];
                    changed = true;
                }
            }
        }
        let mut parent = vec![NO_PARENT; n];
        let mut first = vec![(u64::MAX, 0, 0); n];
        for &(u, v, pos) in &edges {
            let key = (dist[u].to_bits(), u, pos);
            let achieves = (dist[u] + w[pos]).to_bits() == dist[v].to_bits();
            if v != s && dist[u].is_finite() && achieves && key < first[v] {
                first[v] = key;
                parent[v] = ((u as u64) << 32) | pos as u64;
            }
        }
        (dist, parent)
    }

    #[test]
    fn refresh_trees_matches_bellman_ford_on_one_to_four_frontier_words() {
        use pnet_topology::failures;
        use rand::{rngs::StdRng, RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        // (switches, degree), on both sides of every frontier word boundary.
        for (n, degree) in [
            (2, 1),
            (3, 2),
            (9, 4),
            (63, 4),
            (64, 3),
            (65, 4),
            (128, 3),
            (129, 4),
            (193, 4),
            (200, 3),
        ] {
            let mut net = assemble_homogeneous(
                &Jellyfish::new(n, degree, 1, n as u64),
                1,
                &LinkProfile::paper_default(),
            );
            // Failed cables make the degrees uneven and may cut switches off.
            let cables = failures::fabric_cables(&net, None);
            for &c in cables.iter().skip(3).step_by(7) {
                failures::fail_cable(&mut net, c);
            }
            let oracle = AnyPathOracle::new(&net);
            let pg = &oracle.planes[0];
            // All-equal weights make every comparison a tie, small integers
            // tie often, the rest are generic; even rounds settle every
            // switch, odd rounds stop at three targets.
            for round in 0..6 {
                let length: Vec<f64> = (0..net.n_links())
                    .map(|_| match round % 3 {
                        0 => 1.0,
                        1 => rng.random_range(1u32..4) as f64,
                        _ => rng.random_range(1e-9..1.0),
                    })
                    .collect();
                let targets: Vec<RackId> = match round % 2 {
                    0 => Vec::new(),
                    _ => (0..3)
                        .map(|_| RackId(rng.random_range(0..n as u32)))
                        .collect(),
                };
                let src = HostId(rng.random_range(0..n as u32));
                let (mut w, mut t) = (Vec::new(), oracle.empty_trees());
                oracle.edge_weights(&length, &[true], &mut w);
                oracle.refresh_trees(&net, src, &targets, &w, &[true], &[None], &[], &mut t);
                let s = pg.tor(net.rack_of_host(src));
                let (want_dist, want_parent) = reference_tree(pg, &w[0], s);
                let (dist, parent) = t.tree(0);
                let read: Vec<usize> = match targets.len() {
                    0 => (0..n).collect(),
                    _ => targets.iter().map(|&r| pg.tor(r)).collect(),
                };
                for v in read {
                    let at = format!("{n} switches, round {round}, switch {v}");
                    assert_eq!(dist[v].to_bits(), want_dist[v].to_bits(), "{at}");
                    let mut cur = v;
                    while dist[cur].is_finite() && cur != s {
                        assert_eq!(parent[cur], want_parent[cur], "{at}, via {cur}");
                        cur = (parent[cur] >> 32) as usize;
                    }
                }
            }
        }
    }

    /// A plane that took a sibling's tree keeps it when the sibling is
    /// rebuilt under other weights: the rebuild moves to an unheld buffer.
    #[test]
    fn rebuilding_a_shared_tree_leaves_its_sharer_intact() {
        use rand::{rngs::StdRng, RngExt, SeedableRng};
        let net = assemble_homogeneous(
            &Jellyfish::new(14, 4, 1, 3),
            2,
            &LinkProfile::paper_default(),
        );
        let oracle = AnyPathOracle::new(&net);
        let targets: Vec<RackId> = (1..net.n_racks() as u32).map(RackId).collect();
        let mut rng = StdRng::seed_from_u64(17);
        let wts: Vec<f64> = (0..oracle.planes[0].n_directed_links())
            .map(|_| rng.random_range(1e-9..1.0))
            .collect();
        let mut length = vec![1.0; net.n_links()];
        for pg in &oracle.planes {
            for (pos, &x) in wts.iter().enumerate() {
                length[pg.link_at(pos).index()] = x;
            }
        }
        let (mut w, mut sibling, mut t) = (Vec::new(), Vec::new(), oracle.empty_trees());
        let mut refresh = |length: &[f64], dirty: &[bool], grown: &[Vec<u64>]| {
            oracle.edge_weights(length, dirty, &mut w);
            oracle.siblings(&w, dirty, &mut sibling);
            let src = HostId(0);
            oracle.refresh_trees(&net, src, &targets, &w, dirty, &sibling, grown, &mut t);
            (t.built, t.shared, t.of.clone())
        };
        assert_eq!(refresh(&length, &[true, true], &[]), (1, 1, vec![0, 0]));
        // New weights on plane 0 alone, every link of it grown.
        for l in oracle.planes[0].link_ids() {
            length[l.index()] = rng.random_range(1e-9..1.0);
        }
        let grown = vec![vec![u64::MAX; net.n_links().div_ceil(64)]; 2];
        assert_eq!(refresh(&length, &[true, false], &grown), (2, 1, vec![1, 0]));
        let fresh = bundle(&oracle, &net, &length, false);
        for (p, pg) in oracle.planes.iter().enumerate() {
            for &r in &targets {
                let v = pg.tor(r);
                assert_eq!(t.tree(p).0[v].to_bits(), fresh.tree(p).0[v].to_bits());
                assert_eq!(chain(&t, pg, p, v), chain(&fresh, pg, p, v), "plane {p}");
            }
        }
    }

    #[test]
    fn equal_cost_candidates_route_on_the_first() {
        let route = |ls: &[u32]| ls.iter().map(|&l| LinkId(l)).collect::<Vec<_>>();
        let flat = Candidates::new(&[vec![route(&[0, 1]), route(&[2, 3]), route(&[4])]]);
        // Costs 3, 3, 4 and then 4, 3, 3: the first of the cheapest wins.
        assert_eq!(flat.best(0, &[1.0, 2.0, 2.0, 1.0, 4.0]), route(&[0, 1]));
        assert_eq!(flat.best(0, &[2.0, 2.0, 2.0, 1.0, 3.0]), route(&[2, 3]));
    }

    #[test]
    fn sharing_stops_at_a_shape_or_length_difference() {
        use pnet_topology::failures;
        let mut net = assemble_homogeneous(
            &Jellyfish::new(14, 4, 1, 3),
            3,
            &LinkProfile::paper_default(),
        );
        let cable = failures::fabric_cables(&net, Some(PlaneId(1)))[0];
        failures::fail_cable(&mut net, cable);
        let oracle = AnyPathOracle::new(&net);
        assert_eq!(oracle.class, [0, 1, 0]);
        let unit = vec![1.0; net.n_links()];
        let (mut w, mut sibling) = (Vec::new(), Vec::new());
        oracle.edge_weights(&unit, &[true; 3], &mut w);
        // Only the intact planes pair up, and only the later one shares.
        oracle.siblings(&w, &[true; 3], &mut sibling);
        assert_eq!(sibling, [None, None, Some(0)]);
        // A clean plane serves a lower-numbered dirty one; a dirty one does not.
        oracle.siblings(&w, &[true, false, false], &mut sibling);
        assert_eq!(sibling, [Some(2), None, None]);
        // One differing bit anywhere in the snapshot ends it.
        let last = w[2].len() - 1;
        w[2][last] = f64::from_bits(1.0f64.to_bits() + 1);
        oracle.siblings(&w, &[true; 3], &mut sibling);
        assert_eq!(sibling, [None, None, None]);
    }

    #[test]
    fn phase_limit_is_a_typed_error() {
        let net = assemble_homogeneous(&FatTree::three_tier(4), 1, &LinkProfile::paper_default());
        let c = vec![Commodity::unit(HostId(0), HostId(15))];
        let caps = link_capacities(&net);
        let (routes, sources) = (
            Routes::new(&net, &PathMode::AnyPath),
            Sources::new(&net, &c),
        );
        let run = |max_phases| {
            let length: Vec<f64> = caps.iter().map(|&c| 1e-30 / c).collect();
            let d_sum = 1e-30 * caps.len() as f64;
            let opts = McfOptions::default();
            let (net, c, r, s) = (&net, &c, &routes, &sources);
            gk_core(
                net, c, r, s, 0.1, opts, &caps, 1e9, length, d_sum, false, max_phases,
            )
        };
        assert_eq!(run(3).err(), Some(McfError::PhaseLimit { phases: 3 }));
        assert_eq!(
            McfError::PhaseLimit { phases: 3 }.to_string(),
            "no convergence within the 3-phase limit"
        );
        // The same start converges when given room, on the limit's last
        // phase included.
        let phases = run(MAX_PHASES).expect("converges").phases;
        assert!(phases > 3);
        assert_eq!(run(phases).expect("exactly enough").phases, phases);
    }

    #[test]
    fn lambda_matches_min_rate_ratio() {
        let net = assemble_homogeneous(&FatTree::three_tier(4), 1, &LinkProfile::paper_default());
        let c = vec![
            Commodity {
                src: HostId(0),
                dst: HostId(15),
                demand: 1.0,
            },
            Commodity {
                src: HostId(1),
                dst: HostId(14),
                demand: 2.0,
            },
        ];
        let sol = solve(&net, &c, &PathMode::AnyPath, EPS);
        // λ = min_i rate_i / d_i by definition.
        let expect = (sol.rates[0] / 1.0).min(sol.rates[1] / 2.0);
        assert!((sol.lambda - expect).abs() <= expect * 1e-9);
        // Weighted fairness: commodity 1 should get ~2x commodity 0.
        let ratio = sol.rates[1] / sol.rates[0];
        assert!((ratio - 2.0).abs() < 0.5, "ratio {ratio}");
    }
}
