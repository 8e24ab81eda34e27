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
use pnet_routing::{Flow, Parallelism, Router};
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
    /// phase loop built with its Bellman–Ford kernel; sources in one rack
    /// share a kernel column but count one build each. The three counters
    /// are exact, identical under `Serial` and `Rayon`, and 0 in `Explicit`
    /// mode.
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
    /// Commodity `index` has no usable route: a `src` or `dst` that is not a
    /// host of the network; an empty `Explicit` path set, a route of no
    /// links, or routes that all cross a down link; or (AnyPath) no plane
    /// connects its endpoints under the current link state.
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
fn validate_inputs(
    net: &Network,
    commodities: &[Commodity],
    mode: &PathMode,
    eps: f64,
) -> Result<(), McfError> {
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
        if c.src.index() >= net.n_hosts() || c.dst.index() >= net.n_hosts() {
            return Err(McfError::UnroutableCommodity { index: i });
        }
    }
    if let PathMode::Explicit(routes) = mode {
        if routes.len() != commodities.len() {
            return Err(McfError::PathTableMismatch {
                paths: routes.len(),
                commodities: commodities.len(),
            });
        }
        let unroutable =
            |i| routes.routes(i).next().is_none() || routes.routes(i).any(<[LinkId]>::is_empty);
        if let Some(index) = (0..routes.len()).find(|&i| unroutable(i)) {
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
    /// Execution strategy for the batched shortest-path-tree computations
    /// (AnyPath mode). The kernel's blocks of one phase are independent
    /// given the phase-start length vector, so they fan out across threads;
    /// length updates stay sequential, so `Serial` and `Rayon` produce
    /// bit-identical solutions.
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
/// the previous link state; the current state is read from `net`). It
/// solves the capacitated problem on the default pool
/// ([`McfOptions::default`]), whatever options `warm` was solved under.
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
    validate_inputs(net, commodities, mode, eps)?;
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
    let routes = Routes::new(net, mode, &caps)?;
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

    // Persistent per-source tree bundles (AnyPath) and the kernel's working
    // set: refreshed in place each phase instead of reallocated, and one
    // route buffer serves every AnyPath push (an Explicit push reads its
    // route in place from the table).
    let (mut phase_trees, n_planes): (Vec<PlaneTrees>, usize) = match routes {
        Routes::AnyPath(oracle) => (
            (0..sources.hosts.len())
                .map(|_| oracle.empty_trees())
                .collect(),
            oracle.planes.len(),
        ),
        Routes::Explicit(..) => (Vec::new(), 0),
    };
    let mut kernel = TreeKernel::default();
    // Per-plane weight snapshot, regathered once per phase and shared by
    // every source's tree. A plane is dirty when one of its
    // fabric links grew since its last gather: pushes mark the chosen
    // plane, and clean planes skip both the gather and all their builds
    // next phase (their trees are already exactly what a recompute would
    // produce). Host attachment links never dirty a plane — they are not
    // part of the plane graphs, and `best_route_into` reads them straight
    // from `length`.
    //
    // `grown` refines the per-plane flag to a per-link bitset: a push on a
    // fabric link sets its bit alongside the plane flag, and both are
    // cleared together after the refresh. Within a dirty plane, a source
    // whose recorded shortest-path chains traverse no grown link keeps its
    // tree (see `AnyPathOracle::plan` for why that is exact).
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
        // computed against the phase-start length vector. The kernel's
        // blocks are independent, so they run in parallel (Fleischer's
        // phase framework: routing on phase-start shortest paths preserves
        // the (1-O(eps)) guarantee, and the final congestion rescale keeps
        // the primal feasible regardless). Sequential consumption below
        // keeps serial and parallel runs bit-identical.
        if let Routes::AnyPath(oracle) = routes {
            oracle.edge_weights(&length, &plane_dirty, &mut phase_w);
            oracle.siblings(&phase_w, &plane_dirty, &mut sibling);
            let snap = Snapshot {
                weights: &phase_w,
                dirty: &plane_dirty,
                sibling: &sibling,
                grown: &grown,
            };
            oracle.refresh(
                net,
                sources,
                snap,
                &mut phase_trees,
                &mut kernel,
                opts.parallelism,
            );
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
                    let (links, bottleneck) = match routes {
                        Routes::Explicit(table, bottlenecks) => {
                            let (j, r) = table.pick(i, &length);
                            (table.row(j, r), bottlenecks.of[bottlenecks.at[j] + r])
                        }
                        Routes::AnyPath(oracle) => {
                            let (c, trees) = (&commodities[i], &phase_trees[si]);
                            let slot = sources.slot[i];
                            let p = oracle
                                .best_route_into(c.src, c.dst, slot, trees, &length, &mut route)
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
                            let caps_along = route.iter().map(|&l| caps[l.index()]);
                            (&route[..], caps_along.fold(f64::INFINITY, f64::min))
                        }
                    };
                    let push = remaining.min(bottleneck);
                    for &l in links {
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
/// shortest across planes by the phase loop's tree kernel, with one tree
/// bundle per source rather than one per commodity; a commodity no plane
/// connects is [`McfError::UnroutableCommodity`]. Link state is frozen for the solve,
/// so every commodity this routes the phase loop routes too.
fn shortest_routes_unit(
    net: &Network,
    commodities: &[Commodity],
    routes: &Routes<'_>,
    sources: &Sources,
    par: Parallelism,
) -> Result<Vec<Vec<LinkId>>, McfError> {
    let oracle = match routes {
        Routes::Explicit(candidates, _) => {
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
    let mut trees: Vec<PlaneTrees> = sources.hosts.iter().map(|_| oracle.empty_trees()).collect();
    let snap = Snapshot {
        weights: &w,
        dirty: &all,
        sibling: &sibling,
        grown: &[],
    };
    oracle.refresh(
        net,
        sources,
        snap,
        &mut trees,
        &mut TreeKernel::default(),
        par,
    );
    let mut seeded = vec![None; commodities.len()];
    for (group, trees) in sources.commodities.iter().zip(&trees) {
        for &i in group {
            let (c, slot, mut route) = (&commodities[i], sources.slot[i], Vec::new());
            let found = oracle.best_route_into(c.src, c.dst, slot, trees, &unit, &mut route);
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
/// to — where the source's trees are read. Commodity `i` reads its
/// source's target `slot[i]`.
struct Sources {
    hosts: Vec<HostId>,
    commodities: Vec<Vec<usize>>,
    targets: Vec<Vec<RackId>>,
    slot: Vec<usize>,
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
            slot: vec![0; commodities.len()],
        };
        for (h, group) in by_src.into_iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            let rack = |&i: &usize| net.rack_of_host(commodities[i].dst);
            let mut targets: Vec<RackId> = group.iter().map(rack).collect();
            targets.sort_unstable();
            targets.dedup();
            for i in &group {
                let j = targets.binary_search(&rack(i));
                sources.slot[*i] = j.expect("invariant: every destination rack is a target");
            }
            sources.hosts.push(HostId(h as u32));
            sources.commodities.push(group);
            sources.targets.push(targets);
        }
        sources
    }
}

/// The `Explicit` routes of a solve, back to back in one table and grouped
/// into runs of consecutive equal-length routes, so the scorer costs a run's
/// rows side by side. Commodity `i` owns runs `first[i]..first[i + 1]`, in
/// the order its routes were given.
#[derive(Debug, Clone)]
pub struct Candidates {
    links: Vec<LinkId>,
    runs: Vec<Run>,
    first: Vec<usize>,
}

/// `count` consecutive routes of `width` links each: route `r` of the run
/// is `links[offset + r * width..][..width]`.
#[derive(Debug, Clone, Copy)]
struct Run {
    offset: usize,
    count: usize,
    width: usize,
}

/// Each `Explicit` route's bottleneck, the least capacity along it, under a
/// solve's frozen capacities: run `j`'s routes are `of[at[j]..]`.
struct Bottlenecks {
    of: Vec<f64>,
    at: Vec<usize>,
}

impl Candidates {
    /// The table of `paths`, where `paths[i]` are the routes of commodity
    /// `i`, each a full host-to-host link sequence.
    pub fn new(paths: &[Vec<Vec<LinkId>>]) -> Self {
        let mut table = Candidates {
            links: Vec::new(),
            runs: Vec::new(),
            first: vec![0],
        };
        for cands in paths {
            let own = table.runs.len();
            for route in cands {
                match table.runs[own..].last_mut() {
                    Some(run) if run.width == route.len() => run.count += 1,
                    _ => table.runs.push(Run {
                        offset: table.links.len(),
                        count: 1,
                        width: route.len(),
                    }),
                }
                table.links.extend_from_slice(route);
            }
            table.first.push(table.runs.len());
        }
        table
    }

    /// Commodities in the table.
    pub(crate) fn len(&self) -> usize {
        self.first.len() - 1
    }

    /// Route `r` of run `j`.
    fn row(&self, j: usize, r: usize) -> &[LinkId] {
        let Run { offset, width, .. } = self.runs[j];
        &self.links[offset + r * width..][..width]
    }

    /// The routes of commodity `i`, in the order given.
    pub fn routes(&self, i: usize) -> impl Iterator<Item = &[LinkId]> + '_ {
        (self.first[i]..self.first[i + 1])
            .flat_map(move |j| (0..self.runs[j].count).map(move |r| self.row(j, r)))
    }

    /// Every route's bottleneck under `caps`, or the first commodity all of
    /// whose routes cross a link of capacity 0: the phase loop would push
    /// nothing on its pick, forever.
    fn bottlenecks(&self, caps: &[f64]) -> Result<Bottlenecks, McfError> {
        let mut b = Bottlenecks {
            of: Vec::new(),
            at: Vec::with_capacity(self.runs.len()),
        };
        for (j, run) in self.runs.iter().enumerate() {
            b.at.push(b.of.len());
            b.of.extend((0..run.count).map(|r| {
                let caps_along = self.row(j, r).iter().map(|&l| caps[l.index()]);
                caps_along.fold(f64::INFINITY, f64::min)
            }));
        }
        let dead = |i: usize| {
            let routes = self.first[i]..self.first[i + 1];
            routes
                .flat_map(|j| &b.of[b.at[j]..][..self.runs[j].count])
                .all(|&c| c <= 0.0)
        };
        match (0..self.len()).find(|&i| dead(i)) {
            Some(index) => Err(McfError::UnroutableCommodity { index }),
            None => Ok(b),
        }
    }

    /// The cheapest route of commodity `i` under `length`, as (run, row): the
    /// first strict `total_cmp` minimum in route order, as the per-route
    /// oracle `best` picks it. A run's rows are costed four at a time,
    /// each in its own accumulator; every row is still the left fold from
    /// −0.0 over its links in order that `Iterator::sum` computes, so every
    /// cost, and with it the pick, is bit for bit the per-route one.
    fn pick(&self, i: usize, length: &[f64]) -> (usize, usize) {
        let mut best: Option<(f64, usize, usize)> = None;
        let mut keep = |cost: f64, j: usize, r: usize| {
            if best.is_none_or(|(b, _, _)| cost.total_cmp(&b).is_lt()) {
                best = Some((cost, j, r));
            }
        };
        for j in self.first[i]..self.first[i + 1] {
            let Run {
                offset,
                count,
                width,
            } = self.runs[j];
            let rows = &self.links[offset..offset + count * width];
            let mut quads = rows.chunks_exact(4 * width);
            for (q, quad) in quads.by_ref().enumerate() {
                let (a, rest) = quad.split_at(width);
                let (b, rest) = rest.split_at(width);
                let (c, d) = rest.split_at(width);
                let mut acc = [-0.0f64; 4];
                for (((a, b), c), d) in a.iter().zip(b).zip(c).zip(d) {
                    acc[0] += length[a.index()];
                    acc[1] += length[b.index()];
                    acc[2] += length[c.index()];
                    acc[3] += length[d.index()];
                }
                for (k, cost) in acc.into_iter().enumerate() {
                    keep(cost, j, 4 * q + k);
                }
            }
            let done = count - quads.remainder().len() / width;
            for (k, row) in quads.remainder().chunks_exact(width).enumerate() {
                keep(
                    row.iter().fold(-0.0, |s, l| s + length[l.index()]),
                    j,
                    done + k,
                );
            }
        }
        let (_, j, r) = best.expect("invariant: every commodity has a route with links");
        (j, r)
    }

    /// The per-route scorer [`Candidates::pick`] replaced, kept as its
    /// oracle: each candidate's length summed once, the first of equal
    /// minima kept.
    #[cfg(test)]
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
// AnyPath oracle: shortest-path trees over the per-plane switch graphs.
// --------------------------------------------------------------------------

use pnet_routing::PlaneGraph;

/// Parent sentinel of a tree root: `u64::MAX` cannot encode a real (node,
/// edge) pair (see [`InEdges::parent`]).
const NO_PARENT: u64 = u64::MAX;

/// Memo entry of a parent not derived yet; like [`NO_PARENT`], no real
/// (node, edge) pair packs to it.
const UNDERIVED: u64 = u64::MAX - 1;

/// Columns of one kernel block: the sources whose distances one
/// Bellman–Ford run carries side by side, one `[f64; LANES]` per switch.
const LANES: usize = 8;

/// One plane's tree as its source reads it: for the source's `j`-th target,
/// the distance `dist[j]` (+∞ when no path reaches it) and the root → target
/// chain `chain[at[j]..at[j + 1]]` (empty when unreachable) as CSR positions
/// ([`PlaneGraph::link_at`] names the links). Free of link ids, so a tree
/// means the same thing on every plane of one shape.
#[derive(Clone, Default)]
struct PlaneTree {
    dist: Vec<f64>,
    at: Vec<u32>,
    chain: Vec<u32>,
}

impl PlaneTree {
    /// The CSR positions from the root to target `j`.
    fn chain(&self, j: usize) -> &[u32] {
        &self.chain[self.at[j] as usize..self.at[j + 1] as usize]
    }
}

/// Shortest-path trees from one source host, one per plane. Persistent: a
/// build swaps in the tree the kernel wrote, and the kernel writes the next
/// one over the tree it got back, so refreshes stop allocating once warm.
///
/// Planes that share a tree share it by index: `of[p]` names the buffer
/// holding plane `p`'s tree, and a hand-off from a sibling is `of[p] =
/// of[q]`. There are as many buffers as planes, so a plane about to be
/// built while another plane reads its buffer always finds one that no
/// plane reads.
struct PlaneTrees {
    /// One tree buffer per plane.
    bufs: Vec<PlaneTree>,
    /// The buffer holding each plane's tree.
    of: Vec<usize>,
    /// Whether each plane's tree has been computed at least once — until it
    /// has, there are no recorded chains to test against grown links and the
    /// tree must be built unconditionally.
    valid: Vec<bool>,
    /// Dirty-plane refreshes of this bundle by outcome, summed over sources
    /// into [`McfSolution`]'s `trees_*` counters.
    built: u64,
    shared: u64,
    kept: u64,
}

impl PlaneTrees {
    /// Plane `p`'s tree.
    fn tree(&self, p: usize) -> &PlaneTree {
        &self.bufs[self.of[p]]
    }
}

/// What a refresh reads about the planes: the phase-start weights (see
/// [`AnyPathOracle::edge_weights`]), which planes are dirty,
/// each dirty plane's sibling (see [`AnyPathOracle::siblings`]) and each
/// plane's grown links.
#[derive(Clone, Copy)]
struct Snapshot<'a> {
    weights: &'a [Vec<f64>],
    dirty: &'a [bool],
    sibling: &'a [Option<usize>],
    grown: &'a [Vec<u64>],
}

/// A solve's route source: the caller's [`PathMode`] with the AnyPath oracle
/// built, or the `Explicit` table with its routes' bottlenecks. An `Explicit`
/// solve reads neither the plane graphs nor the uplink cache, so it does not
/// build them.
enum Routes<'a> {
    Explicit(&'a Candidates, Bottlenecks),
    AnyPath(AnyPathOracle),
}

impl<'a> Routes<'a> {
    fn new(net: &Network, mode: &'a PathMode, caps: &[f64]) -> Result<Self, McfError> {
        Ok(match mode {
            PathMode::Explicit(table) => Routes::Explicit(table, table.bottlenecks(caps)?),
            PathMode::AnyPath => Routes::AnyPath(AnyPathOracle::new(net)),
        })
    }
}

/// A plane's edges grouped by head, the order the kernel reads them in: the
/// edges into switch `v` are `start[v]..start[v + 1]`, edge `e` runs from
/// `tail[e]` and sits at CSR position `pos[e]`, and each head's edges are
/// sorted by tail and then position. A plane's weight snapshot is laid out
/// in this order (see [`AnyPathOracle::edge_weights`]).
struct InEdges {
    start: Vec<u32>,
    tail: Vec<u32>,
    pos: Vec<u32>,
}

impl InEdges {
    fn new(pg: &PlaneGraph) -> Self {
        let n = pg.n_switches();
        let mut start = vec![0u32; n + 1];
        for u in 0..n {
            for &(v, _) in pg.neighbors(u) {
                start[v as usize + 1] += 1;
            }
        }
        for i in 1..=n {
            start[i] += start[i - 1];
        }
        // Tails ascend and each row's positions ascend, so every head's
        // edges come out sorted without a sort.
        let mut cursor = start[..n].to_vec();
        let (mut tail, mut pos) = (vec![0u32; start[n] as usize], vec![0u32; start[n] as usize]);
        for u in 0..n {
            let row = pg.row_start(u);
            for (j, &(v, _)) in pg.neighbors(u).iter().enumerate() {
                let e = &mut cursor[v as usize];
                (tail[*e as usize], pos[*e as usize]) = (u as u32, (row + j) as u32);
                *e += 1;
            }
        }
        InEdges { start, tail, pos }
    }

    /// The edges into switch `v`.
    #[inline]
    fn of(&self, v: usize) -> std::ops::Range<usize> {
        self.start[v] as usize..self.start[v + 1] as usize
    }

    /// The parent that edge `e` makes, packed `(tail) << 32 | CSR position`
    /// in one word.
    fn parent(&self, e: usize) -> u64 {
        ((self.tail[e] as u64) << 32) | self.pos[e] as u64
    }
}

/// One tree the plan pass queued: `source`'s tree in `plane`, to be written
/// into buffer `buf`.
#[derive(Clone, Copy)]
struct Build {
    plane: usize,
    source: usize,
    buf: usize,
}

/// Up to [`LANES`] columns of one plane, each the distances from one root
/// switch: the unit the kernel fans out.
#[derive(Default)]
struct Block {
    plane: usize,
    /// Root switch of each used lane.
    roots: Vec<usize>,
    /// Distance of each switch, one lane per column.
    dist: Vec<[f64; LANES]>,
    /// Packed parent (see [`InEdges::parent`]) of each switch per lane,
    /// [`UNDERIVED`] off the chains read.
    parent: Vec<[u64; LANES]>,
    /// The builds this block serves, each with its lane.
    members: Vec<(usize, Build)>,
    /// Each member's tree, written by the fan-out and swapped into the
    /// member's buffer after it.
    out: Vec<PlaneTree>,
}

/// The tree kernel's working set, kept across phases so that a refresh
/// allocates nothing once it has seen its largest phase.
#[derive(Default)]
struct TreeKernel {
    builds: Vec<Build>,
    /// Blocks; the first `n_blocks` are this refresh's.
    blocks: Vec<Block>,
    n_blocks: usize,
    /// Kernel column of each (plane, root switch) pair — block `c / LANES`,
    /// lane `c % LANES` — or `usize::MAX`.
    column_of: Vec<usize>,
    /// The block of each plane still taking columns.
    open: Vec<Option<usize>>,
}

#[cfg(test)]
thread_local! {
    /// Plateau replays run on this thread (see [`Block::replay`]).
    static REPLAYS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

impl Block {
    /// Distances from every lane's root to every switch under weights `w`
    /// (in [`InEdges`] order): Gauss–Seidel Bellman–Ford, sweeping the
    /// switches in index order until a sweep lowers nothing. The fixpoint is
    /// Dijkstra's distance bit for bit. Float addition is monotone and never
    /// ends below its left operand, so Dijkstra settles each switch at the
    /// least left fold `(…((0 + w₁) + w₂) …)` over all paths, and relaxing
    /// in any order from +∞ ends at that same least value.
    fn relax(&mut self, ins: &InEdges, w: &[f64]) {
        let n = ins.start.len() - 1;
        let Block {
            roots,
            dist,
            parent,
            ..
        } = self;
        dist.clear();
        dist.resize(n, [f64::INFINITY; LANES]);
        parent.clear();
        parent.resize(n, [UNDERIVED; LANES]);
        for (lane, &s) in roots.iter().enumerate() {
            dist[s][lane] = 0.0;
            parent[s][lane] = NO_PARENT;
        }
        loop {
            let mut lowered = false;
            for v in 0..n {
                let (tails, ws) = (&ins.tail[ins.of(v)], &w[ins.of(v)]);
                let mut d = dist[v];
                for (&u, &wt) in tails.iter().zip(ws) {
                    for (dl, &ul) in d.iter_mut().zip(&dist[u as usize]) {
                        let nd = ul + wt;
                        *dl = if nd < *dl { nd } else { *dl };
                    }
                }
                lowered |= d.iter().zip(&dist[v]).any(|(new, old)| new < old);
                dist[v] = d;
            }
            if !lowered {
                return;
            }
        }
    }

    /// Append switch `t`'s distance in `lane` and its chain up from the root
    /// to `tree`, deriving the parents on the way that are not derived yet.
    fn chain_into(
        &mut self,
        ins: &InEdges,
        w: &[f64],
        lane: usize,
        t: usize,
        tree: &mut PlaneTree,
    ) {
        let (start, mut v) = (tree.chain.len(), t);
        while self.dist[v][lane].is_finite() {
            if self.parent[v][lane] == UNDERIVED {
                self.parent[v][lane] = self.parent_of(ins, w, lane, v);
            }
            let pv = self.parent[v][lane];
            if pv == NO_PARENT {
                break;
            }
            tree.chain.push(pv as u32);
            v = (pv >> 32) as usize;
            debug_assert!(
                tree.chain.len() - start < self.dist.len(),
                "chains end at the root"
            );
        }
        tree.chain[start..].reverse();
        tree.dist.push(self.dist[t][lane]);
        tree.at.push(tree.chain.len() as u32);
    }

    /// Dijkstra's parent of the reachable, non-root switch `v` in `lane`.
    ///
    /// Dijkstra keeps the first relaxation that reaches `v`'s final
    /// distance, so its parent is the achiever — an edge `u → v` with
    /// `dist[u] + w == dist[v]` — that pops first, and the least position
    /// among that node's edges. Pops come in ascending `(dist bits, node)`
    /// order, with one exception: within a plateau of equal distances, a
    /// switch whose every achiever sits on the plateau itself (the edge's
    /// weight is absorbed, `D + w == D`) joins the frontier only when one of
    /// them pops, and may then pop after a higher-numbered switch. So the
    /// least `(dist bits, u, position)` achiever is the parent unless
    /// another node ties it on distance and the winner is such a switch;
    /// then [`Block::replay`] reproduces the plateau's pops.
    fn parent_of(&self, ins: &InEdges, w: &[f64], lane: usize, v: usize) -> u64 {
        let dist = |x: u32| self.dist[x as usize][lane].to_bits();
        let mut best: Option<(u64, usize)> = None;
        let mut tie = false;
        for e in ins.of(v).filter(|&e| self.achieves(ins, w, lane, e, v)) {
            let du = dist(ins.tail[e]);
            match best {
                Some((bd, b)) if du > bd || (du == bd && ins.tail[e] == ins.tail[b]) => {}
                Some((bd, _)) if du == bd => tie = true,
                _ => (best, tie) = (Some((du, e)), false),
            }
        }
        let (bd, b) = best.expect("invariant: a reachable switch has an achiever");
        if tie && !self.entered(ins, w, lane, ins.tail[b] as usize) {
            self.replay(ins, w, lane, v, bd)
        } else {
            ins.parent(b)
        }
    }

    /// Whether edge `e`, into `v`, achieves `v`'s distance.
    #[inline]
    fn achieves(&self, ins: &InEdges, w: &[f64], lane: usize, e: usize, v: usize) -> bool {
        let du = self.dist[ins.tail[e] as usize][lane];
        du.is_finite() && (du + w[e]).to_bits() == self.dist[v][lane].to_bits()
    }

    /// Whether switch `u` is on Dijkstra's frontier at its distance before
    /// any switch of that distance pops: it is the root, or an edge from a
    /// strictly nearer switch achieves its distance.
    fn entered(&self, ins: &InEdges, w: &[f64], lane: usize, u: usize) -> bool {
        let du = self.dist[u][lane];
        u == self.roots[lane]
            || ins.of(u).any(|e| {
                self.dist[ins.tail[e] as usize][lane] < du && self.achieves(ins, w, lane, e, u)
            })
    }

    /// `v`'s parent among its achievers at distance bits `bd`, by replaying
    /// Dijkstra's pops on that plateau: the frontier starts with the
    /// plateau's [entered](Block::entered) switches, each pop takes the
    /// least-numbered one, and a switch joins once an absorbed edge from a
    /// popped one reaches it.
    fn replay(&self, ins: &InEdges, w: &[f64], lane: usize, v: usize, bd: u64) -> u64 {
        #[cfg(test)]
        REPLAYS.with(|r| r.set(r.get() + 1));
        let on = |x: usize| self.dist[x][lane].to_bits() == bd;
        let plateau: Vec<usize> = (0..self.dist.len()).filter(|&x| on(x)).collect();
        let mut rank = vec![usize::MAX; self.dist.len()];
        for r in 0..plateau.len() {
            let joined = |y: usize| {
                self.entered(ins, w, lane, y)
                    || ins.of(y).any(|e| {
                        rank[ins.tail[e] as usize] < r && self.achieves(ins, w, lane, e, y)
                    })
            };
            let Some(&x) = plateau
                .iter()
                .find(|&&y| rank[y] == usize::MAX && joined(y))
            else {
                break;
            };
            rank[x] = r;
        }
        let first = ins
            .of(v)
            .filter(|&e| on(ins.tail[e] as usize) && self.achieves(ins, w, lane, e, v))
            .min_by_key(|&e| (rank[ins.tail[e] as usize], ins.pos[e]))
            .expect("invariant: the tied achievers are on the plateau");
        ins.parent(first)
    }
}

struct AnyPathOracle {
    planes: Vec<PlaneGraph>,
    /// Each plane's in-edges, for the tree kernel.
    ins: Vec<InEdges>,
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
        let ins = planes.iter().map(InEdges::new).collect();
        let mut uplinks = Vec::with_capacity(net.n_hosts() * n_planes);
        for h in 0..net.n_hosts() {
            for p in 0..n_planes {
                uplinks.push(net.host_uplink(HostId(h as u32), PlaneId(p as u16)));
            }
        }
        AnyPathOracle {
            planes,
            ins,
            class,
            uplinks,
            n_planes,
        }
    }

    #[inline]
    fn uplink(&self, h: HostId, p: usize) -> Option<LinkId> {
        self.uplinks[h.index() * self.n_planes + p]
    }

    /// Empty tree bundle for this oracle, to be filled by
    /// [`AnyPathOracle::refresh`].
    fn empty_trees(&self) -> PlaneTrees {
        PlaneTrees {
            bufs: vec![PlaneTree::default(); self.n_planes],
            of: (0..self.n_planes).collect(),
            valid: vec![false; self.planes.len()],
            built: 0,
            shared: 0,
            kept: 0,
        }
    }

    /// Gather `length` into per-plane weight arrays in [`InEdges`] order.
    /// Every kernel block of a phase then streams the weights beside the
    /// edges it walks instead of chasing `length[link.index()]` — one gather
    /// per plane per phase, shared by all sources. Values are copied
    /// verbatim, so sums are bit-identical. Planes whose `dirty` flag is
    /// unset kept their previous weights and are skipped.
    fn edge_weights(&self, length: &[f64], dirty: &[bool], out: &mut Vec<Vec<f64>>) {
        out.resize(self.planes.len(), Vec::new());
        for (((pg, ins), w), _) in (self.planes.iter().zip(&self.ins))
            .zip(out.iter_mut())
            .zip(dirty)
            .filter(|&(_, &d)| d)
        {
            w.clear();
            w.extend(
                ins.pos
                    .iter()
                    .map(|&pos| length[pg.link_at(pos as usize).index()]),
            );
        }
    }

    /// For every dirty plane `p`, name a plane `q` whose trees `p` may share
    /// instead of building its own: `q` has `p`'s shape, holds a snapshot
    /// equal to `p`'s in every bit, and its trees are current for that
    /// snapshot — `q` is clean, or `q < p` and so refreshed before `p` in
    /// the same pass. Sharing is exact: a plane's tree is a function of
    /// (shape, CSR-order weights, source ToR) — distances are least path
    /// sums, parents follow pop order and CSR position, and no link id is
    /// compared — so equal inputs give equal distances and equal parent
    /// *positions*, and a tree `q` kept rather than rebuilt is observably a
    /// rebuilt one (see [`AnyPathOracle::plan`]). Planes that differ in
    /// shape or lengths (heterogeneous fabrics, a failed cable, a warm
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

    /// Refresh every source's trees (`trees[i]` is source `i`'s) for the
    /// phase-start weights in `snap`, in three steps:
    ///
    /// 1. [`AnyPathOracle::plan`] decides, source by source, which dirty
    ///    planes keep, share or build their tree, and queues each build.
    /// 2. Each plane gets one kernel column per distinct source ToR among
    ///    its builds — the hosts of a rack share one — and each block of up
    ///    to [`LANES`] columns runs [`Block::relax`], then writes each
    ///    build's tree, every target's distance and chain, by
    ///    [`Block::chain_into`]. Blocks are independent, so they fan out
    ///    under `par`.
    /// 3. Each build's tree is swapped into its buffer.
    fn refresh(
        &self,
        net: &Network,
        sources: &Sources,
        snap: Snapshot<'_>,
        trees: &mut [PlaneTrees],
        kernel: &mut TreeKernel,
        par: Parallelism,
    ) {
        let TreeKernel {
            builds,
            blocks,
            n_blocks,
            column_of,
            open,
        } = kernel;
        builds.clear();
        for (source, t) in trees.iter_mut().enumerate() {
            self.plan(snap, t, |plane, buf| {
                builds.push(Build { plane, source, buf })
            });
        }
        let max_n = self.planes.iter().map(PlaneGraph::n_switches).max();
        let max_n = max_n.unwrap_or(0);
        column_of.clear();
        column_of.resize(self.n_planes * max_n, usize::MAX);
        open.clear();
        open.resize(self.n_planes, None);
        *n_blocks = 0;
        for &b in builds.iter() {
            let root = self.planes[b.plane].tor(net.rack_of_host(sources.hosts[b.source]));
            let column = &mut column_of[b.plane * max_n + root];
            if *column == usize::MAX {
                let k = match open[b.plane] {
                    Some(k) if blocks[k].roots.len() < LANES => k,
                    _ => {
                        if blocks.len() == *n_blocks {
                            blocks.push(Block::default());
                        }
                        let fresh = &mut blocks[*n_blocks];
                        fresh.plane = b.plane;
                        fresh.roots.clear();
                        fresh.members.clear();
                        open[b.plane] = Some(*n_blocks);
                        *n_blocks += 1;
                        *n_blocks - 1
                    }
                };
                *column = k * LANES + blocks[k].roots.len();
                blocks[k].roots.push(root);
            }
            blocks[*column / LANES].members.push((*column % LANES, b));
        }
        par.update_indexed(&mut blocks[..*n_blocks], |_, k| {
            let (pg, ins, w) = (
                &self.planes[k.plane],
                &self.ins[k.plane],
                &snap.weights[k.plane],
            );
            k.relax(ins, w);
            let n_out = k.out.len().max(k.members.len());
            k.out.resize_with(n_out, PlaneTree::default);
            for m in 0..k.members.len() {
                let ((lane, b), mut tree) = (k.members[m], std::mem::take(&mut k.out[m]));
                tree.dist.clear();
                tree.chain.clear();
                tree.at.clear();
                tree.at.push(0);
                for &r in &sources.targets[b.source] {
                    k.chain_into(ins, w, lane, pg.tor(r), &mut tree);
                }
                k.out[m] = tree;
            }
        });
        for k in &mut blocks[..*n_blocks] {
            for (&(_, b), tree) in k.members.iter().zip(&mut k.out) {
                std::mem::swap(&mut trees[b.source].bufs[b.buf], tree);
            }
        }
    }

    /// Decide what each plane's tree in the source bundle `out` does this
    /// refresh, and hand every tree to build, with the buffer it goes to, to
    /// `queue`.
    ///
    /// Planes whose `dirty` flag is unset are skipped entirely: their
    /// weights match the previous refresh, so their trees already hold
    /// exactly what recomputing would produce.
    ///
    /// Within a dirty plane, `grown[p]` (a bitset over link ids: the links
    /// whose length grew since the plane's last gather) refines the skip to
    /// *per source*: if none of the tree's chains traverses a grown link,
    /// the tree is kept. This is exact, not approximate: lengths only grow
    /// within a solve, so the chains — untouched by the delta — still
    /// achieve their old distances while every other path can only have
    /// gotten longer, and an unreachable target (empty chain) stays
    /// unreachable, as growth never severs or adds links. The chains are
    /// also reproduced bit-for-bit by a rebuild: a rival same-distance
    /// achiever would have to pop no later than the recorded parent to
    /// displace it, but growth can only move rivals' keys (and hence their
    /// pops) later, never earlier.
    ///
    /// A dirty plane whose tree is not kept takes plane `sibling[p]`'s
    /// buffer when there is one (see [`AnyPathOracle::siblings`]), and is
    /// built otherwise.
    fn plan(&self, snap: Snapshot<'_>, out: &mut PlaneTrees, mut queue: impl FnMut(usize, usize)) {
        let PlaneTrees {
            bufs,
            of,
            valid,
            built,
            shared,
            kept,
        } = out;
        for (p, pg) in self.planes.iter().enumerate() {
            if !snap.dirty[p] {
                continue;
            }
            if valid[p] {
                let g = &snap.grown[p];
                let grown = |&pos: &u32| {
                    let e = pg.link_at(pos as usize).index();
                    g[e >> 6] & (1u64 << (e & 63)) != 0
                };
                if !bufs[of[p]].chain.iter().any(grown) {
                    *kept += 1;
                    continue;
                }
            }
            valid[p] = true;
            if let Some(q) = snap.sibling[p].filter(|&q| valid[q]) {
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
            queue(p, of[p]);
        }
    }

    /// Best full route `src -> dst` across all planes given the source's
    /// trees, where `dst`'s rack is the source's target `slot`, written into
    /// `route` (cleared first); returns the chosen plane's index, or `None`
    /// when no plane connects the two hosts. Falls back across planes where
    /// a host lacks an uplink.
    fn best_route_into(
        &self,
        src: HostId,
        dst: HostId,
        slot: usize,
        trees: &PlaneTrees,
        length: &[f64],
        route: &mut Vec<LinkId>,
    ) -> Option<usize> {
        let mut best: Option<(f64, usize, LinkId, LinkId)> = None;
        for p in 0..self.n_planes {
            let (Some(up), Some(down)) = (
                self.uplink(src, p),
                self.uplink(dst, p).map(|l| l.reverse()),
            ) else {
                continue;
            };
            let dist = trees.tree(p).dist[slot];
            if dist.is_infinite() {
                continue;
            }
            let total = length[up.index()] + dist + length[down.index()];
            if best.is_none_or(|(b, ..)| total < b) {
                best = Some((total, p, up, down));
            }
        }
        let (_, p, up, down) = best?;
        let (pg, chain) = (&self.planes[p], trees.tree(p).chain(slot));
        route.clear();
        route.push(up);
        route.extend(chain.iter().map(|&pos| pg.link_at(pos as usize)));
        route.push(down);
        Some(p)
    }
}

/// Explicit K-path mode across all planes (the MPTCP + KSP configuration):
/// commodity `i` gets [`Router::subflows`] of flow `i` ([`commodity_routes`]).
pub fn ksp_mode(net: &Network, router: &Router, commodities: &[Commodity], k: usize) -> PathMode {
    let par = Parallelism::default();
    let paths = commodity_routes(net, router, commodities, par, |_, flow| {
        router.subflows(flow, k)
    });
    PathMode::Explicit(Candidates::new(&paths))
}

/// Every commodity's routes by one path-choice rule (`pnet_routing::choice`):
/// `rule(i, flow)` for commodity `i` as flow id `i`, so a commodity gets the
/// routes the host selector picks for that flow. The router's table is
/// filled for the commodities' inter-rack pairs in bulk first; the rule then
/// fans out over commodities under `par`, a pure function of the frozen
/// table and the index, so any thread count returns the same vector.
pub fn commodity_routes<R: Send>(
    net: &Network,
    router: &Router,
    commodities: &[Commodity],
    par: Parallelism,
    rule: impl Fn(usize, Flow<'_>) -> R + Sync,
) -> Vec<R> {
    router.precompute_with(&inter_rack_pairs(net, commodities), par);
    par.map_indexed(commodities.len(), |i| {
        let c = &commodities[i];
        rule(i, Flow::new(net, c.src, c.dst, i as u64))
    })
}

/// Distinct inter-rack (src, dst) rack pairs of a commodity list, in first-
/// appearance order: [`commodity_routes`]' precompute work-list.
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
    use pnet_routing::{host_route, RouteAlgo};
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
        // A `src` or `dst` that is not a host is refused in both modes, cold
        // and warm, before anything indexes the host tables with it.
        let routes = host_routes(&net, &c[0]);
        let explicit = PathMode::Explicit(Candidates::new(&[routes.clone(), routes]));
        for stray in [
            Commodity::unit(HostId(16), HostId(1)),
            Commodity::unit(HostId(1), HostId(16)),
        ] {
            let two = [c[0], stray];
            for mode in [&PathMode::AnyPath, &explicit] {
                let unroutable = Some(McfError::UnroutableCommodity { index: 1 });
                assert_eq!(try_solve(&net, &two, mode, EPS, OPTS).err(), unroutable);
                assert_eq!(
                    try_solve_warm(&net, &two, mode, EPS, &warm).err(),
                    unroutable
                );
            }
        }
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
                let route = |p| host_route(&net, cm.src, cm.dst, p);
                set.iter().filter_map(route).collect()
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

    /// `src` alone, reading `targets`, grouped as a solve groups sources.
    fn one_source(src: HostId, targets: &[RackId]) -> Sources {
        Sources {
            hosts: vec![src],
            commodities: vec![Vec::new()],
            targets: vec![targets.to_vec()],
            slot: Vec::new(),
        }
    }

    /// Source-0 bundle on `net` under `length`, with tree sharing as the
    /// oracle decides it (`share`) or with a build in every plane.
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
        let snap = Snapshot {
            weights: &w,
            dirty: &all,
            sibling: &sibling,
            grown: &[],
        };
        let (sources, serial) = (one_source(HostId(0), &targets), Parallelism::Serial);
        let mut kernel = TreeKernel::default();
        oracle.refresh(
            net,
            &sources,
            snap,
            std::slice::from_mut(&mut t),
            &mut kernel,
            serial,
        );
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
                for j in 0..net.n_racks() - 1 {
                    let (a, b) = (shared.tree(p).dist[j], built.tree(p).dist[j]);
                    assert_eq!(a.to_bits(), b.to_bits(), "round {round} plane {p}");
                    let links = chain(&shared, pg, p, j);
                    assert_eq!(links, chain(&built, pg, p, j), "round {round}");
                    assert!(links.iter().all(|&l| net.link(l).plane.0 == p as u16));
                }
            }
        }
    }

    /// The links from plane `p`'s tree root to the source's target `j`.
    fn chain(t: &PlaneTrees, pg: &PlaneGraph, p: usize, j: usize) -> Vec<LinkId> {
        let positions = t.tree(p).chain(j).iter();
        positions.map(|&pos| pg.link_at(pos as usize)).collect()
    }

    /// Dijkstra from switch `s` under CSR-order weights `w`: every switch's
    /// distance and packed parent ([`InEdges::parent`]). The solver's tree
    /// builder before the blocked Bellman–Ford replaced it, kept as the
    /// oracle the kernel must match. The frontier is a bitset, and a pop
    /// takes the least `(dist bits, switch)` — a heap's order.
    fn dijkstra(pg: &PlaneGraph, w: &[f64], s: usize) -> (Vec<f64>, Vec<u64>) {
        let n = pg.n_switches();
        let (mut dist, mut parent) = (vec![f64::INFINITY; n], vec![NO_PARENT; n]);
        dist[s] = 0.0;
        let mut front = vec![0u64; n.div_ceil(64)];
        front[s >> 6] = 1 << (s & 63);
        loop {
            let (mut u, mut du) = (usize::MAX, u64::MAX);
            for (i, &word) in front.iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let v = (i << 6) | bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    if dist[v].to_bits() < du {
                        (u, du) = (v, dist[v].to_bits());
                    }
                }
            }
            if u == usize::MAX {
                return (dist, parent);
            }
            front[u >> 6] &= !(1 << (u & 63));
            let start = pg.row_start(u);
            for (j, &(v, _)) in pg.neighbors(u).iter().enumerate() {
                let (v, nd) = (v as usize, f64::from_bits(du) + w[start + j]);
                if nd < dist[v] {
                    dist[v] = nd;
                    parent[v] = ((u as u64) << 32) | (start + j) as u64;
                    front[v >> 6] |= 1 << (v & 63);
                }
            }
        }
    }

    /// The kernel against [`dijkstra`] where sums absorb (`d + w == d`):
    /// there a plateau's pops leave index order, and only the replay finds
    /// the parents. Every lane's distance to every switch must be
    /// Dijkstra's bit for bit, and every stored chain Dijkstra's parent
    /// walk. Planes of 2 to 200 switches with failed cables; 1, 7, 8, 9 and
    /// 17 source racks, so blocks fill, spill and run part-empty; the hosts
    /// of a rack share a column, the even ones reading every rack and the
    /// odd ones three; one kernel for every refresh, as in a solve.
    #[test]
    fn tree_kernel_matches_dijkstra_where_sums_absorb() {
        use pnet_topology::failures;
        use rand::{rngs::StdRng, seq::SliceRandom, RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        let mut kernel = TreeKernel::default();
        let replays = REPLAYS.with(|r| r.get());
        // (switches, degree, hosts per rack)
        for (n, degree, hosts) in [
            (2, 1, 3),
            (3, 2, 2),
            (9, 4, 3),
            (17, 4, 2),
            (40, 5, 3),
            (64, 3, 1),
            (65, 4, 2),
            (129, 4, 1),
            (200, 3, 1),
        ] {
            let mut net = assemble_homogeneous(
                &Jellyfish::new(n, degree, hosts, n as u64),
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
            let racks: Vec<RackId> = (0..n as u32).map(RackId).collect();
            // All-equal weights make every comparison a tie, small integers
            // tie often, log-uniform ones rarely; the last two absorb.
            for mix in 0..5 {
                let length: Vec<f64> = (0..net.n_links())
                    .map(|_| match mix {
                        0 => 1.0,
                        1 => rng.random_range(1u32..4) as f64,
                        2 => 10f64.powf(rng.random_range(-40.0..0.0)),
                        3 => [1e-30, 1.0][rng.random_range(0..2usize)],
                        _ => [1e-30, 1.0, 2.0][rng.random_range(0..3usize)],
                    })
                    .collect();
                let csr: Vec<f64> = (0..pg.n_directed_links())
                    .map(|pos| length[pg.link_at(pos).index()])
                    .collect();
                let (mut w, mut sibling) = (Vec::new(), Vec::new());
                oracle.edge_weights(&length, &[true], &mut w);
                oracle.siblings(&w, &[true], &mut sibling);
                for columns in [1, 7, 8, 9, 17] {
                    let mut chosen = racks.clone();
                    chosen.shuffle(&mut rng);
                    chosen.truncate(columns);
                    let mut sources = Sources {
                        hosts: Vec::new(),
                        commodities: Vec::new(),
                        targets: Vec::new(),
                        slot: Vec::new(),
                    };
                    let in_rack = |h: &u32, r| net.rack_of_host(HostId(*h)) == r;
                    for &r in &chosen {
                        for h in (0..net.n_hosts() as u32).filter(|h| in_rack(h, r)) {
                            let targets = match h % 2 {
                                0 => racks.clone(),
                                _ => (0..3).map(|_| racks[rng.random_range(0..n)]).collect(),
                            };
                            sources.hosts.push(HostId(h));
                            sources.commodities.push(Vec::new());
                            sources.targets.push(targets);
                        }
                    }
                    let mut trees: Vec<PlaneTrees> =
                        sources.hosts.iter().map(|_| oracle.empty_trees()).collect();
                    let snap = Snapshot {
                        weights: &w,
                        dirty: &[true],
                        sibling: &sibling,
                        grown: &[],
                    };
                    let serial = Parallelism::Serial;
                    oracle.refresh(&net, &sources, snap, &mut trees, &mut kernel, serial);
                    let at = |v| format!("{n} switches, mix {mix}, {columns} columns, switch {v}");
                    for k in &kernel.blocks[..kernel.n_blocks] {
                        for (lane, &s) in k.roots.iter().enumerate() {
                            let (want_dist, _) = dijkstra(pg, &csr, s);
                            for (v, d) in k.dist.iter().enumerate() {
                                assert_eq!(d[lane].to_bits(), want_dist[v].to_bits(), "{}", at(v));
                            }
                        }
                    }
                    for (si, t) in trees.iter().enumerate() {
                        assert_eq!(t.built, 1);
                        let s = pg.tor(net.rack_of_host(sources.hosts[si]));
                        let (want_dist, want_parent) = dijkstra(pg, &csr, s);
                        for (j, &r) in sources.targets[si].iter().enumerate() {
                            let v = pg.tor(r);
                            let dist = t.tree(0).dist[j];
                            assert_eq!(dist.to_bits(), want_dist[v].to_bits(), "{}", at(v));
                            let (mut want, mut cur) = (Vec::new(), v);
                            while want_dist[cur].is_finite() && cur != s {
                                want.push(want_parent[cur] as u32);
                                cur = (want_parent[cur] >> 32) as usize;
                            }
                            want.reverse();
                            assert_eq!(t.tree(0).chain(j), want, "{}", at(v));
                        }
                    }
                }
            }
        }
        assert!(
            REPLAYS.with(|r| r.get()) > replays,
            "no plateau was replayed"
        );
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
        let (sources, mut kernel) = (one_source(HostId(0), &targets), TreeKernel::default());
        let mut refresh = |length: &[f64], dirty: &[bool], grown: &[Vec<u64>]| {
            oracle.edge_weights(length, dirty, &mut w);
            oracle.siblings(&w, dirty, &mut sibling);
            let snap = Snapshot {
                weights: &w,
                dirty,
                sibling: &sibling,
                grown,
            };
            let (trees, serial) = (std::slice::from_mut(&mut t), Parallelism::Serial);
            oracle.refresh(&net, &sources, snap, trees, &mut kernel, serial);
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
            for j in 0..targets.len() {
                assert_eq!(t.tree(p).dist[j].to_bits(), fresh.tree(p).dist[j].to_bits());
                assert_eq!(chain(&t, pg, p, j), chain(&fresh, pg, p, j), "plane {p}");
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
        assert_eq!(flat.pick(0, &[1.0, 2.0, 2.0, 1.0, 4.0]), (0, 0));
        assert_eq!(flat.pick(0, &[2.0, 2.0, 2.0, 1.0, 3.0]), (0, 1));
    }

    /// A random candidate table: 1 to 70 routes per commodity of 1 to 8 links
    /// each, the next route as long as the last one half the time, so runs
    /// of every size from 1 up occur; links drawn from a small pool, so
    /// routes repeat and costs tie. A quarter of the routes are the last
    /// one's links reordered, whose cost differs only where addition
    /// rounds.
    fn random_table(rng: &mut rand::rngs::StdRng, n_links: u32) -> Vec<Vec<Vec<LinkId>>> {
        use rand::{seq::SliceRandom, RngExt};
        (0..rng.random_range(1usize..4))
            .map(|_| {
                let mut routes: Vec<Vec<LinkId>> = Vec::new();
                let mut width = rng.random_range(1usize..9);
                for _ in 0..rng.random_range(1usize..71) {
                    if let Some(last) = routes.last().filter(|_| rng.random_bool(0.25)) {
                        let mut reordered = last.clone();
                        reordered.shuffle(rng);
                        routes.push(reordered);
                        continue;
                    }
                    if rng.random_bool(0.5) {
                        width = rng.random_range(1usize..9);
                    }
                    routes.push(
                        (0..width)
                            .map(|_| LinkId(rng.random_range(0..n_links)))
                            .collect(),
                    );
                }
                routes
            })
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// The run scorer picks the very route the per-route oracle picks,
        /// over lengths of +0.0, small integers, log-uniform values from
        /// 1e-40 to 1 and +∞, alone or mixed.
        #[test]
        fn run_scorer_picks_as_the_per_route_oracle(seed: u64) {
            use rand::{rngs::StdRng, RngExt, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let n_links = rng.random_range(4u32..24);
            let table = Candidates::new(&random_table(&mut rng, n_links));
            for _ in 0..16 {
                let kinds = rng.random_range(1u32..16);
                let length: Vec<f64> = (0..n_links)
                    .map(|_| loop {
                        let kind = rng.random_range(0u32..4);
                        if kinds & (1 << kind) != 0 {
                            break match kind {
                                0 => 0.0,
                                1 => rng.random_range(1u32..4) as f64,
                                2 => 10f64.powf(rng.random_range(-40.0..0.0)),
                                _ => f64::INFINITY,
                            };
                        }
                    })
                    .collect();
                for i in 0..table.len() {
                    let (j, r) = table.pick(i, &length);
                    let (got, want) = (table.row(j, r), table.best(i, &length));
                    let same = std::ptr::eq(got, want);
                    proptest::prop_assert!(same, "commodity {i}: {got:?} for {want:?}");
                }
            }
        }
    }

    /// A fat-tree commodity's KSP routes, full host to host.
    fn host_routes(net: &Network, c: &Commodity) -> Vec<Vec<LinkId>> {
        let router = Router::new(net, RouteAlgo::Ksp { k: 4 });
        let (a, b) = (net.rack_of_host(c.src), net.rack_of_host(c.dst));
        let paths = router.k_best_across_planes(a, b, 4);
        let route = |p| host_route(net, c.src, c.dst, p);
        paths.iter().filter_map(route).collect()
    }

    #[test]
    fn a_route_of_no_links_is_unroutable() {
        let net = assemble_homogeneous(&FatTree::three_tier(4), 1, &LinkProfile::paper_default());
        let c = vec![
            Commodity::unit(HostId(0), HostId(15)),
            Commodity::unit(HostId(1), HostId(14)),
        ];
        let mut paths: Vec<_> = c.iter().map(|c| host_routes(&net, c)).collect();
        let solve = |paths: &[Vec<Vec<LinkId>>]| {
            let mode = PathMode::Explicit(Candidates::new(paths));
            try_solve(&net, &c, &mode, EPS, OPTS)
        };
        assert!(solve(&paths).is_ok());
        paths[1].push(Vec::new());
        assert_eq!(
            solve(&paths).err(),
            Some(McfError::UnroutableCommodity { index: 1 })
        );
        paths[0].insert(0, Vec::new());
        assert_eq!(
            solve(&paths).err(),
            Some(McfError::UnroutableCommodity { index: 0 })
        );
    }

    /// A commodity whose every candidate crosses a down link would be pushed
    /// nothing on its pick, phase after phase; one live candidate is enough.
    #[test]
    fn candidates_all_through_a_down_link_are_unroutable() {
        use pnet_topology::failures;
        let mut net =
            assemble_homogeneous(&FatTree::three_tier(4), 1, &LinkProfile::paper_default());
        let c = vec![Commodity::unit(HostId(0), HostId(15))];
        let routes = host_routes(&net, &c[0]);
        let (dead, cut) = (routes[0].clone(), routes[0][1]);
        let live = routes
            .iter()
            .find(|r| !r.contains(&cut))
            .expect("a route avoids the cut");
        failures::fail_cable(&mut net, cut);
        let solve = |paths: Vec<Vec<LinkId>>| {
            let mode = PathMode::Explicit(Candidates::new(&[paths]));
            try_solve(&net, &c, &mode, EPS, OPTS)
        };
        assert_eq!(
            solve(vec![dead.clone()]).err(),
            Some(McfError::UnroutableCommodity { index: 0 })
        );
        assert!(solve(vec![dead, live.clone()]).is_ok_and(|s| s.lambda > 0.0));
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
            Routes::new(&net, &PathMode::AnyPath, &caps).expect("AnyPath builds its oracle"),
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
