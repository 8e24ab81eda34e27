//! # pnet-planner
//!
//! Throughput-planner-as-a-service: concurrent what-if queries over
//! epoch-snapshotted fabric state — the serving surface for the paper's
//! planner study (§5.1.1) and its headline what-if questions
//! (heterogeneous-plane speedups, failure resilience).
//!
//! ## Architecture
//!
//! * **Generations** ([`Generation`]) — immutable snapshots of the fabric:
//!   a [`Network`] clone, a [`Router`] whose tables are pinned to it, and
//!   the topology's golden FNV-1a fingerprint. Generations live in an
//!   append-only `RwLock<Vec<Arc<Generation>>>`: a query pins one with a
//!   read lock and an `Arc` clone, and keeps answering from it while the
//!   writer builds and appends its successor.
//! * **Publication** — [`Planner::publish_delta`] applies a [`LinkDelta`]
//!   (cable churn) and appends generation N+1 with a fresh lazy router;
//!   the planner never mutates a router it has published.
//! * **Memo** ([`Memo`]) — solver results keyed by
//!   `(topology fingerprint, commodity fingerprint, query tag)`. A hit is
//!   bitwise identical to the cold solve it replaces; insert races assert
//!   it.
//!
//! ## Example
//!
//! ```
//! use pnet_planner::Planner;
//! use pnet_flowsim::commodity;
//! use pnet_topology::{assemble_homogeneous, FatTree, LinkProfile};
//!
//! let net = assemble_homogeneous(&FatTree::three_tier(4), 2, &LinkProfile::paper_default());
//! let planner = Planner::new(net);
//! let adm = planner.admit(&commodity::all_to_all(8)).unwrap();
//! assert!(adm.lambda > 0.0);
//! ```

// Test modules are exempt from the typed determinism lints (DESIGN.md "Static analysis &
// determinism contract"): they keep hash sets, exact float asserts and catch-all arms.
#![cfg_attr(
    test,
    allow(
        clippy::disallowed_types,
        clippy::disallowed_methods,
        clippy::float_cmp,
        clippy::wildcard_enum_match_arm
    )
)]

pub mod fingerprint;
pub mod memo;

pub use fingerprint::{commodity_fingerprint, solution_fingerprint, topology_fingerprint};
pub use memo::{Memo, MemoKey, MemoStats};

use pnet_flowsim::mcf::{self, McfError, McfOptions, PathMode};
use pnet_flowsim::{throughput, Commodity, McfSolution};
use pnet_routing::{subflow_width, Fnv, RouteAlgo, Router};
use pnet_topology::{failures, LinkDelta, LinkId, Network, PlaneId};
use std::fmt;
use std::sync::{Arc, Mutex, RwLock, RwLockReadGuard};

/// Planner service configuration.
#[derive(Debug, Clone, Copy)]
pub struct PlannerConfig {
    /// Subflow fan-out K for admission queries (the paper's MPTCP + KSP
    /// configuration). Generation routers are built
    /// [`subflow_width`]`(K)` wide so `best_k` candidates up to that width
    /// share the same tables.
    pub k: usize,
    /// Garg–Könemann approximation ε, in the open interval (0, 0.5).
    pub eps: f64,
}

impl Default for PlannerConfig {
    fn default() -> PlannerConfig {
        PlannerConfig { k: 8, eps: 0.1 }
    }
}

/// Everything that can go wrong answering a planner query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PlanError {
    /// The underlying solver rejected the inputs (bad ε, empty or
    /// unroutable matrix, infeasible flow).
    Solver(McfError),
    /// A pinned generation sequence number that was never published.
    UnknownGeneration {
        /// The requested sequence number.
        seq: u64,
    },
    /// `best_k` was called with an empty candidate list.
    NoCandidates,
    /// A delta or what-if failure names a link outside the topology.
    UnknownLink {
        /// The offending raw link id.
        link: u32,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::Solver(e) => write!(f, "solver: {e}"),
            PlanError::UnknownGeneration { seq } => {
                write!(f, "generation {seq} was never published")
            }
            PlanError::NoCandidates => write!(f, "best_k needs at least one candidate K"),
            PlanError::UnknownLink { link } => {
                write!(f, "link {link} is outside the topology")
            }
        }
    }
}

impl std::error::Error for PlanError {}

impl From<McfError> for PlanError {
    fn from(e: McfError) -> PlanError {
        PlanError::Solver(e)
    }
}

/// One immutable topology generation: a network snapshot, a router pinned
/// to it, and the snapshot's golden fingerprint. Queries pinned to a
/// generation are unaffected by later publishes — the router only ever
/// sees this network, so even its lazy table fills are deterministic
/// functions of the snapshot.
pub struct Generation {
    seq: u64,
    net: Network,
    router: Router,
    topology_fp: u64,
}

impl Generation {
    fn build(seq: u64, net: Network, cfg: &PlannerConfig) -> Generation {
        let wide = subflow_width(cfg.k);
        let router = Router::new(&net, RouteAlgo::Ksp { k: wide });
        let topology_fp = topology_fingerprint(&net);
        Generation {
            seq,
            net,
            router,
            topology_fp,
        }
    }

    /// Position in the publish sequence (0 = the seed snapshot).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// The snapshot's link state.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// The router pinned to this snapshot.
    pub fn router(&self) -> &Router {
        &self.router
    }

    /// Golden FNV-1a fingerprint of the snapshot topology.
    pub fn topology_fingerprint(&self) -> u64 {
        self.topology_fp
    }
}

/// Outcome of an admission query: can the fabric carry the offered matrix?
#[derive(Debug, Clone, Copy)]
pub struct Admission {
    /// Generation the query was answered against.
    pub generation: u64,
    /// Achieved concurrent-flow scale: commodity `i` ships `λ · demand_i`.
    pub lambda: f64,
    /// `λ ≥ 1`: every commodity ships its full demand simultaneously.
    pub admitted: bool,
    /// Total delivered rate at the solved scale, bits per second.
    pub total_rate_bps: f64,
}

/// Outcome of a failure what-if: ideal throughput before and after.
#[derive(Debug, Clone, Copy)]
pub struct WhatIf {
    /// Generation the query was answered against.
    pub generation: u64,
    /// Ideal λ on the unmodified generation.
    pub baseline_lambda: f64,
    /// Ideal λ with the hypothesized failures applied.
    pub degraded_lambda: f64,
    /// Total delivered rate on the unmodified generation.
    pub baseline_total_bps: f64,
    /// Total delivered rate under the hypothesized failures.
    pub degraded_total_bps: f64,
}

impl WhatIf {
    /// Fraction of baseline λ retained under the failures (0 when the
    /// baseline is degenerate).
    pub fn retained(&self) -> f64 {
        if self.baseline_lambda > 0.0 {
            self.degraded_lambda / self.baseline_lambda
        } else {
            0.0
        }
    }
}

/// Outcome of a subflow fan-out sweep.
#[derive(Debug, Clone)]
pub struct BestK {
    /// Generation the query was answered against.
    pub generation: u64,
    /// The winning K (smallest on λ ties).
    pub k: usize,
    /// λ achieved at the winning K.
    pub lambda: f64,
    /// Every candidate evaluated, as `(k, λ)` in input order.
    pub evaluated: Vec<(usize, f64)>,
}

/// Structural capacity headroom of one plane.
#[derive(Debug, Clone, Copy)]
pub struct PlaneHeadroom {
    /// The plane.
    pub plane: PlaneId,
    /// Aggregate capacity of the plane's live directed links.
    pub live_capacity_bps: u128,
    /// Aggregate capacity including failed links.
    pub total_capacity_bps: u128,
    /// Directed links currently down.
    pub failed_links: usize,
    /// `live / total` capacity fraction (0 for a plane with no links).
    pub headroom: f64,
}

/// Result of one [`Planner::publish_delta`].
#[derive(Debug, Clone, Copy)]
pub struct PublishStats {
    /// Sequence number of the new generation.
    pub seq: u64,
    /// Topology fingerprint of the new generation.
    pub topology_fp: u64,
}

/// The planner service. Cheap to share behind an `Arc`; every query method
/// takes `&self`.
pub struct Planner {
    cfg: PlannerConfig,
    /// Append-only; index = sequence number. The write lock is held for one
    /// push, never across a generation build.
    generations: RwLock<Vec<Arc<Generation>>>,
    memo: Memo,
    /// The writer's mutable copy of the fabric; the lock serializes publishes.
    writer: Mutex<Network>,
}

const QUERY_KSP: u64 = 1;
const QUERY_IDEAL: u64 = 2;

fn query_tag(kind: u64, k: usize, eps: f64) -> u64 {
    let mut h = Fnv::new();
    h.u64(kind);
    h.u64(k as u64);
    h.u64(eps.to_bits());
    h.0
}

impl Planner {
    /// A planner over `net` with the default configuration.
    pub fn new(net: Network) -> Planner {
        Planner::with_config(net, PlannerConfig::default())
    }

    /// A planner over `net`; generation 0 is published immediately.
    pub fn with_config(net: Network, cfg: PlannerConfig) -> Planner {
        let gen0 = Generation::build(0, net.clone(), &cfg);
        Planner {
            cfg,
            generations: RwLock::new(vec![Arc::new(gen0)]),
            memo: Memo::new(),
            writer: Mutex::new(net),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &PlannerConfig {
        &self.cfg
    }

    fn generations(&self) -> RwLockReadGuard<'_, Vec<Arc<Generation>>> {
        self.generations
            .read()
            .expect("invariant: generations lock is never poisoned")
    }

    /// Pin the newest generation. The returned snapshot stays valid (and
    /// bitwise stable) across any number of later publishes.
    pub fn latest(&self) -> Arc<Generation> {
        self.generations()
            .last()
            .cloned()
            .expect("invariant: generation 0 is published at construction")
    }

    /// Pin a specific generation by sequence number.
    pub fn generation(&self, seq: u64) -> Result<Arc<Generation>, PlanError> {
        usize::try_from(seq)
            .ok()
            .and_then(|i| self.generations().get(i).cloned())
            .ok_or(PlanError::UnknownGeneration { seq })
    }

    /// Number of published generations.
    pub fn n_generations(&self) -> usize {
        self.generations().len()
    }

    /// Cumulative memo counters.
    pub fn memo_stats(&self) -> MemoStats {
        self.memo.stats()
    }

    /// Apply a link delta to the fabric and publish it as a new
    /// generation. Pinned queries against older generations are
    /// unaffected; new `latest()` calls observe the successor.
    pub fn publish_delta(&self, delta: &LinkDelta) -> Result<PublishStats, PlanError> {
        let mut net = self
            .writer
            .lock()
            .expect("invariant: planner writer lock is never poisoned");
        for &c in delta.down.iter().chain(delta.up.iter()) {
            if c.index() >= net.n_links() {
                return Err(PlanError::UnknownLink { link: c.0 });
            }
        }
        for &c in &delta.down {
            failures::fail_cable(&mut net, c);
        }
        for &c in &delta.up {
            failures::restore_cable(&mut net, c);
        }
        // Only this function appends, and only under the writer lock held
        // above, so the length read here is still the new index at the push.
        let seq = self.n_generations() as u64;
        let generation = Generation::build(seq, net.clone(), &self.cfg);
        let topology_fp = generation.topology_fp;
        self.generations
            .write()
            .expect("invariant: generations lock is never poisoned")
            .push(Arc::new(generation));
        Ok(PublishStats { seq, topology_fp })
    }

    /// The memoized K-subflow MCF solution for `tm` on `generation` — the
    /// primitive under [`Planner::admit_at`] and [`Planner::best_k_at`],
    /// public so callers (tests, benches) can fingerprint the full
    /// solution a cache hit returns.
    pub fn solve_ksp_at(
        &self,
        generation: &Generation,
        tm: &[Commodity],
        k: usize,
    ) -> Result<Arc<McfSolution>, PlanError> {
        let key = MemoKey {
            topology: generation.topology_fp,
            commodities: commodity_fingerprint(tm),
            query: query_tag(QUERY_KSP, k, self.cfg.eps),
        };
        self.memo.get_or_solve(key, || {
            throughput::try_ksp_solution(
                &generation.net,
                &generation.router,
                tm,
                k,
                self.cfg.eps,
                McfOptions::default(),
            )
            .map_err(PlanError::Solver)
        })
    }

    /// The memoized free-routing (ideal) solution for `tm` on an explicit
    /// `(fingerprint, network)` pair — shared by the baseline and degraded
    /// sides of [`Planner::ideal_throughput_after_at`].
    fn solve_ideal(
        &self,
        topology_fp: u64,
        net: &Network,
        tm: &[Commodity],
    ) -> Result<Arc<McfSolution>, PlanError> {
        let key = MemoKey {
            topology: topology_fp,
            commodities: commodity_fingerprint(tm),
            query: query_tag(QUERY_IDEAL, 0, self.cfg.eps),
        };
        self.memo.get_or_solve(key, || {
            mcf::try_solve(
                net,
                tm,
                &PathMode::AnyPath,
                self.cfg.eps,
                McfOptions::default(),
            )
            .map_err(PlanError::Solver)
        })
    }

    /// Admission on the newest generation: solve the K-subflow MCF for
    /// `tm` and report whether it ships at full demand (λ ≥ 1).
    pub fn admit(&self, tm: &[Commodity]) -> Result<Admission, PlanError> {
        self.admit_at(&self.latest(), tm)
    }

    /// [`Planner::admit`] pinned to a caller-held generation.
    pub fn admit_at(
        &self,
        generation: &Generation,
        tm: &[Commodity],
    ) -> Result<Admission, PlanError> {
        let sol = self.solve_ksp_at(generation, tm, self.cfg.k)?;
        Ok(Admission {
            generation: generation.seq,
            lambda: sol.lambda,
            admitted: sol.lambda >= 1.0,
            total_rate_bps: sol.total_rate(),
        })
    }

    /// What-if on the newest generation: ideal (free-routed) throughput of
    /// `tm` with the named cables additionally failed, against the
    /// unmodified baseline.
    pub fn ideal_throughput_after(
        &self,
        failed: &[LinkId],
        tm: &[Commodity],
    ) -> Result<WhatIf, PlanError> {
        self.ideal_throughput_after_at(&self.latest(), failed, tm)
    }

    /// [`Planner::ideal_throughput_after`] pinned to a caller-held
    /// generation. The hypothesized failures touch a private clone of the
    /// snapshot; the generation itself is never mutated.
    pub fn ideal_throughput_after_at(
        &self,
        generation: &Generation,
        failed: &[LinkId],
        tm: &[Commodity],
    ) -> Result<WhatIf, PlanError> {
        for &c in failed {
            if c.index() >= generation.net.n_links() {
                return Err(PlanError::UnknownLink { link: c.0 });
            }
        }
        let baseline = self.solve_ideal(generation.topology_fp, &generation.net, tm)?;
        let mut degraded_net = generation.net.clone();
        for &c in failed {
            failures::fail_cable(&mut degraded_net, c);
        }
        let degraded_fp = topology_fingerprint(&degraded_net);
        let degraded = self.solve_ideal(degraded_fp, &degraded_net, tm)?;
        Ok(WhatIf {
            generation: generation.seq,
            baseline_lambda: baseline.lambda,
            degraded_lambda: degraded.lambda,
            baseline_total_bps: baseline.total_rate(),
            degraded_total_bps: degraded.total_rate(),
        })
    }

    /// Sweep subflow fan-outs on the newest generation and return the K
    /// maximizing λ (smallest K on ties). Candidates beyond the generation
    /// router's width [`subflow_width`]`(cfg.k)` per plane see no additional
    /// paths.
    pub fn best_k(&self, tm: &[Commodity], candidates: &[usize]) -> Result<BestK, PlanError> {
        self.best_k_at(&self.latest(), tm, candidates)
    }

    /// [`Planner::best_k`] pinned to a caller-held generation.
    pub fn best_k_at(
        &self,
        generation: &Generation,
        tm: &[Commodity],
        candidates: &[usize],
    ) -> Result<BestK, PlanError> {
        if candidates.is_empty() {
            return Err(PlanError::NoCandidates);
        }
        let mut evaluated = Vec::with_capacity(candidates.len());
        for &k in candidates {
            let sol = self.solve_ksp_at(generation, tm, k)?;
            evaluated.push((k, sol.lambda));
        }
        let mut best = evaluated[0];
        for &(k, lambda) in &evaluated[1..] {
            if lambda > best.1 || (lambda >= best.1 && k < best.0) {
                best = (k, lambda);
            }
        }
        Ok(BestK {
            generation: generation.seq,
            k: best.0,
            lambda: best.1,
            evaluated,
        })
    }

    /// Structural per-plane capacity headroom of the newest generation —
    /// the operator's "which plane can absorb a drain" view. Pure link
    /// arithmetic; no solver run.
    pub fn plane_headroom(&self) -> Vec<PlaneHeadroom> {
        self.plane_headroom_at(&self.latest())
    }

    /// [`Planner::plane_headroom`] pinned to a caller-held generation.
    pub fn plane_headroom_at(&self, generation: &Generation) -> Vec<PlaneHeadroom> {
        let net = &generation.net;
        net.planes()
            .map(|plane| {
                let mut live: u128 = 0;
                let mut total: u128 = 0;
                let mut failed = 0usize;
                for (_, l) in net.links().filter(|(_, l)| l.plane == plane) {
                    total += u128::from(l.capacity_bps);
                    if l.up {
                        live += u128::from(l.capacity_bps);
                    } else {
                        failed += 1;
                    }
                }
                let headroom = if total == 0 {
                    0.0
                } else {
                    live as f64 / total as f64
                };
                PlaneHeadroom {
                    plane,
                    live_capacity_bps: live,
                    total_capacity_bps: total,
                    failed_links: failed,
                    headroom,
                }
            })
            .collect()
    }
}
