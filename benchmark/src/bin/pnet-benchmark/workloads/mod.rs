//! The five workloads: the paper's evaluation pipeline cut at its stage
//! boundaries, so that each product layer dominates one workload and idles
//! in another. Every workload drives the crates only through their public
//! functions and reads only their public counters.

pub mod churn_reconverge;
pub mod packet;
pub mod pipeline_cold;
pub mod planner_mixed;

use crate::run::Run;
use pnet_flowsim::{commodity, mcf, Commodity, McfSolution};
use pnet_routing::Fnv;
use pnet_topology::{assemble_homogeneous, Jellyfish, LinkProfile, Network};
use pnet_workloads::tm;

/// Run the workload called `name`; `false` for a name that is not one of
/// `BENCHMARK.json`'s workloads.
pub fn run(name: &str, run: &mut Run) -> bool {
    match name {
        "pipeline_cold" => pipeline_cold::run(run),
        "churn_reconverge" => churn_reconverge::run(run),
        "planner_mixed" => planner_mixed::run(run),
        "packet_bulk" => packet::run_bulk(run),
        "packet_rpc" => packet::run_rpc(run),
        _ => return false,
    }
    true
}

/// An independent seed for one input of a workload, so that inputs drawn
/// from the same `--seed` do not share a random stream.
pub fn sub_seed(seed: u64, tag: u64) -> u64 {
    let mut h = Fnv::new();
    h.u64(seed);
    h.u64(tag);
    h.0
}

/// Homogeneous Jellyfish fabric with the paper's 100G link profile.
pub fn jellyfish(tors: usize, degree: usize, hosts: usize, planes: usize, seed: u64) -> Network {
    assemble_homogeneous(
        &Jellyfish::new(tors, degree, hosts, seed),
        planes,
        &LinkProfile::paper_default(),
    )
}

/// One random host permutation, the paper's Figure 6b matrix: draw `draw`
/// of the stream seeded by `seed`. The first draw is seeded like the legacy
/// `BENCH_mcf.json` matrix (fabric and permutation from the same seed), so
/// that at seed 1 the solve is the one that file recorded: 8 941 phases.
pub fn permutation_tm(n_hosts: usize, seed: u64, draw: u64) -> Vec<Commodity> {
    let seed = if draw == 0 {
        seed
    } else {
        sub_seed(seed, TM_STREAM + draw)
    };
    commodity::permutation(&tm::random_permutation(n_hosts, seed))
}

/// Tag of the permutation draws in [`sub_seed`]'s space.
const TM_STREAM: u64 = 1 << 32;
/// Seed of the instance every other seed's instance is sized against.
const REFERENCE_SEED: u64 = 1;
/// ε of the coarse solve that sizes an instance, near the solver's limit of
/// 0.5: at 64 ToRs it takes ~0.1 s where the ε = 0.1 solve takes 2 s.
const SIZING_EPS: f64 = 0.45;
const MAX_DRAWS: u64 = 32;

/// The fabric and traffic matrix of the flow-level workloads: one ToR-level
/// host permutation on a homogeneous Jellyfish fabric with one host per ToR.
///
/// GK pre-scales demands by the worst link load of shortest-path routing,
/// which for a sparse permutation is a small integer — 2, 3 or 4 flows on
/// one link, by chance of the fabric and the permutation — and its phase
/// count is linear in it: 6 009, 8 941 or 11 873 phases at 64 ToRs, which
/// moves the time of a pass by half from seed to seed. So that every seed
/// measures the same amount of work, permutations are drawn from the seeded
/// stream until a coarse solve of the instance takes as many phases as the
/// coarse solve of the reference instance (seed 1, first draw). Both are
/// measured through the public solver at run time, so the rule holds
/// whatever a later change does to the pre-scale.
pub fn permutation_instance(
    tors: usize,
    degree: usize,
    planes: usize,
    seed: u64,
) -> (Network, Vec<Commodity>) {
    let sizing_phases = |net: &Network, tm: &[Commodity]| {
        mcf::solve(net, tm, &mcf::PathMode::AnyPath, SIZING_EPS).phases
    };
    let net = jellyfish(tors, degree, 1, planes, seed);
    if seed == REFERENCE_SEED {
        return (net, permutation_tm(tors, seed, 0));
    }
    let reference = sizing_phases(
        &jellyfish(tors, degree, 1, planes, REFERENCE_SEED),
        &permutation_tm(tors, REFERENCE_SEED, 0),
    );
    let tm = (0..MAX_DRAWS)
        .map(|draw| permutation_tm(tors, seed, draw))
        .find(|tm| sizing_phases(&net, tm) == reference)
        .unwrap_or_else(|| permutation_tm(tors, seed, 0));
    (net, tm)
}

/// Relative slack for float comparisons on solver output: the solver
/// rescales by floating-point factors, so "≤ capacity" holds to rounding.
const FLOAT_SLACK: f64 = 1e-9;

/// Feasibility of a GK solution checked from outside the solver: links
/// loaded beyond capacity, and commodities shipped below `λ·demand`.
pub fn gk_violations(
    net: &Network,
    commodities: &[Commodity],
    sol: &McfSolution,
) -> (usize, usize) {
    let caps = mcf::link_capacities(net);
    let overloaded = sol
        .link_flow
        .iter()
        .zip(&caps)
        .filter(|(f, c)| **f > **c * (1.0 + FLOAT_SLACK))
        .count();
    let underserved = sol
        .rates
        .iter()
        .zip(commodities)
        .filter(|(r, c)| **r < sol.lambda * c.demand * (1.0 - FLOAT_SLACK))
        .count();
    (overloaded, underserved)
}
