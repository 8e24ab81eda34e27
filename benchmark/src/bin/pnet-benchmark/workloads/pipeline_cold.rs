//! `pipeline_cold` — the offline path behind the paper's Figures 6–7, from a
//! cold start: build an N-plane Jellyfish fabric, extract plane graphs,
//! precompute all-pairs KSP, solve ideal throughput (AnyPath GK), solve
//! KSP-restricted throughput, and the ECMP baseline. One operation is one
//! full pass. `routing` spur search and `flowsim` GK do nearly all the work;
//! `htsim` and `planner` do none.
//!
//! The traced run adds, after the timed passes, the layer-isolating extras:
//! the 16/32/48-ToR ladder rungs (per-entry and per-phase cost against
//! scale), a serial 32-ToR rung (what the default parallelism buys) and a
//! K=1 precompute (first-path share of KSP).

use super::{gk_violations, jellyfish, permutation_instance, permutation_tm};
use crate::run::Run;
use crate::trace::Tracer;
use pnet_flowsim::{mcf, throughput, Commodity, McfSolution};
use pnet_routing::{Parallelism, RouteAlgo, Router};
use pnet_topology::Network;

struct Sizes {
    tors: usize,
    degree: usize,
    planes: usize,
    k: usize,
    /// Smaller fabrics run once in the traced run; the timed rung is `tors`.
    ladder: [usize; 3],
}

const EPS: f64 = 0.1;

const FULL: Sizes = Sizes {
    tors: 64,
    degree: 8,
    planes: 4,
    k: 32,
    ladder: [16, 32, 48],
};

/// Smoke sizes. The ladder metrics keep their full-size names.
const QUICK: Sizes = Sizes {
    tors: 16,
    degree: 4,
    planes: 2,
    k: 8,
    ladder: [8, 10, 12],
};

/// `(µs per route entry, µs per GK phase)` metric names of the ladder rungs.
const LADDER_METRICS: [(&str, &str); 3] = [
    (
        "routing.ksp_us_per_entry.t16",
        "flowsim.gk_ideal_us_per_phase.t16",
    ),
    (
        "routing.ksp_us_per_entry.t32",
        "flowsim.gk_ideal_us_per_phase.t32",
    ),
    (
        "routing.ksp_us_per_entry.t48",
        "flowsim.gk_ideal_us_per_phase.t48",
    ),
];

/// Simulated results of one pass; identical across passes, and at seed 1
/// equal to [`PINNED`].
#[derive(Debug, Clone, Copy, PartialEq)]
struct Digest {
    links: usize,
    table_entries: usize,
    table_fingerprint: u64,
    ideal_lambda: f64,
    ideal_phases: usize,
    ksp_lambda: f64,
    ksp_phases: usize,
    ecmp_total_bps: f64,
}

/// Seed-1 values of the full-size pass. A change that only makes the
/// pipeline faster must leave every one of them as it is.
const PINNED: Digest = Digest {
    links: 2560,
    table_entries: 16128,
    table_fingerprint: 5971753728443073736,
    ideal_lambda: 399821109123.4597,
    ideal_phases: 8941,
    ksp_lambda: 399733865602.1291,
    ksp_phases: 6009,
    ecmp_total_bps: 6300000000000.0,
};

/// What one full pass produces.
struct Products {
    net: Network,
    router: Router,
    ideal: McfSolution,
    ksp: McfSolution,
    ecmp_total_bps: f64,
}

/// One full pass: the timed unit of work.
fn pass(t: &Tracer, sz: &Sizes, seed: u64, commodities: &[Commodity]) -> Products {
    let net = t.in_span("topology.build", || {
        jellyfish(sz.tors, sz.degree, 1, sz.planes, seed)
    });
    let router = t.in_span("routing.plane_graph_build", || {
        Router::new(&net, RouteAlgo::Ksp { k: sz.k })
    });
    t.in_span("routing.ksp_all_pairs", || router.precompute_all_pairs());
    let ideal = t.in_span("flowsim.gk_ideal", || {
        mcf::solve(&net, commodities, &mcf::PathMode::AnyPath, EPS)
    });
    let mode = t.in_span("flowsim.ksp_mode_build", || {
        mcf::ksp_mode(&net, &router, commodities, sz.k)
    });
    let ksp = t.in_span("flowsim.gk_ksp", || {
        mcf::solve(&net, commodities, &mode, EPS)
    });
    let ecmp_total_bps = t.in_span("flowsim.maxmin", || {
        throughput::ecmp_throughput(&net, commodities)
    });
    Products {
        net,
        router,
        ideal,
        ksp,
        ecmp_total_bps,
    }
}

/// Digest of a pass and the number of invariant violations in its
/// solutions, computed outside the timed region.
fn inspect(p: &Products, commodities: &[Commodity]) -> (Digest, usize) {
    let (over_i, under_i) = gk_violations(&p.net, commodities, &p.ideal);
    let (over_k, under_k) = gk_violations(&p.net, commodities, &p.ksp);
    // Both solves are (1 − O(ε)) approximations and KSP paths are a subset
    // of all paths, so the restricted optimum cannot beat the ideal one by
    // more than the two approximation gaps.
    let ksp_above_ideal = usize::from(p.ksp.lambda > p.ideal.lambda * (1.0 + 3.0 * EPS));
    let digest = Digest {
        links: p.net.n_links(),
        table_entries: p.router.cached_entries(),
        table_fingerprint: p.router.table_fingerprint(),
        ideal_lambda: p.ideal.lambda,
        ideal_phases: p.ideal.phases,
        ksp_lambda: p.ksp.lambda,
        ksp_phases: p.ksp.phases,
        ecmp_total_bps: p.ecmp_total_bps,
    };
    (
        digest,
        over_i + under_i + over_k + under_k + ksp_above_ideal,
    )
}

pub fn run(run: &mut Run) {
    let sz = if run.spec.quick { &QUICK } else { &FULL };
    let seed = run.spec.seed;
    let (_, commodities) = permutation_instance(sz.tors, sz.degree, sz.planes, seed);
    let (_, tm_gen_ms) = run
        .tracer
        .timed("workloads.tm_gen", || permutation_tm(sz.tors, seed, 0));

    // Discarded warm-up: the first pass of a process runs slow from
    // first-touch page faults, which no later pass pays.
    let (reference, _) = inspect(
        &run.warm_up(|t| pass(t, sz, seed, &commodities)),
        &commodities,
    );

    run.begin_timed();
    let mut violations = 0;
    while run.n_ops() == 0 || run.time_left() {
        let (products, _) = run.op(|t| pass(t, sz, seed, &commodities));
        let (digest, bad) = inspect(&products, &commodities);
        violations += bad;
        run.check_op(bad == 0 && digest == reference, || {
            format!("pass differs from the warm-up pass or breaks an invariant: {digest:?}")
        });
    }
    run.end_timed();

    if seed == 1 && !run.spec.quick {
        run.check(reference == PINNED, || {
            format!("seed-1 results moved from the pinned values: {reference:?}")
        });
    }

    run.set_exact("topology.links", reference.links as f64);
    run.set_exact("routing.table_entries", reference.table_entries as f64);
    run.set_exact("flowsim.gk_ideal_phases", reference.ideal_phases as f64);
    run.set_exact("flowsim.gk_ksp_phases", reference.ksp_phases as f64);
    run.set_exact("flowsim.lambda_ideal", reference.ideal_lambda);
    run.set_exact("flowsim.lambda_ksp", reference.ksp_lambda);
    run.set_exact("flowsim.infeasible_links", violations as f64);

    if !run.spec.trace {
        return;
    }
    let ksp_ms = run.span_median("routing.ksp_all_pairs", 1e6);
    let ideal_ms = run.span_median("flowsim.gk_ideal", 1e6);
    run.set("workloads.tm_gen_us", tm_gen_ms * 1e3);
    run.set("topology.build_ms", run.span_median("topology.build", 1e6));
    run.set(
        "routing.plane_graph_build_ms",
        run.span_median("routing.plane_graph_build", 1e6),
    );
    run.set("routing.ksp_all_pairs_ms", ksp_ms);
    run.set(
        "routing.ksp_us_per_entry.t64",
        ksp_ms * 1e3 / reference.table_entries as f64,
    );
    run.set("flowsim.gk_ideal_ms", ideal_ms);
    run.set(
        "flowsim.gk_ideal_us_per_phase.t64",
        ideal_ms * 1e3 / reference.ideal_phases as f64,
    );
    run.set(
        "flowsim.ksp_mode_build_ms",
        run.span_median("flowsim.ksp_mode_build", 1e6),
    );
    run.set("flowsim.gk_ksp_ms", run.span_median("flowsim.gk_ksp", 1e6));
    run.set("flowsim.maxmin_ms", run.span_median("flowsim.maxmin", 1e6));

    extras(run, sz, ksp_ms);
}

/// Route table and ideal solve of one ladder rung, timed: `(KSP ms, table
/// entries, GK ms, GK phases)`.
fn rung(run: &Run, sz: &Sizes, tors: usize, par: Parallelism) -> (f64, usize, f64, usize) {
    let seed = run.spec.seed;
    let net = jellyfish(tors, sz.degree, 1, sz.planes, seed);
    let tm = permutation_tm(tors, seed, 0);
    let router = Router::with_parallelism(&net, RouteAlgo::Ksp { k: sz.k }, par);
    let ((), ksp_ms) = run.tracer.timed("routing.ksp_all_pairs", || {
        router.precompute_all_pairs_with(par)
    });
    let (ideal, ideal_ms) = run.tracer.timed("flowsim.gk_ideal", || {
        let opts = mcf::McfOptions {
            parallelism: par,
            ..Default::default()
        };
        mcf::solve_with_options(&net, &tm, &mcf::PathMode::AnyPath, EPS, opts)
    });
    (ksp_ms, router.cached_entries(), ideal_ms, ideal.phases)
}

/// Layer-isolating passes of the traced run, each run once.
fn extras(run: &mut Run, sz: &Sizes, ksp_ms: f64) {
    // Per-unit cost up the scale ladder: should stay flat; the README
    // states where it bends.
    let mut default_at_mid = (0.0, 0.0);
    for (tors, (per_entry, per_phase)) in sz.ladder.into_iter().zip(LADDER_METRICS) {
        let (rung_ksp_ms, entries, rung_ideal_ms, phases) =
            rung(run, sz, tors, Parallelism::default());
        run.set(per_entry, rung_ksp_ms * 1e3 / entries as f64);
        run.set(per_phase, rung_ideal_ms * 1e3 / phases as f64);
        if tors == sz.ladder[1] {
            default_at_mid = (rung_ksp_ms, rung_ideal_ms);
        }
    }

    // Serial ÷ default on the middle rung: what the default `Parallelism`
    // buys on this box (threads and nproc are in the run header). The
    // middle rung, not the timed one, to keep the traced run short.
    let (serial_ksp_ms, _, serial_ideal_ms, _) = rung(run, sz, sz.ladder[1], Parallelism::Serial);
    run.set("routing.par_speedup", serial_ksp_ms / default_at_mid.0);
    run.set("flowsim.par_speedup", serial_ideal_ms / default_at_mid.1);

    // K=1 stops Yen before any spur search: what is left is the shared
    // first-path tree per source. The rest of the all-pairs time is spurs.
    let net = jellyfish(sz.tors, sz.degree, 1, sz.planes, run.spec.seed);
    let first = Router::new(&net, RouteAlgo::Ksp { k: 1 });
    let ((), first_ms) = run
        .tracer
        .timed("routing.first_path", || first.precompute_all_pairs());
    run.set("routing.first_path_ms", first_ms);
    run.set("routing.spur_ms", ksp_ms - first_ms);
}
