//! `churn_reconverge` — the same fabric as `pipeline_cold`, used the other
//! way: a live router and a GK solution absorb a seeded stream of cable
//! failures and restores. One operation is one churn event: apply it to the
//! network, repair the route table (`Router::refresh`), re-solve warm from
//! the previous solution. A KSP or GK change that wins `pipeline_cold` by
//! dropping the state repair and warm start rely on shows here.
//!
//! Closed loop, one client. The stream is made of rounds — two single-cable
//! flaps, then a three-cable drain and un-drain — so the fabric is pristine
//! again every few events; the loop ends at the first pristine point after
//! the timed window closes, which lets the end state be checked against the
//! set-up state for free.

use super::{gk_violations, permutation_instance, sub_seed};
use crate::run::Run;
use crate::trace::{Phase, Tracer};
use pnet_flowsim::{mcf, McfSolution};
use pnet_routing::{RouteAlgo, Router};
use pnet_topology::{failures, ChurnEvent, ChurnSchedule, Network};

const EPS: f64 = 0.1;
/// Events of one round: 2 flaps (4 events) + a 3-cable burst (6 events).
const ROUND: usize = 10;
const BURST_CABLES: f64 = 3.0;
/// Rounds generated; far more than any timed window consumes.
const ROUNDS: usize = 32;
/// The first flap is the discarded warm-up.
const WARMUP_EVENTS: usize = 2;
/// Exact counters are summed over the timed events of the first round,
/// which every run completes whatever its window.
const COUNTED_EVENTS: usize = ROUND - WARMUP_EVENTS;

struct Sizes {
    tors: usize,
    degree: usize,
    planes: usize,
    k: usize,
}

const FULL: Sizes = Sizes {
    tors: 64,
    degree: 8,
    planes: 4,
    k: 32,
};

const QUICK: Sizes = Sizes {
    tors: 16,
    degree: 4,
    planes: 2,
    k: 8,
};

/// Seed-1, full-size values over the counted events.
const PINNED: Counted = Counted {
    entries_repaired: 8320,
    entries_reused: 120704,
    warm_phases: 5682,
    pristine_fingerprint: 5971753728443073736,
    cold_lambda: 399821109123.4597,
};

#[derive(Debug, Clone, Copy, PartialEq)]
struct Counted {
    entries_repaired: usize,
    entries_reused: usize,
    warm_phases: usize,
    pristine_fingerprint: u64,
    cold_lambda: f64,
}

fn schedule(net: &Network, seed: u64) -> Vec<ChurnEvent> {
    let n_cables = failures::fabric_cables(net, None).len();
    let burst_fraction = BURST_CABLES / n_cables as f64;
    (0..ROUNDS as u64)
        .flat_map(|r| {
            let flaps = ChurnSchedule::single_cable_cycles(net, 2, sub_seed(seed, 2 * r));
            let burst =
                ChurnSchedule::burst_then_restore(net, burst_fraction, sub_seed(seed, 2 * r + 1));
            flaps.events.into_iter().chain(burst.events)
        })
        .collect()
}

pub fn run(run: &mut Run) {
    let sz = if run.spec.quick { &QUICK } else { &FULL };
    let seed = run.spec.seed;
    let (mut net, commodities) = permutation_instance(sz.tors, sz.degree, sz.planes, seed);
    let events = schedule(&net, seed);
    assert_eq!(
        events.len(),
        ROUNDS * ROUND,
        "every round has {ROUND} events"
    );

    // Live state: a fully precomputed router and a cold GK solution.
    let router = Router::new(&net, RouteAlgo::Ksp { k: sz.k });
    let ((), rebuild_ms) = run
        .tracer
        .timed("routing.ksp_all_pairs", || router.precompute_all_pairs());
    let table_entries = router.cached_entries();
    let cold = run.tracer.in_span("flowsim.gk_ideal", || {
        mcf::solve(&net, &commodities, &mcf::PathMode::AnyPath, EPS)
    });
    let pristine_fingerprint = router.table_fingerprint();

    let mut last: McfSolution = cold.clone();
    let mut down = 0usize;
    let mut full_rebuilds = 0usize;
    let mut violations = 0usize;
    let mut repaired_all_events = 0usize;
    let mut counted = Counted {
        entries_repaired: 0,
        entries_reused: 0,
        warm_phases: 0,
        pristine_fingerprint,
        cold_lambda: cold.lambda,
    };
    // State right after the first timed failure, checked against a
    // from-scratch rebuild once the loop is over.
    let mut probe: Option<(Network, u64, f64)> = None;

    for (i, &ev) in events.iter().enumerate() {
        let timed = i >= WARMUP_EVENTS;
        if i == WARMUP_EVENTS {
            run.begin_timed();
            // Memory of the live table and solution plus the repairs and warm
            // solves of the warm-up flap. Not read later: every event leaves
            // the process ~14 MB bigger until the allocator hands memory
            // back, which it first does after the third to eighth event
            // depending on the seed and on how the worker threads
            // interleaved. Read after two timed events the mark is 101 MB
            // for seven seeds of eight and 88 MB for the eighth; read after
            // eight, 104 MB in two runs of three and 119 MB in the third.
            run.mark_peak_rss();
        }
        let n_timed = i.saturating_sub(WARMUP_EVENTS);
        if timed && n_timed >= COUNTED_EVENTS && down == 0 && !run.time_left() {
            break;
        }
        let event = |t: &Tracer, net: &mut Network, last: &McfSolution| {
            t.in_span("topology.churn_apply", || ev.apply(net));
            let stats = t.in_span("routing.repair", || router.refresh(net));
            let warm = t.in_span("flowsim.gk_warm", || {
                mcf::solve_warm(net, &commodities, &mcf::PathMode::AnyPath, EPS, last)
            });
            (stats, warm)
        };
        let (stats, warm) = if timed {
            run.op(|t| event(t, &mut net, &last)).0
        } else {
            event(&run.tracer, &mut net, &last)
        };
        match ev {
            ChurnEvent::Down(_) => down += 1,
            ChurnEvent::Up(_) => down -= 1,
        }
        if timed {
            let (over, under) = gk_violations(&net, &commodities, &warm);
            violations += over + under;
            full_rebuilds += usize::from(stats.full_rebuild);
            repaired_all_events += stats.entries_repaired;
            run.check_op(!stats.full_rebuild && over + under == 0, || {
                format!("event {i} ({ev:?}) fell back to a full rebuild or broke feasibility")
            });
            if n_timed < COUNTED_EVENTS {
                counted.entries_repaired += stats.entries_repaired;
                counted.entries_reused += stats.entries_reused;
                counted.warm_phases += warm.phases;
            }
            if probe.is_none() && matches!(ev, ChurnEvent::Down(_)) {
                probe = Some((net.clone(), router.table_fingerprint(), warm.lambda));
            }
        }
        last = warm;
    }
    run.end_timed();

    // End state: the fabric is pristine again, so the repaired table must
    // equal the set-up table and the chained warm solution the cold one.
    run.check(
        down == 0 && router.table_fingerprint() == pristine_fingerprint,
        || "route table after the last restore differs from the pristine table".into(),
    );
    let mut rel_err_max = ((last.lambda - cold.lambda) / cold.lambda).abs();

    // Degraded state: the live router against one built from scratch, and —
    // in the traced run, where the time is budgeted — warm against cold λ.
    let (probe_net, probe_fingerprint, probe_lambda) = probe.expect("the stream has failures");
    let fresh = Router::new(&probe_net, RouteAlgo::Ksp { k: sz.k });
    fresh.precompute_all_pairs();
    run.check(fresh.table_fingerprint() == probe_fingerprint, || {
        "repaired route table differs from a from-scratch rebuild".into()
    });
    if run.spec.trace {
        let probe_cold = mcf::solve(&probe_net, &commodities, &mcf::PathMode::AnyPath, EPS);
        rel_err_max =
            rel_err_max.max(((probe_lambda - probe_cold.lambda) / probe_cold.lambda).abs());
    }
    run.check(rel_err_max <= mcf::WARM_LAMBDA_TOLERANCE, || {
        format!("warm λ off the cold λ by {rel_err_max}")
    });

    if seed == 1 && !run.spec.quick {
        run.check(counted == PINNED, || {
            format!("seed-1 results moved from the pinned values: {counted:?}")
        });
    }

    run.set_exact("routing.table_entries", table_entries as f64);
    run.set_exact("routing.entries_repaired", counted.entries_repaired as f64);
    run.set_exact("routing.entries_reused", counted.entries_reused as f64);
    run.set_exact("routing.full_rebuilds", full_rebuilds as f64);
    run.set_exact("flowsim.gk_warm_phases", counted.warm_phases as f64);
    run.set_exact("flowsim.infeasible_links", violations as f64);
    run.set_exact("flowsim.lambda_ideal", cold.lambda);

    if !run.spec.trace {
        return;
    }
    let repair_us: f64 = run
        .tracer
        .durations_ns("routing.repair", |p| matches!(p, Phase::Op(_)))
        .iter()
        .sum::<f64>()
        / 1e3;
    let repair_us_per_entry = repair_us / repaired_all_events as f64;
    let rebuild_us_per_entry = rebuild_ms * 1e3 / table_entries as f64;
    run.set(
        "topology.churn_apply_us_p50",
        run.span_median("topology.churn_apply", 1e3),
    );
    run.set("routing.ksp_all_pairs_ms", rebuild_ms);
    run.set(
        "routing.repair_ms_p50",
        run.span_median("routing.repair", 1e6),
    );
    run.set("routing.repair_us_per_entry", repair_us_per_entry);
    run.set(
        "routing.repair_vs_rebuild_per_entry",
        repair_us_per_entry / rebuild_us_per_entry,
    );
    run.set(
        "flowsim.gk_warm_ms_p50",
        run.span_median("flowsim.gk_warm", 1e6),
    );
    run.set("flowsim.warm_lambda_rel_err_max", rel_err_max);
}
