//! Whole-stack determinism: identical seeds must yield bit-identical
//! results across topology construction, routing, flow-level solving, and
//! packet-level simulation. This is what makes every experiment in the
//! harness reproducible.

use pnet::core::{PNetSpec, PathPolicy, TopologyKind};
use pnet::flowsim::{commodity, throughput};
use pnet::htsim::{run_to_completion, FlowSpec, SimConfig, Simulator};
use pnet::routing::{RouteAlgo, Router};
use pnet::topology::{HostId, NetworkClass, RackId};
use pnet::workloads::tm;

fn spec() -> PNetSpec {
    PNetSpec::new(
        TopologyKind::Jellyfish {
            n_tors: 16,
            degree: 4,
            hosts_per_tor: 2,
        },
        NetworkClass::ParallelHeterogeneous,
        4,
        33,
    )
}

#[test]
fn topology_construction_is_deterministic() {
    let a = spec().build().net;
    let b = spec().build().net;
    assert_eq!(a.n_links(), b.n_links());
    for (la, lb) in a.links().zip(b.links()) {
        assert_eq!(la.1.src, lb.1.src);
        assert_eq!(la.1.dst, lb.1.dst);
        assert_eq!(la.1.plane, lb.1.plane);
    }
}

#[test]
fn routing_is_deterministic() {
    let net = spec().build().net;
    let r1 = Router::new(&net, RouteAlgo::Ksp { k: 8 });
    let r2 = Router::new(&net, RouteAlgo::Ksp { k: 8 });
    for a in 0..8u32 {
        for b in 8..16u32 {
            assert_eq!(
                r1.k_best_across_planes(RackId(a), RackId(b), 8),
                r2.k_best_across_planes(RackId(a), RackId(b), 8)
            );
        }
    }
}

#[test]
fn flow_solver_is_deterministic() {
    let net = spec().build().net;
    let c = commodity::permutation(&tm::random_permutation(32, 4));
    let (t1, l1) = throughput::ksp_multipath_throughput(&net, &c, 8, 0.1).unwrap();
    let (t2, l2) = throughput::ksp_multipath_throughput(&net, &c, 8, 0.1).unwrap();
    assert_eq!(t1.to_bits(), t2.to_bits());
    assert_eq!(l1.to_bits(), l2.to_bits());
}

#[test]
fn packet_simulation_is_deterministic() {
    let run_once = || -> Vec<u64> {
        let pnet = spec().build();
        let mut selector = pnet.selector(PathPolicy::paper_default(16));
        let mut sim = Simulator::new(&pnet.net, SimConfig::default());
        for (i, (a, b)) in tm::permutation_pairs(32, 6).into_iter().enumerate() {
            let (routes, cc) = selector.select(
                &pnet.net,
                HostId(a as u32),
                HostId(b as u32),
                i as u64,
                500_000,
            );
            sim.start_flow(FlowSpec {
                src: HostId(a as u32),
                dst: HostId(b as u32),
                size_bytes: 500_000,
                routes,
                cc,
                owner_tag: i as u64,
            });
        }
        run_to_completion(&mut sim);
        let mut fcts: Vec<(u64, u64)> = sim
            .records
            .iter()
            .map(|r| (r.owner_tag, r.fct().as_ps()))
            .collect();
        fcts.sort_unstable();
        fcts.into_iter().map(|(_, f)| f).collect()
    };
    assert_eq!(run_once(), run_once());
}

/// Fixed-seed 2-plane jellyfish used by the serial-vs-parallel checks.
fn two_plane_spec() -> PNetSpec {
    PNetSpec::new(
        TopologyKind::Jellyfish {
            n_tors: 16,
            degree: 4,
            hosts_per_tor: 2,
        },
        NetworkClass::ParallelHomogeneous,
        2,
        7,
    )
}

#[test]
fn serial_and_parallel_route_tables_are_identical() {
    use pnet::routing::Parallelism;
    use pnet::topology::{failures, PlaneId};
    // Both planes one shape class (plane 1's table is written off plane 0's
    // inside one pool task), then plane 1 degraded and on its own.
    let whole = two_plane_spec().build().net;
    let mut degraded = whole.clone();
    let cable = failures::fabric_cables(&degraded, Some(PlaneId(1)))[0];
    failures::fail_cable(&mut degraded, cable);
    for net in [whole, degraded] {
        let serial = Router::with_parallelism(&net, RouteAlgo::Ksp { k: 8 }, Parallelism::Serial);
        serial.precompute_all_pairs_with(Parallelism::Serial);
        let parallel = Router::with_parallelism(&net, RouteAlgo::Ksp { k: 8 }, Parallelism::Rayon);
        parallel.precompute_all_pairs_with(Parallelism::Rayon);
        assert_eq!(serial.cached_entries(), parallel.cached_entries());
        assert_eq!(serial.table_fingerprint(), parallel.table_fingerprint());
        for a in 0..16u32 {
            for b in 0..16u32 {
                if a == b {
                    continue;
                }
                for p in 0..2u16 {
                    assert_eq!(
                        serial.paths_in_plane(PlaneId(p), RackId(a), RackId(b)),
                        parallel.paths_in_plane(PlaneId(p), RackId(a), RackId(b)),
                        "route table diverged at plane {p}, pair ({a},{b})"
                    );
                }
                assert_eq!(
                    serial.k_best_across_planes(RackId(a), RackId(b), 8),
                    parallel.k_best_across_planes(RackId(a), RackId(b), 8)
                );
            }
        }
    }
}

#[test]
fn serial_and_parallel_mcf_solutions_are_bit_identical() {
    use pnet::flowsim::mcf::{self, McfOptions};
    use pnet::flowsim::throughput;
    use pnet::routing::Parallelism;
    let net = two_plane_spec().build().net;
    let c = commodity::permutation(&tm::random_permutation(32, 11));
    // Both explicit-route builders fan out over commodities.
    for algo in [RouteAlgo::Ksp { k: 16 }, RouteAlgo::Ecmp { cap: 64 }] {
        let solve = |par: Parallelism| {
            let router = Router::with_parallelism(&net, algo, par);
            let mode = match algo {
                RouteAlgo::Ksp { .. } => mcf::ksp_mode_with(&net, &router, &c, 8, par),
                RouteAlgo::Ecmp { .. } => {
                    let routes = throughput::ecmp_routes(&net, &router, &c, par);
                    let one = |r: &Option<_>| r.iter().cloned().collect::<Vec<_>>();
                    let routes: Vec<_> = routes.iter().map(one).collect();
                    mcf::PathMode::Explicit(mcf::Candidates::new(&routes))
                }
            };
            mcf::solve_with_options(
                &net,
                &c,
                &mode,
                0.1,
                McfOptions {
                    parallelism: par,
                    ..Default::default()
                },
            )
        };
        let a = solve(Parallelism::Serial);
        let b = solve(Parallelism::Rayon);
        assert_eq!(a.lambda.to_bits(), b.lambda.to_bits(), "{algo:?}");
        assert_eq!(a.phases, b.phases, "{algo:?}");
        assert_eq!(a.rates.len(), b.rates.len());
        for (ra, rb) in a.rates.iter().zip(&b.rates) {
            assert_eq!(ra.to_bits(), rb.to_bits(), "{algo:?}");
        }
        for (fa, fb) in a.link_flow.iter().zip(&b.link_flow) {
            assert_eq!(fa.to_bits(), fb.to_bits(), "{algo:?}");
        }
    }
}

#[test]
fn serial_and_parallel_anypath_mcf_agree() {
    use pnet::flowsim::mcf::{self, McfOptions, PathMode};
    use pnet::routing::Parallelism;
    // The pool's unit is a kernel block: up to eight source ToRs of one
    // plane. The 16-ToR permutation is the historical case; a phase there
    // has almost no work to mis-order. At 64 ToRs and 4 planes the first
    // phase builds 256 trees and a later one the 64 of its one stale plane —
    // eight blocks in one phase of four, copies in the rest — which is the
    // uneven work the pool's claimed blocks interleave. The heterogeneous
    // all-to-all shares nothing: a phase runs up to two blocks in each of
    // its four planes, two hosts to a column, with free host links as in
    // Fig 7.
    let wide = PNetSpec::new(
        TopologyKind::Jellyfish {
            n_tors: 64,
            degree: 8,
            hosts_per_tor: 1,
        },
        NetworkClass::ParallelHomogeneous,
        4,
        7,
    );
    let permutation = |hosts| commodity::permutation(&tm::random_permutation(hosts, 13));
    for (spec, c, eps, host_links_free, shares) in [
        (two_plane_spec(), permutation(32), 0.1, false, true),
        (wide, permutation(64), 0.3, false, true),
        (spec(), commodity::all_to_all(32), 0.3, true, false),
    ] {
        let net = spec.build().net;
        let solve = |par: Parallelism| {
            mcf::solve_with_options(
                &net,
                &c,
                &PathMode::AnyPath,
                eps,
                McfOptions {
                    host_links_free,
                    parallelism: par,
                },
            )
        };
        let a = solve(Parallelism::Serial);
        let b = solve(Parallelism::Rayon);
        let hosts = net.n_hosts();
        let bits = |v: &[f64]| -> Vec<u64> { v.iter().map(|x| x.to_bits()).collect() };
        assert_eq!(a.lambda.to_bits(), b.lambda.to_bits(), "{hosts} hosts");
        assert_eq!(a.phases, b.phases, "{hosts} hosts");
        assert_eq!(bits(&a.rates), bits(&b.rates), "{hosts} hosts");
        assert_eq!(bits(&a.link_flow), bits(&b.link_flow), "{hosts} hosts");
        assert_eq!(bits(&a.length), bits(&b.length), "{hosts} hosts");
        let trees = |s: &mcf::McfSolution| (s.trees_built, s.trees_shared, s.trees_kept);
        assert_eq!(trees(&a), trees(&b), "{hosts} hosts");
        assert_eq!(a.trees_shared > 0, shares, "{hosts} hosts");
    }
}

#[test]
fn planes_of_different_shape_share_no_trees() {
    use pnet::flowsim::mcf::{self, PathMode};
    use pnet::topology::{failures, PlaneId};
    let kind = TopologyKind::Jellyfish {
        n_tors: 16,
        degree: 4,
        hosts_per_tor: 1,
    };
    let c = commodity::permutation(&tm::random_permutation(16, 13));
    // Differently wired planes: nothing to copy, same answer as ever.
    let hetero = PNetSpec::new(kind, NetworkClass::ParallelHeterogeneous, 3, 7)
        .build()
        .net;
    let sol = mcf::solve(&hetero, &c, &PathMode::AnyPath, 0.1);
    assert_eq!(sol.trees_shared, 0);
    assert!(sol.trees_built > 0);
    // Identical planes share; cut a cable in one of three and the other two
    // still do, but less than all three did.
    let mut homo = PNetSpec::new(kind, NetworkClass::ParallelHomogeneous, 3, 7)
        .build()
        .net;
    let whole = mcf::solve(&homo, &c, &PathMode::AnyPath, 0.1);
    let cable = failures::fabric_cables(&homo, Some(PlaneId(1)))[0];
    failures::fail_cable(&mut homo, cable);
    let cut = mcf::solve(&homo, &c, &PathMode::AnyPath, 0.1);
    assert!(cut.trees_shared > 0);
    assert!(cut.trees_shared < whole.trees_shared);
}

/// 20 000 back-to-back in-place batches of 64 tiny items: the shape of the
/// GK phase loop, where the pool's workers go from spinning to parked and
/// back. A lost wake-up hangs here, so the loop runs under a watchdog.
#[test]
fn back_to_back_update_batches_match_the_serial_loop() {
    use pnet::routing::Parallelism;
    let run = |par: Parallelism| {
        let mut items: Vec<u64> = (0..64).collect();
        for round in 0..20_000u64 {
            par.update_indexed(&mut items, |i, x| {
                *x = x.wrapping_mul(6364136223846793005) ^ (round + i as u64)
            });
        }
        items
    };
    let parallel = finishes("20 000 pool batches (lost wake-up?)", move || {
        run(Parallelism::Rayon)
    });
    assert_eq!(parallel, run(Parallelism::Serial));
}

/// Run `f` on a thread the test can give up on: a hang (or a panic in `f`,
/// printed above the failure) fails the test after two minutes instead of
/// wedging the suite.
fn finishes<T: Send + 'static>(what: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    // The watchdog needs a thread it can give up on: a scoped one would be joined.
    std::thread::spawn(move || tx.send(f()));
    rx.recv_timeout(std::time::Duration::from_secs(120))
        .unwrap_or_else(|e| panic!("{what} did not finish: {e}"))
}

/// The 2-plane 12-ToR fabric the shared-router tests churn.
fn churn_fabric() -> pnet::topology::Network {
    use pnet::topology::{assemble_homogeneous, Jellyfish, LinkProfile};
    assemble_homogeneous(
        &Jellyfish::new(12, 3, 1, 4),
        2,
        &LinkProfile::paper_default(),
    )
}

/// Fingerprint of a router built from scratch on `net`, all pairs filled.
fn rebuilt_fingerprint(net: &pnet::topology::Network) -> u64 {
    let fresh = Router::new(net, RouteAlgo::Ksp { k: 4 });
    fresh.precompute_all_pairs();
    fresh.table_fingerprint()
}

/// The router with the pairs out of racks 0..6 filled: the rest of its
/// table is read off its plane graphs only when asked for.
fn half_filled(net: &pnet::topology::Network) -> Router {
    let router = Router::new(net, RouteAlgo::Ksp { k: 4 });
    let pairs: Vec<_> = (0..6u32)
        .flat_map(|a| (0..12u32).filter(move |&b| b != a).map(move |b| (a, b)))
        .map(|(a, b)| (RackId(a), RackId(b)))
        .collect();
    router.precompute_with(&pairs, pnet::routing::Parallelism::default());
    router
}

/// Two writers refresh one router at once against a network that shows a
/// changed cable in each of two planes. Neither change may be lost: after
/// every round the table equals a rebuild, and exactly one refresh repaired
/// anything, since whichever took the lock second found nothing left to do.
/// The table holds half the pairs, so at the end a fill of the rest reads
/// both planes' link state off the plane graphs and must equal a rebuild.
#[test]
fn concurrent_deltas_on_different_planes_both_land() {
    use pnet::topology::{failures, PlaneId};
    finishes("400 rounds of two concurrent refreshes", || {
        let up_net = churn_fabric();
        let cables = [0u16, 1].map(|p| failures::fabric_cables(&up_net, Some(PlaneId(p)))[2]);
        let mut down_net = up_net.clone();
        for c in cables {
            failures::fail_cable(&mut down_net, c);
        }
        let router = half_filled(&up_net);
        // Even steps fail both cables, odd steps restore them.
        let nets = [&down_net, &up_net];
        let want = nets.map(|net| half_filled(net).table_fingerprint());
        let start = std::sync::Barrier::new(2);
        for step in 0..400 {
            let restore = step % 2;
            let stats = std::thread::scope(|s| {
                let racers = [0, 1].map(|_| {
                    let (router, start) = (&router, &start);
                    s.spawn(move || {
                        start.wait();
                        router.refresh(nets[restore])
                    })
                });
                racers.map(|racer| racer.join().expect("a refresh panicked"))
            });
            assert_eq!(router.table_fingerprint(), want[restore], "step {step}");
            let repaired = stats.map(|st| st.entries_repaired);
            assert!(
                repaired.contains(&0) && repaired.iter().any(|&n| n > 0),
                "step {step}: {repaired:?}"
            );
        }
        router.precompute_all_pairs();
        assert_eq!(router.table_fingerprint(), rebuilt_fingerprint(&up_net));
    });
}

/// A reader fills and reads a lazy router while the main thread replays a
/// churn walk through `refresh`. Nothing hangs or panics, every path set the
/// reader gets is in canonical order, and every fill reads the plane graphs
/// the last refresh left: the end state equals a rebuild.
#[test]
fn lookups_race_a_churn_replay() {
    use pnet::routing::PlanePaths;
    use pnet::topology::{ChurnSchedule, PlaneId};
    use rand::{RngExt, SeedableRng};
    finishes("a 12-event churn replay under a reader", || {
        let mut net = churn_fabric();
        let router = Router::new(&net, RouteAlgo::Ksp { k: 4 });
        let sched = ChurnSchedule::random_walk(&net, 12, 0.2, 21);
        assert_eq!(sched.events.len(), 12);
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(5);
                start.wait();
                for _ in 0..4000 {
                    let a = RackId(rng.random_range(0..12u32));
                    let b = RackId((a.0 + rng.random_range(1..12u32)) % 12);
                    let set = router.paths_in_plane(PlaneId(rng.random_range(0..2u16)), a, b);
                    let mut sorted: Vec<_> = set.iter().map(|p| p.to_path()).collect();
                    sorted
                        .sort_by(|p, q| (p.links.len(), &p.links).cmp(&(q.links.len(), &q.links)));
                    let sorted = PlanePaths::from(sorted.as_slice());
                    assert_eq!(set, sorted, "({a}, {b}) out of canonical order");
                    let best = router.k_best_across_planes(a, b, 6);
                    assert!(best
                        .windows(2)
                        .all(|w| w[0].links.len() <= w[1].links.len()));
                }
            });
            start.wait();
            for &ev in &sched.events {
                ev.apply(&mut net);
                assert_eq!(router.refresh(&net).planes_rebuilt, 1);
            }
        });
        router.precompute_all_pairs();
        assert_eq!(router.table_fingerprint(), rebuilt_fingerprint(&net));
    });
}

/// Eight OS threads fan out at once. One of them gets the pool, the others
/// find it busy and run inline; each must get its own index-ordered result.
#[test]
fn concurrent_callers_each_get_their_own_ordered_result() {
    use pnet::routing::Parallelism;
    let start = std::sync::Barrier::new(8);
    std::thread::scope(|s| {
        for t in 0..8usize {
            let start = &start;
            s.spawn(move || {
                start.wait();
                for round in 0..200 {
                    let got = Parallelism::Rayon.map_indexed(97, |i| (t, round, i));
                    let want: Vec<_> = (0..97).map(|i| (t, round, i)).collect();
                    assert_eq!(got, want);
                }
            });
        }
    });
}

#[test]
fn nested_fan_out_completes_and_is_correct() {
    use pnet::routing::Parallelism;
    let par = Parallelism::Rayon;
    let got = par.map_indexed(12, |i| par.map_indexed(9, |j| i * 100 + j));
    let want: Vec<Vec<usize>> = (0..12)
        .map(|i| (0..9).map(|j| i * 100 + j).collect())
        .collect();
    assert_eq!(got, want);
}

#[test]
fn a_panicking_job_reaches_the_caller_and_the_pool_survives() {
    use pnet::routing::Parallelism;
    // The last index lands on a pool worker whenever there is one.
    let caught = std::panic::catch_unwind(|| {
        Parallelism::Rayon.map_indexed(64, |i| {
            assert!(i != 63, "job failed at index {i}");
            i
        })
    });
    assert!(
        caught.is_err(),
        "the job's panic must surface on the caller"
    );
    let mut items = vec![0usize; 64];
    Parallelism::Rayon.update_indexed(&mut items, |i, x| *x = i * i);
    assert_eq!(items, (0..64).map(|i| i * i).collect::<Vec<_>>());
}

#[test]
fn different_seeds_give_different_heterogeneous_planes() {
    let a = PNetSpec { seed: 1, ..spec() }.build().net;
    let b = PNetSpec { seed: 2, ..spec() }.build().net;
    let fabric = |n: &pnet::topology::Network| -> Vec<(u32, u32)> {
        n.links()
            .filter(|(_, l)| n.node(l.src).kind.is_switch() && n.node(l.dst).kind.is_switch())
            .map(|(_, l)| (l.src.0, l.dst.0))
            .collect()
    };
    assert_ne!(fabric(&a), fabric(&b));
}

#[test]
fn telemetry_trace_is_deterministic_and_inert() {
    // Two telemetry-on runs must export byte-identical JSONL, and turning
    // telemetry on must not move a single flow-completion timestamp
    // relative to a telemetry-off run of the same workload.
    use pnet::htsim::{SimTime, TelemetryConfig};
    let run_once = |telemetry: TelemetryConfig| -> (Vec<u64>, String) {
        let pnet = spec().build();
        let mut selector = pnet.selector(PathPolicy::paper_default(16));
        let cfg = SimConfig {
            telemetry,
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(&pnet.net, cfg);
        for (i, (a, b)) in tm::permutation_pairs(32, 6).into_iter().enumerate() {
            let (routes, cc) = selector.select(
                &pnet.net,
                HostId(a as u32),
                HostId(b as u32),
                i as u64,
                500_000,
            );
            sim.start_flow(FlowSpec {
                src: HostId(a as u32),
                dst: HostId(b as u32),
                size_bytes: 500_000,
                routes,
                cc,
                owner_tag: i as u64,
            });
        }
        run_to_completion(&mut sim);
        let mut fcts: Vec<(u64, u64)> = sim
            .records
            .iter()
            .map(|r| (r.owner_tag, r.fct().as_ps()))
            .collect();
        fcts.sort_unstable();
        let jsonl = sim.telemetry().map(|t| t.to_jsonl()).unwrap_or_default();
        (fcts.into_iter().map(|(_, f)| f).collect(), jsonl)
    };
    let on = TelemetryConfig::all(SimTime::from_us(20));
    let (fcts_a, jsonl_a) = run_once(on);
    let (fcts_b, jsonl_b) = run_once(on);
    assert_eq!(fcts_a, fcts_b, "telemetry-on runs diverged");
    assert_eq!(jsonl_a, jsonl_b, "trace export not byte-identical");
    assert!(!jsonl_a.is_empty());
    let (fcts_off, _) = run_once(TelemetryConfig::default());
    assert_eq!(fcts_a, fcts_off, "telemetry perturbed the simulation");
}
