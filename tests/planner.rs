//! Planner service contract tests: snapshot consistency across publishes,
//! memo-hit ≡ cold-solve byte identity, batch amortization, and concurrent
//! queries racing the writer.

use pnet::flowsim::mcf::McfError;
use pnet::flowsim::{commodity, Commodity};
use pnet::planner::{
    solution_fingerprint, topology_fingerprint, PlanError, Planner, PlannerConfig,
};
use pnet::topology::{
    assemble_homogeneous, failures, FatTree, HostId, LinkDelta, LinkId, LinkProfile, Network,
    PlaneId,
};
use std::sync::{Arc, Barrier};

fn net() -> Network {
    assemble_homogeneous(&FatTree::three_tier(4), 2, &LinkProfile::paper_default())
}

fn cfg() -> PlannerConfig {
    PlannerConfig { k: 4, eps: 0.1 }
}

fn tm() -> Vec<Commodity> {
    commodity::all_to_all(8)
}

fn down(cable: LinkId) -> LinkDelta {
    LinkDelta {
        down: vec![cable],
        up: Vec::new(),
    }
}

fn up(cable: LinkId) -> LinkDelta {
    LinkDelta {
        down: Vec::new(),
        up: vec![cable],
    }
}

/// Satellite 5 (first half): a query pinned to generation N returns
/// byte-identical results before and after a publish lands N+1 —
/// fingerprint-asserted on the full solution, and cross-checked against an
/// independent cold planner over the same topology.
#[test]
fn pinned_generation_is_byte_identical_across_publish() {
    let planner = Planner::with_config(net(), cfg());
    let gen0 = planner.latest();
    let fp0 = gen0.topology_fingerprint();
    let tm = tm();
    let before = planner.solve_ksp_at(&gen0, &tm, 4).expect("solvable");
    let before_fp = solution_fingerprint(&before);

    // Publish N+1 mid-flight: fail one fabric cable.
    let cable = failures::fabric_cables(gen0.network(), None)[0];
    let stats = planner.publish_delta(&down(cable)).expect("publish");
    assert_eq!(stats.seq, 1);
    assert_ne!(stats.topology_fp, fp0, "churn must move the fingerprint");
    assert_eq!(planner.latest().seq(), 1);
    assert_eq!(
        planner
            .generation(1)
            .expect("published")
            .topology_fingerprint(),
        stats.topology_fp
    );

    // The pinned generation is untouched, and the pinned query re-answers
    // with the identical bytes.
    assert_eq!(gen0.topology_fingerprint(), fp0);
    assert_eq!(topology_fingerprint(gen0.network()), fp0);
    let after = planner.solve_ksp_at(&gen0, &tm, 4).expect("solvable");
    assert_eq!(solution_fingerprint(&after), before_fp);

    // An independent cold planner over the same topology lands on the
    // same bytes — the fingerprint is a real identity, not an artifact of
    // the shared cache.
    let cold = Planner::with_config(net(), cfg());
    let cold_sol = cold.solve_ksp_at(&cold.latest(), &tm, 4).expect("solvable");
    assert_eq!(solution_fingerprint(&cold_sol), before_fp);

    // Down + up round-trips the topology fingerprint to the seed's.
    let restored = planner.publish_delta(&up(cable)).expect("publish");
    assert_eq!(restored.topology_fp, fp0);
}

/// Satellite 5 (second half): a memo hit is bitwise identical to the cold
/// solve it replaces, with the hit/miss counters proving the second query
/// was actually served from cache.
#[test]
fn memo_hit_is_bitwise_identical_to_cold_solve() {
    let planner = Planner::with_config(net(), cfg());
    let gen0 = planner.latest();
    let tm = tm();
    let cold = planner.solve_ksp_at(&gen0, &tm, 4).expect("solvable");
    let s1 = planner.memo_stats();
    assert_eq!((s1.hits, s1.misses), (0, 1));
    let warm = planner.solve_ksp_at(&gen0, &tm, 4).expect("solvable");
    let s2 = planner.memo_stats();
    assert_eq!((s2.hits, s2.misses), (1, 1));
    assert_eq!(solution_fingerprint(&cold), solution_fingerprint(&warm));
    // `admit` consumes the same memo entry (same K, same ε).
    let adm = planner.admit_at(&gen0, &tm).expect("solvable");
    assert_eq!(adm.lambda.to_bits(), cold.lambda.to_bits());
    assert_eq!(planner.memo_stats().hits, 2);
}

/// Batch admission pins one generation and solves each *distinct* matrix
/// exactly once; duplicates are answered from the batch-local dedupe.
#[test]
fn admit_batch_amortizes_duplicate_matrices() {
    let planner = Planner::with_config(net(), cfg());
    let a = tm();
    let perm: Vec<usize> = (0..16).map(|i| (i + 8) % 16).collect();
    let b = commodity::permutation(&perm);
    let batch = vec![a.clone(), b.clone(), a.clone(), b, a];
    let answers = planner.admit_batch(&batch);
    assert_eq!(answers.len(), 5);
    let stats = planner.memo_stats();
    assert_eq!(stats.misses, 2, "two distinct matrices -> two GK solves");
    let first = answers[0].as_ref().expect("solvable");
    let third = answers[2].as_ref().expect("solvable");
    assert_eq!(first.lambda.to_bits(), third.lambda.to_bits());
}

/// Plane headroom is pure link arithmetic: healthy planes report 1.0, a
/// failed cable debits exactly its own plane (both directions).
#[test]
fn plane_headroom_tracks_failures() {
    let planner = Planner::with_config(net(), cfg());
    for h in planner.plane_headroom() {
        assert!((h.headroom - 1.0).abs() < 1e-12);
        assert_eq!(h.failed_links, 0);
        assert_eq!(h.live_capacity_bps, h.total_capacity_bps);
    }
    let cable = failures::fabric_cables(planner.latest().network(), Some(PlaneId(1)))[0];
    planner.publish_delta(&down(cable)).expect("publish");
    let headroom = planner.plane_headroom();
    assert_eq!(headroom[1].failed_links, 2, "both directions of the cable");
    assert!(headroom[1].headroom < 1.0);
    assert!(
        (headroom[0].headroom - 1.0).abs() < 1e-12,
        "the other plane is untouched"
    );
}

/// What-if failures run against a private clone: ideal throughput drops
/// (or holds), and the pinned generation's fingerprint never moves.
#[test]
fn what_if_failures_leave_snapshot_untouched() {
    let planner = Planner::with_config(net(), cfg());
    let gen0 = planner.latest();
    let tm = tm();
    let cables = failures::fabric_cables(gen0.network(), None);
    let wi = planner
        .ideal_throughput_after_at(&gen0, &cables[..2], &tm)
        .expect("solvable");
    assert!(wi.baseline_lambda > 0.0);
    assert!(wi.degraded_lambda <= wi.baseline_lambda * 1.01);
    assert!(wi.retained() > 0.0 && wi.retained() <= 1.01);
    assert_eq!(
        topology_fingerprint(gen0.network()),
        gen0.topology_fingerprint(),
        "what-if must not mutate the snapshot"
    );
}

/// `best_k` sweeps the candidates, returns the max-λ winner, and leaves
/// every sub-result memoized (a re-sweep is all cache hits).
#[test]
fn best_k_sweep_is_memoized() {
    let planner = Planner::with_config(net(), cfg());
    let perm: Vec<usize> = (0..16).map(|i| (i + 8) % 16).collect();
    let tm = commodity::permutation(&perm);
    let best = planner.best_k(&tm, &[1, 4, 8]).expect("solvable");
    assert_eq!(best.evaluated.len(), 3);
    for &(_, lambda) in &best.evaluated {
        assert!(best.lambda >= lambda, "winner must dominate the sweep");
    }
    let before = planner.memo_stats();
    planner.best_k(&tm, &[1, 4, 8]).expect("solvable");
    let after = planner.memo_stats();
    assert_eq!(after.misses, before.misses, "re-sweep must not re-solve");
    assert_eq!(after.hits, before.hits + 3);
}

/// Degenerate queries come back as typed errors, not panics — including
/// the bad-ε validation from the mcf bugfix surfacing through the service.
#[test]
fn degenerate_queries_are_typed_errors() {
    let planner = Planner::with_config(net(), cfg());
    let gen0 = planner.latest();
    assert!(matches!(
        planner.generation(99),
        Err(PlanError::UnknownGeneration { seq: 99 })
    ));
    assert!(matches!(
        planner.best_k(&tm(), &[]),
        Err(PlanError::NoCandidates)
    ));
    assert!(matches!(
        planner.admit_at(&gen0, &[]),
        Err(PlanError::Solver(McfError::NoCommodities))
    ));
    let bogus = LinkId(u32::MAX);
    assert!(matches!(
        planner.ideal_throughput_after_at(&gen0, &[bogus], &tm()),
        Err(PlanError::UnknownLink { .. })
    ));
    assert!(matches!(
        planner.publish_delta(&down(bogus)),
        Err(PlanError::UnknownLink { .. })
    ));
    let bad = Planner::with_config(net(), PlannerConfig { eps: 1.5, ..cfg() });
    assert!(matches!(
        bad.admit(&tm()),
        Err(PlanError::Solver(McfError::InvalidEps { .. }))
    ));
}

/// A what-if that fails every fabric cable leaves no plane joining two racks:
/// the first inter-rack commodity (0 → 2; 0 → 1 shares a ToR) comes back as
/// the solver's typed error, from the library and from `pnet plan`.
#[test]
fn what_if_cutting_every_fabric_cable_is_a_typed_error() {
    let planner = Planner::with_config(net(), cfg());
    let cables = failures::fabric_cables(planner.latest().network(), None);
    assert_eq!(
        planner.ideal_throughput_after(&cables, &tm()).err(),
        Some(PlanError::Solver(McfError::UnroutableCommodity {
            index: 1
        }))
    );
    let argv = "plan --tors 8 --degree 3 --hosts-per-tor 1 --planes 2 --sweep 1 \
                --what-if-cables 100000";
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_pnet"))
        .args(argv.split_whitespace())
        .output()
        .expect("failed to launch pnet");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.starts_with("pnet plan: flow solver:"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

/// Concurrent readers race the writer: queries pinned to generation 0 stay
/// bitwise stable while four publishes land, and queries against whatever
/// `latest()` returns always succeed. Scoped threads keep the test
/// deterministic in outcome (every interleaving must pass).
#[test]
fn concurrent_queries_survive_publishes() {
    let planner = Arc::new(Planner::with_config(net(), cfg()));
    let gen0 = planner.latest();
    let tm = tm();
    let reference = solution_fingerprint(&planner.solve_ksp_at(&gen0, &tm, 4).expect("solvable"));
    let cable = failures::fabric_cables(gen0.network(), None)[0];
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let planner = Arc::clone(&planner);
            let tm = tm.clone();
            scope.spawn(move || {
                for _ in 0..8 {
                    let pinned = planner.generation(0).expect("seed generation");
                    let sol = planner.solve_ksp_at(&pinned, &tm, 4).expect("solvable");
                    assert_eq!(solution_fingerprint(&sol), reference);
                    let latest = planner.latest();
                    let adm = planner.admit_at(&latest, &tm).expect("solvable");
                    assert!(adm.lambda > 0.0);
                }
            });
        }
        for _ in 0..2 {
            planner.publish_delta(&down(cable)).expect("publish");
            planner.publish_delta(&up(cable)).expect("publish");
        }
    });
    assert_eq!(planner.n_generations(), 5);
    let pinned = planner.generation(0).expect("seed generation");
    let fin = planner.solve_ksp_at(&pinned, &tm, 4).expect("solvable");
    assert_eq!(solution_fingerprint(&fin), reference);
}

/// Two publishers racing `publish_delta` lose nothing: every returned
/// sequence number is distinct, generation `i` sits at index `i`, one past
/// the end is a typed error, and the generation pinned before the race is
/// bitwise stable after every publish. The barrier releases both writers
/// together, so they contend for the writer lock from the first delta.
#[test]
fn racing_publishers_cannot_lose_a_generation() {
    const N: u64 = 25;
    let planner = Planner::with_config(net(), cfg());
    let gen0 = planner.latest();
    let fp0 = gen0.topology_fingerprint();
    let cables = failures::fabric_cables(gen0.network(), None);
    let start = Barrier::new(2);
    let mut seqs: Vec<u64> = std::thread::scope(|scope| {
        let publishers: Vec<_> = (0..2)
            .map(|t| {
                let (planner, gen0, start, cable) = (&planner, &gen0, &start, cables[t]);
                scope.spawn(move || {
                    start.wait();
                    (0..N)
                        .map(|i| {
                            let delta = if i % 2 == 0 { down(cable) } else { up(cable) };
                            let stats = planner.publish_delta(&delta).expect("publish");
                            assert_eq!(topology_fingerprint(gen0.network()), fp0);
                            let pinned = planner.generation(0).expect("seed generation");
                            assert_eq!(pinned.topology_fingerprint(), fp0);
                            stats.seq
                        })
                        .collect::<Vec<u64>>()
                })
            })
            .collect();
        publishers
            .into_iter()
            .flat_map(|p| p.join().expect("publisher panicked"))
            .collect()
    });
    seqs.sort_unstable();
    assert_eq!(seqs, (1..=2 * N).collect::<Vec<u64>>());
    assert_eq!(planner.n_generations() as u64, 1 + 2 * N);
    for i in 0..=2 * N {
        assert_eq!(planner.generation(i).expect("published").seq(), i);
    }
    assert!(matches!(
        planner.generation(1 + 2 * N),
        Err(PlanError::UnknownGeneration { .. })
    ));
    assert_eq!(planner.latest().seq(), 2 * N);
}

/// `memo_stats()` is one consistent snapshot: an entry is counted as a miss
/// before it is inserted, so no snapshot taken while queries race may show
/// more entries than misses. One-commodity matrices keep a miss-to-insert
/// short enough that a torn read of the three counters would be caught; a
/// quarter of the queries repeat a key so hits are counted too.
#[test]
fn memo_stats_snapshots_are_consistent_under_racing_queries() {
    const CLIENTS: usize = 3;
    const QUERIES: usize = 80;
    let planner = Planner::with_config(net(), cfg());
    let gen0 = planner.latest();
    let start = Barrier::new(CLIENTS + 1);
    std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|t| {
                let (planner, gen0, start) = (&planner, &gen0, &start);
                scope.spawn(move || {
                    start.wait();
                    for q in 0..QUERIES {
                        let fresh = if q % 4 == 3 { q - 1 } else { q };
                        let pair = t * QUERIES + fresh;
                        let (src, dst) = (pair / 15, pair % 15);
                        let dst = if dst >= src { dst + 1 } else { dst };
                        let tm = [Commodity::unit(HostId(src as u32), HostId(dst as u32))];
                        planner.admit_at(gen0, &tm).expect("solvable");
                    }
                })
            })
            .collect();
        start.wait();
        while !clients.iter().all(|c| c.is_finished()) {
            let s = planner.memo_stats();
            assert!(
                s.entries as u64 <= s.misses,
                "torn snapshot: {} entries after {} misses",
                s.entries,
                s.misses
            );
        }
    });
    let s = planner.memo_stats();
    assert_eq!(s.hits + s.misses, (CLIENTS * QUERIES) as u64);
    assert_eq!(
        s.entries as u64, s.misses,
        "every solve succeeded and was cached"
    );
    assert_eq!(s.hits, (CLIENTS * QUERIES / 4) as u64);
}
