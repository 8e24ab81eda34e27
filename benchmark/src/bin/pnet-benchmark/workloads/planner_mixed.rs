//! `planner_mixed` — a closed loop of one client against the planner
//! service: a seeded stream of admission (70 %), best-K (10 %) and
//! plane-headroom (20 %) queries over a pool of permutation traffic
//! matrices asked for in Zipf(1) proportion, with a publish every 50 queries
//! that alternately
//! fails a fresh cable (an unseen topology fingerprint: misses, and lazy
//! route fill on a new generation) and restores it (the pristine
//! fingerprint returns: hits). One operation is one query.
//!
//! The only workload where the planner's memo, generation publishing and
//! fingerprints, and the router's lazy per-pair fill and lookup path matter;
//! the solve is the short KSP-restricted GK, not `pipeline_cold`'s AnyPath
//! solve. Single-threaded and seeded, so hit and miss counts are exact.

use super::{jellyfish, sub_seed};
use crate::clock::Clock;
use crate::run::Run;
use crate::stats::Sample;
use pnet_flowsim::{commodity, mcf, throughput, Commodity};
use pnet_planner::{solution_fingerprint, Planner, PlannerConfig};
use pnet_routing::{RouteAlgo, Router};
use pnet_topology::{failures, LinkDelta, LinkId};
use pnet_workloads::tm;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::BTreeMap;

const K: usize = 8;
const EPS: f64 = 0.1;
const BEST_K_CANDIDATES: [usize; 3] = [4, 8, 16];
const POOL: usize = 32;
/// Queries between publishes.
const EPOCH: usize = 50;
/// Exact counters are read after this many fail/restore periods, which
/// every run completes whatever its window.
const COUNTED_PERIODS: usize = 4;
/// Lookups per timed batch of `routing.lookup_ns_p50`.
const LOOKUP_BATCH: usize = 1024;

struct Sizes {
    tors: usize,
    degree: usize,
    planes: usize,
}

const FULL: Sizes = Sizes {
    tors: 48,
    degree: 8,
    planes: 4,
};

const QUICK: Sizes = Sizes {
    tors: 16,
    degree: 4,
    planes: 2,
};

/// Seed-1, full-size memo counters after the counted periods.
const PINNED: Memo = Memo {
    hits: 276,
    misses: 124,
    entries: 155,
};

#[derive(Debug, Clone, Copy, PartialEq, Default)]
struct Memo {
    hits: u64,
    misses: u64,
    entries: usize,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Admit,
    BestK,
    Headroom,
}

/// The queries of one epoch. *Which* (kind, matrix) pairs an epoch holds is
/// fixed: matrix `r` of the pool appears in proportion to `1/r` (Zipf(1),
/// apportioned by largest remainder) and the kinds cycle 7 admit : 1 best-K :
/// 2 headroom through that list. The seed decides the order they are asked
/// in, and which matrices and cables stand behind the ranks. Drawing the
/// pairs at random instead makes the number of solves per epoch — and so
/// the query rate — a property of the seed: over ten seeds the misses of the
/// first four periods ranged from 102 to 140.
fn epoch_template() -> Vec<(Kind, usize)> {
    let harmonic: f64 = (1..=POOL).map(|r| 1.0 / r as f64).sum();
    let share = |r: usize| EPOCH as f64 / (r as f64 * harmonic);
    let mut count: Vec<usize> = (1..=POOL).map(|r| share(r) as usize).collect();
    let mut by_remainder: Vec<usize> = (0..POOL).collect();
    by_remainder.sort_by(|&a, &b| {
        let frac = |i: usize| share(i + 1).fract();
        frac(b).total_cmp(&frac(a)).then(a.cmp(&b))
    });
    let missing = EPOCH - count.iter().sum::<usize>();
    for &i in &by_remainder[..missing] {
        count[i] += 1;
    }
    (0..POOL)
        .flat_map(|tm| std::iter::repeat_n(tm, count[tm]))
        .enumerate()
        .map(|(i, tm)| {
            let kind = match i % 10 {
                0..=6 => Kind::Admit,
                7 => Kind::BestK,
                _ => Kind::Headroom,
            };
            (kind, tm)
        })
        .collect()
}

/// The seeded query stream: epoch after epoch of [`epoch_template`], each
/// in a fresh random order.
struct Stream {
    rng: StdRng,
    template: Vec<(Kind, usize)>,
    pending: Vec<(Kind, usize)>,
}

impl Stream {
    fn new(seed: u64) -> Stream {
        Stream {
            rng: StdRng::seed_from_u64(seed),
            template: epoch_template(),
            pending: Vec::new(),
        }
    }

    fn next(&mut self) -> (Kind, usize) {
        if self.pending.is_empty() {
            self.pending = self.template.clone();
            self.pending.shuffle(&mut self.rng);
        }
        self.pending
            .pop()
            .expect("invariant: the epoch template is not empty")
    }
}

/// Latency samples by what the query turned out to be, in milliseconds.
#[derive(Default)]
struct Latencies {
    admit_cold: Vec<f64>,
    best_k_cold: Vec<f64>,
    hit: Vec<f64>,
    headroom: Vec<f64>,
    first_after_publish: Vec<f64>,
    publish: Vec<f64>,
}

struct Client<'a> {
    planner: &'a Planner,
    pool: &'a [Vec<Commodity>],
    stream: Stream,
    lat: Latencies,
    memo: Memo,
    errors: u64,
    /// What the planner returned, by key.
    answers: BTreeMap<MemoKey, Answer>,
    mismatches: u64,
    /// A publish landed and no query has run a solve since: the next one
    /// that does also pays the new generation's lazy route fill.
    after_publish: bool,
}

/// `(topology fingerprint, matrix of the pool, K)`.
type MemoKey = (u64, usize, usize);

/// The planner's answer for one memo key.
#[derive(Debug, Clone, Copy)]
struct Answer {
    /// Fingerprint of the solution first returned; every later answer for
    /// the key must be bitwise identical.
    fingerprint: u64,
    /// Generation the key was last asked on.
    seq: u64,
    /// At least one answer came out of the memo: the key was asked more
    /// than once, or its first query ran no solve.
    hit: bool,
}

impl Client<'_> {
    /// One query. `timed` queries are operations of the run; the warm-up
    /// epoch runs the same code untimed.
    fn query(&mut self, run: &mut Run, timed: bool) {
        let (kind, tm_index) = self.stream.next();
        let (planner, pool) = (self.planner, self.pool);
        let tm = &pool[tm_index];
        let before = planner.memo_stats();
        let call = |t: &crate::trace::Tracer| match kind {
            Kind::Admit => t.in_span("planner.admit", || planner.admit(tm).is_ok()),
            Kind::BestK => t.in_span("planner.best_k", || {
                planner.best_k(tm, &BEST_K_CANDIDATES).is_ok()
            }),
            Kind::Headroom => t.in_span("planner.headroom", || {
                !std::hint::black_box(planner.plane_headroom()).is_empty()
            }),
        };
        let (ok, ms) = if timed {
            run.op(call)
        } else {
            (call(&run.tracer), 0.0)
        };
        let after = planner.memo_stats();
        let solved = after.misses > before.misses;

        if kind != Kind::Headroom {
            let generation = planner.latest();
            let ks: &[usize] = if kind == Kind::Admit {
                &[K]
            } else {
                &BEST_K_CANDIDATES
            };
            for &k in ks {
                let Ok(sol) = planner.solve_ksp_at(&generation, tm, k) else {
                    continue;
                };
                let fingerprint = solution_fingerprint(&sol);
                let key = (generation.topology_fingerprint(), tm_index, k);
                let seq = generation.seq();
                self.answers
                    .entry(key)
                    .and_modify(|a| {
                        self.mismatches += u64::from(a.fingerprint != fingerprint);
                        *a = Answer {
                            seq,
                            hit: true,
                            ..*a
                        };
                    })
                    .or_insert(Answer {
                        fingerprint,
                        seq,
                        hit: !solved,
                    });
            }
        }
        if !timed {
            return;
        }
        if !ok {
            self.errors += 1;
        }
        run.check_op(ok, || {
            format!("{kind:?} query on matrix {tm_index} returned an error")
        });
        self.memo.hits += after.hits - before.hits;
        self.memo.misses += after.misses - before.misses;
        match (kind, solved) {
            (Kind::Headroom, _) => self.lat.headroom.push(ms),
            (Kind::Admit, true) => self.lat.admit_cold.push(ms),
            (Kind::BestK, true) => self.lat.best_k_cold.push(ms),
            (_, false) => self.lat.hit.push(ms),
        }
        if solved {
            run.latency_ms.push(ms);
        }
        if solved && std::mem::take(&mut self.after_publish) {
            self.lat.first_after_publish.push(ms);
        }
    }

    /// Keys answered from the memo at least once so far, each with the
    /// answer it is held to.
    fn hit_keys(&self) -> Vec<(MemoKey, Answer)> {
        self.answers
            .iter()
            .filter(|(_, a)| a.hit)
            .map(|(k, a)| (*k, *a))
            .collect()
    }

    /// Memo hits against the solve they replace: each of `keys` is solved
    /// again outside the planner, on the network and router of the
    /// generation it was last asked on, and must come out bitwise identical.
    /// (Going back through the planner would compare the memo with itself.)
    /// Returns how many differ.
    fn recheck(&self, keys: &[(MemoKey, Answer)]) -> usize {
        keys.iter()
            .filter(|&&((_, tm_index, k), answer)| {
                let fresh = self.planner.generation(answer.seq).ok().and_then(|g| {
                    throughput::try_ksp_solution(
                        g.network(),
                        g.router(),
                        &self.pool[tm_index],
                        k,
                        EPS,
                        mcf::McfOptions::default(),
                    )
                    .ok()
                });
                fresh.map(|sol| solution_fingerprint(&sol)) != Some(answer.fingerprint)
            })
            .count()
    }

    fn publish(&mut self, run: &mut Run, delta: &LinkDelta) {
        let planner = self.planner;
        let (ok, ms) =
            run.aside(|t| t.in_span("planner.publish", || planner.publish_delta(delta).is_ok()));
        run.check(ok, || format!("publish of {delta:?} failed"));
        self.lat.publish.push(ms);
        self.after_publish = true;
    }
}

fn median_of(values: &[f64]) -> f64 {
    Sample::new(values).map_or(0.0, |s| s.median())
}

pub fn run(run: &mut Run) {
    let sz = if run.spec.quick { &QUICK } else { &FULL };
    let seed = run.spec.seed;
    let net = jellyfish(sz.tors, sz.degree, 1, sz.planes, seed);
    let (pool, tm_gen_ms) = run.tracer.timed("workloads.tm_gen", || {
        (0..POOL as u64)
            .map(|i| {
                commodity::permutation(&tm::random_permutation(sz.tors, sub_seed(seed, 100 + i)))
            })
            .collect::<Vec<_>>()
    });
    let mut cables: Vec<LinkId> = failures::fabric_cables(&net, None);
    cables.shuffle(&mut StdRng::seed_from_u64(sub_seed(seed, 2)));

    let cfg = PlannerConfig {
        k: K,
        eps: EPS,
        ..PlannerConfig::default()
    };
    let (planner, build_ms) = run
        .tracer
        .timed("planner.build", || Planner::with_config(net.clone(), cfg));

    let mut client = Client {
        planner: &planner,
        pool: &pool,
        stream: Stream::new(sub_seed(seed, 3)),
        lat: Latencies::default(),
        memo: Memo::default(),
        errors: 0,
        answers: BTreeMap::new(),
        mismatches: 0,
        after_publish: false,
    };

    // Discarded warm-up: one epoch on the pristine generation.
    for _ in 0..EPOCH {
        client.query(run, false);
    }

    run.begin_timed();
    let mut counted = Memo::default();
    let mut hit_keys = Vec::new();
    let mut periods = 0;
    while periods < cables.len() && (periods < COUNTED_PERIODS || run.time_left()) {
        let cable = cables[periods];
        for delta in [
            LinkDelta {
                down: vec![cable],
                up: Vec::new(),
            },
            LinkDelta {
                down: Vec::new(),
                up: vec![cable],
            },
        ] {
            client.publish(run, &delta);
            for _ in 0..EPOCH {
                client.query(run, true);
            }
        }
        periods += 1;
        if periods == COUNTED_PERIODS {
            // Every publish adds a generation that is never dropped, so
            // memory grows with the periods a run fits into its window.
            run.mark_peak_rss();
            counted = Memo {
                entries: planner.memo_stats().entries,
                ..client.memo
            };
            // Keys to solve again once the window has closed: those of the
            // counted periods, so that the check costs every run the same.
            hit_keys = client.hit_keys();
        }
    }
    run.end_timed();

    let differ = client.recheck(&hit_keys);
    run.check(client.mismatches == 0 && differ == 0, || {
        format!(
            "memo answers differ: {} from an earlier answer for the same key, {differ} of {} \
             from a solve outside the planner",
            client.mismatches,
            hit_keys.len()
        )
    });
    if seed == 1 && !run.spec.quick {
        run.check(counted == PINNED, || {
            format!("seed-1 memo counters moved from the pinned values: {counted:?}")
        });
    }
    run.set_exact("planner.memo_hits", counted.hits as f64);
    run.set_exact("planner.memo_misses", counted.misses as f64);
    run.set_exact("planner.memo_entries", counted.entries as f64);
    run.set_exact("planner.errors", client.errors as f64);

    if !run.spec.trace {
        return;
    }
    let lat = &client.lat;
    let cold = Sample::new(&run.latency_ms).expect("the stream has cold queries");
    let (cold_tail_pct, cold_tail_ms) = cold.tail();
    run.set("workloads.tm_gen_us", tm_gen_ms * 1e3 / POOL as f64);
    run.set("planner.build_ms", build_ms);
    run.set("planner.admit_cold_ms_p50", median_of(&lat.admit_cold));
    run.set("planner.best_k_cold_ms_p50", median_of(&lat.best_k_cold));
    run.set(
        "planner.first_query_after_publish_ms_p50",
        median_of(&lat.first_after_publish),
    );
    run.set("planner.cold_ms_tail", cold_tail_ms);
    run.set("planner.cold_tail_pct", cold_tail_pct);
    run.set("planner.hit_us_p50", median_of(&lat.hit) * 1e3);
    run.set("planner.headroom_us_p50", median_of(&lat.headroom) * 1e3);
    run.set("planner.publish_ms_p50", median_of(&lat.publish));
    run.set(
        "planner.queries_per_s",
        run.n_ops() as f64 / (run.timed_wall_ms() / 1e3),
    );
    run.set(
        "planner.hit_ratio",
        client.memo.hits as f64 / (client.memo.hits + client.memo.misses).max(1) as f64,
    );

    // Router cost under the planner, isolated on the latest generation's
    // fabric: filling a fresh lazy router for one matrix against reusing a
    // warm one, and the warm lookup itself.
    let generation = planner.latest();
    let fabric = generation.network();
    let wide = (2 * K).max(8);
    let router = Router::new(fabric, RouteAlgo::Ksp { k: wide });
    let (_, fill_ms) = run.tracer.timed("routing.lazy_fill", || {
        mcf::ksp_mode(fabric, &router, &pool[0], K)
    });
    let (_, warm_ms) = run.tracer.timed("routing.warm_lookup", || {
        mcf::ksp_mode(fabric, &router, &pool[0], K)
    });
    run.set("routing.lazy_fill_ms", fill_ms - warm_ms);

    let pairs: Vec<_> = pool[0]
        .iter()
        .map(|c| (fabric.rack_of_host(c.src), fabric.rack_of_host(c.dst)))
        .collect();
    let per_lookup_ns: Vec<f64> = (0..64)
        .map(|_| {
            let t0 = Clock::start();
            for i in 0..LOOKUP_BATCH {
                let (a, b) = pairs[i % pairs.len()];
                std::hint::black_box(router.k_best_across_planes(a, b, K));
            }
            t0.elapsed_ns() as f64 / LOOKUP_BATCH as f64
        })
        .collect();
    run.set("routing.lookup_ns_p50", median_of(&per_lookup_ns));
}
