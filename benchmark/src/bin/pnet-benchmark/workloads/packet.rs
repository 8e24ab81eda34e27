//! The two packet-simulation workloads. One operation is one complete
//! simulation: build the simulator, start the flows (or the open-loop
//! driver), run to the end.
//!
//! `packet_bulk` — 686 hosts, two host permutations of 1 MB MPTCP flows:
//! `htsim` steady state with deep drop-tail queues, a dense event calendar
//! and heavy packet-arena churn; every other layer idles. The same shape as
//! the legacy `BENCH_htsim.json`, so the trajectory is continuous.
//!
//! `packet_rpc` — 256 hosts on four heterogeneous planes, open-loop Poisson
//! arrivals of scaled websearch flows: tens of thousands of few-packet
//! flows, near-empty queues, a sparse calendar, connection set-up and
//! teardown per flow, plus `core` path selection (with its `routing`
//! lookups) and `workloads` sampling on every arrival. A bulk-path gain
//! bought with per-flow cost shows here. Open loop in simulated time; on
//! the host it is one closed `run` call.

use super::{jellyfish, sub_seed};
use crate::run::Run;
use crate::trace::Tracer;
use pnet_core::{PNetSpec, PathPolicy, TopologyKind};
use pnet_htsim::apps::OpenLoopDriver;
use pnet_htsim::{CcAlgo, FlowRecord, FlowSpec, SimConfig, SimTime, Simulator};
use pnet_routing::{host_route, Fnv, RouteAlgo, Router};
use pnet_topology::{HostId, LinkId, Network, NetworkClass};
use pnet_workloads::{tm, PoissonArrivals, Trace};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Simulated statistics of one run: identical across passes, and at seed 1
/// equal to the workload's pinned digest. A change that only makes the
/// simulator faster must leave every one of them as it is.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Digest {
    events: u64,
    flows_started: u64,
    flows_completed: u64,
    drops: u64,
    retransmits: u64,
    timeouts: u64,
    peak_queue_bytes_max: u64,
    arena_capacity: usize,
    sim_time_ps: u64,
    fct_p50_ps: u64,
    fct_p99_ps: u64,
    /// FNV over `(owner_tag, start, finish, retransmits, timeouts)` of every
    /// flow record, in owner-tag order.
    records_fingerprint: u64,
}

fn digest(sim: &Simulator, net: &Network, records: &[FlowRecord], started: u64) -> Digest {
    let mut rows: Vec<(u64, u64, u64, u64, u64)> = records
        .iter()
        .map(|r| {
            (
                r.owner_tag,
                r.start.as_ps(),
                r.finish.as_ps(),
                r.retransmits,
                r.timeouts,
            )
        })
        .collect();
    rows.sort_unstable();
    let mut h = Fnv::new();
    for &(tag, start, finish, retransmits, timeouts) in &rows {
        for word in [tag, start, finish, retransmits, timeouts] {
            h.u64(word);
        }
    }
    let mut fcts: Vec<u64> = records.iter().map(|r| r.fct().as_ps()).collect();
    fcts.sort_unstable();
    // Nearest rank; simulated values, so no sample guard applies.
    let fct_at = |p: usize| {
        fcts.get((fcts.len() * p).div_ceil(100).saturating_sub(1))
            .copied()
            .unwrap_or(0)
    };
    Digest {
        events: sim.events_dispatched(),
        flows_started: started,
        flows_completed: records.len() as u64,
        drops: sim.dropped_packets + sim.dropped_link_down_packets,
        retransmits: records.iter().map(|r| r.retransmits).sum(),
        timeouts: records.iter().map(|r| r.timeouts).sum(),
        peak_queue_bytes_max: (0..net.n_links() as u32)
            .map(|l| sim.queue_stats(LinkId(l)).peak_bytes)
            .max()
            .unwrap_or(0),
        arena_capacity: sim.packet_arena().capacity(),
        sim_time_ps: sim.now.as_ps(),
        fct_p50_ps: fct_at(50),
        fct_p99_ps: fct_at(99),
        records_fingerprint: h.0,
    }
}

/// Counters and, in the traced run, the `htsim` timings both workloads
/// share.
fn report(run: &mut Run, d: &Digest) {
    run.set_exact("htsim.events", d.events as f64);
    run.set_exact("htsim.flows_started", d.flows_started as f64);
    run.set_exact("htsim.flows_completed", d.flows_completed as f64);
    run.set_exact("htsim.drops", d.drops as f64);
    run.set_exact("htsim.retransmits", d.retransmits as f64);
    run.set_exact("htsim.timeouts", d.timeouts as f64);
    run.set_exact("htsim.peak_queue_bytes_max", d.peak_queue_bytes_max as f64);
    run.set_exact("htsim.arena_capacity", d.arena_capacity as f64);
    run.set_exact("htsim.sim_time_us", d.sim_time_ps as f64 / 1e6);
    run.set_exact("htsim.fct_us_p50", d.fct_p50_ps as f64 / 1e6);
    run.set_exact("htsim.fct_us_p99", d.fct_p99_ps as f64 / 1e6);
    if !run.spec.trace {
        return;
    }
    let run_ms = run.span_median("htsim.run", 1e6);
    run.set(
        "htsim.sim_build_ms",
        run.span_median("htsim.sim_build", 1e6),
    );
    run.set("htsim.run_ms", run_ms);
    run.set("htsim.ns_per_event", run_ms * 1e6 / d.events as f64);
    run.set("htsim.events_per_s", d.events as f64 / (run_ms / 1e3));
    run.set(
        "htsim.events_per_flow",
        d.events as f64 / d.flows_started.max(1) as f64,
    );
    run.set(
        "htsim.flows_per_s",
        d.flows_completed as f64 / (run_ms / 1e3),
    );
}

/// Timed passes of `pass` against the digest of a discarded warm-up pass.
fn measure(
    run: &mut Run,
    pinned: Option<Digest>,
    mut pass: impl FnMut(&Tracer) -> Digest,
) -> Digest {
    // Discarded warm-up: the first pass of a process pays first-touch page
    // faults on the arena and queues that no later pass pays.
    let reference = run.warm_up(&mut pass);
    run.begin_timed();
    while run.n_ops() == 0 || run.time_left() {
        let (d, _) = run.op(&mut pass);
        run.check_op(
            d == reference && d.flows_completed == d.flows_started,
            || format!("pass differs from the warm-up pass or left flows unfinished: {d:?}"),
        );
    }
    run.end_timed();
    if let Some(pinned) = pinned {
        run.check(reference == pinned, || {
            format!("seed-1 results moved from the pinned values: {reference:?}")
        });
    }
    reference
}

// ---------------------------------------------------------------------------
// packet_bulk
// ---------------------------------------------------------------------------

struct BulkSizes {
    tors: usize,
    degree: usize,
    hosts_per_tor: usize,
    planes: usize,
    permutations: u64,
    flow_bytes: u64,
}

const BULK_FULL: BulkSizes = BulkSizes {
    tors: 98,
    degree: 14,
    hosts_per_tor: 7,
    planes: 3,
    permutations: 2,
    flow_bytes: 1_000_000,
};

const BULK_QUICK: BulkSizes = BulkSizes {
    tors: 16,
    degree: 4,
    hosts_per_tor: 2,
    planes: 2,
    permutations: 1,
    flow_bytes: 100_000,
};

const BULK_PINNED: Digest = Digest {
    events: 15081234,
    flows_started: 1372,
    flows_completed: 1372,
    drops: 79972,
    retransmits: 108399,
    timeouts: 341,
    peak_queue_bytes_max: 150000,
    arena_capacity: 189138,
    sim_time_ps: 31111561600,
    fct_p50_ps: 257643200,
    fct_p99_ps: 10283046400,
    records_fingerprint: 16020206626043488270,
};

pub fn run_bulk(run: &mut Run) {
    let sz = if run.spec.quick {
        &BULK_QUICK
    } else {
        &BULK_FULL
    };
    let seed = run.spec.seed;
    let net = jellyfish(sz.tors, sz.degree, sz.hosts_per_tor, sz.planes, seed);
    let n_hosts = net.n_hosts();

    // Two-subflow LIA over the two globally best paths of each pair.
    let router = Router::new(&net, RouteAlgo::Ksp { k: 2 });
    let flows: Vec<FlowSpec> = (0..sz.permutations)
        .flat_map(|p| {
            tm::random_permutation(n_hosts, sub_seed(seed, p))
                .into_iter()
                .enumerate()
                .map(move |(i, j)| (p as usize * n_hosts + i, i, j))
        })
        .map(|(tag, i, j)| {
            let (src, dst) = (HostId(i as u32), HostId(j as u32));
            let paths =
                router.k_best_across_planes(net.rack_of_host(src), net.rack_of_host(dst), 2);
            FlowSpec {
                src,
                dst,
                size_bytes: sz.flow_bytes,
                routes: paths
                    .iter()
                    .filter_map(|p| host_route(&net, src, dst, p))
                    .collect(),
                cc: CcAlgo::Lia,
                owner_tag: tag as u64,
            }
        })
        .collect();

    let pinned = (seed == 1 && !run.spec.quick).then_some(BULK_PINNED);
    let d = measure(run, pinned, |t| {
        let mut sim = t.in_span("htsim.sim_build", || {
            Simulator::new(&net, SimConfig::default())
        });
        for spec in &flows {
            t.in_span("htsim.start_flow", || sim.start_flow(spec.clone()));
        }
        t.in_span("htsim.run", || pnet_htsim::run_to_completion(&mut sim));
        digest(&sim, &net, &sim.records, flows.len() as u64)
    });
    report(run, &d);
    if run.spec.trace {
        run.set(
            "htsim.flow_start_us_p50",
            run.span_median("htsim.start_flow", 1e3),
        );
    }
}

// ---------------------------------------------------------------------------
// packet_rpc
// ---------------------------------------------------------------------------

struct RpcSizes {
    tors: usize,
    degree: usize,
    hosts_per_tor: usize,
    planes: usize,
    /// Arrival window in simulated microseconds. The simulation then runs
    /// until its calendar is empty, so that every started flow finishes: a
    /// deadline of twice the window left the one flow in some 55 000 that
    /// loses a packet (one seed in twenty) waiting for its 1 ms timer.
    window_us: u64,
}

const RPC_FULL: RpcSizes = RpcSizes {
    tors: 64,
    degree: 8,
    hosts_per_tor: 4,
    planes: 4,
    window_us: 500,
};

const RPC_QUICK: RpcSizes = RpcSizes {
    tors: 16,
    degree: 4,
    hosts_per_tor: 2,
    planes: 2,
    window_us: 100,
};

/// Offered load as a share of the serial low-bandwidth capacity
/// (hosts × 100G), so that the fabric is far from saturated: queues stay
/// near-empty and a drop is a rare accident.
const RPC_LOAD: f64 = 0.5;
const RPC_SIZE_SCALE: f64 = 0.01;
/// Min-RTO scaled down with the flow sizes (see the repository's verify
/// notes: unscaled, 10 ms RTO quantization dominates scaled-down runs).
const RPC_MIN_RTO_US: u64 = 1_000;

const RPC_PINNED: Digest = Digest {
    events: 9539845,
    flows_started: 55029,
    flows_completed: 55029,
    drops: 0,
    retransmits: 0,
    timeouts: 0,
    peak_queue_bytes_max: 114400,
    arena_capacity: 9167,
    sim_time_ps: 1499993574,
    fct_p50_ps: 6451606,
    fct_p99_ps: 19396011,
    records_fingerprint: 16400392357205394038,
};

pub fn run_rpc(run: &mut Run) {
    let sz = if run.spec.quick {
        &RPC_QUICK
    } else {
        &RPC_FULL
    };
    let seed = run.spec.seed;
    let topology = TopologyKind::Jellyfish {
        n_tors: sz.tors,
        degree: sz.degree,
        hosts_per_tor: sz.hosts_per_tor,
    };
    let (pnet, pnet_build_ms) = run.tracer.timed("core.pnet_build", || {
        PNetSpec::new(
            topology,
            NetworkClass::ParallelHeterogeneous,
            sz.planes,
            seed,
        )
        .build()
    });
    let net = &pnet.net;
    let n_hosts = net.n_hosts() as u32;
    let mut selector = pnet.selector(PathPolicy::PlaneKsp { per_plane: 1 });
    let ((), selector_warm_ms) = run.tracer.timed("core.selector_warm", || selector.warm());

    let cdf = Trace::Websearch.cdf().scaled(RPC_SIZE_SCALE);
    let capacity_bps = f64::from(n_hosts) * 100e9;
    let mean_bytes = cdf.mean_bytes();
    let stop = SimTime::from_us(sz.window_us);
    let mut cfg = SimConfig::default();
    cfg.tcp.min_rto = SimTime::from_us(RPC_MIN_RTO_US);

    let pinned = (seed == 1 && !run.spec.quick).then_some(RPC_PINNED);
    let d = measure(run, pinned, |t| {
        let mut sim = t.in_span("htsim.sim_build", || Simulator::new(net, cfg));
        let mut arrivals =
            PoissonArrivals::for_load(RPC_LOAD, capacity_bps, mean_bytes, sub_seed(seed, 1));
        let mut pair_rng = StdRng::seed_from_u64(sub_seed(seed, 2));
        let mut size_rng = StdRng::seed_from_u64(sub_seed(seed, 3));
        let mut flow_id = 0u64;
        let selector = &mut selector;
        let cdf = &cdf;
        let factory = Box::new(move |src, dst, size| {
            let _span = t.span("core.select");
            flow_id += 1;
            selector.select(net, src, dst, flow_id, size)
        });
        let next_flow = Box::new(move || {
            let _span = t.span("workloads.flow_sample");
            let a = pair_rng.random_range(0..n_hosts);
            let mut b = pair_rng.random_range(0..n_hosts - 1);
            if b >= a {
                b += 1;
            }
            (HostId(a), HostId(b), cdf.sample(&mut size_rng))
        });
        let next_gap = Box::new(move || {
            let _span = t.span("workloads.gap_sample");
            SimTime::from_ps(arrivals.next_gap_ps())
        });
        let mut driver = t.in_span("htsim.driver_start", || {
            OpenLoopDriver::start(&mut sim, factory, next_flow, next_gap, stop)
        });
        t.in_span("htsim.run", || pnet_htsim::run(&mut sim, &mut driver, None));
        digest(&sim, net, &driver.completed, driver.started)
    });
    report(run, &d);
    if run.spec.trace {
        run.set("core.pnet_build_ms", pnet_build_ms);
        run.set("core.selector_warm_ms", selector_warm_ms);
        run.set("core.select_ns_p50", run.span_median("core.select", 1.0));
        run.set(
            "workloads.flow_sample_ns_p50",
            run.span_median("workloads.flow_sample", 1.0)
                + run.span_median("workloads.gap_sample", 1.0),
        );
    }
}
