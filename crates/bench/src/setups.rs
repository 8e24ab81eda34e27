//! Shared experiment scaffolding: the checked fabric and count flags, the
//! four comparison networks, per-class path policies, the build → factory →
//! simulator scaffold of the packet-level experiments, and the traffic
//! generators and throughput tables more than one experiment uses.
//!
//! The flag helpers are the one place a value is checked against what the
//! library can build or solve: a value it cannot use comes back as an
//! [`ArgErrorKind::Rejected`](crate::ArgErrorKind) naming the flag, for the
//! `pnet` subcommands and the experiments alike.

use crate::args::parse_size;
use crate::{f3, ArgError, Args, Error, Table};
use pnet_core::{PNetSpec, PathPolicy, PathSelector, TopologyKind};
use pnet_flowsim::{throughput, Commodity, McfError};
use pnet_htsim::apps::{ClosedLoopDriver, ClosedLoopSlot, FlowFactory, RpcDriver, RpcSlot};
use pnet_htsim::{
    metrics, run, run_to_completion, CcAlgo, FlowSpec, SimConfig, SimTime, Simulator,
};
use pnet_topology::components::ChipSpec;
use pnet_topology::{HostId, Network, NetworkClass};
use pnet_workloads::{tm, EmpiricalCdf, Trace};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::io::Write;

/// `--{flag}`, a count that means nothing at zero: paths, hosts, packets.
pub fn count(args: &Args, flag: &str) -> Result<usize, ArgError> {
    let n: usize = args.get(flag)?;
    if n == 0 {
        return Err(args.reject(flag, n, "must be at least 1"));
    }
    Ok(n)
}

/// The comma-separated counts of `--{flag}` (k/m/g suffixes allowed), none
/// of them zero.
pub fn counts(args: &Args, flag: &str) -> Result<Vec<u64>, ArgError> {
    let list = args.list_with(flag, parse_size)?;
    if list.contains(&0) {
        let given = args.get_str(flag).unwrap_or_default();
        return Err(args.reject(flag, given, "every entry must be at least 1"));
    }
    Ok(list)
}

/// `--eps`, the flow solver's approximation parameter.
pub fn eps_from(args: &Args) -> Result<f64, ArgError> {
    let eps: f64 = args.get("eps")?;
    if !(eps > 0.0 && eps < 0.5) {
        return Err(args.reject("eps", eps, "the flow solver needs 0 < eps < 0.5"));
    }
    Ok(eps)
}

/// `--planes`, bounded as the paper bounds it.
pub fn planes_from(args: &Args) -> Result<usize, ArgError> {
    let planes: usize = args.get("planes")?;
    if !(1..=8).contains(&planes) {
        return Err(args.reject("planes", planes, "a P-Net has 1 to 8 dataplanes"));
    }
    Ok(planes)
}

/// `--hosts` and `--planes` of a Table 1 component count on `chip`: the
/// parallel design is one 2-tier plane per dataplane, which connects at most
/// [`ChipSpec::max_plane_hosts`] hosts.
pub fn component_hosts_and_planes(args: &Args, chip: ChipSpec) -> Result<(usize, usize), ArgError> {
    let hosts: usize = args.get("hosts")?;
    let most = chip.max_plane_hosts();
    if !(1..=most).contains(&hosts) {
        let why = format!(
            "must be 1 to {most}, what one 2-tier plane of radix-{} chips connects",
            chip.native_radix
        );
        return Err(args.reject("hosts", hosts, why));
    }
    Ok((hosts, planes_from(args)?))
}

/// `--{tors}` ToRs with `--degree` fabric ports each, as a connected random
/// regular graph needs them.
pub fn tors_and_degree(args: &Args, tors: &str) -> Result<(usize, usize), ArgError> {
    let (n, degree): (usize, usize) = (args.get(tors)?, args.get("degree")?);
    if n < 2 {
        return Err(args.reject(tors, n, "a fabric needs at least two ToRs"));
    }
    // Degree 1 pairs the ToRs off, which connects two of them and no more.
    let least = if n == 2 { 1 } else { 2 };
    if !(least..n).contains(&degree) {
        let why = format!("must be {least} to {} with {n} ToRs", n - 1);
        return Err(args.reject("degree", degree, why));
    }
    if !n.is_multiple_of(2) && !degree.is_multiple_of(2) {
        let why = format!("{n} ToRs x {degree} ports is odd, and a cable has two ends");
        return Err(args.reject("degree", degree, why));
    }
    Ok((n, degree))
}

/// The Jellyfish of `--tors --degree --hosts-per-tor`.
pub fn jellyfish_from(args: &Args) -> Result<TopologyKind, ArgError> {
    let (n_tors, degree) = tors_and_degree(args, "tors")?;
    Ok(TopologyKind::Jellyfish {
        n_tors,
        degree,
        hosts_per_tor: count(args, "hosts-per-tor")?,
    })
}

/// `--k`, a three-tier fat tree's arity.
pub fn fat_tree_k(args: &Args) -> Result<usize, ArgError> {
    let k: usize = args.get("k")?;
    if k < 4 || !k.is_multiple_of(2) {
        return Err(args.reject("k", k, "a fat tree's arity is even and at least 4"));
    }
    Ok(k)
}

/// The Xpander of `--degree --lifts --hosts-per-tor`.
pub fn xpander_from(args: &Args) -> Result<TopologyKind, ArgError> {
    let degree: usize = args.get("degree")?;
    if degree < 3 {
        return Err(args.reject("degree", degree, "an expander needs 3 ports or more"));
    }
    let lifts: u32 = args.get("lifts")?;
    if lifts > 16 {
        return Err(args.reject("lifts", lifts, "must be 0 to 16"));
    }
    Ok(TopologyKind::Xpander {
        degree,
        lifts,
        hosts_per_tor: count(args, "hosts-per-tor")?,
    })
}

/// The fabric of a packet-level experiment, from [`jellyfish_from`]'s flags
/// plus `--planes --seed`; the caller sets `class` per comparison network
/// (see [`per_class`]).
pub fn jellyfish_spec(args: &Args) -> Result<PNetSpec, ArgError> {
    Ok(PNetSpec::new(
        jellyfish_from(args)?,
        NetworkClass::SerialLow,
        planes_from(args)?,
        args.get("seed")?,
    ))
}

/// The trace called `name` (its label), as `--trace`/`--traces` spell it.
pub fn trace_named(name: &str) -> Option<Trace> {
    Trace::all().into_iter().find(|t| t.label() == name)
}

/// A [`SimConfig`] with the minimum RTO set to `us` microseconds.
///
/// The paper tunes min-RTO to 10 ms (DCTCP's suggestion) at its full
/// workload scale; experiments that scale flow sizes down by 10-100x scale
/// the timeout along with them so that loss-recovery dynamics keep the same
/// *relative* cost (otherwise a scaled-down run is pure-RTO quantized).
pub fn config_with_rto_us(us: u64) -> SimConfig {
    let mut cfg = SimConfig::default();
    cfg.tcp.min_rto = SimTime::from_us(us);
    cfg
}

/// The network classes applicable to a topology family (fat trees have no
/// heterogeneous variant).
pub fn classes_for(topology: TopologyKind) -> Vec<NetworkClass> {
    match topology {
        TopologyKind::FatTree { .. } => vec![
            NetworkClass::SerialLow,
            NetworkClass::ParallelHomogeneous,
            NetworkClass::SerialHigh,
        ],
        _ => NetworkClass::all().to_vec(),
    }
}

/// `f` of `base` as each network class its topology family has, in
/// [`classes_for`] order.
pub fn per_class<R>(base: PNetSpec, mut f: impl FnMut(PNetSpec) -> R) -> Vec<R> {
    classes_for(base.topology)
        .into_iter()
        .map(|class| f(PNetSpec { class, ..base }))
        .collect()
}

/// A table with one column per network class after a leading `first` column.
pub fn class_table(first: &str, classes: &[NetworkClass], csv: bool) -> Table {
    let mut header = vec![first];
    header.extend(classes.iter().map(|c| c.label()));
    Table::new(&header, csv)
}

/// The paper's *single-path* configuration per class:
///
/// * serial networks: one plane, single shortest path;
/// * parallel homogeneous: ECMP hash (identical planes — no hop advantage
///   to exploit, load balancing is all that matters);
/// * parallel heterogeneous: shortest-plane (exploit the hop-count
///   advantage, section 5.2.1).
pub fn single_path_policy(class: NetworkClass) -> PathPolicy {
    match class {
        NetworkClass::SerialLow | NetworkClass::SerialHigh => PathPolicy::ShortestPlane,
        NetworkClass::ParallelHomogeneous => PathPolicy::EcmpHash,
        NetworkClass::ParallelHeterogeneous => PathPolicy::ShortestPlane,
    }
}

/// The paper's *multipath* configuration: K-shortest-path MPTCP with K
/// matched to the plane count (`k_per_plane` subflows per plane; the paper
/// uses 4-way total on 4-plane P-Nets for small-flow FCT, 8 per plane for
/// bulk saturation).
pub fn multipath_policy(class: NetworkClass, n_planes: usize, k_per_plane: usize) -> PathPolicy {
    let k = match class {
        NetworkClass::SerialLow | NetworkClass::SerialHigh => k_per_plane,
        _ => k_per_plane * n_planes,
    };
    PathPolicy::MultipathKsp { k: k.max(1) }
}

/// Wrap a selector into a [`FlowFactory`] for the simulator apps. Each
/// factory call is a new flow (fresh flow id for hashing policies).
pub fn make_factory<'a>(net: &'a Network, mut selector: PathSelector) -> FlowFactory<'a> {
    // Bulk-precompute the all-pairs route table up front (parallel) so the
    // per-flow select calls never hit the lazy Yen path mid-simulation.
    selector.warm();
    let mut flow_id = 0u64;
    Box::new(move |src, dst, size| {
        flow_id += 1;
        selector.select(net, src, dst, flow_id, size)
    })
}

/// The scaffold of one packet-level run: build `spec`'s network, warm a flow
/// factory for `policy` over it, open a simulator with `cfg`, and hand both
/// (and the host count) to `body`.
pub fn simulate<R>(
    spec: PNetSpec,
    policy: PathPolicy,
    cfg: SimConfig,
    body: impl FnOnce(&mut Simulator, FlowFactory<'_>, u32) -> R,
) -> R {
    let pnet = spec.build();
    let factory = make_factory(&pnet.net, pnet.selector(policy));
    let mut sim = Simulator::new(&pnet.net, cfg);
    body(&mut sim, factory, pnet.net.n_hosts() as u32)
}

/// An endless stream of uniformly random hosts other than `me`.
fn other_hosts(seed: u64, n_hosts: u32, me: u32) -> Box<dyn FnMut() -> HostId> {
    let mut rng = StdRng::seed_from_u64(seed);
    Box::new(move || loop {
        let s = rng.random_range(0..n_hosts);
        if s != me {
            return HostId(s);
        }
    })
}

/// A uniformly random ordered pair of distinct hosts.
pub fn random_pair(rng: &mut StdRng, n_hosts: u32) -> (HostId, HostId) {
    let a = rng.random_range(0..n_hosts);
    let mut b = rng.random_range(0..n_hosts - 1);
    if b >= a {
        b += 1;
    }
    (HostId(a), HostId(b))
}

/// `per_host` RPC client slots on every host, each calling random other
/// hosts from its own stream seeded off `rng`.
pub fn rpc_slots(rng: &mut StdRng, n_hosts: u32, per_host: usize) -> Vec<RpcSlot<'static>> {
    let mut slots = Vec::new();
    for h in 0..n_hosts {
        for _ in 0..per_host {
            slots.push(RpcSlot {
                client: HostId(h),
                next_server: other_hosts(rng.random(), n_hosts, h),
            });
        }
    }
    slots
}

/// Completion times (us) and total retransmits of `rounds` request/response
/// rounds on [`rpc_slots`]; requests carry `request_bytes`, responses 1500 B.
pub fn rpc_rounds(
    sim: &mut Simulator,
    factory: FlowFactory,
    rng: &mut StdRng,
    n_hosts: u32,
    per_host: usize,
    request_bytes: u64,
    rounds: u64,
) -> (Vec<f64>, u64) {
    let slots = rpc_slots(rng, n_hosts, per_host);
    let mut driver = RpcDriver::start(sim, slots, factory, request_bytes, 1500, rounds);
    run(sim, &mut driver, None);
    assert!(driver.done(), "RPC rounds did not complete");
    (driver.round_times_us, driver.retransmits)
}

/// Mean FCT (us) of one `size`-byte flow per host along the permutation of
/// `perm_seed`, all started at t = 0. `uncoupled` swaps MPTCP's LIA for
/// uncoupled subflows.
pub fn permutation_mean_fct(
    net: &Network,
    mut factory: FlowFactory,
    perm_seed: u64,
    size: u64,
    uncoupled: bool,
) -> f64 {
    let mut sim = Simulator::new(net, SimConfig::default());
    for (a, b) in tm::permutation_pairs(net.n_hosts(), perm_seed) {
        let (src, dst) = (HostId(a as u32), HostId(b as u32));
        let (routes, mut cc) = factory(src, dst, size);
        if uncoupled && cc == CcAlgo::Lia {
            cc = CcAlgo::Uncoupled;
        }
        sim.start_flow(FlowSpec {
            src,
            dst,
            size_bytes: size,
            routes,
            cc,
            owner_tag: 0,
        });
    }
    run_to_completion(&mut sim);
    metrics::mean(&metrics::fcts_us(&sim.records))
}

/// FCTs (us) of `flows_per_host` closed-loop single-path flows per host, sizes
/// drawn from `cdf` and destinations uniform, started for `ms` of simulated
/// time and drained for as long again.
pub fn closed_loop_fcts(
    spec: PNetSpec,
    cdf: &EmpiricalCdf,
    rto_us: u64,
    flows_per_host: usize,
    ms: u64,
    rng_seed: u64,
) -> Vec<f64> {
    let cfg = config_with_rto_us(rto_us);
    simulate(
        spec,
        single_path_policy(spec.class),
        cfg,
        |sim, factory, n_hosts| {
            let mut rng = StdRng::seed_from_u64(rng_seed);
            let mut slots = Vec::new();
            for h in 0..n_hosts {
                for _ in 0..flows_per_host {
                    let next_dst = other_hosts(rng.random(), n_hosts, h);
                    let mut size_rng = StdRng::seed_from_u64(rng.random());
                    let cdf = cdf.clone();
                    slots.push(ClosedLoopSlot {
                        src: HostId(h),
                        next_dst,
                        next_size: Box::new(move || cdf.sample(&mut size_rng)),
                    });
                }
            }
            let stop = SimTime::from_ms(ms);
            let mut driver = ClosedLoopDriver::start(sim, slots, factory, stop);
            run(sim, &mut driver, Some(stop + stop));
            metrics::fcts_us(&driver.completed)
        },
    )
}

/// Figures 6a/b and 8a/b: total `throughput` of all-to-all and of permutation
/// traffic on each network, normalized to the first (serial low-bw) row.
pub fn pattern_table(
    out: &mut dyn Write,
    nets: &[(String, Network, usize)],
    a2a: &[Commodity],
    perm: &[Commodity],
    csv: bool,
    throughput: impl Fn(&Network, &[Commodity]) -> Result<f64, McfError>,
) -> Result<(), Error> {
    let mut table = Table::new(&["network", "all-to-all", "permutation"], csv);
    let mut base = (0.0, 0.0);
    for (i, (name, net, _)) in nets.iter().enumerate() {
        let t = (throughput(net, a2a)?, throughput(net, perm)?);
        if i == 0 {
            base = t;
        }
        table.row(&[name, &f3(t.0 / base.0), &f3(t.1 / base.1)]);
    }
    Ok(table.print(out)?)
}

/// Figures 6c and 8c: permutation throughput of each `(name, network, planes
/// N)` at every multipath level of `ksweep`, normalized to what the first
/// (serial low-bw) network reaches at the largest K. The first K at which a
/// network reaches 95 % of N x is starred and reported below the table.
pub fn saturation_sweep(
    out: &mut dyn Write,
    nets: &[(String, Network, usize)],
    perm: &[Commodity],
    ksweep: &[u64],
    eps: f64,
    csv: bool,
) -> Result<(), Error> {
    let k_max = *ksweep
        .last()
        .expect("invariant: a parsed list is never empty") as usize;
    let (serial_sat, _) = throughput::ksp_multipath_throughput(&nets[0].1, perm, k_max, eps)?;
    let mut header = vec!["K"];
    header.extend(nets.iter().map(|(name, ..)| name.as_str()));
    let mut table = Table::new(&header, csv);
    let mut saturated: Vec<Option<u64>> = vec![None; nets.len()];
    for &k in ksweep {
        let mut row = vec![k.to_string()];
        for ((_, net, n), sat) in nets.iter().zip(&mut saturated) {
            let (t, _) = throughput::ksp_multipath_throughput(net, perm, k as usize, eps)?;
            let norm = t / serial_sat;
            let first = norm >= 0.95 * *n as f64 && sat.is_none();
            if first {
                *sat = Some(k);
            }
            row.push(format!("{}{}", f3(norm), if first { "*" } else { "" }));
        }
        table.push(row);
    }
    table.print(out)?;
    writeln!(out)?;
    for ((name, _, n), sat) in nets.iter().zip(&saturated) {
        match sat {
            Some(k) => writeln!(out, "{name}: saturates ({n}x) at K = {k}")?,
            None => writeln!(out, "{name}: did not reach {n}x within the sweep")?,
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_lists() {
        assert_eq!(classes_for(TopologyKind::FatTree { k: 4 }).len(), 3);
        assert_eq!(
            classes_for(TopologyKind::Jellyfish {
                n_tors: 8,
                degree: 3,
                hosts_per_tor: 1
            })
            .len(),
            4
        );
    }

    #[test]
    fn multipath_k_scales_with_planes() {
        let k_serial = match multipath_policy(NetworkClass::SerialLow, 4, 8) {
            PathPolicy::MultipathKsp { k } => k,
            _ => unreachable!(),
        };
        let k_par = match multipath_policy(NetworkClass::ParallelHomogeneous, 4, 8) {
            PathPolicy::MultipathKsp { k } => k,
            _ => unreachable!(),
        };
        assert_eq!(k_serial, 8);
        assert_eq!(k_par, 32);
    }

    #[test]
    fn factory_produces_routes() {
        use pnet_topology::HostId;
        let pnet = PNetSpec::new(
            TopologyKind::FatTree { k: 4 },
            NetworkClass::SerialLow,
            4,
            0,
        )
        .build();
        let sel = pnet.selector(PathPolicy::ShortestPlane);
        let mut f = make_factory(&pnet.net, sel);
        let (routes, _) = f(HostId(0), HostId(15), 1000);
        assert_eq!(routes.len(), 1);
        assert!(routes[0].len() >= 2);
    }
}
