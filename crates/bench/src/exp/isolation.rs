//! Extension experiment — performance isolation via plane pinning (paper
//! section 7).
//!
//! "Because P-Net has multiple isolated dataplanes, operators can assign
//! different traffic classes to different dataplanes to achieve performance
//! isolation. For example, user-facing frontend traffic can be assigned to
//! one dataplane, and background data analysis traffic can be assigned to
//! another."
//!
//! Setup: latency-sensitive 1500 B RPCs (frontend) run alongside heavy
//! background bulk transfers on a 4-plane P-Net, under two configurations:
//!
//! * **shared** — both classes use all planes (RPCs shortest-plane, bulk
//!   multipath over everything);
//! * **pinned** — RPCs own plane 0, bulk is confined to planes 1–3.
//!
//! Expected: pinning restores near-idle RPC tail latency at a modest cost in
//! bulk throughput (it loses one plane).

use crate::args::parse_size;
use crate::{banner, human_bytes, setups, Args, Error, Experiment, Table, CSV, SEED};
use pnet_core::{PNetSpec, PathPolicy};
use pnet_htsim::apps::RpcDriver;
use pnet_htsim::{metrics, run as run_sim, FlowSpec, SimConfig, SimTime, Simulator};
use pnet_topology::NetworkClass;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::Write;

pub const EXPERIMENT: Experiment = Experiment {
    name: "isolation",
    about:
        "Extension (section 7): RPC tail latency beside bulk traffic, shared versus pinned planes",
    params: &[
        ("tors", "16", "ToR switches per plane"),
        ("degree", "5", "fabric ports per ToR"),
        ("hosts-per-tor", "4", "hosts per ToR"),
        ("planes", "4", "dataplanes N"),
        ("rounds", "50", "RPC rounds per host"),
        ("bulk-size", "5m", "bytes per background bulk flow"),
        ("bulk-flows", "16", "background bulk flows"),
        SEED,
        CSV,
    ],
    run,
};

/// Forwards RPC completions to the inner driver and swallows background
/// bulk completions (tagged `u64::MAX`).
struct IgnoreBulk<'a>(RpcDriver<'a>);

impl pnet_htsim::Driver for IgnoreBulk<'_> {
    fn on_flow_complete(&mut self, sim: &mut Simulator, rec: pnet_htsim::FlowRecord) {
        if rec.owner_tag != u64::MAX {
            pnet_htsim::Driver::on_flow_complete(&mut self.0, sim, rec);
        }
    }
}

/// RPC round times (us) and background goodput (Gb/s) of one traffic mix.
fn run_mix(
    spec: PNetSpec,
    rounds: u64,
    bulk_size: u64,
    bulk_flows: usize,
    rpc_policy: PathPolicy,
    bulk_policy: PathPolicy,
) -> (Vec<f64>, f64) {
    let pnet = spec.build();
    let n_hosts = pnet.net.n_hosts() as u32;
    let mut sim = Simulator::new(&pnet.net, SimConfig::default());

    // Background bulk: continuous large transfers between scattered pairs,
    // restarted for the whole run via a generous size (they outlive the
    // RPC measurement window).
    let mut bulk_factory = setups::make_factory(&pnet.net, pnet.selector(bulk_policy));
    let mut rng = StdRng::seed_from_u64(spec.seed ^ 0xB0B0);
    let mut bulk_conns = Vec::new();
    for _ in 0..bulk_flows {
        let (src, dst) = setups::random_pair(&mut rng, n_hosts);
        let (routes, cc) = bulk_factory(src, dst, bulk_size);
        bulk_conns.push(sim.start_flow(FlowSpec {
            src,
            dst,
            size_bytes: bulk_size,
            routes,
            cc,
            owner_tag: u64::MAX,
        }));
    }

    // Frontend RPCs on every host.
    let rpc_factory = setups::make_factory(&pnet.net, pnet.selector(rpc_policy));
    let slots = setups::rpc_slots(&mut rng, n_hosts, 1);
    let rpcs = RpcDriver::start(&mut sim, slots, rpc_factory, 1500, 1500, rounds);
    let mut driver = IgnoreBulk(rpcs);
    run_sim(&mut sim, &mut driver, Some(SimTime::from_ms(200)));
    assert!(driver.0.done(), "RPCs did not finish within the window");

    // Bulk goodput: bytes acked per elapsed time across background flows.
    let elapsed = sim.now.as_secs_f64();
    // A bulk flow that has finished and retired acked every one of its packets.
    let mtu = pnet_htsim::MTU_BYTES as u64;
    let bulk_bytes: u64 = bulk_conns
        .iter()
        .map(|&c| sim.conn(c).map_or(bulk_size.div_ceil(mtu), |c| c.acked) * mtu)
        .sum();
    let goodput_gbps = bulk_bytes as f64 * 8.0 / elapsed / 1e9;
    (driver.0.round_times_us, goodput_gbps)
}

fn run(args: &Args, out: &mut dyn Write) -> Result<(), Error> {
    let spec = PNetSpec {
        class: NetworkClass::ParallelHeterogeneous,
        ..setups::jellyfish_spec(args)?
    };
    let (hosts, planes) = (spec.n_hosts(), spec.n_planes);
    let rounds: u64 = args.get("rounds")?;
    let bulk_size = args.get_with("bulk-size", parse_size)?;
    let bulk_flows: usize = args.get("bulk-flows")?;

    banner(
        out,
        "Extension — performance isolation by plane pinning (paper section 7)",
        &format!(
            "{hosts} hosts, {planes} planes; {bulk_flows} bulk flows of {} vs 1500B RPCs x{rounds} rounds",
            human_bytes(bulk_size)
        ),
    )?;

    let shortest = PathPolicy::ShortestPlane;
    let everywhere = setups::multipath_policy(spec.class, planes, 4);
    let frontend = PathPolicy::Pinned {
        planes: vec![0],
        inner: Box::new(PathPolicy::ShortestPlane),
    };
    let background = PathPolicy::Pinned {
        planes: (1..planes as u16).collect(),
        inner: Box::new(setups::multipath_policy(spec.class, planes - 1, 4)),
    };
    let header = ["config", "RPC median", "RPC p99", "bulk goodput"];
    let mut table = Table::new(&header, args.has("csv"));
    for (name, size, flows, rpc_policy, bulk_policy) in [
        // Baseline: one 1-byte background flow is negligible.
        (
            "RPCs alone (idle)",
            1,
            1,
            shortest.clone(),
            shortest.clone(),
        ),
        ("shared planes", bulk_size, bulk_flows, shortest, everywhere),
        (
            "pinned (frontend=p0)",
            bulk_size,
            bulk_flows,
            frontend,
            background,
        ),
    ] {
        let (times, goodput_gbps) = run_mix(spec, rounds, size, flows, rpc_policy, bulk_policy);
        table.row(&[
            &name,
            &format!("{:.1}us", metrics::percentile(&times, 50.0)),
            &format!("{:.1}us", metrics::percentile(&times, 99.0)),
            &format!("{goodput_gbps:.1}Gb/s"),
        ]);
    }
    table.print(out)?;
    writeln!(
        out,
        "\nexpected: shared planes inflate RPC tail latency (queueing behind bulk);\n\
         pinning restores near-idle RPC tails at the cost of one plane of bulk capacity"
    )?;
    Ok(())
}
