//! Extension experiment — mixed-topology P-Nets (paper section 7).
//!
//! "Another type of parallel heterogeneous network can consist of entirely
//! different topologies across the dataplanes. For example, operators can
//! deploy a combination of expander-based topologies and fat trees to
//! handle both low-latency traffic and Hadoop-like data-intensive
//! workloads."
//!
//! Setup: a 4-plane P-Net with one fat-tree plane + three Jellyfish planes,
//! compared against pure parallel fat trees and pure parallel expanders.
//! Two workloads: 1500 B RPCs (latency) and a permutation of bulk transfers
//! (throughput).
//!
//! Expected: the mixed fabric tracks the pure expander on RPC latency
//! (shortest-plane routing finds the expander's short paths) while keeping
//! fat-tree-class bulk behaviour.

use crate::args::parse_size;
use crate::{banner, setups, Args, Error, Experiment, Table, CSV, SEED};
use pnet_core::{PathPolicy, PathSelector};
use pnet_htsim::{metrics, SimConfig, Simulator};
use pnet_topology::{assemble_homogeneous, PlaneBuilder};
use pnet_topology::{parallel, FatTree, Jellyfish, LinkProfile, Network, NetworkClass};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::Write;

pub const EXPERIMENT: Experiment = Experiment {
    name: "mixed",
    about: "Extension (section 7): one fat-tree plane plus three Jellyfish planes against the pure fabrics",
    params: &[
        ("k", "8", "fat-tree arity; sets the host and rack count of all three fabrics"),
        ("expander-degree", "8", "fabric ports per ToR of the Jellyfish planes"),
        ("rounds", "30", "RPC rounds per host"),
        ("bulk-size", "2m", "bytes per bulk flow of the permutation"),
        SEED,
        CSV,
    ],
    run,
};

/// A selector under `policy`, as the flow factory of `net`.
fn factory(net: &Network, policy: PathPolicy) -> pnet_htsim::apps::FlowFactory<'_> {
    setups::make_factory(net, PathSelector::new(net, policy))
}

/// Median and p99 completion time (us) of 1500 B RPCs, shortest-plane routing.
fn rpc_median(net: &Network, seed: u64, rounds: u64) -> (f64, f64) {
    let mut sim = Simulator::new(net, SimConfig::default());
    let mut rng = StdRng::seed_from_u64(seed);
    let factory = factory(net, PathPolicy::ShortestPlane);
    let n_hosts = net.n_hosts() as u32;
    let (times, _) = setups::rpc_rounds(&mut sim, factory, &mut rng, n_hosts, 1, 1500, rounds);
    (
        metrics::percentile(&times, 50.0),
        metrics::percentile(&times, 99.0),
    )
}

fn run(args: &Args, out: &mut dyn Write) -> Result<(), Error> {
    let k = setups::fat_tree_k(args)?;
    let degree: usize = args.get("expander-degree")?;
    let rounds: u64 = args.get("rounds")?;
    let bulk_size = args.get_with("bulk-size", parse_size)?;
    let seed: u64 = args.get("seed")?;

    let base = LinkProfile::paper_default();
    let ft = FatTree::three_tier(k);
    let planes = 4;

    banner(
        out,
        "Extension — mixed-topology P-Net (fat tree + expanders, paper section 7)",
        &format!(
            "{} hosts, 4 planes; mixed = 1 fat-tree plane + 3 jellyfish planes (degree {degree})",
            ft.n_hosts()
        ),
    )?;

    let pure_ft = assemble_homogeneous(&ft, planes, &base);
    let proto = Jellyfish::new(ft.n_racks(), degree, k / 2, 0);
    let hetero = NetworkClass::ParallelHeterogeneous;
    let pure_jf = parallel::jellyfish_network(hetero, proto, planes, seed, &base);
    let mixed = parallel::mixed_fattree_expander(k, planes - 1, degree, seed, &base);

    let header = ["fabric", "RPC median", "RPC p99", "bulk mean FCT (perm)"];
    let mut table = Table::new(&header, args.has("csv"));
    for (name, net) in [
        ("parallel fat tree x4", &pure_ft),
        ("parallel jellyfish x4", &pure_jf),
        ("mixed (1 ft + 3 jf)", &mixed),
    ] {
        let (med, p99) = rpc_median(net, seed, rounds);
        let one_per_plane = factory(net, PathPolicy::PlaneKsp { per_plane: 1 });
        let bulk = setups::permutation_mean_fct(net, one_per_plane, seed + 3, bulk_size, false);
        table.row(&[
            &name,
            &format!("{med:.2}us"),
            &format!("{p99:.2}us"),
            &format!("{bulk:.1}us"),
        ]);
    }
    table.print(out)?;
    writeln!(
        out,
        "\nexpected: mixed tracks the expander fabric on RPC latency (short paths\n\
         exist in the jellyfish planes) while keeping fat-tree-class bulk FCTs"
    )?;
    Ok(())
}
