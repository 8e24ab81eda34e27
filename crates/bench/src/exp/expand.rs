//! Extension experiment — incremental expansion (paper section 6.1).
//!
//! "Software-controlled OCSes together with the incremental expansion
//! support of expander-based networks means operators can more easily scale
//! up their network."
//!
//! Setup: start from a 4-plane heterogeneous Jellyfish P-Net and add racks
//! one at a time using the classic Jellyfish splice (each new ToR port pair
//! consumes one existing cable). After each step we check connectivity,
//! mean best-plane hop count, and the rewiring cost in patch-panel
//! operations — showing that growth is cheap and the fabric quality holds.

use crate::{banner, f3, setups, Args, Error, Experiment, Table, CSV, SEED};
use pnet_core::analysis;
use pnet_topology::{assemble, jellyfish::expand_rack, Jellyfish, LinkProfile, PlaneBuilder};
use std::io::Write;

pub const EXPERIMENT: Experiment = Experiment {
    name: "expand",
    about: "Extension (section 6.1): rack-by-rack expansion of a heterogeneous Jellyfish P-Net",
    params: &[
        ("tors", "32", "racks to start from"),
        ("degree", "6", "fabric ports per ToR"),
        ("hosts-per-tor", "2", "hosts per ToR"),
        ("planes", "4", "dataplanes N"),
        ("add", "12", "racks to add, one at a time"),
        SEED,
        CSV,
    ],
    run,
};

fn run(args: &Args, out: &mut dyn Write) -> Result<(), Error> {
    let (tors, degree) = setups::tors_and_degree(args, "tors")?;
    let hpt = setups::count(args, "hosts-per-tor")?;
    let planes = setups::planes_from(args)?;
    let add: usize = args.get("add")?;
    let seed: u64 = args.get("seed")?;

    banner(
        out,
        "Extension — incremental rack-by-rack expansion (paper section 6.1)",
        &format!(
            "start: {tors} racks x {hpt} hosts, {planes} heterogeneous jellyfish planes \
             (degree {degree}); add {add} racks via cable splicing"
        ),
    )?;

    let profile = LinkProfile::paper_default();
    let builders: Vec<Jellyfish> = (0..planes)
        .map(|i| Jellyfish::new(tors, degree, hpt, seed + i as u64))
        .collect();
    let refs: Vec<&dyn PlaneBuilder> = builders.iter().map(|b| b as &dyn PlaneBuilder).collect();
    let mut net = assemble(&refs, &profile);

    let header = [
        "racks",
        "hosts",
        "mean best-plane hops",
        "splice ops (cumulative)",
        "connected",
    ];
    let mut table = Table::new(&header, args.has("csv"));

    // Each spliced cable = 1 unplug + 2 plugs = 3 panel operations, per
    // plane; degree/2 cables per plane per rack.
    let ops_per_rack = planes * (degree / 2) * 3;
    let mut ops = 0usize;

    let record = |net: &pnet_topology::Network, ops: usize, table: &mut Table| {
        let connected = net.planes().all(|p| net.plane_connects_all_hosts(p));
        let hops = f3(analysis::mean_hops_best_plane(net));
        table.row(&[&net.n_racks(), &net.n_hosts(), &hops, &ops, &connected]);
        assert!(connected, "expansion broke connectivity");
    };

    record(&net, ops, &mut table);
    for step in 0..add {
        expand_rack(&mut net, degree, hpt, &profile, seed * 1000 + step as u64);
        ops += ops_per_rack;
        if (step + 1) % 4 == 0 || step + 1 == add {
            record(&net, ops, &mut table);
        }
    }
    table.print(out)?;
    writeln!(
        out,
        "\nexpected: hop count stays nearly flat as the fabric grows; each rack costs\n\
         a constant {ops_per_rack} patch-panel operations — no forklift, no downtime\n\
         (one plane can be spliced at a time while the others carry traffic)"
    )?;
    Ok(())
}
