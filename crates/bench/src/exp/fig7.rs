//! Figure 7: ideal (no-path-constraint) throughput of rack-level all-to-all
//! traffic on Jellyfish networks.
//!
//! Paper shape: parallel *heterogeneous* Jellyfish delivers up to ~60%
//! higher total throughput than even the serial high-bandwidth equivalent,
//! because the min-over-planes path length is shorter, so each flow consumes
//! less core capacity. Parallel homogeneous equals serial high-bandwidth
//! (identical topology, same total capacity) and is omitted in the paper.
//!
//! Scale note: the paper uses 128 racks; the default here is 64 for a
//! seconds-scale run (`--racks 128` for paper scale).

use crate::{banner, f3, setups, Args, Error, Experiment, Table, CSV, SEED};
use pnet_flowsim::{commodity, throughput, McfError};
use pnet_topology::{parallel, Jellyfish, LinkProfile, NetworkClass};
use std::io::Write;

pub const EXPERIMENT: Experiment = Experiment {
    name: "fig7",
    about: "Figure 7: ideal throughput of rack-level all-to-all traffic on Jellyfish",
    params: &[
        ("racks", "64", "racks (128 is the paper's scale)"),
        ("degree", "8", "fabric ports per ToR"),
        ("planes", "2,4,8", "plane counts N to compare"),
        SEED,
        ("eps", "0.1", "approximation parameter of the flow solver"),
        ("trials", "3", "random topologies averaged per point"),
        CSV,
    ],
    run,
};

fn run(args: &Args, out: &mut dyn Write) -> Result<(), Error> {
    let (racks, degree) = setups::tors_and_degree(args, "racks")?;
    let seed: u64 = args.get("seed")?;
    let eps = setups::eps_from(args)?;
    let trials: u64 = args.get("trials")?;
    let planes = setups::counts(args, "planes")?;

    banner(
        out,
        "Figure 7 — ideal throughput, rack-level all-to-all on Jellyfish",
        &format!(
            "{racks} racks, ToR degree {degree}, {trials} trials; \
             normalized to serial low-bw; no path constraints (free routing per plane)"
        ),
    )?;

    let base = LinkProfile::paper_default();
    let proto = Jellyfish::new(racks, degree, 1, 0);
    let commodities = commodity::all_to_all(racks);
    // Mean ideal throughput of `class` with `n` planes over the trials.
    let mean_ideal = |class, n| {
        let sum: f64 = (0..trials)
            .map(|t| {
                let net = parallel::jellyfish_network(class, proto, n, seed + t, &base);
                throughput::ideal_core_throughput(&net, &commodities, eps).map(|(total, _)| total)
            })
            .sum::<Result<f64, McfError>>()?;
        Ok::<_, McfError>(sum / trials as f64)
    };

    let header = [
        "planes N",
        "serial high-bw (Nx)",
        "par-heterogeneous",
        "hetero / serial-high",
    ];
    let mut table = Table::new(&header, args.has("csv"));
    let serial_low = mean_ideal(NetworkClass::SerialLow, 1)?;
    for &n in &planes {
        let high = mean_ideal(NetworkClass::SerialHigh, n as usize)? / serial_low;
        let het = mean_ideal(NetworkClass::ParallelHeterogeneous, n as usize)? / serial_low;
        let gain = format!("{:+.1}%", 100.0 * (het - high) / high);
        table.row(&[&n, &f3(high), &f3(het), &gain]);
    }
    table.print(out)?;
    writeln!(
        out,
        "\npaper: parallel heterogeneous up to +60% over serial high-bw at 8 planes; \
         homogeneous == serial high-bw (omitted)"
    )?;
    Ok(())
}
