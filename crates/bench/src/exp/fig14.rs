//! Figure 14: average hop count across all src/dst pairs versus random
//! link-failure rate, for serial, parallel homogeneous, and parallel
//! heterogeneous Jellyfish networks.
//!
//! Paper shape: at 40% failures serial loses ~22% (hops up), homogeneous
//! only ~3% (independent failures per plane), heterogeneous stays lowest in
//! absolute hops but its advantage shrinks.

use crate::{banner, f3, setups, Args, Error, Experiment, Table, CSV, SEED};
use pnet_core::analysis;
use pnet_topology::{failures, parallel, Jellyfish, LinkProfile, NetworkClass};
use std::io::Write;

pub const EXPERIMENT: Experiment = Experiment {
    name: "fig14",
    about: "Figure 14: mean hop count versus random link-failure rate",
    params: &[
        ("tors", "98", "ToR switches per plane"),
        ("degree", "7", "fabric ports per ToR"),
        ("planes", "4", "dataplanes N"),
        ("trials", "5", "random topologies and failure sets averaged"),
        SEED,
        CSV,
    ],
    run,
};

fn run(args: &Args, out: &mut dyn Write) -> Result<(), Error> {
    let (tors, degree) = setups::tors_and_degree(args, "tors")?;
    let planes = setups::planes_from(args)?;
    let trials: u64 = args.get("trials")?;
    let seed: u64 = args.get("seed")?;

    banner(
        out,
        "Figure 14 — mean switch hops vs link failure rate",
        &format!(
            "Jellyfish {tors} ToRs, degree {degree}, {planes} planes, {trials} trials; \
             failures are random fabric cables across the whole network"
        ),
    )?;

    let base = LinkProfile::paper_default();
    let proto = Jellyfish::new(tors, degree, 1, 0);
    // Mean hops of `class` with `frac` of its fabric cables failed, over the
    // trials; serial networks route on their one plane, parallel ones on the
    // best plane per pair.
    let mean_hops = |class, frac| {
        let sum: f64 = (0..trials)
            .map(|t| {
                let mut net = parallel::jellyfish_network(class, proto, planes, seed + t, &base);
                failures::fail_random_fraction(&mut net, frac, 1000 + seed * 17 + t);
                if class == NetworkClass::SerialLow {
                    analysis::mean_hops_single_plane(&net)
                } else {
                    analysis::mean_hops_best_plane(&net)
                }
            })
            .sum();
        sum / trials as f64
    };

    let header = [
        "fail%",
        "serial",
        "par-homogeneous",
        "par-heterogeneous",
        "serial+%",
        "homo+%",
        "hetero+%",
    ];
    let mut table = Table::new(&header, args.has("csv"));
    let classes = [
        NetworkClass::SerialLow,
        NetworkClass::ParallelHomogeneous,
        NetworkClass::ParallelHeterogeneous,
    ];
    let mut baselines: Option<[f64; 3]> = None;
    for frac in [0.0, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40] {
        let hops = classes.map(|class| mean_hops(class, frac));
        let base_hops = *baselines.get_or_insert(hops);
        let mut row = vec![format!("{:.0}", frac * 100.0)];
        row.extend(hops.iter().map(|&h| f3(h)));
        row.extend(
            hops.iter()
                .zip(&base_hops)
                .map(|(h, h0)| format!("{:+.1}%", 100.0 * (h - h0) / h0)),
        );
        table.push(row);
    }
    table.print(out)?;
    writeln!(
        out,
        "\npaper: serial +22% at 40% failures; parallel homogeneous +3%; \
         heterogeneous lowest absolute hops, advantage shrinking with failures"
    )?;
    Ok(())
}
