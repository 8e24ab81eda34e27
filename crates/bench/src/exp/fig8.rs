//! Figure 8: Jellyfish throughput under routing constraints — (a)
//! all-to-all and (b) permutation with the default 8-way KSP, and (c) the
//! multipath-level sweep.
//!
//! Paper shape: all-to-all saturates parallel planes even at K = 8;
//! permutation with the serial-default K = 8 reaches only ~60% of the
//! parallel capacity; sweeping K recovers it, with N-plane P-Nets needing
//! ~N x 8 subflows (circled points in the paper).
//!
//! Scale note: defaults use 32 ToRs x 4 hosts (128 hosts) instead of the
//! paper's 1024-host equivalent; pass `--tors 128 --hosts-per-tor 8
//! --degree 8` for paper scale.

use crate::{banner, setups, Args, Error, Experiment, CSV, SEED};
use pnet_flowsim::{commodity, throughput};
use pnet_topology::{parallel, Jellyfish, LinkProfile, Network, NetworkClass};
use pnet_workloads::tm;
use std::io::Write;

pub const EXPERIMENT: Experiment = Experiment {
    name: "fig8",
    about: "Figure 8: Jellyfish throughput with 8-way KSP (a, b) and the multipath-level sweep (c)",
    params: &[
        ("tors", "32", "ToR switches per plane"),
        ("degree", "6", "fabric ports per ToR"),
        ("hosts-per-tor", "4", "hosts per ToR"),
        SEED,
        ("eps", "0.1", "approximation parameter of the flow solver"),
        ("ksweep", "1,2,4,8,16,32", "multipath levels K of 8c"),
        CSV,
    ],
    run,
};

fn run(args: &Args, out: &mut dyn Write) -> Result<(), Error> {
    let (tors, degree) = setups::tors_and_degree(args, "tors")?;
    let hpt = setups::count(args, "hosts-per-tor")?;
    let seed: u64 = args.get("seed")?;
    let eps = setups::eps_from(args)?;
    let ksweep = setups::counts(args, "ksweep")?;
    let csv = args.has("csv");

    let hosts = tors * hpt;
    let base = LinkProfile::paper_default();
    let proto = Jellyfish::new(tors, degree, hpt, 0);
    let build = |class, n| parallel::jellyfish_network(class, proto, n, seed, &base);
    let mut nets: Vec<(String, Network, usize)> =
        vec![("serial low-bw".into(), build(NetworkClass::SerialLow, 1), 1)];
    for n in [2usize, 4, 8] {
        let net = build(NetworkClass::ParallelHeterogeneous, n);
        nets.push((format!("par-hetero {n}x"), net, n));
    }

    banner(
        out,
        "Figure 8a/8b — Jellyfish throughput with default 8-way KSP",
        &format!(
            "{tors} ToRs x {hpt} hosts (= {hosts}), degree {degree}; normalized to serial low-bw"
        ),
    )?;
    let a2a = commodity::all_to_all(hosts);
    let perm = commodity::permutation(&tm::random_permutation(hosts, seed));
    setups::pattern_table(out, &nets, &a2a, &perm, csv, |net, commodities| {
        throughput::ksp_multipath_throughput(net, commodities, 8, eps).map(|(total, _)| total)
    })?;
    writeln!(
        out,
        "\npaper: all-to-all scales ~Nx even at K=8; permutation reaches only ~60% of capacity\n"
    )?;

    banner(
        out,
        "Figure 8c — permutation throughput vs multipath level K",
        "normalized to serial low-bw saturated value; * marks K that saturates (>=95% of Nx)",
    )?;
    setups::saturation_sweep(out, &nets[..3], &perm, &ksweep, eps, csv)?;
    writeln!(
        out,
        "paper: N-plane Jellyfish needs ~N x 8 subflows to saturate"
    )?;
    Ok(())
}
