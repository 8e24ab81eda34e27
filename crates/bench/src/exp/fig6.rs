//! Figure 6: fat-tree throughput under (a) all-to-all + ECMP, (b)
//! permutation + ECMP, and (c) permutation + MPTCP/KSP multipath sweeps.
//!
//! Paper shape: all-to-all saturates parallel fabrics even with ECMP
//! (6a, ~N x); permutation barely improves with more planes under ECMP
//! (6b, ~1 x); with K-way multipath, a serial fat tree saturates at K = 8
//! while N-plane P-Nets need ~N x as many subflows (6c, circled points).
//!
//! Scale note: defaults use a k=8 fat tree (128 hosts) instead of the
//! paper's k=16 (1024 hosts) so the run finishes in seconds; pass `--k 16`
//! for paper scale. Throughput is normalized against the serial
//! low-bandwidth network as in the paper.

use crate::{banner, setups, Args, Error, Experiment, CSV, SEED};
use pnet_flowsim::{commodity, throughput};
use pnet_topology::{assemble_homogeneous, FatTree, LinkProfile, Network};
use pnet_workloads::tm;
use std::io::Write;

pub const EXPERIMENT: Experiment = Experiment {
    name: "fig6",
    about: "Figure 6: fat-tree throughput, ECMP (a, b) and the multipath-level sweep (c)",
    params: &[
        ("k", "8", "fat-tree arity (16 is the paper's scale)"),
        SEED,
        ("eps", "0.1", "approximation parameter of the flow solver"),
        ("ksweep", "1,2,4,8,16,32", "multipath levels K of 6c"),
        CSV,
    ],
    run,
};

fn run(args: &Args, out: &mut dyn Write) -> Result<(), Error> {
    let k = setups::fat_tree_k(args)?;
    let seed: u64 = args.get("seed")?;
    let eps = setups::eps_from(args)?;
    let csv = args.has("csv");
    let ksweep = setups::counts(args, "ksweep")?;

    let ft = FatTree::three_tier(k);
    let hosts = ft.n_hosts();
    let base = LinkProfile::paper_default();
    let mut nets: Vec<(String, Network, usize)> = vec![(
        "serial low-bw".into(),
        assemble_homogeneous(&ft, 1, &base),
        1,
    )];
    for n in [2usize, 4, 8] {
        let net = assemble_homogeneous(&ft, n, &base);
        nets.push((format!("parallel {n}x"), net, n));
    }

    banner(
        out,
        "Figure 6a/6b — fat-tree ECMP throughput (normalized to serial low-bw)",
        &format!("k={k} fat tree, {hosts} hosts; single-path ECMP, max-min rates"),
    )?;
    let a2a = commodity::all_to_all(hosts);
    let perm = commodity::permutation(&tm::random_permutation(hosts, seed));
    setups::pattern_table(out, &nets, &a2a, &perm, csv, |net, commodities| {
        Ok(throughput::ecmp_throughput(net, commodities))
    })?;
    writeln!(
        out,
        "\npaper: all-to-all scales ~Nx; permutation stays ~1x under ECMP\n"
    )?;

    banner(
        out,
        "Figure 6c — permutation throughput vs multipath level K (MPTCP + KSP)",
        "normalized to serial low-bw saturated value; * marks K that saturates (>=95% of Nx)",
    )?;
    setups::saturation_sweep(out, &nets[..3], &perm, &ksweep, eps, csv)?;
    writeln!(
        out,
        "paper: serial saturates at K=8; 2 planes need K=16; 4 planes need K=32"
    )?;
    Ok(())
}
