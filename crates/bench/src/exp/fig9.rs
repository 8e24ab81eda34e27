//! Figure 9: small-flow FCT versus flow size on a 4-plane Jellyfish P-Net
//! (packet-level simulation, permutation traffic).
//!
//! Paper setup: 686-host Jellyfish, flows of 100 kB .. 1 GB, best settings
//! per network (single-path for serial networks, 4-way KSP MPTCP for the
//! parallel ones). Paper shape: up to ~10 MB parallel networks beat even
//! serial high-bandwidth (more slow-start paths before steady state); at
//! ~100 MB the advantage over serial low-bw shrinks (MPTCP probing cost);
//! at 1 GB multipath pays off again.
//!
//! Scale note: the default network is 64 hosts (16 ToRs x 4) and sizes up
//! to 100 MB; `--tors 98 --degree 7 --hosts-per-tor 7 --sizes
//! 100k,1m,10m,100m,1g` is the paper configuration (slow).

use crate::args::parse_size;
use crate::{banner, f3, human_bytes, min_index_total, setups, Args, Error, Experiment, Table};
use crate::{CSV, SEED};
use pnet_core::{PNetSpec, PathPolicy};
use pnet_topology::NetworkClass;
use std::io::Write;

pub const EXPERIMENT: Experiment = Experiment {
    name: "fig9",
    about: "Figure 9: small-flow FCT versus flow size, permutation traffic (packet level)",
    params: &[
        ("tors", "16", "ToR switches per plane (paper: 98)"),
        ("degree", "5", "fabric ports per ToR"),
        ("hosts-per-tor", "4", "hosts per ToR"),
        ("planes", "4", "dataplanes N"),
        ("sizes", "100k,1m,10m,100m", "flow sizes"),
        SEED,
        ("kway", "4", "MPTCP subflows on the parallel networks"),
        ("single", "off", "single-path on parallel networks too"),
        ("uncoupled", "off", "ablation: uncoupled subflows, not LIA"),
        ("sweep-cutoff", "off", "ablation: sweep the size cutoff"),
        CSV,
    ],
    run,
};

/// Mean FCT (us) of a permutation of `size`-byte flows on `spec` under `policy`.
fn mean_fct_us(spec: PNetSpec, policy: PathPolicy, size: u64, uncoupled: bool) -> f64 {
    let pnet = spec.build();
    let factory = setups::make_factory(&pnet.net, pnet.selector(policy));
    setups::permutation_mean_fct(&pnet.net, factory, spec.seed + 7, size, uncoupled)
}

fn run(args: &Args, out: &mut dyn Write) -> Result<(), Error> {
    let base = setups::jellyfish_spec(args)?;
    let (hosts, planes) = (base.n_hosts(), base.n_planes);
    let kway: usize = args.get("kway")?;
    let sizes = args.list_with("sizes", parse_size)?;
    let csv = args.has("csv");
    let single = args.has("single");
    let uncoupled = args.has("uncoupled");

    let ablation = if uncoupled {
        " (uncoupled ablation)"
    } else {
        ""
    };
    banner(
        out,
        "Figure 9 — small-flow FCT vs flow size (4-plane Jellyfish P-Net)",
        &format!(
            "{hosts} hosts, permutation traffic; serial: single path; \
             parallel: {kway}-way KSP MPTCP{ablation}"
        ),
    )?;

    let classes = setups::classes_for(base.topology);
    let mut header = vec!["size"];
    header.extend(classes.iter().map(|c| c.label()));
    header.push("best");
    let mut table = Table::new(&header, csv);
    let mut norm_table = setups::class_table("size (speedup)", &classes, csv);

    for &size in &sizes {
        let vals = setups::per_class(base, |spec| {
            let policy = match spec.class {
                NetworkClass::SerialLow | NetworkClass::SerialHigh => {
                    setups::single_path_policy(spec.class)
                }
                _ if single => setups::single_path_policy(spec.class),
                _ => PathPolicy::PlaneKsp {
                    per_plane: (kway / planes).max(1),
                },
            };
            mean_fct_us(spec, policy, size, uncoupled)
        });
        let mut row = vec![human_bytes(size)];
        row.extend(vals.iter().map(|fct| format!("{fct:.1}us")));
        let best = min_index_total(&vals).expect("invariant: one fct per class, classes non-empty");
        row.push(classes[best].label().to_string());
        table.push(row);

        let mut nrow = vec![human_bytes(size)];
        nrow.extend(vals.iter().map(|v| f3(vals[0] / v))); // speedup over serial low-bw
        norm_table.push(nrow);
    }
    table.print(out)?;
    writeln!(out, "\nspeedup over serial low-bw (higher is better):")?;
    norm_table.print(out)?;
    writeln!(
        out,
        "\npaper: parallel wins below ~10MB (even over serial high-bw); \
         ~100MB flows gain less from multipath; >=1GB gains again"
    )?;

    if args.has("sweep-cutoff") {
        writeln!(out)?;
        banner(
            out,
            "Ablation — size-threshold cutoff sweep (paper's 100 MB rule)",
            "mean FCT of the size-threshold policy at different cutoffs, parallel heterogeneous",
        )?;
        let hetero = PNetSpec {
            class: NetworkClass::ParallelHeterogeneous,
            ..base
        };
        let mut t = Table::new(&["cutoff", "mean FCT @10MB", "mean FCT @100MB"], csv);
        for cutoff in [1_000_000u64, 10_000_000, 100_000_000, 1_000_000_000] {
            let policy = PathPolicy::SizeThreshold {
                cutoff_bytes: cutoff,
                small: Box::new(PathPolicy::ShortestPlane),
                large: Box::new(PathPolicy::MultipathKsp { k: kway }),
            };
            let f10 = mean_fct_us(hetero, policy.clone(), 10_000_000, false);
            let f100 = mean_fct_us(hetero, policy, 100_000_000, false);
            t.row(&[
                &human_bytes(cutoff),
                &format!("{f10:.1}us"),
                &format!("{f100:.1}us"),
            ]);
        }
        t.print(out)?;
    }
    Ok(())
}
