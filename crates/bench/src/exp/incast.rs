//! Extension experiment — incast (section 6.5 of the paper).
//!
//! "For incast scenarios, P-Net can spread the traffic across separate
//! dataplanes to alleviate congestion in the network, but careful
//! coordination is still needed to avoid overrunning end host NIC buffers.
//! We defer this to future studies that might involve incast-aware
//! transports like DCTCP."
//!
//! This experiment runs that future study: an N-to-1 fan-in on the four
//! network classes, with Reno versus DCTCP (ECN threshold K = 20 packets).
//! Expected shape: P-Net spreads the fan-in over N planes and removes
//! *in-network* contention, but the receiver's per-plane downlinks still
//! overflow under Reno; DCTCP keeps queues at ~K and eliminates the drops on
//! both.

use crate::args::parse_size;
use crate::{banner, human_bytes, setups, Args, Error, Experiment, Table, CSV, SEED};
use pnet_core::{PNetSpec, PathPolicy};
use pnet_htsim::{metrics, run_to_completion, CcAlgo, FlowSpec, SimConfig};
use pnet_topology::{HostId, NetworkClass};
use std::io::Write;

pub const EXPERIMENT: Experiment = Experiment {
    name: "incast",
    about: "Extension (section 6.5): N-to-1 incast under Reno and under DCTCP",
    params: &[
        ("tors", "16", "ToR switches per plane"),
        ("degree", "5", "fabric ports per ToR"),
        ("hosts-per-tor", "4", "hosts per ToR"),
        ("planes", "4", "dataplanes N"),
        SEED,
        ("size", "1m", "bytes per sender"),
        ("senders", "4,8,16,32", "fan-in degrees to sweep"),
        ("ecn-k", "20", "DCTCP marking threshold in packets"),
        CSV,
    ],
    run,
};

/// The incast completion time (when the last sender finishes, us), packets
/// dropped and packets retransmitted.
fn run_incast(
    spec: PNetSpec,
    n_senders: usize,
    size: u64,
    cc: CcAlgo,
    ecn_k: Option<u32>,
) -> (f64, u64, u64) {
    let cfg = SimConfig {
        ecn_threshold_packets: ecn_k,
        ..SimConfig::default()
    };
    // Spread senders over planes round-robin (the P-Net mitigation); serial
    // networks have one plane so this is a no-op there.
    let policy = PathPolicy::RoundRobin;
    setups::simulate(spec, policy, cfg, |sim, mut factory, n_hosts| {
        let n_hosts = n_hosts as usize;
        assert!(n_senders < n_hosts, "too many senders for the cluster");
        let dst = HostId(0);
        for s in 0..n_senders {
            // Senders scattered across racks, skipping the destination's rack.
            let src = HostId((s * (n_hosts - 1) / n_senders + 4) as u32 % n_hosts as u32);
            let src = if src == dst { HostId(1) } else { src };
            let (routes, _) = factory(src, dst, size);
            sim.start_flow(FlowSpec {
                src,
                dst,
                size_bytes: size,
                routes,
                cc,
                owner_tag: s as u64,
            });
        }
        run_to_completion(sim);
        let last_fct_us = metrics::fcts_us(&sim.records)
            .into_iter()
            .fold(0.0, f64::max);
        let retransmits = sim.records.iter().map(|r| r.retransmits).sum();
        (last_fct_us, sim.dropped_packets, retransmits)
    })
}

fn run(args: &Args, out: &mut dyn Write) -> Result<(), Error> {
    let base = setups::jellyfish_spec(args)?;
    let (hosts, planes) = (base.n_hosts(), base.n_planes);
    let size = args.get_with("size", parse_size)?;
    let senders = args.list_with("senders", parse_size)?;
    let ecn_k: u32 = args.get("ecn-k")?;
    let csv = args.has("csv");

    banner(
        out,
        "Extension — incast with and without DCTCP (paper section 6.5)",
        &format!(
            "{hosts} hosts, {planes} planes; N senders -> 1 receiver, {} per sender; \
             P-Net spreads senders round-robin over planes; DCTCP K = {ecn_k} pkts",
            human_bytes(size)
        ),
    )?;

    let classes = [
        NetworkClass::SerialLow,
        NetworkClass::ParallelHeterogeneous,
        NetworkClass::SerialHigh,
    ];
    for (cc, ecn, label) in [
        (CcAlgo::Reno, None, "TCP (Reno)"),
        (CcAlgo::Dctcp, Some(ecn_k), "DCTCP"),
    ] {
        writeln!(out, "\n--- {label} ---")?;
        let mut header = vec!["senders".to_string()];
        for c in &classes {
            header.push(format!("{} fct", c.label()));
            header.push("drops/rtx".into());
        }
        let mut table = Table::new(&header, csv);
        for &n in &senders {
            let mut row = vec![n.to_string()];
            for &class in &classes {
                let spec = PNetSpec { class, ..base };
                let (fct_us, drops, rtx) = run_incast(spec, n as usize, size, cc, ecn);
                row.push(format!("{fct_us:.0}us"));
                row.push(format!("{drops}/{rtx}"));
            }
            table.push(row);
        }
        table.print(out)?;
    }
    writeln!(
        out,
        "\nexpected: P-Net spreads fan-in over planes (lower completion times, fewer\n\
         in-network drops than serial low-bw); DCTCP removes the remaining drops\n\
         on every network by keeping queues at ~K"
    )?;
    Ok(())
}
