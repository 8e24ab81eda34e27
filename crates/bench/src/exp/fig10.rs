//! Figure 10 + Table 2: MTU-sized (1500 B) RPC request completion times on
//! a 4-plane Jellyfish P-Net with single-path routing.
//!
//! Paper setup: 686-host Jellyfish, each host ping-pongs a 1500 B request/
//! response with random servers over 1000 rounds. Paper results (Table 2,
//! normalized to serial low-bw): parallel heterogeneous median 80.1%,
//! average 86.6%, p99 90.4%; parallel homogeneous ~= serial low-bw; serial
//! high-bw ~98% (only serialization delay shrinks — propagation dominates).

use crate::{banner, setups, Args, Error, Experiment, Table, CSV, SEED};
use pnet_core::PNetSpec;
use pnet_htsim::{metrics, SimConfig, MTU_BYTES};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::Write;

pub const EXPERIMENT: Experiment = Experiment {
    name: "fig10",
    about: "Figure 10 / Table 2: 1500 B RPC completion times, single-path (packet level)",
    params: &[
        ("tors", "98", "ToR switches per plane"),
        ("degree", "7", "fabric ports per ToR"),
        ("hosts-per-tor", "7", "hosts per ToR"),
        ("planes", "4", "dataplanes N"),
        ("rounds", "100", "RPC rounds per host (paper: 1000)"),
        SEED,
        ("queue", "100", "switch queue depth in packets"),
        ("cdf", "off", "also print the completion-time CDF points"),
        CSV,
    ],
    run,
};

fn rpc_times(spec: PNetSpec, rounds: u64, queue_packets: u64) -> Vec<f64> {
    let cfg = SimConfig {
        queue_bytes: queue_packets * MTU_BYTES as u64,
        ..SimConfig::default()
    };
    let policy = setups::single_path_policy(spec.class);
    setups::simulate(spec, policy, cfg, |sim, factory, n_hosts| {
        let mut rng = StdRng::seed_from_u64(spec.seed ^ 0x5EED_0001);
        setups::rpc_rounds(sim, factory, &mut rng, n_hosts, 1, 1500, rounds).0
    })
}

fn run(args: &Args, out: &mut dyn Write) -> Result<(), Error> {
    let base = setups::jellyfish_spec(args)?;
    let (hosts, planes) = (base.n_hosts(), base.n_planes);
    let rounds: u64 = args.get("rounds")?;
    // A zero-packet queue drops every packet: the RPCs would retransmit
    // forever.
    let queue = setups::count(args, "queue")? as u64;
    let csv = args.has("csv");

    banner(
        out,
        "Figure 10 / Table 2 — 1500B RPC request completion time, single-path",
        &format!(
            "{hosts} hosts, {planes} planes, {rounds} rounds/host, queue {queue} pkts; \
             hetero uses the shortest plane, homo hashes planes"
        ),
    )?;

    let classes = setups::classes_for(base.topology);
    let all = setups::per_class(base, |spec| rpc_times(spec, rounds, queue));

    let base_summary = metrics::Summary::of(&all[0]);
    let header = [
        "network", "median", "average", "99%-tile", "med/base", "avg/base", "p99/base",
    ];
    let mut table = Table::new(&header, csv);
    for (class, times) in classes.iter().zip(&all) {
        let s = metrics::Summary::of(times);
        table.row(&[
            &class.label(),
            &format!("{:.2}us", s.median),
            &format!("{:.2}us", s.mean),
            &format!("{:.2}us", s.p99),
            &format!("{:.1}%", 100.0 * s.median / base_summary.median),
            &format!("{:.1}%", 100.0 * s.mean / base_summary.mean),
            &format!("{:.1}%", 100.0 * s.p99 / base_summary.p99),
        ]);
    }
    table.print(out)?;
    writeln!(
        out,
        "\npaper Table 2: serial-low 100/100/100; par-homo 100/99.2/100;"
    )?;
    writeln!(
        out,
        "               par-hetero 80.1/86.6/90.4; serial-high 98.1/97.9/97.4"
    )?;

    if args.has("cdf") {
        writeln!(out)?;
        banner(out, "Figure 10 — completion-time CDF points", "")?;
        let mut t = setups::class_table("percentile", &classes, csv);
        for p in [5.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0] {
            let mut row = vec![format!("{p}%")];
            row.extend(
                all.iter()
                    .map(|times| format!("{:.2}us", metrics::percentile(times, p))),
            );
            t.push(row);
        }
        t.print(out)?;
    }
    Ok(())
}
