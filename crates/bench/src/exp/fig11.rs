//! Figure 11: concurrent 100 kB RPC request completion times (median, p90,
//! p99) as the number of concurrent RPCs per host grows from 1 to 10.
//!
//! Paper shape: serial low-bw degrades worst (limited bandwidth + limited
//! paths -> queue buildup); serial high-bw only drains queues faster;
//! parallel networks spread requests over 4x the links and queues, giving a
//! mild increase and far fewer drops/retransmits at the 99th percentile.

use crate::args::parse_size;
use crate::{banner, setups, Args, Error, Experiment, CSV, SEED};
use pnet_core::PNetSpec;
use pnet_htsim::{metrics, SimConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::Write;

pub const EXPERIMENT: Experiment = Experiment {
    name: "fig11",
    about: "Figure 11: concurrent 100 kB RPC completion times versus RPCs per host",
    params: &[
        ("tors", "24", "ToR switches per plane"),
        ("degree", "5", "fabric ports per ToR"),
        ("hosts-per-tor", "4", "hosts per ToR"),
        ("planes", "4", "dataplanes N"),
        ("rounds", "20", "request/response rounds per slot"),
        ("request", "100k", "request size; responses are 1500 B"),
        ("concurrency", "1,2,4,8,10", "concurrent RPCs per host"),
        SEED,
        CSV,
    ],
    run,
};

/// Round completion times (us) and total retransmits.
type Run = (Vec<f64>, u64);

fn concurrent_rpcs(spec: PNetSpec, rounds: u64, request_bytes: u64, per_host: usize) -> Run {
    let policy = setups::single_path_policy(spec.class);
    let cfg = SimConfig::default();
    setups::simulate(spec, policy, cfg, |sim, factory, n_hosts| {
        let mut rng = StdRng::seed_from_u64(spec.seed ^ 0xC0C0);
        // Responses are small (ack-like) as in a storage/query fan-in: the
        // request direction carries the bytes.
        setups::rpc_rounds(
            sim,
            factory,
            &mut rng,
            n_hosts,
            per_host,
            request_bytes,
            rounds,
        )
    })
}

fn run(args: &Args, out: &mut dyn Write) -> Result<(), Error> {
    let base = setups::jellyfish_spec(args)?;
    let (hosts, planes) = (base.n_hosts(), base.n_planes);
    let rounds: u64 = args.get("rounds")?;
    let request = args.get_with("request", parse_size)?;
    let concurrency = args.list_with("concurrency", parse_size)?;
    let csv = args.has("csv");

    banner(
        out,
        "Figure 11 — concurrent 100kB RPC completion times",
        &format!(
            "{hosts} hosts, {planes} planes, {rounds} rounds/slot, request {request} bytes, \
             single-path routing"
        ),
    )?;

    let classes = setups::classes_for(base.topology);
    // Run every (concurrency, class) combination once.
    let results: Vec<(u64, Vec<Run>)> = concurrency
        .iter()
        .map(|&c| {
            let one = |spec| concurrent_rpcs(spec, rounds, request, c as usize);
            (c, setups::per_class(base, one))
        })
        .collect();

    for stat in ["median", "p90", "p99", "retransmits"] {
        writeln!(out, "\n--- {stat} ---")?;
        let mut table = setups::class_table("concurrent", &classes, csv);
        for (c, runs) in &results {
            let mut row = vec![c.to_string()];
            row.extend(runs.iter().map(|(times, retransmits)| match stat {
                "median" => format!("{:.1}us", metrics::percentile(times, 50.0)),
                "p90" => format!("{:.1}us", metrics::percentile(times, 90.0)),
                "p99" => format!("{:.1}us", metrics::percentile(times, 99.0)),
                _ => retransmits.to_string(),
            }));
            table.push(row);
        }
        table.print(out)?;
    }
    writeln!(
        out,
        "\npaper: serial low-bw suffers most as concurrency grows; parallel networks \
         spread load over 4x the queues (mild increase, fewer retransmits at p99)"
    )?;
    Ok(())
}
