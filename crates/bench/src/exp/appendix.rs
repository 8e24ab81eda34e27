//! Appendix A (Figures 16–20): trace-driven FCT distributions for all five
//! published traces, at two speed generations (10/40G and 100/400G) and on
//! both topology families (fat tree and Jellyfish).
//!
//! Paper shape: at 10/40G P-Nets win broadly via load balancing and
//! multi-flow tolerance (close to serial high-bw); at 100/400G the
//! heterogeneous path-length advantage dominates, letting some short flows
//! beat even the ideal serial 400G network.
//!
//! Scale note: defaults are small (tens of hosts, 0.01x sizes). Runs
//! 5 traces x 2 speeds x 2 topologies x network classes; allow ~a minute.

use crate::{banner, setups, Args, Error, Experiment, Table, CSV, SEED};
use pnet_core::{PNetSpec, TopologyKind};
use pnet_htsim::metrics;
use pnet_topology::{LinkProfile, NetworkClass};
use pnet_workloads::Trace;
use std::io::Write;

pub const EXPERIMENT: Experiment = Experiment {
    name: "appendix",
    about: "Appendix A (Figures 16-20): trace FCTs at two link speeds on both topology families",
    params: &[
        ("planes", "4", "dataplanes N"),
        ("flows-per-host", "2", "closed-loop flows per host"),
        ("ms", "10", "ms of arrivals; as long again to drain"),
        ("scale", "0.01", "flow-size scale factor"),
        SEED,
        ("rto-us", "1000", "TCP minimum RTO in microseconds"),
        CSV,
    ],
    run,
};

fn run(args: &Args, out: &mut dyn Write) -> Result<(), Error> {
    let planes: usize = args.get("planes")?;
    let fph: usize = args.get("flows-per-host")?;
    let ms: u64 = args.get("ms")?;
    let scale: f64 = args.get("scale")?;
    let seed: u64 = args.get("seed")?;
    let rto_us: u64 = args.get("rto-us")?;
    let csv = args.has("csv");

    banner(
        out,
        "Appendix A (Figures 16-20) — trace FCTs across speeds and topologies",
        &format!("{planes} planes, {fph} closed-loop flows/host, sizes x{scale}"),
    )?;

    let topologies = [
        ("fat tree", TopologyKind::FatTree { k: 4 }),
        (
            "jellyfish",
            TopologyKind::Jellyfish {
                n_tors: 8,
                degree: 3,
                hosts_per_tor: 2,
            },
        ),
    ];
    let speeds = [("10/40G", 10u64), ("100/400G", 100u64)];

    for trace in Trace::all() {
        let cdf = trace.cdf().scaled(scale);
        for (topo_name, topology) in topologies {
            for (speed_name, gbps) in speeds {
                writeln!(
                    out,
                    "\n--- {} | {topo_name} | {speed_name} (median / p90 / p99 FCT, us) ---",
                    trace.label()
                )?;
                let base = PNetSpec {
                    profile: LinkProfile::speed_gbps(gbps),
                    ..PNetSpec::new(topology, NetworkClass::SerialLow, planes, seed)
                };
                let mut table = Table::new(&["network", "flows", "median", "p90", "p99"], csv);
                let per_class = setups::per_class(base, |spec| {
                    setups::closed_loop_fcts(spec, &cdf, rto_us, fph, ms, seed ^ 0xA99)
                });
                for (class, fcts) in setups::classes_for(topology).iter().zip(&per_class) {
                    let pct = |p| {
                        if fcts.is_empty() {
                            "-".to_string()
                        } else {
                            format!("{:.1}", metrics::percentile(fcts, p))
                        }
                    };
                    table.row(&[
                        &class.label(),
                        &fcts.len(),
                        &pct(50.0),
                        &pct(90.0),
                        &pct(99.0),
                    ]);
                }
                table.print(out)?;
            }
        }
    }
    writeln!(
        out,
        "\npaper: at 10/40G P-Nets track serial high-bw; at 100/400G heterogeneous \
         P-Nets can beat serial 400G on short flows via shorter paths"
    )?;
    Ok(())
}
