//! Figure 13: published-trace-driven flow completion times.
//!
//! (a) flow-size CDFs of the five traces; (b) datamining \[22\] and (c)
//! websearch \[6\] FCT distributions on Jellyfish networks at 100/400G with
//! four closed-loop flows per host and single-path routing.
//!
//! Paper shape: datamining (mice-dominated) behaves like the RPC study —
//! parallel heterogeneous lowest latency via shorter paths; websearch
//! (byte-heavy) behaves like the shuffle study — P-Nets approach serial
//! high-bw throughput and beat serial low-bw substantially.
//!
//! Scale note: flow sizes are scaled by `--scale` (default 0.01) and the
//! run lasts `--ms` of simulated time, keeping runs in seconds while
//! preserving each distribution's shape relative to the network BDP.

use crate::{banner, setups, Args, Error, Experiment, Table, CSV, SEED};
use pnet_htsim::metrics;
use pnet_workloads::Trace;
use std::io::Write;

pub const EXPERIMENT: Experiment = Experiment {
    name: "fig13",
    about: "Figure 13: flow-size CDFs of the published traces and trace-driven FCTs",
    params: &[
        ("tors", "24", "ToR switches per plane"),
        ("degree", "5", "fabric ports per ToR"),
        ("hosts-per-tor", "4", "hosts per ToR"),
        ("planes", "4", "dataplanes N"),
        ("flows-per-host", "4", "closed-loop flows per host"),
        ("ms", "20", "ms of arrivals; as long again to drain"),
        ("scale", "0.01", "flow-size scale factor"),
        SEED,
        ("rto-us", "1000", "TCP minimum RTO in microseconds"),
        ("traces", "datamining,websearch", "traces to run"),
        CSV,
    ],
    run,
};

fn run(args: &Args, out: &mut dyn Write) -> Result<(), Error> {
    let base = setups::jellyfish_spec(args)?;
    let fph: usize = args.get("flows-per-host")?;
    let ms: u64 = args.get("ms")?;
    let scale: f64 = args.get("scale")?;
    let rto_us: u64 = args.get("rto-us")?;
    let csv = args.has("csv");
    let traces: Vec<Trace> = args.list_with("traces", setups::trace_named)?;

    banner(
        out,
        "Figure 13a — flow-size distributions of the published traces",
        "percentiles of each digitized CDF (bytes)",
    )?;
    let mut t = Table::new(&["trace", "p10", "p50", "p90", "p99", "max"], csv);
    for trace in Trace::all() {
        let cdf = trace.cdf();
        let q = |p| cdf.quantile(p);
        t.row(&[
            &trace.label(),
            &q(0.10),
            &q(0.50),
            &q(0.90),
            &q(0.99),
            &cdf.max_bytes(),
        ]);
    }
    t.print(out)?;

    let classes = setups::classes_for(base.topology);
    for trace in traces {
        let panel = if trace == Trace::Datamining { "b" } else { "c" };
        writeln!(out)?;
        banner(
            out,
            &format!(
                "Figure 13{panel} — {} trace FCTs (closed loop, {fph} flows/host, sizes x{scale})",
                trace.label()
            ),
            "FCT percentiles in microseconds; single-path routing",
        )?;
        let header = ["network", "flows", "p25", "median", "p90", "p99", "mean"];
        let mut table = Table::new(&header, csv);
        let cdf = trace.cdf().scaled(scale);
        let per_class = setups::per_class(base, |spec| {
            setups::closed_loop_fcts(spec, &cdf, rto_us, fph, ms, spec.seed ^ 0xF13)
        });
        for (class, fcts) in classes.iter().zip(&per_class) {
            let pct = |p| format!("{:.1}", metrics::percentile(fcts, p));
            table.row(&[
                &class.label(),
                &fcts.len(),
                &pct(25.0),
                &pct(50.0),
                &pct(90.0),
                &pct(99.0),
                &format!("{:.1}", metrics::mean(fcts)),
            ]);
        }
        table.print(out)?;
    }
    writeln!(
        out,
        "\npaper: datamining (mice) — hetero P-Net lowest FCT via shorter paths; \
         websearch (bulk) — P-Nets near serial high-bw, far above serial low-bw"
    )?;
    Ok(())
}
