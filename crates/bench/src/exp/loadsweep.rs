//! Extension experiment — FCT versus offered load (open-loop Poisson
//! arrivals).
//!
//! The paper evaluates fixed traffic patterns; this extension runs the
//! classic open-loop methodology: flows arrive on a Poisson process with
//! sizes from a published trace, and we sweep the offered load from light
//! to beyond the serial low-bandwidth network's capacity. Load is
//! normalized to the *serial low-bw* aggregate host bandwidth, so every
//! network sees the same absolute traffic; N-plane P-Nets have N x the
//! headroom.
//!
//! Expected: at low load all networks are propagation-limited (hetero
//! slightly ahead on hops); as load approaches (and passes) the serial
//! network's capacity its tail explodes while the P-Nets stay flat until
//! ~N x the load.

use crate::args::parse_size;
use crate::{banner, setups, Args, Error, Experiment, CSV, SEED};
use pnet_core::PNetSpec;
use pnet_htsim::apps::OpenLoopDriver;
use pnet_htsim::{metrics, run as run_sim, SimTime};
use pnet_workloads::{EmpiricalCdf, PoissonArrivals};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::Write;

pub const EXPERIMENT: Experiment = Experiment {
    name: "loadsweep",
    about: "Extension: FCT versus offered load under open-loop Poisson arrivals",
    params: &[
        ("tors", "16", "ToR switches per plane"),
        ("degree", "5", "fabric ports per ToR"),
        ("hosts-per-tor", "4", "hosts per ToR"),
        ("planes", "4", "dataplanes N"),
        ("loads", "20,50,80,120", "offered load, % of serial low-bw"),
        ("ms", "5", "ms of arrivals; as long again to drain"),
        ("scale", "0.01", "flow-size scale factor"),
        ("rto-us", "1000", "TCP minimum RTO in microseconds"),
        SEED,
        ("trace", "websearch", "trace the flow sizes follow"),
        CSV,
    ],
    run,
};

/// One (flows completed, median FCT, p99 FCT) sweep sample.
type ClassPoint = (usize, f64, f64);

fn sweep_point(
    spec: PNetSpec,
    cdf: &EmpiricalCdf,
    rho_pct: u64,
    ms: u64,
    rto_us: u64,
) -> ClassPoint {
    let policy = setups::single_path_policy(spec.class);
    let cfg = setups::config_with_rto_us(rto_us);
    let seed = spec.seed;
    let fcts = setups::simulate(spec, policy, cfg, |sim, factory, n_hosts| {
        // Load normalized to serial low-bw: n_hosts x 100G.
        let capacity = n_hosts as f64 * 100e9;
        let rho = rho_pct as f64 / 100.0;
        let mut arrivals =
            PoissonArrivals::for_load(rho, capacity, cdf.mean_bytes(), seed ^ 0xABCD);
        let mut pair_rng = StdRng::seed_from_u64(seed ^ 0x1234);
        let mut size_rng = StdRng::seed_from_u64(seed ^ 0x9876);
        let next_flow = Box::new(move || {
            let (src, dst) = setups::random_pair(&mut pair_rng, n_hosts);
            (src, dst, cdf.sample(&mut size_rng))
        });
        let next_gap = Box::new(move || SimTime::from_ps(arrivals.next_gap_ps()));
        let stop = SimTime::from_ms(ms);
        let mut driver = OpenLoopDriver::start(sim, factory, next_flow, next_gap, stop);
        // Allow a drain window equal to the arrival window.
        run_sim(sim, &mut driver, Some(stop + stop));
        metrics::fcts_us(&driver.completed)
    });
    if fcts.is_empty() {
        return (0, f64::NAN, f64::NAN);
    }
    (
        fcts.len(),
        metrics::percentile(&fcts, 50.0),
        metrics::percentile(&fcts, 99.0),
    )
}

fn run(args: &Args, out: &mut dyn Write) -> Result<(), Error> {
    let base = setups::jellyfish_spec(args)?;
    let (hosts, planes) = (base.n_hosts(), base.n_planes);
    let loads = args.list_with("loads", parse_size)?;
    let ms: u64 = args.get("ms")?;
    let scale: f64 = args.get("scale")?;
    let rto_us: u64 = args.get("rto-us")?;
    let csv = args.has("csv");
    let trace = args.get_with("trace", setups::trace_named)?;

    banner(
        out,
        "Extension — FCT vs offered load (open-loop Poisson, single-path)",
        &format!(
            "{hosts} hosts, {planes} planes, {} sizes x{scale}, \
             load normalized to serial low-bw capacity",
            trace.label()
        ),
    )?;

    let classes = setups::classes_for(base.topology);
    let cdf = trace.cdf().scaled(scale);
    // Run each (load, class) point once.
    let results: Vec<(u64, Vec<ClassPoint>)> = loads
        .iter()
        .map(|&rho| {
            let one = |spec| sweep_point(spec, &cdf, rho, ms, rto_us);
            (rho, setups::per_class(base, one))
        })
        .collect();

    for stat in ["median", "p99", "completed"] {
        writeln!(out, "\n--- {stat} FCT (us) ---")?;
        let mut table = setups::class_table("load%", &classes, csv);
        for (rho, points) in &results {
            let mut row = vec![rho.to_string()];
            row.extend(points.iter().map(|&(n, p50, p99)| match stat {
                "median" => format!("{p50:.1}"),
                "p99" => format!("{p99:.1}"),
                _ => n.to_string(),
            }));
            table.push(row);
        }
        table.print(out)?;
    }
    writeln!(
        out,
        "\nexpected: serial low-bw tail explodes as load approaches 100%;\n\
         P-Nets stay flat (N x headroom); hetero lowest at light load (hops)"
    )?;
    Ok(())
}
