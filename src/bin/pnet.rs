//! `pnet` — command-line front end to the P-Net library.
//!
//! Subcommands:
//!
//! * `pnet topology`   — build a network and print its structural summary
//! * `pnet route`      — show the paths a policy picks for a host pair
//! * `pnet throughput` — flow-level capacity of a traffic pattern
//! * `pnet plan`       — planner-service what-if report: admission, subflow
//!   sweep, per-plane headroom, failure what-ifs
//! * `pnet simulate`   — packet-level FCTs of a batch of flows
//! * `pnet components` — Table 1-style component accounting
//! * `pnet exp`        — the paper's tables and figures (`pnet exp` lists them)
//!
//! Every subcommand takes `--help`-style discoverable flags (see
//! `usage()`); topologies and seeds are deterministic, so outputs are
//! reproducible.

use pnet::core::{analysis, PNetSpec, PathPolicy, TopologyKind};
use pnet::flowsim::{commodity, throughput, Commodity};
use pnet::htsim::{
    metrics, run_to_completion, EventMask, FlowSpec, SimConfig, SimTime, Simulator, TelemetryConfig,
};
use pnet::planner::{Planner, PlannerConfig};
use pnet::topology::components::ChipSpec;
use pnet::topology::{failures, HostId, NetworkClass};
use pnet::workloads::tm;
use pnet_bench::args::parse_size;
use pnet_bench::{exp::table1, setups, ArgError, ArgErrorKind, Args, Error, Param, Table};
use std::io::stdout;

fn usage() -> ! {
    let trace_events: Vec<&str> = EventMask::NAMES.iter().map(|(name, _)| *name).collect();
    eprintln!(
        "pnet — Parallel Dataplane Networks (CoNEXT'22 reproduction)

USAGE:
  pnet <subcommand> [--flag value ...]

SUBCOMMANDS:
  topology     build and summarize a network
               --kind jellyfish|fattree|xpander  --class low|homo|hetero|high
               --planes N --tors N --degree D --hosts-per-tor H --k K --lifts L --seed S
  route        show selected paths for a host pair
               (topology flags) --src H --dst H --policy ecmp|rr|shortest|ksp|plane-ksp|disjoint
               --kpaths K --size BYTES --flow ID
  throughput   flow-level capacity of a pattern
               (topology flags) --pattern permutation|all-to-all --kpaths K --eps E
  plan         planner-service what-if report on one fabric snapshot
               (topology flags) --pattern permutation|all-to-all --kpaths K --eps E
               --sweep 1,2,4,8 --what-if-cables N
  simulate     packet-level FCTs of a permutation of flows
               (topology flags) --size BYTES --policy ... --kpaths K
               --trace-out FILE[.jsonl|.csv] --sample-interval DUR (e.g. 100us)
               --trace-events LIST, comma-separated from
                 {}
  components   Table 1 component accounting
               --hosts N --planes N
  exp          regenerate a table or figure of the paper: exp <name> [flags];
               `pnet exp` alone lists the names and each experiment's flags

EXAMPLES:
  pnet topology --kind jellyfish --class hetero --planes 4 --tors 32 --degree 5
  pnet route --src 0 --dst 50 --policy shortest --class hetero
  pnet throughput --pattern permutation --kpaths 16 --planes 2
  pnet plan --pattern permutation --planes 4 --what-if-cables 2
  pnet simulate --size 1m --policy plane-ksp --planes 4
  pnet simulate --size 1m --trace-out trace.jsonl --sample-interval 100us",
        trace_events.join(",")
    );
    std::process::exit(2);
}

/// Each subcommand's flags and defaults, as `main` declares them to `Args`
/// (`usage()` has the help): `topology_from`'s, `policy_from`'s with `--size`,
/// and the traffic pattern's.
const TOPOLOGY: &[Param] = &[
    ("kind", "jellyfish", ""),
    ("class", "hetero", ""),
    ("planes", "4", ""),
    ("tors", "32", ""),
    ("degree", "5", ""),
    ("hosts-per-tor", "2", ""),
    ("k", "8", ""),
    ("lifts", "3", ""),
    ("seed", "1", ""),
];
const ROUTING: &[Param] = &[
    ("policy", "shortest", ""),
    ("kpaths", "8", ""),
    ("size", "1m", ""),
];
const PATTERN: &[Param] = &[
    ("pattern", "permutation", ""),
    ("kpaths", "8", ""),
    ("eps", "0.1", ""),
];

/// The topology flags, checked by `setups`' helpers as the experiments'
/// are: a value the library cannot build with is an `ArgError` naming it.
fn topology_from(args: &Args) -> Result<(TopologyKind, NetworkClass, usize, u64), ArgError> {
    let kind = match args.get_str("kind").unwrap_or_default() {
        "jellyfish" => setups::jellyfish_from(args)?,
        "fattree" => TopologyKind::FatTree {
            k: setups::fat_tree_k(args)?,
        },
        "xpander" => setups::xpander_from(args)?,
        other => {
            eprintln!("unknown --kind {other:?}");
            usage()
        }
    };
    let class = match args.get_str("class").unwrap_or_default() {
        "low" => NetworkClass::SerialLow,
        "homo" => NetworkClass::ParallelHomogeneous,
        "hetero" => NetworkClass::ParallelHeterogeneous,
        "high" => NetworkClass::SerialHigh,
        other => {
            eprintln!("unknown --class {other:?}");
            usage()
        }
    };
    let class = if matches!(kind, TopologyKind::FatTree { .. })
        && class == NetworkClass::ParallelHeterogeneous
    {
        eprintln!("note: fat trees have no heterogeneous variant; using homogeneous");
        NetworkClass::ParallelHomogeneous
    } else {
        class
    };
    Ok((kind, class, setups::planes_from(args)?, args.get("seed")?))
}

fn policy_from(args: &Args, planes: usize) -> Result<PathPolicy, ArgError> {
    let k = setups::count(args, "kpaths")?;
    Ok(match args.get_str("policy").unwrap_or_default() {
        "ecmp" => PathPolicy::EcmpHash,
        "rr" => PathPolicy::RoundRobin,
        "shortest" => PathPolicy::ShortestPlane,
        "ksp" => PathPolicy::MultipathKsp { k },
        "plane-ksp" => PathPolicy::PlaneKsp {
            per_plane: (k / planes).max(1),
        },
        "disjoint" => PathPolicy::DisjointPerPlane {
            per_plane: (k / planes).max(1),
        },
        "default" => PathPolicy::paper_default(k),
        other => {
            eprintln!("unknown --policy {other:?}");
            usage()
        }
    })
}

fn cmd_topology(args: &Args) -> Result<(), Error> {
    let (kind, class, planes, seed) = topology_from(args)?;
    let pnet = PNetSpec::new(kind, class, planes, seed).build();
    let net = &pnet.net;
    println!("class:    {}", class.label());
    println!("planes:   {}", net.n_planes());
    println!("hosts:    {}", net.n_hosts());
    println!("racks:    {}", net.n_racks());
    println!(
        "switches: {}",
        net.nodes().filter(|(_, n)| n.kind.is_switch()).count()
    );
    println!(
        "links:    {} directed ({} cables)",
        net.n_links(),
        net.n_links() / 2
    );
    let hist = analysis::hop_histogram_best_plane(net);
    println!("mean best-plane switch hops: {:.3}", hist.mean());
    print!("hop histogram:");
    for (h, &c) in hist.histogram.iter().enumerate() {
        if c > 0 {
            print!("  {h}h x {c}");
        }
    }
    println!();
    for p in net.planes() {
        let ok = net.plane_connects_all_hosts(p);
        println!("plane {p}: connected = {ok}");
    }
    Ok(())
}

fn host_arg(args: &Args, key: &str, default: u32, n_hosts: usize) -> Result<HostId, ArgError> {
    let id: u32 = args.opt(key)?.unwrap_or(default);
    if id as usize >= n_hosts {
        let why = format!("out of range: the network has {n_hosts} hosts");
        return Err(args.reject(key, id, why));
    }
    Ok(HostId(id))
}

fn cmd_route(args: &Args) -> Result<(), Error> {
    let (kind, class, planes, seed) = topology_from(args)?;
    let pnet = PNetSpec::new(kind, class, planes, seed).build();
    let n_hosts = pnet.net.n_hosts();
    let src = host_arg(args, "src", 0, n_hosts)?;
    let dst = host_arg(args, "dst", (n_hosts - 1) as u32, n_hosts)?;
    if src == dst {
        return Err(args.reject("dst", dst.0, "must differ from --src").into());
    }
    let size = args.get_with("size", parse_size)?;
    let mut selector = pnet.selector(policy_from(args, planes)?);
    let (routes, cc) = selector.select(&pnet.net, src, dst, args.get("flow")?, size);
    println!(
        "{src} -> {dst} ({} bytes): {} subflow(s), congestion control {cc:?}",
        size,
        routes.len()
    );
    for (i, r) in routes.iter().enumerate() {
        let plane = pnet.net.link(r[0]).plane;
        let hops = r.len() - 1;
        let nodes: Vec<String> = std::iter::once(pnet.net.link(r[0]).src)
            .chain(r.iter().map(|&l| pnet.net.link(l).dst))
            .map(|n| format!("{:?}", pnet.net.node(n).kind))
            .collect();
        println!("  subflow {i}: plane {plane}, {hops} switch hops");
        println!("    {}", nodes.join(" -> "));
    }
    Ok(())
}

/// The `--pattern` traffic matrix over `n` hosts.
fn commodities_from(args: &Args, n: usize, seed: u64) -> Vec<Commodity> {
    match args.get_str("pattern").unwrap_or_default() {
        "permutation" => commodity::permutation(&tm::random_permutation(n, seed)),
        "all-to-all" => commodity::all_to_all(n),
        other => {
            eprintln!("unknown --pattern {other:?}");
            usage()
        }
    }
}

fn cmd_throughput(args: &Args) -> Result<(), Error> {
    let (kind, class, planes, seed) = topology_from(args)?;
    let pnet = PNetSpec::new(kind, class, planes, seed).build();
    let n = pnet.net.n_hosts();
    let commodities = commodities_from(args, n, seed);
    let k = setups::count(args, "kpaths")?;
    let eps = setups::eps_from(args)?;
    let (ksp, lambda) = throughput::ksp_multipath_throughput(&pnet.net, &commodities, k, eps)?;
    let ecmp = throughput::ecmp_throughput(&pnet.net, &commodities);
    println!(
        "network: {} ({} hosts, {} planes)",
        class.label(),
        n,
        pnet.net.n_planes()
    );
    println!("flows:   {}", commodities.len());
    println!("ECMP single-path total:   {:.3} Tb/s", ecmp / 1e12);
    println!(
        "KSP-{k} multipath total:   {:.3} Tb/s (min-fair rate {:.2} Gb/s)",
        ksp / 1e12,
        lambda / 1e9
    );
    Ok(())
}

/// One-stop what-if report from the planner service: admission of the
/// offered matrix, the subflow fan-out sweep, structural per-plane
/// headroom, and (optionally) ideal throughput with the first N fabric
/// cables failed — all answered against a single pinned generation, with
/// the memo counters showing how much solver work the queries shared.
fn cmd_plan(args: &Args) -> Result<(), Error> {
    let (kind, class, planes, seed) = topology_from(args)?;
    let pnet = PNetSpec::new(kind, class, planes, seed).build();
    let n = pnet.net.n_hosts();
    let commodities = commodities_from(args, n, seed);
    let cfg = PlannerConfig {
        k: setups::count(args, "kpaths")?,
        eps: setups::eps_from(args)?,
    };
    let sweep: Vec<usize> = setups::counts(args, "sweep")?
        .into_iter()
        .map(|k| k as usize)
        .collect();
    let planner = Planner::with_config(pnet.net.clone(), cfg);
    let generation = planner.latest();
    println!(
        "network:    {} ({} hosts, {} planes, {} flows offered)",
        class.label(),
        n,
        generation.network().n_planes(),
        commodities.len()
    );
    println!(
        "generation: {} (topology fingerprint {:016x})",
        generation.seq(),
        generation.topology_fingerprint()
    );

    let adm = planner.admit_at(&generation, &commodities)?;
    println!(
        "admission:  lambda = {:.4} -> {}  ({:.3} Tb/s delivered at that scale)",
        adm.lambda,
        if adm.admitted {
            "ADMIT (every flow ships full demand)"
        } else {
            "REJECT (the fabric cannot carry the full matrix)"
        },
        adm.total_rate_bps / 1e12
    );

    let best = planner.best_k_at(&generation, &commodities, &sweep)?;
    let swept: Vec<String> = best
        .evaluated
        .iter()
        .map(|(k, l)| format!("K={k}: {l:.4}"))
        .collect();
    println!(
        "subflows:   best K = {} (lambda {:.4})",
        best.k, best.lambda
    );
    println!("            {}", swept.join("   "));

    let header = ["Plane", "Live Tb/s", "Total Tb/s", "Down links", "Headroom"];
    let mut t = Table::new(&header, false);
    for h in planner.plane_headroom_at(&generation) {
        t.row(&[
            &h.plane,
            &format!("{:.3}", h.live_capacity_bps as f64 / 1e12),
            &format!("{:.3}", h.total_capacity_bps as f64 / 1e12),
            &h.failed_links,
            &format!("{:.1}%", h.headroom * 100.0),
        ]);
    }
    t.print(&mut stdout())?;

    let n_fail: usize = args.get("what-if-cables")?;
    if n_fail > 0 {
        let cables = failures::fabric_cables(generation.network(), None);
        let chosen = &cables[..n_fail.min(cables.len())];
        let wi = planner.ideal_throughput_after_at(&generation, chosen, &commodities)?;
        println!(
            "what-if:    {} fabric cable(s) down -> ideal lambda {:.4} vs {:.4} \
             baseline ({:.1}% retained)",
            chosen.len(),
            wi.degraded_lambda,
            wi.baseline_lambda,
            wi.retained() * 100.0
        );
    }

    let stats = planner.memo_stats();
    println!(
        "memo:       {} cold solve(s), {} cache hit(s), {} entries",
        stats.misses, stats.hits, stats.entries
    );
    Ok(())
}

/// Telemetry configuration from `--trace-out`, `--sample-interval`, and
/// `--trace-events`. Tracing is enabled whenever an output file is named:
/// all instantaneous events by default, plus the samplers when an interval
/// is given; `--trace-events` narrows the categories.
fn telemetry_from(args: &Args) -> TelemetryConfig {
    if args.get_str("trace-out").is_none() {
        return TelemetryConfig::default();
    }
    let sample_interval = args.get_str("sample-interval").map(|s| {
        let interval = s.parse::<SimTime>().unwrap_or_else(|e| {
            eprintln!("--sample-interval: {e}");
            usage()
        });
        if interval == SimTime::ZERO {
            eprintln!(
                "--sample-interval must be positive: a zero period would re-arm \
                 the sampler at the same timestamp forever"
            );
            usage()
        }
        interval
    });
    let events = match args.get_str("trace-events") {
        Some(names) => EventMask::from_names(names).unwrap_or_else(|e| {
            eprintln!("--trace-events: {e}");
            usage()
        }),
        None if sample_interval.is_some() => EventMask::ALL,
        None => EventMask::TRACE,
    };
    TelemetryConfig {
        events,
        sample_interval,
    }
}

fn cmd_simulate(args: &Args) -> Result<(), Error> {
    let (kind, class, planes, seed) = topology_from(args)?;
    let pnet = PNetSpec::new(kind, class, planes, seed).build();
    let n = pnet.net.n_hosts();
    let size = args.get_with("size", parse_size)?;
    let mut selector = pnet.selector(policy_from(args, planes)?);
    let cfg = SimConfig {
        telemetry: telemetry_from(args),
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(&pnet.net, cfg);
    for (i, (a, b)) in tm::permutation_pairs(n, seed).into_iter().enumerate() {
        let (routes, cc) = selector.select(
            &pnet.net,
            HostId(a as u32),
            HostId(b as u32),
            i as u64,
            size,
        );
        sim.start_flow(FlowSpec {
            src: HostId(a as u32),
            dst: HostId(b as u32),
            size_bytes: size,
            routes,
            cc,
            owner_tag: i as u64,
        });
    }
    run_to_completion(&mut sim);
    let fcts = metrics::fcts_us(&sim.records);
    let s = metrics::Summary::of(&fcts);
    println!(
        "{} flows x {} bytes on {} ({} planes)",
        fcts.len(),
        size,
        class.label(),
        pnet.net.n_planes()
    );
    println!(
        "FCT us: min {:.1}  median {:.1}  mean {:.1}  p90 {:.1}  p99 {:.1}  max {:.1}",
        s.min, s.median, s.mean, s.p90, s.p99, s.max
    );
    println!(
        "drops: {} congestion + {} link-down  retransmits: {}  events: {}",
        sim.dropped_packets,
        sim.dropped_link_down_packets,
        sim.records.iter().map(|r| r.retransmits).sum::<u64>(),
        sim.events_dispatched()
    );
    if let Some(path) = args.get_str("trace-out") {
        let tl = sim
            .telemetry()
            .expect("telemetry is enabled whenever --trace-out is given");
        let body = if path.ends_with(".csv") {
            tl.to_csv()
        } else {
            tl.to_jsonl()
        };
        if let Err(e) = std::fs::write(path, body) {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
        println!("trace: {} records -> {path}", tl.len());
    }
    Ok(())
}

fn cmd_components(args: &Args) -> Result<(), Error> {
    let (hosts, planes) = setups::component_hosts_and_planes(args, ChipSpec::table1())?;
    table1::component_table(hosts, planes, false).print(&mut stdout())?;
    Ok(())
}

type Cmd = fn(&Args) -> Result<(), Error>;

/// A subcommand's entry point and the flags it declares.
fn subcommand(sub: &str) -> (Cmd, Vec<Param<'static>>) {
    match sub {
        "topology" => (cmd_topology, TOPOLOGY.to_vec()),
        "route" => {
            let host_pair: &[Param] = &[("src", "0", ""), ("dst", "", ""), ("flow", "0", "")];
            (cmd_route, [TOPOLOGY, ROUTING, host_pair].concat())
        }
        "throughput" => (cmd_throughput, [TOPOLOGY, PATTERN].concat()),
        "plan" => {
            let what_if: &[Param] = &[("sweep", "1,2,4,8", ""), ("what-if-cables", "0", "")];
            (cmd_plan, [TOPOLOGY, PATTERN, what_if].concat())
        }
        "simulate" => {
            let trace: &[Param] = &[
                ("trace-out", "", ""),
                ("sample-interval", "", ""),
                ("trace-events", "", ""),
            ];
            (cmd_simulate, [TOPOLOGY, ROUTING, trace].concat())
        }
        "components" => (
            cmd_components,
            vec![("hosts", "8192", ""), ("planes", "8", "")],
        ),
        _ => usage(),
    }
}

fn main() {
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.is_empty() || raw[0].starts_with('-') {
        usage();
    }
    let sub = raw.remove(0);
    let result = if sub == "exp" {
        pnet_bench::dispatch(&raw, &mut stdout().lock())
    } else {
        let (cmd, params) = subcommand(&sub);
        Args::parse(&params, raw)
            .map_err(Error::from)
            .and_then(|args| cmd(&args))
    };
    if let Err(e) = result {
        match &e {
            // Already one line that names the flag.
            Error::Args(ArgError {
                kind: ArgErrorKind::Rejected { .. },
                ..
            }) => eprintln!("{e}"),
            _ => eprintln!("pnet {sub}: {e}"),
        }
        std::process::exit(if matches!(e, Error::Io(_)) { 1 } else { 2 });
    }
}
