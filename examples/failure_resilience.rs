//! Failure resilience: how mean path length degrades with random link
//! failures — a miniature of the paper's section 5.4 / Figure 14.
//!
//! Run with: `cargo run --release --example failure_resilience`

use pnet::core::analysis;
use pnet::core::{PNetSpec, PathPolicy, TopologyKind};
use pnet::topology::{failures, HostId, Network, NetworkClass, PlaneId};

fn main() {
    let topology = TopologyKind::Jellyfish {
        n_tors: 50,
        degree: 6,
        hosts_per_tor: 1,
    };
    let planes = 4;

    println!("mean switch hops (all rack pairs) vs random fabric-cable failures\n");
    println!(
        "{:>6} {:>10} {:>12} {:>14}",
        "fail%", "serial", "homogeneous", "heterogeneous"
    );
    for pct in [0u32, 10, 20, 30, 40] {
        let frac = pct as f64 / 100.0;
        let mut serial = PNetSpec::new(topology, NetworkClass::SerialLow, planes, 3)
            .build()
            .net;
        let mut homo = PNetSpec::new(topology, NetworkClass::ParallelHomogeneous, planes, 3)
            .build()
            .net;
        let mut hetero = PNetSpec::new(topology, NetworkClass::ParallelHeterogeneous, planes, 3)
            .build()
            .net;
        failures::fail_random_fraction(&mut serial, frac, 1000 + pct as u64);
        failures::fail_random_fraction(&mut homo, frac, 1000 + pct as u64);
        failures::fail_random_fraction(&mut hetero, frac, 1000 + pct as u64);
        println!(
            "{:>6} {:>10.3} {:>12.3} {:>14.3}",
            pct,
            analysis::mean_hops_single_plane(&serial),
            analysis::mean_hops_best_plane(&homo),
            analysis::mean_hops_best_plane(&hetero),
        );
    }

    // The host view: failing a host's uplink masks that plane for new flows.
    println!("\nhost-level failure masking (one subflow per plane, host 0 -> 49):");
    let pnet = PNetSpec::new(topology, NetworkClass::ParallelHeterogeneous, planes, 3).build();
    let mut selector = pnet.selector(PathPolicy::PlaneKsp { per_plane: 1 });
    let mut planes_used = |net: &Network| -> Vec<PlaneId> {
        let (routes, _) = selector.select(net, HostId(0), HostId(49), 0, 1 << 30);
        routes.iter().map(|r| net.link(r[0]).plane).collect()
    };
    println!("  planes before: {:?}", planes_used(&pnet.net));
    let mut net = pnet.net.clone();
    let uplink = net.host_uplink(HostId(0), PlaneId(2)).unwrap();
    failures::fail_cable(&mut net, uplink);
    println!("  after failing plane-2 uplink: {:?}", planes_used(&net));
}
