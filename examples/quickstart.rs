//! Quickstart: build a 4-plane heterogeneous P-Net, watch the selector mask a
//! failed plane, pick paths under different policies, and run a small packet
//! simulation.
//!
//! Run with: `cargo run --release --example quickstart`

use pnet::core::{PNetSpec, PathPolicy, TopologyKind};
use pnet::htsim::{run_to_completion, FlowSpec, SimConfig, Simulator};
use pnet::topology::{failures, HostId, Network, NetworkClass, PlaneId};

fn main() {
    // 1. Build a 4-plane heterogeneous P-Net: four differently-seeded
    //    Jellyfish planes over 32 racks with 2 hosts each.
    let spec = PNetSpec::new(
        TopologyKind::Jellyfish {
            n_tors: 32,
            degree: 5,
            hosts_per_tor: 2,
        },
        NetworkClass::ParallelHeterogeneous,
        4,
        42,
    );
    let pnet = spec.build();
    println!(
        "built {:?}: {} hosts, {} planes, {} switches",
        spec.class,
        pnet.net.n_hosts(),
        pnet.net.n_planes(),
        pnet.net.nodes().filter(|(_, n)| n.kind.is_switch()).count(),
    );

    // 2. Failure masking: one subflow per plane, before and after host 0's
    //    plane-2 uplink fails. The selector reads link status per flow, so
    //    the dead plane drops out of the subflow set.
    let src = HostId(0);
    let dst = HostId(63);
    let mut selector = pnet.selector(PathPolicy::PlaneKsp { per_plane: 1 });
    let mut planes_used = |net: &Network| -> Vec<PlaneId> {
        let (routes, _) = selector.select(net, src, dst, 0, 1 << 30);
        routes.iter().map(|r| net.link(r[0]).plane).collect()
    };
    println!("planes host 0's routes use: {:?}", planes_used(&pnet.net));
    let mut failed = pnet.net.clone();
    let uplink = failed.host_uplink(src, PlaneId(2)).unwrap();
    failures::fail_cable(&mut failed, uplink);
    println!(
        "after failing host 0's plane-2 uplink: {:?}",
        planes_used(&failed)
    );

    // 3. Path selection: the "low-latency" interface is one path on the
    //    lowest-hop plane, the "high-throughput" one MPTCP over the 32
    //    shortest paths across planes (8 subflows per plane).
    for (name, policy) in [
        ("shortest-plane", PathPolicy::ShortestPlane),
        ("32-way KSP", PathPolicy::MultipathKsp { k: 32 }),
    ] {
        let mut selector = pnet.selector(policy);
        let (routes, cc) = selector.select(&pnet.net, src, dst, 1, 1_000_000);
        let hops: Vec<usize> = routes.iter().map(|r| r.len() - 1).collect();
        let planes: Vec<PlaneId> = routes.iter().map(|r| pnet.net.link(r[0]).plane).collect();
        println!(
            "{name}: {} subflow(s), cc {cc:?}, switch hops {hops:?}, planes {planes:?}",
            routes.len(),
        );
    }

    // 4. A small packet simulation: one 1 MB transfer under the paper's
    //    default policy (small flows single path, big flows MPTCP).
    let mut selector = pnet.selector(PathPolicy::paper_default(32));
    let (routes, cc) = selector.select(&pnet.net, src, dst, 2, 1_000_000);
    let mut sim = Simulator::new(&pnet.net, SimConfig::default());
    sim.start_flow(FlowSpec {
        src,
        dst,
        size_bytes: 1_000_000,
        routes,
        cc,
        owner_tag: 0,
    });
    run_to_completion(&mut sim);
    let rec = &sim.records[0];
    println!(
        "1 MB transfer: fct {}, {} retransmits, {} switch hops min",
        rec.fct(),
        rec.retransmits,
        rec.min_switch_hops
    );
}
