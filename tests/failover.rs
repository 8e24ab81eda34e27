//! Plane-failure resilience at the transport and path-selection level: the
//! paper's "end hosts can quickly detect individual dataplane failures via
//! link status and avoid using the broken dataplane(s), allowing graceful
//! performance degradation" (section 3.4).

use pnet::core::{PNetSpec, PathPolicy, TopologyKind};
use pnet::htsim::{
    run, EventMask, FlowSpec, NullDriver, SimConfig, SimTime, Simulator, TelemetryConfig,
    TraceRecord,
};
use pnet::topology::{failures, HostId, NetworkClass, PlaneId};

fn pnet4() -> pnet::core::PNet {
    PNetSpec::new(
        TopologyKind::Jellyfish {
            n_tors: 8,
            degree: 3,
            hosts_per_tor: 2,
        },
        NetworkClass::ParallelHomogeneous,
        4,
        3,
    )
    .build()
}

#[test]
fn mptcp_survives_a_plane_failure_mid_flight() {
    let pnet = pnet4();
    let mut selector = pnet.selector(PathPolicy::PlaneKsp { per_plane: 1 });
    let (routes, cc) = selector.select(&pnet.net, HostId(0), HostId(15), 1, 40_000_000);
    assert_eq!(routes.len(), 4, "one subflow per plane expected");
    let plane0_uplink = routes
        .iter()
        .map(|r| r[0])
        .find(|&l| pnet.net.link(l).plane == PlaneId(0))
        .expect("no plane-0 subflow");

    let mut cfg = SimConfig::default();
    cfg.tcp.min_rto = SimTime::from_ms(1); // fast failure detection
                                           // Which subflow died is read from the post-mortem the connection leaves
                                           // behind when it retires; the simulator keeps no state of a finished flow.
    cfg.telemetry = TelemetryConfig {
        events: EventMask::SUBFLOW_FINISH,
        sample_interval: None,
    };
    let mut sim = Simulator::new(&pnet.net, cfg);
    let id = sim.start_flow(FlowSpec {
        src: HostId(0),
        dst: HostId(15),
        size_bytes: 40_000_000,
        routes,
        cc,
        owner_tag: 0,
    });

    // Let the transfer ramp, then kill plane 0's uplink for good.
    run(&mut sim, &mut NullDriver, Some(SimTime::from_us(200)));
    assert!(sim.records.is_empty());
    sim.fail_link(plane0_uplink);
    run(&mut sim, &mut NullDriver, None);

    let rec = sim
        .records
        .iter()
        .find(|r| r.conn == id)
        .expect("MPTCP flow never completed after losing one plane");
    assert!(sim.conn(id).is_none(), "a drained, finished flow retires");
    // Exactly one subflow died; the rest carried the re-injected data, and
    // between them the four sent every packet of the flow exactly once.
    let post_mortems: Vec<(bool, u64)> = sim
        .telemetry()
        .expect("telemetry was enabled")
        .records()
        .iter()
        .map(|r| match *r {
            TraceRecord::SubflowFinish {
                dead, highest_sent, ..
            } => (dead, highest_sent),
            ref other => panic!("unexpected record {other:?}"),
        })
        .collect();
    assert_eq!(post_mortems.len(), 4);
    let dead = post_mortems.iter().filter(|(dead, _)| *dead).count();
    assert_eq!(dead, 1, "expected one dead subflow, got {post_mortems:?}");
    let sent: u64 = post_mortems.iter().map(|(_, sent)| sent).sum();
    assert_eq!(sent, 40_000_000u64.div_ceil(1500));
    // 40 MB over the 3 surviving 100G uplinks ~ 1.1 ms + failure detection;
    // it must not have taken a pathological number of timeouts.
    let fct = rec.finish.as_ms_f64();
    assert!(fct < 50.0, "fct {fct} ms too slow for a 3-plane recovery");

    // The blackholed packets are failure loss, not congestion loss: they
    // land in the dedicated link-down counters.
    assert!(
        sim.dropped_link_down_packets > 0,
        "dark uplink should have discarded in-flight packets"
    );
    // Both directions of the cable went dark: data dies at the uplink
    // queue, returning ACKs at its reverse. Together they are every
    // link-down discard in the run.
    let fwd = sim.queue_stats(plane0_uplink);
    let rev = sim.queue_stats(plane0_uplink.reverse());
    assert_eq!(
        fwd.dropped_link_down + rev.dropped_link_down,
        sim.dropped_link_down_packets
    );
    // Slow-start overshoot before the failure may drop-tail a few packets;
    // those stay in the congestion counters, not the failure counters.
    assert!(fwd.dropped + rev.dropped <= sim.dropped_packets);
}

#[test]
fn selector_masks_failed_plane_for_every_policy() {
    let pnet = pnet4();
    let mut net = pnet.net;
    // Fail host 0's plane-2 uplink in the *topology* (link status): the
    // selector reads it per flow, as the paper's host would.
    let uplink = net.host_uplink(HostId(0), PlaneId(2)).unwrap();
    failures::fail_cable(&mut net, uplink);
    let selector = |policy| pnet::core::PathSelector::new(&net, policy);
    let pinned = PathPolicy::Pinned {
        planes: vec![2, 3],
        inner: Box::new(PathPolicy::EcmpHash),
    };
    // Both arms of the size threshold: 1 kB goes shortest-plane, 1 GB KSP.
    let (small, large) = (1_000, 1 << 30);
    for (policy, size) in [
        (PathPolicy::EcmpHash, small),
        (PathPolicy::RoundRobin, small),
        (PathPolicy::ShortestPlane, small),
        (PathPolicy::MultipathKsp { k: 8 }, large),
        (PathPolicy::PlaneKsp { per_plane: 1 }, large),
        (PathPolicy::paper_default(8), small),
        (PathPolicy::paper_default(8), large),
        (pinned, small),
    ] {
        let mut s = selector(policy.clone());
        // Host 14 sits in another rack, host 1 in host 0's own.
        for (dst, flow) in [14, 1]
            .into_iter()
            .flat_map(|d| (0..16).map(move |f| (d, f)))
        {
            let (routes, _) = s.select(&net, HostId(0), HostId(dst), flow, size);
            assert!(!routes.is_empty(), "{policy:?}: no route to {dst}");
            for r in &routes {
                assert!(
                    r.iter().all(|&l| net.link(l).plane != PlaneId(2)),
                    "{policy:?}: flow {flow} to host {dst} placed on the dead plane"
                );
            }
        }
    }

    // One subflow per plane: the dead plane drops out of the subflow set.
    let mut mp = selector(PathPolicy::PlaneKsp { per_plane: 1 });
    let (routes, _) = mp.select(&net, HostId(0), HostId(14), 0, 1 << 30);
    assert_eq!(
        routes.len(),
        3,
        "dead plane must drop out of the subflow set"
    );
}

#[test]
fn single_path_flows_on_other_planes_unaffected_by_plane_death() {
    let pnet = pnet4();
    let mut cfg = SimConfig::default();
    cfg.tcp.min_rto = SimTime::from_ms(1);
    let mut sim = Simulator::new(&pnet.net, cfg);
    let mut selector = pnet.selector(PathPolicy::RoundRobin);
    // Four flows, one per plane (round robin).
    let mut ids = Vec::new();
    for i in 0..4u64 {
        let (routes, cc) = selector.select(&pnet.net, HostId(0), HostId(15), i, 2_000_000);
        ids.push((
            sim.start_flow(FlowSpec {
                src: HostId(0),
                dst: HostId(15),
                size_bytes: 2_000_000,
                routes: routes.clone(),
                cc,
                owner_tag: i,
            }),
            pnet.net.link(routes[0][0]).plane,
        ));
    }
    // Kill plane 1 immediately.
    let up1 = pnet.net.host_uplink(HostId(0), PlaneId(1)).unwrap();
    sim.fail_link(up1);
    run(&mut sim, &mut NullDriver, Some(SimTime::from_ms(20)));
    for (id, plane) in ids {
        let done = sim.records.iter().any(|r| r.conn == id);
        if plane == PlaneId(1) {
            assert!(!done, "flow on the dead plane cannot finish");
        } else {
            assert!(done, "flow on live plane {plane} should have finished");
        }
    }
}
