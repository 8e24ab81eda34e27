//! Packet-conservation ledger: every packet injected at a host must end up
//! delivered, dropped at a full buffer, discarded at a dark link, or still in
//! flight — and nothing may be counted twice. `run()` asserts this at every
//! return; these tests additionally inspect the books directly, including
//! across a mid-flight link failure.

// Test code keeps catch-all arms, as the crate's unit tests do.
#![allow(clippy::wildcard_enum_match_arm)]

use pnet_htsim::{
    run, run_to_completion, CcAlgo, ConnId, Driver, FlowRecord, FlowSpec, NullDriver, SimConfig,
    SimTime, Simulator,
};
use pnet_routing::{host_route, RouteAlgo, Router};
use pnet_topology::{assemble_homogeneous, FatTree, HostId, LinkId, LinkProfile, Network, PlaneId};

fn net2() -> Network {
    assemble_homogeneous(&FatTree::three_tier(4), 2, &LinkProfile::paper_default())
}

fn route_for(net: &Network, src: HostId, dst: HostId, plane: u16) -> Vec<LinkId> {
    let router = Router::new(net, RouteAlgo::Ksp { k: 1 });
    let (ra, rb) = (net.rack_of_host(src), net.rack_of_host(dst));
    let p = router.paths_in_plane(PlaneId(plane), ra, rb);
    assert!(!p.is_empty(), "inter-rack pair must have a path");
    host_route(net, src, dst, p.get(0)).expect("route must assemble")
}

#[test]
fn books_balance_after_a_clean_run() {
    let n = net2();
    let mut sim = Simulator::new(&n, SimConfig::default());
    for h in 0..4u32 {
        let (src, dst) = (HostId(h), HostId(15 - h));
        sim.start_flow(FlowSpec {
            src,
            dst,
            size_bytes: 500_000,
            routes: vec![route_for(&n, src, dst, (h % 2) as u16)],
            cc: CcAlgo::Reno,
            owner_tag: h as u64,
        });
    }
    run_to_completion(&mut sim);
    let l = sim.conservation();
    assert!(l.balanced(), "{l:?}");
    assert_eq!(l.in_flight, 0, "drained run must leave nothing in flight");
    assert!(l.injected > 0);
    assert_eq!(
        l.injected,
        l.delivered + l.dropped_congestion + l.dropped_link_down
    );
}

#[test]
fn books_balance_at_a_mid_run_stop() {
    // Stopping at `until` leaves packets buffered and on the wire; the
    // in_flight column must absorb exactly the difference.
    let n = net2();
    let mut sim = Simulator::new(&n, SimConfig::default());
    sim.start_flow(FlowSpec {
        src: HostId(0),
        dst: HostId(15),
        size_bytes: 50_000_000,
        routes: vec![route_for(&n, HostId(0), HostId(15), 0)],
        cc: CcAlgo::Reno,
        owner_tag: 0,
    });
    run(&mut sim, &mut NullDriver, Some(SimTime::from_us(100)));
    let l = sim.conservation();
    assert!(l.balanced(), "{l:?}");
    assert!(l.in_flight > 0, "a 50 MB flow must still be in flight");
}

#[test]
fn books_balance_across_a_link_failure() {
    // MPTCP over both planes, then plane 0's uplink goes dark mid-flight:
    // blackholed packets move to the link-down column, the dead subflow's
    // data is re-injected on plane 1, and the books must still balance once
    // the flow completes and the network drains.
    let n = net2();
    let mut cfg = SimConfig::default();
    cfg.tcp.min_rto = SimTime::from_ms(1); // fast failure detection
    let mut sim = Simulator::new(&n, cfg);
    let r0 = route_for(&n, HostId(0), HostId(15), 0);
    let plane0_uplink = r0[0];
    let id = sim.start_flow(FlowSpec {
        src: HostId(0),
        dst: HostId(15),
        size_bytes: 20_000_000,
        routes: vec![r0, route_for(&n, HostId(0), HostId(15), 1)],
        cc: CcAlgo::Lia,
        owner_tag: 0,
    });

    run(&mut sim, &mut NullDriver, Some(SimTime::from_us(200)));
    assert!(sim.records.is_empty(), "flow finished before failure");
    assert!(sim.conservation().balanced(), "{:?}", sim.conservation());

    sim.fail_link(plane0_uplink);
    run(&mut sim, &mut NullDriver, None);

    assert!(
        sim.records.iter().any(|r| r.conn == id),
        "MPTCP flow never completed after losing one plane"
    );
    let l = sim.conservation();
    assert!(l.balanced(), "{l:?}");
    assert_eq!(l.in_flight, 0);
    assert!(
        l.dropped_link_down > 0,
        "dark uplink should have discarded in-flight packets"
    );
    assert_eq!(l.dropped_link_down, sim.dropped_link_down_packets);
    assert_eq!(l.dropped_congestion, sim.dropped_packets);
}

#[test]
fn books_balance_with_samplers_active() {
    // Full telemetry (every trace category + periodic samplers) across a
    // mid-run link failure and restore: the sampler observes but must not
    // touch the ledger, and `run()`'s per-return conservation assert stays
    // quiet throughout.
    use pnet_htsim::{TelemetryConfig, TraceRecord};
    let n = net2();
    let mut cfg = SimConfig {
        telemetry: TelemetryConfig::all(SimTime::from_us(5)),
        ..SimConfig::default()
    };
    cfg.tcp.min_rto = SimTime::from_ms(1);
    let mut sim = Simulator::new(&n, cfg);
    let r0 = route_for(&n, HostId(0), HostId(15), 0);
    let plane0_uplink = r0[0];
    sim.start_flow(FlowSpec {
        src: HostId(0),
        dst: HostId(15),
        size_bytes: 20_000_000,
        routes: vec![r0, route_for(&n, HostId(0), HostId(15), 1)],
        cc: CcAlgo::Lia,
        owner_tag: 0,
    });
    for h in 1..4u32 {
        let (src, dst) = (HostId(h), HostId(15 - h));
        sim.start_flow(FlowSpec {
            src,
            dst,
            size_bytes: 1_000_000,
            routes: vec![route_for(&n, src, dst, (h % 2) as u16)],
            cc: CcAlgo::Reno,
            owner_tag: h as u64,
        });
    }

    run(&mut sim, &mut NullDriver, Some(SimTime::from_us(200)));
    assert!(sim.conservation().balanced(), "{:?}", sim.conservation());
    sim.fail_link(plane0_uplink);
    run(&mut sim, &mut NullDriver, Some(SimTime::from_ms(1)));
    assert!(sim.conservation().balanced(), "{:?}", sim.conservation());
    sim.restore_link(plane0_uplink);
    run(&mut sim, &mut NullDriver, None);

    let l = sim.conservation();
    assert!(l.balanced(), "{l:?}");
    assert_eq!(l.in_flight, 0);
    assert_eq!(sim.records.len(), 4, "all flows must complete");

    // The trace saw the failure and the samplers ran.
    let tl = sim.telemetry().expect("telemetry was enabled");
    let mut saw_down = false;
    let mut saw_up = false;
    let mut samples = 0usize;
    for rec in tl.records() {
        match rec {
            TraceRecord::LinkDown { .. } => saw_down = true,
            TraceRecord::LinkUp { .. } => saw_up = true,
            TraceRecord::QueueSample { .. }
            | TraceRecord::PlaneSample { .. }
            | TraceRecord::SubflowSample { .. } => samples += 1,
            _ => {}
        }
    }
    assert!(saw_down && saw_up, "link failure/restore must be traced");
    assert!(samples > 0, "samplers must have run");
}

#[test]
fn finished_connections_stay_until_their_last_packet_lands() {
    // A lossy 8-to-1 incast: go-back-N resends after a timeout are still in
    // the network when the ACK that completes the flow arrives, so duplicate
    // data lands after `finish`. It is ACKed over the subflow's reverse
    // route, which is why the connection outlives its completion — and the
    // per-connection in-network counts, which `conservation()` checks against
    // the packet arena and `retire` against zero, say when it may go.
    struct Stragglers(Vec<ConnId>);
    impl Driver for Stragglers {
        fn on_flow_complete(&mut self, sim: &mut Simulator, rec: FlowRecord) {
            let conn = sim.conn(rec.conn).expect("state kept until handed over");
            if conn.in_network > 0 {
                self.0.push(rec.conn);
            }
            sim.records.push(rec);
        }
    }
    use pnet_htsim::{EventMask, TelemetryConfig, TraceRecord};
    let n = net2();
    let cfg = SimConfig {
        telemetry: TelemetryConfig {
            events: EventMask::FLOW_FINISH | EventMask::SUBFLOW_FINISH,
            sample_interval: None,
        },
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(&n, cfg);
    for h in 0..8u32 {
        sim.start_flow(FlowSpec {
            src: HostId(h),
            dst: HostId(15),
            size_bytes: 100_000,
            routes: vec![route_for(&n, HostId(h), HostId(15), 0)],
            cc: CcAlgo::Reno,
            owner_tag: u64::from(h),
        });
    }
    let mut stragglers = Stragglers(Vec::new());
    run(&mut sim, &mut stragglers, None);
    assert_eq!(sim.records.len(), 8);
    assert!(sim.records.iter().any(|r| r.timeouts > 0));
    assert!(
        !stragglers.0.is_empty(),
        "no flow finished with packets out"
    );
    assert_eq!(sim.live_conns(), 0);
    assert_eq!(sim.conservation().in_flight, 0);
    // A straggler retires strictly after it finished, everyone else at once.
    let trace = sim.telemetry().expect("telemetry was enabled").records();
    for rec in &sim.records {
        let id = u64::from(rec.conn.0);
        let retired = trace.iter().find_map(|r| match *r {
            TraceRecord::SubflowFinish { t, conn, .. } if conn == id => Some(t),
            _ => None,
        });
        let retired = retired.expect("every flow retired");
        assert_eq!(retired > rec.finish, stragglers.0.contains(&rec.conn));
    }
}
