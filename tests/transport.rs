//! Focused transport-behaviour tests: congestion-control variants, loss
//! recovery, timer backoff, and DCTCP/Reno contrasts, exercised through the
//! full stack.

use pnet::htsim::{
    run, run_to_completion, CcAlgo, Driver, EventMask, FlowRecord, FlowSpec, NullDriver, SimConfig,
    SimTime, Simulator, TelemetryConfig, TraceRecord,
};
use pnet::routing::{host_route, RouteAlgo, Router};
use pnet::topology::{assemble_homogeneous, FatTree, HostId, LinkProfile, Network, PlaneId};

fn net(planes: usize) -> Network {
    assemble_homogeneous(
        &FatTree::three_tier(4),
        planes,
        &LinkProfile::paper_default(),
    )
}

fn route(net: &Network, src: HostId, dst: HostId, plane: u16) -> Vec<pnet::topology::LinkId> {
    let router = Router::new(net, RouteAlgo::Ksp { k: 2 });
    let set = router.paths_in_plane(PlaneId(plane), net.rack_of_host(src), net.rack_of_host(dst));
    host_route(net, src, dst, set.get(0)).unwrap()
}

/// Telemetry that records nothing but the per-subflow post-mortems finished
/// connections leave behind when they retire.
fn post_mortems_only() -> TelemetryConfig {
    TelemetryConfig {
        events: EventMask::SUBFLOW_FINISH,
        sample_interval: None,
    }
}

/// `(dctcp_alpha, dctcp_dupack_marks)` of every retired subflow.
fn dctcp_post_mortems(sim: &Simulator) -> Vec<(f64, u64)> {
    let records = sim.telemetry().expect("telemetry was enabled").records();
    let dctcp = records.iter().map(|r| match *r {
        TraceRecord::SubflowFinish {
            dctcp_alpha,
            dctcp_dupack_marks,
            ..
        } => (dctcp_alpha, dctcp_dupack_marks),
        ref other => panic!("unexpected record {other:?}"),
    });
    dctcp.collect()
}

#[test]
fn uncoupled_mptcp_is_more_aggressive_than_lia() {
    // A 2-subflow MPTCP connection shares one bottleneck with a plain TCP
    // flow for a long steady-state window. LIA couples the subflows so the
    // pair takes roughly one TCP's share; uncoupled subflows behave like
    // two TCPs and take more. Measured as bytes acked at a fixed horizon.
    let n = net(1);
    let huge = 1_000_000_000u64; // nobody finishes inside the window
    let share_of = |cc: CcAlgo| -> f64 {
        let mut cfg = SimConfig::default();
        cfg.tcp.min_rto = SimTime::from_ms(1);
        let mut sim = Simulator::new(&n, cfg);
        let tcp_route = route(&n, HostId(2), HostId(15), 0);
        let tcp = sim.start_flow(FlowSpec {
            src: HostId(2),
            dst: HostId(15),
            size_bytes: huge,
            routes: vec![tcp_route],
            cc: CcAlgo::Reno,
            owner_tag: 0,
        });
        // Multipath flow: two distinct paths that share the destination
        // downlink (the common bottleneck).
        let router = Router::new(&n, RouteAlgo::Ksp { k: 4 });
        let paths = router.paths_in_plane(
            PlaneId(0),
            n.rack_of_host(HostId(4)),
            n.rack_of_host(HostId(15)),
        );
        let r1 = host_route(&n, HostId(4), HostId(15), paths.get(0)).unwrap();
        let r2 = host_route(&n, HostId(4), HostId(15), paths.get(1)).unwrap();
        let mp = sim.start_flow(FlowSpec {
            src: HostId(4),
            dst: HostId(15),
            size_bytes: huge,
            routes: vec![r1, r2],
            cc,
            owner_tag: 1,
        });
        // Long horizon + short min-RTO: a single timeout must not dominate
        // the share measurement (we are comparing steady-state additive
        // increase behaviour, not loss-recovery luck).
        run(&mut sim, &mut NullDriver, Some(SimTime::from_ms(60)));
        let acked = |id| sim.conn(id).expect("still transferring").acked;
        acked(mp) as f64 / acked(tcp).max(1) as f64
    };
    let lia_share = share_of(CcAlgo::Lia);
    let unc_share = share_of(CcAlgo::Reno);
    assert!(
        unc_share > lia_share * 1.1,
        "uncoupled share {unc_share:.3} should exceed LIA share {lia_share:.3}"
    );
    assert!(
        lia_share > 0.3,
        "LIA flow starved unexpectedly (share {lia_share:.3})"
    );
}

#[test]
fn rto_backoff_survives_a_blackout() {
    // Start a flow, cut the path mid-transfer, restore it later: the flow
    // stalls on exponential-backoff timeouts during the blackout and then
    // completes after the repair.
    let n = net(2);
    let r = route(&n, HostId(0), HostId(15), 0);
    let fabric_cable = r[1]; // first fabric link on the path
    let mut sim = Simulator::new(&n, SimConfig::default());
    let id = sim.start_flow(FlowSpec {
        src: HostId(0),
        dst: HostId(15),
        size_bytes: 4_000_000,
        routes: vec![r],
        cc: CcAlgo::Reno,
        owner_tag: 0,
    });
    // Let it ramp, then black out the path for 40 ms (4 min-RTOs).
    run(&mut sim, &mut NullDriver, Some(SimTime::from_us(50)));
    assert!(sim.records.is_empty());
    sim.fail_link(fabric_cable);
    run(&mut sim, &mut NullDriver, Some(SimTime::from_ms(40)));
    let conn = sim.conn(id).expect("still transferring");
    assert!(conn.finish.is_none(), "flow finished through a dark link");
    let timeouts_during = conn.timeouts();
    assert!(
        timeouts_during >= 2,
        "expected RTO retries, got {timeouts_during}"
    );
    assert!(conn.acked < conn.size_packets, "the repair has work left");
    sim.restore_link(fabric_cable);
    run(&mut sim, &mut NullDriver, None);
    let rec = &sim.records[0];
    assert_eq!(rec.conn, id, "flow never recovered after repair");
    assert!(rec.timeouts >= timeouts_during);
    assert!(sim.conn(id).is_none(), "a drained, finished flow retires");
    // Backoff must have grown the retry gaps: with min-RTO 10 ms and ~40 ms
    // of blackout, un-backed-off retries would fire ~4 times; exponential
    // backoff (10, 20, 40, ...) keeps it to at most 3.
    assert!(
        timeouts_during <= 3,
        "timer backoff missing: {timeouts_during} RTOs in 40 ms"
    );
}

#[test]
fn backoff_grows_rto_exponentially() {
    use pnet::htsim::TcpConfig;
    let cfg = TcpConfig::default();
    let mut sub = pnet::htsim::tcp::Subflow::new(vec![pnet::topology::LinkId(0)], &cfg);
    let base = sub.effective_rto(&cfg);
    sub.backoff = 1;
    let once = sub.effective_rto(&cfg);
    sub.backoff = 3;
    let thrice = sub.effective_rto(&cfg);
    assert_eq!(once.as_ps(), base.as_ps() * 2);
    assert_eq!(thrice.as_ps(), base.as_ps() * 8);
    sub.backoff = 40; // clamped to max_rto
    assert_eq!(sub.effective_rto(&cfg), cfg.max_rto);
}

#[test]
fn dctcp_fairly_shares_with_dctcp() {
    // Two DCTCP flows sharing one bottleneck converge to similar FCTs
    // (proportional windows) with no drops.
    let n = net(1);
    let cfg = SimConfig {
        ecn_threshold_packets: Some(20),
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(&n, cfg);
    for src in [HostId(4), HostId(8)] {
        let r = route(&n, src, HostId(15), 0);
        sim.start_flow(FlowSpec {
            src,
            dst: HostId(15),
            size_bytes: 6_000_000,
            routes: vec![r],
            cc: CcAlgo::Dctcp,
            owner_tag: src.0 as u64,
        });
    }
    run_to_completion(&mut sim);
    assert_eq!(sim.dropped_packets, 0, "DCTCP should avoid drops entirely");
    let fcts: Vec<f64> = sim.records.iter().map(|r| r.fct().as_us_f64()).collect();
    let ratio = fcts[0].max(fcts[1]) / fcts[0].min(fcts[1]);
    assert!(ratio < 1.3, "DCTCP share imbalance: {fcts:?}");
    // Work conservation: 12 MB over a 100G link >= 960 us.
    assert!(fcts.iter().cloned().fold(0.0, f64::max) >= 930.0);
}

#[test]
fn single_packet_flows_have_minimal_fct() {
    // Sub-MTU flows: FCT = one-way data + return ACK, no window effects.
    let n = net(4);
    let mut sim = Simulator::new(&n, SimConfig::default());
    for plane in 0..4u16 {
        let r = route(&n, HostId(0), HostId(15), plane);
        sim.start_flow(FlowSpec {
            src: HostId(0),
            dst: HostId(15),
            size_bytes: 64, // single packet
            routes: vec![r],
            cc: CcAlgo::Reno,
            owner_tag: plane as u64,
        });
    }
    run_to_completion(&mut sim);
    for rec in &sim.records {
        let fct = rec.fct().as_us_f64();
        // 6 links each way, ~4.2 us propagation per direction + tiny
        // serialization: between 8 and 12 us.
        assert!((8.0..12.0).contains(&fct), "fct {fct}us out of range");
        assert_eq!(rec.retransmits, 0);
    }
}

#[test]
fn dctcp_first_window_spans_initial_flight() {
    // Regression: `dctcp_window_end` used to start at 0, so the very first
    // ACK (cum = 1 >= 0) closed a degenerate one-ACK observation window and
    // EWMA-updated alpha from a single sample. The window end must be seeded
    // at first transmission to cover the whole initial flight.
    let n = net(1);
    let r = route(&n, HostId(0), HostId(15), 0);
    let cfg = SimConfig {
        telemetry: post_mortems_only(),
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(&n, cfg);
    let id = sim.start_flow(FlowSpec {
        src: HostId(0),
        dst: HostId(15),
        size_bytes: 15_000, // exactly the initial cwnd of 10 packets
        routes: vec![r],
        cc: CcAlgo::Dctcp,
        owner_tag: 0,
    });
    // The initial burst (10 packets, no ACKs yet) must all be inside the
    // first observation window.
    let sub = &sim.conn(id).expect("just started").subflows[0];
    assert_eq!(sub.highest_sent, 10);
    assert_eq!(
        sub.dctcp_window_end, 10,
        "first observation window must span the initial flight"
    );
    run_to_completion(&mut sim);
    // Early-alpha trajectory: with no ECN marking, exactly ONE window (the
    // seeded 10-packet one) closes over this transfer, so alpha decays by a
    // single EWMA step: 1.0 * (1 - 1/16) = 0.9375. The pre-fix code closed
    // an extra degenerate window on the first ACK, landing at 0.9375^2.
    let [(alpha, _)] = dctcp_post_mortems(&sim)[..] else {
        panic!("one subflow, one post-mortem");
    };
    assert!(
        (alpha - 0.9375).abs() < 1e-12,
        "early alpha trajectory off: {alpha} != 0.9375"
    );
}

#[test]
fn dctcp_counts_marks_carried_by_dupacks() {
    // Regression: the dupack branch of `on_ack` used to ignore ECN-Echo, so
    // marks carried by duplicate ACKs vanished from DCTCP's marked-fraction
    // accounting exactly when the network was congested enough to drop.
    // Force the situation: a deep incast into one host with a small buffer
    // (drops -> dupacks) and a low ECN threshold (the surviving packets
    // behind each hole are CE-marked, so their dupacks carry ECE).
    let n = net(1);
    let mut cfg = SimConfig {
        ecn_threshold_packets: Some(5),
        telemetry: post_mortems_only(),
        ..SimConfig::default()
    };
    cfg.queue_bytes = 20 * 1500;
    let mut sim = Simulator::new(&n, cfg);
    let dst = HostId(15);
    for h in 0..12u32 {
        let src = HostId(h);
        let r = route(&n, src, dst, 0);
        sim.start_flow(FlowSpec {
            src,
            dst,
            size_bytes: 600_000,
            routes: vec![r],
            cc: CcAlgo::Dctcp,
            owner_tag: h as u64,
        });
    }
    run_to_completion(&mut sim);
    assert!(sim.dropped_packets > 0, "incast must overflow the buffer");
    let post_mortems = dctcp_post_mortems(&sim);
    assert_eq!(post_mortems.len(), 12, "every flow retired");
    let dupack_marks: u64 = post_mortems.iter().map(|&(_, marks)| marks).sum();
    assert!(
        dupack_marks > 0,
        "marked dupacks must enter DCTCP's accounting"
    );
}

#[test]
fn flow_record_reports_requested_bytes() {
    // Regression: FlowRecord.size_bytes used to round the transfer up to
    // whole MTUs, overstating goodput for small flows (a 64-byte RPC
    // reported as 1500 bytes = 23x).
    let n = net(1);
    let mut sim = Simulator::new(&n, SimConfig::default());
    for (i, size) in [1_000u64, 3_001, 1_500].into_iter().enumerate() {
        let r = route(&n, HostId(i as u32), HostId(15), 0);
        sim.start_flow(FlowSpec {
            src: HostId(i as u32),
            dst: HostId(15),
            size_bytes: size,
            routes: vec![r],
            cc: CcAlgo::Reno,
            owner_tag: size,
        });
    }
    run_to_completion(&mut sim);
    assert_eq!(sim.records.len(), 3);
    for rec in &sim.records {
        assert_eq!(
            rec.size_bytes, rec.owner_tag,
            "record must report the requested size, not the MTU-rounded one"
        );
        let gput = pnet::htsim::metrics::goodput_gbps(rec);
        assert!(gput > 0.0 && gput.is_finite());
        // No goodput above the 100G line rate once sizes are honest.
        assert!(gput < 100.0, "goodput {gput} Gb/s exceeds line rate");
    }
}

#[test]
fn queue_stats_account_every_packet() {
    let n = net(1);
    let mut sim = Simulator::new(&n, SimConfig::default());
    let r = route(&n, HostId(0), HostId(15), 0);
    let first_link = r[0];
    let size = 1_500_000u64; // 1000 packets
    sim.start_flow(FlowSpec {
        src: HostId(0),
        dst: HostId(15),
        size_bytes: size,
        routes: vec![r],
        cc: CcAlgo::Reno,
        owner_tag: 0,
    });
    run_to_completion(&mut sim);
    let qs = sim.queue_stats(first_link);
    let rec = &sim.records[0];
    // Every data packet (fresh + retransmitted) passed the first uplink.
    assert_eq!(qs.enqueued + qs.total_dropped(), 1000 + rec.retransmits);
}

// ---------------------------------------------------------------------
// Checks derived from the model, not minted by the engine (ROADMAP 2a)
// ---------------------------------------------------------------------

/// `(plane, src, dst, bytes)`; a flow's index in its list is its owner tag.
type PlaneFlow = (u16, u32, u32, u64);

/// Start together the flows of `flows` that ride plane `only` (all of them
/// for `None`) and run: `(tag, start, finish, retransmits, timeouts)` each.
fn run_plane_flows(
    n: &Network,
    flows: &[PlaneFlow],
    only: Option<u16>,
) -> Vec<(u64, u64, u64, u64, u64)> {
    let mut sim = Simulator::new(n, SimConfig::default());
    for (tag, &(plane, src, dst, size_bytes)) in flows.iter().enumerate() {
        if only.is_none_or(|p| p == plane) {
            sim.start_flow(FlowSpec {
                src: HostId(src),
                dst: HostId(dst),
                size_bytes,
                routes: vec![route(n, HostId(src), HostId(dst), plane)],
                cc: CcAlgo::Reno,
                owner_tag: tag as u64,
            });
        }
    }
    run_to_completion(&mut sim);
    assert_eq!(sim.records.len(), sim.n_conns(), "some flow never finished");
    let recs = sim.records.iter();
    recs.map(|r| {
        let (start, finish) = (r.start.as_ps(), r.finish.as_ps());
        (r.owner_tag, start, finish, r.retransmits, r.timeouts)
    })
    .collect()
}

#[test]
fn planes_carrying_independent_flows_equal_single_plane_runs() {
    // The paper's "once a packet enters a plane it stays there": planes
    // share hosts and nothing else, so what one plane carries cannot move a
    // picosecond of another's flows. Joint run == each plane's flows alone.
    let n = net(4);
    // One flow per plane between distinct host pairs, sizes from one packet
    // to past the window cap.
    let one_each: Vec<PlaneFlow> = vec![
        (0, 0, 15, 64),
        (1, 1, 10, 200_000),
        (2, 4, 3, 1_000_000),
        (3, 13, 6, 3_000_000),
    ];
    // Contended: per plane a 5-to-1 incast on its own victim, so drops, fast
    // retransmits and RTO timers of all four planes interleave in one calendar.
    let incast: Vec<PlaneFlow> = (0..4u16)
        .flat_map(|p| {
            let victim = 3 + 4 * u32::from(p);
            let senders = (0..16u32).filter(move |&h| h / 4 != victim / 4).take(5);
            senders.map(move |h| (p, h, victim, 400_000 + 1_500 * u64::from(p)))
        })
        .collect();
    for (flows, lossy) in [(one_each, false), (incast, true)] {
        let mut joint = run_plane_flows(&n, &flows, None);
        let mut solo: Vec<_> = (0..4u16)
            .flat_map(|plane| run_plane_flows(&n, &flows, Some(plane)))
            .collect();
        joint.sort_unstable();
        solo.sort_unstable();
        assert_eq!(joint, solo);
        let lost: u64 = joint.iter().map(|r| r.3).sum();
        assert!(lost > 0 || !lossy, "the incast must exercise loss recovery");
    }
}

#[test]
fn uncontended_reno_fct_matches_the_closed_form() {
    // One Reno flow of S packets alone on an h-link route of equal-rate
    // links, in slow start throughout. Store and forward: a packet handed to
    // an idle path is delivered h·D + P later (D = MTU serialization, P =
    // summed propagation) and its ACK returns after h·A + P more, so
    // R = h·(D + A) + 2P is the one-packet round trip. Round r sends
    // w0·2^r packets back to back (each ACK slides the window by one and
    // grows it by one: two packets per ACK, ACKs D apart, so the uplink stays
    // busy from the round's first ACK on); packet m of a round leaves the
    // host (m+1)·D after the round began and is acknowledged R + m·D after
    // it. Rounds do not overlap while a round is shorter than R. Hence the
    // last packet — index m in round k — is acknowledged at (k+1)·R + m·D.
    let profile = LinkProfile::paper_default();
    let tcp = pnet::htsim::TcpConfig::default();
    let ser = |bytes: u64| bytes * 8 * 1_000_000_000_000 / profile.link_speed_bps;
    let (d, a) = (ser(1500), ser(40));
    let n = net(1);
    for (dst, h) in [(15u32, 6u64), (2, 4)] {
        let r = route(&n, HostId(0), HostId(dst), 0);
        assert_eq!(r.len() as u64, h);
        let p = 2 * profile.host_delay_ps + (h - 2) * profile.fabric_delay_ps;
        let rtt = h * (d + a) + 2 * p;
        for s in [1u64, 7, 10, 11, 30, 31, 69, 70] {
            let w0 = tcp.initial_cwnd as u64;
            let (mut k, mut before) = (0u64, 0u64); // round of the last packet, packets before it
            while before + (w0 << k) < s {
                before += w0 << k;
                k += 1;
            }
            assert!(
                (w0 << k) * d < rtt,
                "S = {s} leaves slow start's idle-pipe regime"
            );
            let want = (k + 1) * rtt + (s - before - 1) * d;

            let mut sim = Simulator::new(&n, SimConfig::default());
            sim.start_flow(FlowSpec {
                src: HostId(0),
                dst: HostId(dst),
                size_bytes: s * 1500,
                routes: vec![r.clone()],
                cc: CcAlgo::Reno,
                owner_tag: 0,
            });
            run_to_completion(&mut sim);
            let rec = &sim.records[0];
            assert_eq!(rec.fct().as_ps(), want, "S = {s} packets over {h} links");
            assert_eq!((rec.retransmits, rec.timeouts), (0, 0));
        }
    }
}

#[test]
fn scaling_rates_and_the_time_base_scales_every_fct() {
    // Rates × c, every delay and timer ÷ c: the same run, c times faster.
    // Exact, not approximate — every ps value involved divides by 4 (MTU
    // and ACK serialization 120 000 / 3 200 ps, delays 100 000 / 1 000 000,
    // timers whole µs), a power of two scales the f64 RTT estimators
    // without rounding, the window cap's bandwidth-delay product is
    // invariant, and the one truncating conversion (the RTO in ps) sits far
    // below `min_rto`'s clamp. Equal times keep their order, so ties break
    // alike and the runs dispatch the same events in the same sequence.
    let base = LinkProfile::paper_default();
    let tcp = pnet::htsim::TcpConfig::default();
    // 16 flows on one plane: an 8-to-2 incast plus 8 cross-pod flows.
    let flows: Vec<(u32, u32)> = (0..16u32)
        .map(|i| {
            if i < 8 {
                (i, 14 + i % 2)
            } else {
                (i, (i + 5) % 16)
            }
        })
        .collect();
    let run_at = |c: u64| {
        let profile = LinkProfile {
            link_speed_bps: base.link_speed_bps * c,
            host_delay_ps: base.host_delay_ps / c,
            fabric_delay_ps: base.fabric_delay_ps / c,
        };
        let n = assemble_homogeneous(&FatTree::three_tier(4), 1, &profile);
        let scaled = |t: SimTime| SimTime::from_ps(t.as_ps() / c);
        let cfg = SimConfig {
            tcp: pnet::htsim::TcpConfig {
                min_rto: scaled(tcp.min_rto),
                max_rto: scaled(tcp.max_rto),
                default_rtt: scaled(tcp.default_rtt),
                ..tcp
            },
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(&n, cfg);
        for (i, &(src, dst)) in flows.iter().enumerate() {
            sim.start_flow(FlowSpec {
                src: HostId(src),
                dst: HostId(dst),
                size_bytes: 600_000,
                routes: vec![route(&n, HostId(src), HostId(dst), 0)],
                cc: CcAlgo::Reno,
                owner_tag: i as u64,
            });
        }
        run_to_completion(&mut sim);
        assert_eq!(sim.records.len(), flows.len());
        let recs = sim.records.iter();
        recs.map(|r| (r.owner_tag, r.fct().as_ps(), r.retransmits, r.timeouts))
            .collect::<Vec<_>>()
    };
    let reference = run_at(1);
    assert!(
        reference.iter().any(|r| r.2 > 0),
        "the run must be contended enough to lose packets"
    );
    for c in [2u64, 4] {
        let fast = run_at(c);
        let rescaled: Vec<_> = fast
            .iter()
            .map(|&(tag, fct, rtx, to)| (tag, fct * c, rtx, to))
            .collect();
        assert_eq!(rescaled, reference, "c = {c}");
    }
}

/// A flow of the relabelling test: the plane of each of its subflows, its
/// endpoints and its size.
type ChainFlow = (Vec<u16>, u32, u32, u64);

/// Closed-loop chains over a flow list: tags `0..flows.len()` start together
/// in a given order, and when tag `t` finishes, tag `t + flows.len()` starts
/// from the completion callback — the spec `hop` places down the list — for
/// `generations` rounds. Connections retire and their slots are recycled all
/// through the run. Planes and hosts are renamed on the way to the simulator.
struct Chains<'a> {
    n: &'a Network,
    flows: &'a [ChainFlow],
    hop: usize,
    generations: usize,
    plane_of: [u16; 4],
    host_of: fn(u32) -> u32,
}

impl Chains<'_> {
    fn start(&self, sim: &mut Simulator, tag: usize) {
        let len = self.flows.len();
        let (planes, src, dst, size_bytes) = &self.flows[(tag + tag / len * self.hop) % len];
        let (src, dst) = (HostId((self.host_of)(*src)), HostId((self.host_of)(*dst)));
        let on_plane = |&p: &u16| route(self.n, src, dst, self.plane_of[usize::from(p)]);
        sim.start_flow(FlowSpec {
            src,
            dst,
            size_bytes: *size_bytes,
            routes: planes.iter().map(on_plane).collect(),
            cc: CcAlgo::Lia,
            owner_tag: tag as u64,
        });
    }

    /// Per tag: `(tag, start, finish, retransmits, timeouts, conn)`.
    fn run(&self, order: &[usize]) -> Vec<(u64, u64, u64, u64, u64, u32)> {
        let mut sim = Simulator::new(self.n, SimConfig::default());
        for &tag in order {
            self.start(&mut sim, tag);
        }
        struct Next<'a>(&'a Chains<'a>);
        impl Driver for Next<'_> {
            fn on_flow_complete(&mut self, sim: &mut Simulator, rec: FlowRecord) {
                let next = rec.owner_tag as usize + self.0.flows.len();
                if next < self.0.flows.len() * self.0.generations {
                    self.0.start(sim, next);
                }
                sim.records.push(rec);
            }
        }
        run(&mut sim, &mut Next(self), None);
        assert_eq!(sim.records.len(), self.flows.len() * self.generations);
        assert!(
            sim.conn_slab_capacity() <= self.flows.len() + 1,
            "slots must have been recycled"
        );
        let mut recs: Vec<_> = sim
            .records
            .iter()
            .map(|r| {
                let (start, finish) = (r.start.as_ps(), r.finish.as_ps());
                (
                    r.owner_tag,
                    start,
                    finish,
                    r.retransmits,
                    r.timeouts,
                    r.conn.0,
                )
            })
            .collect();
        recs.sort_unstable();
        recs
    }
}

#[test]
fn relabelling_planes_and_hosts_permutes_the_records() {
    // The model knows planes and hosts only by what they connect. Renaming
    // the four identical planes by a permutation, swapping the two hosts of
    // every rack, and — where the flows of different planes share nothing —
    // starting them in another order at the same instant must give every
    // flow the same life to the picosecond. What may change is which
    // connection id and which recycled slot a flow gets, and with them the
    // order of `records`: a permutation of the same records.
    let n = net(4);
    for h in 0..16 {
        assert_eq!(n.rack_of_host(HostId(h)), n.rack_of_host(HostId(h ^ 1)));
    }
    let renamed = |flows, hop| Chains {
        n: &n,
        flows,
        hop,
        generations: 3,
        plane_of: [2, 0, 3, 1],
        host_of: |h| h ^ 1,
    };
    let plain = |flows, hop| Chains {
        plane_of: [0, 1, 2, 3],
        host_of: |h| h,
        ..renamed(flows, hop)
    };

    // Single-path chains, per plane a lossy 5-to-1 incast on its own victim:
    // planes are independent, so besides the renaming the start order goes
    // from plane by plane to round robin over the planes.
    let incast: Vec<ChainFlow> = (0..4u16)
        .flat_map(|p| {
            let victim = 3 + 4 * u32::from(p);
            let senders = (0..16u32).filter(move |&h| h / 4 != victim / 4).take(5);
            senders.map(move |h| (vec![p], h, victim, 400_000 + 1_500 * u64::from(p)))
        })
        .collect();
    let plane_by_plane: Vec<usize> = (0..incast.len()).collect();
    let round_robin: Vec<usize> = (0..5)
        .flat_map(|i| (0..4).map(move |p| 5 * p + i))
        .collect();
    let reference = plain(&incast, 0).run(&plane_by_plane);
    let permuted = renamed(&incast, 0).run(&round_robin);
    assert!(
        reference.iter().any(|r| r.3 > 0),
        "the incast must lose packets"
    );
    let life = |r: &(u64, u64, u64, u64, u64, u32)| (r.0, r.1, r.2, r.3, r.4);
    let lives = |recs: &[_]| recs.iter().map(life).collect::<Vec<_>>();
    assert_eq!(lives(&reference), lives(&permuted));
    assert_ne!(reference, permuted, "the connection ids must have moved");

    // Multipath chains couple the planes, so only the names change — and
    // then nothing at all does, connection ids included. Each generation
    // takes the next spec down the list: a slot's subflow table shrinks and
    // regrows between tenants.
    let mixed: Vec<ChainFlow> = vec![
        (vec![0, 1, 2, 3], 0, 15, 600_000),
        (vec![1], 1, 14, 200_000),
        (vec![2, 0], 5, 10, 300_000),
        (vec![3], 6, 9, 64),
        (vec![0, 2], 12, 3, 500_000),
        (vec![1, 3, 2], 8, 15, 400_000),
        (vec![0], 4, 15, 900_000),
    ];
    let in_order: Vec<usize> = (0..mixed.len()).collect();
    assert_eq!(
        plain(&mixed, 1).run(&in_order),
        renamed(&mixed, 1).run(&in_order)
    );
}
