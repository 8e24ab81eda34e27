//! Telemetry-layer contract tests: tracing must never perturb the
//! simulation (telemetry-on results are identical to telemetry-off), the
//! exported JSONL/CSV must be byte-identical across runs, and category
//! filters must admit exactly the events they name.

use pnet::htsim::{
    run_to_completion, CcAlgo, EventMask, FlowSpec, SimConfig, SimTime, Simulator, Telemetry,
    TelemetryConfig, TraceRecord,
};
use pnet::routing::{host_route, RouteAlgo, Router};
use pnet::topology::{
    assemble_homogeneous, FatTree, HostId, LinkId, LinkProfile, Network, PlaneId,
};

fn net(planes: usize) -> Network {
    assemble_homogeneous(
        &FatTree::three_tier(4),
        planes,
        &LinkProfile::paper_default(),
    )
}

fn route(net: &Network, src: HostId, dst: HostId, plane: u16) -> Vec<LinkId> {
    let router = Router::new(net, RouteAlgo::Ksp { k: 2 });
    let set = router.paths_in_plane(PlaneId(plane), net.rack_of_host(src), net.rack_of_host(dst));
    host_route(net, src, dst, set.get(0)).unwrap()
}

/// A fixed multi-flow workload: 6 flows fanning into two destination racks
/// across both planes, enough traffic to queue, mark, and (with small
/// buffers) drop.
fn workload(n: &Network, sim: &mut Simulator) {
    for i in 0..6u32 {
        let (src, dst) = (HostId(i), HostId(15 - (i % 2)));
        sim.start_flow(FlowSpec {
            src,
            dst,
            size_bytes: 300_000,
            routes: vec![route(n, src, dst, (i % 2) as u16)],
            cc: CcAlgo::Reno,
            owner_tag: u64::from(i),
        });
    }
}

fn fct_vector(sim: &Simulator) -> Vec<(u64, u64)> {
    let mut v: Vec<(u64, u64)> = sim
        .records
        .iter()
        .map(|r| (r.owner_tag, r.fct().as_ps()))
        .collect();
    v.sort_unstable();
    v
}

#[test]
fn telemetry_does_not_perturb_the_simulation() {
    // The whole point of the observer design: switching every trace
    // category and the sampler on must not move a single timestamp.
    let n = net(2);
    let run_with = |telemetry: TelemetryConfig| -> (Vec<(u64, u64)>, u64) {
        let cfg = SimConfig {
            telemetry,
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(&n, cfg);
        workload(&n, &mut sim);
        run_to_completion(&mut sim);
        (fct_vector(&sim), sim.dropped_packets)
    };
    let off = run_with(TelemetryConfig::default());
    let on = run_with(TelemetryConfig::all(SimTime::from_us(10)));
    assert_eq!(off, on, "telemetry-on run diverged from telemetry-off");
}

#[test]
fn telemetry_export_is_byte_identical_across_runs() {
    let n = net(2);
    let run_once = || -> (String, String) {
        let cfg = SimConfig {
            telemetry: TelemetryConfig::all(SimTime::from_us(10)),
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(&n, cfg);
        workload(&n, &mut sim);
        run_to_completion(&mut sim);
        let tl = sim.telemetry().expect("telemetry was enabled");
        assert!(!tl.is_empty());
        (tl.to_jsonl(), tl.to_csv())
    };
    let (jsonl_a, csv_a) = run_once();
    let (jsonl_b, csv_b) = run_once();
    assert_eq!(jsonl_a, jsonl_b, "JSONL export not byte-identical");
    assert_eq!(csv_a, csv_b, "CSV export not byte-identical");
    // Sanity on shape: JSONL is one object per line, CSV leads with the
    // legend comments and the fixed header.
    assert!(jsonl_a
        .lines()
        .all(|l| l.starts_with('{') && l.ends_with('}')));
    let first_data = csv_a
        .lines()
        .find(|l| !l.starts_with('#'))
        .expect("CSV must have a header line");
    assert_eq!(first_data, "t_ps,event,conn,subflow,link,plane,v0,v1,v2,v3");
}

#[test]
fn category_filter_admits_only_named_events() {
    let n = net(2);
    let cfg = SimConfig {
        telemetry: TelemetryConfig {
            events: EventMask::FLOW_START | EventMask::FLOW_FINISH,
            sample_interval: None,
        },
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(&n, cfg);
    workload(&n, &mut sim);
    run_to_completion(&mut sim);
    let tl = sim.telemetry().expect("telemetry was enabled");
    // Exactly one start and one finish per flow, nothing else.
    assert_eq!(tl.len(), 12, "6 flows -> 6 starts + 6 finishes");
    for rec in tl.records() {
        assert!(
            matches!(
                rec,
                TraceRecord::FlowStart { .. } | TraceRecord::FlowFinish { .. }
            ),
            "unexpected record slipped past the filter: {rec:?}"
        );
    }
    let finishes = tl
        .records()
        .iter()
        .filter(|r| matches!(r, TraceRecord::FlowFinish { .. }))
        .count();
    assert_eq!(finishes, 6);
}

#[test]
fn link_state_changes_are_traced() {
    let n = net(2);
    let cfg = SimConfig {
        telemetry: TelemetryConfig {
            events: EventMask::LINK_STATE,
            sample_interval: None,
        },
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(&n, cfg);
    sim.fail_link(LinkId(3));
    sim.restore_link(LinkId(3));
    let tl = sim.telemetry().expect("telemetry was enabled");
    let recs = tl.records();
    assert_eq!(recs.len(), 2);
    assert!(matches!(recs[0], TraceRecord::LinkDown { link: 3, .. }));
    assert!(matches!(recs[1], TraceRecord::LinkUp { link: 3, .. }));
}

#[test]
fn ecn_marks_are_traced_under_dctcp_incast() {
    let n = net(1);
    let cfg = SimConfig {
        ecn_threshold_packets: Some(5),
        telemetry: TelemetryConfig {
            events: EventMask::ECN_MARK,
            sample_interval: None,
        },
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(&n, cfg);
    for i in 0..8u32 {
        let src = HostId(i);
        let dst = HostId(15);
        sim.start_flow(FlowSpec {
            src,
            dst,
            size_bytes: 400_000,
            routes: vec![route(&n, src, dst, 0)],
            cc: CcAlgo::Dctcp,
            owner_tag: u64::from(i),
        });
    }
    run_to_completion(&mut sim);
    let tl = sim.telemetry().expect("telemetry was enabled");
    let marks = tl
        .records()
        .iter()
        .filter(|r| matches!(r, TraceRecord::EcnMark { .. }))
        .count();
    assert!(marks > 0, "incast past K=5 must mark packets");
    // Marks carry the buffered depth that tripped the threshold.
    for rec in tl.records() {
        if let TraceRecord::EcnMark { buffered_bytes, .. } = rec {
            assert!(*buffered_bytes >= 5 * 1500, "mark below threshold");
        }
    }
}

/// Regression: a zero sampler interval used to schedule a self-rearming
/// `TelemetrySample` at its own timestamp — an infinite same-time loop, so
/// `run_to_completion` never returned. The config layer
/// now normalizes `Some(0)` to "samplers off"; this test hangs pre-fix.
#[test]
fn zero_sample_interval_disables_samplers_instead_of_livelocking() {
    let n = net(2);
    let cfg = SimConfig {
        telemetry: TelemetryConfig {
            events: EventMask::ALL,
            sample_interval: Some(SimTime::ZERO),
        },
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(&n, cfg);
    workload(&n, &mut sim);
    run_to_completion(&mut sim);
    assert_eq!(sim.records.len(), 6, "all flows must complete");
    let tl = sim.telemetry().expect("telemetry was enabled");
    assert!(
        !tl.records().iter().any(|r| matches!(
            r,
            TraceRecord::QueueSample { .. }
                | TraceRecord::PlaneSample { .. }
                | TraceRecord::SubflowSample { .. }
        )),
        "a zero interval must disable the samplers entirely"
    );
}

#[test]
fn samplers_emit_queue_plane_and_subflow_records() {
    let n = net(2);
    let cfg = SimConfig {
        telemetry: TelemetryConfig {
            events: EventMask::SAMPLES,
            sample_interval: Some(SimTime::from_us(5)),
        },
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(&n, cfg);
    workload(&n, &mut sim);
    run_to_completion(&mut sim);
    let tl = sim.telemetry().expect("telemetry was enabled");
    let (mut queues, mut planes, mut subflows) = (0usize, 0usize, 0usize);
    let mut last_t = 0u64;
    for rec in tl.records() {
        let t = rec.time().as_ps();
        assert!(t >= last_t, "sampler records out of time order");
        last_t = t;
        match rec {
            TraceRecord::QueueSample { depth_pkts, .. } => {
                queues += 1;
                assert!(*depth_pkts > 0, "idle queues are not sampled");
            }
            TraceRecord::PlaneSample { utilization, .. } => {
                planes += 1;
                assert!(
                    utilization.is_finite() && *utilization >= 0.0,
                    "utilization out of range: {utilization}"
                );
            }
            TraceRecord::SubflowSample { cwnd, .. } => {
                subflows += 1;
                assert!(*cwnd > 0.0, "live subflow must have a window");
            }
            other => panic!("non-sample record slipped past the filter: {other:?}"),
        }
    }
    assert!(queues > 0, "no queue samples recorded");
    assert!(planes > 0, "no plane samples recorded");
    assert!(subflows > 0, "no subflow samples recorded");
    // Once the run drains, the sampler must have shut itself down rather
    // than ticking forever: the final sample time is bounded by the last
    // flow finish plus one interval.
    let last_finish = sim
        .records
        .iter()
        .map(|r| r.finish.as_ps())
        .max()
        .expect("flows finished");
    assert!(
        last_t <= last_finish + SimTime::from_us(5).as_ps(),
        "sampler kept running after the network drained"
    );
}

/// 64-bit FNV-1a over bytes: a compact pin for a multi-megabyte export.
fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The export formats, pinned byte for byte: one hand-built record of each
/// kind (both values of `dead`, floats that exercise shortest round-trip
/// formatting), the CSV legend, and the full JSONL and CSV of an incast that
/// emits every kind. Any change to a field name, field order, column
/// placement or number format fails here.
#[test]
fn exports_are_pinned_byte_for_byte() {
    let t = SimTime::from_ns(7);
    let records = [
        TraceRecord::FlowStart {
            t,
            conn: 1,
            src: 2,
            dst: 3,
            size_bytes: 4,
            n_subflows: 5,
        },
        TraceRecord::FlowFinish {
            t,
            conn: 1,
            fct_ps: 6,
            retransmits: 7,
            timeouts: 8,
        },
        TraceRecord::Retransmit {
            t,
            conn: 1,
            subflow: 2,
            seq: 9,
        },
        TraceRecord::Timeout {
            t,
            conn: 1,
            subflow: 2,
            backoff: 3,
        },
        TraceRecord::SubflowDead {
            t,
            conn: 1,
            subflow: 2,
            reclaimed: 4,
        },
        TraceRecord::SubflowFinish {
            t,
            conn: 1,
            subflow: 2,
            dead: true,
            highest_sent: 10,
            dctcp_alpha: 0.1,
            dctcp_dupack_marks: 11,
        },
        TraceRecord::SubflowFinish {
            t,
            conn: 1,
            subflow: 3,
            dead: false,
            highest_sent: 12,
            dctcp_alpha: 1e-20,
            dctcp_dupack_marks: 0,
        },
        TraceRecord::EcnMark {
            t,
            link: 13,
            buffered_bytes: 14,
        },
        TraceRecord::LinkDown { t, link: 15 },
        TraceRecord::LinkUp { t, link: 16 },
        TraceRecord::QueueSample {
            t,
            link: 17,
            depth_pkts: 18,
            buffered_bytes: 19,
        },
        TraceRecord::PlaneSample {
            t,
            plane: 1,
            bytes_delta: 20,
            utilization: 1.0 / 3.0,
        },
        TraceRecord::SubflowSample {
            t,
            conn: 1,
            subflow: 2,
            cwnd: 12.5,
            srtt_ps: 1e9,
            in_flight: 21,
        },
    ];
    let json: Vec<String> = records.iter().map(TraceRecord::to_json).collect();
    let csv: Vec<String> = records.iter().map(TraceRecord::to_csv_row).collect();
    assert_eq!(
        json.join("\n"),
        "\
{\"t_ps\":7000,\"event\":\"flow_start\",\"conn\":1,\"src\":2,\"dst\":3,\"size_bytes\":4,\"n_subflows\":5}
{\"t_ps\":7000,\"event\":\"flow_finish\",\"conn\":1,\"fct_ps\":6,\"retransmits\":7,\"timeouts\":8}
{\"t_ps\":7000,\"event\":\"retransmit\",\"conn\":1,\"subflow\":2,\"seq\":9}
{\"t_ps\":7000,\"event\":\"timeout\",\"conn\":1,\"subflow\":2,\"backoff\":3}
{\"t_ps\":7000,\"event\":\"subflow_dead\",\"conn\":1,\"subflow\":2,\"reclaimed\":4}
{\"t_ps\":7000,\"event\":\"subflow_finish\",\"conn\":1,\"subflow\":2,\"dead\":true,\"highest_sent\":10,\"dctcp_alpha\":0.1,\"dctcp_dupack_marks\":11}
{\"t_ps\":7000,\"event\":\"subflow_finish\",\"conn\":1,\"subflow\":3,\"dead\":false,\"highest_sent\":12,\"dctcp_alpha\":0.00000000000000000001,\"dctcp_dupack_marks\":0}
{\"t_ps\":7000,\"event\":\"ecn_mark\",\"link\":13,\"buffered_bytes\":14}
{\"t_ps\":7000,\"event\":\"link_down\",\"link\":15}
{\"t_ps\":7000,\"event\":\"link_up\",\"link\":16}
{\"t_ps\":7000,\"event\":\"queue_sample\",\"link\":17,\"depth_pkts\":18,\"buffered_bytes\":19}
{\"t_ps\":7000,\"event\":\"plane_sample\",\"plane\":1,\"bytes_delta\":20,\"utilization\":0.3333333333333333}
{\"t_ps\":7000,\"event\":\"subflow_sample\",\"conn\":1,\"subflow\":2,\"cwnd\":12.5,\"srtt_ps\":1000000000,\"in_flight\":21}"
    );
    assert_eq!(
        csv.join("\n"),
        "\
7000,flow_start,1,,,,2,3,4,5
7000,flow_finish,1,,,,6,7,8,
7000,retransmit,1,2,,,9,,,
7000,timeout,1,2,,,3,,,
7000,subflow_dead,1,2,,,4,,,
7000,subflow_finish,1,2,,,1,10,0.1,11
7000,subflow_finish,1,3,,,0,12,0.00000000000000000001,0
7000,ecn_mark,,,13,,14,,,
7000,link_down,,,15,,,,,
7000,link_up,,,16,,,,,
7000,queue_sample,,,17,,18,19,,
7000,plane_sample,,,,1,20,0.3333333333333333,,
7000,subflow_sample,1,2,,,12.5,1000000000,21,"
    );
    assert_eq!(
        Telemetry::csv_legend(),
        "\
# flow_start: v0=src v1=dst v2=size_bytes v3=n_subflows
# flow_finish: v0=fct_ps v1=retransmits v2=timeouts
# retransmit: v0=seq
# timeout: v0=backoff
# subflow_dead: v0=reclaimed
# subflow_finish: v0=dead v1=highest_sent v2=dctcp_alpha v3=dctcp_dupack_marks
# ecn_mark: v0=buffered_bytes
# queue_sample: v0=depth_pkts v1=buffered_bytes
# plane_sample: v0=bytes_delta v1=utilization
# subflow_sample: v0=cwnd v1=srtt_ps v2=in_flight
"
    );

    // The incast: 8 two-plane flows into host 15, DCTCP and LIA alternating,
    // one plane-1 cable dark for the whole run (timeouts, a dead subflow,
    // re-injection) and restored once it drains.
    let n = net(2);
    let cfg = SimConfig {
        ecn_threshold_packets: Some(5),
        telemetry: TelemetryConfig {
            events: EventMask::ALL | EventMask::SUBFLOW_FINISH,
            sample_interval: Some(SimTime::from_us(10)),
        },
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(&n, cfg);
    let dst = HostId(15);
    for i in 0..8u32 {
        let src = HostId(i);
        sim.start_flow(FlowSpec {
            src,
            dst,
            size_bytes: 200_000,
            routes: vec![route(&n, src, dst, 0), route(&n, src, dst, 1)],
            cc: if i % 2 == 0 {
                CcAlgo::Dctcp
            } else {
                CcAlgo::Lia
            },
            owner_tag: u64::from(i),
        });
    }
    let dark = route(&n, HostId(0), dst, 1)[1];
    sim.fail_link(dark);
    run_to_completion(&mut sim);
    sim.restore_link(dark);
    let tl = sim.telemetry().expect("telemetry was enabled");
    let mut kinds: Vec<String> = tl
        .records()
        .iter()
        .map(|r| {
            let row = r.to_csv_row();
            row.split(',')
                .nth(1)
                .expect("column 1 is the event")
                .to_string()
        })
        .collect();
    kinds.sort_unstable();
    kinds.dedup();
    assert_eq!(
        kinds.len(),
        12,
        "the incast must emit every kind: {kinds:?}"
    );
    let (jsonl, csv) = (tl.to_jsonl(), tl.to_csv());
    let got = (
        tl.len(),
        jsonl.lines().count(),
        fnv1a(&jsonl),
        csv.lines().count(),
        fnv1a(&csv),
    );
    assert_eq!(
        got,
        (
            42_897,
            42_897,
            3_702_415_775_767_840_136,
            42_908,
            18_195_718_991_248_061_330
        )
    );
    // Every CSV row, legend and header aside, has the header's arity.
    let cols = Telemetry::CSV_HEADER.split(',').count();
    assert!(csv
        .lines()
        .filter(|l| !l.starts_with('#'))
        .all(|l| l.split(',').count() == cols));
}

#[test]
fn subflow_samples_follow_connection_ids_not_recycled_slots() {
    // Flows of staggered sizes, each restarted on completion: retired slots
    // are recycled while older connections are still live, so a connection
    // with a higher id soon sits in a lower slot. The sampler must still
    // report every tick in (connection, subflow) order.
    use pnet::htsim::{run, Driver, FlowRecord};
    struct Restart<'a>(&'a Network, u64);
    impl Restart<'_> {
        fn start(&self, sim: &mut Simulator, tag: u64) {
            let i = (tag % 6) as u32;
            let (src, dst) = (HostId(i), HostId(15 - (i % 2)));
            sim.start_flow(FlowSpec {
                src,
                dst,
                size_bytes: 30_000 * (u64::from(i) + 1),
                routes: vec![route(self.0, src, dst, 0), route(self.0, src, dst, 1)],
                cc: CcAlgo::Lia,
                owner_tag: tag,
            });
        }
    }
    impl Driver for Restart<'_> {
        fn on_flow_complete(&mut self, sim: &mut Simulator, rec: FlowRecord) {
            if rec.owner_tag + 6 < self.1 {
                self.start(sim, rec.owner_tag + 6);
            }
            sim.records.push(rec);
        }
    }
    let n = net(2);
    let cfg = SimConfig {
        telemetry: TelemetryConfig {
            events: EventMask::SUBFLOW_SAMPLE,
            sample_interval: Some(SimTime::from_us(2)),
        },
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(&n, cfg);
    let mut driver = Restart(&n, 60);
    for tag in 0..6 {
        driver.start(&mut sim, tag);
    }
    run(&mut sim, &mut driver, None);
    assert_eq!(sim.records.len(), 60);
    assert!(
        sim.conn_slab_capacity() <= 7,
        "slots must have been recycled"
    );
    let samples: Vec<(u64, u64, u64)> = sim
        .telemetry()
        .expect("telemetry was enabled")
        .records()
        .iter()
        .map(|r| match *r {
            TraceRecord::SubflowSample {
                t, conn, subflow, ..
            } => (t.as_ps(), conn, subflow),
            ref other => panic!("non-sample record slipped past the filter: {other:?}"),
        })
        .collect();
    assert!(samples.iter().any(|s| s.1 >= 6), "no recycled flow sampled");
    assert!(
        samples.windows(2).all(|w| w[0] < w[1]),
        "samples out of order"
    );
}
