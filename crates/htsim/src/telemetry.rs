//! Deterministic telemetry: a structured event tracer plus periodic
//! samplers, all driven off the simulator's own event queue.
//!
//! The paper's packet-level claims (FCT distributions, queue dynamics under
//! incast, graceful degradation on plane failure) are *time-resolved*
//! properties, but the simulator's end-of-run aggregates ([`FlowRecord`],
//! `QueueStats`) flatten them away. This module records what happened *when*:
//!
//! * **Trace events** — flow start/finish, retransmit, timeout,
//!   subflow-death, ECN mark, link up/down — emitted at the instant the
//!   simulator processes them, gated per category by an [`EventMask`];
//! * **Post-mortems** — the final state of each subflow, written when its
//!   finished connection retires and the simulator forgets it;
//! * **Samplers** — queue depth/occupancy per link, per-plane utilization,
//!   per-subflow cwnd/srtt — taken every
//!   [`TelemetryConfig::sample_interval`] of *simulation* time via a
//!   dedicated event-queue entry, so sampling is part of the deterministic
//!   event order rather than an outside observer;
//! * **Exporters** — JSONL (one object per line, fixed field order) and CSV
//!   (fixed column set, per-event legend in leading `#` comments).
//!
//! ## Determinism contract
//!
//! Every timestamp is a [`SimTime`]; no wall clock is read anywhere
//! (clippy.toml bans `Instant` in this file like any other). Records are
//! appended in event-dispatch order and serialized with a stable field
//! order, so two runs of the same scenario produce **byte-identical** JSONL
//! and CSV. Sampler events mutate no transport or queue state — enabling
//! telemetry never changes FCTs, drops, or retransmit counts, and with
//! telemetry disabled the only residue is one branch per hook site.
//!
//! [`FlowRecord`]: crate::sim::FlowRecord

use crate::time::SimTime;
use pnet_topology::{Network, PlaneId};

/// Bit set of trace-record categories (see the associated constants).
/// `contains` is "any overlap", so composites like [`EventMask::ALL`] can be
/// tested against single categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EventMask(pub u16);

impl EventMask {
    /// Nothing enabled.
    pub const NONE: EventMask = EventMask(0);
    /// A flow was started ([`TraceRecord::FlowStart`]).
    pub const FLOW_START: EventMask = EventMask(1 << 0);
    /// A flow completed ([`TraceRecord::FlowFinish`]).
    pub const FLOW_FINISH: EventMask = EventMask(1 << 1);
    /// A data packet was retransmitted ([`TraceRecord::Retransmit`]).
    pub const RETRANSMIT: EventMask = EventMask(1 << 2);
    /// A retransmission timer expired ([`TraceRecord::Timeout`]).
    pub const TIMEOUT: EventMask = EventMask(1 << 3);
    /// A subflow was declared dead ([`TraceRecord::SubflowDead`]).
    pub const SUBFLOW_DEAD: EventMask = EventMask(1 << 4);
    /// A queue CE-marked a data packet ([`TraceRecord::EcnMark`]).
    pub const ECN_MARK: EventMask = EventMask(1 << 5);
    /// A link failed or was restored ([`TraceRecord::LinkDown`]/[`TraceRecord::LinkUp`]).
    pub const LINK_STATE: EventMask = EventMask(1 << 6);
    /// Periodic per-link queue occupancy ([`TraceRecord::QueueSample`]).
    pub const QUEUE_SAMPLE: EventMask = EventMask(1 << 7);
    /// Periodic per-plane utilization ([`TraceRecord::PlaneSample`]).
    pub const PLANE_SAMPLE: EventMask = EventMask(1 << 8);
    /// Periodic per-subflow cwnd/srtt ([`TraceRecord::SubflowSample`]).
    pub const SUBFLOW_SAMPLE: EventMask = EventMask(1 << 9);
    /// A finished connection retired ([`TraceRecord::SubflowFinish`] per
    /// subflow). A state dump, asked for by name: in no composite below.
    pub const SUBFLOW_FINISH: EventMask = EventMask(1 << 10);

    /// All instantaneous trace events (no samplers).
    pub const TRACE: EventMask = EventMask(
        Self::FLOW_START.0
            | Self::FLOW_FINISH.0
            | Self::RETRANSMIT.0
            | Self::TIMEOUT.0
            | Self::SUBFLOW_DEAD.0
            | Self::ECN_MARK.0
            | Self::LINK_STATE.0,
    );
    /// All periodic samplers.
    pub const SAMPLES: EventMask =
        EventMask(Self::QUEUE_SAMPLE.0 | Self::PLANE_SAMPLE.0 | Self::SUBFLOW_SAMPLE.0);
    /// Every event and sampler (not the [`EventMask::SUBFLOW_FINISH`] dump).
    pub const ALL: EventMask = EventMask(Self::TRACE.0 | Self::SAMPLES.0);

    /// Union of two masks.
    #[inline]
    pub const fn union(self, other: EventMask) -> EventMask {
        EventMask(self.0 | other.0)
    }

    /// True when `self` enables any category in `other`.
    #[inline]
    pub const fn contains(self, other: EventMask) -> bool {
        self.0 & other.0 != 0
    }

    /// True when no category is enabled.
    #[inline]
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Every name [`EventMask::from_names`] accepts, with its mask: `samples`
    /// is the three samplers, `trace` the instantaneous events, `all` both,
    /// and `subflow-finish` (the post-mortems) is part of no composite.
    pub const NAMES: &'static [(&'static str, EventMask)] = &[
        ("flow", Self::FLOW_START.union(Self::FLOW_FINISH)),
        ("flow-start", Self::FLOW_START),
        ("flow-finish", Self::FLOW_FINISH),
        ("retransmit", Self::RETRANSMIT),
        ("timeout", Self::TIMEOUT),
        ("subflow-dead", Self::SUBFLOW_DEAD),
        ("ecn", Self::ECN_MARK),
        ("link", Self::LINK_STATE),
        ("queue", Self::QUEUE_SAMPLE),
        ("plane", Self::PLANE_SAMPLE),
        ("subflow-samples", Self::SUBFLOW_SAMPLE),
        ("samples", Self::SAMPLES),
        ("trace", Self::TRACE),
        ("all", Self::ALL),
        ("subflow-finish", Self::SUBFLOW_FINISH),
    ];

    /// Parse a comma-separated list of [`EventMask::NAMES`], e.g.
    /// `"flow,ecn,samples"`.
    pub fn from_names(names: &str) -> Result<EventMask, String> {
        let mut mask = EventMask::NONE;
        for name in names.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            let Some(&(_, m)) = Self::NAMES.iter().find(|(n, _)| *n == name) else {
                let known: Vec<&str> = Self::NAMES.iter().map(|(n, _)| *n).collect();
                return Err(format!(
                    "unknown telemetry category {name:?} (expected one of {})",
                    known.join(",")
                ));
            };
            mask |= m;
        }
        Ok(mask)
    }
}

impl std::ops::BitOr for EventMask {
    type Output = EventMask;
    fn bitor(self, rhs: EventMask) -> EventMask {
        EventMask(self.0 | rhs.0)
    }
}

impl std::ops::BitOrAssign for EventMask {
    fn bitor_assign(&mut self, rhs: EventMask) {
        self.0 |= rhs.0;
    }
}

/// Telemetry configuration, carried inside [`crate::SimConfig`]. The default
/// is fully disabled: no events are recorded, no sampler is scheduled, and
/// the simulator allocates no trace state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TelemetryConfig {
    /// Which record categories to keep.
    pub events: EventMask,
    /// Sampler period in simulation time. `None` disables the periodic
    /// samplers even if their categories are set in `events`.
    pub sample_interval: Option<SimTime>,
}

impl TelemetryConfig {
    /// Record every category, sampling at `interval`.
    pub fn all(interval: SimTime) -> TelemetryConfig {
        TelemetryConfig {
            events: EventMask::ALL,
            sample_interval: Some(interval),
        }
    }

    /// True when this configuration records anything at all.
    pub fn enabled(&self) -> bool {
        !self.events.is_empty()
    }
}

/// One recorded telemetry event. Integer ids are stored widened (`u64`) so
/// serialization needs no narrowing casts; timestamps are simulation time.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceRecord {
    /// A flow was started (`start_flow`).
    FlowStart {
        t: SimTime,
        conn: u64,
        src: u64,
        dst: u64,
        size_bytes: u64,
        n_subflows: u64,
    },
    /// A flow acknowledged its last packet.
    FlowFinish {
        t: SimTime,
        conn: u64,
        fct_ps: u64,
        retransmits: u64,
        timeouts: u64,
    },
    /// A data packet was sent as a retransmission.
    Retransmit {
        t: SimTime,
        conn: u64,
        subflow: u64,
        seq: u64,
    },
    /// A genuine RTO expiry (not a lazy re-arm).
    Timeout {
        t: SimTime,
        conn: u64,
        subflow: u64,
        backoff: u64,
    },
    /// A subflow was declared dead; its outstanding packets were re-injected
    /// onto surviving subflows.
    SubflowDead {
        t: SimTime,
        conn: u64,
        subflow: u64,
        reclaimed: u64,
    },
    /// A subflow's final state, one record per subflow when its finished
    /// connection retires. Sender state froze at `FlowFinish`.
    SubflowFinish {
        t: SimTime,
        conn: u64,
        subflow: u64,
        dead: bool,
        highest_sent: u64,
        dctcp_alpha: f64,
        dctcp_dupack_marks: u64,
    },
    /// A queue CE-marked a data packet (occupancy exceeded the threshold).
    EcnMark {
        t: SimTime,
        link: u64,
        buffered_bytes: u64,
    },
    /// A link was taken dark ([`crate::Simulator::fail_link`]).
    LinkDown { t: SimTime, link: u64 },
    /// A link was restored ([`crate::Simulator::restore_link`]).
    LinkUp { t: SimTime, link: u64 },
    /// Sampler: occupancy of one link's queue (emitted only for non-empty
    /// queues, to keep traces proportional to activity).
    QueueSample {
        t: SimTime,
        link: u64,
        depth_pkts: u64,
        buffered_bytes: u64,
    },
    /// Sampler: bytes served by one plane since the previous sample, and the
    /// implied utilization of the plane's aggregate link capacity.
    PlaneSample {
        t: SimTime,
        plane: u64,
        bytes_delta: u64,
        utilization: f64,
    },
    /// Sampler: one live subflow's congestion state.
    SubflowSample {
        t: SimTime,
        conn: u64,
        subflow: u64,
        cwnd: f64,
        srtt_ps: f64,
        in_flight: u64,
    },
}

/// One value of a record, in the form both exporters share.
#[derive(Debug, Clone, Copy)]
enum Value {
    Int(u64),
    Float(f64),
    Flag(bool),
}

impl Value {
    /// The JSON form, or the CSV one, which writes a flag as `0`/`1`. Floats
    /// use Rust's shortest round-trip formatting, which is deterministic.
    fn text(self, csv: bool) -> String {
        match self {
            Value::Int(x) => x.to_string(),
            Value::Float(x) => x.to_string(),
            Value::Flag(x) if csv => u64::from(x).to_string(),
            Value::Flag(x) => x.to_string(),
        }
    }
}

/// Every record kind, in [`TraceRecord`] variant order: export name,
/// category, and field names (space-separated) in export order.
/// [`TraceRecord::parts`] returns a row index and the values of these
/// fields; a new kind is one variant, one row here and one arm there.
const KINDS: [(&str, EventMask, &str); 12] = [
    (
        "flow_start",
        EventMask::FLOW_START,
        "conn src dst size_bytes n_subflows",
    ),
    (
        "flow_finish",
        EventMask::FLOW_FINISH,
        "conn fct_ps retransmits timeouts",
    ),
    ("retransmit", EventMask::RETRANSMIT, "conn subflow seq"),
    ("timeout", EventMask::TIMEOUT, "conn subflow backoff"),
    (
        "subflow_dead",
        EventMask::SUBFLOW_DEAD,
        "conn subflow reclaimed",
    ),
    (
        "subflow_finish",
        EventMask::SUBFLOW_FINISH,
        "conn subflow dead highest_sent dctcp_alpha dctcp_dupack_marks",
    ),
    ("ecn_mark", EventMask::ECN_MARK, "link buffered_bytes"),
    ("link_down", EventMask::LINK_STATE, "link"),
    ("link_up", EventMask::LINK_STATE, "link"),
    (
        "queue_sample",
        EventMask::QUEUE_SAMPLE,
        "link depth_pkts buffered_bytes",
    ),
    (
        "plane_sample",
        EventMask::PLANE_SAMPLE,
        "plane bytes_delta utilization",
    ),
    (
        "subflow_sample",
        EventMask::SUBFLOW_SAMPLE,
        "conn subflow cwnd srtt_ps in_flight",
    ),
];

/// Fields with a CSV column of their own, in header order; every other
/// field goes to `v0..v3` in export order.
const ID_COLUMNS: [&str; 4] = ["conn", "subflow", "link", "plane"];

impl TraceRecord {
    /// The record's row in [`KINDS`], its timestamp, and its field values
    /// in the row's order.
    fn parts(&self) -> (usize, SimTime, Vec<Value>) {
        use Value::{Flag, Float, Int};
        match *self {
            TraceRecord::FlowStart {
                t,
                conn,
                src,
                dst,
                size_bytes,
                n_subflows,
            } => (
                0,
                t,
                vec![
                    Int(conn),
                    Int(src),
                    Int(dst),
                    Int(size_bytes),
                    Int(n_subflows),
                ],
            ),
            TraceRecord::FlowFinish {
                t,
                conn,
                fct_ps,
                retransmits,
                timeouts,
            } => (
                1,
                t,
                vec![Int(conn), Int(fct_ps), Int(retransmits), Int(timeouts)],
            ),
            TraceRecord::Retransmit {
                t,
                conn,
                subflow,
                seq,
            } => (2, t, vec![Int(conn), Int(subflow), Int(seq)]),
            TraceRecord::Timeout {
                t,
                conn,
                subflow,
                backoff,
            } => (3, t, vec![Int(conn), Int(subflow), Int(backoff)]),
            TraceRecord::SubflowDead {
                t,
                conn,
                subflow,
                reclaimed,
            } => (4, t, vec![Int(conn), Int(subflow), Int(reclaimed)]),
            TraceRecord::SubflowFinish {
                t,
                conn,
                subflow,
                dead,
                highest_sent,
                dctcp_alpha,
                dctcp_dupack_marks,
            } => (
                5,
                t,
                vec![
                    Int(conn),
                    Int(subflow),
                    Flag(dead),
                    Int(highest_sent),
                    Float(dctcp_alpha),
                    Int(dctcp_dupack_marks),
                ],
            ),
            TraceRecord::EcnMark {
                t,
                link,
                buffered_bytes,
            } => (6, t, vec![Int(link), Int(buffered_bytes)]),
            TraceRecord::LinkDown { t, link } => (7, t, vec![Int(link)]),
            TraceRecord::LinkUp { t, link } => (8, t, vec![Int(link)]),
            TraceRecord::QueueSample {
                t,
                link,
                depth_pkts,
                buffered_bytes,
            } => (9, t, vec![Int(link), Int(depth_pkts), Int(buffered_bytes)]),
            TraceRecord::PlaneSample {
                t,
                plane,
                bytes_delta,
                utilization,
            } => (
                10,
                t,
                vec![Int(plane), Int(bytes_delta), Float(utilization)],
            ),
            TraceRecord::SubflowSample {
                t,
                conn,
                subflow,
                cwnd,
                srtt_ps,
                in_flight,
            } => (
                11,
                t,
                vec![
                    Int(conn),
                    Int(subflow),
                    Float(cwnd),
                    Float(srtt_ps),
                    Int(in_flight),
                ],
            ),
        }
    }

    /// The category bit of this record.
    pub fn category(&self) -> EventMask {
        KINDS[self.parts().0].1
    }

    /// The record's timestamp.
    pub fn time(&self) -> SimTime {
        self.parts().1
    }

    /// One JSON object, fixed field order, no trailing newline.
    pub fn to_json(&self) -> String {
        let (kind, t, values) = self.parts();
        let (name, _, fields) = KINDS[kind];
        let mut out = format!("{{\"t_ps\":{},\"event\":\"{name}\"", t.as_ps());
        for (field, value) in fields.split(' ').zip(values) {
            out.push_str(&format!(",\"{field}\":{}", value.text(false)));
        }
        out.push('}');
        out
    }

    /// One CSV row under [`Telemetry::CSV_HEADER`]. Inapplicable columns are
    /// left empty; the `v0..v3` legend is in [`Telemetry::csv_legend`].
    pub fn to_csv_row(&self) -> String {
        let (kind, t, values) = self.parts();
        let (name, _, fields) = KINDS[kind];
        let mut ids: [String; 4] = Default::default();
        let mut v: [String; 4] = Default::default();
        let mut next_v = v.iter_mut();
        for (field, value) in fields.split(' ').zip(values) {
            let column = match ID_COLUMNS.iter().position(|&c| c == field) {
                Some(i) => &mut ids[i],
                None => next_v
                    .next()
                    .expect("invariant: every kind has at most four v-columns"),
            };
            *column = value.text(true);
        }
        format!("{},{name},{},{}", t.as_ps(), ids.join(","), v.join(","))
    }
}

/// The in-simulator trace buffer plus the static per-link metadata the
/// samplers need (plane membership and aggregate plane capacity, captured
/// from the [`Network`] at construction).
#[derive(Debug)]
pub struct Telemetry {
    pub(crate) cfg: TelemetryConfig,
    records: Vec<TraceRecord>,
    /// Plane of each directed link, indexed like the simulator's queues.
    pub(crate) link_planes: Vec<PlaneId>,
    /// Aggregate directed-link capacity per plane (bps), the utilization
    /// denominator.
    pub(crate) plane_capacity_bps: Vec<u64>,
    /// Per-plane cumulative bytes served as of the previous sample.
    pub(crate) last_plane_bytes: Vec<u64>,
    /// Time of the previous sample (utilization window start).
    pub(crate) last_sample_at: SimTime,
    /// True while a `TelemetrySample` event is pending in the event queue.
    pub(crate) sampler_armed: bool,
}

impl Telemetry {
    /// Capture link/plane metadata from `net` under configuration `cfg`.
    ///
    /// A `Some(0)` sampler interval is normalized to `None` (samplers off):
    /// a zero-delta sampler would re-arm itself at its own timestamp and the
    /// run loop would pop it forever — an infinite loop that never advances
    /// the clock. Every arm site
    /// (`Simulator::new`, `start_flow`, the tick itself) reads the interval
    /// from this config, so normalizing here covers them all.
    pub fn new(net: &Network, mut cfg: TelemetryConfig) -> Telemetry {
        if cfg.sample_interval == Some(SimTime::ZERO) {
            cfg.sample_interval = None;
        }
        let link_planes: Vec<PlaneId> = net.links().map(|(_, l)| l.plane).collect();
        let mut plane_capacity_bps = vec![0u64; usize::from(net.n_planes())];
        for (_, l) in net.links() {
            plane_capacity_bps[l.plane.index()] += l.capacity_bps;
        }
        Telemetry {
            cfg,
            records: Vec::new(),
            link_planes,
            last_plane_bytes: vec![0; plane_capacity_bps.len()],
            plane_capacity_bps,
            last_sample_at: SimTime::ZERO,
            sampler_armed: false,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> TelemetryConfig {
        self.cfg
    }

    /// True when `cat` is enabled.
    #[inline]
    pub fn wants(&self, cat: EventMask) -> bool {
        self.cfg.events.contains(cat)
    }

    /// Append a record (the caller has already checked the category).
    #[inline]
    pub(crate) fn record(&mut self, rec: TraceRecord) {
        self.records.push(rec);
    }

    /// All records, in event-dispatch order.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Number of records captured.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Serialize every record as JSON Lines (one object per line, trailing
    /// newline). Byte-identical across runs of the same scenario.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            out.push_str(&r.to_json());
            out.push('\n');
        }
        out
    }

    /// The fixed CSV column set (see [`Telemetry::csv_legend`] for `v0..v3`).
    pub const CSV_HEADER: &'static str = "t_ps,event,conn,subflow,link,plane,v0,v1,v2,v3";

    /// The per-event meaning of the generic `v0..v3` CSV columns, emitted as
    /// leading comment lines by [`Telemetry::to_csv`]; kinds with no
    /// `v`-column get no line.
    pub fn csv_legend() -> String {
        let mut out = String::new();
        for (name, _, fields) in KINDS {
            let v = fields.split(' ').filter(|f| !ID_COLUMNS.contains(f));
            let line: Vec<String> = v.enumerate().map(|(i, f)| format!(" v{i}={f}")).collect();
            if !line.is_empty() {
                out.push_str(&format!("# {name}:{}\n", line.concat()));
            }
        }
        out
    }

    /// Serialize every record as CSV with a fixed header and a per-event
    /// legend in leading `#` comments. Byte-identical across runs.
    pub fn to_csv(&self) -> String {
        let mut out = Self::csv_legend();
        out.push_str(Self::CSV_HEADER);
        out.push('\n');
        for r in &self.records {
            out.push_str(&r.to_csv_row());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_contains_and_union() {
        assert!(EventMask::ALL.contains(EventMask::ECN_MARK));
        assert!(EventMask::TRACE.contains(EventMask::FLOW_START));
        assert!(!EventMask::TRACE.contains(EventMask::QUEUE_SAMPLE));
        assert!(!EventMask::NONE.contains(EventMask::FLOW_START));
        let m = EventMask::TIMEOUT.union(EventMask::RETRANSMIT);
        assert!(m.contains(EventMask::TIMEOUT));
        assert!(m.contains(EventMask::RETRANSMIT));
        assert!(!m.contains(EventMask::FLOW_FINISH));
    }

    #[test]
    fn mask_parses_names() {
        let m = EventMask::from_names("flow, ecn,samples").unwrap();
        assert!(m.contains(EventMask::FLOW_START));
        assert!(m.contains(EventMask::FLOW_FINISH));
        assert!(m.contains(EventMask::ECN_MARK));
        assert!(m.contains(EventMask::PLANE_SAMPLE));
        assert!(!m.contains(EventMask::TIMEOUT));
        assert_eq!(EventMask::from_names("all").unwrap(), EventMask::ALL);
        assert!(EventMask::from_names("bogus").is_err());
        assert_eq!(EventMask::from_names("").unwrap(), EventMask::NONE);
    }

    #[test]
    fn every_listed_name_parses_and_an_unknown_one_lists_them() {
        for &(name, mask) in EventMask::NAMES {
            assert_eq!(EventMask::from_names(name), Ok(mask), "{name}");
        }
        let err = EventMask::from_names("flow,bogus").unwrap_err();
        assert!(err.contains("\"bogus\""), "{err}");
        for (name, _) in EventMask::NAMES {
            assert!(err.contains(name), "{name} missing from {err}");
        }
    }

    #[test]
    fn default_config_is_disabled() {
        let cfg = TelemetryConfig::default();
        assert!(!cfg.enabled());
        assert!(TelemetryConfig::all(SimTime::from_us(10)).enabled());
    }

    #[test]
    fn json_field_order_is_stable() {
        let r = TraceRecord::FlowStart {
            t: SimTime::from_us(3),
            conn: 1,
            src: 0,
            dst: 15,
            size_bytes: 1000,
            n_subflows: 2,
        };
        assert_eq!(
            r.to_json(),
            "{\"t_ps\":3000000,\"event\":\"flow_start\",\"conn\":1,\"src\":0,\
             \"dst\":15,\"size_bytes\":1000,\"n_subflows\":2}"
        );
        let q = TraceRecord::PlaneSample {
            t: SimTime::from_ns(5),
            plane: 1,
            bytes_delta: 3000,
            utilization: 0.5,
        };
        assert_eq!(
            q.to_json(),
            "{\"t_ps\":5000,\"event\":\"plane_sample\",\"plane\":1,\
             \"bytes_delta\":3000,\"utilization\":0.5}"
        );
    }

    #[test]
    fn csv_rows_match_header_arity() {
        let cols = Telemetry::CSV_HEADER.split(',').count();
        let recs = [
            TraceRecord::FlowStart {
                t: SimTime::ZERO,
                conn: 0,
                src: 1,
                dst: 2,
                size_bytes: 3,
                n_subflows: 1,
            },
            TraceRecord::LinkDown {
                t: SimTime::ZERO,
                link: 9,
            },
            TraceRecord::SubflowSample {
                t: SimTime::ZERO,
                conn: 0,
                subflow: 0,
                cwnd: 10.0,
                srtt_ps: 0.0,
                in_flight: 4,
            },
        ];
        for r in recs {
            assert_eq!(r.to_csv_row().split(',').count(), cols, "{r:?}");
        }
    }

    #[test]
    fn record_category_roundtrip() {
        let r = TraceRecord::EcnMark {
            t: SimTime::ZERO,
            link: 0,
            buffered_bytes: 0,
        };
        assert_eq!(r.category(), EventMask::ECN_MARK);
        assert_eq!(r.time(), SimTime::ZERO);
    }
}
