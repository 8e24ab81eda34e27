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
//! (`pnet-tidy` rule D2 applies to this file like any other). Records are
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

    /// Parse a comma-separated category list, e.g. `"flow,ecn,samples"`.
    ///
    /// Names: `flow` (start+finish), `flow-start`, `flow-finish`,
    /// `retransmit`, `timeout`, `subflow-dead`, `ecn`, `link`, `queue`,
    /// `plane`, `subflow-samples`, `samples` (all three samplers), `trace`
    /// (all instantaneous events), `all` (`trace` + `samples`), and
    /// `subflow-finish` (the post-mortems, part of no composite).
    pub fn from_names(names: &str) -> Result<EventMask, String> {
        let mut mask = EventMask::NONE;
        for name in names.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            mask = mask.union(match name {
                "flow" => Self::FLOW_START.union(Self::FLOW_FINISH),
                "flow-start" => Self::FLOW_START,
                "flow-finish" => Self::FLOW_FINISH,
                "retransmit" => Self::RETRANSMIT,
                "timeout" => Self::TIMEOUT,
                "subflow-dead" => Self::SUBFLOW_DEAD,
                "subflow-finish" => Self::SUBFLOW_FINISH,
                "ecn" => Self::ECN_MARK,
                "link" => Self::LINK_STATE,
                "queue" => Self::QUEUE_SAMPLE,
                "plane" => Self::PLANE_SAMPLE,
                "subflow-samples" => Self::SUBFLOW_SAMPLE,
                "samples" => Self::SAMPLES,
                "trace" => Self::TRACE,
                "all" => Self::ALL,
                other => return Err(format!("unknown telemetry category {other:?}")),
            });
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

    /// Instantaneous trace events only (no samplers).
    pub fn trace_only() -> TelemetryConfig {
        TelemetryConfig {
            events: EventMask::TRACE,
            sample_interval: None,
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

impl TraceRecord {
    /// The category bit of this record.
    pub fn category(&self) -> EventMask {
        match self {
            TraceRecord::FlowStart { .. } => EventMask::FLOW_START,
            TraceRecord::FlowFinish { .. } => EventMask::FLOW_FINISH,
            TraceRecord::Retransmit { .. } => EventMask::RETRANSMIT,
            TraceRecord::Timeout { .. } => EventMask::TIMEOUT,
            TraceRecord::SubflowDead { .. } => EventMask::SUBFLOW_DEAD,
            TraceRecord::SubflowFinish { .. } => EventMask::SUBFLOW_FINISH,
            TraceRecord::EcnMark { .. } => EventMask::ECN_MARK,
            TraceRecord::LinkDown { .. } | TraceRecord::LinkUp { .. } => EventMask::LINK_STATE,
            TraceRecord::QueueSample { .. } => EventMask::QUEUE_SAMPLE,
            TraceRecord::PlaneSample { .. } => EventMask::PLANE_SAMPLE,
            TraceRecord::SubflowSample { .. } => EventMask::SUBFLOW_SAMPLE,
        }
    }

    /// The record's timestamp.
    pub fn time(&self) -> SimTime {
        match *self {
            TraceRecord::FlowStart { t, .. }
            | TraceRecord::FlowFinish { t, .. }
            | TraceRecord::Retransmit { t, .. }
            | TraceRecord::Timeout { t, .. }
            | TraceRecord::SubflowDead { t, .. }
            | TraceRecord::SubflowFinish { t, .. }
            | TraceRecord::EcnMark { t, .. }
            | TraceRecord::LinkDown { t, .. }
            | TraceRecord::LinkUp { t, .. }
            | TraceRecord::QueueSample { t, .. }
            | TraceRecord::PlaneSample { t, .. }
            | TraceRecord::SubflowSample { t, .. } => t,
        }
    }

    /// One JSON object, fixed field order, no trailing newline. Floats use
    /// Rust's shortest round-trip formatting, which is deterministic.
    pub fn to_json(&self) -> String {
        match *self {
            TraceRecord::FlowStart {
                t,
                conn,
                src,
                dst,
                size_bytes,
                n_subflows,
            } => format!(
                "{{\"t_ps\":{},\"event\":\"flow_start\",\"conn\":{conn},\"src\":{src},\
                 \"dst\":{dst},\"size_bytes\":{size_bytes},\"n_subflows\":{n_subflows}}}",
                t.as_ps()
            ),
            TraceRecord::FlowFinish {
                t,
                conn,
                fct_ps,
                retransmits,
                timeouts,
            } => format!(
                "{{\"t_ps\":{},\"event\":\"flow_finish\",\"conn\":{conn},\"fct_ps\":{fct_ps},\
                 \"retransmits\":{retransmits},\"timeouts\":{timeouts}}}",
                t.as_ps()
            ),
            TraceRecord::Retransmit {
                t,
                conn,
                subflow,
                seq,
            } => format!(
                "{{\"t_ps\":{},\"event\":\"retransmit\",\"conn\":{conn},\
                 \"subflow\":{subflow},\"seq\":{seq}}}",
                t.as_ps()
            ),
            TraceRecord::Timeout {
                t,
                conn,
                subflow,
                backoff,
            } => format!(
                "{{\"t_ps\":{},\"event\":\"timeout\",\"conn\":{conn},\
                 \"subflow\":{subflow},\"backoff\":{backoff}}}",
                t.as_ps()
            ),
            TraceRecord::SubflowDead {
                t,
                conn,
                subflow,
                reclaimed,
            } => format!(
                "{{\"t_ps\":{},\"event\":\"subflow_dead\",\"conn\":{conn},\
                 \"subflow\":{subflow},\"reclaimed\":{reclaimed}}}",
                t.as_ps()
            ),
            TraceRecord::SubflowFinish {
                t,
                conn,
                subflow,
                dead,
                highest_sent,
                dctcp_alpha,
                dctcp_dupack_marks,
            } => format!(
                "{{\"t_ps\":{},\"event\":\"subflow_finish\",\"conn\":{conn},\
                 \"subflow\":{subflow},\"dead\":{dead},\"highest_sent\":{highest_sent},\
                 \"dctcp_alpha\":{dctcp_alpha},\"dctcp_dupack_marks\":{dctcp_dupack_marks}}}",
                t.as_ps()
            ),
            TraceRecord::EcnMark {
                t,
                link,
                buffered_bytes,
            } => format!(
                "{{\"t_ps\":{},\"event\":\"ecn_mark\",\"link\":{link},\
                 \"buffered_bytes\":{buffered_bytes}}}",
                t.as_ps()
            ),
            TraceRecord::LinkDown { t, link } => format!(
                "{{\"t_ps\":{},\"event\":\"link_down\",\"link\":{link}}}",
                t.as_ps()
            ),
            TraceRecord::LinkUp { t, link } => format!(
                "{{\"t_ps\":{},\"event\":\"link_up\",\"link\":{link}}}",
                t.as_ps()
            ),
            TraceRecord::QueueSample {
                t,
                link,
                depth_pkts,
                buffered_bytes,
            } => format!(
                "{{\"t_ps\":{},\"event\":\"queue_sample\",\"link\":{link},\
                 \"depth_pkts\":{depth_pkts},\"buffered_bytes\":{buffered_bytes}}}",
                t.as_ps()
            ),
            TraceRecord::PlaneSample {
                t,
                plane,
                bytes_delta,
                utilization,
            } => format!(
                "{{\"t_ps\":{},\"event\":\"plane_sample\",\"plane\":{plane},\
                 \"bytes_delta\":{bytes_delta},\"utilization\":{utilization}}}",
                t.as_ps()
            ),
            TraceRecord::SubflowSample {
                t,
                conn,
                subflow,
                cwnd,
                srtt_ps,
                in_flight,
            } => format!(
                "{{\"t_ps\":{},\"event\":\"subflow_sample\",\"conn\":{conn},\
                 \"subflow\":{subflow},\"cwnd\":{cwnd},\"srtt_ps\":{srtt_ps},\
                 \"in_flight\":{in_flight}}}",
                t.as_ps()
            ),
        }
    }

    /// One CSV row under [`Telemetry::CSV_HEADER`]. Inapplicable columns are
    /// left empty; the `v0..v3` legend is in [`Telemetry::csv_legend`].
    pub fn to_csv_row(&self) -> String {
        let row = |t: SimTime,
                   event: &str,
                   conn: &str,
                   subflow: &str,
                   link: &str,
                   plane: &str,
                   v: [String; 4]| {
            format!(
                "{},{event},{conn},{subflow},{link},{plane},{},{},{},{}",
                t.as_ps(),
                v[0],
                v[1],
                v[2],
                v[3]
            )
        };
        let s = |x: u64| x.to_string();
        let f = |x: f64| x.to_string();
        let none = String::new();
        match *self {
            TraceRecord::FlowStart {
                t,
                conn,
                src,
                dst,
                size_bytes,
                n_subflows,
            } => row(
                t,
                "flow_start",
                &s(conn),
                "",
                "",
                "",
                [s(src), s(dst), s(size_bytes), s(n_subflows)],
            ),
            TraceRecord::FlowFinish {
                t,
                conn,
                fct_ps,
                retransmits,
                timeouts,
            } => row(
                t,
                "flow_finish",
                &s(conn),
                "",
                "",
                "",
                [s(fct_ps), s(retransmits), s(timeouts), none.clone()],
            ),
            TraceRecord::Retransmit {
                t,
                conn,
                subflow,
                seq,
            } => row(
                t,
                "retransmit",
                &s(conn),
                &s(subflow),
                "",
                "",
                [s(seq), none.clone(), none.clone(), none.clone()],
            ),
            TraceRecord::Timeout {
                t,
                conn,
                subflow,
                backoff,
            } => row(
                t,
                "timeout",
                &s(conn),
                &s(subflow),
                "",
                "",
                [s(backoff), none.clone(), none.clone(), none.clone()],
            ),
            TraceRecord::SubflowDead {
                t,
                conn,
                subflow,
                reclaimed,
            } => row(
                t,
                "subflow_dead",
                &s(conn),
                &s(subflow),
                "",
                "",
                [s(reclaimed), none.clone(), none.clone(), none.clone()],
            ),
            TraceRecord::SubflowFinish {
                t,
                conn,
                subflow,
                dead,
                highest_sent,
                dctcp_alpha,
                dctcp_dupack_marks,
            } => row(
                t,
                "subflow_finish",
                &s(conn),
                &s(subflow),
                "",
                "",
                [
                    s(u64::from(dead)),
                    s(highest_sent),
                    f(dctcp_alpha),
                    s(dctcp_dupack_marks),
                ],
            ),
            TraceRecord::EcnMark {
                t,
                link,
                buffered_bytes,
            } => row(
                t,
                "ecn_mark",
                "",
                "",
                &s(link),
                "",
                [s(buffered_bytes), none.clone(), none.clone(), none.clone()],
            ),
            TraceRecord::LinkDown { t, link } => row(
                t,
                "link_down",
                "",
                "",
                &s(link),
                "",
                [none.clone(), none.clone(), none.clone(), none.clone()],
            ),
            TraceRecord::LinkUp { t, link } => row(
                t,
                "link_up",
                "",
                "",
                &s(link),
                "",
                [none.clone(), none.clone(), none.clone(), none.clone()],
            ),
            TraceRecord::QueueSample {
                t,
                link,
                depth_pkts,
                buffered_bytes,
            } => row(
                t,
                "queue_sample",
                "",
                "",
                &s(link),
                "",
                [s(depth_pkts), s(buffered_bytes), none.clone(), none.clone()],
            ),
            TraceRecord::PlaneSample {
                t,
                plane,
                bytes_delta,
                utilization,
            } => row(
                t,
                "plane_sample",
                "",
                "",
                "",
                &s(plane),
                [s(bytes_delta), f(utilization), none.clone(), none.clone()],
            ),
            TraceRecord::SubflowSample {
                t,
                conn,
                subflow,
                cwnd,
                srtt_ps,
                in_flight,
            } => row(
                t,
                "subflow_sample",
                &s(conn),
                &s(subflow),
                "",
                "",
                [f(cwnd), f(srtt_ps), s(in_flight), none],
            ),
        }
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
    /// event loop's batched same-time dispatch would pop it forever — an
    /// infinite loop that never advances the clock. Every arm site
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
    /// leading comment lines by [`Telemetry::to_csv`].
    pub fn csv_legend() -> &'static str {
        "# flow_start: v0=src v1=dst v2=size_bytes v3=n_subflows\n\
         # flow_finish: v0=fct_ps v1=retransmits v2=timeouts\n\
         # retransmit: v0=seq\n\
         # timeout: v0=backoff\n\
         # subflow_dead: v0=reclaimed\n\
         # subflow_finish: v0=dead v1=highest_sent v2=dctcp_alpha v3=dctcp_dupack_marks\n\
         # ecn_mark: v0=buffered_bytes\n\
         # queue_sample: v0=depth_pkts v1=buffered_bytes\n\
         # plane_sample: v0=bytes_delta v1=utilization\n\
         # subflow_sample: v0=cwnd v1=srtt_ps v2=in_flight\n"
    }

    /// Serialize every record as CSV with a fixed header and a per-event
    /// legend in leading `#` comments. Byte-identical across runs.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(Self::csv_legend());
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
    fn default_config_is_disabled() {
        let cfg = TelemetryConfig::default();
        assert!(!cfg.enabled());
        assert!(TelemetryConfig::all(SimTime::from_us(10)).enabled());
        assert!(TelemetryConfig::trace_only().enabled());
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
