//! The discrete-event simulation engine.
//!
//! A [`Simulator`] owns one drop-tail [`Queue`] per directed link of the
//! network and a recycled slab of live [`Connection`]s. Packets are
//! source-routed by the sending host (the P-Net model: path choice happens
//! at the edge), traverse queue → propagation → queue …, and are delivered
//! to the peer's transport state at the destination.
//!
//! Application logic lives *outside* the simulator, behind the [`Driver`]
//! trait: the run loop hands flow completions and app timers to the driver,
//! which may start new flows — this is how closed-loop workloads, RPC
//! ping-pong, and the Hadoop stages are built without `Rc<RefCell>` webs.

use crate::event::{EventKind, EventQueue};
use crate::packet::{ConnId, Packet, PacketArena, PacketId, PacketKind, ACK_BYTES, MTU_BYTES};
use crate::queue::{Enqueue, Queue};
use crate::tcp::{CcAlgo, Connection, Subflow, TcpConfig};
use crate::telemetry::{EventMask, Telemetry, TelemetryConfig, TraceRecord};
use crate::time::SimTime;
use pnet_routing::reverse_route;
use pnet_topology::{HostId, LinkId, Network};
use std::sync::Arc;

/// Simulator configuration.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Transport tuning.
    pub tcp: TcpConfig,
    /// Per-port buffer in bytes (default: 100 MTU-sized packets, the htsim
    /// convention).
    pub queue_bytes: u64,
    /// ECN marking threshold in packets (DCTCP's K), applied to every
    /// queue. `None` (default) disables marking; [`CcAlgo::Dctcp`] flows
    /// then behave like Reno. DCTCP's guideline is K ≈ 17%–20% of C·RTT;
    /// 20–65 packets are typical datacenter values.
    pub ecn_threshold_packets: Option<u32>,
    /// Telemetry: event tracing and periodic sampling (default: fully
    /// disabled — no records, no sampler events, no allocation).
    pub telemetry: TelemetryConfig,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            tcp: TcpConfig::default(),
            queue_bytes: 100 * MTU_BYTES as u64,
            ecn_threshold_packets: None,
            telemetry: TelemetryConfig::default(),
        }
    }
}

/// A flow to start: one route per subflow (a single route + [`CcAlgo::Reno`]
/// is plain TCP; K routes + [`CcAlgo::Lia`] is MPTCP over K paths).
#[derive(Debug, Clone)]
pub struct FlowSpec {
    pub src: HostId,
    pub dst: HostId,
    /// Bytes to transfer. The wire moves whole MTU packets (rounded up,
    /// minimum 1), but completion records report this exact figure.
    pub size_bytes: u64,
    /// Host-to-host routes, one per subflow. Must be non-empty.
    pub routes: Vec<Vec<LinkId>>,
    pub cc: CcAlgo,
    /// Opaque tag handed back to the driver on completion.
    pub owner_tag: u64,
}

/// Completion record of a finished flow.
#[derive(Debug, Clone)]
pub struct FlowRecord {
    pub conn: ConnId,
    pub src: HostId,
    pub dst: HostId,
    /// Requested transfer size in bytes (not the MTU-rounded wire
    /// footprint), so goodput of sub-MTU flows is not overstated.
    pub size_bytes: u64,
    pub start: SimTime,
    pub finish: SimTime,
    pub retransmits: u64,
    pub timeouts: u64,
    pub n_subflows: usize,
    /// Fewest switch hops among the subflow routes.
    pub min_switch_hops: usize,
    pub owner_tag: u64,
}

impl FlowRecord {
    /// Flow completion time.
    pub fn fct(&self) -> SimTime {
        self.finish - self.start
    }
}

/// Application callbacks driven by the run loop.
pub trait Driver {
    /// A flow finished (all packets acknowledged). This call is the last
    /// point at which [`Simulator::conn`] is guaranteed to answer for it.
    fn on_flow_complete(&mut self, _sim: &mut Simulator, _rec: &FlowRecord) {}
    /// An application timer (scheduled with [`Simulator::schedule_app`])
    /// fired.
    fn on_app_timer(&mut self, _sim: &mut Simulator, _app: u32, _tag: u64) {}
}

/// A driver that does nothing (for one-shot flow batches).
pub struct NullDriver;
impl Driver for NullDriver {}

/// Counters of one link's output queue, as reported by
/// [`Simulator::queue_stats`]. `dropped` is drop-tail (congestion) loss only;
/// `dropped_link_down` counts packets discarded because the link was dark.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueueStats {
    /// Packets accepted into the buffer.
    pub enqueued: u64,
    /// Packets lost to a full buffer on a live link.
    pub dropped: u64,
    /// Packets discarded because the link was down.
    pub dropped_link_down: u64,
    /// Peak buffer occupancy in bytes.
    pub peak_bytes: u64,
    /// Cumulative bytes that completed serialization on the link.
    pub bytes_sent: u64,
}

impl QueueStats {
    /// All losses at this queue, regardless of cause.
    pub fn total_dropped(&self) -> u64 {
        self.dropped + self.dropped_link_down
    }
}

/// Packet-conservation ledger: a snapshot of where every packet ever handed
/// to `Simulator::send_packet`'s first hop currently is. The books balance
/// at every event boundary:
///
/// `injected == delivered + dropped_congestion + dropped_link_down + in_flight`
///
/// and once the event queue drains, `in_flight == 0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConservationLedger {
    /// Packets entering the network at hop 0 (data and ACKs alike).
    pub injected: u64,
    /// Packets that reached the end of their route.
    pub delivered: u64,
    /// Drop-tail losses at live links.
    pub dropped_congestion: u64,
    /// Discards at dark (failed) links.
    pub dropped_link_down: u64,
    /// Packets buffered in queues or propagating on the wire.
    pub in_flight: u64,
}

impl ConservationLedger {
    /// True when every injected packet is accounted for.
    pub fn balanced(&self) -> bool {
        self.injected
            == self.delivered + self.dropped_congestion + self.dropped_link_down + self.in_flight
    }
}

/// "No slot" / "no record" per [`ConnId`]: past the end of either table, so `get` finds nothing.
const NONE: u32 = u32::MAX;

/// The engine.
pub struct Simulator {
    /// Current simulation time.
    pub now: SimTime,
    events: EventQueue,
    queues: Vec<Queue>,
    /// Slab arena of in-flight packets; events and queue FIFOs carry
    /// [`PacketId`]s into it.
    packets: PacketArena,
    /// Per [`ConnId`] (never reused): its slab slot; `NONE` once retired, so
    /// a stale `RtoTimer` finds nothing, as it does on a finished connection.
    conn_slot: Vec<u32>,
    /// Per [`ConnId`]: index into `records` once finished, `NONE` before.
    conn_record: Vec<u32>,
    /// Connections not yet retired (DESIGN.md "Connection lifetime"). Freed
    /// slots are reused LIFO, subflow tables and buffers included; until
    /// then they keep their last tenant (`finish` set, `in_network` zero).
    slab: Vec<Connection>,
    free_slots: Vec<usize>,
    cfg: SimConfig,
    /// Completion records of all finished flows, in completion order.
    pub records: Vec<FlowRecord>,
    /// Completions not yet delivered to the driver.
    pending_complete: Vec<ConnId>,
    /// Packets lost to full buffers.
    pub dropped_packets: u64,
    /// Packets lost to dark (failed) links — separate from drop-tail loss so
    /// failure experiments don't misreport congestion.
    pub dropped_link_down_packets: u64,
    /// Trace buffer; `None` (the default) keeps hook sites down to one
    /// branch each and samplers unscheduled.
    telemetry: Option<Box<Telemetry>>,
    /// Packets injected at hop 0 (conservation ledger numerator).
    ledger_injected: u64,
    /// Packets that reached the end of their route.
    ledger_delivered: u64,
}

impl Simulator {
    /// Build a simulator over `net`'s links.
    pub fn new(net: &Network, cfg: SimConfig) -> Self {
        let queues = net
            .links()
            .map(|(_, l)| {
                let mut q = Queue::new(l.capacity_bps, l.delay_ps, cfg.queue_bytes);
                q.ecn_threshold_bytes = cfg
                    .ecn_threshold_packets
                    .map(|k| k as u64 * MTU_BYTES as u64);
                q
            })
            .collect();
        let telemetry = if cfg.telemetry.enabled() {
            Some(Box::new(Telemetry::new(net, cfg.telemetry)))
        } else {
            None
        };
        let mut sim = Simulator {
            now: SimTime::ZERO,
            events: EventQueue::new(),
            queues,
            packets: PacketArena::new(),
            conn_slot: Vec::new(),
            conn_record: Vec::new(),
            slab: Vec::new(),
            free_slots: Vec::new(),
            cfg,
            records: Vec::new(),
            pending_complete: Vec::new(),
            dropped_packets: 0,
            dropped_link_down_packets: 0,
            telemetry,
            ledger_injected: 0,
            ledger_delivered: 0,
        };
        // Arm the first sampler tick. If the run drains before flows exist,
        // the tick observes an idle network once and does not re-arm.
        if let Some(tl) = sim.telemetry.as_mut() {
            if let Some(iv) = tl.cfg.sample_interval {
                tl.sampler_armed = true;
                sim.events.schedule(iv, EventKind::TelemetrySample);
            }
        }
        sim
    }

    /// The telemetry trace buffer, when enabled via
    /// [`SimConfig::telemetry`].
    pub fn telemetry(&self) -> Option<&Telemetry> {
        self.telemetry.as_deref()
    }

    /// True when telemetry is on and `cat` is an enabled category.
    #[inline]
    fn wants(&self, cat: EventMask) -> bool {
        self.telemetry.as_ref().is_some_and(|t| t.wants(cat))
    }

    /// Append a trace record (caller has already checked the category via
    /// [`Simulator::wants`]).
    #[inline]
    fn emit(&mut self, rec: TraceRecord) {
        if let Some(t) = self.telemetry.as_mut() {
            t.record(rec);
        }
    }

    /// Snapshot of the packet-conservation books. Valid at any event
    /// boundary; [`run`] asserts [`ConservationLedger::balanced`] before
    /// returning.
    pub fn conservation(&self) -> ConservationLedger {
        let buffered: u64 = self.queues.iter().map(|q| q.depth() as u64).sum();
        let in_flight = buffered + self.events.pending_arrivals();
        // The packet arena must agree with the queues + event queue about
        // what is in flight: a leak (missed free) or double free would show
        // up here before it corrupts a later flow.
        debug_assert_eq!(
            self.packets.live() as u64,
            in_flight,
            "packet arena live count disagrees with queue/event books"
        );
        // ...and so must the per-connection counts that decide retirement.
        let pinned: u64 = self.slab.iter().map(|c| u64::from(c.in_network)).sum();
        debug_assert_eq!(pinned, in_flight, "per-connection in-network counts");
        ConservationLedger {
            injected: self.ledger_injected,
            delivered: self.ledger_delivered,
            dropped_congestion: self.dropped_packets,
            dropped_link_down: self.dropped_link_down_packets,
            in_flight,
        }
    }

    /// Panic unless the conservation books balance (and, if the event queue
    /// has drained, unless the network is empty).
    fn assert_conservation(&self) {
        let l = self.conservation();
        assert!(
            l.balanced(),
            "packet conservation violated: injected {} != delivered {} \
             + dropped_congestion {} + dropped_link_down {} + in_flight {}",
            l.injected,
            l.delivered,
            l.dropped_congestion,
            l.dropped_link_down,
            l.in_flight
        );
        if self.events.is_empty() {
            assert_eq!(
                l.in_flight, 0,
                "event queue drained but {} packet(s) still in flight",
                l.in_flight
            );
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Transport state of a connection; `None` once it has retired, when its
    /// [`FlowRecord`] and [`TraceRecord::SubflowFinish`] are what is left.
    pub fn conn(&self, id: ConnId) -> Option<&Connection> {
        self.slab.get(self.conn_slot[id.0 as usize] as usize)
    }

    /// Completion record of a connection, or `None` while it is transferring.
    pub fn record(&self, id: ConnId) -> Option<&FlowRecord> {
        self.records.get(self.conn_record[id.0 as usize] as usize)
    }

    /// Number of connections ever started.
    pub fn n_conns(&self) -> usize {
        self.conn_slot.len()
    }

    /// Connections not yet retired.
    pub fn live_conns(&self) -> usize {
        self.slab.len() - self.free_slots.len()
    }

    /// Connection-slab high-water mark: the peak of [`Simulator::live_conns`].
    pub fn conn_slab_capacity(&self) -> usize {
        self.slab.len()
    }

    /// Queue statistics of a link.
    pub fn queue_stats(&self, link: LinkId) -> QueueStats {
        let q = &self.queues[link.index()];
        QueueStats {
            enqueued: q.enqueued,
            dropped: q.dropped,
            dropped_link_down: q.dropped_link_down,
            peak_bytes: q.peak_bytes,
            bytes_sent: q.bytes_sent,
        }
    }

    /// Events dispatched so far.
    pub fn events_dispatched(&self) -> u64 {
        self.events.dispatched()
    }

    /// Calendar slots opened so far, each counting-sorted once by fine
    /// bucket (see `event.rs`).
    pub fn calendar_slot_opens(&self) -> u64 {
        self.events.slot_opens()
    }

    /// Events scheduled into the calendar bucket being drained, which take
    /// the late heap: a delay under ~1 ns (see `event.rs`).
    pub fn calendar_late_pushes(&self) -> u64 {
        self.events.late_pushes()
    }

    /// The packet arena (e.g. for slab high-water instrumentation).
    pub fn packet_arena(&self) -> &PacketArena {
        &self.packets
    }

    /// Take a link dark mid-simulation: every packet arriving at either
    /// direction of the cable from now on is dropped (buffered packets
    /// still drain). Pair with [`pnet_topology::failures`] on the topology
    /// side and a router/selector refresh for new flows.
    pub fn fail_link(&mut self, link: LinkId) {
        self.queues[link.index()].link_up = false;
        self.queues[link.reverse().index()].link_up = false;
        if self.wants(EventMask::LINK_STATE) {
            let t = self.now;
            self.emit(TraceRecord::LinkDown {
                t,
                link: u64::from(link.0),
            });
        }
    }

    /// Restore a failed link.
    pub fn restore_link(&mut self, link: LinkId) {
        self.queues[link.index()].link_up = true;
        self.queues[link.reverse().index()].link_up = true;
        if self.wants(EventMask::LINK_STATE) {
            let t = self.now;
            self.emit(TraceRecord::LinkUp {
                t,
                link: u64::from(link.0),
            });
        }
    }

    /// Schedule an application timer at absolute time `at` (delivered to the
    /// driver as `on_app_timer(app, tag)`).
    pub fn schedule_app(&mut self, at: SimTime, app: u32, tag: u64) {
        assert!(at >= self.now, "cannot schedule in the past");
        self.events.schedule(at, EventKind::AppTimer { app, tag });
    }

    /// Start a flow now. Returns its connection id.
    pub fn start_flow(&mut self, spec: FlowSpec) -> ConnId {
        assert!(spec.src != spec.dst, "flow to self");
        assert!(!spec.routes.is_empty(), "flow needs at least one route");
        let id = ConnId(
            u32::try_from(self.conn_slot.len())
                .expect("invariant: connection count stays within u32"),
        );
        assert!(id.0 < NONE, "invariant: connection ids stay below `NONE`");
        let size_packets = spec.size_bytes.div_ceil(MTU_BYTES as u64).max(1);
        // Take over the most recently retired slot and its subflow table.
        let (ci, mut subflows) = match self.free_slots.pop() {
            Some(ci) => (ci, std::mem::take(&mut self.slab[ci].subflows)),
            None => (self.slab.len(), Vec::new()),
        };
        subflows.truncate(spec.routes.len());
        subflows.reserve_exact(spec.routes.len() - subflows.len());
        for (si, r) in spec.routes.iter().enumerate() {
            assert!(!r.is_empty(), "empty route");
            // Intern both directions once: a single `Arc<[LinkId]>`
            // allocation each, cloned (refcount bump only) per packet.
            let fwd: Arc<[LinkId]> = Arc::from(&r[..]);
            let rev: Arc<[LinkId]> = Arc::from(reverse_route(r));
            let mut sub = Subflow::new(fwd, rev, &self.cfg.tcp);
            sub.cwnd_cap = self.window_cap(r);
            sub.last_progress = self.now;
            match subflows.get_mut(si) {
                Some(old) => old.recycle(sub),
                None => subflows.push(sub),
            }
        }
        let conn = Connection {
            id,
            src: spec.src,
            dst: spec.dst,
            cc: spec.cc,
            size_packets,
            size_bytes: spec.size_bytes.max(1),
            assigned: 0,
            acked: 0,
            start: self.now,
            finish: None,
            subflows,
            rr: 0,
            owner_tag: spec.owner_tag,
            in_network: 0,
        };
        match self.slab.get_mut(ci) {
            Some(slot) => *slot = conn,
            None => self.slab.push(conn),
        }
        self.conn_slot
            .push(u32::try_from(ci).expect("invariant: slots <= connections"));
        self.conn_record.push(NONE);
        if self.wants(EventMask::FLOW_START) {
            let t = self.now;
            self.emit(TraceRecord::FlowStart {
                t,
                conn: u64::from(id.0),
                src: spec.src.index() as u64,
                dst: spec.dst.index() as u64,
                size_bytes: spec.size_bytes.max(1),
                n_subflows: spec.routes.len() as u64,
            });
        }
        // A flow starting on an idle simulator revives the sampler.
        if let Some(tl) = self.telemetry.as_mut() {
            if let Some(iv) = tl.cfg.sample_interval {
                if !tl.sampler_armed {
                    tl.sampler_armed = true;
                    let at = self.now + iv;
                    self.events.schedule(at, EventKind::TelemetrySample);
                }
            }
        }
        self.pump(ci);
        id
    }

    /// Flow-control window cap for a route: the path's base-RTT
    /// bandwidth-delay product (at the route's bottleneck rate) plus one
    /// port buffer of packets. Plays the role of a well-tuned receiver
    /// window: a single flow fills the pipe without overshooting into
    /// hundreds of slow-start losses, while competing flows still contend in
    /// the queues normally.
    fn window_cap(&self, route: &[LinkId]) -> f64 {
        use crate::time::serialization_ps;
        let mut rtt_ps: u64 = 0;
        let mut bottleneck = u64::MAX;
        for &l in route {
            let q = &self.queues[l.index()];
            rtt_ps += q.delay_ps + serialization_ps(MTU_BYTES, q.rate_bps);
            bottleneck = bottleneck.min(q.rate_bps);
        }
        for &l in route {
            // Reverse direction carries ACKs.
            let q = &self.queues[l.reverse().index()];
            rtt_ps += q.delay_ps + serialization_ps(ACK_BYTES, q.rate_bps);
        }
        let bdp_bits = SimTime::from_ps(rtt_ps).as_secs_f64() * bottleneck as f64;
        let bdp_packets = (bdp_bits / 8.0 / MTU_BYTES as f64).ceil();
        let buffer_packets = (self.cfg.queue_bytes / MTU_BYTES as u64) as f64;
        (bdp_packets + buffer_packets).max(2.0)
    }

    // ------------------------------------------------------------------
    // Packet plumbing
    // ------------------------------------------------------------------

    /// Hand the packet in arena slot `id` to its next link's queue. On a
    /// drop the slot is freed immediately — ids never dangle.
    fn send_packet(&mut self, id: PacketId) {
        if self.packets[id].hop == 0 {
            self.ledger_injected += 1;
        }
        let trace_ecn = self.wants(EventMask::ECN_MARK);
        // One arena access for the whole hop: `queues` and `packets` are
        // disjoint fields, so the packet borrow spans the enqueue.
        let p = &mut self.packets[id];
        let link = p
            .next_link()
            .expect("invariant: send_packet is only called with hops remaining");
        let q = &mut self.queues[link.index()];
        let marked_before = if trace_ecn { q.marked } else { 0 };
        match q.enqueue(id, p) {
            Enqueue::StartService => {
                let ser = q.head_service_ps();
                self.events.schedule(
                    self.now + SimTime::from_ps(ser),
                    EventKind::QueueDeparture { link },
                );
            }
            Enqueue::Queued => {}
            Enqueue::Dropped => {
                self.dropped_packets += 1;
                self.drop_packet(id);
            }
            Enqueue::DroppedLinkDown => {
                self.dropped_link_down_packets += 1;
                self.drop_packet(id);
            }
        }
        if trace_ecn {
            let q = &self.queues[link.index()];
            if q.marked > marked_before {
                let t = self.now;
                let buffered_bytes = q.buffered_bytes();
                self.emit(TraceRecord::EcnMark {
                    t,
                    link: u64::from(link.0),
                    buffered_bytes,
                });
            }
        }
    }

    fn drop_packet(&mut self, id: PacketId) {
        let (PacketKind::Data { conn, .. } | PacketKind::Ack { conn, .. }) = self.packets[id].kind;
        self.packets.free(id);
        self.left_network(conn);
    }

    /// One of `conn`'s packets left the network (ACK delivered, any packet
    /// dropped). Returns the slot while still transferring; a finished one
    /// retires with its last packet (`run` has told the driver by then).
    fn left_network(&mut self, conn: ConnId) -> Option<usize> {
        // Kept: a packet in the network pins its connection.
        let ci = self.conn_slot[conn.0 as usize] as usize;
        let c = &mut self.slab[ci];
        c.in_network -= 1;
        if c.finish.is_none() {
            return Some(ci);
        }
        if c.in_network == 0 {
            self.retire(ci);
        }
        None
    }

    /// Release a finished, drained connection's slot for the next flow.
    fn retire(&mut self, ci: usize) {
        let c = &self.slab[ci];
        debug_assert!(c.finish.is_some() && !self.pending_complete.contains(&c.id));
        debug_assert_eq!(c.in_network, 0, "retiring {:?} with packets out", c.id);
        let post_mortems = EventMask::SUBFLOW_FINISH;
        if let Some(tl) = self.telemetry.as_mut().filter(|tl| tl.wants(post_mortems)) {
            for (si, sub) in c.subflows.iter().enumerate() {
                tl.record(TraceRecord::SubflowFinish {
                    t: self.now,
                    conn: u64::from(c.id.0),
                    subflow: si as u64,
                    dead: sub.dead,
                    highest_sent: sub.highest_sent,
                    dctcp_alpha: sub.dctcp_alpha,
                    dctcp_dupack_marks: sub.dctcp_dupack_marks,
                });
            }
        }
        self.conn_slot[c.id.0 as usize] = NONE;
        self.free_slots.push(ci);
    }

    fn on_departure(&mut self, link: LinkId) {
        let q = &mut self.queues[link.index()];
        let (id, arrival, next) = q.depart(self.now);
        self.packets[id].hop += 1;
        self.events
            .schedule(arrival, EventKind::Arrival { packet: id });
        if let Some(ser) = next {
            self.events.schedule(
                self.now + SimTime::from_ps(ser),
                EventKind::QueueDeparture { link },
            );
        }
    }

    fn on_arrival(&mut self, id: PacketId) {
        if self.packets[id].next_link().is_some() {
            self.send_packet(id);
            return;
        }
        self.ledger_delivered += 1;
        // Delivered: copy the payload descriptor out and recycle the slot
        // before transport processing (which may immediately reuse it for
        // the ACK or the next window of data).
        let kind = self.packets[id].kind;
        self.packets.free(id);
        match kind {
            PacketKind::Data {
                conn,
                subflow,
                seq,
                ts,
                rtx,
                ce,
            } => self.on_data(conn, subflow, seq, ts, rtx, ce),
            PacketKind::Ack {
                conn,
                subflow,
                cum,
                ts_echo,
                rtx_echo,
                ece,
            } => self.on_ack(conn, subflow, cum, ts_echo, rtx_echo, ece),
        }
    }

    fn on_data(&mut self, conn: ConnId, subflow: u8, seq: u64, ts: SimTime, rtx: bool, ce: bool) {
        // Duplicate data landing after `finish` is ACKed like any other; the
        // ACK inherits the data packet's `in_network` count and pins on.
        let ci = self.conn_slot[conn.0 as usize] as usize;
        let sub = &mut self.slab[ci].subflows[subflow as usize];
        let cum = sub.receive_data(seq);
        let route = Arc::clone(&sub.rev_route);
        let id = self.packets.alloc(Packet {
            route,
            hop: 0,
            size_bytes: ACK_BYTES,
            kind: PacketKind::Ack {
                conn,
                subflow,
                cum,
                ts_echo: ts,
                rtx_echo: rtx,
                ece: ce,
            },
        });
        self.send_packet(id);
    }

    #[allow(clippy::too_many_arguments)]
    fn on_ack(
        &mut self,
        conn: ConnId,
        subflow: u8,
        cum: u64,
        ts_echo: SimTime,
        rtx_echo: bool,
        ece: bool,
    ) {
        let Some(ci) = self.left_network(conn) else {
            return; // late ACK after completion
        };
        let now = self.now;
        // Single borrow of the connection for the whole handler: ACKs are
        // ~half of all events, and the repeated `slab[ci].subflows[si]`
        // double-indexing was measurable. `self.cfg` is a disjoint field, so
        // the split borrows below are fine.
        let c = &mut self.slab[ci];
        let si = subflow as usize;
        let cc = c.cc;
        let sub = &mut c.subflows[si];
        if sub.dead {
            return; // subflow abandoned; its data was re-injected elsewhere
        }

        // RTT sample (Karn: never from retransmitted segments).
        if !rtx_echo {
            let sample = now.saturating_sub(ts_echo).as_ps();
            sub.rtt_sample(sample, &self.cfg.tcp);
        }

        let snd_una = sub.snd_una;
        if cum > snd_una {
            let newly = cum - snd_una;
            sub.snd_una = cum;
            sub.resend_high = sub.resend_high.max(cum);
            sub.backoff = 0;
            c.acked += newly;

            let sub = &mut c.subflows[si];
            sub.last_progress = now;
            if sub.in_recovery {
                if cum >= sub.recover {
                    sub.cwnd = sub.ssthresh.max(1.0);
                    sub.in_recovery = false;
                    sub.dupacks = 0;
                } else {
                    // NewReno partial ACK: retransmit the next hole, deflate.
                    sub.rtx_queue.push_back(cum);
                    sub.cwnd = (sub.cwnd - newly as f64 + 1.0).max(1.0);
                }
            } else {
                sub.dupacks = 0;
                // DCTCP: fraction-proportional multiplicative decrease, at
                // most once per observation window; additive increase
                // continues below as for Reno.
                if cc == CcAlgo::Dctcp {
                    let cut = sub.dctcp_on_ack(newly, ece, cum);
                    if cut {
                        sub.cwnd = (sub.cwnd * (1.0 - sub.dctcp_alpha / 2.0)).max(1.0);
                        sub.ssthresh = sub.cwnd; // leave slow start
                    }
                }
                for _ in 0..newly {
                    let (cwnd, ssthresh) = {
                        let s = &c.subflows[si];
                        (s.cwnd, s.ssthresh)
                    };
                    let inc = if cwnd < ssthresh {
                        1.0 // slow start
                    } else {
                        c.ca_increase(si, &self.cfg.tcp)
                    };
                    c.subflows[si].cwnd += inc;
                }
            }
        } else if cum == snd_una && sub.outstanding() > 0 {
            // DCTCP: a dupack still acknowledges one received data packet
            // and carries that packet's CE mark in ECE — it must enter the
            // marked-fraction accounting or the fraction under loss is
            // understated.
            if cc == CcAlgo::Dctcp {
                sub.dctcp_on_dupack(ece);
            }
            sub.dupacks += 1;
            if sub.dupacks == 3 && !sub.in_recovery {
                let flight = sub.in_flight() as f64;
                sub.ssthresh = (flight / 2.0).max(2.0);
                sub.in_recovery = true;
                sub.recover = sub.highest_sent;
                sub.cwnd = sub.ssthresh + 3.0;
                sub.rtx_queue.push_back(sub.snd_una);
            } else if sub.in_recovery {
                sub.cwnd += 1.0; // window inflation per extra dupack
            }
        }

        // Completion?
        if c.acked >= c.size_packets {
            self.finish_conn(ci);
            return;
        }
        self.pump(ci);
    }

    fn finish_conn(&mut self, ci: usize) {
        let c = &mut self.slab[ci];
        c.finish = Some(self.now);
        let conn = c.id;
        let rec = FlowRecord {
            conn,
            src: c.src,
            dst: c.dst,
            // The requested size, not the MTU-rounded wire footprint —
            // goodput of sub-MTU flows would otherwise be overstated.
            size_bytes: c.size_bytes,
            start: c.start,
            finish: self.now,
            retransmits: c.retransmits(),
            timeouts: c.timeouts(),
            n_subflows: c.subflows.len(),
            min_switch_hops: c
                .subflows
                .iter()
                .map(|s| s.route.len().saturating_sub(1))
                .min()
                .unwrap_or(0),
            owner_tag: c.owner_tag,
        };
        if self.wants(EventMask::FLOW_FINISH) {
            let t = self.now;
            self.emit(TraceRecord::FlowFinish {
                t,
                conn: u64::from(conn.0),
                fct_ps: rec.fct().as_ps(),
                retransmits: rec.retransmits,
                timeouts: rec.timeouts,
            });
        }
        self.conn_record[conn.0 as usize] = u32::try_from(self.records.len())
            .expect("invariant: connection count stays within u32");
        self.records.push(rec);
        self.pending_complete.push(conn);
    }

    // ------------------------------------------------------------------
    // Sending
    // ------------------------------------------------------------------

    /// Push out as much as windows allow, round-robin over subflows.
    fn pump(&mut self, ci: usize) {
        let n_subs = self.slab[ci].subflows.len();
        let mut progress = true;
        while progress {
            progress = false;
            for off in 0..n_subs {
                let si = (self.slab[ci].rr + off) % n_subs;
                // Point retransmissions (fast retransmit, NewReno partial
                // acks) go out regardless of window space.
                loop {
                    let sub = &mut self.slab[ci].subflows[si];
                    let Some(seq) = sub.rtx_queue.pop_front() else {
                        break;
                    };
                    if seq < sub.snd_una {
                        continue; // already cumulatively acked
                    }
                    self.transmit(ci, si, seq, true);
                    progress = true;
                }
                // Window-paced (re)transmission: first go-back-N resends of
                // the post-RTO hole (resend_high .. highest_sent), then
                // fresh packets if the connection has unassigned data left.
                loop {
                    // Re-borrow each iteration: `transmit` needs `&mut self`.
                    let c = &mut self.slab[ci];
                    let sub = &mut c.subflows[si];
                    if !sub.window_open() {
                        break;
                    }
                    if sub.resend_high < sub.highest_sent {
                        let seq = sub.resend_high;
                        sub.resend_high += 1;
                        self.transmit(ci, si, seq, true);
                        progress = true;
                    } else if c.assigned < c.size_packets {
                        let seq = sub.highest_sent;
                        sub.highest_sent += 1;
                        sub.resend_high += 1;
                        c.assigned += 1;
                        self.transmit(ci, si, seq, false);
                        progress = true;
                    } else {
                        break;
                    }
                }
            }
            let c = &mut self.slab[ci];
            c.rr = (c.rr + 1) % n_subs;
        }
        // Arm timers wherever data is outstanding.
        for si in 0..n_subs {
            let sub = &self.slab[ci].subflows[si];
            if sub.outstanding() > 0 && !sub.timer_armed {
                self.arm_timer(ci, si);
            }
        }
    }

    fn transmit(&mut self, ci: usize, si: usize, seq: u64, rtx: bool) {
        let now = self.now;
        let c = &mut self.slab[ci];
        let (conn, cc) = (c.id, c.cc);
        c.in_network += 1;
        let (route, size) = {
            let sub = &mut c.subflows[si];
            sub.packets_sent += 1;
            if rtx {
                sub.retransmits += 1;
            }
            if cc == CcAlgo::Dctcp && !rtx && sub.snd_una == 0 && sub.dctcp_acked == 0 {
                // Seed the first DCTCP observation window to span the whole
                // initial flight. `pump` sends the entire initial cwnd
                // before any ACK arrives, and `highest_sent` was already
                // advanced past `seq`, so the window keeps extending through
                // the burst; left at 0 the very first ACK would close a
                // degenerate one-sample window and EWMA-update alpha from it.
                sub.dctcp_window_end = sub.highest_sent;
            }
            if !rtx {
                // Fresh data marks forward progress for the lazy RTO.
                sub.last_progress = now;
            }
            (Arc::clone(&sub.route), MTU_BYTES)
        };
        if rtx && self.wants(EventMask::RETRANSMIT) {
            self.emit(TraceRecord::Retransmit {
                t: now,
                conn: u64::from(conn.0),
                subflow: si as u64,
                seq,
            });
        }
        let id = self.packets.alloc(Packet {
            route,
            hop: 0,
            size_bytes: size,
            kind: PacketKind::Data {
                conn,
                subflow: u8::try_from(si).expect("invariant: subflow count stays within u8"),
                seq,
                ts: now,
                rtx,
                ce: false,
            },
        });
        self.send_packet(id);
    }

    // ------------------------------------------------------------------
    // Timers (lazy re-arm: one outstanding event per subflow)
    // ------------------------------------------------------------------

    fn arm_timer(&mut self, ci: usize, si: usize) {
        let conn = self.slab[ci].id;
        let sub = &mut self.slab[ci].subflows[si];
        sub.timer_token += 1;
        sub.timer_armed = true;
        let deadline = self.now + sub.effective_rto(&self.cfg.tcp);
        self.events.schedule(
            deadline,
            EventKind::RtoTimer {
                conn,
                subflow: u8::try_from(si).expect("invariant: subflow count stays within u8"),
                token: sub.timer_token,
            },
        );
    }

    fn on_rto(&mut self, conn: ConnId, subflow: u8, token: u64) {
        let si = subflow as usize;
        let ci = self.conn_slot[conn.0 as usize] as usize;
        if self.slab.get(ci).is_none_or(|c| c.finish.is_some()) {
            return; // stale timer of a finished, possibly retired, connection
        }
        {
            let sub = &self.slab[ci].subflows[si];
            if !sub.timer_armed || sub.timer_token != token {
                return; // stale
            }
        }
        // Nothing outstanding: disarm.
        if self.slab[ci].subflows[si].outstanding() == 0 {
            self.slab[ci].subflows[si].timer_armed = false;
            return;
        }
        // Progress since arming: push the deadline out (lazy re-arm keeps a
        // single pending event instead of one per ACK).
        let eff = self.slab[ci].subflows[si].effective_rto(&self.cfg.tcp);
        let deadline = self.slab[ci].subflows[si].last_progress + eff;
        if self.now < deadline {
            let tok = self.slab[ci].subflows[si].timer_token;
            self.events.schedule(
                deadline,
                EventKind::RtoTimer {
                    conn,
                    subflow,
                    token: tok,
                },
            );
            return;
        }
        // Genuine timeout: rewind the pipe estimate so the pump go-back-N
        // resends the presumed-lost window under slow start.
        {
            let sub = &mut self.slab[ci].subflows[si];
            sub.timeouts += 1;
            let flight = sub.in_flight() as f64;
            sub.ssthresh = (flight / 2.0).max(2.0);
            sub.cwnd = 1.0;
            sub.in_recovery = false;
            sub.dupacks = 0;
            sub.backoff += 1;
            sub.rtx_queue.clear();
            sub.resend_high = sub.snd_una;
            sub.timer_armed = false;
        }
        if self.wants(EventMask::TIMEOUT) {
            let t = self.now;
            let backoff = u64::from(self.slab[ci].subflows[si].backoff);
            self.emit(TraceRecord::Timeout {
                t,
                conn: u64::from(conn.0),
                subflow: u64::from(subflow),
                backoff,
            });
        }
        // MPTCP path-failure handling: after repeated backoffs, declare the
        // subflow dead and re-inject its outstanding data onto the
        // surviving subflows.
        let has_live_sibling = self.slab[ci]
            .subflows
            .iter()
            .enumerate()
            .any(|(j, s)| j != si && !s.dead);
        if self.slab[ci].subflows[si].backoff >= self.cfg.tcp.dead_after_backoff && has_live_sibling
        {
            let reclaimed = {
                let sub = &mut self.slab[ci].subflows[si];
                sub.dead = true;
                let lost = sub.highest_sent - sub.snd_una;
                sub.highest_sent = sub.snd_una;
                sub.resend_high = sub.snd_una;
                lost
            };
            self.slab[ci].assigned -= reclaimed;
            if self.wants(EventMask::SUBFLOW_DEAD) {
                let t = self.now;
                self.emit(TraceRecord::SubflowDead {
                    t,
                    conn: u64::from(conn.0),
                    subflow: u64::from(subflow),
                    reclaimed,
                });
            }
            self.pump(ci);
            return; // no timer for a dead subflow
        }
        self.slab[ci].subflows[si].last_progress = self.now;
        self.pump(ci);
        if !self.slab[ci].subflows[si].timer_armed {
            self.arm_timer(ci, si);
        }
    }

    /// Hand one popped event to its handler — app timers to the driver,
    /// everything else to the engine.
    #[inline]
    fn dispatch(&mut self, driver: &mut dyn Driver, kind: EventKind) {
        match kind {
            EventKind::QueueDeparture { link } => self.on_departure(link),
            EventKind::Arrival { packet } => self.on_arrival(packet),
            EventKind::RtoTimer {
                conn,
                subflow,
                token,
            } => self.on_rto(conn, subflow, token),
            EventKind::AppTimer { app, tag } => driver.on_app_timer(self, app, tag),
            EventKind::TelemetrySample => self.on_telemetry_sample(),
        }
    }

    /// Hand every completion not yet delivered to the driver.
    fn deliver_completions(&mut self, driver: &mut dyn Driver) {
        while let Some(cid) = self.pending_complete.pop() {
            let ci = self.conn_slot[cid.0 as usize] as usize;
            let rec = self.records[self.conn_record[cid.0 as usize] as usize].clone();
            driver.on_flow_complete(self, &rec);
            // With stragglers still out, `left_network` retires it instead.
            if self.slab[ci].in_network == 0 {
                self.retire(ci);
            }
        }
    }

    /// One sampler tick: observe queue occupancy, per-plane utilization, and
    /// live subflow state. Mutates no transport or queue state, so enabling
    /// sampling never changes FCTs, drops, or retransmit counts.
    fn on_telemetry_sample(&mut self) {
        let now = self.now;
        let Some(tl) = self.telemetry.as_mut() else {
            return;
        };
        let Some(interval) = tl.cfg.sample_interval else {
            tl.sampler_armed = false;
            return;
        };
        if tl.cfg.events.contains(EventMask::QUEUE_SAMPLE) {
            // Only non-empty queues: trace volume tracks activity, and an
            // absent link at a sample time reads as "empty".
            for (i, q) in self.queues.iter().enumerate() {
                if q.depth() > 0 {
                    tl.record(TraceRecord::QueueSample {
                        t: now,
                        link: i as u64,
                        depth_pkts: q.depth() as u64,
                        buffered_bytes: q.buffered_bytes(),
                    });
                }
            }
        }
        if tl.cfg.events.contains(EventMask::PLANE_SAMPLE) {
            let n = tl.plane_capacity_bps.len();
            let mut bytes = vec![0u64; n];
            for (i, q) in self.queues.iter().enumerate() {
                bytes[tl.link_planes[i].index()] += q.bytes_sent;
            }
            let dt_secs = now.saturating_sub(tl.last_sample_at).as_secs_f64();
            for (p, &total) in bytes.iter().enumerate() {
                let bytes_delta = total - tl.last_plane_bytes[p];
                let cap = tl.plane_capacity_bps[p];
                let utilization = if dt_secs > 0.0 && cap > 0 {
                    bytes_delta as f64 * 8.0 / (cap as f64 * dt_secs)
                } else {
                    0.0
                };
                tl.record(TraceRecord::PlaneSample {
                    t: now,
                    plane: p as u64,
                    bytes_delta,
                    utilization,
                });
            }
            tl.last_plane_bytes = bytes;
        }
        if tl.cfg.events.contains(EventMask::SUBFLOW_SAMPLE) {
            // In `ConnId` order, not slot order: which slot a flow recycled
            // must not show in the export. Free slots read as finished.
            let mut live: Vec<&Connection> =
                self.slab.iter().filter(|c| c.finish.is_none()).collect();
            live.sort_by_key(|c| c.id);
            for c in live {
                for (si, sub) in c.subflows.iter().enumerate() {
                    if sub.dead {
                        continue;
                    }
                    tl.record(TraceRecord::SubflowSample {
                        t: now,
                        conn: u64::from(c.id.0),
                        subflow: si as u64,
                        cwnd: sub.cwnd,
                        srtt_ps: sub.srtt_ps,
                        in_flight: sub.in_flight(),
                    });
                }
            }
        }
        tl.last_sample_at = now;
        // Re-arm only while a flow is still live AND other events are
        // pending. The first guard stops the sampler once every flow has
        // finished (stale RTO timers may linger in the queue long after);
        // the second keeps the sampler from being the only thing driving
        // the clock forever. `start_flow` re-arms it when traffic returns.
        let live = !self.pending_complete.is_empty() || self.conn_slot.len() > self.records.len();
        if live && !self.events.is_empty() {
            tl.sampler_armed = true;
            self.events
                .schedule(now + interval, EventKind::TelemetrySample);
        } else {
            tl.sampler_armed = false;
        }
    }
}

/// Run the simulation until the event queue drains or `until` is reached.
/// Driver callbacks may start new flows and schedule new timers.
pub fn run(sim: &mut Simulator, driver: &mut dyn Driver, until: Option<SimTime>) {
    loop {
        // Deliver completions before advancing time further.
        sim.deliver_completions(driver);
        // With no horizon (the common case) popping directly saves a full
        // peek — queue emptiness is what `pop` reports anyway.
        let ev = if let Some(u) = until {
            let Some(t) = sim.events.peek_time() else {
                break;
            };
            if t > u {
                sim.now = u;
                break;
            }
            sim.events
                .pop()
                .expect("invariant: peek_time returned a pending event")
        } else {
            let Some(ev) = sim.events.pop() else {
                break;
            };
            ev
        };
        sim.now = ev.time;
        sim.dispatch(driver, ev.kind);
        // Batched dispatch: drain the same-timestamp cascade (departure →
        // arrival → departure at a slower link, ACK fan-out, ...) without
        // re-touching the queue head machinery. Two exits keep behaviour
        // identical to one-pop-per-iteration: a completion must reach the
        // driver *before* the next event (the driver may start flows, and
        // their event sequence numbers — hence all downstream tie-breaks —
        // depend on that ordering), and `pop_if_at` refuses any event not at
        // exactly `sim.now` (all ≤ `until` since `t` was). Time never
        // advances inside the batch, so `sim.now` stays correct.
        while sim.pending_complete.is_empty() {
            let Some(ev) = sim.events.pop_if_at(sim.now) else {
                break;
            };
            sim.dispatch(driver, ev.kind);
        }
    }
    sim.deliver_completions(driver);
    sim.assert_conservation();
}

/// Convenience: run with no driver.
pub fn run_to_completion(sim: &mut Simulator) {
    run(sim, &mut NullDriver, None);
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnet_routing::{host_route, RouteAlgo, Router};
    use pnet_topology::{assemble_homogeneous, FatTree, LinkProfile};

    fn net() -> pnet_topology::Network {
        assemble_homogeneous(&FatTree::three_tier(4), 2, &LinkProfile::paper_default())
    }

    fn route_for(
        net: &pnet_topology::Network,
        src: HostId,
        dst: HostId,
        plane: u16,
    ) -> Vec<LinkId> {
        let router = Router::new(net, RouteAlgo::Ksp { k: 1 });
        let (ra, rb) = (net.rack_of_host(src), net.rack_of_host(dst));
        let p = if ra == rb {
            pnet_routing::Path::intra_rack(pnet_topology::PlaneId(plane))
        } else {
            router
                .paths_in_plane(pnet_topology::PlaneId(plane), ra, rb)
                .get(0)
                .to_path()
        };
        host_route(net, src, dst, &p).unwrap()
    }

    #[test]
    fn single_packet_flow_completes() {
        let n = net();
        let mut sim = Simulator::new(&n, SimConfig::default());
        let route = route_for(&n, HostId(0), HostId(15), 0);
        sim.start_flow(FlowSpec {
            src: HostId(0),
            dst: HostId(15),
            size_bytes: 1000,
            routes: vec![route],
            cc: CcAlgo::Reno,
            owner_tag: 0,
        });
        run_to_completion(&mut sim);
        assert_eq!(sim.records.len(), 1);
        let r = &sim.records[0];
        // One MTU over 6 links (~4 us of propagation + serialization) plus
        // the ACK back: FCT should be ~2 one-way delays, well under 100 us.
        assert!(r.fct() > SimTime::ZERO);
        assert!(r.fct() < SimTime::from_us(100), "fct {}", r.fct());
        assert_eq!(r.retransmits, 0);
    }

    #[test]
    fn fct_scales_with_size_at_fixed_rate() {
        // A 12 Mbyte flow at 100G takes ~1 ms of serialization; FCT must be
        // at least size*8/rate.
        let n = net();
        let mut sim = Simulator::new(&n, SimConfig::default());
        let route = route_for(&n, HostId(0), HostId(15), 0);
        let size: u64 = 12_000_000;
        sim.start_flow(FlowSpec {
            src: HostId(0),
            dst: HostId(15),
            size_bytes: size,
            routes: vec![route],
            cc: CcAlgo::Reno,
            owner_tag: 0,
        });
        run_to_completion(&mut sim);
        let r = &sim.records[0];
        let wire_time_ps = size * 8 * 10; // ps on the wire at 100G: bits * (1e12/1e11)
        assert!(r.fct().as_ps() >= wire_time_ps, "fct {} too fast", r.fct());
        // ...and within 3x of it (slow start ramp + RTTs).
        assert!(
            r.fct().as_ps() < 3 * wire_time_ps,
            "fct {} too slow",
            r.fct()
        );
    }

    #[test]
    fn two_flows_share_a_bottleneck_fairly() {
        let n = net();
        let mut sim = Simulator::new(&n, SimConfig::default());
        // Both flows from hosts in rack 0 to the same destination host's
        // rack... use distinct destinations behind one ToR so the shared
        // bottleneck is the down-path into rack 7.
        let r1 = route_for(&n, HostId(0), HostId(14), 0);
        let r2 = route_for(&n, HostId(1), HostId(14), 0);
        // Same destination host => its downlink is the bottleneck.
        let size = 3_000_000u64;
        for (src, route) in [(HostId(0), r1), (HostId(1), r2)] {
            sim.start_flow(FlowSpec {
                src,
                dst: HostId(14),
                size_bytes: size,
                routes: vec![route],
                cc: CcAlgo::Reno,
                owner_tag: 0,
            });
        }
        run_to_completion(&mut sim);
        assert_eq!(sim.records.len(), 2);
        // Work conservation at the shared 100G bottleneck: 6 MB total must
        // take at least ~480 us end to end, so the last finisher cannot be
        // faster than that. (Per-flow fairness at identical start times is
        // subject to drop-tail phase effects, so we do not assert equality.)
        let wire = size * 8 * 10; // ps on the wire at 100G: bits * (1e12/1e11)
        let max_fct = sim.records.iter().map(|r| r.fct().as_ps()).max().unwrap();
        let min_fct = sim.records.iter().map(|r| r.fct().as_ps()).min().unwrap();
        assert!(
            max_fct > 19 * wire / 10,
            "last finisher {max_fct} beats the combined drain time"
        );
        assert!(min_fct >= wire, "a flow finished faster than its own bytes");
    }

    #[test]
    fn mptcp_two_planes_beats_single_path() {
        let n = net();
        let size = 6_000_000u64;
        // Single path.
        let mut sim1 = Simulator::new(&n, SimConfig::default());
        sim1.start_flow(FlowSpec {
            src: HostId(0),
            dst: HostId(15),
            size_bytes: size,
            routes: vec![route_for(&n, HostId(0), HostId(15), 0)],
            cc: CcAlgo::Reno,
            owner_tag: 0,
        });
        run_to_completion(&mut sim1);
        // Two subflows over two planes.
        let mut sim2 = Simulator::new(&n, SimConfig::default());
        sim2.start_flow(FlowSpec {
            src: HostId(0),
            dst: HostId(15),
            size_bytes: size,
            routes: vec![
                route_for(&n, HostId(0), HostId(15), 0),
                route_for(&n, HostId(0), HostId(15), 1),
            ],
            cc: CcAlgo::Lia,
            owner_tag: 0,
        });
        run_to_completion(&mut sim2);
        let f1 = sim1.records[0].fct();
        let f2 = sim2.records[0].fct();
        assert!(
            f2.as_ps() < f1.as_ps() * 7 / 10,
            "MPTCP {f2} not clearly faster than single-path {f1}"
        );
    }

    #[test]
    fn deterministic_replay() {
        let n = net();
        let mut fcts = Vec::new();
        for _ in 0..2 {
            let mut sim = Simulator::new(&n, SimConfig::default());
            for h in 0..8u32 {
                let src = HostId(h);
                let dst = HostId(15 - h);
                let route = route_for(&n, src, dst, (h % 2) as u16);
                sim.start_flow(FlowSpec {
                    src,
                    dst,
                    size_bytes: 500_000,
                    routes: vec![route],
                    cc: CcAlgo::Reno,
                    owner_tag: h as u64,
                });
            }
            run_to_completion(&mut sim);
            let v: Vec<u64> = sim.records.iter().map(|r| r.fct().as_ps()).collect();
            fcts.push(v);
        }
        assert_eq!(fcts[0], fcts[1]);
    }

    #[test]
    fn drops_recovered_under_heavy_incast() {
        // 8 senders incast into one host: buffers overflow, retransmits
        // happen, but all flows still complete.
        let n = net();
        let mut sim = Simulator::new(&n, SimConfig::default());
        for h in 1..9u32 {
            let src = HostId(h + 3); // hosts 4..12, different racks
            let route = route_for(&n, src, HostId(0), 0);
            sim.start_flow(FlowSpec {
                src,
                dst: HostId(0),
                size_bytes: 1_500_000,
                routes: vec![route],
                cc: CcAlgo::Reno,
                owner_tag: 0,
            });
        }
        run_to_completion(&mut sim);
        assert_eq!(sim.records.len(), 8, "not all incast flows completed");
        let rtx: u64 = sim.records.iter().map(|r| r.retransmits).sum();
        assert!(sim.dropped_packets > 0, "incast should overflow buffers");
        assert!(rtx > 0, "drops should force retransmissions");
    }

    #[test]
    fn dctcp_keeps_queues_short() {
        // 4-to-1 incast: DCTCP with ECN marking should keep the destination
        // downlink queue far below the drop-tail peak Reno produces, and
        // avoid (most) drops.
        let n = net();
        let srcs = [HostId(4), HostId(6), HostId(8), HostId(10)];
        let run_with = |cc: CcAlgo, ecn: Option<u32>| -> (u64, u64) {
            let cfg = SimConfig {
                ecn_threshold_packets: ecn,
                ..SimConfig::default()
            };
            let mut sim = Simulator::new(&n, cfg);
            for &src in &srcs {
                let route = route_for(&n, src, HostId(0), 0);
                sim.start_flow(FlowSpec {
                    src,
                    dst: HostId(0),
                    size_bytes: 3_000_000,
                    routes: vec![route],
                    cc,
                    owner_tag: 0,
                });
            }
            run_to_completion(&mut sim);
            assert_eq!(sim.records.len(), 4);
            // The merge point depends on the routes; report the hottest
            // queue in the network.
            let mut drops = 0;
            let mut peak = 0;
            for (id, _) in n.links() {
                let qs = sim.queue_stats(id);
                drops += qs.dropped;
                peak = peak.max(qs.peak_bytes);
            }
            (drops, peak)
        };
        let (reno_drops, reno_peak) = run_with(CcAlgo::Reno, None);
        let (dctcp_drops, dctcp_peak) = run_with(CcAlgo::Dctcp, Some(20));
        assert!(
            dctcp_peak < reno_peak / 2,
            "DCTCP peak queue {dctcp_peak} not well below Reno's {reno_peak}"
        );
        assert!(
            dctcp_drops <= reno_drops,
            "DCTCP drops {dctcp_drops} vs Reno {reno_drops}"
        );
    }

    #[test]
    fn connection_state_follows_live_flows_not_history() {
        use crate::apps::{ClosedLoopDriver, ClosedLoopSlot};
        /// Checks the driver's last look and tracks the peak of `live_conns`.
        struct Watch<'a>(ClosedLoopDriver<'a>, usize);
        impl Driver for Watch<'_> {
            fn on_flow_complete(&mut self, sim: &mut Simulator, rec: &FlowRecord) {
                let conn = sim.conn(rec.conn).expect("state kept until handed over");
                assert_eq!(conn.finish, Some(rec.finish));
                assert_eq!(sim.record(rec.conn).map(|r| r.finish), Some(rec.finish));
                self.0.on_flow_complete(sim, rec);
                self.1 = self.1.max(sim.live_conns());
            }
        }
        const SLOTS: u32 = 8;
        let n = net();
        let mut sim = Simulator::new(&n, SimConfig::default());
        // Eight back-to-back chains of short flows, alternating one subflow
        // with two, so a recycled slot's subflow table shrinks and regrows.
        let slots = (0..SLOTS)
            .map(|h| ClosedLoopSlot {
                src: HostId(h),
                next_dst: Box::new(move || HostId(15 - h)),
                next_size: Box::new(move || 3_000 + 1_500 * u64::from(h)),
            })
            .collect();
        let mut flip = false;
        let factory = Box::new(|src, dst, _size| {
            flip = !flip;
            let mut routes = vec![route_for(&n, src, dst, 0)];
            if flip {
                routes.push(route_for(&n, src, dst, 1));
            }
            (routes, CcAlgo::Lia)
        });
        let chains = ClosedLoopDriver::start(&mut sim, slots, factory, SimTime::from_ms(3));
        let mut watch = Watch(chains, sim.live_conns());
        run(&mut sim, &mut watch, None);
        assert!(sim.n_conns() >= 2_000, "only {} flows ran", sim.n_conns());
        assert_eq!(sim.records.len(), sim.n_conns());
        assert_eq!(
            sim.live_conns(),
            0,
            "a drained run keeps no transport state"
        );
        // A finished flow is still live while its successor starts, hence +1.
        assert!(watch.1 <= SLOTS as usize + 1, "peak {} live", watch.1);
        assert!(sim.conn_slab_capacity() <= watch.1);
        assert!(sim.conn(ConnId(0)).is_none() && sim.record(ConnId(0)).is_some());
    }

    #[test]
    fn app_timer_fires() {
        struct T {
            fired: Vec<(u32, u64)>,
        }
        impl Driver for T {
            fn on_app_timer(&mut self, _sim: &mut Simulator, app: u32, tag: u64) {
                self.fired.push((app, tag));
            }
        }
        let n = net();
        let mut sim = Simulator::new(&n, SimConfig::default());
        sim.schedule_app(SimTime::from_us(5), 1, 42);
        sim.schedule_app(SimTime::from_us(2), 0, 7);
        let mut d = T { fired: vec![] };
        run(&mut sim, &mut d, None);
        assert_eq!(d.fired, vec![(0, 7), (1, 42)]);
        assert_eq!(sim.now, SimTime::from_us(5));
    }

    #[test]
    fn run_until_stops_early() {
        let n = net();
        let mut sim = Simulator::new(&n, SimConfig::default());
        sim.start_flow(FlowSpec {
            src: HostId(0),
            dst: HostId(15),
            size_bytes: 120_000_000, // 1 Gbit: ~10 ms at 100G
            routes: vec![route_for(&n, HostId(0), HostId(15), 0)],
            cc: CcAlgo::Reno,
            owner_tag: 0,
        });
        run(&mut sim, &mut NullDriver, Some(SimTime::from_us(50)));
        assert!(sim.records.is_empty());
        assert_eq!(sim.now, SimTime::from_us(50));
    }
}
