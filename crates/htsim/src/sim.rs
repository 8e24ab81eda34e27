//! The discrete-event simulation engine.
//!
//! A [`Simulator`] owns one drop-tail [`Queue`] per directed link of the
//! network and a recycled slab of live [`Connection`]s. Packets are
//! source-routed by the sending host (the P-Net model: path choice happens
//! at the edge), traverse queue → propagation → queue …, and are delivered
//! to the peer's transport state at the destination. Every sender state
//! transition lives in [`crate::tcp`]; the engine hands it ACKs, timer
//! expiries and send opportunities, then schedules, sends and traces what
//! it answers.
//!
//! Application logic lives *outside* the simulator, behind the [`Driver`]
//! trait: the run loop hands flow completions and app timers to the driver,
//! which may start new flows — this is how closed-loop workloads, RPC
//! ping-pong, and the Hadoop stages are built without `Rc<RefCell>` webs.

use crate::event::{EventKind, EventQueue};
use crate::packet::{ConnId, Packet, PacketArena, PacketId, ACK_BYTES, MTU_BYTES};
use crate::queue::{Enqueue, Entry, Queue};
use crate::tcp::{AckVerdict, CcAlgo, Connection, Rto, Subflow, TcpConfig};
use crate::telemetry::{EventMask, Telemetry, TelemetryConfig, TraceRecord};
use crate::time::SimTime;
use pnet_topology::{HostId, LinkId, Network};

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

/// Completion record of a finished flow. The simulator hands it to
/// [`Driver::on_flow_complete`] by value; whoever keeps it owns the one copy.
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
    /// Subflow ids are `u8`, so this always fits.
    pub n_subflows: u16,
    /// Fewest switch hops among the subflow routes (a packet's hop index is
    /// a `u16`).
    pub min_switch_hops: u16,
    pub owner_tag: u64,
}

// Open-loop runs keep tens of thousands of these.
const _: () = assert!(std::mem::size_of::<FlowRecord>() == 64);
// `packet_bulk` holds 189 k packets in flight at its peak: each costs its
// arena slot and, while buffered, one FIFO entry.
const _: () = assert!(std::mem::size_of::<Packet>() == 24);
const _: () = assert!(std::mem::size_of::<Entry>() == 4);

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
    /// The record is the driver's to keep; the default appends it to
    /// [`Simulator::records`].
    fn on_flow_complete(&mut self, sim: &mut Simulator, rec: FlowRecord) {
        sim.records.push(rec);
    }
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

/// "No slot" per [`ConnId`]: past the end of the slab, so `get` finds nothing.
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
    /// Connections not yet retired (DESIGN.md "Connection lifetime"). Freed
    /// slots are reused LIFO, subflow tables and buffers included; until
    /// then they keep their last tenant (`finish` set, `in_network` zero).
    slab: Vec<Connection>,
    free_slots: Vec<usize>,
    cfg: SimConfig,
    /// Completion records the driver handed back (every one, unless it
    /// overrides [`Driver::on_flow_complete`]), in completion order.
    pub records: Vec<FlowRecord>,
    /// The completion not yet delivered to the driver: one event finishes
    /// at most one flow, and the run loop delivers before the next event.
    pending_complete: Option<FlowRecord>,
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
            slab: Vec::new(),
            free_slots: Vec::new(),
            cfg,
            records: Vec::new(),
            pending_complete: None,
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
    /// [`FlowRecord`] and [`TraceRecord::SubflowFinish`] are what is left,
    /// and for an id this simulator never handed out.
    pub fn conn(&self, id: ConnId) -> Option<&Connection> {
        let slot = *self.conn_slot.get(id.0 as usize)?;
        self.slab.get(slot as usize)
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
            assert!(
                r.len() <= usize::from(u16::MAX),
                "a packet's hop index is u16"
            );
            if si == subflows.len() {
                subflows.push(Subflow::new(Vec::new(), &self.cfg.tcp));
            }
            subflows[si].recycle(r, self.window_cap(r), self.now, &self.cfg.tcp);
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

    /// Hand the packet in arena slot `id` to `link`, the next link on its
    /// route, which the caller has resolved. On a drop the slot is freed
    /// immediately — ids never dangle.
    fn send_packet(&mut self, id: PacketId, link: LinkId) {
        let trace_ecn = self.wants(EventMask::ECN_MARK);
        // One arena access for the whole hop: `queues` and `packets` are
        // disjoint fields, so the packet borrow spans the enqueue.
        let p = &mut self.packets[id];
        if p.hop == 0 {
            self.ledger_injected += 1;
        }
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
        // Read before `free`, which threads the free list through `slot`.
        let ci = self.packets[id].slot as usize;
        self.packets.free(id);
        self.left_network(ci);
    }

    /// One of slot `ci`'s packets left the network (ACK delivered, any
    /// packet dropped). True while the connection is still transferring; a
    /// finished one retires with its last packet (`run` has told the driver
    /// by then).
    fn left_network(&mut self, ci: usize) -> bool {
        let c = &mut self.slab[ci];
        c.in_network -= 1;
        if c.finish.is_none() {
            return true;
        }
        if c.in_network == 0 {
            self.retire(ci);
        }
        false
    }

    /// Release a finished, drained connection's slot for the next flow.
    fn retire(&mut self, ci: usize) {
        let c = &self.slab[ci];
        debug_assert!(c.finish.is_some());
        debug_assert_ne!(self.pending_complete.as_ref().map(|r| r.conn), Some(c.id));
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
        // The packet pins its connection's slot, so the route is there.
        let p = self.packets[id];
        let sub = &self.slab[p.slot as usize].subflows[usize::from(p.subflow)];
        if let Some(link) = p.next_link(&sub.route) {
            self.send_packet(id, link);
            return;
        }
        self.ledger_delivered += 1;
        // Delivered: recycle the slot before transport processing (which may
        // immediately reuse it for the ACK or the next window of data).
        self.packets.free(id);
        if p.has(Packet::ACK) {
            self.on_ack(p);
        } else {
            self.on_data(p);
        }
    }

    fn on_data(&mut self, data: Packet) {
        // Duplicate data landing after `finish` is ACKed like any other; the
        // ACK inherits the data packet's `in_network` count and pins on.
        let sub = &mut self.slab[data.slot as usize].subflows[usize::from(data.subflow)];
        let cum = sub.receive_data(data.seq);
        let link = sub.route[sub.route.len() - 1].reverse();
        let id = self.packets.alloc(Packet {
            seq: cum,
            hop: 0,
            // Echo the timestamp, the retransmission flag and the CE mark.
            flags: Packet::ACK | data.flags,
            ..data
        });
        self.send_packet(id, link);
    }

    fn on_ack(&mut self, ack: Packet) {
        let ci = ack.slot as usize;
        if !self.left_network(ci) {
            return; // late ACK after completion
        }
        match self.slab[ci].on_ack(ack, self.now, &self.cfg.tcp) {
            AckVerdict::Ignore => {}
            AckVerdict::Finish => self.finish_conn(ci),
            AckVerdict::Pump => self.pump(ci),
        }
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
            n_subflows: u16::try_from(c.subflows.len()).expect("invariant: subflow ids are u8"),
            min_switch_hops: c
                .subflows
                .iter()
                .map(|s| u16::try_from(s.route.len() - 1).expect("invariant: routes fit a u16 hop"))
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
        debug_assert!(
            self.pending_complete.is_none(),
            "two flows finished without a delivery between them"
        );
        self.pending_complete = Some(rec);
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
                while let Some((seq, rtx)) = self.slab[ci].next_send(si, self.now) {
                    self.transmit(ci, si, seq, rtx);
                    progress = true;
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

    /// Put slot `ci`'s packet `seq` on subflow `si`'s first link.
    fn transmit(&mut self, ci: usize, si: usize, seq: u64, rtx: bool) {
        let now = self.now;
        let c = &mut self.slab[ci];
        c.in_network += 1;
        let (conn, link) = (c.id, c.subflows[si].route[0]);
        if rtx && self.wants(EventMask::RETRANSMIT) {
            self.emit(TraceRecord::Retransmit {
                t: now,
                conn: u64::from(conn.0),
                subflow: si as u64,
                seq,
            });
        }
        let id = self.packets.alloc(Packet {
            slot: u32::try_from(ci).expect("invariant: slots <= connections"),
            hop: 0,
            subflow: u8::try_from(si).expect("invariant: subflow count stays within u8"),
            flags: if rtx { Packet::RTX } else { 0 },
            seq,
            ts: now,
        });
        self.send_packet(id, link);
    }

    fn arm_timer(&mut self, ci: usize, si: usize) {
        let c = &mut self.slab[ci];
        let (deadline, token) = c.subflows[si].arm_timer(self.now, &self.cfg.tcp);
        let subflow = u8::try_from(si).expect("invariant: subflow count stays within u8");
        let kind = EventKind::RtoTimer {
            conn: c.id,
            subflow,
            token,
        };
        self.events.schedule(deadline, kind);
    }

    fn on_rto(&mut self, conn: ConnId, subflow: u8, token: u64) {
        let ci = self.conn_slot[conn.0 as usize] as usize;
        let si = usize::from(subflow);
        // The timer of a finished, possibly retired, connection is stale.
        let Some(c) = self.slab.get_mut(ci).filter(|c| c.finish.is_none()) else {
            return;
        };
        let (backoff, reclaimed) = match c.on_timeout(si, token, self.now, &self.cfg.tcp) {
            Rto::Ignore => return,
            Rto::Rearm(deadline) => {
                let kind = EventKind::RtoTimer {
                    conn,
                    subflow,
                    token,
                };
                self.events.schedule(deadline, kind);
                return;
            }
            Rto::Fired { backoff, reclaimed } => (backoff, reclaimed),
        };
        let (t, conn, subflow) = (self.now, u64::from(conn.0), u64::from(subflow));
        if self.wants(EventMask::TIMEOUT) {
            let backoff = u64::from(backoff);
            self.emit(TraceRecord::Timeout {
                t,
                conn,
                subflow,
                backoff,
            });
        }
        if let Some(reclaimed) = reclaimed.filter(|_| self.wants(EventMask::SUBFLOW_DEAD)) {
            self.emit(TraceRecord::SubflowDead {
                t,
                conn,
                subflow,
                reclaimed,
            });
        }
        self.pump(ci);
        // A dead subflow gets no timer.
        if reclaimed.is_none() && !self.slab[ci].subflows[si].timer_armed {
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

    /// Hand the completion not yet delivered to the driver.
    fn deliver_completions(&mut self, driver: &mut dyn Driver) {
        if let Some(rec) = self.pending_complete.take() {
            let ci = self.conn_slot[rec.conn.0 as usize] as usize;
            driver.on_flow_complete(self, rec);
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
        let live = self.pending_complete.is_some() || self.slab.iter().any(|c| c.finish.is_none());
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
        // A completion reaches the driver before the next event: flows it
        // starts take their event sequence numbers, and so every later
        // tie-break, from here.
        sim.deliver_completions(driver);
        if let Some(u) = until {
            match sim.events.peek_time() {
                None => break,
                Some(t) if t > u => {
                    sim.now = u;
                    break;
                }
                Some(_) => {}
            }
        }
        let Some(ev) = sim.events.pop() else {
            break;
        };
        sim.now = ev.time;
        sim.dispatch(driver, ev.kind);
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
            fn on_flow_complete(&mut self, sim: &mut Simulator, rec: FlowRecord) {
                let conn = sim.conn(rec.conn).expect("state kept until handed over");
                assert_eq!(conn.finish, Some(rec.finish));
                let (id, finish) = (rec.conn, rec.finish);
                self.0.on_flow_complete(sim, rec);
                let kept = self.0.completed.last().map(|r| (r.conn, r.finish));
                assert_eq!(kept, Some((id, finish)));
                assert!(sim.records.is_empty(), "the driver owns the record");
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
        assert_eq!(watch.0.completed.len(), sim.n_conns());
        assert!(sim.records.is_empty());
        assert_eq!(
            sim.live_conns(),
            0,
            "a drained run keeps no transport state"
        );
        // A finished flow is still live while its successor starts, hence +1.
        assert!(watch.1 <= SLOTS as usize + 1, "peak {} live", watch.1);
        assert!(sim.conn_slab_capacity() <= watch.1);
        assert!(sim.conn(ConnId(0)).is_none());
        assert!(watch.0.completed.iter().any(|r| r.conn == ConnId(0)));
    }

    #[test]
    fn an_id_never_handed_out_has_no_connection_and_no_record() {
        let n = net();
        let mut sim = Simulator::new(&n, SimConfig::default());
        let unissued = |sim: &Simulator| ConnId(u32::try_from(sim.n_conns()).unwrap());
        let recorded = |sim: &Simulator, id| sim.records.iter().any(|r| r.conn == id);
        assert!(sim.conn(unissued(&sim)).is_none());
        let routes = vec![route_for(&n, HostId(0), HostId(15), 0)];
        sim.start_flow(FlowSpec {
            src: HostId(0),
            dst: HostId(15),
            size_bytes: 3_000,
            routes,
            cc: CcAlgo::Reno,
            owner_tag: 0,
        });
        run_to_completion(&mut sim);
        assert!(recorded(&sim, ConnId(0)));
        assert!(sim.conn(unissued(&sim)).is_none());
        assert!(!recorded(&sim, unissued(&sim)));
        assert!(sim.conn(ConnId(u32::MAX)).is_none());
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
