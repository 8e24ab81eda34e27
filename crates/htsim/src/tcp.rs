//! TCP and MPTCP sender/receiver state, and every transition of it.
//!
//! The transport model is packet-granular, as in htsim: sequence numbers
//! count MTU-sized packets, ACKs are cumulative per subflow, and congestion
//! windows are real-valued packet counts. Three congestion controllers are
//! provided:
//!
//! * [`CcAlgo::Reno`] — NewReno-style slow start / AIMD / fast retransmit
//!   with window inflation (the paper's "TCP"; over several routes, uncoupled
//!   MPTCP);
//! * [`CcAlgo::Lia`] — the MPTCP Linked-Increases Algorithm of RFC 6356 /
//!   Wischik et al. \[43\], coupling the additive increase across subflows
//!   (the paper's "MPTCP");
//! * [`CcAlgo::Dctcp`] — ECN-driven, fraction-proportional window cuts.
//!
//! A connection with one subflow under `Reno` is plain TCP; a connection
//! with K subflows under `Lia` is MPTCP over K paths. The retransmission
//! timer uses the paper's datacenter tuning (10 ms minimum RTO, following
//! DCTCP \[6\]).
//!
//! This module owns the state machine; the engine (`sim.rs`) owns events,
//! queues, packets and telemetry. Three entry points change sender state,
//! and each tells the engine what to do next:
//!
//! * `Connection::on_ack` — RTT sample, NewReno fast retransmit and partial
//!   ACKs, slow start, the Reno/LIA increase and the DCTCP cut; the flow
//!   finishes, or the engine pumps.
//! * `Connection::on_timeout` — the lazy re-arm, backoff, the go-back-N
//!   rewind, and a dead subflow's reclaimed data.
//! * `Connection::next_send` — the pump's next packet on a subflow: point
//!   retransmits, then go-back-N resends, then fresh data.

use crate::packet::{ConnId, Packet};
use crate::time::SimTime;
use pnet_topology::{HostId, LinkId};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Congestion-control algorithm of a connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CcAlgo {
    /// NewReno single-path behaviour on every subflow: standard TCP with one
    /// subflow, uncoupled MPTCP with several.
    Reno,
    /// RFC 6356 Linked Increases (MPTCP's coupled congestion control).
    Lia,
    /// DCTCP (Alizadeh et al., SIGCOMM 2010 \[6\]): ECN-based congestion
    /// control with a fraction-proportional window cut. The incast-aware
    /// transport the paper points to for P-Net incast scenarios (section
    /// 6.5). Requires queues with an ECN marking threshold
    /// ([`crate::SimConfig::ecn_threshold_packets`]); on unmarked queues it
    /// behaves like Reno.
    Dctcp,
}

/// Transport tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct TcpConfig {
    /// Initial congestion window, packets.
    pub initial_cwnd: f64,
    /// Minimum retransmission timeout (the paper tunes this to 10 ms).
    pub min_rto: SimTime,
    /// Maximum retransmission timeout (with backoff).
    pub max_rto: SimTime,
    /// Fallback RTT estimate before the first sample, used by LIA's alpha.
    pub default_rtt: SimTime,
    /// A multipath subflow that reaches this many consecutive timeout
    /// backoffs is declared dead; its unacknowledged data is re-injected
    /// onto the surviving subflows (MPTCP's path-failure handling, the
    /// mechanism behind the paper's "graceful performance degradation" on
    /// plane failures). Single-subflow connections never die this way.
    pub dead_after_backoff: u32,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            initial_cwnd: 10.0,
            min_rto: SimTime::from_ms(10),
            max_rto: SimTime::from_secs(1),
            default_rtt: SimTime::from_us(20),
            dead_after_backoff: 3,
        }
    }
}

/// One subflow: a fixed path with its own sequence space, window, and timer.
///
/// `repr(C)` pins the declaration order in memory: at paper scale the
/// subflow table far exceeds L2, so every ACK faults this struct in cold.
/// The cumulative-ACK path (advance `snd_una`, window check, congestion
/// update, progress stamp) reads exactly the first 64 bytes — one cache
/// line instead of the four-to-five a field-order-agnostic layout touches.
#[derive(Debug)]
#[repr(C)]
pub struct Subflow {
    // --- sender state (hot ACK path: keep within the first cache line) ---
    /// First unacknowledged sequence.
    pub snd_una: u64,
    /// Everything in `snd_una..resend_high` is believed in flight. Normally
    /// equals `highest_sent`; an RTO rewinds it to `snd_una` so the pump
    /// go-back-N resends the presumed-lost window under slow start instead
    /// of stalling behind a closed window.
    pub resend_high: u64,
    /// Next subflow sequence to assign (== packets this subflow has ever
    /// sent fresh).
    pub highest_sent: u64,
    pub cwnd: f64,
    pub ssthresh: f64,
    /// Flow-control bound on the window: the path's bandwidth-delay product
    /// plus one buffer's worth of packets (a receiver window tuned to
    /// pipe + queue, which is how htsim experiments avoid pathological
    /// slow-start overshoot with cumulative-ACK NewReno).
    pub cwnd_cap: f64,
    /// Time of the last forward progress (fresh data out or new data acked);
    /// the lazy RTO measures its deadline from here. Kept on the subflow so
    /// the ACK path touches one cache line, not a separate side table.
    pub last_progress: SimTime,
    /// Recovery ends when `snd_una` passes this point.
    pub recover: u64,

    // --- second line: loss handling and the timer ---
    pub dupacks: u32,
    pub backoff: u32,
    pub in_recovery: bool,
    /// True once the subflow is declared dead (persistent path failure);
    /// it sends nothing further and its outstanding data was re-injected
    /// onto sibling subflows.
    pub dead: bool,
    pub rtt_valid: bool,
    pub timer_armed: bool,
    /// Token identifying the currently armed timer; stale timer events are
    /// dropped.
    pub timer_token: u64,
    pub rto: SimTime,
    pub srtt_ps: f64,
    pub rttvar_ps: f64,
    /// Sequences queued for retransmission.
    pub rtx_queue: VecDeque<u64>,

    // --- DCTCP state (used only under [`CcAlgo::Dctcp`]) ---
    /// EWMA of the marked fraction (initialised to 1.0 per the paper, so an
    /// early mark is treated conservatively).
    pub dctcp_alpha: f64,
    /// Packets acked in the current observation window.
    pub dctcp_acked: u64,
    /// Of those, packets whose ACK carried ECN-Echo.
    pub dctcp_marked: u64,
    /// The observation window ends when `snd_una` passes this sequence.
    /// Seeded by `Connection::next_send` to cover the whole initial flight
    /// (left at 0 the very first ACK would close a degenerate one-sample
    /// window).
    pub dctcp_window_end: u64,
    /// At most one multiplicative cut per window.
    pub dctcp_cut_this_window: bool,
    /// Lifetime count of duplicate ACKs that carried ECN-Echo (never reset;
    /// regression guard that dupack marks enter the accounting).
    pub dctcp_dupack_marks: u64,

    // --- receiver state (the peer's side of this subflow) ---
    pub rcv_next: u64,
    /// Out-of-order sequences received past `rcv_next`, as a min-heap. May
    /// hold duplicates (spurious retransmissions of buffered segments); the
    /// drain loop in [`Subflow::receive_data`] discards them, so the
    /// cumulative ACK sequence is identical to a set's. Contiguous storage:
    /// no per-node allocation under loss, unlike a `BTreeSet`.
    pub ooo: BinaryHeap<Reverse<u64>>,

    // --- statistics ---
    pub retransmits: u64,
    pub timeouts: u64,
    pub packets_sent: u64,

    // --- route (read once per hop by the subflow's packets, which carry
    //     only their hop index; never read on the ACK fast path) ---
    /// Forward route (data direction); ACKs walk it backwards, each link
    /// reversed.
    pub route: Vec<LinkId>,
}

impl Subflow {
    /// Fresh subflow over `route`.
    pub fn new(route: Vec<LinkId>, cfg: &TcpConfig) -> Self {
        Subflow {
            route,
            cwnd: cfg.initial_cwnd,
            ssthresh: f64::INFINITY,
            cwnd_cap: f64::INFINITY,
            highest_sent: 0,
            snd_una: 0,
            resend_high: 0,
            dupacks: 0,
            in_recovery: false,
            recover: 0,
            rtx_queue: VecDeque::new(),
            dead: false,
            srtt_ps: 0.0,
            rttvar_ps: 0.0,
            rtt_valid: false,
            rto: cfg.min_rto,
            backoff: 0,
            timer_token: 0,
            timer_armed: false,
            last_progress: SimTime::ZERO,
            dctcp_alpha: 1.0,
            dctcp_acked: 0,
            dctcp_marked: 0,
            dctcp_window_end: 0,
            dctcp_cut_this_window: false,
            dctcp_dupack_marks: 0,
            rcv_next: 0,
            ooo: BinaryHeap::new(),
            retransmits: 0,
            timeouts: 0,
            packets_sent: 0,
        }
    }

    /// Become a fresh subflow over `route` (its reverse carries the ACKs),
    /// starting at `now` under window cap `cwnd_cap`, and keeping this
    /// subflow's buffers: the retransmit queue, the reorder heap and the
    /// route. How a retired connection's slot is reused; once the buffers
    /// are warm, it allocates nothing.
    pub fn recycle(&mut self, route: &[LinkId], cwnd_cap: f64, now: SimTime, cfg: &TcpConfig) {
        let old = std::mem::replace(self, Subflow::new(Vec::new(), cfg));
        (self.cwnd_cap, self.last_progress) = (cwnd_cap, now);
        (self.rtx_queue, self.ooo, self.route) = (old.rtx_queue, old.ooo, old.route);
        self.rtx_queue.clear();
        self.ooo.clear();
        self.route.clear();
        self.route.extend_from_slice(route);
    }

    /// Packets believed in flight (the pipe estimate; rewound by RTOs).
    #[inline]
    pub fn in_flight(&self) -> u64 {
        self.resend_high - self.snd_una
    }

    /// Packets outstanding by sequence horizon (ignores RTO rewinds); used
    /// to decide whether the subflow still owes the receiver anything.
    #[inline]
    pub fn outstanding(&self) -> u64 {
        self.highest_sent - self.snd_una
    }

    /// Can this subflow transmit one more packet under its window?
    #[inline]
    pub fn window_open(&self) -> bool {
        !self.dead && (self.in_flight() as f64) < self.cwnd.min(self.cwnd_cap).max(1.0).floor()
    }

    /// RFC 6298 RTT update; returns the new RTO.
    pub fn rtt_sample(&mut self, sample_ps: u64, cfg: &TcpConfig) {
        let s = sample_ps as f64;
        if !self.rtt_valid {
            self.srtt_ps = s;
            self.rttvar_ps = s / 2.0;
            self.rtt_valid = true;
        } else {
            self.rttvar_ps = 0.75 * self.rttvar_ps + 0.25 * (self.srtt_ps - s).abs();
            self.srtt_ps = 0.875 * self.srtt_ps + 0.125 * s;
        }
        #[expect(
            clippy::cast_possible_truncation,
            reason = "float-to-int `as` saturates; the clamp to [min_rto, max_rto] follows"
        )]
        let rto_ps = (self.srtt_ps + 4.0 * self.rttvar_ps) as u64;
        self.rto = SimTime::from_ps(rto_ps).max(cfg.min_rto).min(cfg.max_rto);
    }

    /// Arm the retransmission timer at `now`: its deadline, and the token
    /// that tells this arming from stale ones.
    pub(crate) fn arm_timer(&mut self, now: SimTime, cfg: &TcpConfig) -> (SimTime, u64) {
        self.timer_token += 1;
        self.timer_armed = true;
        (now + self.effective_rto(cfg), self.timer_token)
    }

    /// Effective timeout with exponential backoff.
    pub fn effective_rto(&self, cfg: &TcpConfig) -> SimTime {
        let shifted = self.rto.as_ps().saturating_shl(self.backoff.min(10));
        SimTime::from_ps(shifted).min(cfg.max_rto)
    }

    /// RTT estimate used for LIA (falls back to the configured default).
    pub fn rtt_estimate_ps(&self, cfg: &TcpConfig) -> f64 {
        if self.rtt_valid {
            self.srtt_ps.max(1.0)
        } else {
            cfg.default_rtt.as_ps() as f64
        }
    }

    /// DCTCP processing of an acknowledgment that advanced `snd_una` by
    /// `newly` packets to `cum`, with ECN-Echo `ece` (DCTCP's g = 1/16).
    /// Returns true if the window must be cut multiplicatively
    /// (`cwnd *= 1 - alpha/2`), which the caller applies.
    pub fn dctcp_on_ack(&mut self, newly: u64, ece: bool, cum: u64) -> bool {
        const G: f64 = 1.0 / 16.0;
        self.dctcp_acked += newly;
        if ece {
            self.dctcp_marked += newly;
        }
        let cut = ece && !self.dctcp_cut_this_window;
        if cut {
            self.dctcp_cut_this_window = true;
        }
        if cum >= self.dctcp_window_end {
            if self.dctcp_acked > 0 {
                let f = self.dctcp_marked as f64 / self.dctcp_acked as f64;
                self.dctcp_alpha = (1.0 - G) * self.dctcp_alpha + G * f;
            }
            self.dctcp_acked = 0;
            self.dctcp_marked = 0;
            self.dctcp_window_end = self.highest_sent;
            self.dctcp_cut_this_window = false;
        }
        cut
    }

    /// DCTCP processing of a duplicate ACK. A dupack still acknowledges the
    /// arrival of one data packet, and its ECN-Echo carries that packet's CE
    /// mark — both must enter the observation-window accounting or the
    /// marked fraction is understated exactly when the network is congested
    /// enough to reorder or drop. No cut and no window close here: those
    /// stay on the cumulative-ACK path.
    pub fn dctcp_on_dupack(&mut self, ece: bool) {
        self.dctcp_acked += 1;
        if ece {
            self.dctcp_marked += 1;
            self.dctcp_dupack_marks += 1;
        }
    }

    /// Receiver-side processing of an arriving data sequence. Returns the
    /// cumulative ACK value to send.
    pub fn receive_data(&mut self, seq: u64) -> u64 {
        if seq == self.rcv_next {
            self.rcv_next += 1;
            while let Some(&Reverse(m)) = self.ooo.peek() {
                if m > self.rcv_next {
                    break;
                }
                // m == rcv_next extends the in-order prefix; m < rcv_next is
                // a duplicate of an already-consumed buffered segment.
                if m == self.rcv_next {
                    self.rcv_next += 1;
                }
                self.ooo.pop();
            }
        } else if seq > self.rcv_next {
            self.ooo.push(Reverse(seq));
        }
        // seq < rcv_next: spurious retransmission, still ACK cumulatively.
        self.rcv_next
    }
}

trait SaturatingShl {
    fn saturating_shl(self, n: u32) -> Self;
}
impl SaturatingShl for u64 {
    fn saturating_shl(self, n: u32) -> u64 {
        if n >= 64 || self > (u64::MAX >> n) {
            u64::MAX
        } else {
            self << n
        }
    }
}

/// A (possibly multipath) connection transferring a fixed number of packets.
#[derive(Debug)]
pub struct Connection {
    pub id: ConnId,
    pub src: HostId,
    pub dst: HostId,
    pub cc: CcAlgo,
    /// Total packets to transfer.
    pub size_packets: u64,
    /// Requested transfer size in bytes (the wire moves `size_packets` whole
    /// MTUs; completion records report this exact figure).
    pub size_bytes: u64,
    /// Packets assigned to subflows so far.
    pub assigned: u64,
    /// Packets cumulatively acknowledged across subflows.
    pub acked: u64,
    pub start: SimTime,
    pub finish: Option<SimTime>,
    pub subflows: Vec<Subflow>,
    /// Round-robin pointer for packet assignment.
    pub rr: usize,
    /// Application owner tag (delivered on completion).
    pub owner_tag: u64,
    /// This connection's packets (data and ACKs) in queues or on the wire;
    /// they pin its state past `finish` (duplicate data is still ACKed).
    pub in_network: u32,
}

impl Connection {
    /// Total retransmissions across subflows.
    pub fn retransmits(&self) -> u64 {
        self.subflows.iter().map(|s| s.retransmits).sum()
    }

    /// Total timeouts across subflows.
    pub fn timeouts(&self) -> u64 {
        self.subflows.iter().map(|s| s.timeouts).sum()
    }

    /// The LIA alpha parameter (RFC 6356): α = cwnd_total ·
    /// max_i(cwndᵢ/rttᵢ²) / (Σᵢ cwndᵢ/rttᵢ)².
    pub fn lia_alpha(&self, cfg: &TcpConfig) -> f64 {
        let live = || self.subflows.iter().filter(|s| !s.dead);
        let total: f64 = live().map(|s| s.cwnd).sum();
        let mut max_term: f64 = 0.0;
        let mut sum_term: f64 = 0.0;
        for s in live() {
            let rtt = s.rtt_estimate_ps(cfg);
            max_term = max_term.max(s.cwnd / (rtt * rtt));
            sum_term += s.cwnd / rtt;
        }
        if sum_term <= 0.0 {
            return 1.0;
        }
        (total * max_term / (sum_term * sum_term)).max(f64::MIN_POSITIVE)
    }

    /// Congestion-avoidance increase for one acked packet on subflow `i`.
    pub fn ca_increase(&self, i: usize, cfg: &TcpConfig) -> f64 {
        let sub = &self.subflows[i];
        match self.cc {
            CcAlgo::Reno | CcAlgo::Dctcp => 1.0 / sub.cwnd.max(1.0),
            CcAlgo::Lia => {
                let total: f64 = self
                    .subflows
                    .iter()
                    .filter(|s| !s.dead)
                    .map(|s| s.cwnd)
                    .sum();
                let alpha = self.lia_alpha(cfg);
                (alpha / total.max(1.0)).min(1.0 / sub.cwnd.max(1.0))
            }
        }
    }
}

/// What the engine does after [`Connection::on_ack`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AckVerdict {
    /// Nothing: the subflow is dead, its data re-injected elsewhere.
    Ignore,
    /// Every packet is acknowledged: the flow completes.
    Finish,
    /// Send what the windows now allow.
    Pump,
}

/// What the engine does after [`Connection::on_timeout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Rto {
    /// Nothing: a stale token, or nothing outstanding (the timer disarms).
    Ignore,
    /// Progress since arming: the same timer again at this deadline.
    Rearm(SimTime),
    /// A genuine timeout, now at this backoff: trace it and pump. With
    /// `reclaimed`, the subflow died and handed back that many packets; it
    /// gets no timer. Else the timer re-arms unless the pump armed it.
    Fired {
        backoff: u32,
        reclaimed: Option<u64>,
    },
}

impl Connection {
    /// Sender side of `ack`, arriving at `now` on its subflow.
    pub(crate) fn on_ack(&mut self, ack: Packet, now: SimTime, cfg: &TcpConfig) -> AckVerdict {
        let (cum, ece) = (ack.seq, ack.has(Packet::CE));
        let (si, cc) = (usize::from(ack.subflow), self.cc);
        // One borrow of the subflow for the whole handler: ACKs are about
        // half of all events.
        let sub = &mut self.subflows[si];
        if sub.dead {
            return AckVerdict::Ignore;
        }
        // RTT sample (Karn: never from retransmitted segments).
        if !ack.has(Packet::RTX) {
            sub.rtt_sample(now.saturating_sub(ack.ts).as_ps(), cfg);
        }
        let snd_una = sub.snd_una;
        if cum > snd_una {
            let newly = cum - snd_una;
            sub.snd_una = cum;
            sub.resend_high = sub.resend_high.max(cum);
            sub.backoff = 0;
            sub.last_progress = now;
            self.acked += newly;
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
                // DCTCP: a fraction-proportional cut, at most once per
                // observation window; the additive increase follows as Reno's.
                if cc == CcAlgo::Dctcp && sub.dctcp_on_ack(newly, ece, cum) {
                    sub.cwnd = (sub.cwnd * (1.0 - sub.dctcp_alpha / 2.0)).max(1.0);
                    sub.ssthresh = sub.cwnd; // leave slow start
                }
                for _ in 0..newly {
                    let s = &self.subflows[si];
                    let inc = if s.cwnd < s.ssthresh {
                        1.0 // slow start
                    } else {
                        self.ca_increase(si, cfg)
                    };
                    self.subflows[si].cwnd += inc;
                }
            }
        } else if cum == snd_una && sub.outstanding() > 0 {
            // DCTCP: a dupack still acknowledges one received data packet and
            // carries its CE mark, which must enter the marked fraction.
            if cc == CcAlgo::Dctcp {
                sub.dctcp_on_dupack(ece);
            }
            sub.dupacks += 1;
            if sub.dupacks == 3 && !sub.in_recovery {
                sub.ssthresh = (sub.in_flight() as f64 / 2.0).max(2.0);
                sub.in_recovery = true;
                sub.recover = sub.highest_sent;
                sub.cwnd = sub.ssthresh + 3.0;
                sub.rtx_queue.push_back(sub.snd_una);
            } else if sub.in_recovery {
                sub.cwnd += 1.0; // window inflation per extra dupack
            }
        }
        if self.acked >= self.size_packets {
            AckVerdict::Finish
        } else {
            AckVerdict::Pump
        }
    }

    /// Subflow `si`'s retransmission timer, armed with `token`, fired at
    /// `now`. One event stands per subflow: progress since arming pushes the
    /// deadline out instead of re-arming on every ACK.
    pub(crate) fn on_timeout(
        &mut self,
        si: usize,
        token: u64,
        now: SimTime,
        cfg: &TcpConfig,
    ) -> Rto {
        let sub = &mut self.subflows[si];
        if !sub.timer_armed || sub.timer_token != token {
            return Rto::Ignore;
        }
        if sub.outstanding() == 0 {
            sub.timer_armed = false;
            return Rto::Ignore;
        }
        let deadline = sub.last_progress + sub.effective_rto(cfg);
        if now < deadline {
            return Rto::Rearm(deadline);
        }
        // Rewind the pipe estimate: the pump go-back-N resends the
        // presumed-lost window under slow start.
        sub.timeouts += 1;
        sub.ssthresh = (sub.in_flight() as f64 / 2.0).max(2.0);
        sub.cwnd = 1.0;
        sub.in_recovery = false;
        sub.dupacks = 0;
        sub.backoff += 1;
        sub.rtx_queue.clear();
        sub.resend_high = sub.snd_una;
        sub.timer_armed = false;
        let backoff = sub.backoff;
        // MPTCP path-failure handling: after repeated backoffs the subflow
        // dies and its outstanding data goes back to the live ones.
        let live_sibling = self
            .subflows
            .iter()
            .enumerate()
            .any(|(j, s)| j != si && !s.dead);
        let sub = &mut self.subflows[si];
        if backoff >= cfg.dead_after_backoff && live_sibling {
            sub.dead = true;
            let reclaimed = sub.highest_sent - sub.snd_una;
            sub.highest_sent = sub.snd_una;
            self.assigned -= reclaimed;
            return Rto::Fired {
                backoff,
                reclaimed: Some(reclaimed),
            };
        }
        sub.last_progress = now;
        Rto::Fired {
            backoff,
            reclaimed: None,
        }
    }

    /// The next packet subflow `si` sends at `now`, as `(seq, is_rtx)`, with
    /// the send accounted. Point retransmissions (fast retransmit, NewReno
    /// partial ACKs) go out regardless of the window; then, while it is
    /// open, go-back-N resends of the post-RTO hole (`resend_high ..
    /// highest_sent`), then fresh data while the connection has some left.
    pub(crate) fn next_send(&mut self, si: usize, now: SimTime) -> Option<(u64, bool)> {
        let sub = &mut self.subflows[si];
        let (seq, rtx) = loop {
            match sub.rtx_queue.pop_front() {
                Some(seq) if seq < sub.snd_una => {} // already cumulatively acked
                Some(seq) => break (seq, true),
                None if !sub.window_open() => return None,
                None if sub.resend_high < sub.highest_sent => {
                    sub.resend_high += 1;
                    break (sub.resend_high - 1, true);
                }
                None if self.assigned < self.size_packets => {
                    sub.highest_sent += 1;
                    sub.resend_high += 1;
                    self.assigned += 1;
                    break (sub.highest_sent - 1, false);
                }
                None => return None,
            }
        };
        sub.packets_sent += 1;
        if rtx {
            sub.retransmits += 1;
            return Some((seq, rtx));
        }
        if self.cc == CcAlgo::Dctcp && sub.snd_una == 0 && sub.dctcp_acked == 0 {
            // Stretch the first DCTCP observation window over the whole
            // initial flight, which goes out before any ACK: left at 0, the
            // first ACK would close a one-sample window and move alpha.
            sub.dctcp_window_end = sub.highest_sent;
        }
        sub.last_progress = now; // fresh data is progress for the lazy RTO
        Some((seq, rtx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sub(cfg: &TcpConfig) -> Subflow {
        Subflow::new(vec![LinkId(0)], cfg)
    }

    fn conn_with(cc: CcAlgo, n_subs: usize, cfg: &TcpConfig) -> Connection {
        Connection {
            id: ConnId(0),
            src: HostId(0),
            dst: HostId(1),
            cc,
            size_packets: 100,
            size_bytes: 100 * 1500,
            assigned: 0,
            acked: 0,
            start: SimTime::ZERO,
            finish: None,
            subflows: (0..n_subs).map(|_| sub(cfg)).collect(),
            rr: 0,
            owner_tag: 0,
            in_network: 0,
        }
    }

    #[test]
    fn window_accounting() {
        let cfg = TcpConfig::default();
        let mut s = sub(&cfg);
        assert!(s.window_open());
        s.highest_sent = 10; // == initial cwnd
        s.resend_high = 10;
        assert_eq!(s.in_flight(), 10);
        assert_eq!(s.outstanding(), 10);
        assert!(!s.window_open());
        s.snd_una = 1;
        s.resend_high = s.resend_high.max(s.snd_una);
        assert!(s.window_open());
        // An RTO rewind empties the pipe but not the outstanding horizon.
        s.resend_high = s.snd_una;
        assert_eq!(s.in_flight(), 0);
        assert_eq!(s.outstanding(), 9);
    }

    #[test]
    fn rtt_first_sample_initializes() {
        let cfg = TcpConfig::default();
        let mut s = sub(&cfg);
        s.rtt_sample(2_000_000, &cfg); // 2 us
        assert!(s.rtt_valid);
        assert_eq!(s.srtt_ps, 2_000_000.0);
        // RTO floored at min_rto.
        assert_eq!(s.rto, cfg.min_rto);
    }

    #[test]
    fn rto_tracks_large_rtt() {
        let cfg = TcpConfig::default();
        let mut s = sub(&cfg);
        s.rtt_sample(SimTime::from_ms(20).as_ps(), &cfg);
        // srtt=20ms, rttvar=10ms -> rto = 60ms.
        assert_eq!(s.rto, SimTime::from_ms(60));
    }

    #[test]
    fn backoff_doubles_effective_rto() {
        let cfg = TcpConfig::default();
        let mut s = sub(&cfg);
        assert_eq!(s.effective_rto(&cfg), cfg.min_rto);
        s.backoff = 2;
        assert_eq!(s.effective_rto(&cfg), SimTime::from_ms(40));
        s.backoff = 30; // capped
        assert_eq!(s.effective_rto(&cfg), cfg.max_rto);
    }

    #[test]
    fn receiver_in_order_and_ooo() {
        let cfg = TcpConfig::default();
        let mut s = sub(&cfg);
        assert_eq!(s.receive_data(0), 1);
        assert_eq!(s.receive_data(2), 1); // gap
        assert_eq!(s.receive_data(3), 1);
        assert_eq!(s.receive_data(1), 4); // fills the hole, drains ooo
        assert!(s.ooo.is_empty());
        assert_eq!(s.receive_data(1), 4); // duplicate still acks 4
    }

    #[test]
    fn lia_single_subflow_equals_reno() {
        let cfg = TcpConfig::default();
        let mut c = conn_with(CcAlgo::Lia, 1, &cfg);
        c.subflows[0].cwnd = 20.0;
        c.subflows[0].srtt_ps = 1e6;
        c.subflows[0].rtt_valid = true;
        let lia = c.ca_increase(0, &cfg);
        assert!((lia - 1.0 / 20.0).abs() < 1e-12, "LIA {lia} != Reno 0.05");
    }

    #[test]
    fn lia_couples_subflows() {
        // Two equal-RTT subflows with equal windows: total = 2w, alpha = 1/2·...
        // α = 2w·(w/r²)/(2w/r)² = 2w²/r² / (4w²/r²) = 0.5; increase =
        // min(0.5/2w, 1/w) = 1/(4w): half of what two independent Renos do
        // per subflow relative to 1/(2w)... i.e. strictly less aggressive.
        let cfg = TcpConfig::default();
        let mut c = conn_with(CcAlgo::Lia, 2, &cfg);
        for s in &mut c.subflows {
            s.cwnd = 10.0;
            s.srtt_ps = 1e6;
            s.rtt_valid = true;
        }
        let lia = c.ca_increase(0, &cfg);
        assert!((lia - 1.0 / 40.0).abs() < 1e-12, "LIA increase {lia}");
        let mut unc = conn_with(CcAlgo::Reno, 2, &cfg);
        for s in &mut unc.subflows {
            s.cwnd = 10.0;
        }
        assert!(lia < unc.ca_increase(0, &cfg));
    }

    #[test]
    fn lia_shifts_toward_better_path() {
        // A subflow on a faster (lower-RTT) path gets a larger increase
        // *relative to its window* than a slow one when windows are equal —
        // actually LIA gives the same alpha/total to both but caps at
        // 1/cwnd; verify the cap binds on the small-window subflow.
        let cfg = TcpConfig::default();
        let mut c = conn_with(CcAlgo::Lia, 2, &cfg);
        c.subflows[0].cwnd = 1.0;
        c.subflows[1].cwnd = 100.0;
        for s in &mut c.subflows {
            s.srtt_ps = 1e6;
            s.rtt_valid = true;
        }
        let inc0 = c.ca_increase(0, &cfg);
        let inc1 = c.ca_increase(1, &cfg);
        assert!(inc0 <= 1.0);
        assert!(inc1 < inc0 * 1.5 + 1.0); // sanity: both finite & bounded
        let alpha = c.lia_alpha(&cfg);
        assert!(alpha > 0.0 && alpha.is_finite());
    }

    #[test]
    fn dctcp_alpha_converges_to_mark_fraction() {
        let cfg = TcpConfig::default();
        let mut s = sub(&cfg);
        // Simulate many windows with 50% marking (by sequence parity, so
        // the fraction is 0.5 regardless of where window boundaries land):
        // alpha -> 0.5.
        let mut cum = 0u64;
        for _ in 0..2000 {
            // Sliding window: the sender keeps 10 packets in flight, so
            // every observation window covers ~10 ACKs.
            s.highest_sent = cum + 10;
            cum += 1;
            s.snd_una = cum;
            s.dctcp_on_ack(1, cum.is_multiple_of(2), cum);
        }
        assert!(
            (s.dctcp_alpha - 0.5).abs() < 0.1,
            "alpha {} should approach 0.5",
            s.dctcp_alpha
        );
    }

    #[test]
    fn dctcp_cuts_once_per_window() {
        let cfg = TcpConfig::default();
        let mut s = sub(&cfg);
        s.highest_sent = 20;
        s.dctcp_window_end = 20;
        // First marked ack within the window: cut.
        assert!(s.dctcp_on_ack(1, true, 1));
        // Further marks within the same window: no cut.
        assert!(!s.dctcp_on_ack(1, true, 2));
        assert!(!s.dctcp_on_ack(1, true, 10));
        // Window boundary passed: the next mark cuts again.
        s.highest_sent = 40;
        assert!(!s.dctcp_on_ack(1, false, 20)); // boundary, unmarked
        assert!(s.dctcp_on_ack(1, true, 21));
    }

    #[test]
    fn dctcp_no_marks_means_alpha_decays() {
        let cfg = TcpConfig::default();
        let mut s = sub(&cfg);
        assert_eq!(s.dctcp_alpha, 1.0);
        let mut cum = 0;
        for _ in 0..100 {
            s.highest_sent = cum + 10;
            for _ in 0..10 {
                cum += 1;
                s.snd_una = cum;
                assert!(!s.dctcp_on_ack(1, false, cum));
            }
        }
        assert!(s.dctcp_alpha < 0.01, "alpha {} should decay", s.dctcp_alpha);
    }

    #[test]
    fn dctcp_dupack_marks_enter_accounting() {
        let cfg = TcpConfig::default();
        let mut s = sub(&cfg);
        s.highest_sent = 20;
        s.dctcp_window_end = 20;
        s.snd_una = 5;
        // Three marked dupacks and one clean one: 4 acked, 3 marked.
        s.dctcp_on_dupack(true);
        s.dctcp_on_dupack(true);
        s.dctcp_on_dupack(false);
        s.dctcp_on_dupack(true);
        assert_eq!(s.dctcp_acked, 4);
        assert_eq!(s.dctcp_marked, 3);
        assert_eq!(s.dctcp_dupack_marks, 3);
        // No cut and no window close happened: alpha untouched.
        assert_eq!(s.dctcp_alpha, 1.0);
        assert!(!s.dctcp_cut_this_window);
        // The fraction flows into alpha when the window closes on the
        // cumulative path: 5 acked total, 3 marked -> f = 0.6.
        s.snd_una = 20;
        s.dctcp_on_ack(1, false, 20);
        let expect = (1.0 - 1.0 / 16.0) * 1.0 + (1.0 / 16.0) * 0.6;
        assert!((s.dctcp_alpha - expect).abs() < 1e-12, "{}", s.dctcp_alpha);
    }

    /// A cumulative ACK of everything below `cum` on subflow `si`.
    fn ack(si: u8, cum: u64, flags: u8) -> Packet {
        Packet {
            slot: 0,
            hop: 0,
            subflow: si,
            flags: Packet::ACK | flags,
            seq: cum,
            ts: SimTime::ZERO,
        }
    }

    /// Everything subflow `si` sends at `now`, as `(seq, is_rtx)`.
    fn sends(c: &mut Connection, si: usize, now: SimTime) -> Vec<(u64, bool)> {
        std::iter::from_fn(|| c.next_send(si, now)).collect()
    }

    /// A one-subflow Reno connection with `n` fresh packets in flight.
    fn in_flight(n: u64, cfg: &TcpConfig) -> Connection {
        let mut c = conn_with(CcAlgo::Reno, 1, cfg);
        c.subflows[0].cwnd = n as f64;
        let fresh: Vec<(u64, bool)> = (0..n).map(|seq| (seq, false)).collect();
        assert_eq!(sends(&mut c, 0, SimTime::ZERO), fresh);
        c
    }

    #[test]
    fn three_dupacks_halve_the_flight_and_retransmit_the_hole() {
        let cfg = TcpConfig::default();
        let t = SimTime::from_us(30);
        let mut c = in_flight(20, &cfg);
        for _ in 0..2 {
            assert_eq!(c.on_ack(ack(0, 0, 0), t, &cfg), AckVerdict::Pump);
        }
        assert_eq!(
            (c.subflows[0].cwnd, c.subflows[0].in_recovery),
            (20.0, false)
        );
        c.on_ack(ack(0, 0, 0), t, &cfg);
        let s = &c.subflows[0];
        assert_eq!((s.ssthresh, s.cwnd, s.recover), (10.0, 13.0, 20));
        assert!(s.in_recovery);
        // The hole goes out though 20 in flight exceed the window of 13.
        assert_eq!(sends(&mut c, 0, t), [(0, true)]);
        c.on_ack(ack(0, 0, 0), t, &cfg);
        assert_eq!(c.subflows[0].cwnd, 14.0, "each further dupack inflates");
        // A flight of three halves to the floor of two.
        let mut c = in_flight(3, &cfg);
        for _ in 0..3 {
            c.on_ack(ack(0, 0, 0), t, &cfg);
        }
        assert_eq!((c.subflows[0].ssthresh, c.subflows[0].cwnd), (2.0, 5.0));
    }

    #[test]
    fn a_partial_ack_deflates_and_queues_the_next_hole() {
        let cfg = TcpConfig::default();
        let t = SimTime::from_us(30);
        let mut c = in_flight(20, &cfg);
        for _ in 0..3 {
            c.on_ack(ack(0, 0, 0), t, &cfg);
        }
        assert_eq!(sends(&mut c, 0, t), [(0, true)]);
        // 5 of the 20 arrive: cwnd 13 deflates by 5, plus one.
        c.on_ack(ack(0, 5, Packet::RTX), t, &cfg);
        let s = &c.subflows[0];
        assert_eq!((s.cwnd, s.snd_una, s.in_recovery), (9.0, 5, true));
        assert_eq!(sends(&mut c, 0, t), [(5, true)]);
        // Reaching `recover` ends recovery at ssthresh.
        c.on_ack(ack(0, 20, Packet::RTX), t, &cfg);
        let s = &c.subflows[0];
        assert_eq!((s.cwnd, s.in_recovery, s.dupacks), (10.0, false, 0));
    }

    #[test]
    fn an_rto_collapses_the_window_and_rewinds_the_pipe() {
        let cfg = TcpConfig::default();
        let mut c = in_flight(10, &cfg);
        c.on_ack(ack(0, 2, 0), SimTime::from_us(30), &cfg);
        let (deadline, token) = c.subflows[0].arm_timer(SimTime::from_us(30), &cfg);
        assert_eq!(deadline, SimTime::from_us(30) + cfg.min_rto);
        // Progress at 30 us moved the deadline past the one armed at 0.
        let early = SimTime::from_ms(10);
        assert_eq!(c.on_timeout(0, token, early, &cfg), Rto::Rearm(deadline));
        assert_eq!(c.on_timeout(0, token + 1, deadline, &cfg), Rto::Ignore);
        let fired = Rto::Fired {
            backoff: 1,
            reclaimed: None,
        };
        assert_eq!(c.on_timeout(0, token, deadline, &cfg), fired);
        let s = &c.subflows[0];
        assert_eq!((s.cwnd, s.ssthresh, s.backoff), (1.0, 4.0, 1));
        assert_eq!(
            (s.resend_high, s.highest_sent, s.last_progress),
            (2, 10, deadline)
        );
        assert!(!s.timer_armed && !s.in_recovery);
        // Go-back-N from `snd_una`, one packet under the collapsed window.
        assert_eq!(sends(&mut c, 0, deadline), [(2, true)]);
        assert_eq!(c.subflows[0].effective_rto(&cfg), cfg.min_rto + cfg.min_rto);
        // New data acknowledged ends the backoff.
        c.on_ack(ack(0, 3, Packet::RTX), deadline, &cfg);
        assert_eq!(c.subflows[0].backoff, 0);
    }

    #[test]
    fn a_subflow_dies_only_beside_a_live_sibling_and_hands_back_its_data() {
        let cfg = TcpConfig::default();
        let time_out = |c: &mut Connection, until: u32| {
            let mut last = Rto::Ignore;
            for _ in 0..until {
                let now = SimTime::from_secs(1 + c.subflows[0].timeouts);
                let (_, token) = c.subflows[0].arm_timer(now, &cfg);
                last = c.on_timeout(0, token, now + cfg.max_rto, &cfg);
            }
            last
        };
        let mut c = conn_with(CcAlgo::Lia, 2, &cfg);
        assert_eq!(sends(&mut c, 0, SimTime::ZERO).len(), 10);
        assert_eq!(sends(&mut c, 1, SimTime::ZERO).len(), 10);
        c.on_ack(ack(0, 4, 0), SimTime::from_us(30), &cfg);
        assert_eq!(c.assigned, 20);
        let backoffs = cfg.dead_after_backoff;
        let sick = time_out(&mut c, backoffs - 1);
        assert!(matches!(
            sick,
            Rto::Fired {
                reclaimed: None,
                ..
            }
        ));
        assert!(!c.subflows[0].dead);
        let died = Rto::Fired {
            backoff: backoffs,
            reclaimed: Some(6),
        };
        assert_eq!(time_out(&mut c, 1), died);
        let s = &c.subflows[0];
        assert!(s.dead);
        assert_eq!((s.snd_una, s.highest_sent, s.resend_high), (4, 4, 4));
        assert_eq!(c.assigned, 14, "the 6 unacknowledged packets go back");
        assert_eq!(c.next_send(0, SimTime::from_secs(9)), None);
        let late = c.on_ack(ack(0, 10, 0), SimTime::from_secs(9), &cfg);
        assert_eq!(late, AckVerdict::Ignore);
        // Alone, or beside a dead sibling, a subflow backs off forever.
        for dead_sibling in [false, true] {
            let mut c = conn_with(CcAlgo::Lia, 1 + usize::from(dead_sibling), &cfg);
            if dead_sibling {
                c.subflows[1].dead = true;
            }
            assert_eq!(sends(&mut c, 0, SimTime::ZERO).len(), 10);
            let fired = time_out(&mut c, backoffs + 2);
            assert!(matches!(
                fired,
                Rto::Fired {
                    reclaimed: None,
                    ..
                }
            ));
            assert!(!c.subflows[0].dead);
            assert_eq!(c.assigned, 10);
        }
    }

    #[test]
    fn dctcp_cuts_by_half_alpha_once_per_window() {
        let cfg = TcpConfig::default();
        let t = SimTime::from_us(30);
        let mut c = conn_with(CcAlgo::Dctcp, 1, &cfg);
        c.subflows[0].cwnd = 20.0;
        assert_eq!(sends(&mut c, 0, SimTime::ZERO).len(), 20);
        assert_eq!(c.subflows[0].dctcp_window_end, 20, "spans the first flight");
        // The first mark cuts by alpha / 2 (alpha starts at 1), leaves slow
        // start, and the ACK's own increase follows.
        c.on_ack(ack(0, 1, Packet::CE), t, &cfg);
        let cut = 20.0 * (1.0 - 1.0 / 2.0);
        assert_eq!(c.subflows[0].ssthresh, cut);
        assert_eq!(c.subflows[0].cwnd, cut + 1.0 / cut);
        // Further marks in the window only increase.
        let cwnd = c.subflows[0].cwnd;
        c.on_ack(ack(0, 2, Packet::CE), t, &cfg);
        assert_eq!(c.subflows[0].cwnd, cwnd + 1.0 / cwnd);
        // Closing the window folds its marked fraction into alpha...
        c.on_ack(ack(0, 20, 0), t, &cfg);
        let alpha = c.subflows[0].dctcp_alpha;
        assert_eq!(alpha, (1.0 - 1.0 / 16.0) + 1.0 / 16.0 * (2.0 / 20.0));
        // ...the next ACK opens a window over what is now in flight...
        assert!(!sends(&mut c, 0, t).is_empty());
        c.on_ack(ack(0, 21, 0), t, &cfg);
        assert_eq!(c.subflows[0].dctcp_alpha, (1.0 - 1.0 / 16.0) * alpha);
        let alpha = c.subflows[0].dctcp_alpha;
        assert!(c.subflows[0].dctcp_window_end > 23);
        // ...whose first mark cuts by the new alpha, and only the first.
        let cwnd = c.subflows[0].cwnd;
        c.on_ack(ack(0, 22, Packet::CE), t, &cfg);
        let cut = cwnd * (1.0 - alpha / 2.0);
        assert_eq!(c.subflows[0].cwnd, cut + 1.0 / cut);
        c.on_ack(ack(0, 23, Packet::CE), t, &cfg);
        let cwnd = cut + 1.0 / cut;
        assert_eq!(c.subflows[0].cwnd, cwnd + 1.0 / cwnd);
    }

    #[test]
    fn connection_stats_aggregate() {
        let cfg = TcpConfig::default();
        let mut c = conn_with(CcAlgo::Reno, 2, &cfg);
        c.subflows[0].retransmits = 3;
        c.subflows[1].retransmits = 4;
        c.subflows[1].timeouts = 1;
        assert_eq!(c.retransmits(), 7);
        assert_eq!(c.timeouts(), 1);
    }
}
