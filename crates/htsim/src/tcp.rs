//! TCP and MPTCP sender/receiver state.
//!
//! The transport model is packet-granular, as in htsim: sequence numbers
//! count MTU-sized packets, ACKs are cumulative per subflow, and congestion
//! windows are real-valued packet counts. Three congestion controllers are
//! provided:
//!
//! * [`CcAlgo::Reno`] — NewReno-style slow start / AIMD / fast retransmit
//!   with window inflation (the paper's "TCP");
//! * [`CcAlgo::Lia`] — the MPTCP Linked-Increases Algorithm of RFC 6356 /
//!   Wischik et al. \[43\], coupling the additive increase across subflows
//!   (the paper's "MPTCP");
//! * [`CcAlgo::Uncoupled`] — each subflow runs an independent Reno increase
//!   (an ablation: uncoupled MPTCP is unfair but a useful comparison).
//!
//! A connection with one subflow under `Reno` is plain TCP; a connection
//! with K subflows under `Lia` is MPTCP over K paths. The retransmission
//! timer uses the paper's datacenter tuning (10 ms minimum RTO, following
//! DCTCP \[6\]).

use crate::packet::ConnId;
use crate::time::SimTime;
use pnet_topology::{HostId, LinkId};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Congestion-control algorithm of a connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CcAlgo {
    /// NewReno single-path behaviour on every subflow (standard TCP when the
    /// connection has one subflow).
    Reno,
    /// RFC 6356 Linked Increases (MPTCP's coupled congestion control).
    Lia,
    /// Independent Reno per subflow (ablation).
    Uncoupled,
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
    /// Seeded by the simulator at first transmission to cover the whole
    /// initial flight (left at 0 the very first ACK would close a
    /// degenerate one-sample window).
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

    // --- routes (read once per hop by the subflow's packets, which carry
    //     only their hop index; never read on the ACK fast path) ---
    /// Forward route (data direction).
    pub route: Vec<LinkId>,
    /// Reverse route (ACK direction).
    pub rev_route: Vec<LinkId>,
}

impl Subflow {
    /// Fresh subflow over a route pair.
    pub fn new(route: Vec<LinkId>, rev_route: Vec<LinkId>, cfg: &TcpConfig) -> Self {
        Subflow {
            route,
            rev_route,
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
    /// keeping this subflow's buffers: the retransmit queue, the reorder
    /// heap and both routes. How a retired connection's slot is reused;
    /// once the buffers are warm, it allocates nothing.
    pub fn recycle(&mut self, route: &[LinkId], cfg: &TcpConfig) {
        let old = std::mem::replace(self, Subflow::new(Vec::new(), Vec::new(), cfg));
        (self.rtx_queue, self.ooo, self.route, self.rev_route) =
            (old.rtx_queue, old.ooo, old.route, old.rev_route);
        self.rtx_queue.clear();
        self.ooo.clear();
        self.route.clear();
        self.route.extend_from_slice(route);
        self.rev_route.clear();
        self.rev_route
            .extend(route.iter().rev().map(|l| l.reverse()));
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
            CcAlgo::Reno | CcAlgo::Uncoupled | CcAlgo::Dctcp => 1.0 / sub.cwnd.max(1.0),
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

#[cfg(test)]
mod tests {
    use super::*;

    fn sub(cfg: &TcpConfig) -> Subflow {
        Subflow::new(vec![LinkId(0)], vec![LinkId(1)], cfg)
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
        let mut unc = conn_with(CcAlgo::Uncoupled, 2, &cfg);
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
