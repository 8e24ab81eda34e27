//! Per-link drop-tail output queues.
//!
//! Every directed link of the network has one FIFO output queue that
//! serializes packets at the link rate and then hands them to the link's
//! propagation delay. This is the htsim component model: queue → pipe, fused
//! here because a pipe never reorders or drops.
//!
//! Queues store 4-byte entries — the [`PacketId`] plus its size class —
//! not packets: the packet itself stays in the simulator's
//! [`crate::packet::PacketArena`] slot for its whole queue → wire → next-hop
//! life, and service times never touch the arena.

use crate::packet::{Packet, PacketId, ACK_BYTES, MTU_BYTES};
use crate::time::{serialization_ps, SimTime};
use std::collections::VecDeque;

/// A FIFO entry: a packet's arena id, with the top bit set for an ACK. The
/// bit is the packet's size class, which fixes its wire size.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Entry(u32);

impl Entry {
    const ACK: u32 = PacketId::LIMIT;

    fn new(id: PacketId, ack: bool) -> Self {
        Entry(id.0 | if ack { Self::ACK } else { 0 })
    }

    fn id(self) -> PacketId {
        PacketId(self.0 & !Self::ACK)
    }

    /// 0 for data, 1 for an ACK: the index into [`CLASS_BYTES`].
    fn class(self) -> usize {
        (self.0 >> 31) as usize
    }
}

/// Wire bytes of each size class.
const CLASS_BYTES: [u32; 2] = [MTU_BYTES, ACK_BYTES];

/// A drop-tail FIFO with a byte-capacity bound and optional ECN marking.
#[derive(Debug)]
pub struct Queue {
    /// Line rate, bits per second.
    pub rate_bps: u64,
    /// Propagation delay of the attached link, picoseconds.
    pub delay_ps: u64,
    /// Buffer bound in bytes (drop-tail beyond this).
    pub capacity_bytes: u64,
    /// ECN marking threshold (DCTCP's K): data packets enqueued while the
    /// occupancy exceeds this get a CE mark. `None` disables marking.
    pub ecn_threshold_bytes: Option<u64>,
    /// When false the link is dark: every arriving packet is dropped
    /// (mid-simulation link failure). Already-buffered packets still drain.
    pub link_up: bool,
    /// Packets marked CE.
    pub marked: u64,
    /// Bytes currently buffered (including the packet in service).
    buffered_bytes: u64,
    fifo: VecDeque<Entry>,
    /// True while a packet is being serialized (a departure event is
    /// outstanding).
    busy: bool,
    /// Statistics.
    pub enqueued: u64,
    /// Drop-tail losses: packet arrived at a live link with a full buffer.
    pub dropped: u64,
    /// Packets discarded because the link was down, not because the buffer
    /// was full — kept apart so failure experiments don't misread blackhole
    /// loss as congestion.
    pub dropped_link_down: u64,
    /// Peak queue occupancy in bytes.
    pub peak_bytes: u64,
    /// Cumulative bytes that completed serialization on this link (the
    /// numerator of the telemetry layer's per-plane utilization samples).
    pub bytes_sent: u64,
    /// Serialization time of each size class at this link's rate
    /// (`rate_bps` is fixed at construction).
    class_ps: [u64; 2],
}

/// Outcome of an enqueue attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Enqueue {
    /// Packet accepted and serialization should start now (the caller must
    /// schedule the departure event at `now + serialization`).
    StartService,
    /// Packet accepted behind others; a departure event is already pending.
    Queued,
    /// Buffer full: packet dropped (the caller frees the arena slot).
    Dropped,
    /// Link is down: packet discarded regardless of buffer occupancy (the
    /// caller frees the arena slot).
    DroppedLinkDown,
}

impl Queue {
    /// New queue for a link.
    pub fn new(rate_bps: u64, delay_ps: u64, capacity_bytes: u64) -> Self {
        Queue {
            rate_bps,
            delay_ps,
            capacity_bytes,
            ecn_threshold_bytes: None,
            link_up: true,
            marked: 0,
            buffered_bytes: 0,
            fifo: VecDeque::new(),
            busy: false,
            enqueued: 0,
            dropped: 0,
            dropped_link_down: 0,
            peak_bytes: 0,
            bytes_sent: 0,
            class_ps: CLASS_BYTES.map(|b| serialization_ps(b, rate_bps)),
        }
    }

    /// Try to accept the packet in arena slot `id`. `packet` is that slot,
    /// borrowed by the caller; on acceptance above the ECN threshold its CE
    /// bit is marked in place. On `Dropped` / `DroppedLinkDown` the caller
    /// keeps ownership of the slot (and frees it).
    #[inline]
    pub fn enqueue(&mut self, id: PacketId, packet: &mut Packet) -> Enqueue {
        let entry = Entry::new(id, packet.has(Packet::ACK));
        let size = u64::from(CLASS_BYTES[entry.class()]);
        if !self.link_up {
            self.dropped_link_down += 1;
            return Enqueue::DroppedLinkDown;
        }
        if self.buffered_bytes + size > self.capacity_bytes {
            self.dropped += 1;
            return Enqueue::Dropped;
        }
        self.buffered_bytes += size;
        self.peak_bytes = self.peak_bytes.max(self.buffered_bytes);
        self.enqueued += 1;
        if let Some(k) = self.ecn_threshold_bytes {
            if self.buffered_bytes > k && packet.flags & (Packet::ACK | Packet::CE) == 0 {
                packet.flags |= Packet::CE;
                self.marked += 1;
            }
        }
        self.fifo.push_back(entry);
        if self.busy {
            Enqueue::Queued
        } else {
            self.busy = true;
            Enqueue::StartService
        }
    }

    /// Serialization time of the head-of-line packet (call when starting
    /// service).
    #[inline]
    pub fn head_service_ps(&self) -> u64 {
        let head = self
            .fifo
            .front()
            .expect("invariant: service only starts on a non-empty queue");
        self.class_ps[head.class()]
    }

    /// Complete service of the head packet: returns its arena id together
    /// with the absolute arrival time at the other end of the link, and
    /// whether another departure event must be scheduled
    /// (`Some(next_service_ps)`) for the new head.
    #[inline]
    pub fn depart(&mut self, now: SimTime) -> (PacketId, SimTime, Option<u64>) {
        let head = self
            .fifo
            .pop_front()
            .expect("invariant: departures only fire on a non-empty queue");
        let size = u64::from(CLASS_BYTES[head.class()]);
        self.buffered_bytes -= size;
        self.bytes_sent += size;
        let arrival = now + SimTime::from_ps(self.delay_ps);
        let next = if self.fifo.is_empty() {
            self.busy = false;
            None
        } else {
            Some(self.head_service_ps())
        };
        (head.id(), arrival, next)
    }

    /// Bytes currently buffered.
    pub fn buffered_bytes(&self) -> u64 {
        self.buffered_bytes
    }

    /// Packets currently buffered.
    pub fn depth(&self) -> usize {
        self.fifo.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PacketArena;

    /// A data packet for 1500 bytes, an ACK for 40.
    fn pkt(size: u32) -> Packet {
        assert!(size == MTU_BYTES || size == ACK_BYTES);
        Packet {
            slot: 0,
            hop: 0,
            subflow: 0,
            flags: if size == ACK_BYTES { Packet::ACK } else { 0 },
            seq: 0,
            ts: SimTime::ZERO,
        }
    }

    /// Allocate into `arena` and enqueue, mirroring the simulator's split
    /// borrow of arena and queue.
    fn push(q: &mut Queue, arena: &mut PacketArena, size: u32) -> Enqueue {
        let id = arena.alloc(pkt(size));
        let r = q.enqueue(id, &mut arena[id]);
        if matches!(r, Enqueue::Dropped | Enqueue::DroppedLinkDown) {
            arena.free(id);
        }
        r
    }

    #[test]
    fn first_packet_starts_service() {
        let mut a = PacketArena::new();
        let mut q = Queue::new(100_000_000_000, 1000, 10 * MTU_BYTES as u64);
        assert_eq!(push(&mut q, &mut a, 1500), Enqueue::StartService);
        assert_eq!(push(&mut q, &mut a, 1500), Enqueue::Queued);
        assert_eq!(q.depth(), 2);
    }

    #[test]
    fn service_time_is_serialization() {
        let mut a = PacketArena::new();
        let mut q = Queue::new(100_000_000_000, 1000, 10 * MTU_BYTES as u64);
        push(&mut q, &mut a, 1500);
        assert_eq!(q.head_service_ps(), 120_000); // 120 ns at 100G
    }

    #[test]
    fn departure_adds_propagation() {
        let mut a = PacketArena::new();
        let mut q = Queue::new(100_000_000_000, 5_000_000, 10 * MTU_BYTES as u64);
        push(&mut q, &mut a, 1500);
        let now = SimTime::from_ps(120_000);
        let (id, arrival, next) = q.depart(now);
        assert!(!a[id].has(Packet::ACK), "the 1500-byte data packet departs");
        assert_eq!(arrival, SimTime::from_ps(120_000 + 5_000_000));
        assert!(next.is_none());
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn tail_drop_when_full() {
        let mut a = PacketArena::new();
        let mut q = Queue::new(100_000_000_000, 0, 2 * 1500);
        assert_eq!(push(&mut q, &mut a, 1500), Enqueue::StartService);
        assert_eq!(push(&mut q, &mut a, 1500), Enqueue::Queued);
        assert_eq!(push(&mut q, &mut a, 1500), Enqueue::Dropped);
        assert_eq!(q.dropped, 1);
        assert_eq!(q.enqueued, 2);
        // The dropped packet's slot went back to the free list.
        assert_eq!(a.live(), 2);
    }

    #[test]
    fn small_packet_fits_after_big_drop() {
        let mut a = PacketArena::new();
        let mut q = Queue::new(100_000_000_000, 0, 1540);
        push(&mut q, &mut a, 1500);
        assert_eq!(push(&mut q, &mut a, 1500), Enqueue::Dropped);
        assert_eq!(push(&mut q, &mut a, 40), Enqueue::Queued);
    }

    #[test]
    fn pipeline_of_departures() {
        let mut a = PacketArena::new();
        let mut q = Queue::new(100_000_000_000, 0, 10_000);
        push(&mut q, &mut a, 1500);
        push(&mut q, &mut a, 1500);
        let (_, _, next) = q.depart(SimTime::from_ps(120_000));
        assert_eq!(next, Some(120_000));
        let (_, _, next) = q.depart(SimTime::from_ps(240_000));
        assert!(next.is_none());
    }

    #[test]
    fn ecn_marks_above_threshold() {
        let mut a = PacketArena::new();
        let mut q = Queue::new(100_000_000_000, 0, 100 * 1500);
        q.ecn_threshold_bytes = Some(2 * 1500);
        push(&mut q, &mut a, 1500); // occupancy 1500 <= 3000: no mark
        push(&mut q, &mut a, 1500); // occupancy 3000 <= 3000: no mark
        push(&mut q, &mut a, 1500); // occupancy 4500 > 3000: mark
        assert_eq!(q.marked, 1);
        // Verify the mark landed on the third packet — in its arena slot.
        let (p1, _, _) = q.depart(SimTime::ZERO);
        let (p2, _, _) = q.depart(SimTime::ZERO);
        let (p3, _, _) = q.depart(SimTime::ZERO);
        let ce = |id: PacketId| a[id].has(Packet::CE);
        assert!(!ce(p1));
        assert!(!ce(p2));
        assert!(ce(p3));
    }

    #[test]
    fn no_marking_when_disabled() {
        let mut a = PacketArena::new();
        let mut q = Queue::new(100_000_000_000, 0, 100 * 1500);
        for _ in 0..50 {
            push(&mut q, &mut a, 1500);
        }
        assert_eq!(q.marked, 0);
    }

    #[test]
    fn link_down_drops_counted_separately() {
        let mut a = PacketArena::new();
        let mut q = Queue::new(100_000_000_000, 0, 2 * 1500);
        push(&mut q, &mut a, 1500);
        push(&mut q, &mut a, 1500);
        assert_eq!(push(&mut q, &mut a, 1500), Enqueue::Dropped); // congestion
        q.link_up = false;
        // Plenty of headroom would exist after a departure, but the link is
        // dark: this is a failure drop, not drop-tail.
        assert_eq!(push(&mut q, &mut a, 40), Enqueue::DroppedLinkDown);
        assert_eq!(push(&mut q, &mut a, 40), Enqueue::DroppedLinkDown);
        assert_eq!(q.dropped, 1);
        assert_eq!(q.dropped_link_down, 2);
        assert_eq!(q.enqueued, 2);
    }

    #[test]
    fn peak_tracking() {
        let mut a = PacketArena::new();
        let mut q = Queue::new(1_000_000_000, 0, 100_000);
        push(&mut q, &mut a, 1500);
        push(&mut q, &mut a, 1500);
        q.depart(SimTime::ZERO);
        assert_eq!(q.peak_bytes, 3000);
    }

    #[test]
    fn bytes_sent_counts_departures_only() {
        let mut a = PacketArena::new();
        let mut q = Queue::new(1_000_000_000, 0, 100_000);
        push(&mut q, &mut a, 1500);
        push(&mut q, &mut a, 40);
        assert_eq!(q.bytes_sent, 0); // buffered, not yet on the wire
        q.depart(SimTime::ZERO);
        assert_eq!(q.bytes_sent, 1500);
        q.depart(SimTime::ZERO);
        assert_eq!(q.bytes_sent, 1540);
    }
}
