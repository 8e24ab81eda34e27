//! Packets: the unit the simulator forwards.
//!
//! Packets are *source-routed*: the sending host fixes the full sequence of
//! directed links from source to destination. This mirrors the paper's
//! end-host-routing model — the host picks the plane and path; switches
//! merely forward along it — and keeps switch state out of the simulator
//! entirely. A packet names its connection's slab slot and its subflow; the
//! route lives once on that subflow (data walks it forwards, ACKs backwards
//! over the reversed links), and the packet carries only its hop count.
//!
//! Packets live in a slab arena ([`PacketArena`]) owned by the simulator.
//! Events and link FIFOs carry a 4-byte [`PacketId`] instead of moving the
//! packet struct by value, and freed slots are recycled through a free list
//! threaded through the slots themselves, so steady-state simulation
//! performs zero per-packet heap allocation and touches no refcount.

use crate::time::SimTime;
use pnet_topology::LinkId;

/// Data packets occupy a full MTU on the wire (1500 B, as in the paper's RPC
/// experiment).
pub const MTU_BYTES: u32 = 1500;

/// ACK wire size.
pub const ACK_BYTES: u32 = 40;

/// Identifier of a connection within a simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConnId(pub u32);

/// Index of a live packet in its simulator's [`PacketArena`]. Below 2³¹, so
/// a queue's 4-byte FIFO entry has its top bit to spare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketId(pub(crate) u32);

impl PacketId {
    pub(crate) const LIMIT: u32 = 1 << 31;

    #[inline]
    fn index(self) -> usize {
        self.0 as usize
    }
}

/// A packet in flight: 24 bytes.
///
/// A data packet carries its subflow sequence number and send timestamp; an
/// ACK carries the cumulative ACK and the echo of the triggering data
/// packet's timestamp, retransmission flag and CE mark in the same fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Packet {
    /// The connection's slab slot. Packets in flight pin their connection
    /// (`in_network`), so the slot cannot be reused under them. While the
    /// arena slot is free, the next free arena slot instead.
    pub slot: u32,
    /// Links traversed so far: the next link is the subflow's
    /// `route[hop]` for data, `route[len − 1 − hop]` reversed for an ACK.
    pub hop: u16,
    /// Subflow within the connection.
    pub subflow: u8,
    /// [`Packet::ACK`], [`Packet::RTX`], [`Packet::CE`].
    pub flags: u8,
    /// Data: the subflow sequence number, counting MTU-sized packets.
    /// ACK: all packets with seq < this have been received in order.
    pub seq: u64,
    /// Data: send timestamp. ACK: its echo, for RTT sampling.
    pub ts: SimTime,
}

impl Packet {
    /// A cumulative acknowledgment, else a data segment. Fixes the wire
    /// size: [`ACK_BYTES`], else [`MTU_BYTES`].
    pub const ACK: u8 = 1;
    /// A retransmission (Karn's rule: no RTT sample); on an ACK, the echo.
    pub const RTX: u8 = 2;
    /// ECN Congestion Experienced, set on data by a queue whose occupancy
    /// exceeded its marking threshold (DCTCP); on an ACK, ECN-Echo.
    pub const CE: u8 = 4;

    /// True if `flag` is set.
    #[inline]
    pub fn has(&self, flag: u8) -> bool {
        self.flags & flag != 0
    }

    /// The next link along the subflow's forward `route`: data walks it
    /// forwards, an ACK backwards over the reversed links. `None` if the
    /// packet has arrived.
    #[inline]
    pub fn next_link(&self, route: &[LinkId]) -> Option<LinkId> {
        let hop = usize::from(self.hop);
        if self.has(Packet::ACK) {
            let back = route.len().checked_sub(hop + 1)?;
            Some(route[back].reverse())
        } else {
            route.get(hop).copied()
        }
    }
}

/// "Free list empty": the head when no freed slot waits for reuse.
const NO_FREE: u32 = u32::MAX;

/// Slab arena of in-flight packets with free-list reuse.
///
/// Lifecycle invariants:
/// * a slot is *live* from [`PacketArena::alloc`] until exactly one matching
///   [`PacketArena::free`] — while live, its id is held by exactly one owner
///   (a link FIFO entry or a pending `Arrival` event);
/// * `free` pushes the slot onto the free list by writing the previous head
///   into the freed packet's `slot` field; the stale packet is overwritten
///   by the next `alloc`;
/// * `alloc` pops the free list (last freed, first reused) before growing
///   the slab, so a simulation's slab high-water mark equals its peak
///   in-flight packet count.
#[derive(Debug)]
pub struct PacketArena {
    slab: Vec<Packet>,
    /// The most recently freed slot, or `NO_FREE`.
    free_head: u32,
    live: usize,
}

impl Default for PacketArena {
    fn default() -> Self {
        PacketArena {
            slab: Vec::new(),
            free_head: NO_FREE,
            live: 0,
        }
    }
}

impl PacketArena {
    /// Empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Store `pkt`, recycling a freed slot when one exists.
    pub fn alloc(&mut self, pkt: Packet) -> PacketId {
        self.live += 1;
        if self.free_head == NO_FREE {
            let id = PacketId(
                u32::try_from(self.slab.len())
                    .ok()
                    .filter(|&i| i < PacketId::LIMIT)
                    .expect("invariant: in-flight packet count stays below 2^31"),
            );
            self.slab.push(pkt);
            id
        } else {
            let id = PacketId(self.free_head);
            let slot = &mut self.slab[id.index()];
            self.free_head = slot.slot;
            *slot = pkt;
            id
        }
    }

    /// Release `id`'s slot for reuse. The caller must own the only copy of
    /// `id` (the packet was delivered or dropped); double frees would hand
    /// one slot to two owners. The conservation ledger's in-flight balance
    /// checks this indirectly: a double free shows up as `live()` drifting
    /// below the pending-arrival + buffered count.
    pub fn free(&mut self, id: PacketId) {
        self.slab[id.index()].slot = self.free_head;
        self.free_head = id.0;
        self.live -= 1;
    }

    /// Live packets (allocated and not yet freed).
    pub fn live(&self) -> usize {
        self.live
    }

    /// Slab high-water mark: the peak number of simultaneously live packets.
    pub fn capacity(&self) -> usize {
        self.slab.len()
    }
}

impl std::ops::Index<PacketId> for PacketArena {
    type Output = Packet;
    #[inline]
    fn index(&self, id: PacketId) -> &Packet {
        &self.slab[id.index()]
    }
}

impl std::ops::IndexMut<PacketId> for PacketArena {
    #[inline]
    fn index_mut(&mut self, id: PacketId) -> &mut Packet {
        &mut self.slab[id.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(seq: u64) -> Packet {
        Packet {
            slot: 0,
            hop: 0,
            subflow: 0,
            flags: 0,
            seq,
            ts: SimTime::ZERO,
        }
    }

    #[test]
    fn next_link_advances() {
        let route = [LinkId(0), LinkId(2), LinkId(5)];
        let mut p = pkt(0);
        assert_eq!(p.next_link(&route), Some(LinkId(0)));
        p.hop = 2;
        assert_eq!(p.next_link(&route), Some(LinkId(5)));
        p.hop = 3;
        assert_eq!(p.next_link(&route), None);
        // An ACK walks the same route back, each link reversed.
        p.flags = Packet::ACK;
        let back: Vec<_> = (0..4)
            .map(|hop| Packet { hop, ..p }.next_link(&route))
            .collect();
        let rev = |l: LinkId| Some(l.reverse());
        assert_eq!(back, [rev(LinkId(5)), rev(LinkId(2)), rev(LinkId(0)), None]);
    }

    #[test]
    fn flags_are_bits_of_one_byte() {
        let mut p = pkt(0);
        assert!(!p.has(Packet::ACK) && !p.has(Packet::RTX) && !p.has(Packet::CE));
        p.flags = Packet::ACK | Packet::CE;
        assert!(p.has(Packet::ACK) && p.has(Packet::CE) && !p.has(Packet::RTX));
    }

    #[test]
    fn arena_recycles_freed_slots() {
        let mut a = PacketArena::new();
        let id0 = a.alloc(pkt(0));
        let id1 = a.alloc(pkt(1));
        assert_eq!(a.live(), 2);
        assert_eq!(a.capacity(), 2);
        a.free(id0);
        assert_eq!(a.live(), 1);
        // The freed slot is reused: no slab growth.
        let id2 = a.alloc(pkt(2));
        assert_eq!(id2, id0);
        assert_eq!(a.capacity(), 2);
        assert_eq!(a[id2].seq, 2);
        assert_eq!(a[id1].seq, 1);
    }

    #[test]
    fn free_list_is_last_in_first_out() {
        let mut a = PacketArena::new();
        let ids: Vec<_> = (0..4).map(|i| a.alloc(pkt(i))).collect();
        for &i in &[1, 3, 0] {
            a.free(ids[i]);
        }
        assert_eq!(a.live(), 1);
        assert_eq!(a.alloc(pkt(10)), ids[0]);
        assert_eq!(a.alloc(pkt(11)), ids[3]);
        assert_eq!(a.alloc(pkt(12)), ids[1]);
        assert_eq!(a.alloc(pkt(13)), PacketId(4));
        assert_eq!(a[ids[2]].seq, 2);
        assert_eq!(a.live(), 5);
    }

    #[test]
    fn arena_mutation_in_place() {
        let mut a = PacketArena::new();
        let id = a.alloc(pkt(0));
        a[id].hop += 1;
        assert_eq!(a[id].hop, 1);
    }

    #[test]
    fn arena_high_water_mark_tracks_peak_in_flight() {
        let mut a = PacketArena::new();
        let ids: Vec<_> = (0..10).map(|i| a.alloc(pkt(i))).collect();
        for id in ids {
            a.free(id);
        }
        assert_eq!(a.live(), 0);
        // Steady-state churn below the peak never grows the slab.
        for i in 0..100u64 {
            let id = a.alloc(pkt(i % 7));
            a.free(id);
        }
        assert_eq!(a.capacity(), 10);
    }
}
