//! The event queue: a calendar of fixed-width time slots over a sliding
//! window, with a ladder for the far future. Events pop in `(time, seq)`
//! order, `seq` being a counter bumped by every `schedule`.
//!
//! Most simulator events are *near-future*: a departure one serialization
//! time ahead (3.2 ns for an ACK at 100G), an arrival ~1 µs. The calendar
//! places each event in O(1) and orders a slot only when it comes up:
//!
//! * **Slots.** `N_SLOTS` slots of `2^SLOT_SHIFT` ps (16.4 ns) cover a
//!   window of ~67 µs from `window_start`, a multiple of the window span.
//!   `schedule` appends to the chain of `slots[(t >> SLOT_SHIFT) mod
//!   N_SLOTS]`, unsorted.
//! * **The open slot.** Opening the next occupied slot counts its events by
//!   fine bucket — `2^BUCKET_SHIFT` ps (1.02 ns), `BUCKETS` (16) to a slot —
//!   and scatters them, stably, from the chain into `open`, one group per
//!   bucket. The slot then drains one bucket at a time: opening a bucket
//!   copies its group, plus the events `later` holds for it, into the
//!   `drain` stack and sorts that by time, descending; pops come off the end.
//! * **Events scheduled into the open slot.** One for a later bucket of it
//!   goes to `later`. Only one for the current bucket itself — a delay under
//!   1 ns, such as an ACK's serialization at 400G — goes to the small `late`
//!   heap. Each pop takes the smaller, by `(time, seq)`, of the drain tail
//!   and the late head.
//! * **Ladder.** Events at or beyond the window end (RTO timers at ≥10 ms,
//!   app wakeups, telemetry ticks) go to an overflow heap. When the calendar
//!   is empty, the window jumps to the span holding the ladder minimum and
//!   every ladder event inside it is staged into its slot.
//!
//! **Why one stable sort on time is the `(time, seq)` order.** In every
//! buffer the calendar sorts, equal-time events stand in seq order:
//! `schedule` appends with increasing seq, the ladder stages into an empty
//! calendar in `(time, seq)` order, the scatter is stable, and `later`
//! fills after its slot's staged events. Reversed, then stably sorted by
//! descending time, a bucket is in descending `(time, seq)` order.
//!
//! The invariants the window and the buckets rest on: (1) every
//! `schedule(at, ..)` has `at` no earlier than the last pop, itself no
//! earlier than `window_start`, so no insertion lands before `cur_slot`, nor
//! in the open slot before `cur_bucket`; (2) the window advances only when
//! the calendar is empty, and only to the span holding the global minimum.
//!
//! **Memory.** A slot's chain is two `u32` chunk indices and a length; its
//! events live in chunks of [`CHUNK`] events. Staging takes a chunk off the
//! free list only when the chain's tail chunk is full, and opening the slot
//! returns them all, so chunks in use hold at most `staged + (CHUNK − 1) ×
//! occupied slots` events. The free list keeps what it gets back: the pool
//! is the peak of that sum over the run, and a burst's chunks serve the
//! slots after it. A slot open shrinks `open`, `later` and `drain` to twice
//! its load (two chunks at least): none keeps a burst's room.

use crate::packet::{ConnId, PacketId};
use crate::time::SimTime;
use pnet_topology::LinkId;
use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

/// Things that can happen.
#[derive(Clone, Copy, Debug)]
pub enum EventKind {
    /// The head-of-line packet of `link`'s queue finished serializing.
    QueueDeparture { link: LinkId },
    /// The packet behind `packet` (an index into the simulator's arena)
    /// finished propagating and arrives at the input of its next hop (or at
    /// the destination host if the route is exhausted).
    Arrival { packet: PacketId },
    /// A retransmission timer fired. Stale tokens are ignored.
    RtoTimer {
        conn: ConnId,
        subflow: u8,
        token: u64,
    },
    /// An application-scheduled wakeup (flow start, think time, ...).
    AppTimer { app: u32, tag: u64 },
    /// A periodic telemetry sampler tick. Observes queue/plane/subflow state
    /// and mutates nothing, so enabling it never changes transport behaviour.
    TelemetrySample,
}

/// A scheduled event.
#[derive(Clone, Copy, Debug)]
pub struct Event {
    pub time: SimTime,
    seq: u64,
    pub kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Event {}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time.cmp(&other.time).then(self.seq.cmp(&other.seq))
    }
}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Slot width: 2^14 ps ≈ 16.4 ns, under an MTU's 120 ns at 100G, so
/// back-to-back departures spread over slots; 4096 slots span ~67 µs, past
/// any hop latency, with every ≥10 ms RTO in the ladder.
const SLOT_SHIFT: u32 = 14;
/// Number of slots (power of two so the slot index is a mask).
const N_SLOTS: usize = 1 << 12;
/// Width of the window in picoseconds (~67.1 µs).
const SPAN_PS: u64 = (N_SLOTS as u64) << SLOT_SHIFT;
/// Fine-bucket width: 2^10 ps ≈ 1.02 ns, under an ACK's 3.2 ns
/// serialization at 100G, so an ACK departure lands in a later bucket.
const BUCKET_SHIFT: u32 = 10;
/// Fine buckets per slot.
const BUCKETS: usize = 1 << (SLOT_SHIFT - BUCKET_SHIFT);
/// Events per chunk (512 B). Seed-1 `packet_rpc` stages a few events in
/// each of ~3 400 slots at once, `packet_bulk` ~220 in each of ~60.
pub const CHUNK: usize = 16;

#[inline]
fn slot_of(t_ps: u64) -> usize {
    ((t_ps >> SLOT_SHIFT) as usize) & (N_SLOTS - 1)
}

#[inline]
fn bucket_of(ev: &Event) -> usize {
    ((ev.time.as_ps() >> BUCKET_SHIFT) as usize) & (BUCKETS - 1)
}

/// A slot's staged events in schedule order: `len` events from chunk `head`
/// along the pool's `next` links to chunk `tail`; none when empty.
#[derive(Clone, Copy, Debug, Default)]
struct Chain {
    head: u32,
    tail: u32,
    len: u32,
}

/// The chunks slots stage their events in, and the free list of spare ones.
#[derive(Debug, Default)]
struct Chunks {
    #[expect(clippy::vec_box, reason = "a chunk never moves as the pool grows")]
    store: Vec<Box<[Event; CHUNK]>>,
    /// Each chunk's successor in its chain.
    next: Vec<u32>,
    free: Vec<u32>,
}

impl Chunks {
    /// Append `ev` to `q`.
    #[inline]
    fn push(&mut self, q: &mut Chain, ev: Event) {
        let at = q.len as usize % CHUNK;
        if at == 0 {
            self.link(q, ev);
        }
        self.store[q.tail as usize][at] = ev;
        q.len += 1;
    }

    /// Give `q` a new tail chunk, spare or new: out of `push`'s hot path.
    #[inline(never)]
    fn link(&mut self, q: &mut Chain, fill: Event) {
        let c = self.free.pop().unwrap_or_else(|| {
            self.store.push(Box::new([fill; CHUNK]));
            self.next.push(0);
            u32::try_from(self.store.len() - 1).expect("invariant: chunks fit u32 indices")
        });
        if q.len == 0 {
            q.head = c;
        } else {
            self.next[q.tail as usize] = c;
        }
        q.tail = c;
    }

    /// `q`'s events in order, one chunk's run at a time.
    fn runs<'a>(&'a self, q: &Chain) -> impl Iterator<Item = &'a [Event]> + 'a {
        let (mut c, mut left) = (q.head as usize, q.len as usize);
        std::iter::from_fn(move || {
            (left > 0).then(|| {
                let run = &self.store[c][..left.min(CHUNK)];
                (c, left) = (self.next[c] as usize, left - run.len());
                run
            })
        })
    }

    /// Empty `q`, handing its chunks to the free list.
    fn release(&mut self, q: &mut Chain) {
        let mut c = q.head;
        for _ in 0..(q.len as usize).div_ceil(CHUNK) {
            self.free.push(c);
            c = self.next[c as usize];
        }
        *q = Chain::default();
    }
}

/// Deterministic event queue (calendar slots + overflow ladder).
#[derive(Debug)]
pub struct EventQueue {
    chunks: Chunks,
    /// Per-slot staged events for the current window, each in schedule
    /// order. The open slot's is empty: its events are in `open`, `later`,
    /// `drain` and `late`.
    slots: Vec<Chain>,
    /// The open slot's staged events, grouped by fine bucket: bucket `b` is
    /// `open[bounds[b]..bounds[b + 1]]`.
    open: Vec<Event>,
    bounds: [usize; BUCKETS + 1],
    /// Buckets of the open slot whose `open` group is still to drain.
    open_groups: u16,
    /// Events scheduled into a later bucket of the open slot after it
    /// opened, in schedule order.
    later: Vec<Event>,
    /// Buckets of the open slot that `later` holds events for.
    later_buckets: u16,
    /// The current bucket's backlog, sorted descending by `(time, seq)`;
    /// pops come off the end.
    drain: Vec<Event>,
    /// Events scheduled into the current bucket after it opened.
    late: BinaryHeap<Reverse<Event>>,
    /// The open slot. Slots before it (within this window) are empty.
    cur_slot: usize,
    /// The open slot's current bucket. Buckets before it are empty.
    cur_bucket: usize,
    /// Start of the window; always a multiple of `SPAN_PS`.
    window_start: u64,
    /// Far-future overflow: every event at or beyond `window_start + SPAN_PS`.
    ladder: BinaryHeap<Reverse<Event>>,
    /// Lower bound on the lowest occupied slot (`N_SLOTS` when provably
    /// none), never below `cur_slot`: slot scans start here, so a run of
    /// empty slots is traversed once, not once per peek/pop.
    min_staged: usize,
    /// Events in the calendar (everything but the ladder).
    in_buckets: usize,
    next_seq: u64,
    scheduled: u64,
    dispatched: u64,
    slot_opens: u64,
    late_pushes: u64,
    /// Pending [`EventKind::Arrival`] events, maintained at schedule/pop so
    /// the conservation ledger never scans the queue.
    arrivals_pending: u64,
}

impl Default for EventQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl EventQueue {
    /// Empty queue. Slot 0 stands open at bucket 0.
    pub fn new() -> Self {
        EventQueue {
            chunks: Chunks::default(),
            slots: vec![Chain::default(); N_SLOTS],
            open: Vec::new(),
            bounds: [0; BUCKETS + 1],
            open_groups: 0,
            later: Vec::new(),
            later_buckets: 0,
            drain: Vec::new(),
            late: BinaryHeap::new(),
            cur_slot: 0,
            cur_bucket: 0,
            window_start: 0,
            ladder: BinaryHeap::new(),
            min_staged: N_SLOTS,
            in_buckets: 0,
            next_seq: 0,
            scheduled: 0,
            dispatched: 0,
            slot_opens: 0,
            late_pushes: 0,
            arrivals_pending: 0,
        }
    }

    /// Schedule `kind` at absolute time `at`.
    #[inline]
    pub fn schedule(&mut self, at: SimTime, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.scheduled += 1;
        if matches!(kind, EventKind::Arrival { .. }) {
            self.arrivals_pending += 1;
        }
        let ev = Event {
            time: at,
            seq,
            kind,
        };
        let t = at.as_ps();
        if t >= self.window_start.saturating_add(SPAN_PS) {
            self.ladder.push(Reverse(ev));
            return;
        }
        debug_assert!(t >= self.window_start, "scheduled behind the window");
        let s = slot_of(t);
        debug_assert!(s >= self.cur_slot, "insertion behind the open slot");
        if s != self.cur_slot {
            self.stage(s, ev);
            return;
        }
        let b = bucket_of(&ev);
        debug_assert!(b >= self.cur_bucket, "insertion behind the current bucket");
        if b == self.cur_bucket {
            self.late.push(Reverse(ev));
            self.late_pushes += 1;
        } else {
            self.later.push(ev);
            self.later_buckets |= 1 << b;
        }
        self.in_buckets += 1;
    }

    /// Stage `ev` in slot `s` (after the open slot, or the slot a window
    /// jump is about to open).
    #[inline]
    fn stage(&mut self, s: usize, ev: Event) {
        self.chunks.push(&mut self.slots[s], ev);
        self.min_staged = self.min_staged.min(s);
        self.in_buckets += 1;
    }

    /// Open staged slot `s`: count its events by fine bucket, scatter them,
    /// stably, from its chain into `open`, and return the chain's chunks.
    fn open_slot(&mut self, s: usize) {
        debug_assert!(self.open_groups == 0 && self.later.is_empty() && self.drain.is_empty());
        self.cur_slot = s;
        self.slot_opens += 1;
        let mut staged = std::mem::take(&mut self.slots[s]);
        let mut next = [0usize; BUCKETS + 1];
        for run in self.chunks.runs(&staged) {
            for ev in run {
                next[bucket_of(ev) + 1] += 1;
            }
        }
        for b in 0..BUCKETS {
            self.open_groups |= u16::from(next[b + 1] > 0) << b;
            next[b + 1] += next[b];
        }
        self.bounds = next;
        let end = next[BUCKETS];
        // A burst's room goes with the first slot that needs under half of
        // it. A staged event fills `open`, and the scatter overwrites it all.
        self.open.clear();
        for buf in [&mut self.open, &mut self.later, &mut self.drain] {
            buf.shrink_to(2 * end.max(CHUNK));
        }
        let fill = self.chunks.store[staged.head as usize][0];
        self.open.resize(end, fill);
        for run in self.chunks.runs(&staged) {
            for ev in run {
                let at = &mut next[bucket_of(ev)];
                self.open[*at] = *ev;
                *at += 1;
            }
        }
        self.chunks.release(&mut staged);
        // The scan that found `s` proved the slots before it empty.
        self.min_staged = s + 1;
    }

    /// Make bucket `b` of the open slot current: its `open` group and its
    /// `later` events become the drain stack, descending by `(time, seq)`.
    fn open_bucket(&mut self, b: usize) {
        debug_assert!(self.drain.is_empty() && self.late.is_empty());
        self.cur_bucket = b;
        self.drain
            .extend_from_slice(&self.open[self.bounds[b]..self.bounds[b + 1]]);
        self.open_groups &= !(1 << b);
        if self.later_buckets & (1 << b) != 0 {
            self.later_buckets &= !(1 << b);
            let drain = &mut self.drain;
            self.later.retain(|ev| {
                let joins = bucket_of(ev) == b;
                if joins {
                    drain.push(*ev);
                }
                !joins
            });
        }
        self.drain.reverse();
        self.drain.sort_by_key(|ev| Reverse(ev.time));
        debug_assert!(self.drain.windows(2).all(|w| w[0] > w[1]));
    }

    /// Open the next bucket holding events: in the open slot if any is
    /// left, else in the next occupied slot, which opens first.
    fn advance(&mut self) {
        let mut pending = self.open_groups | self.later_buckets;
        if pending == 0 {
            // The scan never wraps: staged insertions always land after
            // cur_slot (invariant 1 in the module docs), and `min_staged`
            // bounds it below so the empty prefix is skipped without probing.
            debug_assert!(self.min_staged >= self.cur_slot);
            let next = (self.min_staged..N_SLOTS)
                .find(|&s| self.slots[s].len > 0)
                .expect("invariant: in_buckets > 0 implies an occupied slot ahead");
            self.open_slot(next);
            pending = self.open_groups;
        }
        self.open_bucket(pending.trailing_zeros() as usize);
    }

    /// Whether the current bucket's earliest event is the late heap's head
    /// rather than the drain stack's tail.
    #[inline]
    fn late_first(&self) -> bool {
        match (self.drain.last(), self.late.peek()) {
            (Some(d), Some(Reverse(l))) => l < d,
            (None, Some(_)) => true,
            (_, None) => false,
        }
    }

    /// The current bucket's earliest event, if it holds one.
    #[inline]
    fn current_head(&self) -> Option<&Event> {
        if self.late_first() {
            self.late.peek().map(|Reverse(e)| e)
        } else {
            self.drain.last()
        }
    }

    /// Remove the current bucket's earliest event.
    #[inline]
    fn pop_current(&mut self) -> Option<Event> {
        let ev = if self.late_first() {
            self.late.pop().map(|Reverse(e)| e)
        } else {
            self.drain.pop()
        }?;
        self.in_buckets -= 1;
        self.dispatched += 1;
        if matches!(ev.kind, EventKind::Arrival { .. }) {
            self.arrivals_pending -= 1;
        }
        // Every event is scheduled once and dispatched at most once.
        debug_assert_eq!(self.len() as u64 + self.dispatched, self.scheduled);
        Some(ev)
    }

    /// Pop the earliest event.
    #[inline]
    pub fn pop(&mut self) -> Option<Event> {
        loop {
            if self.in_buckets > 0 {
                if self.drain.is_empty() && self.late.is_empty() {
                    self.advance();
                }
                let ev = self.pop_current();
                return Some(ev.expect("invariant: an opened bucket holds an event"));
            }
            let Reverse(head) = self.ladder.peek()?;
            // Calendar empty: jump the window to the span containing the
            // ladder minimum and stage every ladder event inside it.
            let min_t = head.time.as_ps();
            self.window_start = min_t & !(SPAN_PS - 1);
            self.cur_slot = slot_of(min_t);
            self.min_staged = N_SLOTS; // refill below re-establishes the bound
            let end = self.window_start.saturating_add(SPAN_PS);
            loop {
                let ladder = self.ladder.peek_mut();
                let Some(head) = ladder.filter(|h| h.0.time.as_ps() < end) else {
                    break;
                };
                let Reverse(ev) = PeekMut::pop(head);
                self.stage(slot_of(ev.time.as_ps()), ev);
            }
        }
    }

    /// Time of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        if self.in_buckets > 0 {
            // Calendar events are all earlier than the window end, ladder
            // events all at or after it, so the calendar minimum is global.
            if let Some(ev) = self.current_head() {
                return Some(ev.time);
            }
            let pending = self.open_groups | self.later_buckets;
            if pending != 0 {
                let b = pending.trailing_zeros() as usize;
                let later = self.later.iter().filter(|ev| bucket_of(ev) == b);
                let group = self.open[self.bounds[b]..self.bounds[b + 1]].iter();
                return group.chain(later).map(|ev| ev.time).min();
            }
            let staged = self.slots[self.min_staged..].iter().find(|c| c.len > 0);
            let staged = staged.expect("invariant: in_buckets > 0 implies an occupied slot ahead");
            return self.chunks.runs(staged).flatten().map(|e| e.time).min();
        }
        self.ladder.peek().map(|Reverse(e)| e.time)
    }

    /// Events still pending.
    pub fn len(&self) -> usize {
        self.in_buckets + self.ladder.len()
    }

    /// True when no events remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events dispatched so far (for instrumentation).
    pub fn dispatched(&self) -> u64 {
        self.dispatched
    }

    /// Total events scheduled so far (for instrumentation; always equals
    /// `dispatched() + len()`).
    pub fn scheduled(&self) -> u64 {
        self.scheduled
    }

    /// Slots opened so far: each one counting-sorted by fine bucket (for
    /// instrumentation).
    pub fn slot_opens(&self) -> u64 {
        self.slot_opens
    }

    /// Events scheduled into the bucket being drained, which take the late
    /// heap (for instrumentation).
    pub fn late_pushes(&self) -> u64 {
        self.late_pushes
    }

    /// Events of room the queue holds: its chunks, spare ones included, and
    /// `open`, `later` and the drain (for instrumentation; see "Memory" in
    /// the module docs).
    pub fn staged_capacity(&self) -> usize {
        let own = [&self.open, &self.later, &self.drain];
        self.chunks.store.len() * CHUNK + own.map(Vec::capacity).iter().sum::<usize>()
    }

    /// Packets currently propagating: pending [`EventKind::Arrival`] events.
    /// A counter maintained at schedule/pop time, so the conservation ledger
    /// stays O(1) per check at any simulation scale.
    pub fn pending_arrivals(&self) -> u64 {
        self.arrivals_pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_partial_ord_is_consistent_with_ord_and_eq() {
        use std::cmp::Ordering;
        let ev = |t: u64, seq: u64| Event {
            time: SimTime::from_ps(t),
            seq,
            kind: EventKind::TelemetrySample,
        };
        // Same (time, seq) with different kinds still compares Equal — the
        // queue orders purely on (time, seq).
        let same = Event {
            time: SimTime::from_ps(10),
            seq: 1,
            kind: EventKind::AppTimer { app: 0, tag: 0 },
        };
        let cases = [ev(10, 1), ev(10, 2), ev(20, 0), same];
        for x in &cases {
            for y in &cases {
                assert_eq!(
                    x.partial_cmp(y),
                    Some(x.cmp(y)),
                    "PartialOrd must delegate to Ord"
                );
                assert_eq!(
                    x == y,
                    x.cmp(y) == Ordering::Equal,
                    "Eq must agree with Ord"
                );
            }
        }
        assert!(ev(10, 1) < ev(10, 2), "seq breaks time ties");
        assert!(ev(10, 2) < ev(20, 0), "time dominates");
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_us(3), EventKind::AppTimer { app: 3, tag: 0 });
        q.schedule(SimTime::from_us(1), EventKind::AppTimer { app: 1, tag: 0 });
        q.schedule(SimTime::from_us(2), EventKind::AppTimer { app: 2, tag: 0 });
        let order: Vec<u32> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::AppTimer { app, .. } => app,
                _ => panic!("only app timers are scheduled"),
            })
            .collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.schedule(SimTime::from_us(5), EventKind::AppTimer { app: i, tag: 0 });
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::AppTimer { app, .. } => app,
                _ => panic!("only app timers are scheduled"),
            })
            .collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(7), EventKind::AppTimer { app: 0, tag: 0 });
        assert_eq!(q.peek_time(), Some(SimTime::from_ns(7)));
        let e = q.pop().unwrap();
        assert_eq!(e.time, SimTime::from_ns(7));
        assert!(q.is_empty());
    }

    #[test]
    fn counters_track() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::ZERO, EventKind::AppTimer { app: 0, tag: 0 });
        q.schedule(SimTime::ZERO, EventKind::AppTimer { app: 1, tag: 0 });
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.dispatched(), 1);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn drain_invariant_holds_through_interleaved_use() {
        let mut q = EventQueue::new();
        // Interleave schedules and pops, including pops on empty, and check
        // scheduled == dispatched + pending at every step.
        for round in 0..5u64 {
            for i in 0..3 {
                q.schedule(
                    SimTime::from_ns(round * 10 + i),
                    EventKind::AppTimer {
                        app: i as u32,
                        tag: round,
                    },
                );
                assert_eq!(q.scheduled(), q.dispatched() + q.len() as u64);
            }
            q.pop();
            assert_eq!(q.scheduled(), q.dispatched() + q.len() as u64);
        }
        while q.pop().is_some() {
            assert_eq!(q.scheduled(), q.dispatched() + q.len() as u64);
        }
        // Pop on empty must not disturb the counters.
        assert!(q.pop().is_none());
        assert_eq!(q.scheduled(), 15);
        assert_eq!(q.dispatched(), 15);
        assert_eq!(q.len(), 0);
    }

    // -------------------------------------------------------------------
    // Calendar-specific edge cases.
    // -------------------------------------------------------------------

    fn app(q: &mut EventQueue, at_ps: u64, app: u32) {
        q.schedule(SimTime::from_ps(at_ps), EventKind::AppTimer { app, tag: 0 });
    }

    fn drain_apps(q: &mut EventQueue) -> Vec<(u64, u32)> {
        std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::AppTimer { app, .. } => (e.time.as_ps(), app),
                _ => panic!("only app timers are scheduled"),
            })
            .collect()
    }

    #[test]
    fn bucket_rollover_across_slot_boundaries() {
        // Events straddling slot boundaries within one window: exact order
        // regardless of which 16.4 ns bucket each lands in.
        let w = 1u64 << SLOT_SHIFT;
        let mut q = EventQueue::new();
        app(&mut q, 3 * w + 1, 4);
        app(&mut q, w - 1, 1); // last ps of slot 0
        app(&mut q, w, 2); // first ps of slot 1
        app(&mut q, 0, 0);
        app(&mut q, 3 * w + 1, 5); // tie with app 4: seq order
        app(&mut q, 2 * w + 7, 3);
        let got = drain_apps(&mut q);
        assert_eq!(
            got,
            vec![
                (0, 0),
                (w - 1, 1),
                (w, 2),
                (2 * w + 7, 3),
                (3 * w + 1, 4),
                (3 * w + 1, 5),
            ]
        );
    }

    #[test]
    fn far_future_events_take_the_ladder_and_come_back() {
        // A mix of near events and far timers (several windows out, RTO
        // scale): the ladder must hand them back in exact order, including
        // ties and events that share the post-jump window.
        let mut q = EventQueue::new();
        app(&mut q, SPAN_PS * 3 + 500, 3); // far: ladder
        app(&mut q, 10, 0); // near
        app(&mut q, SPAN_PS * 3 + 500, 4); // far tie: seq order
        app(&mut q, SPAN_PS * 3 + 499, 2); // far, just before the tie
        app(&mut q, SPAN_PS - 1, 1); // last ps of the first window
        app(&mut q, SPAN_PS * 9 + 1, 5); // beyond even the jumped window
        let got = drain_apps(&mut q);
        assert_eq!(
            got,
            vec![
                (10, 0),
                (SPAN_PS - 1, 1),
                (SPAN_PS * 3 + 499, 2),
                (SPAN_PS * 3 + 500, 3),
                (SPAN_PS * 3 + 500, 4),
                (SPAN_PS * 9 + 1, 5),
            ]
        );
    }

    #[test]
    fn window_jump_then_schedule_into_new_window() {
        // After the window jumps to a far timer, scheduling near the new
        // "now" must land in the new window's buckets and sort correctly
        // against remaining ladder events.
        let far = SPAN_PS * 5 + 1000;
        let mut q = EventQueue::new();
        app(&mut q, far, 1);
        app(&mut q, far + SPAN_PS, 3); // next window again
        let first = q.pop().unwrap();
        assert_eq!(first.time.as_ps(), far);
        // Simulate the dispatch of `first` scheduling a follow-up shortly
        // after now (same window) — the common RTO-retransmit pattern.
        app(&mut q, far + 5, 2);
        let got = drain_apps(&mut q);
        assert_eq!(got, vec![(far + 5, 2), (far + SPAN_PS, 3)]);
    }

    #[test]
    fn late_insertion_into_draining_slot_keeps_order() {
        // Pop one event of a slot, then schedule an earlier-time event into
        // the same slot (larger seq, smaller time than the drain remainder):
        // the merge must interleave it correctly.
        let mut q = EventQueue::new();
        app(&mut q, 100, 0);
        app(&mut q, 300, 2);
        app(&mut q, 400, 3);
        assert_eq!(q.pop().unwrap().time.as_ps(), 100);
        app(&mut q, 200, 1); // same slot 0, earlier than 300
        let got = drain_apps(&mut q);
        assert_eq!(got, vec![(200, 1), (300, 2), (400, 3)]);
    }

    #[test]
    fn matches_reference_heap_on_a_dense_mixed_schedule() {
        // Deterministic miniature of the props.rs proptest: interleave
        // schedules (near, far, tied) with pops and compare against a
        // straightforward (time, insertion-index) sort.
        let times: Vec<u64> = (0..400u64)
            .map(|i| {
                // LCG spreading times over ~3 windows with many collisions.
                let r = i
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (r >> 33) % (3 * SPAN_PS / 2)
            })
            .collect();
        let mut q = EventQueue::new();
        let mut expect: Vec<(u64, u32)> = Vec::new();
        for (i, &t) in times.iter().enumerate() {
            app(&mut q, t, i as u32);
            expect.push((t, i as u32));
        }
        expect.sort_unstable(); // (time, seq) == (time, insertion index) here
        assert_eq!(drain_apps(&mut q), expect);
    }

    #[test]
    fn same_timestamp_burst_pops_in_schedule_order() {
        // 4 096 events at one instant, half staged before the slot opens and
        // half scheduled into the bucket while it drains (the late heap).
        let t = 5 * (1u64 << SLOT_SHIFT) + 77;
        let mut q = EventQueue::new();
        for i in 0..2048 {
            app(&mut q, t, i);
        }
        let first = q.pop().expect("burst pending");
        assert_eq!(first.time.as_ps(), t);
        for i in 2048..4096 {
            app(&mut q, t, i);
        }
        assert_eq!(q.late_pushes(), 2048);
        let rest = drain_apps(&mut q);
        assert_eq!(rest, (1..4096).map(|i| (t, i)).collect::<Vec<_>>());
        assert_eq!(q.slot_opens(), 1);
    }

    #[test]
    fn ack_cascade_crosses_buckets_and_slots() {
        // A chain of 3.2 ns hops, each scheduled when the previous one pops,
        // beside a same-instant twin of every hop: buckets are crossed
        // within the open slot (through `later`) and across slots (staged),
        // and never through the late heap.
        const HOP: u64 = 3_200;
        let t0 = 5 * (1u64 << SLOT_SHIFT) + 1;
        let last = t0 + 40 * HOP;
        let mut q = EventQueue::new();
        app(&mut q, t0, 0);
        app(&mut q, t0, 1);
        let mut got = Vec::new();
        while let Some(e) = q.pop() {
            let t = e.time.as_ps();
            let EventKind::AppTimer { app: id, .. } = e.kind else {
                panic!("only app timers are scheduled")
            };
            got.push((t, id));
            if id % 2 == 0 && t < last {
                app(&mut q, t + HOP, id + 2);
                app(&mut q, t + HOP, id + 3);
            }
        }
        let want: Vec<(u64, u32)> = (0..=40u64)
            .flat_map(|k| {
                [
                    (t0 + k * HOP, 2 * k as u32),
                    (t0 + k * HOP, 2 * k as u32 + 1),
                ]
            })
            .collect();
        assert_eq!(got, want);
        assert_eq!(q.late_pushes(), 0, "a 3.2 ns hop always leaves its bucket");
        let slots = (last >> SLOT_SHIFT) - (t0 >> SLOT_SHIFT) + 1;
        assert_eq!(
            q.slot_opens(),
            slots,
            "each slot the chain reaches opens once"
        );
    }

    #[test]
    fn ladder_restaging_keeps_time_seq_order() {
        // Far events scheduled out of time order, with ties, come back from
        // the ladder staged in (time, seq) order: one stable sort on time
        // per bucket then reproduces it, including ties across the
        // counting sort's bucket groups and events scheduled after the jump.
        let base = 7 * SPAN_PS;
        let b = 1u64 << BUCKET_SHIFT;
        let mut q = EventQueue::new();
        let far = [
            (3 * b + 5, 0),
            (b, 1),
            (3 * b + 5, 2),
            (0, 3),
            (b, 4),
            (0, 5),
        ];
        for &(dt, id) in &far {
            app(&mut q, base + dt, id);
        }
        assert_eq!(
            q.ladder.len(),
            far.len(),
            "all far events start on the ladder"
        );
        let first = q.pop().expect("events pending");
        assert_eq!((first.time.as_ps(), q.window_start), (base, base));
        app(&mut q, base + b, 6); // ties the restaged (b, 1) and (b, 4)
        app(&mut q, base + 3 * b + 5, 7);
        let mut got = vec![(first.time.as_ps(), 3)];
        got.extend(drain_apps(&mut q));
        let want = [(0, 3), (0, 5), (b, 1), (b, 4), (b, 6), (3 * b + 5, 0)];
        let mut want: Vec<(u64, u32)> = want.iter().map(|&(dt, id)| (base + dt, id)).collect();
        want.extend([(base + 3 * b + 5, 2), (base + 3 * b + 5, 7)]);
        assert_eq!(got, want);
    }

    #[test]
    fn bucket_and_slot_boundaries_keep_one_ps_order() {
        // Neighbours 1 ps apart across a fine-bucket and a slot boundary pop
        // in time order, and a tie scheduled at the last pop's time (the late
        // heap) pops before the next bucket opens.
        let b = 1u64 << BUCKET_SHIFT;
        let w = 1u64 << SLOT_SHIFT;
        let s = 3 * w; // slot 3: staged, so it opens by the counting sort
        let mut q = EventQueue::new();
        app(&mut q, s + 2 * b - 1, 0); // last ps of bucket 1 of slot 3
        app(&mut q, s + 2 * b, 1); // first ps of bucket 2
        app(&mut q, s + w - 1, 2); // last ps of slot 3
        app(&mut q, s + w, 3); // first ps of slot 4
        let e = q.pop().expect("pending");
        assert_eq!(e.time.as_ps(), s + 2 * b - 1);
        assert_eq!(q.peek_time(), Some(SimTime::from_ps(s + 2 * b)));
        app(&mut q, s + 2 * b - 1, 4); // a tie at the last pop: the late heap
        assert_eq!(q.peek_time(), Some(e.time));
        let got = drain_apps(&mut q);
        let want = [
            (s + 2 * b - 1, 4),
            (s + 2 * b, 1),
            (s + w - 1, 2),
            (s + w, 3),
        ];
        assert_eq!(got, want);
        assert_eq!((q.slot_opens(), q.late_pushes()), (2, 1));
    }

    /// The Memory bound (module docs) on the queue's room, from peaks of
    /// the run: `pending` events over `occupied` slots, the most in a slot.
    fn bound(pending: usize, occupied: usize, load: usize) -> usize {
        pending + CHUNK * occupied + 6 * load.max(CHUNK)
    }

    /// Asserts the Memory bound on what `q` holds now: the chunks in chains
    /// hold the staged events with under a chunk of slack per slot, and
    /// `open` at most twice what its slot needs.
    fn census(q: &EventQueue) {
        let held = (q.chunks.store.len() - q.chunks.free.len()) * CHUNK;
        let occupied = q.slots.iter().filter(|c| c.len > 0).count();
        let staged: usize = q.slots.iter().map(|c| c.len as usize).sum();
        assert!(
            staged <= held && held <= staged + (CHUNK - 1) * occupied,
            "{held} events of chunk for {staged} staged over {occupied} slots"
        );
        assert!(q.open.capacity() <= 2 * q.open.len().max(CHUNK));
    }

    #[test]
    fn staged_capacity_follows_occupancy_not_history() {
        // 1 000 bursts of 512 events, each in one slot, each on a slot index
        // the ring has not used before (stride 17 is coprime to N_SLOTS),
        // drained between bursts. ~4 windows pass, so bursts arrive both by
        // `schedule` and by the ladder re-hash. One slot is occupied at a
        // time: the first burst's chunks carry the whole run.
        const BURST: u64 = 512;
        let w = 1u64 << SLOT_SHIFT;
        let mut q = EventQueue::new();
        let mut seen = std::collections::BTreeSet::new();
        let mut peak_capacity = 0;
        for burst in 0..1_000u64 {
            let base = burst * 17 * w;
            assert!(seen.insert(slot_of(base)), "burst reused a slot index");
            let mut expect: Vec<(u64, u32)> = (0..BURST)
                .map(|j| (base + j * 37 % w, (burst * BURST + j) as u32))
                .collect();
            for &(t, id) in &expect {
                app(&mut q, t, id);
            }
            census(&q);
            expect.sort_unstable(); // ids ascend in schedule order, as seq does
            assert_eq!(drain_apps(&mut q), expect);
            assert!(q.chunks.store.len() * CHUNK <= BURST as usize);
            peak_capacity = peak_capacity.max(q.staged_capacity());
        }
        assert!(q.window_start >= 3 * SPAN_PS, "run must cross window jumps");
        assert!(
            peak_capacity <= bound(BURST as usize, 1, BURST as usize),
            "staged capacity {peak_capacity} events for bursts of {BURST}"
        );
    }

    #[test]
    fn buffers_number_the_slots_occupied_at_once() {
        // The module docs' Memory bound on a schedule that occupies many
        // slots at once: waves of 1..=40 occupied slots with uneven loads,
        // each wave drained while scheduling into the slot being drained
        // (so `later` and the late heap fill too), windows crossed on the
        // way. The census holds after every operation, the bound at the
        // run's peaks.
        let w = 1u64 << SLOT_SHIFT;
        let mut q = EventQueue::new();
        let (mut id, mut now) = (0u32, 0u64);
        let (mut peak_pending, mut peak_occupied, mut peak_load) = (0, 0, 0);
        for wave in 1..=120u64 {
            let n_slots = 1 + wave * 7 % 40;
            let base = (now / w + 1) * w; // slot-aligned: one group, one slot
            for k in 0..n_slots {
                let load = 1 + (wave + k) * 5 % 23;
                for j in 0..load {
                    app(&mut q, base + 3 * k * w + j * 997 % w, id);
                    id += 1;
                }
                peak_load = peak_load.max(load as usize);
            }
            // A wave straddling the window end occupies fewer at once.
            peak_occupied = peak_occupied.max(n_slots as usize);
            peak_pending = peak_pending.max(q.len());
            census(&q);
            // Each popped event of the wave's first slot schedules one more
            // into the same slot, 0 or 2 ns on: the slot's load never grows.
            let mut popped = 0;
            while let Some(e) = q.pop() {
                now = e.time.as_ps();
                if popped < 8 && slot_of(now) == slot_of(base) && now + 2048 < base + w {
                    app(&mut q, now + 2048 * (popped % 2), id);
                    id += 1;
                    popped += 1;
                }
                census(&q);
                let peak = bound(peak_pending, peak_occupied, peak_load);
                assert!(q.staged_capacity() <= peak);
            }
        }
        assert!(q.late_pushes() > 0 && q.window_start > 0);
    }

    #[test]
    fn a_burst_leaves_no_room_behind_it() {
        // One slot of 4 096 events, then 10 000 light slots, up to eight
        // occupied at once. Buffers that keep the capacity they once reached
        // hold the burst's room twice over, the slot's and the sorted
        // copy's, while the light slots pass. Chunks hold what is staged;
        // the burst's spare ones serve the light slots, and the sorted copy
        // shrinks with the first light slot.
        const BURST: u32 = 4_096;
        let w = 1u64 << SLOT_SHIFT;
        let mut q = EventQueue::new();
        for i in 0..BURST {
            app(&mut q, 3 * w + u64::from(i) * 3 % w, i);
        }
        census(&q);
        let mut got = drain_apps(&mut q);
        assert_eq!(got.len(), BURST as usize);
        let chunks = q.chunks.store.len();
        assert_eq!(chunks * CHUNK, BURST as usize);
        let mut id = BURST;
        for light in 0..10_000u64 {
            let last_pop = got.last().map_or(0, |&(t, _)| t);
            let base = (last_pop / w + 1 + light % 8) * w;
            for j in 0..3 {
                app(&mut q, base + j * 5_000, id);
                id += 1;
            }
            census(&q);
            if light % 8 == 7 {
                got.extend(drain_apps(&mut q));
                assert!(q.staged_capacity() <= BURST as usize + 6 * CHUNK);
            }
            assert_eq!(q.chunks.store.len(), chunks, "chunks are recycled");
        }
        got.extend(drain_apps(&mut q));
        assert_eq!(got.len(), id as usize);
        assert!(got.windows(2).all(|p| p[0] < p[1]));
    }
}
