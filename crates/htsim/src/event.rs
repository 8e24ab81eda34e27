//! The event queue: a calendar of fixed-width time slots over a sliding
//! window, with a ladder for the far future. Events pop in `(time, seq)`
//! order, `seq` being a counter bumped by every `schedule`.
//!
//! Most simulator events are *near-future*: a queue departure lands one
//! serialization time ahead (3.2 ns for an ACK at 100G, 120 ns for an MTU),
//! an arrival one propagation delay ahead (~1 µs). The calendar places each
//! event by its time in O(1) and orders a slot's events only when the slot
//! comes up:
//!
//! * **Slots.** `N_SLOTS` slots of `2^SLOT_SHIFT` ps (16.4 ns) cover a
//!   window of ~67 µs from `window_start`, a multiple of the window span.
//!   `schedule` appends to the buffer of `slots[(t >> SLOT_SHIFT) mod
//!   N_SLOTS]`, unsorted.
//! * **The open slot.** The slot being drained is the *open* slot. Opening
//!   it counting-sorts its events, stably, by fine bucket — `2^BUCKET_SHIFT`
//!   ps (1.02 ns), `BUCKETS` (16) to a slot — into `open`, a buffer taken
//!   from the pool, recording where each bucket's group ends. The slot's own
//!   buffer and the spent `open` go back to the pool.
//! * **The current bucket.** The open slot drains one fine bucket at a
//!   time. Opening a bucket copies its group, plus the events `later` holds
//!   for it, into the `drain` stack and sorts that by time, descending; pops
//!   come off the end.
//! * **Events scheduled into the open slot.** One for a later bucket of it
//!   is appended to `later`, and joins its bucket when that bucket opens.
//!   Only one for the current bucket itself — a delay under 1 ns, such as an
//!   ACK's serialization at 400G or a same-timestamp cascade — goes to the
//!   small `late` heap. Each pop takes the smaller, by `(time, seq)`, of
//!   the drain tail and the late head; sequence numbers are unique, so the
//!   pick is never ambiguous.
//! * **Ladder.** Events at or beyond the window end (RTO timers at ≥10 ms,
//!   app wakeups, telemetry ticks) go to an overflow heap. When the calendar
//!   is empty, the window jumps to the span holding the ladder minimum and
//!   every ladder event inside it is staged into its slot.
//!
//! **Why one stable sort on time is the `(time, seq)` order.** In every
//! buffer the calendar sorts, two events with equal times stand in seq
//! order. `schedule` appends with increasing seq. The ladder stages into an
//! empty calendar, in `(time, seq)` order, before anything else is
//! scheduled into the new window. The counting sort is stable. `later` is
//! filled after the open slot's events were all scheduled, again in seq
//! order. So a bucket's events, reversed, list equal-time events by
//! descending seq, and a stable sort by descending time alone leaves the
//! stack in descending `(time, seq)` order (`debug_assert`ed at each bucket
//! open). The golden fingerprints and the proptest against a binary-heap
//! model hold the order end to end.
//!
//! The structural invariants the window and the buckets rest on:
//!
//! 1. every `schedule(at, ..)` happens with `at >= now >= window_start`, so
//!    an insertion never lands in a slot before `cur_slot`, nor in the open
//!    slot before `cur_bucket`;
//! 2. the window only advances when the calendar is empty, and only to the
//!    span containing the global minimum, so no pending event is ever left
//!    behind the window;
//! 3. `now`, the time of the last pop, lies in the current bucket: buckets
//!    open only inside `pop`, right before it takes from them. So every
//!    event outside `drain` and `late` is later than `now`, and
//!    [`EventQueue::pop_if_at`] decides from those two heads alone.
//!
//! **Memory.** Staging buffers belong to a pool, not to slots: a slot holds
//! a buffer exactly while it holds staged events. Staging into a slot
//! without a buffer takes one from `spare` before allocating. `open` is a
//! pool buffer too: opening a slot takes a pooled buffer as `open` and
//! returns the spent `open` and the slot's buffer to `spare`, so the pool
//! can hold two buffers more than there are occupied slots — the spent
//! `open`, and a new one made when the pool ran dry at a slot open. Beside
//! the pool the queue owns two buffers and no more: `later` and `drain`.
//! Hence the bound the tests check: buffers in existence ≤ 4 plus the peak
//! number of slots holding events at once, none with capacity over `max(4,
//! 2 × largest slot load seen)` (`Vec` doubling) — capacity follows the
//! events pending, not the slots the ring has ever visited.

use crate::packet::{ConnId, PacketId};
use crate::time::SimTime;
use pnet_topology::LinkId;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

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

/// Slot width: 2^14 ps ≈ 16.4 ns. Finer than an MTU serialization at 100G
/// (120 ns), so back-to-back departures spread over distinct slots; coarse
/// enough that a window of 4096 slots spans ~67 µs — comfortably past any
/// hop latency (serialization + ~1 µs propagation) while keeping every
/// ≥10 ms RTO in the ladder.
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

#[inline]
fn slot_of(t_ps: u64) -> usize {
    ((t_ps >> SLOT_SHIFT) as usize) & (N_SLOTS - 1)
}

#[inline]
fn bucket_of(ev: &Event) -> usize {
    ((ev.time.as_ps() >> BUCKET_SHIFT) as usize) & (BUCKETS - 1)
}

/// Deterministic event queue (calendar slots + overflow ladder).
#[derive(Debug)]
pub struct EventQueue {
    /// Unsorted per-slot staging buffers for the current window, each in
    /// schedule order. The open slot's is always empty: its events live in
    /// `open`, `later`, `drain` and `late`.
    slots: Vec<Vec<Event>>,
    /// Empty staging buffers waiting for the next slot that needs one.
    spare: Vec<Vec<Event>>,
    /// The open slot's staged events, grouped by fine bucket: bucket `b` is
    /// `open[ends[b - 1]..ends[b]]` (from 0 for `b == 0`).
    open: Vec<Event>,
    ends: [usize; BUCKETS],
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
    /// Lower bound on the lowest-indexed occupied staging slot (`N_SLOTS`
    /// when provably none): slot scans start here instead of at `cur_slot`,
    /// so a run of empty slots is traversed once, not once per peek/pop.
    /// Lowered on staged insertion, raised past each slot as it opens, reset
    /// on window jumps; never below `cur_slot`.
    min_staged: usize,
    /// Events in the calendar (everything but the ladder).
    in_buckets: usize,
    /// Time of the last pop (zero before the first).
    now: SimTime,
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
    /// Empty queue. Slot 0 stands open at bucket 0, so `now` = 0 lies in
    /// the current bucket from the start.
    pub fn new() -> Self {
        EventQueue {
            slots: (0..N_SLOTS).map(|_| Vec::new()).collect(),
            spare: Vec::new(),
            open: Vec::new(),
            ends: [0; BUCKETS],
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
            now: SimTime::ZERO,
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
        debug_assert!(
            t >= self.window_start,
            "scheduled behind the calendar window ({} < {})",
            t,
            self.window_start
        );
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
    /// jump is about to open). A slot without a buffer takes a pooled one
    /// before `push` would allocate.
    #[inline]
    fn stage(&mut self, s: usize, ev: Event) {
        let slot = &mut self.slots[s];
        if slot.capacity() == 0 {
            if let Some(buf) = self.spare.pop() {
                *slot = buf;
            }
        }
        slot.push(ev);
        self.min_staged = self.min_staged.min(s);
        self.in_buckets += 1;
    }

    /// Open staged slot `s`: counting-sort its events, stably, by fine
    /// bucket into a pooled `open` and hand its buffer back to the pool —
    /// the slot itself keeps nothing, so capacity never accumulates round
    /// the ring.
    fn open_slot(&mut self, s: usize) {
        debug_assert!(self.open_groups == 0 && self.later.is_empty());
        self.cur_slot = s;
        self.slot_opens += 1;
        let mut staged = std::mem::take(&mut self.slots[s]);
        let mut counts = [0usize; BUCKETS];
        for ev in &staged {
            counts[bucket_of(ev)] += 1;
        }
        let (mut next, mut end, mut groups) = ([0usize; BUCKETS], 0, 0u16);
        for (b, &n) in counts.iter().enumerate() {
            next[b] = end;
            end += n;
            self.ends[b] = end;
            if n > 0 {
                groups |= 1 << b;
            }
        }
        self.open_groups = groups;
        // `open` rotates through the pool like a staging buffer: a pooled
        // one, already grown by staging, takes the slot's events and the
        // spent one goes back. Only a dry pool makes a new one, sized to the
        // slot by the copy below. (An `open` that grew on its own by
        // doubling left `packet_bulk` peak RSS 1–3.5 MB higher.)
        let fresh = self.spare.pop().unwrap_or_default();
        let mut spent = std::mem::replace(&mut self.open, fresh);
        spent.clear();
        self.spare.push(spent);
        // Sized by a copy, then every element overwritten in bucket order.
        self.open.clear();
        self.open.extend_from_slice(&staged);
        for ev in &staged {
            let at = &mut next[bucket_of(ev)];
            self.open[*at] = *ev;
            *at += 1;
        }
        staged.clear();
        self.spare.push(staged);
        // Slots at or before `s` are now all empty (the scan that found `s`
        // proved those before it empty, and `s` was just taken).
        self.min_staged = s + 1;
    }

    /// Make bucket `b` of the open slot current: its `open` group and its
    /// `later` events become the drain stack, in descending `(time, seq)`
    /// order (module docs: why a stable sort on time alone gives it).
    fn open_bucket(&mut self, b: usize) {
        debug_assert!(self.drain.is_empty() && self.late.is_empty());
        self.cur_bucket = b;
        let group = self.group(b);
        self.drain.extend_from_slice(&self.open[group]);
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

    /// Where bucket `b`'s group lies in `open`: the open slot's events
    /// staged for that bucket, in schedule order. Meaningful only until the
    /// bucket opens; after that the group is a spent copy.
    #[inline]
    fn group(&self, b: usize) -> std::ops::Range<usize> {
        (if b == 0 { 0 } else { self.ends[b - 1] })..self.ends[b]
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
                .find(|&s| !self.slots[s].is_empty())
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
        self.note_popped(&ev);
        Some(ev)
    }

    /// Shared post-pop bookkeeping for both pop paths.
    #[inline]
    fn note_popped(&mut self, ev: &Event) {
        self.now = ev.time;
        self.dispatched += 1;
        if matches!(ev.kind, EventKind::Arrival { .. }) {
            self.arrivals_pending -= 1;
        }
        // Drain invariant: every event is scheduled exactly once and
        // dispatched at most once, so pending + dispatched == scheduled.
        debug_assert_eq!(
            self.len() as u64 + self.dispatched,
            self.scheduled,
            "event queue counters out of sync"
        );
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
            while self
                .ladder
                .peek()
                .is_some_and(|Reverse(e)| e.time.as_ps() < end)
            {
                let Reverse(ev) = self
                    .ladder
                    .pop()
                    .expect("invariant: peeked ladder head exists");
                self.stage(slot_of(ev.time.as_ps()), ev);
            }
        }
    }

    /// Pop the earliest event only if it is scheduled exactly at `t`. This is
    /// the batched-dispatch fast path for a same-timestamp cascade
    /// (departure → arrival → departure ...).
    ///
    /// Precondition: `t` is the time of the last pop (zero before the
    /// first). That time lies in the current bucket, and every event outside
    /// it is later (invariant 3 in the module docs), so the drain tail and
    /// the late head decide alone: no scan, no window logic.
    #[inline]
    pub fn pop_if_at(&mut self, t: SimTime) -> Option<Event> {
        debug_assert_eq!(
            t, self.now,
            "pop_if_at asked for a time other than the last pop's"
        );
        if self.current_head()?.time != t {
            return None;
        }
        self.pop_current()
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
                let group = self.open[self.group(b)].iter();
                return group.chain(later).map(|ev| ev.time).min();
            }
            for s in self.min_staged..N_SLOTS {
                if let Some(min) = self.slots[s].iter().map(|e| e.time).min() {
                    return Some(min);
                }
            }
            debug_assert!(false, "in_buckets > 0 but no occupied slot found");
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

    /// Events of capacity held by the buffers the queue owns — slots, pool,
    /// `open`, `later` and drain (for instrumentation; see "Memory" in the
    /// module docs).
    pub fn staged_capacity(&self) -> usize {
        let own = [&self.open, &self.later, &self.drain];
        let all = self.slots.iter().chain(&self.spare).chain(own);
        all.map(Vec::capacity).sum()
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
    fn pop_if_at_only_pops_exact_timestamp() {
        let mut q = EventQueue::new();
        app(&mut q, 50, 0);
        app(&mut q, 50, 1);
        app(&mut q, 60, 2);
        let t = SimTime::from_ps(50);
        assert_eq!(q.pop().unwrap().time, t);
        // Batch path: second event at the same timestamp pops...
        let e = q.pop_if_at(t).expect("event at t=50 pending");
        assert!(matches!(e.kind, EventKind::AppTimer { app: 1, .. }));
        // ...but the t=60 event does not.
        assert!(q.pop_if_at(t).is_none());
        assert_eq!(q.len(), 1);
        // Late insertion at the batch timestamp is still honoured (slow path).
        app(&mut q, 50, 3);
        let e = q.pop_if_at(t).expect("late event at t=50 pending");
        assert!(matches!(e.kind, EventKind::AppTimer { app: 3, .. }));
        assert_eq!(q.pop().unwrap().time.as_ps(), 60);
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

    /// The calendar's own order and `pop_if_at` on an AppTimer schedule:
    /// every pop, as `(time, app)`, with `pop_if_at(now)` tried first.
    fn drain_batched(q: &mut EventQueue) -> Vec<(u64, u32)> {
        let mut got = Vec::new();
        while let Some(e) = q.pop() {
            let now = e.time;
            got.push(e);
            got.extend(std::iter::from_fn(|| q.pop_if_at(now)));
        }
        got.into_iter()
            .map(|e| match e.kind {
                EventKind::AppTimer { app, .. } => (e.time.as_ps(), app),
                _ => panic!("only app timers are scheduled"),
            })
            .collect()
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
        let rest = drain_batched(&mut q);
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
        got.extend(drain_batched(&mut q));
        let want = [(0, 3), (0, 5), (b, 1), (b, 4), (b, 6), (3 * b + 5, 0)];
        let mut want: Vec<(u64, u32)> = want.iter().map(|&(dt, id)| (base + dt, id)).collect();
        want.extend([(base + 3 * b + 5, 2), (base + 3 * b + 5, 7)]);
        assert_eq!(got, want);
    }

    #[test]
    fn pop_if_at_stops_at_bucket_and_slot_boundaries() {
        // `pop_if_at(now)` reads only the current bucket: it must refuse the
        // first event of the next bucket and of the next slot (1 ps later
        // each), and still take a late tie at `now`.
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
        assert!(q.pop_if_at(e.time).is_none(), "next bucket is 1 ps later");
        app(&mut q, s + 2 * b - 1, 4); // a tie at `now`: the late heap
        let tie = q.pop_if_at(e.time).expect("late tie at now");
        assert!(matches!(tie.kind, EventKind::AppTimer { app: 4, .. }));
        assert!(q.pop_if_at(e.time).is_none());
        assert_eq!(q.pop().expect("pending").time.as_ps(), s + 2 * b);
        let e = q.pop().expect("pending");
        assert_eq!(e.time.as_ps(), s + w - 1);
        assert!(q.pop_if_at(e.time).is_none(), "next slot is 1 ps later");
        assert_eq!(q.slot_opens(), 1);
        let e = q.pop().expect("pending");
        assert_eq!(e.time.as_ps(), s + w);
        assert_eq!((q.slot_opens(), q.late_pushes()), (2, 1));
        assert!(q.pop_if_at(e.time).is_none());
        assert!(q.is_empty());
    }

    /// (buffers in existence, largest capacity) over slots, pool, `open`,
    /// `later` and drain.
    fn buffer_census(q: &EventQueue) -> (usize, usize) {
        let fixed = [&q.open, &q.later, &q.drain];
        let all = q.slots.iter().chain(&q.spare).chain(fixed);
        let caps = all.map(Vec::capacity).filter(|&c| c > 0);
        caps.fold((0, 0), |(n, max), c| (n + 1, max.max(c)))
    }

    /// Buffers beyond one per occupied slot (module docs, Memory): the spent
    /// `open` and a dry pool's new one, `later` and the drain.
    const EXTRA_BUFFERS: usize = 4;

    #[test]
    fn staged_capacity_follows_occupancy_not_history() {
        // 1 000 bursts of 512 events, each in one slot, each on a slot index
        // the ring has not used before (stride 17 is coprime to N_SLOTS),
        // drained between bursts. ~4 windows pass, so bursts arrive both by
        // `schedule` and by the ladder re-hash. One slot is occupied at a
        // time: one buffer per occupied slot and the extra ones carry the
        // whole run.
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
            expect.sort_unstable(); // ids ascend in schedule order, as seq does
            assert_eq!(drain_apps(&mut q), expect);
            peak_capacity = peak_capacity.max(q.staged_capacity());
            let (buffers, largest) = buffer_census(&q);
            assert!(
                buffers <= 1 + EXTRA_BUFFERS,
                "{buffers} buffers for one occupied slot"
            );
            assert!(largest <= 2 * BURST as usize);
        }
        assert!(q.window_start >= 3 * SPAN_PS, "run must cross window jumps");
        // Each buffer holds at most one burst (512 is a power of two, so
        // doubling stops there).
        assert!(
            peak_capacity <= (1 + EXTRA_BUFFERS) * BURST as usize,
            "staged capacity {peak_capacity} events for bursts of {BURST}"
        );
    }

    #[test]
    fn buffers_number_the_slots_occupied_at_once() {
        // The module docs' Memory bound on a schedule that occupies many
        // slots at once: waves of 1..=40 occupied slots with uneven loads,
        // each wave drained while scheduling into the slot being drained
        // (so `later` and the late heap fill too), windows crossed on the
        // way.
        let w = 1u64 << SLOT_SHIFT;
        let mut q = EventQueue::new();
        let (mut id, mut now) = (0u32, 0u64);
        let (mut peak_occupied, mut peak_load) = (0usize, 0usize);
        let census = |q: &EventQueue, peak_occupied: usize, peak_load: usize| {
            let (buffers, largest) = buffer_census(q);
            assert!(
                buffers <= peak_occupied + EXTRA_BUFFERS,
                "{buffers} > {peak_occupied} + {EXTRA_BUFFERS}"
            );
            assert!(
                largest <= (2 * peak_load).max(4),
                "{largest} vs {peak_load}"
            );
        };
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
            census(&q, peak_occupied, peak_load);
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
                census(&q, peak_occupied, peak_load);
            }
        }
        assert!(q.late_pushes() > 0 && q.window_start > 0);
    }
}
