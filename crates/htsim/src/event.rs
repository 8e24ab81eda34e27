//! The event queue: a hierarchical calendar/ladder queue with deterministic
//! (time, seq) ordering.
//!
//! Most simulator events are *near-future*: a queue departure lands one
//! serialization time ahead (3.2 ns for an ACK at 100G, 120 ns for an MTU),
//! an arrival one propagation delay ahead (~1 µs). A binary heap pays
//! O(log n) pointer-chasing for every one of them. This queue instead hashes
//! events into fixed-width time buckets:
//!
//! * **Buckets**: `N_SLOTS` slots of `2^SLOT_SHIFT` ps each cover a sliding
//!   window of ~67 µs from `window_start` (a multiple of the window span).
//!   Insertion is O(1): push onto `slots[(t >> SLOT_SHIFT) & (N_SLOTS-1)]`.
//! * **Drain + late heap**: when a slot becomes current its staged events
//!   are sorted once, descending by `(time, seq)`, into a stack popped from
//!   the end — O(1) amortized. Events scheduled *into* the current slot
//!   while it drains (ACK-departure cascades 3.2 ns out, same-timestamp
//!   batches) go to a small binary heap instead; each pop takes the smaller
//!   of the stack tail and the heap head. Both structures realize the same
//!   (time, seq) total order and sequence numbers are unique, so the
//!   cross-pick is never ambiguous. (Binary-inserting late events into the
//!   sorted stack is quadratic per slot: a same-timestamp straggler sorts
//!   *before* every equal-time event already there — larger seq, descending
//!   stack — and memmoves the whole batch. The heap caps that at O(log k).)
//! * **Ladder**: events at or beyond the window end (RTO timers at ≥10 ms,
//!   app wakeups, telemetry ticks) go to an overflow binary heap. When the
//!   buckets drain, the window jumps forward to the span containing the
//!   ladder minimum and every ladder event inside the new window is
//!   re-hashed into its bucket.
//!
//! Determinism is bit-identical to the old `BinaryHeap<Reverse<Event>>`:
//! both implement the same total order — time, ties broken by a
//! monotonically increasing sequence number — and the calendar realizes it
//! exactly (see DESIGN.md "Event engine internals" for the argument). The
//! golden fingerprint and proptest suites verify this end to end.
//!
//! The two structural invariants that make the window logic sound:
//!
//! 1. every `schedule(at, ..)` happens with `at >= now >= window_start`, so
//!    a bucketed insertion never lands in a slot before `cur_slot`;
//! 2. the window only advances when the buckets are empty, and only to the
//!    span containing the global minimum, so no pending event is ever left
//!    behind the window.
//!
//! **Memory.** Staging buffers belong to a pool, not to slots: a slot holds
//! a buffer exactly while it holds events. Opening a slot moves its buffer
//! to `drain` and the exhausted drain buffer to `spare`; staging into a
//! slot without a buffer takes one from `spare` before allocating. Hence
//! the invariant the tests check: buffers in existence ≤ peak number of
//! slots occupied at once + 1 (the drain), and no buffer's capacity exceeds
//! `max(4, 2 × largest slot load seen)` (`Vec` doubling) — capacity follows
//! the events pending, not the slots the ring has ever visited.

use crate::packet::{ConnId, PacketId};
use crate::time::SimTime;
use pnet_topology::LinkId;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Things that can happen.
#[derive(Debug)]
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
#[derive(Debug)]
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

/// Bucket width: 2^14 ps ≈ 16.4 ns. Finer than an MTU serialization at 100G
/// (120 ns), so back-to-back departures spread over distinct slots; coarse
/// enough that a window of 4096 slots spans ~67 µs — comfortably past any
/// hop latency (serialization + ~1 µs propagation) while keeping every
/// ≥10 ms RTO in the ladder.
const SLOT_SHIFT: u32 = 14;
/// Number of bucket slots (power of two so the slot index is a mask).
const N_SLOTS: usize = 1 << 12;
/// Width of the bucket window in picoseconds (~67.1 µs).
const SPAN_PS: u64 = (N_SLOTS as u64) << SLOT_SHIFT;

#[inline]
fn slot_of(t_ps: u64) -> usize {
    ((t_ps >> SLOT_SHIFT) as usize) & (N_SLOTS - 1)
}

/// Deterministic event queue (calendar buckets + overflow ladder).
#[derive(Debug)]
pub struct EventQueue {
    /// Unsorted per-slot staging areas for the current window. The current
    /// slot's staging area is always empty: its backlog lives in `drain` and
    /// fresh insertions go to `late`.
    slots: Vec<Vec<Event>>,
    /// The current slot's backlog, sorted descending by `(time, seq)`; pops
    /// come off the end.
    drain: Vec<Event>,
    /// Empty staging buffers waiting for the next slot that needs one.
    spare: Vec<Vec<Event>>,
    /// Events scheduled into the current slot after it opened.
    late: BinaryHeap<Reverse<Event>>,
    /// Slot currently being drained. Slots before it (within this window)
    /// are empty.
    cur_slot: usize,
    /// Start of the bucket window; always a multiple of `SPAN_PS`.
    window_start: u64,
    /// Far-future overflow: every event at or beyond `window_start + SPAN_PS`.
    ladder: BinaryHeap<Reverse<Event>>,
    /// Lower bound on the lowest-indexed occupied staging slot (`N_SLOTS`
    /// when provably none): slot scans start here instead of at `cur_slot`,
    /// so a run of empty slots is traversed once, not once per peek/pop.
    /// Lowered on staged insertion, raised past each slot as it opens, reset
    /// on window jumps; never below `cur_slot`.
    min_staged: usize,
    /// Events in `slots` + `drain` (not the ladder).
    in_buckets: usize,
    next_seq: u64,
    scheduled: u64,
    dispatched: u64,
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
    /// Empty queue.
    pub fn new() -> Self {
        EventQueue {
            slots: (0..N_SLOTS).map(|_| Vec::new()).collect(),
            drain: Vec::new(),
            spare: Vec::new(),
            late: BinaryHeap::new(),
            cur_slot: 0,
            window_start: 0,
            ladder: BinaryHeap::new(),
            min_staged: N_SLOTS,
            in_buckets: 0,
            next_seq: 0,
            scheduled: 0,
            dispatched: 0,
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
        if t < self.window_start.saturating_add(SPAN_PS) {
            debug_assert!(
                t >= self.window_start,
                "scheduled behind the calendar window ({} < {})",
                t,
                self.window_start
            );
            let s = slot_of(t);
            debug_assert!(
                s >= self.cur_slot,
                "bucketed insertion behind the drain cursor"
            );
            if s == self.cur_slot {
                self.late.push(Reverse(ev));
                self.in_buckets += 1;
            } else {
                self.stage(s, ev);
            }
        } else {
            self.ladder.push(Reverse(ev));
        }
    }

    /// Stage `ev` in slot `s` (ahead of the drain cursor). A slot without a
    /// buffer takes a pooled one before `push` would allocate.
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

    /// Open staged slot `s`: its buffer becomes the new drain stack, sorted
    /// once, descending by `(time, seq)`, and the exhausted drain buffer goes
    /// back to the pool — the slot itself keeps nothing, so capacity never
    /// accumulates round the ring. The comparator is total — sequence
    /// numbers are unique — so `sort_unstable` is deterministic.
    fn open_slot(&mut self, s: usize) {
        self.cur_slot = s;
        let spent = std::mem::replace(&mut self.drain, std::mem::take(&mut self.slots[s]));
        debug_assert!(spent.is_empty(), "opened a slot over an unfinished drain");
        if spent.capacity() > 0 {
            self.spare.push(spent);
        }
        #[expect(
            clippy::disallowed_methods,
            reason = "whole-element compare: (time, seq) with unique seq, so no two events are equal"
        )]
        self.drain.sort_unstable_by(|a, b| b.cmp(a));
        // Slots at or before `s` are now all empty (the scan that found `s`
        // proved those before it empty, and `s` was just taken).
        self.min_staged = s + 1;
    }

    /// Pop the earliest event of the current slot: the smaller of the drain
    /// stack's tail and the late heap's head.
    #[inline]
    fn pop_current(&mut self) -> Option<Event> {
        let take_late = match (self.drain.last(), self.late.peek()) {
            (Some(d), Some(Reverse(l))) => l.cmp(d) == std::cmp::Ordering::Less,
            (None, Some(_)) => true,
            (_, None) => false,
        };
        if take_late {
            self.late.pop().map(|Reverse(e)| e)
        } else {
            self.drain.pop()
        }
    }

    /// The event most likely to pop next — the drain-stack tail — offered as
    /// a prefetch hint to the dispatch loop. Purely advisory: the late heap
    /// or a later slot may in fact come first, so callers must never use it
    /// for ordering decisions. (This hint is a structural advantage of the
    /// calendar layout: the old binary heap knows its head, but the head's
    /// *successor* is buried mid-sift.)
    #[inline]
    pub fn next_hint(&self) -> &[Event] {
        let n = self.drain.len();
        // Two-deep: a handler runs long enough to cover its successor's DRAM
        // load but often not two, so overlapping a pair keeps the pipeline
        // ahead of the dispatch loop.
        &self.drain[n.saturating_sub(2)..]
    }

    /// Shared post-pop bookkeeping for both pop paths.
    #[inline]
    fn note_popped(&mut self, ev: &Event) {
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
                    // Advance to the next occupied slot of this window. The
                    // scan never wraps: bucketed insertions always land at or
                    // after cur_slot (invariant 1 in the module docs), and
                    // `min_staged` bounds it below so the empty prefix is
                    // skipped without probing.
                    debug_assert!(self.min_staged >= self.cur_slot);
                    let next = (self.min_staged..N_SLOTS)
                        .find(|&s| !self.slots[s].is_empty())
                        .expect("invariant: in_buckets > 0 implies an occupied slot ahead");
                    self.open_slot(next);
                }
                let ev = self
                    .pop_current()
                    .expect("invariant: an opened slot yields a non-empty drain or late heap");
                self.in_buckets -= 1;
                self.note_popped(&ev);
                return Some(ev);
            }
            let Reverse(head) = self.ladder.peek()?;
            // Buckets empty: jump the window to the span containing the
            // ladder minimum and re-hash every ladder event inside it.
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
    /// the batched-dispatch fast path: draining a same-timestamp cascade
    /// (departure → arrival → departure ...) touches only the drain stack's
    /// tail, skipping the peek scan and window logic entirely.
    #[inline]
    pub fn pop_if_at(&mut self, t: SimTime) -> Option<Event> {
        if self.peek_time() == Some(t) {
            self.pop()
        } else {
            None
        }
    }

    /// Time of the next event without removing it.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        if self.in_buckets > 0 {
            // Bucketed events are all earlier than the window end, ladder
            // events all at or after it, so the bucket minimum is global.
            let best = match (self.drain.last(), self.late.peek()) {
                (Some(d), Some(Reverse(l))) => Some(d.time.min(l.time)),
                (Some(d), None) => Some(d.time),
                (None, Some(Reverse(l))) => Some(l.time),
                (None, None) => None,
            };
            if best.is_some() {
                return best;
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

    /// Events of capacity held by the staging buffers — slots, pool and
    /// drain (for instrumentation; see "Memory" in the module docs).
    pub fn staged_capacity(&self) -> usize {
        let buffers = self.slots.iter().chain(&self.spare);
        buffers.map(Vec::capacity).sum::<usize>() + self.drain.capacity()
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
                _ => unreachable!(),
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
                _ => unreachable!(),
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
                _ => unreachable!(),
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

    /// (buffers in existence, largest capacity) over slots, pool and drain.
    fn buffer_census(q: &EventQueue) -> (usize, usize) {
        let all = q.slots.iter().chain(&q.spare).chain([&q.drain]);
        let caps = all.map(Vec::capacity).filter(|&c| c > 0);
        caps.fold((0, 0), |(n, max), c| (n + 1, max.max(c)))
    }

    #[test]
    fn staged_capacity_follows_occupancy_not_history() {
        // 1 000 bursts of 512 events, each in one slot, each on a slot index
        // the ring has not used before (stride 17 is coprime to N_SLOTS),
        // drained between bursts. ~4 windows pass, so bursts arrive both by
        // `schedule` and by the ladder re-hash. One slot is occupied at a
        // time: two buffers (slot + drain) must carry the whole run.
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
            assert!(buffers <= 2, "{buffers} buffers for one occupied slot");
            assert!(largest <= 2 * BURST as usize);
        }
        assert!(q.window_start >= 3 * SPAN_PS, "run must cross window jumps");
        assert!(
            peak_capacity <= 4 * BURST as usize,
            "staged capacity {peak_capacity} events for bursts of {BURST}"
        );
    }

    #[test]
    fn buffers_number_the_slots_occupied_at_once() {
        // The module docs' Memory invariant on a schedule that occupies many
        // slots at once: waves of 1..=40 occupied slots with uneven loads,
        // each wave drained before the next, windows crossed on the way.
        let w = 1u64 << SLOT_SHIFT;
        let mut q = EventQueue::new();
        let (mut id, mut now) = (0u32, 0u64);
        let (mut peak_occupied, mut peak_load) = (0usize, 0usize);
        for wave in 1..=120u64 {
            let n_slots = 1 + wave * 7 % 40;
            let base = (now / w + 1) * w; // slot-aligned: one group, one slot
            for k in 0..n_slots {
                let load = 1 + (wave + k) * 5 % 23;
                for j in 0..load {
                    app(&mut q, base + 3 * k * w + j, id);
                    id += 1;
                }
                peak_load = peak_load.max(load as usize);
            }
            // A wave straddling the window end occupies fewer at once.
            peak_occupied = peak_occupied.max(n_slots as usize);
            let (buffers, largest) = buffer_census(&q);
            assert!(
                buffers <= peak_occupied + 1,
                "{buffers} > {peak_occupied} + 1"
            );
            assert!(
                largest <= (2 * peak_load).max(4),
                "{largest} vs {peak_load}"
            );
            now = drain_apps(&mut q).last().expect("wave not empty").0;
        }
        assert!(q.window_start > 0, "run must cross a window jump");
    }
}
