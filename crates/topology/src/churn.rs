//! Deterministic link-churn schedules: ordered sequences of cable down/up
//! events for reconvergence experiments.
//!
//! A production expander fabric sees continuous link churn (optics dying,
//! cables being re-seated, maintenance drains); the paper's failure results
//! (section 5.4) sample static failure fractions, but an incremental routing
//! layer must be exercised with *sequences* of both directions. A
//! [`ChurnSchedule`] is a fixed, seeded, replayable event list — no
//! interarrival times, no Poisson clock: event ordering is the only thing
//! the consumers (router delta repair, warm GK re-solves) care about, and a
//! fixed sequence keeps every experiment bit-reproducible.

use crate::failures::{self, fabric_cables};
use crate::graph::Network;
use crate::ids::LinkId;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};

/// One link-state transition of a duplex fabric cable. The carried `LinkId`
/// is the cable's even-direction representative (see
/// [`crate::failures::fabric_cables`]); both directions transition together.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnEvent {
    /// The cable goes down (both directions).
    Down(LinkId),
    /// The cable comes back up (both directions).
    Up(LinkId),
}

impl ChurnEvent {
    /// The cable this event touches (even-direction representative).
    pub fn cable(self) -> LinkId {
        match self {
            ChurnEvent::Down(l) | ChurnEvent::Up(l) => LinkId(l.0 & !1),
        }
    }

    /// Apply the transition to the network's link state.
    pub fn apply(self, net: &mut Network) {
        match self {
            ChurnEvent::Down(l) => failures::fail_cable(net, l),
            ChurnEvent::Up(l) => failures::restore_cable(net, l),
        }
    }
}

/// The net effect of one or more churn events on the link set: which cables
/// went down and which came up, as even-direction representatives. This is
/// the unit of work handed to incremental consumers (e.g. the routing
/// layer's delta repair).
#[derive(Debug, Clone, Default)]
pub struct LinkDelta {
    /// Cables that transitioned up -> down.
    pub down: Vec<LinkId>,
    /// Cables that transitioned down -> up.
    pub up: Vec<LinkId>,
}

impl LinkDelta {
    /// Delta of a single event.
    pub fn single(ev: ChurnEvent) -> LinkDelta {
        match ev {
            ChurnEvent::Down(_) => LinkDelta {
                down: vec![ev.cable()],
                up: Vec::new(),
            },
            ChurnEvent::Up(_) => LinkDelta {
                down: Vec::new(),
                up: vec![ev.cable()],
            },
        }
    }

    /// True when the delta changes nothing.
    pub fn is_empty(&self) -> bool {
        self.down.is_empty() && self.up.is_empty()
    }
}

/// A fixed, ordered sequence of churn events, built deterministically from a
/// seed. Replaying the same schedule against the same network always yields
/// the same link-state trajectory.
#[derive(Debug, Clone)]
pub struct ChurnSchedule {
    /// The events, in application order.
    pub events: Vec<ChurnEvent>,
}

impl ChurnSchedule {
    /// `n_cables` independent single-cable outages: each picked cable goes
    /// down and comes back up before the next is touched — the canonical
    /// "one optic flaps" reconvergence scenario. Cables are sampled without
    /// replacement from the currently-up fabric cables.
    pub fn single_cable_cycles(net: &Network, n_cables: usize, seed: u64) -> ChurnSchedule {
        let mut cables: Vec<LinkId> = fabric_cables(net, None)
            .into_iter()
            .filter(|&c| net.link(c).up)
            .collect();
        let mut rng = StdRng::seed_from_u64(seed);
        cables.shuffle(&mut rng);
        cables.truncate(n_cables);
        let mut events = Vec::with_capacity(2 * cables.len());
        for c in cables {
            events.push(ChurnEvent::Down(c));
            events.push(ChurnEvent::Up(c));
        }
        ChurnSchedule { events }
    }

    /// A burst failing `fraction` of fabric cables one event at a time, then
    /// restoring them in the same order — the "maintenance drain and
    /// un-drain" scenario. The failed count follows the integer-exact
    /// rounding of [`crate::failures::fraction_count`].
    pub fn burst_then_restore(net: &Network, fraction: f64, seed: u64) -> ChurnSchedule {
        let mut cables: Vec<LinkId> = fabric_cables(net, None)
            .into_iter()
            .filter(|&c| net.link(c).up)
            .collect();
        let mut rng = StdRng::seed_from_u64(seed);
        cables.shuffle(&mut rng);
        cables.truncate(failures::fraction_count(cables.len(), fraction));
        let mut events: Vec<ChurnEvent> = cables.iter().map(|&c| ChurnEvent::Down(c)).collect();
        events.extend(cables.iter().map(|&c| ChurnEvent::Up(c)));
        ChurnSchedule { events }
    }

    /// A seeded random walk over link states: each step flips a coin between
    /// failing a random up cable and restoring a random currently-failed
    /// one, keeping the concurrent failure count at or below
    /// `fraction_count(total, max_down_fraction)` (min 1). Starts from the
    /// network's current link state, so it composes with prior injections.
    pub fn random_walk(
        net: &Network,
        n_events: usize,
        max_down_fraction: f64,
        seed: u64,
    ) -> ChurnSchedule {
        let all = fabric_cables(net, None);
        let max_down = failures::fraction_count(all.len(), max_down_fraction).max(1);
        let (mut up, mut down): (Vec<LinkId>, Vec<LinkId>) =
            all.into_iter().partition(|&c| net.link(c).up);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut events = Vec::with_capacity(n_events);
        for _ in 0..n_events {
            let can_fail = !up.is_empty() && down.len() < max_down;
            let can_restore = !down.is_empty();
            let fail = match (can_fail, can_restore) {
                (true, false) => true,
                (false, true) => false,
                (false, false) => break,
                (true, true) => rng.random_bool(0.5),
            };
            if fail {
                let c = up.swap_remove(rng.random_range(0..up.len()));
                events.push(ChurnEvent::Down(c));
                down.push(c);
            } else {
                let c = down.swap_remove(rng.random_range(0..down.len()));
                events.push(ChurnEvent::Up(c));
                up.push(c);
            }
        }
        ChurnSchedule { events }
    }

    /// Apply every event in order, leaving `net` in the post-schedule state.
    pub fn apply_all(&self, net: &mut Network) {
        for &ev in &self.events {
            ev.apply(net);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::assemble_homogeneous;
    use crate::fattree::FatTree;
    use crate::profile::LinkProfile;

    fn net() -> Network {
        assemble_homogeneous(&FatTree::three_tier(4), 2, &LinkProfile::paper_default())
    }

    #[test]
    fn schedules_are_deterministic_in_seed() {
        let n = net();
        assert_eq!(
            ChurnSchedule::single_cable_cycles(&n, 4, 9).events,
            ChurnSchedule::single_cable_cycles(&n, 4, 9).events
        );
        assert_eq!(
            ChurnSchedule::random_walk(&n, 20, 0.25, 9).events,
            ChurnSchedule::random_walk(&n, 20, 0.25, 9).events
        );
        assert_ne!(
            ChurnSchedule::random_walk(&n, 20, 0.25, 9).events,
            ChurnSchedule::random_walk(&n, 20, 0.25, 10).events
        );
    }

    #[test]
    fn single_cable_cycles_return_to_healthy() {
        let mut n = net();
        let sched = ChurnSchedule::single_cable_cycles(&n, 5, 3);
        assert_eq!(sched.events.len(), 10);
        sched.apply_all(&mut n);
        assert_eq!(failures::failed_fraction(&n), 0.0);
    }

    #[test]
    fn burst_then_restore_nets_to_empty_delta() {
        let mut n = net();
        let sched = ChurnSchedule::burst_then_restore(&n, 0.1, 7);
        assert!(!sched.events.is_empty());
        sched.apply_all(&mut n);
        assert_eq!(failures::failed_fraction(&n), 0.0);
    }

    #[test]
    fn random_walk_respects_down_bound() {
        let mut n = net();
        let total = fabric_cables(&n, None).len();
        let max_down = failures::fraction_count(total, 0.1).max(1);
        let sched = ChurnSchedule::random_walk(&n, 64, 0.1, 11);
        let mut down = 0usize;
        for &ev in &sched.events {
            match ev {
                ChurnEvent::Down(_) => down += 1,
                ChurnEvent::Up(_) => down -= 1,
            }
            assert!(down <= max_down);
            ev.apply(&mut n);
        }
        let frac = failures::failed_fraction(&n);
        assert!(frac <= max_down as f64 / total as f64 + 1e-12);
    }

    #[test]
    fn event_cable_canonicalizes_direction() {
        assert_eq!(ChurnEvent::Down(LinkId(5)).cable(), LinkId(4));
        assert_eq!(ChurnEvent::Up(LinkId(4)).cable(), LinkId(4));
    }
}
