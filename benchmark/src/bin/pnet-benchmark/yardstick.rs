//! The yardstick: a fixed piece of work, timed between the operations of a
//! run, that says how fast the machine was while the run lasted.
//!
//! This benchmark runs on a few cores of a shared host. What the neighbours
//! do moves the wall time of an identical binary on identical inputs by 10 to
//! 30 % over minutes, in episodes that outlast a run, so no statistic of a
//! run's own operation walls — median, minimum, a longer window — takes it
//! out (`README.md` has the series). What does is a second clock that drifts
//! the same way: a run's time metrics are its walls multiplied by
//! [`NOMINAL_MS`] over the median yardstick sample of the same run, i.e.
//! they are stated at the speed of a machine on which the yardstick takes
//! [`NOMINAL_MS`].
//!
//! The work is frozen here, in the benchmark, and uses nothing of the product
//! crates: a change to the product cannot move it. It does, in small, the two
//! things the product crates spend their time on — an event loop (a binary
//! heap of pending events over an arena of entities that spills the private
//! cache, like `htsim`) and shortest-path searches (Dijkstra over a small
//! random graph that stays in the private cache, like `routing` and
//! `flowsim`) — in equal parts, because a pointer chase or an arithmetic loop
//! alone tracks some workloads and not others.

use crate::clock::Clock;
use crate::stats::Sample;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Wall of one sample on the 2-vCPU box the baseline was recorded on: the
/// median over a hundred runs of one afternoon was 20.7 ms (quartiles 18.4
/// and 22.8). Only a unit: it cancels out of every comparison.
pub const NOMINAL_MS: f64 = 21.0;

/// One sample is owed per this much time since the last one.
const INTERVAL_S: f64 = 0.5;
/// Most samples taken in one go, however long the operation before them
/// (the longest, a pipeline pass, lasts 4 s).
const MAX_AT_ONCE: usize = 8;

/// Entities of the event loop, 64 bytes each: 8 MB, four times the private
/// cache of a core here.
const ENTITIES: usize = 128 * 1024;
/// Events pending at any time.
const PENDING: u32 = 32 * 1024;
const EVENTS_PER_SAMPLE: usize = 50_000;

const NODES: usize = 1024;
const DEGREE: usize = 8;
const SEARCHES_PER_SAMPLE: usize = 80;

/// Knuth's 64-bit linear congruential step; the upper bits are the output.
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

pub struct Yardstick {
    rng: u64,
    pending: BinaryHeap<Reverse<(u64, u32)>>,
    entities: Vec<[u64; 8]>,
    /// `(neighbour, weight)` lists of the search graph.
    adjacency: Vec<[(u32, u32); DEGREE]>,
    dist: Vec<u32>,
    frontier: BinaryHeap<Reverse<(u32, u32)>>,
    source: u32,
    /// Folded results of the work, so that none of it is dead code.
    checksum: u64,
    since_last: Clock,
    samples_ms: Vec<f64>,
}

impl Yardstick {
    /// Build the state and run one discarded sample, which pays the first
    /// touch of the arena's pages.
    pub fn new() -> Yardstick {
        let mut rng = 11;
        let mut pending = BinaryHeap::with_capacity(PENDING as usize + 1);
        for i in 0..PENDING {
            pending.push(Reverse((lcg(&mut rng) % 100_000, i * 4)));
        }
        let adjacency = (0..NODES)
            .map(|_| {
                let mut edges = [(0, 0); DEGREE];
                for e in &mut edges {
                    *e = (
                        (lcg(&mut rng) % NODES as u64) as u32,
                        1 + (lcg(&mut rng) % 16) as u32,
                    );
                }
                edges
            })
            .collect();
        let mut y = Yardstick {
            rng,
            pending,
            entities: vec![[0; 8]; ENTITIES],
            adjacency,
            dist: vec![u32::MAX; NODES],
            frontier: BinaryHeap::new(),
            source: 0,
            checksum: 0,
            since_last: Clock::start(),
            samples_ms: Vec::new(),
        };
        y.work();
        y
    }

    /// The fixed work of one sample.
    fn work(&mut self) {
        // Event loop: pop the earliest event, update its entity, touch a
        // second entity picked from the first one's state, schedule that one.
        for _ in 0..EVENTS_PER_SAMPLE {
            let Reverse((time, id)) = self
                .pending
                .pop()
                .expect("invariant: every pop is followed by a push");
            let e = &mut self.entities[id as usize];
            e[0] = e[0].wrapping_add(time);
            e[1] += 1;
            e[2] ^= e[0] >> 3;
            let r = lcg(&mut self.rng);
            let next = ((e[2] ^ r) % ENTITIES as u64) as u32;
            self.entities[next as usize][3] += 1;
            self.pending.push(Reverse((time + 1 + r % 50_000, next)));
        }
        // Shortest-path searches from successive sources.
        for _ in 0..SEARCHES_PER_SAMPLE {
            self.source = (self.source + 37) % NODES as u32;
            self.dist.fill(u32::MAX);
            self.dist[self.source as usize] = 0;
            self.frontier.push(Reverse((0, self.source)));
            while let Some(Reverse((d, u))) = self.frontier.pop() {
                if d > self.dist[u as usize] {
                    continue;
                }
                for &(v, w) in &self.adjacency[u as usize] {
                    if d + w < self.dist[v as usize] {
                        self.dist[v as usize] = d + w;
                        self.frontier.push(Reverse((d + w, v)));
                    }
                }
            }
            let far = self.dist.iter().filter(|d| **d != u32::MAX).max();
            self.checksum = self.checksum.rotate_left(7) ^ u64::from(*far.unwrap_or(&0));
        }
        self.checksum ^= self.entities[self.source as usize][0];
    }

    /// Time one sample.
    fn sample(&mut self) {
        let t0 = Clock::start();
        self.work();
        self.samples_ms.push(t0.elapsed_ms());
        std::hint::black_box(self.checksum);
    }

    /// Samples owed now: one per [`INTERVAL_S`] of work since the last
    /// ones, so that every workload is sampled at the same density — about
    /// 4 % of the wall — whether its operations last microseconds or
    /// seconds; one where none has been taken yet.
    pub fn owed(&self) -> usize {
        let due = (self.since_last.elapsed_s() / INTERVAL_S) as usize;
        due.max(usize::from(self.samples_ms.is_empty()))
            .min(MAX_AT_ONCE)
    }

    /// Take the samples owed.
    pub fn catch_up(&mut self) {
        let owed = self.owed();
        for _ in 0..owed {
            self.sample();
        }
        if owed > 0 {
            self.since_last = Clock::start();
        }
    }

    pub fn n_samples(&self) -> usize {
        self.samples_ms.len()
    }

    /// Median sample of the run so far, in milliseconds ([`NOMINAL_MS`]
    /// before the first).
    pub fn median_ms(&self) -> f64 {
        Sample::new(&self.samples_ms).map_or(NOMINAL_MS, |s| s.median())
    }

    /// What a wall time of this run is multiplied by to state it at nominal
    /// machine speed.
    pub fn to_nominal(&self) -> f64 {
        NOMINAL_MS / self.median_ms()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_work_is_the_same_every_time() {
        let (mut a, mut b) = (Yardstick::new(), Yardstick::new());
        for _ in 0..3 {
            a.sample();
            b.sample();
        }
        assert_eq!(a.checksum, b.checksum);
        assert_ne!(a.checksum, 0);
        assert_eq!(a.pending.len(), PENDING as usize);
    }

    #[test]
    fn the_first_call_samples_and_later_ones_only_when_owed() {
        let mut y = Yardstick::new();
        assert_eq!(y.median_ms(), NOMINAL_MS);
        y.catch_up();
        assert_eq!(y.n_samples(), 1);
        y.catch_up();
        assert_eq!(y.n_samples(), 1, "nothing is owed right after a sample");
        assert!(y.median_ms() > 0.0 && y.to_nominal() > 0.0);
    }
}
