//! The benchmark's only wall clock.
//!
//! The repository's linter flags every mention of the standard clock outside
//! `crates/bench` (rule D2: timing belongs in the benchmark, never in the
//! libraries). This *is* the benchmark, so the clock lives here, in one
//! place, with the rule waived where it is named.

// pnet-tidy: allow(D2) -- the measurement spine is where wall-clock timing belongs; this module is its only clock
use std::time::Instant;

/// A point in time to measure from.
#[derive(Debug, Clone, Copy)]
// pnet-tidy: allow(D2) -- see the import above
pub struct Clock(Instant);

impl Clock {
    pub fn start() -> Clock {
        // pnet-tidy: allow(D2) -- see the import above
        Clock(Instant::now())
    }

    pub fn elapsed_ns(self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }

    pub fn elapsed_ms(self) -> f64 {
        self.0.elapsed().as_secs_f64() * 1e3
    }

    pub fn elapsed_s(self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}
