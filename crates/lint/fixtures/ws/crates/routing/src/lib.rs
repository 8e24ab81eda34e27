//! D2 fixture: wall-clock time in routing.

pub fn elapsed_ns(t0: std::time::Instant) -> u128 {
    t0.elapsed().as_nanos()
}
