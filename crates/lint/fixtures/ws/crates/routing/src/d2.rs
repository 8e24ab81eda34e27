//! D2 fixtures: the lock-free tokens that are findings in a product crate's
//! library code — an active and a waived twin of each — and a test module
//! in which the same tokens are clean.

use std::sync::atomic::AtomicU64;
// pnet-tidy: allow(D2) -- fixture: waived atomic import
use std::sync::atomic::AtomicUsize;

pub fn scoped() -> u64 {
    std::thread::scope(|_| 1)
}

pub fn scoped_waived() -> u64 {
    // pnet-tidy: allow(D2) -- fixture: waived scoped threads
    std::thread::scope(|_| 2)
}

pub fn named() {
    let _ = std::thread::Builder::new();
}

pub fn named_waived() {
    // pnet-tidy: allow(D2) -- fixture: waived named thread
    let _ = std::thread::Builder::new();
}

pub fn counters() -> (AtomicU64, AtomicUsize) {
    (AtomicU64::new(0), AtomicUsize::new(0))
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::AtomicBool;

    #[test]
    fn tests_keep_their_scoped_threads() {
        std::thread::scope(|_| ());
        let _ = std::thread::Builder::new();
        let _ = AtomicBool::new(false);
    }
}
