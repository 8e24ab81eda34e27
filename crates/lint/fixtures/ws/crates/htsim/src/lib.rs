//! C1 fixtures: panics in the simulator's library code.

pub fn first(v: &[u32]) -> u32 {
    *v.first().unwrap()
}

pub fn checked_first(v: &[u32]) -> u32 {
    *v.first().expect("invariant: caller guarantees non-empty")
}

pub fn sign(x: i32) -> i32 {
    match x.signum() {
        -1 | 0 | 1 => x.signum(),
        _ => unreachable!(),
    }
}

pub fn sign_waived(x: i32) -> i32 {
    match x.signum() {
        -1 | 0 | 1 => x.signum(),
        // pnet-tidy: allow(C1) -- fixture: signum returns -1, 0 or 1
        _ => unreachable!("signum is one of three values"),
    }
}

pub fn sign_named(x: i32) -> i32 {
    match x.signum() {
        -1 | 0 | 1 => x.signum(),
        _ => unreachable!("invariant: signum returns -1, 0 or 1"),
    }
}
