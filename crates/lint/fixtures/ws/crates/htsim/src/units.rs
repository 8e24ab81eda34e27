//! U1 fixtures: inline conversion constants next to unit-bearing values.

pub fn thousands(n: u64) -> u64 {
    n * 1000
}

pub fn fct_to_us(fct_ps: u64) -> f64 {
    fct_ps as f64 / 1e6
}

pub fn fct_to_us_waived(fct_ps: u64) -> f64 {
    // pnet-tidy: allow(U1) -- fixture: this is the checked helper itself
    fct_ps as f64 / 1e6
}
