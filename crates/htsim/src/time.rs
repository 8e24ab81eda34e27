//! Simulation time: a picosecond-resolution clock.
//!
//! Picoseconds in a `u64` cover ~213 days of simulated time — far beyond any
//! experiment here — while keeping every serialization delay exact (one MTU
//! at 400 Gb/s is 30 ns = 30,000 ps).

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An absolute simulation timestamp in picoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// Time zero.
    pub const ZERO: SimTime = SimTime(0);

    /// From picoseconds.
    #[inline]
    pub const fn from_ps(ps: u64) -> Self {
        SimTime(ps)
    }

    /// From nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns * 1_000)
    }

    /// From microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        SimTime(us * 1_000_000)
    }

    /// From milliseconds.
    #[inline]
    pub const fn from_ms(ms: u64) -> Self {
        SimTime(ms * 1_000_000_000)
    }

    /// From seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000_000)
    }

    /// As picoseconds.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// As fractional microseconds.
    #[inline]
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// As fractional milliseconds.
    #[inline]
    pub fn as_ms_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// As fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// Saturating difference.
    #[inline]
    pub fn saturating_sub(self, other: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(other.0))
    }
}

impl Add for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl std::str::FromStr for SimTime {
    type Err = String;

    /// Parse a duration with an optional unit suffix: `ps`, `ns`, `us`,
    /// `ms`, or `s` (bare digits mean picoseconds). E.g. `"100us"`, `"1ms"`.
    fn from_str(s: &str) -> Result<SimTime, String> {
        let s = s.trim();
        let (digits, make): (&str, fn(u64) -> SimTime) = if let Some(d) = s.strip_suffix("ps") {
            (d, SimTime::from_ps)
        } else if let Some(d) = s.strip_suffix("ns") {
            (d, SimTime::from_ns)
        } else if let Some(d) = s.strip_suffix("us") {
            (d, SimTime::from_us)
        } else if let Some(d) = s.strip_suffix("ms") {
            (d, SimTime::from_ms)
        } else if let Some(d) = s.strip_suffix('s') {
            (d, SimTime::from_secs)
        } else {
            (s, SimTime::from_ps)
        };
        digits
            .trim()
            .parse::<u64>()
            .map(make)
            .map_err(|e| format!("bad duration {s:?}: {e}"))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}ms", self.as_ms_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}us", self.as_us_f64())
        } else {
            write!(f, "{}ps", self.0)
        }
    }
}

/// Ideal transfer time of `bytes` at `rate_bps` in fractional microseconds —
/// exact float math (unlike [`serialization_ps`], which rounds up to whole
/// picoseconds), for use as an FCT/slowdown denominator.
#[inline]
pub fn transfer_us_f64(bytes: u64, rate_bps: u64) -> f64 {
    bytes as f64 * 8.0 / rate_bps as f64 * 1e6
}

/// Serialization time of `bytes` at `rate_bps`, in picoseconds (rounded up —
/// a partial picosecond still occupies the wire).
#[inline]
pub fn serialization_ps(bytes: u32, rate_bps: u64) -> u64 {
    let bits = bytes as u64 * 8;
    // bits / rate seconds = bits * 1e12 / rate ps. Any frame under ~2.3 MB
    // keeps the numerator within u64, so the common case (MTU-bounded
    // packets) avoids a 128-bit division; the wide path gives the same
    // answer for anything larger.
    match bits.checked_mul(1_000_000_000_000) {
        Some(ps) => ps.div_ceil(rate_bps),
        #[expect(
            clippy::cast_possible_truncation,
            reason = "bits < 2^35 (bytes is u32), so the quotient fits u64 for every rate above 2 kb/s"
        )]
        None => (bits as u128 * 1_000_000_000_000u128).div_ceil(rate_bps as u128) as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_roundtrip() {
        assert_eq!(SimTime::from_ns(5).as_ps(), 5_000);
        assert_eq!(SimTime::from_us(3).as_ps(), 3_000_000);
        assert_eq!(SimTime::from_ms(1).as_ps(), 1_000_000_000);
        assert_eq!(SimTime::from_secs(1).as_secs_f64(), 1.0);
    }

    #[test]
    fn mtu_serialization_at_100g_is_120ns() {
        // 1500 B * 8 / 100 Gb/s = 120 ns (paper, section 5.2.1).
        assert_eq!(serialization_ps(1500, 100_000_000_000), 120_000);
    }

    #[test]
    fn mtu_serialization_at_400g_is_30ns() {
        assert_eq!(serialization_ps(1500, 400_000_000_000), 30_000);
    }

    #[test]
    fn serialization_rounds_up() {
        // 1 byte at 1 Tb/s = 8 ps exactly; 1 byte at 3 Tb/s = 2.66 -> 3 ps.
        assert_eq!(serialization_ps(1, 1_000_000_000_000), 8);
        assert_eq!(serialization_ps(1, 3_000_000_000_000), 3);
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_us(2);
        let b = SimTime::from_us(1);
        assert_eq!(a + b, SimTime::from_us(3));
        assert_eq!(a - b, SimTime::from_us(1));
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
    }

    #[test]
    fn parses_duration_suffixes() {
        assert_eq!("42".parse::<SimTime>().unwrap(), SimTime::from_ps(42));
        assert_eq!("42ps".parse::<SimTime>().unwrap(), SimTime::from_ps(42));
        assert_eq!("30ns".parse::<SimTime>().unwrap(), SimTime::from_ns(30));
        assert_eq!("100us".parse::<SimTime>().unwrap(), SimTime::from_us(100));
        assert_eq!("1ms".parse::<SimTime>().unwrap(), SimTime::from_ms(1));
        assert_eq!("2s".parse::<SimTime>().unwrap(), SimTime::from_secs(2));
        assert_eq!(" 5 us ".parse::<SimTime>().unwrap(), SimTime::from_us(5));
        assert!("".parse::<SimTime>().is_err());
        assert!("5xs".parse::<SimTime>().is_err());
        assert!("-3us".parse::<SimTime>().is_err());
    }

    #[test]
    fn display_scales() {
        assert_eq!(SimTime::from_ms(2).to_string(), "2.000ms");
        assert_eq!(SimTime::from_us(7).to_string(), "7.000us");
        assert_eq!(SimTime::from_ps(42).to_string(), "42ps");
    }
}
