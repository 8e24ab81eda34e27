//! Order statistics for timing samples.
//!
//! One rule governs every percentile the benchmark prints: a percentile is
//! only reported when at least [`MIN_BEYOND`] samples lie beyond it, and it
//! is always reported together with the sample count. The median is the one
//! exception — it is the base statistic and is defined for any non-empty
//! sample.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The percentiles [`Sample::tail`] chooses from, ascending.
const LADDER: [f64; 5] = [75.0, 90.0, 95.0, 99.0, 99.9];

/// A percentile the sample is too small to support.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Unsupported {
    pub percentile: f64,
    pub samples: usize,
    pub beyond: usize,
}

impl std::fmt::Display for Unsupported {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "p{} of {} samples has only {} beyond it (need {MIN_BEYOND})",
            self.percentile, self.samples, self.beyond
        )
    }
}

/// A non-empty sample of finite values, sorted once.
#[derive(Debug, Clone)]
pub struct Sample {
    sorted: Vec<f64>,
}

impl Sample {
    /// `None` for an empty sample or one holding a non-finite value.
    pub fn new(values: &[f64]) -> Option<Sample> {
        if values.is_empty() || values.iter().any(|v| !v.is_finite()) {
            return None;
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        Some(Sample { sorted })
    }

    /// Number of samples.
    pub fn n(&self) -> usize {
        self.sorted.len()
    }

    /// Middle value (mean of the two middles for an even count).
    pub fn median(&self) -> f64 {
        let n = self.n();
        if n % 2 == 1 {
            self.sorted[n / 2]
        } else {
            0.5 * (self.sorted[n / 2 - 1] + self.sorted[n / 2])
        }
    }

    /// First and third quartile as Python's `statistics.quantiles(v, n=4)`
    /// computes them (the exclusive method), so that spreads printed here
    /// match the ones the driver derives. `None` below two samples.
    pub fn quartiles(&self) -> Option<(f64, f64)> {
        let m = self.n();
        if m < 2 {
            return None;
        }
        let cut = |i: usize| {
            let j = (i * (m + 1) / 4).clamp(1, m - 1);
            let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
            (self.sorted[j - 1] * (4.0 - delta) + self.sorted[j] * delta) / 4.0
        };
        Some((cut(1), cut(3)))
    }

    /// Nearest-rank index (1-based) of percentile `p`. The epsilon keeps a
    /// product such as `99.9 * 1000 / 100`, which lands a hair above the
    /// integer in floating point, from being rounded up a whole rank.
    fn rank(&self, p: f64) -> usize {
        let exact = p * self.n() as f64 / 100.0;
        (((exact - 1e-9).ceil()) as usize).clamp(1, self.n())
    }

    /// Nearest-rank percentile `p` in (0, 100], refused unless
    /// [`MIN_BEYOND`] samples lie beyond its rank.
    pub fn percentile(&self, p: f64) -> Result<f64, Unsupported> {
        assert!(p > 0.0 && p <= 100.0, "percentile {p} outside (0, 100]");
        let k = self.rank(p);
        let beyond = self.n() - k;
        if beyond < MIN_BEYOND {
            return Err(Unsupported {
                percentile: p,
                samples: self.n(),
                beyond,
            });
        }
        Ok(self.sorted[k - 1])
    }

    /// The highest percentile of the ladder 75/90/95/99/99.9 that this
    /// sample supports, with its value; `(50, median)` when it supports
    /// none, so callers always have a defined number to print next to
    /// `n()`.
    pub fn tail(&self) -> (f64, f64) {
        LADDER
            .iter()
            .rev()
            .find_map(|&p| self.percentile(p).ok().map(|v| (p, v)))
            .unwrap_or((50.0, self.median()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Sample {
        Sample::new(&(1..=n).map(|i| i as f64).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn rejects_empty_and_non_finite() {
        assert!(Sample::new(&[]).is_none());
        assert!(Sample::new(&[1.0, f64::NAN]).is_none());
        assert!(Sample::new(&[f64::INFINITY]).is_none());
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(Sample::new(&[3.0, 1.0, 2.0]).unwrap().median(), 2.0);
        assert_eq!(Sample::new(&[4.0, 1.0, 2.0, 3.0]).unwrap().median(), 2.5);
        assert_eq!(Sample::new(&[7.0]).unwrap().median(), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(ramp(10).quartiles(), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(ramp(3).quartiles(), Some((1.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(ramp(2).quartiles(), Some((0.75, 2.25)));
        assert_eq!(ramp(1).quartiles(), None);
    }

    #[test]
    fn percentile_is_nearest_rank_with_a_sample_guard() {
        let s = ramp(100);
        assert_eq!(s.percentile(50.0), Ok(50.0));
        assert_eq!(s.percentile(75.0), Ok(75.0));
        assert_eq!(s.percentile(90.0), Ok(90.0));
        // p95 of 100 samples leaves 5 beyond: refused.
        assert_eq!(
            s.percentile(95.0),
            Err(Unsupported {
                percentile: 95.0,
                samples: 100,
                beyond: 5
            })
        );
    }

    #[test]
    fn tail_picks_the_highest_supported_step() {
        assert_eq!(ramp(1000).tail(), (99.0, 990.0));
        assert_eq!(ramp(200).tail(), (95.0, 190.0));
        assert_eq!(ramp(100).tail(), (90.0, 90.0));
        assert_eq!(ramp(42).tail(), (75.0, 32.0));
        assert_eq!(ramp(40).tail(), (75.0, 30.0));
        // 39 samples: p75 is rank 30, 9 beyond — only the median is left.
        assert_eq!(ramp(39).tail(), (50.0, 20.0));
        assert_eq!(ramp(4).tail(), (50.0, 2.5));
    }

    #[test]
    #[should_panic(expected = "outside (0, 100]")]
    fn percentile_rejects_out_of_range() {
        let _ = ramp(100).percentile(0.0);
    }
}
