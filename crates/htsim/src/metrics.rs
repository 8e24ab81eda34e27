//! Metric helpers: percentiles, means and summaries over flow records.

use crate::sim::FlowRecord;

/// A percentile of a sample set (nearest-rank). `p` in [0, 100].
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of empty sample set");
    assert!((0.0..=100.0).contains(&p));
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    #[expect(
        clippy::cast_possible_truncation,
        reason = "p is asserted within [0, 100], so the rank is at most v.len()"
    )]
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.saturating_sub(1).min(v.len() - 1)]
}

/// Arithmetic mean.
pub fn mean(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty());
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Flow completion times in microseconds.
pub fn fcts_us(records: &[FlowRecord]) -> Vec<f64> {
    records.iter().map(|r| r.fct().as_us_f64()).collect()
}

/// Summary statistics of a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub mean: f64,
    pub median: f64,
    pub p90: f64,
    pub p99: f64,
    pub min: f64,
    pub max: f64,
}

impl Summary {
    /// Build from samples.
    pub fn of(samples: &[f64]) -> Summary {
        Summary {
            n: samples.len(),
            mean: mean(samples),
            median: percentile(samples, 50.0),
            p90: percentile(samples, 90.0),
            p99: percentile(samples, 99.0),
            min: samples.iter().copied().fold(f64::INFINITY, f64::min),
            max: samples.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }
}

/// Goodput of a record in Gb/s. A zero-duration record (degenerate, e.g. a
/// hand-built placeholder) yields 0.0 rather than infinity, so aggregates
/// like [`mean`] and [`Summary::of`] stay finite.
pub fn goodput_gbps(rec: &FlowRecord) -> f64 {
    let secs = rec.fct().as_secs_f64();
    if secs <= 0.0 {
        return 0.0;
    }
    rec.size_bytes as f64 * 8.0 / secs / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(|x| x as f64).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
    }

    #[test]
    fn summary_consistency() {
        let v: Vec<f64> = (1..=10).map(|x| x as f64).collect();
        let s = Summary::of(&v);
        assert_eq!(s.n, 10);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 10.0);
        assert_eq!(s.median, 5.0);
        assert!((s.mean - 5.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn percentile_rejects_empty() {
        percentile(&[], 50.0);
    }

    #[test]
    fn goodput_of_zero_duration_record_is_zero_not_infinite() {
        use crate::packet::ConnId;
        use crate::time::SimTime;
        use pnet_topology::HostId;
        let rec = |fct_ps: u64| FlowRecord {
            conn: ConnId(0),
            src: HostId(0),
            dst: HostId(1),
            size_bytes: 1500,
            start: SimTime::from_us(1),
            finish: SimTime::from_us(1) + SimTime::from_ps(fct_ps),
            retransmits: 0,
            timeouts: 0,
            n_subflows: 1,
            min_switch_hops: 2,
            owner_tag: 0,
        };
        let degenerate = rec(0);
        assert_eq!(goodput_gbps(&degenerate), 0.0);
        // And it no longer poisons aggregates.
        let normal = rec(1_000_000); // 1500 B in 1 us = 12 Gb/s
        let m = mean(&[goodput_gbps(&degenerate), goodput_gbps(&normal)]);
        assert!(m.is_finite());
        assert!((m - 6.0).abs() < 1e-9, "mean goodput {m}");
    }
}
