//! Metric helpers: percentiles, means, and CDFs over flow records, plus the
//! packet-loss breakdown by cause.

use crate::sim::{FlowRecord, QueueStats};
use crate::time::SimTime;

/// Packet losses split by cause across a set of queues. Drop-tail loss at a
/// live link signals congestion; a discard at a dark link signals failure —
/// conflating them makes failure experiments look like buffer problems.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DropBreakdown {
    /// Drop-tail losses at live links.
    pub congestion: u64,
    /// Discards at links that were down.
    pub link_down: u64,
}

impl DropBreakdown {
    /// Sum the breakdown over per-queue statistics (e.g. one
    /// [`crate::Simulator::queue_stats`] call per link).
    pub fn accumulate(stats: impl IntoIterator<Item = QueueStats>) -> Self {
        let mut out = DropBreakdown::default();
        for qs in stats {
            out.congestion += qs.dropped;
            out.link_down += qs.dropped_link_down;
        }
        out
    }

    /// All losses regardless of cause.
    pub fn total(&self) -> u64 {
        self.congestion + self.link_down
    }
}

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

/// Sample standard deviation (n-1 denominator); 0 for a single sample.
pub fn stddev(samples: &[f64]) -> f64 {
    if samples.len() < 2 {
        return 0.0;
    }
    let m = mean(samples);
    let var = samples.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (samples.len() - 1) as f64;
    var.sqrt()
}

/// Empirical CDF points `(value, fraction <= value)`, one per distinct value.
pub fn ecdf(samples: &[f64]) -> Vec<(f64, f64)> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len() as f64;
    let mut out: Vec<(f64, f64)> = Vec::new();
    for (i, x) in v.iter().enumerate() {
        let frac = (i + 1) as f64 / n;
        match out.last_mut() {
            #[expect(
                clippy::float_cmp,
                reason = "dedup of sorted samples: exact representation equality is the intent"
            )]
            Some(last) if last.0 == *x => last.1 = frac,
            _ => out.push((*x, frac)),
        }
    }
    out
}

/// Flow completion times in microseconds.
pub fn fcts_us(records: &[FlowRecord]) -> Vec<f64> {
    records.iter().map(|r| r.fct().as_us_f64()).collect()
}

/// Records filtered by owner tag.
pub fn with_tag(records: &[FlowRecord], tag: u64) -> Vec<&FlowRecord> {
    records.iter().filter(|r| r.owner_tag == tag).collect()
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

/// Convert a picosecond duration sample set to microseconds.
pub fn ps_to_us(samples_ps: &[u64]) -> Vec<f64> {
    samples_ps
        .iter()
        .map(|&p| SimTime::from_ps(p).as_us_f64())
        .collect()
}

/// Goodput of a record in Gb/s. A zero-duration record (degenerate, e.g. a
/// hand-built placeholder) yields 0.0 rather than infinity, so aggregates
/// like [`mean`] and [`Summary::of`] stay finite.
pub fn goodput_gbps(rec: &FlowRecord) -> f64 {
    let secs = rec.fct().as_secs_f64();
    if secs <= 0.0 {
        return 0.0;
    }
    // pnet-tidy: allow(U1) -- this *is* the checked bits->Gb/s conversion helper the rule points callers at
    rec.size_bytes as f64 * 8.0 / secs / 1e9
}

/// Format a [`SimTime`] duration as adaptive microseconds/milliseconds.
pub fn fmt_duration(t: SimTime) -> String {
    t.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drop_breakdown_sums_by_cause() {
        let q = |dropped, link_down| QueueStats {
            enqueued: 10,
            dropped,
            dropped_link_down: link_down,
            peak_bytes: 0,
            bytes_sent: 0,
        };
        let b = DropBreakdown::accumulate([q(3, 0), q(0, 5), q(2, 1)]);
        assert_eq!(b.congestion, 5);
        assert_eq!(b.link_down, 6);
        assert_eq!(b.total(), 11);
    }

    #[test]
    fn percentile_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(|x| x as f64).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
    }

    #[test]
    fn mean_and_stddev() {
        let v = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&v) - 5.0).abs() < 1e-12);
        // Sample stddev of this classic set is ~2.138.
        assert!((stddev(&v) - 2.138089935).abs() < 1e-6);
    }

    #[test]
    fn ecdf_steps() {
        let v = [1.0, 1.0, 2.0, 3.0];
        let cdf = ecdf(&v);
        assert_eq!(cdf, vec![(1.0, 0.5), (2.0, 0.75), (3.0, 1.0)]);
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
