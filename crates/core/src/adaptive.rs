//! Adaptive plane selection (section 3.4 of the paper).
//!
//! "End-host routing solutions provide OS direct access to routing
//! information and can facilitate better flow placement decisions in P-Net"
//! — the paper points at DARD \[44\] and Fastpass \[33\] as the kind of
//! end-host mechanism that P-Nets can run *per dataplane*.
//!
//! [`AdaptiveBalancer`] is a small DARD-flavored controller: each completed
//! flow reports its *slowdown* (achieved FCT over the ideal FCT for its
//! size) against the plane it used; the balancer keeps an EWMA per plane and
//! steers new flows toward the least-congested plane, with occasional
//! exploration so a plane that recovered gets rediscovered.

use pnet_topology::PlaneId;

/// Congestion scoreboard over the planes of a P-Net.
#[derive(Debug, Clone)]
pub struct AdaptiveBalancer {
    /// EWMA slowdown per plane (1.0 = ideal, higher = congested).
    scores: Vec<f64>,
    /// EWMA gain for new reports.
    gain: f64,
    /// Every `explore_every`-th decision probes a random-ish plane instead
    /// of the best one (0 disables exploration).
    explore_every: u64,
    decisions: u64,
}

impl AdaptiveBalancer {
    /// New balancer over `n_planes` planes. `gain` in (0, 1]; typical 0.2.
    pub fn new(n_planes: usize, gain: f64, explore_every: u64) -> Self {
        assert!(n_planes >= 1);
        assert!(gain > 0.0 && gain <= 1.0);
        AdaptiveBalancer {
            scores: vec![1.0; n_planes],
            gain,
            explore_every,
            decisions: 0,
        }
    }

    /// Report a completed flow: it ran on `plane` and achieved `slowdown`
    /// (measured FCT / ideal FCT; clamp anything below 1 to 1).
    pub fn report(&mut self, plane: PlaneId, slowdown: f64) {
        let s = slowdown.max(1.0);
        let e = &mut self.scores[plane.index()];
        *e = (1.0 - self.gain) * *e + self.gain * s;
    }

    /// Current score of a plane.
    pub fn score(&self, plane: PlaneId) -> f64 {
        self.scores[plane.index()]
    }

    /// Pick a plane among `usable` (must be non-empty): normally the lowest
    /// score (ties to the lowest id); every `explore_every`-th call probes
    /// round-robin across usable planes instead.
    pub fn choose(&mut self, usable: &[PlaneId]) -> PlaneId {
        assert!(!usable.is_empty(), "no usable planes");
        self.decisions += 1;
        if self.explore_every > 0 && self.decisions.is_multiple_of(self.explore_every) {
            let idx = (self.decisions / self.explore_every) as usize % usable.len();
            return usable[idx];
        }
        *usable
            .iter()
            .min_by(|a, b| {
                self.score(**a)
                    .total_cmp(&self.score(**b))
                    .then(a.0.cmp(&b.0))
            })
            .expect("invariant: usable is checked non-empty above")
    }
}

/// Ideal FCT (microseconds) of `bytes` at `bottleneck_bps` — the slowdown
/// denominator used with [`AdaptiveBalancer::report`].
pub fn ideal_fct_us(bytes: u64, bottleneck_bps: u64) -> f64 {
    pnet_htsim::transfer_us_f64(bytes, bottleneck_bps)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn planes(n: u16) -> Vec<PlaneId> {
        (0..n).map(PlaneId).collect()
    }

    #[test]
    fn avoids_the_congested_plane() {
        let mut b = AdaptiveBalancer::new(4, 0.3, 0);
        for _ in 0..10 {
            b.report(PlaneId(0), 8.0);
        }
        let all = planes(4);
        assert_ne!(b.choose(&all), PlaneId(0));
        // Among the untouched planes, lowest id wins ties.
        assert_eq!(b.choose(&all), PlaneId(1));
    }

    #[test]
    fn exploration_touches_other_planes() {
        let mut b = AdaptiveBalancer::new(3, 0.3, 4);
        b.report(PlaneId(1), 5.0);
        b.report(PlaneId(2), 5.0);
        let all = planes(3);
        let picks: Vec<PlaneId> = (0..12).map(|_| b.choose(&all)).collect();
        // Best plane is 0, but exploration must pick someone else at least
        // once.
        assert!(picks.iter().any(|&p| p != PlaneId(0)), "never explored");
        assert!(picks.iter().filter(|&&p| p == PlaneId(0)).count() >= 8);
    }

    #[test]
    fn respects_usable_subset() {
        let mut b = AdaptiveBalancer::new(4, 0.2, 0);
        b.report(PlaneId(2), 3.0);
        // Only planes 2 and 3 usable: score of 3 vs 1 => 3 wins.
        assert_eq!(b.choose(&[PlaneId(2), PlaneId(3)]), PlaneId(3));
    }

    #[test]
    fn ideal_fct_math() {
        // 1.25 MB at 100G = 100 us.
        assert!((ideal_fct_us(1_250_000, 100_000_000_000) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn slowdowns_below_one_clamped() {
        let mut b = AdaptiveBalancer::new(1, 0.5, 0);
        b.report(PlaneId(0), 0.2);
        assert!(b.score(PlaneId(0)) >= 1.0);
    }
}
