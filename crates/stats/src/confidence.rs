//! Wilson score confidence intervals for binomial proportions.
//!
//! The experiment harness estimates a tester's acceptance probability by
//! running it on `t` independent trials; the Wilson interval gives a
//! well-behaved confidence range even for proportions near 0 or 1, which is
//! exactly where a good tester lives.

/// A two-sided confidence interval `[lo, hi]` for a binomial proportion.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WilsonInterval {
    /// Point estimate (`successes / trials`).
    pub point: f64,
    /// Lower bound of the interval.
    pub lo: f64,
    /// Upper bound of the interval.
    pub hi: f64,
}

impl WilsonInterval {
    /// Computes the Wilson score interval for `successes` out of `trials`
    /// with normal quantile `z` (e.g. `1.96` for 95%, `2.576` for 99%).
    ///
    /// # Panics
    ///
    /// Panics if `trials == 0`, `successes > trials`, or `z <= 0`.
    pub fn new(successes: u64, trials: u64, z: f64) -> Self {
        assert!(trials > 0, "Wilson interval needs at least one trial");
        assert!(
            successes <= trials,
            "successes {successes} > trials {trials}"
        );
        assert!(z > 0.0, "z must be positive");
        let n = trials as f64;
        let p = successes as f64 / n;
        let z2 = z * z;
        let denom = 1.0 + z2 / n;
        let center = (p + z2 / (2.0 * n)) / denom;
        let half = (z / denom) * ((p * (1.0 - p) / n) + z2 / (4.0 * n * n)).sqrt();
        Self {
            point: p,
            lo: (center - half).max(0.0),
            hi: (center + half).min(1.0),
        }
    }

    /// The 95% interval (`z = 1.96`).
    pub fn ci95(successes: u64, trials: u64) -> Self {
        Self::new(successes, trials, 1.96)
    }

    /// Half-width of the interval.
    pub fn half_width(&self) -> f64 {
        (self.hi - self.lo) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_contains_point_estimate() {
        for &(s, t) in &[(0u64, 10u64), (10, 10), (7, 10), (500, 1000), (1, 1000)] {
            let w = WilsonInterval::ci95(s, t);
            assert!(w.lo <= w.point + 1e-12 && w.point <= w.hi + 1e-12, "{w:?}");
            assert!((0.0..=1.0).contains(&w.lo) && (0.0..=1.0).contains(&w.hi));
        }
    }

    #[test]
    fn extreme_proportions_stay_in_unit_interval() {
        let w = WilsonInterval::ci95(0, 5);
        assert_eq!(w.lo, 0.0);
        assert!(w.hi > 0.0 && w.hi < 1.0);
        let w = WilsonInterval::ci95(5, 5);
        assert_eq!(w.hi, 1.0);
        assert!(w.lo < 1.0 && w.lo > 0.0);
    }

    #[test]
    fn width_shrinks_with_trials() {
        let small = WilsonInterval::ci95(50, 100);
        let large = WilsonInterval::ci95(5_000, 10_000);
        assert!(large.half_width() < small.half_width());
    }

    #[test]
    fn coverage_is_roughly_nominal() {
        // Simulate: true p = 0.3, 200 trials each, check 95% CI covers p in
        // roughly >= 90% of 1000 experiments (loose).
        use crate::binomial::Binomial;
        use crate::PortableRng;
        let p = 0.3;
        let b = Binomial::new(200, p);
        let mut rng = PortableRng::seed_from(77);
        let mut covered = 0;
        let runs = 1_000;
        for _ in 0..runs {
            let s = b.sample(&mut rng);
            let w = WilsonInterval::ci95(s, 200);
            if w.lo <= p && p <= w.hi {
                covered += 1;
            }
        }
        assert!(
            covered as f64 / runs as f64 > 0.90,
            "coverage {covered}/{runs}"
        );
    }
}
