//! Distinguishing-advantage harnesses: the empirical form of sample-size
//! lower bounds.
//!
//! A lower bound of `Ω(√n/ε²)` says: below that sample size, no algorithm
//! can tell a random member of `Q_ε` from uniform with constant advantage.
//! This harness measures the advantage achieved by an arbitrary
//! real-valued statistic with its best threshold (a Kolmogorov–Smirnov-style
//! maximum gap between the two empirical CDFs of the statistic). Experiment
//! F1 sweeps `m/√n` and watches the advantage rise from ~0 only around the
//! predicted barrier.

use histo_core::empirical::SampleCounts;
use histo_core::Distribution;
use histo_sampling::oracle::SampleOracle;
use histo_sampling::DistOracle;
use histo_stats::PortableRng;

/// An ensemble of distributions: each trial may see a fresh draw (e.g. a
/// random member of `Q_ε`), or always the same one (e.g. uniform).
pub trait Ensemble {
    /// Draws one distribution.
    fn draw(&self, rng: &mut PortableRng) -> Distribution;
}

/// The singleton ensemble.
pub struct Fixed(pub Distribution);

impl Ensemble for Fixed {
    fn draw(&self, _: &mut PortableRng) -> Distribution {
        self.0.clone()
    }
}

impl<F: Fn(&mut PortableRng) -> Distribution> Ensemble for F {
    fn draw(&self, rng: &mut PortableRng) -> Distribution {
        self(rng)
    }
}

/// Estimates the best-threshold advantage of a scalar statistic at sample
/// size `m`: runs `trials` trials under each hypothesis, computes the
/// statistic from `m`-sample counts, and returns the maximum CDF gap
/// between the two empirical distributions of the statistic (the advantage
/// of the best threshold test, one-sided in either direction).
///
/// # Errors
///
/// Propagates oracle failures.
pub fn statistic_advantage(
    h0: &dyn Ensemble,
    h1: &dyn Ensemble,
    statistic: &dyn Fn(&SampleCounts) -> f64,
    m: u64,
    trials: usize,
    rng: &mut PortableRng,
) -> histo_core::Result<f64> {
    let run = |e: &dyn Ensemble, rng: &mut PortableRng| -> histo_core::Result<Vec<f64>> {
        (0..trials)
            .map(|_| {
                let d = e.draw(rng);
                let mut o = DistOracle::new(d);
                let counts = o.try_draw_counts(m, rng)?;
                Ok(statistic(&counts))
            })
            .collect()
    };
    let mut s0 = run(h0, rng)?;
    let mut s1 = run(h1, rng)?;
    s0.sort_by(|a, b| a.partial_cmp(b).expect("finite statistic"));
    s1.sort_by(|a, b| a.partial_cmp(b).expect("finite statistic"));
    // Max |F0(t) - F1(t)| over thresholds t (two-sample KS statistic),
    // tie-aware: at each distinct value, advance BOTH pointers past every
    // tied observation before evaluating the gap.
    let mut i = 0usize;
    let mut j = 0usize;
    let mut best: f64 = 0.0;
    while i < s0.len() || j < s1.len() {
        let t = match (s0.get(i), s1.get(j)) {
            (Some(&a), Some(&b)) => a.min(b),
            (Some(&a), None) => a,
            (None, Some(&b)) => b,
            (None, None) => break,
        };
        while i < s0.len() && s0[i] <= t {
            i += 1;
        }
        while j < s1.len() && s1[j] <= t {
            j += 1;
        }
        let gap = (i as f64 / s0.len() as f64 - j as f64 / s1.len() as f64).abs();
        best = best.max(gap);
    }
    Ok(best)
}

/// Convenience: the collision-count statistic.
pub fn collision_statistic(counts: &SampleCounts) -> f64 {
    counts.collisions() as f64
}

/// Convenience: the Paninski unique-elements statistic.
pub fn unique_statistic(counts: &SampleCounts) -> f64 {
    histo_testers::uniformity::paninski_unique_statistic(counts) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paninski::QEpsilonFamily;

    #[test]
    fn identical_ensembles_have_no_advantage() {
        let u = Distribution::uniform(200).unwrap();
        let mut rng = PortableRng::seed_from(43);
        let adv = statistic_advantage(
            &Fixed(u.clone()),
            &Fixed(u),
            &collision_statistic,
            500,
            60,
            &mut rng,
        )
        .unwrap();
        // KS gap of two 60-sample draws of the same law: small but nonzero.
        assert!(adv < 0.4, "advantage {adv} between identical ensembles");
    }

    #[test]
    fn far_apart_ensembles_have_high_advantage() {
        let u = Distribution::uniform(100).unwrap();
        let spiky =
            Distribution::from_weights((0..100).map(|i| if i < 10 { 10.0 } else { 1.0 }).collect())
                .unwrap();
        let mut rng = PortableRng::seed_from(47);
        let adv = statistic_advantage(
            &Fixed(u),
            &Fixed(spiky),
            &collision_statistic,
            2_000,
            40,
            &mut rng,
        )
        .unwrap();
        assert!(adv > 0.8, "advantage {adv}");
    }

    #[test]
    fn paninski_barrier_direction() {
        // Against the Q_eps ensemble, the collision statistic's advantage
        // should clearly grow with m through the sqrt(n)/eps^2 scale.
        let n = 400;
        let eps = 0.15;
        let fam = QEpsilonFamily::canonical(n, eps).unwrap();
        let u = Distribution::uniform(n).unwrap();
        let h1 = move |rng: &mut PortableRng| fam.sample_member(rng);
        let mut rng = PortableRng::seed_from(53);
        // m far below the barrier.
        let m_low = 30;
        // m far above: C * sqrt(n)/eps^2 = 20 * 20 / 0.0225 ~ 17_700.
        let m_high = 18_000;
        let adv_low = statistic_advantage(
            &Fixed(u.clone()),
            &h1,
            &collision_statistic,
            m_low,
            60,
            &mut rng,
        )
        .unwrap();
        let adv_high =
            statistic_advantage(&Fixed(u), &h1, &collision_statistic, m_high, 60, &mut rng)
                .unwrap();
        assert!(
            adv_high > adv_low + 0.3,
            "advantage should rise with m: low {adv_low}, high {adv_high}"
        );
        assert!(adv_high > 0.7, "above the barrier: {adv_high}");
    }
}
