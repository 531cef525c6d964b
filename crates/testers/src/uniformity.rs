//! Uniformity testers — the `k = 1` special case of histogram testing and
//! the engine behind the partition-based baselines.
//!
//! - [`CollisionUniformityTester`]: the classical collision tester. With
//!   `m` samples, `E\[collisions\] = C(m,2)·‖D‖₂²`; uniform gives `1/n`,
//!   while `d_TV(D, U) >= ε` forces `‖D‖₂² >= (1 + 4ε²)/n`. Thresholding at
//!   `(1 + 2ε²)·C(m,2)/n` distinguishes the two with `m = O(√n/ε²)` — the
//!   Paninski-optimal rate up to the ε-exponent.
//! - [`paninski_unique_statistic`]: the coincidence statistic of \[Pan08\]
//!   (number of elements seen exactly once), provided for the lower-bound
//!   experiments (F1) which measure how *any* statistic's distinguishing
//!   advantage decays below the `√n/ε²` barrier.

use crate::{validate_params, Decision, Tester};
use histo_core::empirical::SampleCounts;
use histo_sampling::oracle::SampleOracle;
use histo_stats::PortableRng;
use histo_trace::{Stage, Value};

/// Collision-based uniformity tester with `m = ceil(sample_factor·√n/ε²)`
/// samples.
#[derive(Debug, Clone, Copy)]
pub struct CollisionUniformityTester {
    /// Leading constant of the sample budget.
    pub sample_factor: f64,
}

impl Default for CollisionUniformityTester {
    fn default() -> Self {
        Self { sample_factor: 4.0 }
    }
}

impl CollisionUniformityTester {
    /// Sample budget for domain size `n` at distance `epsilon`.
    pub fn samples(&self, n: usize, epsilon: f64) -> u64 {
        ((self.sample_factor * (n as f64).sqrt() / (epsilon * epsilon)).ceil() as u64).max(2)
    }

    /// Decides uniformity from precomputed counts (threshold
    /// `(1 + 2ε²)·C(m,2)/n`).
    pub fn decide(counts: &SampleCounts, epsilon: f64) -> Decision {
        let m = counts.total();
        if m < 2 {
            return Decision::Accept; // no information; accept by convention
        }
        let pairs = (m * (m - 1) / 2) as f64;
        let n = counts.n() as f64;
        let threshold = (1.0 + 2.0 * epsilon * epsilon) * pairs / n;
        if (counts.collisions() as f64) <= threshold {
            Decision::Accept
        } else {
            Decision::Reject
        }
    }
}

impl Tester for CollisionUniformityTester {
    fn name(&self) -> &'static str {
        "collision-uniformity"
    }

    fn test(
        &self,
        oracle: &mut dyn SampleOracle,
        k: usize,
        epsilon: f64,
        rng: &mut PortableRng,
    ) -> histo_core::Result<Decision> {
        validate_params(oracle.n(), k, epsilon)?;
        if k != 1 {
            return Err(histo_core::HistoError::InvalidParameter {
                name: "k",
                reason: "the collision tester only tests H_1 (uniformity)".into(),
            });
        }
        let m = self.samples(oracle.n(), epsilon);
        oracle.trace_enter(Stage::Uniformity);
        let counts = match oracle.try_draw_counts(m, rng) {
            Ok(c) => c,
            Err(e) => {
                oracle.trace_exit();
                return Err(e);
            }
        };
        let decision = Self::decide(&counts, epsilon);
        oracle.trace_counter("collisions", Value::U64(counts.collisions()));
        oracle.trace_counter("accepted", Value::Bool(decision.accepted()));
        oracle.trace_exit();
        Ok(decision)
    }
}

/// The \[Pan08\] coincidence statistic: the number of domain elements
/// observed exactly once. Under uniformity with `m ≪ n` this is close to
/// `m`; the paired-perturbation family `Q_ε` depresses it. Experiments F1
/// track its distinguishing advantage directly.
pub fn paninski_unique_statistic(counts: &SampleCounts) -> u64 {
    counts.counts().iter().filter(|&&c| c == 1).count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use histo_core::Distribution;
    use histo_sampling::DistOracle;

    #[test]
    fn accepts_uniform() {
        let n = 900;
        let d = Distribution::uniform(n).unwrap();
        let t = CollisionUniformityTester::default();
        let mut rng = PortableRng::seed_from(7);
        let mut accepts = 0;
        let trials = 40;
        for _ in 0..trials {
            let mut o = DistOracle::new(d.clone());
            if t.test(&mut o, 1, 0.25, &mut rng).unwrap().accepted() {
                accepts += 1;
            }
        }
        assert!(accepts >= trials * 3 / 4, "{accepts}/{trials}");
    }

    #[test]
    fn rejects_far_from_uniform() {
        let n = 900;
        // Half mass on n/4 elements: far from uniform.
        let d =
            Distribution::from_weights((0..n).map(|i| if i < n / 4 { 3.0 } else { 1.0 }).collect())
                .unwrap();
        let tv =
            histo_core::distance::total_variation(&d, &Distribution::uniform(n).unwrap()).unwrap();
        assert!(tv >= 0.24, "sanity: tv = {tv}");
        let t = CollisionUniformityTester::default();
        let mut rng = PortableRng::seed_from(11);
        let mut rejects = 0;
        let trials = 40;
        for _ in 0..trials {
            let mut o = DistOracle::new(d.clone());
            if !t.test(&mut o, 1, 0.22, &mut rng).unwrap().accepted() {
                rejects += 1;
            }
        }
        assert!(rejects >= trials * 3 / 4, "{rejects}/{trials}");
    }

    #[test]
    fn unique_statistic_counts_singletons() {
        let counts = SampleCounts::from_counts(vec![1, 2, 0, 1, 5]).unwrap();
        assert_eq!(paninski_unique_statistic(&counts), 2);
    }

    #[test]
    fn rejects_k_not_one() {
        let d = Distribution::uniform(10).unwrap();
        let t = CollisionUniformityTester::default();
        let mut rng = PortableRng::seed_from(17);
        let mut o = DistOracle::new(d);
        assert!(t.test(&mut o, 2, 0.3, &mut rng).is_err());
    }

    #[test]
    fn tiny_sample_accepts_by_convention() {
        let counts = SampleCounts::from_counts(vec![1, 0]).unwrap();
        assert!(CollisionUniformityTester::decide(&counts, 0.5).accepted());
    }
}
