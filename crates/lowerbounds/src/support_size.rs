//! The `SuppSize_m` promise problem (\[VV10\]; Section 4.2 of the paper).
//!
//! Given samples from `D ∈ Δ(\[m\])` with the promise that every non-zero
//! mass is at least `1/m`, distinguish:
//!
//! - **(low)**  `supp(D) <= m/3`, from
//! - **(high)** `supp(D) >= 7m/8`.
//!
//! [VV10, Theorem 1] shows this requires `Ω(m/log m)` samples. The paper's
//! reduction turns any `H_k` tester into a solver for this problem, which
//! is how the `Ω(k/log k)` term of Theorem 1.2 is obtained. This module
//! provides explicit instances meeting the promise, with knobs for support
//! size and mass profile, used to exercise the reduction end-to-end
//! (experiment T5).

use histo_core::{Distribution, HistoError};
use histo_stats::PortableRng;

/// An instance of `SuppSize_m` with its ground-truth label.
#[derive(Debug, Clone)]
pub struct SuppSizeInstance {
    /// The distribution over `\[m\]`.
    pub dist: Distribution,
    /// Ground truth: `true` for the low-support case (`supp <= m/3`).
    pub is_low: bool,
    /// The instance's support size.
    pub support: usize,
}

impl SuppSizeInstance {
    /// The canonical low instance: uniform over the first `⌊m/3⌋` elements.
    ///
    /// # Errors
    ///
    /// Returns [`HistoError::InvalidParameter`] for `m < 8` (both regimes
    /// must be non-trivial).
    pub fn low(m: usize) -> Result<Self, HistoError> {
        Self::with_support(m, m / 3, true)
    }

    /// The canonical high instance: uniform over the first `⌈7m/8⌉`
    /// elements.
    ///
    /// # Errors
    ///
    /// As for [`SuppSizeInstance::low`].
    pub fn high(m: usize) -> Result<Self, HistoError> {
        Self::with_support(m, (7 * m).div_ceil(8), false)
    }

    fn with_support(m: usize, support: usize, is_low: bool) -> Result<Self, HistoError> {
        if m < 8 || support == 0 || support > m {
            return Err(HistoError::InvalidParameter {
                name: "m",
                reason: format!("need m >= 8 and 1 <= support <= m, got m={m}, s={support}"),
            });
        }
        let mut pmf = vec![0.0; m];
        for p in pmf.iter_mut().take(support) {
            *p = 1.0 / support as f64;
        }
        let dist = Distribution::new(pmf)?;
        debug_assert!(dist.min_nonzero_mass().unwrap() >= 1.0 / m as f64 - 1e-12);
        Ok(Self {
            dist,
            is_low,
            support,
        })
    }

    /// A randomized instance: random support set of the target size and a
    /// random mass profile meeting the `1/m` promise (each supported
    /// element gets `1/m` plus a random share of the remainder).
    ///
    /// # Errors
    ///
    /// As for [`SuppSizeInstance::low`].
    pub fn random(m: usize, low: bool, rng: &mut PortableRng) -> Result<Self, HistoError> {
        let support = if low { m / 3 } else { (7 * m).div_ceil(8) };
        if m < 8 || support == 0 {
            return Err(HistoError::InvalidParameter {
                name: "m",
                reason: format!("need m >= 8, got {m}"),
            });
        }
        let mut elements: Vec<usize> = (0..m).collect();
        rng.shuffle(&mut elements);
        let chosen = &elements[..support];
        // Base 1/m each; distribute the remaining 1 - s/m proportionally to
        // exponential weights.
        let weights: Vec<f64> = (0..support)
            .map(|_| -(1.0 - rng.f64()).ln().max(1e-12))
            .collect();
        let wtotal: f64 = weights.iter().sum();
        let leftover = 1.0 - support as f64 / m as f64;
        let mut pmf = vec![0.0; m];
        for (idx, &e) in chosen.iter().enumerate() {
            pmf[e] = 1.0 / m as f64 + leftover * weights[idx] / wtotal;
        }
        let dist = Distribution::new(pmf)?;
        Ok(Self {
            dist,
            is_low: low,
            support,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether the instance satisfies the `1/m` mass promise.
    fn meets_promise(inst: &SuppSizeInstance) -> bool {
        let m = inst.dist.n() as f64;
        inst.dist
            .pmf()
            .iter()
            .all(|&p| p == 0.0 || p >= 1.0 / m - 1e-12)
    }

    #[test]
    fn canonical_instances_meet_promise_and_sizes() {
        for m in [24usize, 100, 999] {
            let low = SuppSizeInstance::low(m).unwrap();
            assert!(low.is_low);
            assert_eq!(low.support, m / 3);
            assert_eq!(low.dist.support_size(), m / 3);
            assert!(meets_promise(&low));

            let high = SuppSizeInstance::high(m).unwrap();
            assert!(!high.is_low);
            assert!(high.support >= (7 * m) / 8);
            assert!(meets_promise(&high));
        }
        assert!(SuppSizeInstance::low(5).is_err());
    }

    #[test]
    fn random_instances_meet_promise() {
        let mut rng = PortableRng::seed_from(17);
        for _ in 0..10 {
            let inst = SuppSizeInstance::random(60, true, &mut rng).unwrap();
            assert_eq!(inst.dist.support_size(), 20);
            assert!(meets_promise(&inst));
            let inst = SuppSizeInstance::random(60, false, &mut rng).unwrap();
            assert!(inst.dist.support_size() >= 53);
            assert!(meets_promise(&inst));
        }
    }

    #[test]
    fn random_supports_differ_between_draws() {
        let mut rng = PortableRng::seed_from(19);
        let a = SuppSizeInstance::random(90, true, &mut rng).unwrap();
        let b = SuppSizeInstance::random(90, true, &mut rng).unwrap();
        assert_ne!(a.dist, b.dist);
    }

    #[test]
    fn gap_between_regimes_is_wide() {
        let m = 120;
        let low = SuppSizeInstance::low(m).unwrap();
        let high = SuppSizeInstance::high(m).unwrap();
        // 7m/8 - m/3 > m/2: the regimes are separated by a constant factor.
        assert!(high.support as f64 / low.support as f64 > 2.0);
    }
}
