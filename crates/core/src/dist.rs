//! Validated probability distributions over the ordered domain `\[n\]`.

use crate::error::HistoError;
use crate::interval::{Interval, Partition};
use crate::Result;

/// Tolerance used when validating that masses sum to 1 and when comparing
/// probability totals.
pub const MASS_TOLERANCE: f64 = 1e-9;

/// A probability distribution over `\[n\]`, stored densely and 0-indexed.
///
/// Invariants enforced at construction: domain non-empty, every mass finite
/// and non-negative, total mass within [`MASS_TOLERANCE`] of 1.
#[derive(Debug, Clone, PartialEq)]
pub struct Distribution {
    pmf: Vec<f64>,
}

impl Distribution {
    /// Builds a distribution from explicit masses.
    ///
    /// # Errors
    ///
    /// Returns [`HistoError::EmptyDomain`], [`HistoError::InvalidMass`], or
    /// [`HistoError::NotNormalized`] when the invariants fail.
    pub fn new(pmf: Vec<f64>) -> Result<Self> {
        if pmf.is_empty() {
            return Err(HistoError::EmptyDomain);
        }
        for (index, &value) in pmf.iter().enumerate() {
            if !value.is_finite() || value < 0.0 {
                return Err(HistoError::InvalidMass { index, value });
            }
        }
        let total: f64 = pmf.iter().sum();
        if (total - 1.0).abs() > MASS_TOLERANCE {
            return Err(HistoError::NotNormalized { total });
        }
        Ok(Self { pmf })
    }

    /// Builds a distribution by normalizing arbitrary non-negative weights.
    ///
    /// # Errors
    ///
    /// Returns [`HistoError::EmptyDomain`], [`HistoError::InvalidMass`] for
    /// negative/non-finite weights, or [`HistoError::NotNormalized`] if all
    /// weights are zero.
    pub fn from_weights(weights: Vec<f64>) -> Result<Self> {
        if weights.is_empty() {
            return Err(HistoError::EmptyDomain);
        }
        for (index, &value) in weights.iter().enumerate() {
            if !value.is_finite() || value < 0.0 {
                return Err(HistoError::InvalidMass { index, value });
            }
        }
        let total: f64 = weights.iter().sum();
        if total <= 0.0 {
            return Err(HistoError::NotNormalized { total });
        }
        Ok(Self {
            pmf: weights.into_iter().map(|w| w / total).collect(),
        })
    }

    /// The uniform distribution over `\[n\]`.
    ///
    /// # Errors
    ///
    /// Returns [`HistoError::EmptyDomain`] if `n == 0`.
    pub fn uniform(n: usize) -> Result<Self> {
        if n == 0 {
            return Err(HistoError::EmptyDomain);
        }
        Ok(Self {
            pmf: vec![1.0 / n as f64; n],
        })
    }

    /// The point mass at `i` over `\[n\]`.
    ///
    /// # Errors
    ///
    /// Returns [`HistoError::EmptyDomain`] if `n == 0`, or
    /// [`HistoError::InvalidParameter`] if `i >= n`.
    pub fn point_mass(n: usize, i: usize) -> Result<Self> {
        if n == 0 {
            return Err(HistoError::EmptyDomain);
        }
        if i >= n {
            return Err(HistoError::InvalidParameter {
                name: "i",
                reason: format!("point {i} outside domain 0..{n}"),
            });
        }
        let mut pmf = vec![0.0; n];
        pmf[i] = 1.0;
        Ok(Self { pmf })
    }

    /// Domain size `n`.
    pub fn n(&self) -> usize {
        self.pmf.len()
    }

    /// Mass of element `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n`.
    pub fn mass(&self, i: usize) -> f64 {
        self.pmf[i]
    }

    /// The raw pmf slice.
    pub fn pmf(&self) -> &[f64] {
        &self.pmf
    }

    /// Total mass of an interval, `D(I)`.
    pub fn interval_mass(&self, iv: &Interval) -> f64 {
        self.pmf[iv.lo()..iv.hi()].iter().sum()
    }

    /// Support size `|{i : D(i) > 0}|`.
    pub fn support_size(&self) -> usize {
        self.pmf.iter().filter(|&&p| p > 0.0).count()
    }

    /// Smallest non-zero mass, or `None` for the (impossible after
    /// validation) all-zero pmf.
    pub fn min_nonzero_mass(&self) -> Option<f64> {
        self.pmf
            .iter()
            .copied()
            .filter(|&p| p > 0.0)
            .fold(None, |acc, p| Some(acc.map_or(p, |a: f64| a.min(p))))
    }

    /// Number of *breakpoints*: indices `i` with `D(i) != D(i+1)` (paper,
    /// Section 3.2). A distribution with `b` breakpoints is exactly a
    /// `(b+1)`-histogram and no fewer.
    pub fn breakpoint_count(&self) -> usize {
        self.pmf.windows(2).filter(|w| w[0] != w[1]).count()
    }

    /// The minimal `k` such that `self` is a `k`-histogram.
    pub fn num_pieces(&self) -> usize {
        self.breakpoint_count() + 1
    }

    /// Whether `self` belongs to the class `H_k`.
    pub fn is_k_histogram(&self, k: usize) -> bool {
        k >= 1 && self.num_pieces() <= k
    }

    /// Flattening over a partition: replaces the conditional distribution on
    /// each interval `I` by the uniform spread `D(I)/|I|`. This is the `D̃`
    /// operation of Section 3.2 with `J = ∅`.
    pub fn flatten(&self, partition: &Partition) -> Result<Distribution> {
        self.flatten_except(partition, &[])
    }

    /// The paper's `D̃^J` operator (Section 3.2, "a learning lemma"): for
    /// intervals in `J` (given by their indices in `partition`) keep `D`
    /// pointwise; elsewhere replace by the flattened value `D(I)/|I|`.
    ///
    /// # Errors
    ///
    /// Returns [`HistoError::DomainMismatch`] if the partition covers a
    /// different domain, or [`HistoError::InvalidParameter`] if any index in
    /// `keep` is out of range.
    pub fn flatten_except(&self, partition: &Partition, keep: &[usize]) -> Result<Distribution> {
        if partition.n() != self.n() {
            return Err(HistoError::DomainMismatch {
                left: self.n(),
                right: partition.n(),
            });
        }
        let mut kept = vec![false; partition.len()];
        for &j in keep {
            if j >= partition.len() {
                return Err(HistoError::InvalidParameter {
                    name: "keep",
                    reason: format!("interval index {j} out of range 0..{}", partition.len()),
                });
            }
            kept[j] = true;
        }
        let mut pmf = self.pmf.clone();
        for (j, iv) in partition.intervals().iter().enumerate() {
            if kept[j] {
                continue;
            }
            let avg = self.interval_mass(iv) / iv.len() as f64;
            for i in iv.indices() {
                pmf[i] = avg;
            }
        }
        // Flattening preserves total mass exactly up to fp error; renormalize
        // defensively through the validating constructor.
        Distribution::new(pmf)
    }

    /// Cumulative distribution values `F(i) = D(0) + … + D(i)`, length `n`.
    pub fn cdf(&self) -> Vec<f64> {
        let mut acc = 0.0;
        self.pmf
            .iter()
            .map(|&p| {
                acc += p;
                acc
            })
            .collect()
    }

    /// Applies a permutation to the domain: the result places mass
    /// `D(i)` at position `sigma\[i\]`. This is the `D ∘ σ⁻¹` lifting used by
    /// the Section 4.2 reduction.
    ///
    /// # Errors
    ///
    /// Returns [`HistoError::InvalidParameter`] if `sigma` is not a
    /// permutation of `0..n`.
    pub fn permute(&self, sigma: &[usize]) -> Result<Distribution> {
        if sigma.len() != self.n() {
            return Err(HistoError::DomainMismatch {
                left: self.n(),
                right: sigma.len(),
            });
        }
        let mut pmf = vec![f64::NAN; self.n()];
        for (i, &target) in sigma.iter().enumerate() {
            if target >= self.n() || !pmf[target].is_nan() {
                return Err(HistoError::InvalidParameter {
                    name: "sigma",
                    reason: "not a permutation of the domain".into(),
                });
            }
            pmf[target] = self.pmf[i];
        }
        Distribution::new(pmf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates() {
        assert!(Distribution::new(vec![]).is_err());
        assert!(Distribution::new(vec![0.5, 0.6]).is_err());
        assert!(Distribution::new(vec![0.5, -0.5, 1.0]).is_err());
        assert!(Distribution::new(vec![0.5, f64::NAN]).is_err());
        assert!(Distribution::new(vec![0.25; 4]).is_ok());
    }

    #[test]
    fn from_weights_normalizes() {
        let d = Distribution::from_weights(vec![2.0, 2.0, 4.0]).unwrap();
        assert!((d.mass(0) - 0.25).abs() < 1e-12);
        assert!((d.mass(2) - 0.5).abs() < 1e-12);
        assert!(Distribution::from_weights(vec![0.0, 0.0]).is_err());
    }

    #[test]
    fn uniform_and_point_mass() {
        let u = Distribution::uniform(5).unwrap();
        assert_eq!(u.n(), 5);
        assert_eq!(u.num_pieces(), 1);
        assert!(u.is_k_histogram(1));

        let p = Distribution::point_mass(5, 2).unwrap();
        assert_eq!(p.support_size(), 1);
        assert_eq!(p.num_pieces(), 3); // 0...0 1 0...0 has two breakpoints
        assert!(Distribution::point_mass(5, 5).is_err());
    }

    #[test]
    fn breakpoints_and_pieces() {
        let d = Distribution::new(vec![0.1, 0.1, 0.3, 0.3, 0.2]).unwrap();
        assert_eq!(d.breakpoint_count(), 2);
        assert_eq!(d.num_pieces(), 3);
        assert!(d.is_k_histogram(3));
        assert!(!d.is_k_histogram(2));
        assert!(!d.is_k_histogram(0));
    }

    #[test]
    fn interval_mass() {
        let d = Distribution::new(vec![0.1, 0.2, 0.3, 0.4]).unwrap();
        let iv = Interval::new(1, 3).unwrap();
        assert!((d.interval_mass(&iv) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn flatten_makes_partition_flat() {
        let d = Distribution::new(vec![0.1, 0.3, 0.2, 0.2, 0.2]).unwrap();
        let p = Partition::from_starts(5, &[0, 2]).unwrap();
        let f = d.flatten(&p).unwrap();
        assert!((f.mass(0) - 0.2).abs() < 1e-12);
        assert!((f.mass(1) - 0.2).abs() < 1e-12);
        assert!((f.mass(2) - 0.2).abs() < 1e-12);
        // Flat over each interval => at most |P| pieces.
        assert!(f.num_pieces() <= p.len());
    }

    #[test]
    fn flatten_except_keeps_chosen_intervals() {
        let d = Distribution::new(vec![0.1, 0.3, 0.2, 0.2, 0.2]).unwrap();
        let p = Partition::from_starts(5, &[0, 2]).unwrap();
        let f = d.flatten_except(&p, &[0]).unwrap();
        // Interval 0 kept pointwise:
        assert_eq!(f.mass(0), 0.1);
        assert_eq!(f.mass(1), 0.3);
        // Interval 1 flattened:
        assert!((f.mass(2) - 0.2).abs() < 1e-12);
        assert!(d.flatten_except(&p, &[5]).is_err());
    }

    #[test]
    fn flatten_preserves_interval_masses() {
        let d = Distribution::from_weights(vec![1.0, 5.0, 2.0, 2.0, 7.0, 3.0]).unwrap();
        let p = Partition::from_starts(6, &[0, 3, 5]).unwrap();
        let f = d.flatten(&p).unwrap();
        for iv in p.intervals() {
            assert!((d.interval_mass(iv) - f.interval_mass(iv)).abs() < 1e-12);
        }
    }

    #[test]
    fn cdf_is_monotone_ending_at_one() {
        let d = Distribution::new(vec![0.1, 0.4, 0.2, 0.3]).unwrap();
        let cdf = d.cdf();
        assert!(cdf.windows(2).all(|w| w[1] >= w[0] - 1e-15));
        assert!((cdf.last().unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn permute_moves_mass() {
        let d = Distribution::new(vec![0.7, 0.2, 0.1]).unwrap();
        // sigma maps 0->2, 1->0, 2->1
        let p = d.permute(&[2, 0, 1]).unwrap();
        assert_eq!(p.mass(2), 0.7);
        assert_eq!(p.mass(0), 0.2);
        assert_eq!(p.mass(1), 0.1);
        assert!(d.permute(&[0, 0, 1]).is_err());
        assert!(d.permute(&[0, 1]).is_err());
    }

    #[test]
    fn min_nonzero_mass() {
        let d = Distribution::new(vec![0.0, 0.4, 0.6]).unwrap();
        assert_eq!(d.min_nonzero_mass(), Some(0.4));
    }
}

#[cfg(test)]
mod doc_shape_tests {
    use super::*;

    /// The quickstart shapes from the crate docs, kept compiling.
    #[test]
    fn readme_shapes() {
        let d = Distribution::from_weights(vec![2.0, 2.0, 6.0]).unwrap();
        assert_eq!(d.num_pieces(), 2);
        assert!(d.is_k_histogram(2));
        let cdf = d.cdf();
        assert!((cdf[2] - 1.0).abs() < 1e-12);
    }
}
