//! Succinct piecewise-constant (k-histogram) representations.
//!
//! A `KHistogram` stores a [`Partition`] together with the constant *level*
//! (per-element mass) on each interval. This is the object the Learner of
//! Lemma 3.5 outputs — a `K`-flat hypothesis `D̂` — and the object the Check
//! step compares against the class `H_k`.

use crate::dist::{Distribution, MASS_TOLERANCE};
use crate::error::HistoError;
use crate::interval::Partition;
use crate::Result;

/// A piecewise-constant distribution over `\[n\]`: constant level `levels\[j\]`
/// on interval `j` of `partition`.
///
/// Invariant: levels are finite and non-negative, and
/// `Σ_j levels\[j\] * |I_j| = 1` within [`MASS_TOLERANCE`].
#[derive(Debug, Clone, PartialEq)]
pub struct KHistogram {
    partition: Partition,
    levels: Vec<f64>,
}

impl KHistogram {
    /// Builds a k-histogram from a partition and per-interval levels
    /// (per-element masses).
    ///
    /// # Errors
    ///
    /// Returns [`HistoError::InvalidParameter`] if the number of levels does
    /// not match the partition, [`HistoError::InvalidMass`] for bad levels,
    /// or [`HistoError::NotNormalized`] if masses do not sum to 1.
    pub fn new(partition: Partition, levels: Vec<f64>) -> Result<Self> {
        if levels.len() != partition.len() {
            return Err(HistoError::InvalidParameter {
                name: "levels",
                reason: format!("{} levels for {} intervals", levels.len(), partition.len()),
            });
        }
        for (index, &value) in levels.iter().enumerate() {
            if !value.is_finite() || value < 0.0 {
                return Err(HistoError::InvalidMass { index, value });
            }
        }
        let total: f64 = levels
            .iter()
            .zip(partition.intervals())
            .map(|(&lv, iv)| lv * iv.len() as f64)
            .sum();
        if (total - 1.0).abs() > MASS_TOLERANCE {
            return Err(HistoError::NotNormalized { total });
        }
        Ok(Self { partition, levels })
    }

    /// Builds a k-histogram from per-interval *masses* (each spread
    /// uniformly inside its interval).
    ///
    /// # Errors
    ///
    /// Same conditions as [`KHistogram::new`].
    pub fn from_interval_masses(partition: Partition, masses: Vec<f64>) -> Result<Self> {
        if masses.len() != partition.len() {
            return Err(HistoError::InvalidParameter {
                name: "masses",
                reason: format!("{} masses for {} intervals", masses.len(), partition.len()),
            });
        }
        let levels = masses
            .iter()
            .zip(partition.intervals())
            .map(|(&m, iv)| m / iv.len() as f64)
            .collect();
        Self::new(partition, levels)
    }

    /// The flattening of `d` over `partition` as a succinct histogram.
    ///
    /// # Errors
    ///
    /// Returns [`HistoError::DomainMismatch`] on domain-size mismatch.
    pub fn flattening_of(d: &Distribution, partition: &Partition) -> Result<Self> {
        if d.n() != partition.n() {
            return Err(HistoError::DomainMismatch {
                left: d.n(),
                right: partition.n(),
            });
        }
        let masses = partition
            .intervals()
            .iter()
            .map(|iv| d.interval_mass(iv))
            .collect();
        Self::from_interval_masses(partition.clone(), masses)
    }

    /// Extracts the minimal succinct representation from a dense
    /// distribution (merging equal adjacent values).
    ///
    /// # Errors
    ///
    /// Propagates construction errors (none expected for a valid input).
    pub fn from_distribution(d: &Distribution) -> Result<Self> {
        let mut starts = vec![0usize];
        let mut levels = vec![d.mass(0)];
        for i in 1..d.n() {
            if d.mass(i) != d.mass(i - 1) {
                starts.push(i);
                levels.push(d.mass(i));
            }
        }
        let partition = Partition::from_starts(d.n(), &starts)?;
        Self::new(partition, levels)
    }

    /// Domain size.
    pub fn n(&self) -> usize {
        self.partition.n()
    }

    /// Number of pieces in this representation (not necessarily minimal:
    /// adjacent intervals may share a level).
    pub fn num_pieces(&self) -> usize {
        self.partition.len()
    }

    /// Minimal number of pieces after merging equal adjacent levels — the
    /// smallest `k` with `self ∈ H_k`.
    pub fn minimal_pieces(&self) -> usize {
        1 + self
            .levels
            .windows(2)
            .filter(|w| (w[0] - w[1]).abs() > 0.0)
            .count()
    }

    /// The underlying partition.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// Per-interval levels (per-element masses).
    pub fn levels(&self) -> &[f64] {
        &self.levels
    }

    /// Mass of domain element `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n`.
    pub fn mass(&self, i: usize) -> f64 {
        self.levels[self.partition.locate(i)]
    }

    /// Total mass of interval `j` of the partition.
    pub fn interval_mass(&self, j: usize) -> f64 {
        self.levels[j] * self.partition.interval(j).len() as f64
    }

    /// Expands to a dense [`Distribution`].
    ///
    /// # Errors
    ///
    /// Propagates validation errors (possible only through fp drift; the
    /// constructor tolerance makes this effectively infallible).
    pub fn to_distribution(&self) -> Result<Distribution> {
        let mut pmf = vec![0.0; self.n()];
        for (j, iv) in self.partition.intervals().iter().enumerate() {
            for i in iv.indices() {
                pmf[i] = self.levels[j];
            }
        }
        Distribution::new(pmf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::Partition;

    fn simple() -> KHistogram {
        let p = Partition::from_starts(10, &[0, 4, 7]).unwrap();
        // masses 0.4, 0.3, 0.3 over widths 4, 3, 3
        KHistogram::from_interval_masses(p, vec![0.4, 0.3, 0.3]).unwrap()
    }

    #[test]
    fn construction_validates() {
        let p = Partition::from_starts(4, &[0, 2]).unwrap();
        assert!(KHistogram::new(p.clone(), vec![0.25, 0.25]).is_ok());
        assert!(KHistogram::new(p.clone(), vec![0.25]).is_err());
        assert!(KHistogram::new(p.clone(), vec![-0.1, 0.6]).is_err());
        assert!(KHistogram::new(p, vec![0.4, 0.4]).is_err()); // sums to 1.6
    }

    #[test]
    fn mass_lookup_matches_dense() {
        let h = simple();
        let d = h.to_distribution().unwrap();
        for i in 0..10 {
            assert!((h.mass(i) - d.mass(i)).abs() < 1e-12);
        }
        assert!((h.mass(0) - 0.1).abs() < 1e-12);
        assert!((h.mass(9) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn interval_masses_round_trip() {
        let h = simple();
        assert!((h.interval_mass(0) - 0.4).abs() < 1e-12);
        assert!((h.interval_mass(1) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn from_distribution_is_minimal() {
        let d = Distribution::new(vec![0.1, 0.1, 0.3, 0.3, 0.2]).unwrap();
        let h = KHistogram::from_distribution(&d).unwrap();
        assert_eq!(h.num_pieces(), 3);
        assert_eq!(h.minimal_pieces(), 3);
        let back = h.to_distribution().unwrap();
        assert_eq!(back, d);
    }

    #[test]
    fn minimal_pieces_merges_equal_levels() {
        let p = Partition::from_starts(4, &[0, 2]).unwrap();
        let h = KHistogram::new(p, vec![0.25, 0.25]).unwrap();
        assert_eq!(h.num_pieces(), 2);
        assert_eq!(h.minimal_pieces(), 1);
    }

    #[test]
    fn flattening_preserves_interval_masses() {
        let d = Distribution::from_weights(vec![3.0, 1.0, 4.0, 1.0, 5.0, 9.0]).unwrap();
        let p = Partition::from_starts(6, &[0, 2, 4]).unwrap();
        let h = KHistogram::flattening_of(&d, &p).unwrap();
        for (j, iv) in p.intervals().iter().enumerate() {
            assert!((h.interval_mass(j) - d.interval_mass(iv)).abs() < 1e-12);
        }
        // Flattening agrees with Distribution::flatten.
        let dense = h.to_distribution().unwrap();
        let direct = d.flatten(&p).unwrap();
        for i in 0..6 {
            assert!((dense.mass(i) - direct.mass(i)).abs() < 1e-12);
        }
    }
}
