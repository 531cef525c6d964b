//! k-modal distributions: mode counting and `ℓ1` regression onto monotone /
//! k-modal shapes.
//!
//! Section 1.2 of the paper remarks that the lower bound of Theorem 1.2
//! extends to *k-modal* distributions — those whose pmf changes direction
//! ("up and down or down and up") at most `k` times. Experiment T11
//! validates that remark empirically: members of the Paninski family have
//! `~n/2` direction changes and are far (as functions) from every k-modal
//! shape. This module supplies the exact machinery:
//!
//! - [`direction_changes`] — counting monotonicity reversals, ignoring
//!   flat runs.
//! - [`isotonic_l1`] — optimal `ℓ1` isotonic (non-decreasing) regression via
//!   the pool-adjacent-violators algorithm with median blocks.
//! - [`min_l1_to_kmodal`] — exact brute-force minimal `ℓ1` distance to any
//!   function with at most `k` direction changes (small inputs only).

use crate::error::HistoError;
use crate::Result;

/// Number of direction changes of the sequence: transitions from a strictly
/// rising stretch to a strictly falling one or vice versa, with flat runs
/// ignored. A monotone (or constant) sequence has 0; a unimodal "up then
/// down" sequence has 1.
pub fn direction_changes(values: &[f64]) -> usize {
    let mut changes = 0usize;
    let mut last_dir = 0i8; // -1 falling, +1 rising, 0 unknown yet
    for w in values.windows(2) {
        let dir = match w[1].partial_cmp(&w[0]) {
            Some(std::cmp::Ordering::Greater) => 1i8,
            Some(std::cmp::Ordering::Less) => -1i8,
            _ => 0i8,
        };
        if dir == 0 {
            continue;
        }
        if last_dir != 0 && dir != last_dir {
            changes += 1;
        }
        last_dir = dir;
    }
    changes
}

/// Optimal `ℓ1` isotonic regression: the non-decreasing sequence `g`
/// minimizing `Σᵢ |values\[i\] − g\[i\]|`, returned together with its cost.
///
/// Pool-adjacent-violators with per-block medians: maintain blocks, each
/// holding the multiset of its values and fitted to the block median; merge
/// adjacent blocks while their fitted values violate monotonicity. This is
/// the classical exact algorithm for `ℓ1` isotonic regression.
pub fn isotonic_l1(values: &[f64]) -> (Vec<f64>, f64) {
    #[derive(Clone)]
    struct PavaBlock {
        sorted: Vec<f64>, // values of the block, sorted
        len: usize,
    }
    impl PavaBlock {
        fn median(&self) -> f64 {
            self.sorted[(self.len - 1) / 2]
        }
        fn cost(&self) -> f64 {
            let m = self.median();
            self.sorted.iter().map(|&v| (v - m).abs()).sum()
        }
        fn merge(&mut self, other: &PavaBlock) {
            let mut merged = Vec::with_capacity(self.len + other.len);
            let (mut i, mut j) = (0, 0);
            while i < self.len && j < other.len {
                if self.sorted[i] <= other.sorted[j] {
                    merged.push(self.sorted[i]);
                    i += 1;
                } else {
                    merged.push(other.sorted[j]);
                    j += 1;
                }
            }
            merged.extend_from_slice(&self.sorted[i..]);
            merged.extend_from_slice(&other.sorted[j..]);
            self.len += other.len;
            self.sorted = merged;
        }
    }

    let mut blocks: Vec<PavaBlock> = Vec::with_capacity(values.len());
    for &v in values {
        blocks.push(PavaBlock {
            sorted: vec![v],
            len: 1,
        });
        // Merge while monotonicity is violated.
        while blocks.len() >= 2 {
            let last = blocks.len() - 1;
            if blocks[last - 1].median() > blocks[last].median() {
                let top = blocks.pop().expect("len >= 2");
                blocks.last_mut().expect("len >= 1").merge(&top);
            } else {
                break;
            }
        }
    }
    let mut fitted = Vec::with_capacity(values.len());
    let mut cost = 0.0;
    for b in &blocks {
        let m = b.median();
        cost += b.cost();
        fitted.extend(std::iter::repeat(m).take(b.len));
    }
    (fitted, cost)
}

/// Optimal `ℓ1` antitonic (non-increasing) regression, by reversing.
pub fn antitonic_l1(values: &[f64]) -> (Vec<f64>, f64) {
    let rev: Vec<f64> = values.iter().rev().copied().collect();
    let (mut fit, cost) = isotonic_l1(&rev);
    fit.reverse();
    (fit, cost)
}

/// Exact minimal `ℓ1` distance from `values` to any *function* with at most
/// `k` direction changes, by dynamic programming over segment boundaries
/// and alternating orientations, with optimal monotone fits per segment.
///
/// A k-direction-change function is a concatenation of `k+1` monotone
/// stretches of alternating orientation (no continuity constraint across
/// boundaries). Since `H`-style normalization is not imposed, half this
/// value lower-bounds the TV distance to k-modal *distributions*.
///
/// Cost is `O(k · n³ log n)` — use on small inputs (tests, experiment T11).
///
/// # Errors
///
/// Returns [`HistoError::InvalidParameter`] on empty input.
pub fn min_l1_to_kmodal(values: &[f64], k: usize) -> Result<f64> {
    if values.is_empty() {
        return Err(HistoError::InvalidParameter {
            name: "values",
            reason: "empty input".into(),
        });
    }
    let n = values.len();
    // seg_iso[a][b], seg_anti[a][b]: optimal monotone cost on values[a..=b].
    let mut seg_iso = vec![vec![0.0_f64; n]; n];
    let mut seg_anti = vec![vec![0.0_f64; n]; n];
    for a in 0..n {
        for b in a..n {
            seg_iso[a][b] = isotonic_l1(&values[a..=b]).1;
            seg_anti[a][b] = antitonic_l1(&values[a..=b]).1;
        }
    }
    // dp[s][e][dir]: best cost covering 0..=e with s+1 monotone segments,
    // the last having orientation dir (0 = iso, 1 = anti). Orientations
    // must alternate.
    let segs = k + 1;
    let inf = f64::INFINITY;
    let mut dp = vec![[inf; 2]; n];
    for e in 0..n {
        dp[e][0] = seg_iso[0][e];
        dp[e][1] = seg_anti[0][e];
    }
    let mut best = dp[n - 1][0].min(dp[n - 1][1]);
    for _s in 1..segs {
        let mut next = vec![[inf; 2]; n];
        for e in 0..n {
            for start in 1..=e {
                // last segment start..=e, previous orientation must differ
                let iso_cand = dp[start - 1][1] + seg_iso[start][e];
                if iso_cand < next[e][0] {
                    next[e][0] = iso_cand;
                }
                let anti_cand = dp[start - 1][0] + seg_anti[start][e];
                if anti_cand < next[e][1] {
                    next[e][1] = anti_cand;
                }
            }
        }
        dp = next;
        best = best.min(dp[n - 1][0].min(dp[n - 1][1]));
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direction_change_counting() {
        assert_eq!(direction_changes(&[1.0, 2.0, 3.0]), 0);
        assert_eq!(direction_changes(&[3.0, 2.0, 1.0]), 0);
        assert_eq!(direction_changes(&[1.0, 1.0, 1.0]), 0);
        assert_eq!(direction_changes(&[1.0, 3.0, 2.0]), 1);
        assert_eq!(direction_changes(&[1.0, 3.0, 3.0, 2.0]), 1); // flat run ignored
        assert_eq!(direction_changes(&[1.0, 3.0, 2.0, 4.0, 1.0]), 3);
        assert_eq!(direction_changes(&[1.0]), 0);
        assert_eq!(direction_changes(&[]), 0);
    }

    #[test]
    fn isotonic_on_sorted_input_is_free() {
        let v = [1.0, 2.0, 2.0, 5.0];
        let (fit, cost) = isotonic_l1(&v);
        assert_eq!(cost, 0.0);
        assert_eq!(fit, v.to_vec());
    }

    #[test]
    fn isotonic_pools_violators() {
        // [3, 1]: optimal non-decreasing fit is [m, m] with m the median of
        // {1, 3}; cost |3-m| + |1-m| = 2 for any m in [1,3].
        let (fit, cost) = isotonic_l1(&[3.0, 1.0]);
        assert!((cost - 2.0).abs() < 1e-12);
        assert!(fit[0] <= fit[1] + 1e-15);
    }

    #[test]
    fn isotonic_matches_bruteforce_grid() {
        // Brute force over a fine level grid on a small instance.
        let v = [2.0, 0.0, 3.0, 1.0, 1.0];
        let (_, cost) = isotonic_l1(&v);
        let grid: Vec<f64> = (0..=30).map(|i| i as f64 * 0.1).collect();
        let mut best = f64::INFINITY;
        // enumerate non-decreasing g over grid by DP
        let mut dp = vec![f64::INFINITY; grid.len()];
        for (gi, &g) in grid.iter().enumerate() {
            dp[gi] = (v[0] - g).abs();
        }
        for &x in &v[1..] {
            let mut next = vec![f64::INFINITY; grid.len()];
            let mut run_min = f64::INFINITY;
            for (gi, &g) in grid.iter().enumerate() {
                run_min = run_min.min(dp[gi]);
                next[gi] = run_min + (x - g).abs();
            }
            dp = next;
        }
        for &c in &dp {
            best = best.min(c);
        }
        assert!((cost - best).abs() < 1e-9, "pava {cost} vs grid {best}");
    }

    #[test]
    fn isotonic_fit_is_monotone() {
        let v = [5.0, 1.0, 4.0, 2.0, 8.0, 0.0];
        let (fit, _) = isotonic_l1(&v);
        assert!(fit.windows(2).all(|w| w[0] <= w[1] + 1e-15));
        let (afit, _) = antitonic_l1(&v);
        assert!(afit.windows(2).all(|w| w[0] + 1e-15 >= w[1]));
    }

    #[test]
    fn kmodal_distance_zero_for_conforming_shapes() {
        // Unimodal data is free for k >= 1.
        let v = [1.0, 2.0, 5.0, 3.0, 1.0];
        assert!(min_l1_to_kmodal(&v, 1).unwrap() < 1e-12);
        // Monotone data is free even for k = 0.
        let m = [1.0, 2.0, 3.0];
        assert!(min_l1_to_kmodal(&m, 0).unwrap() < 1e-12);
    }

    #[test]
    fn kmodal_distance_positive_for_zigzag() {
        let v = [1.0, 3.0, 1.0, 3.0, 1.0, 3.0];
        let d0 = min_l1_to_kmodal(&v, 0).unwrap();
        let d1 = min_l1_to_kmodal(&v, 1).unwrap();
        let d4 = min_l1_to_kmodal(&v, 4).unwrap();
        assert!(d0 >= d1 && d1 > 0.0);
        assert!(d4 < 1e-12, "the zigzag has 4 direction changes: {d4}");
        assert!(min_l1_to_kmodal(&v, 3).unwrap() > 0.0);
    }

    #[test]
    fn kmodal_distance_monotone_in_k() {
        let v = [2.0, 0.0, 3.0, 1.0, 4.0, 0.0, 2.0];
        let mut prev = f64::INFINITY;
        for k in 0..6 {
            let d = min_l1_to_kmodal(&v, k).unwrap();
            assert!(d <= prev + 1e-12);
            prev = d;
        }
    }

    #[test]
    fn kmodal_errors_on_empty() {
        assert!(min_l1_to_kmodal(&[], 1).is_err());
    }
}
