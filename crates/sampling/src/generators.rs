//! Workload distribution generators.
//!
//! The experiment suite needs two kinds of instances:
//!
//! - **Completeness instances**: genuine members of `H_k` — random
//!   k-histograms, deterministic staircases, and structured laws that happen
//!   to be piecewise constant.
//! - **Soundness instances**: distributions *certified* to be `ε`-far from
//!   `H_k`. [`sawtooth_perturbation`] generalizes the Paninski construction
//!   (Proposition 4.1) to an arbitrary piecewise-constant base: adjacent
//!   elements inside each constant piece are paired and perturbed to
//!   `(1 ± c)·v`, and the pairing argument of the paper yields the certified
//!   lower bound `d_TV(D', H_k) >= (Σ_p g_p − (k−1)·max_p g_p) / 2`, where
//!   `g_p` is the within-pair gap — every `D* ∈ H_k` is constant across all
//!   but `k−1` of the pairs, and each constant pair contributes at least
//!   `g_p` to `‖D' − D*‖₁`.
//!
//! Plus assorted non-histogram shapes (Zipf, geometric, discretized
//! Gaussian mixtures) for the model-selection experiment (T10).

use histo_core::{Distribution, HistoError, Interval, KHistogram, Partition};
use histo_stats::PortableRng;

/// A generated instance with certified total-variation bounds to the class
/// `H_k` it was generated against.
#[derive(Debug, Clone)]
pub struct FarInstance {
    /// The generated distribution.
    pub dist: Distribution,
    /// Certified lower bound on `d_TV(dist, H_k)`.
    pub tv_to_hk_lower: f64,
    /// Upper bound on `d_TV(dist, H_k)` (the exact distance to the base
    /// histogram the instance was perturbed from).
    pub tv_to_hk_upper: f64,
}

/// Draws a uniformly random partition of `\[n\]` into exactly `k` intervals
/// (uniform over breakpoint sets), then assigns Dirichlet(1,…,1) interval
/// masses.
///
/// # Errors
///
/// Returns [`HistoError::InvalidParameter`] unless `1 <= k <= n`.
pub fn random_k_histogram(
    n: usize,
    k: usize,
    rng: &mut PortableRng,
) -> Result<KHistogram, HistoError> {
    if k == 0 || k > n {
        return Err(HistoError::InvalidParameter {
            name: "k",
            reason: format!("need 1 <= k <= n, got k = {k}, n = {n}"),
        });
    }
    // k - 1 distinct breakpoints among positions 1..n.
    let mut positions: Vec<usize> = (1..n).collect();
    rng.shuffle(&mut positions);
    let mut starts: Vec<usize> = positions.into_iter().take(k - 1).collect();
    starts.push(0);
    starts.sort_unstable();
    let partition = Partition::from_starts(n, &starts)?;
    // Dirichlet(1^k) via normalized exponentials.
    let masses: Vec<f64> = (0..k)
        .map(|_| -(1.0 - rng.f64()).ln().max(1e-300))
        .collect();
    let total: f64 = masses.iter().sum();
    KHistogram::from_interval_masses(partition, masses.into_iter().map(|m| m / total).collect())
}

/// A deterministic "staircase" k-histogram over `\[n\]`: equal-width pieces
/// with linearly increasing masses `∝ 1, 2, …, k`.
///
/// # Errors
///
/// Returns [`HistoError::InvalidParameter`] unless `1 <= k <= n`.
pub fn staircase(n: usize, k: usize) -> Result<KHistogram, HistoError> {
    let partition = Partition::equal_width(n, k)?;
    let masses: Vec<f64> = (1..=k).map(|j| j as f64).collect();
    let total: f64 = masses.iter().sum();
    KHistogram::from_interval_masses(partition, masses.into_iter().map(|m| m / total).collect())
}

/// The Zipf law `D(i) ∝ 1/(i+1)^s` over `\[n\]` — a canonical heavy-tailed,
/// *not* piecewise-constant shape.
///
/// # Errors
///
/// Returns [`HistoError::EmptyDomain`] if `n == 0`, or
/// [`HistoError::InvalidParameter`] for non-finite `s`.
pub fn zipf(n: usize, s: f64) -> Result<Distribution, HistoError> {
    if !s.is_finite() {
        return Err(HistoError::InvalidParameter {
            name: "s",
            reason: "exponent must be finite".into(),
        });
    }
    Distribution::from_weights((0..n).map(|i| 1.0 / ((i + 1) as f64).powf(s)).collect())
}

/// The truncated geometric law `D(i) ∝ r^i` over `\[n\]`, `0 < r < 1`.
///
/// # Errors
///
/// Returns [`HistoError::InvalidParameter`] unless `0 < r < 1`.
pub fn geometric(n: usize, r: f64) -> Result<Distribution, HistoError> {
    if !(0.0 < r && r < 1.0) {
        return Err(HistoError::InvalidParameter {
            name: "r",
            reason: format!("ratio must be in (0,1), got {r}"),
        });
    }
    Distribution::from_weights((0..n).map(|i| r.powi(i as i32)).collect())
}

/// A discretized Gaussian bump over `\[n\]` centered at `mu` (in domain
/// units) with standard deviation `sigma`.
///
/// # Errors
///
/// Returns [`HistoError::InvalidParameter`] for non-positive `sigma`.
pub fn gaussian_bump(n: usize, mu: f64, sigma: f64) -> Result<Distribution, HistoError> {
    if sigma <= 0.0 || !sigma.is_finite() {
        return Err(HistoError::InvalidParameter {
            name: "sigma",
            reason: format!("standard deviation must be positive, got {sigma}"),
        });
    }
    Distribution::from_weights(
        (0..n)
            .map(|i| {
                let z = (i as f64 - mu) / sigma;
                (-0.5 * z * z).exp()
            })
            .collect(),
    )
}

/// The convex mixture `Σ w_j D_j` of distributions over the same domain.
///
/// # Errors
///
/// Returns [`HistoError::InvalidParameter`] on empty input or mismatched
/// lengths, [`HistoError::DomainMismatch`] on differing domains, and
/// propagates weight-validation errors.
pub fn mixture(components: &[(Distribution, f64)]) -> Result<Distribution, HistoError> {
    let Some(((first, _), rest)) = components.split_first() else {
        return Err(HistoError::InvalidParameter {
            name: "components",
            reason: "empty mixture".into(),
        });
    };
    let n = first.n();
    let mut pmf = vec![0.0_f64; n];
    for (d, w) in std::iter::once(&components[0]).chain(rest.iter()) {
        if d.n() != n {
            return Err(HistoError::DomainMismatch {
                left: n,
                right: d.n(),
            });
        }
        if !w.is_finite() || *w < 0.0 {
            return Err(HistoError::InvalidParameter {
                name: "weights",
                reason: format!("mixture weight {w} invalid"),
            });
        }
        for (acc, &p) in pmf.iter_mut().zip(d.pmf()) {
            *acc += w * p;
        }
    }
    Distribution::from_weights(pmf)
}

/// Applies the sawtooth (Paninski-style) perturbation to a piecewise
/// constant base: inside every constant piece, disjoint adjacent pairs
/// `(a, a+1)` are reweighted to `((1 ± c)·v, (1 ∓ c)·v)` with independent
/// random signs. Returns the instance with its certified TV bounds to
/// `H_k` (see module docs for the pairing argument).
///
/// The bound is computed for the `target_k` the instance is meant to fool —
/// typically the number of pieces of `base`, so that the instance is far
/// from the very class that `base` belongs to.
///
/// # Errors
///
/// Returns [`HistoError::InvalidParameter`] unless `0 < amplitude < 1`.
pub fn sawtooth_perturbation(
    base: &KHistogram,
    target_k: usize,
    amplitude: f64,
    rng: &mut PortableRng,
) -> Result<FarInstance, HistoError> {
    if !(0.0 < amplitude && amplitude < 1.0) {
        return Err(HistoError::InvalidParameter {
            name: "amplitude",
            reason: format!("amplitude must be in (0,1), got {amplitude}"),
        });
    }
    let base_dense = base.to_distribution()?;
    let mut pmf = base_dense.pmf().to_vec();
    let mut gaps: Vec<f64> = Vec::new();
    for (j, iv) in base.partition().intervals().iter().enumerate() {
        let v = base.levels()[j];
        if v <= 0.0 {
            continue;
        }
        let mut i = iv.lo();
        while i + 1 < iv.hi() {
            let sign = if rng.bool() { 1.0 } else { -1.0 };
            pmf[i] = (1.0 + sign * amplitude) * v;
            pmf[i + 1] = (1.0 - sign * amplitude) * v;
            gaps.push(2.0 * amplitude * v);
            i += 2;
        }
    }
    let dist = Distribution::new(pmf)?;
    let gap_sum: f64 = gaps.iter().sum();
    let gap_max = gaps.iter().cloned().fold(0.0_f64, f64::max);
    let lower = ((gap_sum - target_k.saturating_sub(1) as f64 * gap_max) / 2.0).max(0.0);
    let upper = histo_core::distance::total_variation(&dist, &base_dense)?;
    Ok(FarInstance {
        dist,
        tv_to_hk_lower: lower,
        tv_to_hk_upper: upper,
    })
}

/// Generates a sawtooth perturbation of the **uniform** base — exactly the
/// Paninski `Q_ε` shape lifted to a `FarInstance` (Proposition 4.1 with
/// `c = 2·amplitude/…`; see `histo-lowerbounds` for the literal `Q_ε`
/// family used in the lower-bound experiments).
///
/// # Errors
///
/// As for [`sawtooth_perturbation`]; also if `n == 0`.
pub fn uniform_sawtooth(
    n: usize,
    target_k: usize,
    amplitude: f64,
    rng: &mut PortableRng,
) -> Result<FarInstance, HistoError> {
    let base = KHistogram::new(Partition::trivial(n)?, vec![1.0 / n as f64])?;
    sawtooth_perturbation(&base, target_k, amplitude, rng)
}

/// Picks the amplitude so that the certified lower bound of a sawtooth over
/// `base` is at least `epsilon`, if possible. Returns `None` when even the
/// maximal amplitude cannot certify `epsilon` (too few pairs vs. `k`).
pub fn amplitude_for_certified_distance(
    base: &KHistogram,
    target_k: usize,
    epsilon: f64,
) -> Option<f64> {
    // With amplitude c: gap_p = 2 c v_p over pairs; lower bound
    // = c (Σ v_p − (k−1) max v_p). Solve for c, cap at 0.999.
    let mut v_sum = 0.0;
    let mut v_max = 0.0_f64;
    for (j, iv) in base.partition().intervals().iter().enumerate() {
        let v = base.levels()[j];
        if v <= 0.0 {
            continue;
        }
        let pairs = iv.len() / 2;
        v_sum += pairs as f64 * v;
        if pairs > 0 {
            v_max = v_max.max(v);
        }
    }
    let denom = v_sum - target_k.saturating_sub(1) as f64 * v_max;
    if denom <= 0.0 {
        return None;
    }
    let c = epsilon / denom;
    (c < 1.0).then_some(c.max(f64::MIN_POSITIVE))
}

/// Splits every element of `d`'s domain into `factor` copies, each carrying
/// `1/factor` of the element's mass — embeds a distribution over `\[n\]` into
/// `[n·factor]` preserving all piecewise structure. Useful for scaling
/// experiments at fixed shape.
///
/// # Errors
///
/// Returns [`HistoError::InvalidParameter`] if `factor == 0`.
pub fn stretch(d: &Distribution, factor: usize) -> Result<Distribution, HistoError> {
    if factor == 0 {
        return Err(HistoError::InvalidParameter {
            name: "factor",
            reason: "factor must be positive".into(),
        });
    }
    let mut pmf = Vec::with_capacity(d.n() * factor);
    for &p in d.pmf() {
        pmf.extend(std::iter::repeat(p / factor as f64).take(factor));
    }
    Distribution::new(pmf)
}

/// Embeds `d` over `\[m\]` into a larger domain `\[n\]` by zero-padding the
/// tail — the "enlarge the domain" step of the Section 4.2 reduction.
///
/// # Errors
///
/// Returns [`HistoError::InvalidParameter`] if `n < d.n()`.
pub fn zero_pad(d: &Distribution, n: usize) -> Result<Distribution, HistoError> {
    if n < d.n() {
        return Err(HistoError::InvalidParameter {
            name: "n",
            reason: format!("cannot shrink domain from {} to {n}", d.n()),
        });
    }
    let mut pmf = d.pmf().to_vec();
    pmf.resize(n, 0.0);
    Distribution::new(pmf)
}

/// Convenience: the interval covering the whole domain of `d`.
pub fn full_domain(d: &Distribution) -> Interval {
    Interval::new(0, d.n()).expect("non-empty domain")
}

#[cfg(test)]
mod tests {
    use super::*;
    use histo_core::dp::distance_to_hk_bounds;

    #[test]
    fn random_k_histogram_is_valid_member() {
        let mut rng = PortableRng::seed_from(10);
        for k in [1usize, 2, 5, 17] {
            let h = random_k_histogram(100, k, &mut rng).unwrap();
            assert_eq!(h.num_pieces(), k);
            let d = h.to_distribution().unwrap();
            assert!(d.is_k_histogram(k), "k = {k}: {} pieces", d.num_pieces());
        }
        assert!(random_k_histogram(5, 0, &mut rng).is_err());
        assert!(random_k_histogram(5, 6, &mut rng).is_err());
    }

    #[test]
    fn random_k_histogram_randomizes_breakpoints() {
        let mut rng = PortableRng::seed_from(11);
        let a = random_k_histogram(1000, 10, &mut rng).unwrap();
        let b = random_k_histogram(1000, 10, &mut rng).unwrap();
        assert_ne!(a.partition(), b.partition());
    }

    #[test]
    fn staircase_shape() {
        let h = staircase(12, 3).unwrap();
        assert_eq!(h.num_pieces(), 3);
        let d = h.to_distribution().unwrap();
        // Masses 1/6, 2/6, 3/6 over equal widths => increasing levels.
        assert!(h.levels().windows(2).all(|w| w[0] < w[1]));
        assert!(d.is_k_histogram(3));
        assert!(!d.is_k_histogram(2));
    }

    #[test]
    fn zipf_and_geometric_are_decreasing_non_flat() {
        let z = zipf(50, 1.0).unwrap();
        assert!(z.pmf().windows(2).all(|w| w[0] > w[1]));
        let g = geometric(50, 0.9).unwrap();
        assert!(g.pmf().windows(2).all(|w| w[0] > w[1]));
        assert!(geometric(10, 1.0).is_err());
        assert!(zipf(10, f64::INFINITY).is_err());
    }

    #[test]
    fn gaussian_bump_peaks_at_mu() {
        let g = gaussian_bump(101, 50.0, 10.0).unwrap();
        let argmax = g
            .pmf()
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(argmax, 50);
        assert!(gaussian_bump(10, 5.0, 0.0).is_err());
    }

    #[test]
    fn mixture_combines_and_validates() {
        let a = Distribution::uniform(4).unwrap();
        let b = Distribution::point_mass(4, 0).unwrap();
        let m = mixture(&[(a.clone(), 0.5), (b, 0.5)]).unwrap();
        assert!((m.mass(0) - (0.125 + 0.5)).abs() < 1e-12);
        assert!((m.mass(1) - 0.125).abs() < 1e-12);
        assert!(mixture(&[]).is_err());
        let c = Distribution::uniform(3).unwrap();
        assert!(mixture(&[(a, 0.5), (c, 0.5)]).is_err());
    }

    #[test]
    fn sawtooth_certification_is_sound() {
        // Verify the analytic lower bound against the exact DP on a small
        // instance: the certified bound must never exceed the true distance.
        let mut rng = PortableRng::seed_from(12);
        let base = staircase(24, 3).unwrap();
        let inst = sawtooth_perturbation(&base, 3, 0.8, &mut rng).unwrap();
        let exact = distance_to_hk_bounds(&inst.dist, 3).unwrap();
        assert!(
            inst.tv_to_hk_lower <= exact.upper + 1e-9,
            "certified {} vs exact upper {}",
            inst.tv_to_hk_lower,
            exact.upper
        );
        assert!(
            inst.tv_to_hk_lower <= exact.lower + 1e-9,
            "certified lower {} must lower-bound the DP lower bound {} \
             (both bound the true TV from below, certified is weaker)",
            inst.tv_to_hk_lower,
            exact.lower
        );
        assert!(inst.tv_to_hk_lower > 0.05, "bound should be non-trivial");
        assert!(inst.tv_to_hk_upper >= inst.tv_to_hk_lower - 1e-12);
    }

    #[test]
    fn sawtooth_preserves_total_mass_and_interval_masses() {
        let mut rng = PortableRng::seed_from(13);
        let base = staircase(30, 5).unwrap();
        let inst = sawtooth_perturbation(&base, 5, 0.5, &mut rng).unwrap();
        for (j, iv) in base.partition().intervals().iter().enumerate() {
            let got = inst.dist.interval_mass(iv);
            assert!(
                (got - base.interval_mass(j)).abs() < 1e-12,
                "interval {j} mass changed"
            );
        }
    }

    #[test]
    fn amplitude_solver_hits_target() {
        let base = staircase(1000, 4).unwrap();
        let eps = 0.1;
        let c = amplitude_for_certified_distance(&base, 4, eps).unwrap();
        let mut rng = PortableRng::seed_from(14);
        let inst = sawtooth_perturbation(&base, 4, c, &mut rng).unwrap();
        assert!(
            inst.tv_to_hk_lower >= eps - 1e-9,
            "got {}",
            inst.tv_to_hk_lower
        );
        // Infeasible case: k as large as the pair count.
        let tiny = staircase(6, 3).unwrap();
        assert!(amplitude_for_certified_distance(&tiny, 100, 0.5).is_none());
    }

    #[test]
    fn stretch_preserves_structure() {
        let d = Distribution::new(vec![0.25, 0.75]).unwrap();
        let s = stretch(&d, 3).unwrap();
        assert_eq!(s.n(), 6);
        assert_eq!(s.num_pieces(), d.num_pieces());
        assert!((s.mass(0) - 0.25 / 3.0).abs() < 1e-12);
        assert!(stretch(&d, 0).is_err());
    }

    #[test]
    fn zero_pad_extends_domain() {
        let d = Distribution::new(vec![0.5, 0.5]).unwrap();
        let p = zero_pad(&d, 5).unwrap();
        assert_eq!(p.n(), 5);
        assert_eq!(p.mass(4), 0.0);
        assert_eq!(p.support_size(), 2);
        assert!(zero_pad(&d, 1).is_err());
    }
}
