//! Poisson distribution: pmf, cdf, tail bounds, and exact sampling.
//!
//! The paper's upper bound is analyzed under Poissonization (Section 2):
//! instead of `m` samples the tester draws `Poisson(m)` samples, which makes
//! the per-element counts `N_i ~ Poisson(m D(i))` independent. Both the
//! literal sampler and the per-bin fast path in `histo-sampling` are built on
//! this module.

use crate::special::ln_factorial;
use crate::PortableRng;

/// A Poisson distribution with mean `lambda >= 0`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Poisson {
    lambda: f64,
}

impl Poisson {
    /// Creates a Poisson distribution with the given mean.
    ///
    /// # Panics
    ///
    /// Panics if `lambda` is negative or not finite.
    pub fn new(lambda: f64) -> Self {
        assert!(
            lambda.is_finite() && lambda >= 0.0,
            "Poisson mean must be finite and non-negative, got {lambda}"
        );
        Self { lambda }
    }

    /// The mean (and variance) of the distribution.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// Probability mass `P[X = k]`.
    pub fn pmf(&self, k: u64) -> f64 {
        self.ln_pmf(k).exp()
    }

    /// Log probability mass `ln P[X = k]`.
    pub fn ln_pmf(&self, k: u64) -> f64 {
        if self.lambda == 0.0 {
            return if k == 0 { 0.0 } else { f64::NEG_INFINITY };
        }
        k as f64 * self.lambda.ln() - self.lambda - ln_factorial(k)
    }

    /// Cumulative probability `P[X <= k]` by direct stable summation from
    /// the mode. Cost is `O(k + sqrt(lambda))` in the worst case, which is
    /// fine for the moderate `k` used in tests and bound checks.
    pub fn cdf(&self, k: u64) -> f64 {
        if self.lambda == 0.0 {
            return 1.0;
        }
        // Sum pmf(0..=k) with the multiplicative recurrence
        // pmf(i) = pmf(i-1) * lambda / i, started in log space to avoid
        // underflow for large lambda.
        let mut total = 0.0_f64;
        let mut ln_p = -self.lambda; // ln pmf(0)
        let mut i = 0u64;
        loop {
            total += ln_p.exp();
            if i == k {
                break;
            }
            i += 1;
            ln_p += self.lambda.ln() - (i as f64).ln();
        }
        total.min(1.0)
    }

    /// Draws one sample.
    ///
    /// For `lambda < 30` uses Knuth's multiplication method (exact, expected
    /// `O(lambda)` time). For larger means uses exact CDF inversion started
    /// at the mode and expanding outward, with expected `O(sqrt(lambda))`
    /// work; for extremely large means where even that is too slow, the
    /// recursive split `Poisson(a+b) = Poisson(a) + Poisson(b)` would apply,
    /// but `sqrt(lambda)` work is acceptable for every workload here.
    pub fn sample(&self, rng: &mut PortableRng) -> u64 {
        if self.lambda == 0.0 {
            0
        } else if self.lambda < 30.0 {
            self.sample_knuth(rng)
        } else {
            self.sample_inversion_from_mode(rng)
        }
    }

    fn sample_knuth(&self, rng: &mut PortableRng) -> u64 {
        let limit = (-self.lambda).exp();
        let mut product = rng.f64();
        let mut count = 0u64;
        while product > limit {
            product *= rng.f64();
            count += 1;
        }
        count
    }

    /// Exact inversion: expand a window `[lo, hi]` outward from the mode,
    /// always in the direction of the larger frontier pmf, until it captures
    /// mass `>= 1 - 1e-13`; then invert a uniform draw within the window.
    /// Expected work is `O(sqrt(lambda))` pmf evaluations.
    fn sample_inversion_from_mode(&self, rng: &mut PortableRng) -> u64 {
        let u = rng.f64();
        let mode = self.lambda.floor() as u64;
        let p_mode = self.ln_pmf(mode).exp();

        let mut lo = mode;
        let mut hi = mode;
        let mut p_lo = p_mode; // pmf(lo)
        let mut p_hi = p_mode; // pmf(hi)
        let mut cum = p_mode; // P[lo <= X <= hi]
        while cum < 1.0 - 1e-13 {
            let down = if lo > 0 {
                p_lo * lo as f64 / self.lambda
            } else {
                0.0
            };
            let up = p_hi * self.lambda / (hi + 1) as f64;
            if down <= f64::MIN_POSITIVE && up <= f64::MIN_POSITIVE {
                break; // both frontiers underflowed; nothing measurable left
            }
            if down >= up {
                lo -= 1;
                p_lo = down;
                cum += down;
            } else {
                hi += 1;
                p_hi = up;
                cum += up;
            }
        }

        // Invert u scaled to the captured mass, so the draw is exact on the
        // truncated support (truncation error <= 1e-13).
        let target = u * cum;
        let mut acc = 0.0;
        let mut p = self.ln_pmf(lo).exp();
        let mut k = lo;
        loop {
            acc += p;
            if acc >= target || k >= hi {
                return k;
            }
            k += 1;
            p *= self.lambda / k as f64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pmf_sums_to_one() {
        for lambda in [0.1, 1.0, 5.0, 30.0, 100.0] {
            let p = Poisson::new(lambda);
            let hi = (lambda + 30.0 * lambda.sqrt() + 30.0) as u64;
            let total: f64 = (0..=hi).map(|k| p.pmf(k)).sum();
            assert!((total - 1.0).abs() < 1e-9, "lambda = {lambda}: {total}");
        }
    }

    #[test]
    fn cdf_monotone_and_bounded() {
        let p = Poisson::new(12.5);
        let mut prev = 0.0;
        for k in 0..60 {
            let c = p.cdf(k);
            assert!(c >= prev - 1e-15 && c <= 1.0 + 1e-12);
            prev = c;
        }
        assert!(p.cdf(200) > 1.0 - 1e-12);
    }

    #[test]
    fn zero_mean_is_degenerate() {
        let p = Poisson::new(0.0);
        assert_eq!(p.pmf(0), 1.0);
        assert_eq!(p.pmf(1), 0.0);
        let mut rng = PortableRng::seed_from(7);
        for _ in 0..10 {
            assert_eq!(p.sample(&mut rng), 0);
        }
    }

    fn check_sample_moments(lambda: f64, trials: usize, seed: u64) {
        let p = Poisson::new(lambda);
        let mut rng = PortableRng::seed_from(seed);
        let mut sum = 0.0;
        let mut sumsq = 0.0;
        for _ in 0..trials {
            let x = p.sample(&mut rng) as f64;
            sum += x;
            sumsq += x * x;
        }
        let mean = sum / trials as f64;
        let var = sumsq / trials as f64 - mean * mean;
        // Standard error of the mean is sqrt(lambda/trials).
        let se = (lambda / trials as f64).sqrt();
        assert!(
            (mean - lambda).abs() < 6.0 * se + 1e-9,
            "lambda = {lambda}: mean {mean}"
        );
        assert!(
            (var - lambda).abs() < 0.15 * lambda + 0.3,
            "lambda = {lambda}: var {var}"
        );
    }

    #[test]
    fn sampling_moments_small_mean() {
        check_sample_moments(3.5, 40_000, 11);
    }

    #[test]
    fn sampling_moments_large_mean() {
        check_sample_moments(250.0, 20_000, 13);
        check_sample_moments(5_000.0, 4_000, 17);
    }

    #[test]
    fn sampling_matches_pmf_chi_square() {
        // Goodness of fit for lambda = 50 (inversion path).
        let lambda = 50.0;
        let p = Poisson::new(lambda);
        let mut rng = PortableRng::seed_from(99);
        let trials = 60_000usize;
        let maxk = 120usize;
        let mut counts = vec![0u64; maxk + 1];
        for _ in 0..trials {
            let x = (p.sample(&mut rng) as usize).min(maxk);
            counts[x] += 1;
        }
        // Chi-square over bins with expected count >= 10.
        let mut chi2 = 0.0;
        let mut dof = 0usize;
        for (k, &c) in counts.iter().enumerate() {
            let e = p.pmf(k as u64) * trials as f64;
            if e >= 10.0 {
                chi2 += (c as f64 - e).powi(2) / e;
                dof += 1;
            }
        }
        // Very loose: chi2 should be within a few times dof.
        assert!(chi2 < 3.0 * dof as f64, "chi2 = {chi2:.1} with dof = {dof}");
    }

    #[test]
    fn chernoff_bounds_hold_empirically() {
        // Chernoff upper tail: P[X >= (1+δ)λ] <= exp(-λδ²/(2+δ)).
        let chernoff_upper =
            |lambda: f64, delta: f64| (-lambda * delta * delta / (2.0 + delta)).exp();
        let p = Poisson::new(100.0);
        let mut rng = PortableRng::seed_from(5);
        let trials = 20_000;
        let delta = 0.5;
        let mut upper_exceed = 0usize;
        for _ in 0..trials {
            if p.sample(&mut rng) as f64 >= (1.0 + delta) * 100.0 {
                upper_exceed += 1;
            }
        }
        let empirical = upper_exceed as f64 / trials as f64;
        assert!(empirical <= chernoff_upper(100.0, delta) + 0.01);
    }
}
