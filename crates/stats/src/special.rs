//! Special functions: log-gamma, log-factorial, log-binomial coefficients.
//!
//! The Poisson and binomial pmfs used throughout the workspace are always
//! evaluated in log space through these functions, so that statistics such
//! as the chi-square `Z_j` of Proposition 3.3 remain finite even when the
//! underlying counts are large.

/// Lanczos coefficients for `g = 7`, `n = 9` (Godfrey's table).
const LANCZOS_G: f64 = 7.0;
const LANCZOS_COEFFS: [f64; 9] = [
    0.999_999_999_999_809_9,
    676.520_368_121_885_1,
    -1_259.139_216_722_402_8,
    771.323_428_777_653_1,
    -176.615_029_162_140_6,
    12.507_343_278_686_905,
    -0.138_571_095_265_720_12,
    9.984_369_578_019_572e-6,
    1.505_632_735_149_311_6e-7,
];

/// Natural log of the gamma function, `ln Γ(x)`, for `x > 0`.
///
/// Uses the Lanczos approximation with reflection for `x < 0.5`. Accuracy is
/// about 1e-13 relative over the positive reals.
///
/// # Panics
///
/// Panics if `x` is not finite or `x <= 0` and `x` is a non-positive integer
/// (where the gamma function has poles).
pub fn ln_gamma(x: f64) -> f64 {
    assert!(x.is_finite(), "ln_gamma: argument must be finite, got {x}");
    if x < 0.5 {
        // Reflection formula: Γ(x) Γ(1−x) = π / sin(πx).
        let sin_pi_x = (std::f64::consts::PI * x).sin();
        assert!(
            sin_pi_x != 0.0,
            "ln_gamma: pole at non-positive integer {x}"
        );
        return std::f64::consts::PI.ln() - sin_pi_x.abs().ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = LANCZOS_COEFFS[0];
    for (i, &c) in LANCZOS_COEFFS.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + LANCZOS_G + 0.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// Size of the precomputed `ln k!` table. Factorials up to this bound are
/// looked up; larger arguments fall back to [`ln_gamma`].
const LN_FACT_TABLE_LEN: usize = 1024;

fn ln_fact_table() -> &'static [f64; LN_FACT_TABLE_LEN] {
    use std::sync::OnceLock;
    static TABLE: OnceLock<[f64; LN_FACT_TABLE_LEN]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut t = [0.0_f64; LN_FACT_TABLE_LEN];
        for k in 2..LN_FACT_TABLE_LEN {
            t[k] = t[k - 1] + (k as f64).ln();
        }
        t
    })
}

/// Natural log of `k!`, exact summation for `k < 1024`, Lanczos beyond.
pub fn ln_factorial(k: u64) -> f64 {
    if (k as usize) < LN_FACT_TABLE_LEN {
        ln_fact_table()[k as usize]
    } else {
        ln_gamma(k as f64 + 1.0)
    }
}

/// Natural log of the binomial coefficient `C(n, k)`.
///
/// Returns `f64::NEG_INFINITY` when `k > n` (the coefficient is zero).
pub fn ln_binomial_coeff(n: u64, k: u64) -> f64 {
    if k > n {
        return f64::NEG_INFINITY;
    }
    ln_factorial(n) - ln_factorial(k) - ln_factorial(n - k)
}

/// `log2` helper matching the paper's convention (`log` = base 2).
pub fn log2(x: f64) -> f64 {
    x.log2()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ln_gamma_matches_known_values() {
        // Γ(1) = Γ(2) = 1, Γ(3) = 2, Γ(4) = 6, Γ(0.5) = sqrt(pi).
        assert!((ln_gamma(1.0)).abs() < 1e-12);
        assert!((ln_gamma(2.0)).abs() < 1e-12);
        assert!((ln_gamma(3.0) - 2.0_f64.ln()).abs() < 1e-12);
        assert!((ln_gamma(4.0) - 6.0_f64.ln()).abs() < 1e-12);
        let half = ln_gamma(0.5);
        assert!((half - 0.5 * std::f64::consts::PI.ln()).abs() < 1e-12);
    }

    #[test]
    fn ln_gamma_large_argument() {
        // Stirling sanity: ln Γ(x) ≈ x ln x − x for large x.
        let x = 1e6_f64;
        let approx = (x - 0.5) * x.ln() - x + 0.5 * (2.0 * std::f64::consts::PI).ln();
        assert!((ln_gamma(x) - approx).abs() / approx.abs() < 1e-9);
    }

    #[test]
    fn ln_factorial_table_and_fallback_agree() {
        for k in [1000_u64, 1023, 1024, 1025, 5000] {
            let direct: f64 = (2..=k).map(|i| (i as f64).ln()).sum();
            assert!(
                (ln_factorial(k) - direct).abs() < 1e-6 * direct.max(1.0),
                "k = {k}"
            );
        }
    }

    #[test]
    fn ln_factorial_small_values() {
        assert_eq!(ln_factorial(0), 0.0);
        assert_eq!(ln_factorial(1), 0.0);
        assert!((ln_factorial(2) - 2.0_f64.ln()).abs() < 1e-14);
        assert!((ln_factorial(10) - 3_628_800.0_f64.ln()).abs() < 1e-10);
    }

    #[test]
    fn ln_binomial_matches_pascal() {
        for n in 0..30u64 {
            let mut row = vec![1.0_f64];
            for _ in 0..n {
                let mut next = vec![1.0];
                for w in row.windows(2) {
                    next.push(w[0] + w[1]);
                }
                next.push(1.0);
                row = next;
            }
            for (k, &exact) in row.iter().enumerate() {
                let got = ln_binomial_coeff(n, k as u64).exp();
                assert!(
                    (got - exact).abs() < 1e-8 * exact,
                    "C({n},{k}): got {got}, want {exact}"
                );
            }
        }
    }

    #[test]
    fn ln_binomial_out_of_range_is_neg_infinity() {
        assert_eq!(ln_binomial_coeff(3, 4), f64::NEG_INFINITY);
    }
}
