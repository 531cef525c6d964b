//! The χ²-vs-TV tester of Acharya, Daskalakis, and Kamath (\[ADK15\],
//! Theorem 3.2), with the per-interval statistics of Proposition 3.3.
//!
//! Given an explicit hypothesis `D*` and Poissonized counts
//! `N_i ~ Poisson(m·D(i))`, the statistic over an interval `I_j` is
//!
//! ```text
//! Z_j = Σ_{i ∈ I_j ∩ A_ε}  ((N_i − m·D*(i))² − N_i) / (m·D*(i))
//! ```
//!
//! with `A_ε = { i : D*(i) >= ε/(50 n) }`. Then `E[Z_j] = m · Σ_{i∈I_j∩A_ε}
//! (D(i) − D*(i))²/D*(i)` — an unbiased estimator of `m` times the
//! restricted χ² divergence — and Proposition 3.3 gives the separation
//! `E\[Z\] <= m ε²/500` (χ²-close) vs `E\[Z\] >= m ε²/5` (TV-far) with
//! variance `Var\[Z\] <= E\[Z\]²/100`, provided `m >= 20000·√n/ε²`.
//!
//! The tester accepts iff `Z` falls below a threshold between the two
//! bounds. It applies verbatim to sub-domains (footnote 6): simply restrict
//! the sum to the surviving intervals.

use crate::config::TesterConfig;
use crate::Decision;
use histo_core::empirical::SampleCounts;
use histo_core::{Distribution, HistoError, KHistogram};
use histo_sampling::oracle::SampleOracle;
use histo_stats::PortableRng;
use histo_trace::{Stage, Value};

/// The per-interval and total χ² statistics computed from one Poissonized
/// batch.
#[derive(Debug, Clone)]
pub struct ZStatistics {
    /// `Z_j` for each requested interval, in request order.
    pub per_interval: Vec<f64>,
    /// `Z = Σ_j Z_j`.
    pub total: f64,
    /// The Poissonization parameter `m` the counts were drawn with.
    pub m: f64,
}

/// Computes the `Z_j` statistics of Proposition 3.3 from Poissonized counts
/// against the hypothesis `hyp`, over the given interval indices of the
/// hypothesis partition, with `A_ε` cutoff `aeps_cutoff` (elements with
/// `hyp(i) < aeps_cutoff` are skipped).
///
/// # Errors
///
/// Returns [`HistoError::DomainMismatch`] if counts and hypothesis domains
/// differ, or [`HistoError::InvalidParameter`] for an out-of-range interval
/// index or non-positive `m`.
pub fn z_statistics(
    counts: &SampleCounts,
    hyp: &KHistogram,
    interval_indices: &[usize],
    m: f64,
    aeps_cutoff: f64,
) -> Result<ZStatistics, HistoError> {
    if counts.n() != hyp.n() {
        return Err(HistoError::DomainMismatch {
            left: counts.n(),
            right: hyp.n(),
        });
    }
    if m <= 0.0 || m.is_nan() {
        return Err(HistoError::InvalidParameter {
            name: "m",
            reason: format!("Poissonization parameter must be positive, got {m}"),
        });
    }
    let mut per_interval = Vec::with_capacity(interval_indices.len());
    let mut total = 0.0;
    for &j in interval_indices {
        if j >= hyp.num_pieces() {
            return Err(HistoError::InvalidParameter {
                name: "interval_indices",
                reason: format!("index {j} out of range 0..{}", hyp.num_pieces()),
            });
        }
        let level = hyp.levels()[j];
        let iv = hyp.partition().interval(j);
        let mut z = 0.0;
        if level >= aeps_cutoff && level > 0.0 {
            let expected = m * level;
            for i in iv.indices() {
                let ni = counts.count(i) as f64;
                let diff = ni - expected;
                z += (diff * diff - ni) / expected;
            }
        }
        per_interval.push(z);
        total += z;
    }
    Ok(ZStatistics {
        per_interval,
        total,
        m,
    })
}

/// The exact expectation `E[Z_j]` of the statistic when the true
/// distribution is `d` — used by tests and experiment F3 to validate the
/// separation claims of Proposition 3.3.
///
/// # Errors
///
/// Mirrors [`z_statistics`].
pub fn expected_z(
    d: &Distribution,
    hyp: &KHistogram,
    interval_indices: &[usize],
    m: f64,
    aeps_cutoff: f64,
) -> Result<ZStatistics, HistoError> {
    if d.n() != hyp.n() {
        return Err(HistoError::DomainMismatch {
            left: d.n(),
            right: hyp.n(),
        });
    }
    let mut per_interval = Vec::with_capacity(interval_indices.len());
    let mut total = 0.0;
    for &j in interval_indices {
        if j >= hyp.num_pieces() {
            return Err(HistoError::InvalidParameter {
                name: "interval_indices",
                reason: format!("index {j} out of range 0..{}", hyp.num_pieces()),
            });
        }
        let level = hyp.levels()[j];
        let iv = hyp.partition().interval(j);
        let mut e = 0.0;
        if level >= aeps_cutoff && level > 0.0 {
            for i in iv.indices() {
                let diff = d.mass(i) - level;
                e += m * diff * diff / level;
            }
        }
        per_interval.push(e);
        total += e;
    }
    Ok(ZStatistics {
        per_interval,
        total,
        m,
    })
}

/// The \[ADK15\] χ²-vs-TV tester (Theorem 3.2), possibly restricted to a
/// subdomain: accepts when `dχ²(D ‖ D*) <= ε²/500` on the subdomain,
/// rejects when `d_TV(D, D*) >= ε` there, each with probability >= 2/3.
#[derive(Debug, Clone)]
pub struct ChiSquareTest {
    hypothesis: KHistogram,
    /// Interval indices of the hypothesis partition forming the subdomain.
    interval_indices: Vec<usize>,
    epsilon: f64,
    /// Poissonization parameter.
    m: f64,
    /// Accept iff `Z <= accept_fraction · m · ε²`.
    accept_fraction: f64,
    /// `A_ε` cutoff on hypothesis masses.
    aeps_cutoff: f64,
}

impl ChiSquareTest {
    /// Builds a test of the full domain of `hypothesis` at distance
    /// `epsilon`, with budgets and thresholds from `config`.
    ///
    /// # Errors
    ///
    /// Returns [`HistoError::InvalidParameter`] for a non-positive epsilon.
    pub fn full_domain(
        hypothesis: KHistogram,
        epsilon: f64,
        config: &TesterConfig,
    ) -> Result<Self, HistoError> {
        let all: Vec<usize> = (0..hypothesis.num_pieces()).collect();
        Self::restricted(hypothesis, all, epsilon, config)
    }

    /// Builds a test restricted to the subdomain formed by
    /// `interval_indices` of the hypothesis partition.
    ///
    /// # Errors
    ///
    /// Returns [`HistoError::InvalidParameter`] for a non-positive epsilon
    /// or out-of-range indices.
    pub fn restricted(
        hypothesis: KHistogram,
        interval_indices: Vec<usize>,
        epsilon: f64,
        config: &TesterConfig,
    ) -> Result<Self, HistoError> {
        if !(epsilon > 0.0 && epsilon <= 1.0) {
            return Err(HistoError::InvalidParameter {
                name: "epsilon",
                reason: format!("need epsilon in (0,1], got {epsilon}"),
            });
        }
        for &j in &interval_indices {
            if j >= hypothesis.num_pieces() {
                return Err(HistoError::InvalidParameter {
                    name: "interval_indices",
                    reason: format!("index {j} out of range"),
                });
            }
        }
        let n = hypothesis.n();
        let m = config.test_samples(n, epsilon);
        let aeps_cutoff = config.aeps_fraction * epsilon / n as f64;
        Ok(Self {
            hypothesis,
            interval_indices,
            epsilon,
            m,
            accept_fraction: config.chi2_accept_fraction,
            aeps_cutoff,
        })
    }

    /// The Poissonization parameter in use.
    pub fn m(&self) -> f64 {
        self.m
    }

    /// The acceptance threshold on `Z`.
    pub fn threshold(&self) -> f64 {
        self.accept_fraction * self.m * self.epsilon * self.epsilon
    }

    /// Draws one Poissonized batch and returns the decision, closing the
    /// stage span before returning either way.
    ///
    /// # Errors
    ///
    /// Propagates oracle failures such as [`HistoError::OracleExhausted`].
    pub fn try_run(
        &self,
        oracle: &mut dyn SampleOracle,
        rng: &mut PortableRng,
    ) -> Result<Decision, HistoError> {
        oracle.trace_enter(Stage::AdkTest);
        let z_total = self.draw_z_total(oracle, rng)?;
        Ok(self.decide(oracle, z_total))
    }

    /// Median-amplified run: repeats the statistic `reps` times on fresh
    /// batches and thresholds the median of the totals — the standard
    /// amplification of Section 3.2.1.
    ///
    /// # Errors
    ///
    /// Propagates oracle failures, closing the stage span before
    /// returning.
    pub fn try_run_amplified(
        &self,
        oracle: &mut dyn SampleOracle,
        reps: usize,
        rng: &mut PortableRng,
    ) -> Result<Decision, HistoError> {
        let reps = reps.max(1);
        oracle.trace_enter(Stage::AdkTest);
        let mut totals: Vec<f64> = Vec::with_capacity(reps);
        for _ in 0..reps {
            totals.push(self.draw_z_total(oracle, rng)?);
        }
        let z_median = histo_stats::try_median(&totals).expect("reps >= 1 batches");
        oracle.trace_counter("reps", Value::U64(reps as u64));
        Ok(self.decide(oracle, z_median))
    }

    /// Draws one Poissonized batch and returns its total `Z`. If the oracle
    /// refuses the batch, closes the open stage span and returns the error.
    fn draw_z_total(
        &self,
        oracle: &mut dyn SampleOracle,
        rng: &mut PortableRng,
    ) -> Result<f64, HistoError> {
        let counts = match oracle.try_poissonized_counts(self.m, rng) {
            Ok(c) => c,
            Err(e) => {
                oracle.trace_exit();
                return Err(e);
            }
        };
        Ok(z_statistics(
            &counts,
            &self.hypothesis,
            &self.interval_indices,
            self.m,
            self.aeps_cutoff,
        )
        .expect("parameters validated at construction")
        .total)
    }

    /// Emits `z_total` and `threshold`, closes the stage span, and
    /// thresholds `z_total`.
    fn decide(&self, oracle: &mut dyn SampleOracle, z_total: f64) -> Decision {
        oracle.trace_counter("z_total", Value::F64(z_total));
        oracle.trace_counter("threshold", Value::F64(self.threshold()));
        oracle.trace_exit();
        if z_total <= self.threshold() {
            Decision::Accept
        } else {
            Decision::Reject
        }
    }
}

/// Convenience: χ² identity tester against an explicit dense distribution
/// (`D* ∈ Δ(\[n\])`), the literal Theorem 3.2 statement.
///
/// # Errors
///
/// Propagates construction errors and oracle failures.
pub fn identity_test(
    oracle: &mut dyn SampleOracle,
    hypothesis: &Distribution,
    epsilon: f64,
    config: &TesterConfig,
    rng: &mut PortableRng,
) -> Result<Decision, HistoError> {
    let hyp = KHistogram::from_distribution(hypothesis)?;
    let test = ChiSquareTest::full_domain(hyp, epsilon, config)?;
    test.try_run(oracle, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use histo_core::Partition;
    use histo_sampling::DistOracle;

    fn uniform_hyp(n: usize) -> KHistogram {
        KHistogram::new(Partition::trivial(n).unwrap(), vec![1.0 / n as f64]).unwrap()
    }

    #[test]
    fn z_is_unbiased_for_chi_square() {
        // E[Z] should match m * chi2(D || D*) restricted to A_eps; verify
        // empirically for a small case.
        let n = 40;
        let hyp = uniform_hyp(n);
        let d =
            Distribution::from_weights((0..n).map(|i| if i < 20 { 1.2 } else { 0.8 }).collect())
                .unwrap();
        let m = 2_000.0;
        let expected = expected_z(&d, &hyp, &[0], m, 0.0).unwrap().total;

        let mut rng = PortableRng::seed_from(42);
        let reps = 400;
        let mut sum = 0.0;
        for _ in 0..reps {
            let mut o = DistOracle::new(d.clone()).with_fast_poissonization();
            let counts = o.try_poissonized_counts(m, &mut rng).unwrap();
            sum += z_statistics(&counts, &hyp, &[0], m, 0.0).unwrap().total;
        }
        let mean = sum / reps as f64;
        assert!(
            (mean - expected).abs() < 0.2 * expected.max(10.0),
            "empirical E[Z] = {mean:.1}, analytic = {expected:.1}"
        );
    }

    #[test]
    fn z_zero_mean_under_null() {
        // When D == D*, E[Z] = 0.
        let n = 50;
        let hyp = uniform_hyp(n);
        let d = Distribution::uniform(n).unwrap();
        let m = 1_000.0;
        let mut rng = PortableRng::seed_from(7);
        let mut sum = 0.0;
        let reps = 500;
        for _ in 0..reps {
            let mut o = DistOracle::new(d.clone()).with_fast_poissonization();
            let counts = o.try_poissonized_counts(m, &mut rng).unwrap();
            sum += z_statistics(&counts, &hyp, &[0], m, 0.0).unwrap().total;
        }
        let mean = sum / reps as f64;
        // Var per rep is O(n); SE ~ sqrt(2n/reps) ~ 0.45.
        assert!(mean.abs() < 3.0, "mean Z under null = {mean}");
    }

    #[test]
    fn aeps_cutoff_excludes_light_elements() {
        let p = Partition::from_starts(4, &[0, 2]).unwrap();
        // Interval 0 carries nearly all mass; interval 1 is very light.
        let hyp = KHistogram::new(p, vec![0.4995, 0.0005]).unwrap();
        let counts = SampleCounts::from_counts(vec![10, 10, 500, 500]).unwrap();
        let z_all = z_statistics(&counts, &hyp, &[0, 1], 100.0, 0.0).unwrap();
        let z_cut = z_statistics(&counts, &hyp, &[0, 1], 100.0, 0.01).unwrap();
        // With the cutoff the light interval contributes exactly zero.
        assert_eq!(z_cut.per_interval[1], 0.0);
        assert!(z_all.per_interval[1] != 0.0);
        assert_eq!(z_cut.per_interval[0], z_all.per_interval[0]);
    }

    #[test]
    fn identity_test_accepts_true_hypothesis() {
        let n = 100;
        let d = Distribution::uniform(n).unwrap();
        let config = TesterConfig::practical();
        let mut rng = PortableRng::seed_from(11);
        let mut accepts = 0;
        let trials = 40;
        for _ in 0..trials {
            let mut o = DistOracle::new(d.clone()).with_fast_poissonization();
            if identity_test(&mut o, &d, 0.3, &config, &mut rng)
                .unwrap()
                .accepted()
            {
                accepts += 1;
            }
        }
        assert!(accepts >= trials * 3 / 4, "accepted {accepts}/{trials}");
    }

    #[test]
    fn identity_test_rejects_far_distribution() {
        let n = 100;
        let hyp = Distribution::uniform(n).unwrap();
        // Half the elements carry (1.6/n), half (0.4/n): TV = 0.3.
        let d = Distribution::from_weights(
            (0..n).map(|i| if i % 2 == 0 { 1.6 } else { 0.4 }).collect(),
        )
        .unwrap();
        let config = TesterConfig::practical();
        let mut rng = PortableRng::seed_from(13);
        let mut rejects = 0;
        let trials = 40;
        for _ in 0..trials {
            let mut o = DistOracle::new(d.clone()).with_fast_poissonization();
            if !identity_test(&mut o, &hyp, 0.25, &config, &mut rng)
                .unwrap()
                .accepted()
            {
                rejects += 1;
            }
        }
        assert!(rejects >= trials * 3 / 4, "rejected {rejects}/{trials}");
    }

    #[test]
    fn restricted_test_ignores_excluded_intervals() {
        // Hypothesis uniform on two halves; true distribution differs ONLY
        // on the second half. Restricting to the first half must accept.
        let n = 100;
        let p = Partition::from_starts(n, &[0, 50]).unwrap();
        let hyp = KHistogram::new(p, vec![0.01, 0.01]).unwrap();
        let d = Distribution::from_weights(
            (0..n)
                .map(|i| {
                    if i < 50 {
                        1.0
                    } else if i % 2 == 0 {
                        1.8
                    } else {
                        0.2
                    }
                })
                .collect(),
        )
        .unwrap();
        let config = TesterConfig::practical();
        let mut rng = PortableRng::seed_from(17);
        let mut accepts_restricted = 0;
        let mut rejects_full = 0;
        let trials = 30;
        for _ in 0..trials {
            let mut o = DistOracle::new(d.clone()).with_fast_poissonization();
            let t = ChiSquareTest::restricted(hyp.clone(), vec![0], 0.3, &config).unwrap();
            if t.try_run(&mut o, &mut rng).unwrap().accepted() {
                accepts_restricted += 1;
            }
            let mut o = DistOracle::new(d.clone()).with_fast_poissonization();
            let t = ChiSquareTest::full_domain(hyp.clone(), 0.3, &config).unwrap();
            if !t.try_run(&mut o, &mut rng).unwrap().accepted() {
                rejects_full += 1;
            }
        }
        assert!(
            accepts_restricted >= trials * 3 / 4,
            "restricted accepted {accepts_restricted}/{trials}"
        );
        assert!(
            rejects_full >= trials * 3 / 4,
            "full rejected {rejects_full}/{trials}"
        );
    }

    #[test]
    fn amplification_reduces_variance_of_decision() {
        // Near the threshold the single-shot test flips; the amplified test
        // should be at least as consistent. Just a smoke check that it runs
        // and agrees with the obvious cases.
        let n = 64;
        let d = Distribution::uniform(n).unwrap();
        let hyp = uniform_hyp(n);
        let config = TesterConfig::practical();
        let mut rng = PortableRng::seed_from(19);
        let t = ChiSquareTest::full_domain(hyp, 0.3, &config).unwrap();
        let mut o = DistOracle::new(d).with_fast_poissonization();
        assert!(t.try_run_amplified(&mut o, 5, &mut rng).unwrap().accepted());
    }

    #[test]
    fn validation_errors() {
        let hyp = uniform_hyp(10);
        let config = TesterConfig::practical();
        assert!(ChiSquareTest::full_domain(hyp.clone(), 0.0, &config).is_err());
        assert!(ChiSquareTest::restricted(hyp.clone(), vec![3], 0.5, &config).is_err());
        let counts = SampleCounts::from_counts(vec![1; 10]).unwrap();
        assert!(z_statistics(&counts, &hyp, &[0], -1.0, 0.0).is_err());
        assert!(z_statistics(&counts, &hyp, &[5], 1.0, 0.0).is_err());
        let short = SampleCounts::from_counts(vec![1; 5]).unwrap();
        assert!(z_statistics(&short, &hyp, &[0], 1.0, 0.0).is_err());
    }
}
