//! The Section 4.2 reduction: a tester for `H_k` solves `SuppSize_m`.
//!
//! Pipeline (Details paragraph of §4.2):
//!
//! 1. Set `m = ⌈3(k−1)/2⌉` (so `k = 2·(m/3) + 1` up to rounding), require
//!    `k <= n/120` so that `m <= n/70` and Lemma 4.4 applies.
//! 2. Embed the instance `D' ∈ Δ(\[m\])` into `\[n\]` by zero-padding.
//! 3. Draw a uniformly random permutation `σ ∈ S_n`; present the tester
//!    with samples from `D_σ = D' ∘ σ⁻¹` (relabel each drawn sample).
//! 4. Run the tester with parameters `(n, k, ε₁ = 1/24)`; accept iff it
//!    accepts. Repeat with fresh permutations and majority-vote.
//!
//! Correctness hinges on Lemma 4.4: a support of size `ℓ <= n/70` stays
//! "sprinkled" after a random permutation — `cover(σ(S)) > 6ℓ/7` with
//! probability `>= 1 − 7ℓ/n >= 9/10` — so a high-support instance needs
//! `>= 2·(6/7)·(7m/8) − 1 > k` intervals and is `1/24`-far from `H_k`,
//! while a low-support instance is a `(2·supp+1) <= k`-histogram always.

use crate::support_size::SuppSizeInstance;
use histo_core::empirical::SampleCounts;
use histo_core::{Distribution, HistoError};
use histo_sampling::oracle::SampleOracle;
use histo_sampling::permutation::random_permutation;
use histo_sampling::DistOracle;
use histo_stats::PortableRng;
use histo_testers::{Decision, Tester};

/// `cover(S)`: the minimum number of disjoint intervals needed to cover the
/// set `S ⊆ \[n\]` — i.e. the number of maximal runs of consecutive members
/// (Lemma 4.4).
pub fn cover(members: &[bool]) -> usize {
    let mut runs = 0;
    let mut inside = false;
    for &m in members {
        if m && !inside {
            runs += 1;
        }
        inside = m;
    }
    runs
}

/// `cover(σ(S))` for the support of `d` under permutation `sigma`.
///
/// # Errors
///
/// Returns [`HistoError::DomainMismatch`] if lengths differ.
pub fn cover_after_permutation(d: &Distribution, sigma: &[usize]) -> Result<usize, HistoError> {
    if sigma.len() != d.n() {
        return Err(HistoError::DomainMismatch {
            left: d.n(),
            right: sigma.len(),
        });
    }
    let mut members = vec![false; d.n()];
    for (i, &target) in sigma.iter().enumerate() {
        if d.mass(i) > 0.0 {
            members[target] = true;
        }
    }
    Ok(cover(&members))
}

/// An oracle presenting `D ∘ σ⁻¹`: every sample drawn from the inner oracle
/// is relabeled through `σ`. Used by the reduction so the tester sees the
/// permuted distribution while samples are physically drawn from the
/// original instance.
pub struct PermutedOracle<'a> {
    inner: &'a mut dyn SampleOracle,
    sigma: &'a [usize],
}

impl<'a> PermutedOracle<'a> {
    /// Wraps `inner` with permutation `sigma` (length must equal the
    /// domain size).
    ///
    /// # Errors
    ///
    /// Returns [`HistoError::DomainMismatch`] on a length mismatch.
    pub fn new(inner: &'a mut dyn SampleOracle, sigma: &'a [usize]) -> Result<Self, HistoError> {
        if sigma.len() != inner.n() {
            return Err(HistoError::DomainMismatch {
                left: inner.n(),
                right: sigma.len(),
            });
        }
        Ok(Self { inner, sigma })
    }

    /// Moves each inner count `N_i` to element `σ(i)`.
    fn relabel(&self, inner_counts: &SampleCounts) -> SampleCounts {
        let mut counts = vec![0u64; self.sigma.len()];
        for (i, &target) in self.sigma.iter().enumerate() {
            counts[target] = inner_counts.count(i);
        }
        SampleCounts::from_counts(counts).expect("n >= 1")
    }
}

impl SampleOracle for PermutedOracle<'_> {
    fn n(&self) -> usize {
        self.inner.n()
    }

    fn samples_drawn(&self) -> u64 {
        self.inner.samples_drawn()
    }

    fn try_draw(&mut self, rng: &mut PortableRng) -> Result<usize, HistoError> {
        Ok(self.sigma[self.inner.try_draw(rng)?])
    }

    // The batches relabel the inner batch, so the inner oracle's overrides
    // (fast Poissonization, budget pre-checks) still apply.
    fn try_draw_counts(
        &mut self,
        m: u64,
        rng: &mut PortableRng,
    ) -> Result<SampleCounts, HistoError> {
        let inner_counts = self.inner.try_draw_counts(m, rng)?;
        Ok(self.relabel(&inner_counts))
    }

    fn try_poissonized_counts(
        &mut self,
        m: f64,
        rng: &mut PortableRng,
    ) -> Result<SampleCounts, HistoError> {
        let inner_counts = self.inner.try_poissonized_counts(m, rng)?;
        Ok(self.relabel(&inner_counts))
    }
}

/// The lifted tester: solves `SuppSize_m` with a black-box `H_k` tester.
pub struct LiftedTester<'a> {
    tester: &'a dyn Tester,
    /// Enlarged domain size `n`.
    pub n: usize,
    /// Histogram class parameter `k` (derived from `m`).
    pub k: usize,
    /// The distance parameter `ε₁` fed to the tester (paper: 1/24).
    pub epsilon: f64,
    /// Majority-vote repetitions (fresh permutation each).
    pub repetitions: usize,
}

impl<'a> LiftedTester<'a> {
    /// Builds the reduction for instances over `\[m\]`, embedding into `\[n\]`.
    /// Uses the paper's parameters `k = 2⌊m/3⌋ + 1` and `ε₁ = 1/24`.
    ///
    /// # Errors
    ///
    /// Returns [`HistoError::InvalidParameter`] unless `m >= 8` and
    /// `n >= 70·m` (the regime of Lemma 4.4).
    pub fn new(
        tester: &'a dyn Tester,
        m: usize,
        n: usize,
        repetitions: usize,
    ) -> Result<Self, HistoError> {
        if m < 8 || n < 70 * m {
            return Err(HistoError::InvalidParameter {
                name: "n",
                reason: format!("need m >= 8 and n >= 70 m, got m = {m}, n = {n}"),
            });
        }
        Ok(Self {
            tester,
            n,
            k: 2 * (m / 3) + 1,
            epsilon: 1.0 / 24.0,
            repetitions: repetitions.max(1),
        })
    }

    /// Decides one `SuppSize` instance: returns `true` for "low support"
    /// (tester accepted the majority of lifted runs).
    ///
    /// # Errors
    ///
    /// Propagates tester errors.
    pub fn decide(
        &self,
        instance: &SuppSizeInstance,
        rng: &mut PortableRng,
    ) -> histo_core::Result<bool> {
        let padded = histo_sampling::generators::zero_pad(&instance.dist, self.n)?;
        let mut votes = Vec::with_capacity(self.repetitions);
        for _ in 0..self.repetitions {
            let sigma = random_permutation(self.n, rng);
            let mut base = DistOracle::new(padded.clone());
            let mut oracle = PermutedOracle::new(&mut base, &sigma)?;
            let decision = self.tester.test(&mut oracle, self.k, self.epsilon, rng)?;
            votes.push(decision == Decision::Accept);
        }
        Ok(histo_stats::majority_vote(&votes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use histo_sampling::permutation::random_permutation;

    #[test]
    fn cover_counts_runs() {
        assert_eq!(cover(&[false, false]), 0);
        assert_eq!(cover(&[true, true, true]), 1);
        assert_eq!(cover(&[true, false, true]), 2);
        assert_eq!(cover(&[false, true, true, false, true, false, true]), 3);
        assert_eq!(cover(&[]), 0);
    }

    #[test]
    fn cover_after_permutation_matches_manual() {
        // Support {0, 1} mapped by sigma to {5, 2}: two isolated chunks.
        let d = Distribution::new(vec![0.5, 0.5, 0.0, 0.0, 0.0, 0.0]).unwrap();
        let sigma = vec![5, 2, 0, 1, 3, 4];
        assert_eq!(cover_after_permutation(&d, &sigma).unwrap(), 2);
        // Identity keeps them adjacent: one chunk.
        let id: Vec<usize> = (0..6).collect();
        assert_eq!(cover_after_permutation(&d, &id).unwrap(), 1);
        assert!(cover_after_permutation(&d, &[0, 1]).is_err());
    }

    #[test]
    fn lemma_4_4_sprinkling_holds_empirically() {
        // ell = n/100 <= n/70: P[cover <= 6ell/7] <= 7ell/n = 7/100.
        let n = 3000;
        let ell = 30;
        let mut pmf = vec![0.0; n];
        for p in pmf.iter_mut().take(ell) {
            *p = 1.0 / ell as f64;
        }
        let d = Distribution::new(pmf).unwrap();
        let mut rng = PortableRng::seed_from(23);
        let trials = 300;
        let mut bad = 0;
        for _ in 0..trials {
            let sigma = random_permutation(n, &mut rng);
            let c = cover_after_permutation(&d, &sigma).unwrap();
            if c <= 6 * ell / 7 {
                bad += 1;
            }
        }
        let rate = bad as f64 / trials as f64;
        assert!(rate <= 0.10, "sprinkling failed in {rate} of trials");
    }

    #[test]
    fn permuted_oracle_reroutes_samples() {
        let d = Distribution::point_mass(4, 0).unwrap();
        let sigma = vec![3, 0, 1, 2];
        let mut base = DistOracle::new(d);
        let mut o = PermutedOracle::new(&mut base, &sigma).unwrap();
        let mut rng = PortableRng::seed_from(29);
        for _ in 0..10 {
            assert_eq!(o.try_draw(&mut rng).unwrap(), 3);
        }
        assert_eq!(o.samples_drawn(), 10);
        let counts = o.try_draw_counts(7, &mut rng).unwrap();
        assert_eq!(counts.count(3), 7);
        let counts = o.try_poissonized_counts(50.0, &mut rng).unwrap();
        assert_eq!(counts.count(0), 0);
        assert!(counts.count(3) > 0);
    }

    #[test]
    fn permuted_oracle_keeps_the_typed_error() {
        let sigma = vec![3, 0, 1, 2];
        let mut base = DistOracle::new(Distribution::uniform(4).unwrap());
        let mut capped = histo_sampling::BudgetedOracle::new(&mut base, 5);
        let mut o = PermutedOracle::new(&mut capped, &sigma).unwrap();
        let mut rng = PortableRng::seed_from(30);
        let exhausted = |r: Result<SampleCounts, HistoError>| {
            matches!(r, Err(HistoError::OracleExhausted { budget: 5, .. }))
        };
        assert!(exhausted(o.try_draw_counts(10, &mut rng)));
        assert!(exhausted(o.try_poissonized_counts(200.0, &mut rng)));
        assert!(matches!(
            o.try_draw(&mut rng),
            Err(HistoError::OracleExhausted { budget: 5, .. })
        ));
    }

    #[test]
    fn low_instances_become_k_histograms_always() {
        // supp = m/3, so the permuted distribution has cover <= m/3 chunks
        // => at most 2*(m/3)+1 = k pieces. Verify on concrete draws.
        let m = 30;
        let n = 2100;
        let inst = SuppSizeInstance::low(m).unwrap();
        let padded = histo_sampling::generators::zero_pad(&inst.dist, n).unwrap();
        let k = 2 * (m / 3) + 1;
        let mut rng = PortableRng::seed_from(31);
        for _ in 0..10 {
            let sigma = random_permutation(n, &mut rng);
            let permuted = padded.permute(&sigma).unwrap();
            assert!(
                permuted.is_k_histogram(k),
                "{} pieces > k = {k}",
                permuted.num_pieces()
            );
        }
    }

    #[test]
    fn high_instances_need_many_pieces_whp() {
        let m = 30;
        let n = 2100;
        let inst = SuppSizeInstance::high(m).unwrap();
        let padded = histo_sampling::generators::zero_pad(&inst.dist, n).unwrap();
        let k = 2 * (m / 3) + 1; // 21
        let mut rng = PortableRng::seed_from(37);
        let mut far_count = 0;
        let trials = 20;
        for _ in 0..trials {
            let sigma = random_permutation(n, &mut rng);
            let permuted = padded.permute(&sigma).unwrap();
            let c = cover_after_permutation(&padded, &sigma).unwrap();
            // needs >= 2c - 1 pieces
            assert!(permuted.num_pieces() >= 2 * c - 1);
            if permuted.num_pieces() > k {
                far_count += 1;
            }
        }
        assert!(
            far_count >= trials - 2,
            "only {far_count}/{trials} were far"
        );
    }

    #[test]
    fn construction_validates() {
        struct Dummy;
        impl Tester for Dummy {
            fn name(&self) -> &'static str {
                "dummy"
            }
            fn test(
                &self,
                _: &mut dyn SampleOracle,
                _: usize,
                _: f64,
                _: &mut PortableRng,
            ) -> histo_core::Result<Decision> {
                Ok(Decision::Accept)
            }
        }
        assert!(LiftedTester::new(&Dummy, 30, 2100, 1).is_ok());
        assert!(LiftedTester::new(&Dummy, 30, 2000, 1).is_err()); // n < 70m
        assert!(LiftedTester::new(&Dummy, 4, 2100, 1).is_err());
    }

    /// End-to-end: lift an *idealized* tester (one that uses the exact DP
    /// on the permuted distribution — infinite-sample regime) and check the
    /// reduction separates low from high instances.
    #[test]
    fn reduction_end_to_end_with_ideal_tester() {
        struct IdealTester;
        impl Tester for IdealTester {
            fn name(&self) -> &'static str {
                "ideal"
            }
            fn test(
                &self,
                oracle: &mut dyn SampleOracle,
                k: usize,
                epsilon: f64,
                rng: &mut PortableRng,
            ) -> histo_core::Result<Decision> {
                // Estimate the permuted distribution from a large sample
                // and decide by piece count of the empirical support runs.
                let counts = oracle.try_draw_counts(200_000, rng)?;
                let members: Vec<bool> = counts.counts().iter().map(|&c| c > 0).collect();
                let chunks = cover(&members);
                let _ = epsilon;
                Ok(if 2 * chunks + 1 > 2 * k {
                    Decision::Reject
                } else {
                    Decision::Accept
                })
            }
        }
        let m = 30;
        let n = 2100;
        let mut rng = PortableRng::seed_from(41);
        let lifted = LiftedTester::new(&IdealTester, m, n, 3).unwrap();
        let low = SuppSizeInstance::low(m).unwrap();
        let high = SuppSizeInstance::high(m).unwrap();
        let mut low_correct = 0;
        let mut high_correct = 0;
        let trials = 10;
        for _ in 0..trials {
            if lifted.decide(&low, &mut rng).unwrap() {
                low_correct += 1;
            }
            if !lifted.decide(&high, &mut rng).unwrap() {
                high_correct += 1;
            }
        }
        assert!(low_correct >= 8, "low: {low_correct}/{trials}");
        assert!(high_correct >= 8, "high: {high_correct}/{trials}");
    }
}
