//! Algorithm 1 assembled: the paper's tester for the class `H_k`.
//!
//! ```text
//! 1.  b = 20·k·log k / ε
//! 2.  ApproxPart(b)            -> partition I (K intervals)    [Prop 3.4]
//! 3.  Learner(K, ε/60, I)      -> hypothesis D̂ ∈ H_K           [Lemma 3.5]
//! 4.  Sieve                    -> discard O(k log k) intervals  [§3.2.1]
//! 5.  Check ∃D*∈H_k close to D̂ on G, else reject       [CDGR16 Lem 4.11]
//! 6.  ADK χ² test of D vs D̂ on G at ε' = 13ε/30         [Thm 3.2]
//! ```
//!
//! Sample complexity `O(√n/ε²·log k + k/ε³·log²k + (k/ε)·log(k/ε))`
//! (Theorem 3.1); running time `√n·poly(log k, 1/ε) + poly(k, 1/ε)`.

use crate::adk::ChiSquareTest;
use crate::approx_part::approx_part;
use crate::config::TesterConfig;
use crate::learner::learn;
use crate::sieve::{sieve, SieveOutcome};
use crate::{validate_params, Decision, Tester};
use histo_core::dp::check_close_to_hk;
use histo_core::{HistoError, KHistogram};
use histo_sampling::oracle::SampleOracle;
use histo_stats::PortableRng;
use histo_trace::{Stage, Value};
use std::fmt;

/// Stage toggles for ablation studies (experiment A1): disabling a stage
/// shows what it buys. Defaults to everything enabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ablation {
    /// Run the sieving stage (Section 3.2.1). Without it, breakpoint
    /// intervals poison the final χ² test and completeness collapses.
    pub sieve: bool,
    /// Run the Check step (Step 10). Without it, hypotheses far from `H_k`
    /// but close to `D` are accepted and soundness collapses on
    /// many-pieces instances.
    pub check: bool,
    /// Restrict the final test to `A_ε` (the light-element cutoff of
    /// Proposition 3.3). Without it, near-zero hypothesis masses blow up
    /// the statistic's variance.
    pub aeps_cutoff: bool,
}

impl Default for Ablation {
    fn default() -> Self {
        Self {
            sieve: true,
            check: true,
            aeps_cutoff: true,
        }
    }
}

/// The paper's tester (Algorithm 1), parameterized by a [`TesterConfig`].
#[derive(Debug, Clone, Default)]
pub struct HistogramTester {
    config: TesterConfig,
    ablation: Ablation,
}

/// A pipeline failure attributed to the stage it occurred in, as returned
/// by [`HistogramTester::try_test_traced`]. The resilient runtime
/// (`crate::robust`) uses the attribution to report *where* a budget ran
/// out or a parameter check failed.
#[derive(Debug, Clone, PartialEq)]
pub struct StageError {
    /// Stable stage name — matches [`Stage::name`] for the five pipeline
    /// stages, or `"params"` for up-front parameter validation.
    pub stage: &'static str,
    /// The underlying error.
    pub error: HistoError,
}

impl fmt::Display for StageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "stage {}: {}", self.stage, self.error)
    }
}

impl std::error::Error for StageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

/// A trace of one run of Algorithm 1, for the experiment harness and
/// debugging.
#[derive(Debug, Clone)]
pub struct TesterTrace {
    /// The final decision.
    pub decision: Decision,
    /// Which step decided: `"sieve"`, `"check"`, `"chi2"`, or `"accept"`.
    pub decided_by: &'static str,
    /// Size `K` of the ApproxPart partition.
    pub partition_size: usize,
    /// The sieve outcome.
    pub sieve: Option<SieveOutcome>,
    /// The learned hypothesis.
    pub hypothesis: Option<KHistogram>,
    /// Samples drawn in total (as counted by the oracle delta).
    pub samples_used: u64,
}

impl HistogramTester {
    /// A tester with the given constants.
    pub fn new(config: TesterConfig) -> Self {
        Self {
            config,
            ablation: Ablation::default(),
        }
    }

    /// Disables stages for ablation studies.
    pub fn with_ablation(mut self, ablation: Ablation) -> Self {
        self.ablation = ablation;
        self
    }

    /// The paper's constants (Theorem 3.1 exactly).
    pub fn paper() -> Self {
        Self::new(TesterConfig::paper())
    }

    /// Calibrated constants for laptop-scale experiments.
    pub fn practical() -> Self {
        Self::new(TesterConfig::practical())
    }

    /// The configuration in use.
    pub fn config(&self) -> &TesterConfig {
        &self.config
    }

    /// Runs the algorithm and returns the full trace.
    ///
    /// # Errors
    ///
    /// Propagates parameter-validation errors and oracle failures
    /// (stripping the stage attribution of
    /// [`HistogramTester::try_test_traced`]).
    pub fn test_traced(
        &self,
        oracle: &mut dyn SampleOracle,
        k: usize,
        epsilon: f64,
        rng: &mut PortableRng,
    ) -> histo_core::Result<TesterTrace> {
        self.try_test_traced(oracle, k, epsilon, rng)
            .map_err(|e| e.error)
    }

    /// Runs the algorithm with stage-attributed errors: every failure —
    /// parameter validation, a budget-capped oracle refusing a draw
    /// ([`HistoError::OracleExhausted`]), a degenerate statistic — is
    /// tagged with the pipeline stage it occurred in. Identical to
    /// [`HistogramTester::test_traced`] in every other respect (same draw
    /// order, same RNG consumption, same trace events).
    ///
    /// All five subroutines use the oracle's fallible `try_*` draw path
    /// and close their stage spans before propagating an error, so an
    /// attached tracer stays span-balanced across failures.
    ///
    /// # Errors
    ///
    /// Returns a [`StageError`] naming the failing stage.
    pub fn try_test_traced(
        &self,
        oracle: &mut dyn SampleOracle,
        k: usize,
        epsilon: f64,
        rng: &mut PortableRng,
    ) -> Result<TesterTrace, StageError> {
        let at = |stage: &'static str| move |error: HistoError| StageError { stage, error };
        let n = oracle.n();
        validate_params(n, k, epsilon).map_err(at("params"))?;
        let start = oracle.samples_drawn();
        let cfg = &self.config;

        // Steps 1–3: ApproxPart.
        let b = cfg.b(k, epsilon).max(1.0);
        let ap_samples = cfg.approx_part_samples(b);
        let partition = approx_part(&mut *oracle, b, ap_samples, rng)
            .map_err(at(Stage::ApproxPart.name()))?
            .partition;
        let partition_size = partition.len();

        // Step 4: Learner.
        let eps_learn = epsilon / cfg.learner_eps_divisor;
        let m_learn = cfg.learner_samples(partition_size, eps_learn);
        let d_hat =
            learn(&mut *oracle, &partition, m_learn, rng).map_err(at(Stage::Learner.name()))?;

        // Steps 6–8: Sieve (skippable for ablation).
        let sieve_out = if self.ablation.sieve {
            sieve(&mut *oracle, &d_hat, k, epsilon, cfg, rng).map_err(at(Stage::Sieve.name()))?
        } else {
            SieveOutcome {
                rejected: false,
                discarded: vec![],
                rounds_used: 0,
                early_accept: false,
            }
        };
        if sieve_out.rejected {
            oracle.trace_counter("decided_by", Value::Str("sieve"));
            oracle.trace_counter("accepted", Value::Bool(false));
            return Ok(TesterTrace {
                decision: Decision::Reject,
                decided_by: "sieve",
                partition_size,
                sieve: Some(sieve_out),
                hypothesis: Some(d_hat),
                samples_used: oracle.samples_drawn() - start,
            });
        }
        let surviving = sieve_out.surviving(partition_size);

        // Step 10: Check — some D* ∈ H_k must be close to D̂ on G. Draws
        // no samples, but runs inside a span so the trace carries its wall
        // time alongside the sampling stages.
        let mut counted = vec![false; partition_size];
        for &j in &surviving {
            counted[j] = true;
        }
        oracle.trace_enter(Stage::Check);
        let check_res = if self.ablation.check {
            check_close_to_hk(&d_hat, &counted, k, epsilon / cfg.check_divisor)
        } else {
            Ok(true)
        };
        if let Ok(ok) = &check_res {
            oracle.trace_counter("check_ok", Value::Bool(*ok));
        }
        oracle.trace_exit();
        if !check_res.map_err(at(Stage::Check.name()))? {
            oracle.trace_counter("decided_by", Value::Str("check"));
            oracle.trace_counter("accepted", Value::Bool(false));
            return Ok(TesterTrace {
                decision: Decision::Reject,
                decided_by: "check",
                partition_size,
                sieve: Some(sieve_out),
                hypothesis: Some(d_hat),
                samples_used: oracle.samples_drawn() - start,
            });
        }

        // Steps 12–13: final χ² test on the surviving domain.
        let eps_prime = cfg.final_eps_factor * epsilon;
        let mut cfg_final = *cfg;
        if !self.ablation.aeps_cutoff {
            cfg_final.aeps_fraction = 0.0;
        }
        let chi2 = ChiSquareTest::restricted(d_hat.clone(), surviving, eps_prime, &cfg_final)
            .map_err(at(Stage::AdkTest.name()))?;
        let decision = chi2
            .try_run(&mut *oracle, rng)
            .map_err(at(Stage::AdkTest.name()))?;
        let decided_by = if decision.accepted() {
            "accept"
        } else {
            "chi2"
        };
        oracle.trace_counter("decided_by", Value::Str(decided_by));
        oracle.trace_counter("accepted", Value::Bool(decision.accepted()));
        Ok(TesterTrace {
            decision,
            decided_by,
            partition_size,
            sieve: Some(sieve_out),
            hypothesis: Some(d_hat),
            samples_used: oracle.samples_drawn() - start,
        })
    }
}

impl Tester for HistogramTester {
    fn name(&self) -> &'static str {
        "canonne-histogram-tester"
    }

    fn test(
        &self,
        oracle: &mut dyn SampleOracle,
        k: usize,
        epsilon: f64,
        rng: &mut PortableRng,
    ) -> histo_core::Result<Decision> {
        Ok(self.test_traced(oracle, k, epsilon, rng)?.decision)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use histo_core::Distribution;
    use histo_sampling::generators::{
        amplitude_for_certified_distance, random_k_histogram, sawtooth_perturbation, staircase,
    };
    use histo_sampling::DistOracle;

    fn acceptance_rate(d: &Distribution, k: usize, eps: f64, trials: usize, seed: u64) -> f64 {
        let tester = HistogramTester::practical();
        let mut rng = PortableRng::seed_from(seed);
        let mut accepts = 0usize;
        for _ in 0..trials {
            let mut o = DistOracle::new(d.clone()).with_fast_poissonization();
            if tester.test(&mut o, k, eps, &mut rng).unwrap().accepted() {
                accepts += 1;
            }
        }
        accepts as f64 / trials as f64
    }

    #[test]
    fn accepts_uniform_as_one_histogram() {
        let d = Distribution::uniform(500).unwrap();
        let rate = acceptance_rate(&d, 1, 0.3, 20, 61);
        assert!(rate >= 0.8, "acceptance rate {rate}");
    }

    #[test]
    fn accepts_staircase_member() {
        let d = staircase(600, 4).unwrap().to_distribution().unwrap();
        let rate = acceptance_rate(&d, 4, 0.3, 20, 67);
        assert!(rate >= 0.75, "acceptance rate {rate}");
    }

    #[test]
    fn accepts_random_histograms() {
        let mut rng = PortableRng::seed_from(71);
        for _ in 0..3 {
            let h = random_k_histogram(400, 5, &mut rng).unwrap();
            let d = h.to_distribution().unwrap();
            let rate = acceptance_rate(&d, 5, 0.35, 12, 73);
            assert!(rate >= 0.7, "acceptance rate {rate}");
        }
    }

    #[test]
    fn rejects_certified_far_instance() {
        let base = staircase(600, 3).unwrap();
        let eps = 0.3;
        let c = amplitude_for_certified_distance(&base, 3, eps).unwrap();
        let mut rng = PortableRng::seed_from(79);
        let inst = sawtooth_perturbation(&base, 3, c.min(0.95), &mut rng).unwrap();
        assert!(inst.tv_to_hk_lower >= eps - 1e-9);
        let rate = acceptance_rate(&inst.dist, 3, eps, 20, 83);
        assert!(
            rate <= 0.25,
            "acceptance rate {rate} on a certified far instance"
        );
    }

    #[test]
    fn rejects_zigzag_far_from_one_histogram() {
        // Alternating heavy/light: far from uniform = H_1.
        let n = 400;
        let d = Distribution::from_weights(
            (0..n).map(|i| if i % 2 == 0 { 1.7 } else { 0.3 }).collect(),
        )
        .unwrap();
        let rate = acceptance_rate(&d, 1, 0.3, 20, 89);
        assert!(rate <= 0.25, "acceptance rate {rate}");
    }

    #[test]
    fn trace_reports_sample_usage_and_stage() {
        let d = Distribution::uniform(300).unwrap();
        let tester = HistogramTester::practical();
        let mut rng = PortableRng::seed_from(97);
        let mut o = DistOracle::new(d).with_fast_poissonization();
        let trace = tester.test_traced(&mut o, 2, 0.4, &mut rng).unwrap();
        assert!(trace.samples_used > 0);
        assert_eq!(trace.samples_used, o.samples_drawn());
        assert!(trace.partition_size >= 1);
        assert!(["sieve", "check", "chi2", "accept"].contains(&trace.decided_by));
        assert!(trace.hypothesis.is_some());
    }

    #[test]
    fn scoped_run_ledger_sums_to_samples_drawn() {
        use histo_sampling::ScopedOracle;
        use histo_trace::{MemorySink, Stage, TraceEvent, Tracer};

        let d = Distribution::uniform(300).unwrap();
        let tester = HistogramTester::practical();
        let mut rng = PortableRng::seed_from(97);
        let mut inner = DistOracle::new(d).with_fast_poissonization();
        let sink = MemorySink::new();
        let handle = sink.handle();
        let mut o =
            ScopedOracle::with_tracer(&mut inner, Tracer::new(Box::new(sink)).without_timing());
        let trace = tester.test_traced(&mut o, 2, 0.4, &mut rng).unwrap();
        let total = o.samples_drawn();
        let ledger = o.finish().unwrap();

        // The defining invariant: the per-stage ledger partitions the
        // oracle's total draw count, with nothing unattributed — every
        // draw of Algorithm 1 happens inside a stage span.
        assert_eq!(ledger.total(), total);
        assert_eq!(trace.samples_used, total);
        assert_eq!(ledger.unattributed(), 0);
        let sum: u64 = ledger.entries().iter().map(|(_, s)| s).sum();
        assert_eq!(sum, total);
        assert!(ledger.stage_total(Stage::ApproxPart) > 0);
        assert!(ledger.stage_total(Stage::Learner) > 0);
        assert!(ledger.stage_total(Stage::Sieve) > 0);

        // The emitted stream agrees with the ledger and is span-balanced.
        let events = handle.events();
        let from_exits: u64 = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::StageExit { samples, .. } => Some(*samples),
                _ => None,
            })
            .sum();
        assert_eq!(from_exits, total);
        let mut depth = 0i64;
        for e in &events {
            match e {
                TraceEvent::StageEnter { .. } => depth += 1,
                TraceEvent::StageExit { .. } => {
                    depth -= 1;
                    assert!(depth >= 0, "exit without matching enter");
                }
                _ => {}
            }
        }
        assert_eq!(depth, 0, "unbalanced spans in emitted stream");
    }

    #[test]
    fn invalid_parameters_error() {
        let d = Distribution::uniform(10).unwrap();
        let tester = HistogramTester::practical();
        let mut rng = PortableRng::seed_from(101);
        let mut o = DistOracle::new(d);
        assert!(tester.test(&mut o, 0, 0.5, &mut rng).is_err());
        assert!(tester.test(&mut o, 1, 2.0, &mut rng).is_err());
        assert!(tester.test(&mut o, 11, 0.5, &mut rng).is_err());
    }

    #[test]
    fn k_larger_than_pieces_still_accepts() {
        // Testing H_6 on a 3-histogram must accept (H_3 ⊂ H_6).
        let d = staircase(600, 3).unwrap().to_distribution().unwrap();
        let rate = acceptance_rate(&d, 6, 0.3, 15, 103);
        assert!(rate >= 0.75, "acceptance rate {rate}");
    }
}
