//! The resilient tester runtime: graceful degradation under hostile
//! oracles.
//!
//! [`RobustRunner`] wraps [`HistogramTester`] with four defenses the bare
//! pipeline does not have:
//!
//! 1. **Hard budget enforcement** — an optional total sample cap, split
//!    cumulatively across retry rounds and enforced through
//!    [`BudgetedOracle`]. A round that hits the cap yields a typed
//!    [`HistoError::OracleExhausted`] instead of panicking.
//! 2. **Deterministic retry-with-amplification** — `retries` independent
//!    rounds combined by strict majority vote (the standard success
//!    amplification of `histo_stats::amplify`), with early exit once a
//!    majority is mathematically locked in. No wall clocks: the schedule
//!    is a pure function of the round index, so the runtime stays
//!    byte-deterministic.
//! 3. **Wall-clock deadlines** — optional run and stage deadlines,
//!    enforced through [`DeadlineOracle`], which checks the clock when each
//!    draw call starts. An overrun (a typed
//!    [`HistoError::DeadlineExceeded`]) ends the run immediately with
//!    [`InconclusiveReason::DeadlineExceeded`] and the partial ledger.
//! 4. **Panic isolation** — each round runs under
//!    [`std::panic::catch_unwind`]. A panic (e.g. a bug in a user-supplied
//!    oracle) is converted into a structured failure; any stage
//!    spans left open on an attached tracer are closed so the trace stream
//!    and [`SampleLedger`] stay balanced.
//!
//! The result is an [`Outcome`]: `Conclusive(Decision)` when a majority of
//! rounds agree, or `Inconclusive { reason, stage, partial_ledger }` when
//! the runtime cannot honestly decide — never a silent coin flip.
//!
//! Budget, retries and deadlines are all off by default. With the
//! defaults — or with options that never fire, such as a budget or a
//! deadline that is never reached — the runner is bitwise identical to
//! [`HistogramTester::test_traced`]: same draw order, same RNG
//! consumption, same trace bytes (the determinism suite pins this).

use crate::deadline::DeadlineOracle;
use crate::histogram_tester::{HistogramTester, StageError};
use crate::Decision;
use histo_core::HistoError;
use histo_sampling::oracle::SampleOracle;
use histo_sampling::BudgetedOracle;
use histo_stats::PortableRng;
use histo_trace::SampleLedger;
use std::any::Any;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Why a run ended [`Outcome::Inconclusive`].
#[derive(Debug, Clone, PartialEq)]
pub enum InconclusiveReason {
    /// The sample budget ran out before any round could finish.
    BudgetExhausted {
        /// The cap the refusing oracle was enforcing when it gave up.
        budget: u64,
        /// Draws already consumed against that cap.
        drawn: u64,
    },
    /// A pipeline stage panicked and was isolated.
    StagePanicked {
        /// The panic payload, stringified.
        message: String,
    },
    /// All rounds completed or failed without a strict majority forming.
    NoQuorum {
        /// Rounds that voted accept.
        accepts: usize,
        /// Rounds that voted reject.
        rejects: usize,
        /// Rounds that failed (budget or panic) and cast no vote.
        failed_rounds: usize,
    },
    /// The run overran its wall-clock deadline (a [`DeadlineOracle`]
    /// refused a draw). Terminal: the run ends immediately rather than
    /// retrying against a clock that has already expired.
    DeadlineExceeded {
        /// The deadline, in microseconds.
        deadline_us: u64,
        /// Clock time elapsed when the overrun was detected.
        elapsed_us: u64,
    },
}

impl fmt::Display for InconclusiveReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InconclusiveReason::BudgetExhausted { budget, drawn } => {
                write!(f, "sample budget exhausted ({drawn} of {budget} drawn)")
            }
            InconclusiveReason::StagePanicked { message } => {
                write!(f, "stage panicked: {message}")
            }
            InconclusiveReason::NoQuorum {
                accepts,
                rejects,
                failed_rounds,
            } => write!(
                f,
                "no quorum: {accepts} accept, {rejects} reject, {failed_rounds} failed"
            ),
            InconclusiveReason::DeadlineExceeded {
                deadline_us,
                elapsed_us,
            } => write!(
                f,
                "deadline exceeded ({elapsed_us} us elapsed of a {deadline_us} us budget)"
            ),
        }
    }
}

/// The result of a [`RobustRunner`] run.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// A strict majority of rounds agreed on a decision.
    Conclusive(Decision),
    /// The runtime could not honestly decide.
    Inconclusive {
        /// Why no decision was reached.
        reason: InconclusiveReason,
        /// The pipeline stage of the last failure, when attributable
        /// (matches `Stage::name()` of the five pipeline stages, or
        /// `"params"`).
        stage: Option<&'static str>,
        /// Stage-attributed draw counts up to the point of failure, taken
        /// from the oracle's attached tracer (empty without one). The
        /// samples are spent either way; this says where they went.
        partial_ledger: SampleLedger,
    },
}

impl Outcome {
    /// The decision, if conclusive.
    pub fn decision(&self) -> Option<Decision> {
        match self {
            Outcome::Conclusive(d) => Some(*d),
            Outcome::Inconclusive { .. } => None,
        }
    }

    /// `true` iff a decision was reached.
    pub fn is_conclusive(&self) -> bool {
        matches!(self, Outcome::Conclusive(_))
    }
}

/// One round's failure, before aggregation.
enum RoundFailure {
    /// The budget cap refused a draw mid-stage.
    Exhausted {
        stage: &'static str,
        budget: u64,
        drawn: u64,
    },
    /// The round panicked and was isolated.
    Panicked {
        stage: Option<&'static str>,
        message: String,
    },
    /// A wall-clock deadline expired mid-stage. Terminal: ends the whole
    /// run as `Inconclusive` without burning retries against a dead clock.
    Deadline {
        stage: &'static str,
        deadline_us: u64,
        elapsed_us: u64,
    },
    /// A non-recoverable error (bad parameters, degenerate data):
    /// retrying cannot help, so it propagates as a hard `Err`.
    Fatal(HistoError),
}

/// Resilient wrapper around [`HistogramTester`]: budget caps, majority
/// retries, wall-clock deadlines, panic isolation. See the module docs for
/// the semantics.
#[derive(Debug, Clone)]
pub struct RobustRunner {
    tester: HistogramTester,
    budget: Option<u64>,
    retries: usize,
    run_deadline_us: Option<u64>,
    stage_deadline_us: Option<u64>,
}

impl RobustRunner {
    /// Wraps `tester` with no budget cap, a single round, and no deadlines
    /// — in this configuration the runner is bitwise identical to the bare
    /// tester.
    pub fn new(tester: HistogramTester) -> Self {
        Self {
            tester,
            budget: None,
            retries: 1,
            run_deadline_us: None,
            stage_deadline_us: None,
        }
    }

    /// Sets a hard cap on total draws across all rounds. Round `r` of `R`
    /// may take cumulative usage up to `budget·(r+1)/R`, so leftover from
    /// a cheap early round rolls forward instead of being stranded.
    pub fn with_budget(mut self, budget: u64) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Sets the number of majority-vote rounds (clamped to at least 1;
    /// use an odd number so a tie is impossible when every round votes).
    pub fn with_retries(mut self, retries: usize) -> Self {
        self.retries = retries.max(1);
        self
    }

    /// Sets the whole-run deadline: microseconds of wall clock from the
    /// first guarded draw, shared by all rounds.
    pub fn with_run_deadline_us(mut self, us: u64) -> Self {
        self.run_deadline_us = Some(us);
        self
    }

    /// Sets the per-stage deadline: microseconds of wall clock since the
    /// current pipeline stage (read from the oracle's tracer) last
    /// changed.
    pub fn with_stage_deadline_us(mut self, us: u64) -> Self {
        self.stage_deadline_us = Some(us);
        self
    }

    /// The wrapped tester.
    pub fn tester(&self) -> &HistogramTester {
        &self.tester
    }

    /// Runs up to `retries` rounds of the tester and aggregates by strict
    /// majority.
    ///
    /// # Errors
    ///
    /// Returns `Err` only for non-recoverable errors — invalid `(k, ε)`
    /// parameters or degenerate data — where retrying cannot help.
    /// Budget exhaustion, deadline overruns and panics are *not* errors;
    /// they degrade to [`Outcome::Inconclusive`].
    pub fn run(
        &self,
        oracle: &mut dyn SampleOracle,
        k: usize,
        epsilon: f64,
        rng: &mut PortableRng,
    ) -> Result<Outcome, HistoError> {
        crate::validate_params(oracle.n(), k, epsilon)?;
        // Unarmed, the guard never reads its clock: a pure pass-through.
        let mut guarded = DeadlineOracle::new(oracle);
        if let Some(us) = self.run_deadline_us {
            guarded = guarded.with_run_deadline_us(us);
        }
        if let Some(us) = self.stage_deadline_us {
            guarded = guarded.with_stage_deadline_us(us);
        }
        let oracle: &mut dyn SampleOracle = &mut guarded;

        let rounds = self.retries;
        let run_start = oracle.samples_drawn();
        let (mut accepts, mut rejects, mut failed) = (0usize, 0usize, 0usize);
        let mut last_failure = None;
        for round in 0..rounds {
            let result = match self.budget {
                None => self.round(&mut *oracle, k, epsilon, rng),
                Some(total) => {
                    let allowance = ((total as u128 * (round as u128 + 1)) / rounds as u128) as u64;
                    let used = oracle.samples_drawn() - run_start;
                    let mut capped =
                        BudgetedOracle::new(&mut *oracle, allowance.saturating_sub(used));
                    self.round(&mut capped, k, epsilon, rng)
                }
            };
            match result {
                Ok(decision) => {
                    if decision.accepted() {
                        accepts += 1;
                    } else {
                        rejects += 1;
                    }
                }
                Err(RoundFailure::Fatal(e)) => return Err(e),
                Err(RoundFailure::Deadline {
                    stage,
                    deadline_us,
                    elapsed_us,
                }) => {
                    // The clock is shared across rounds: retrying cannot
                    // produce a verdict before a deadline that has already
                    // passed, so end the run here, honestly.
                    return Ok(Outcome::Inconclusive {
                        reason: InconclusiveReason::DeadlineExceeded {
                            deadline_us,
                            elapsed_us,
                        },
                        stage: Some(stage),
                        partial_ledger: partial_ledger(oracle),
                    });
                }
                Err(RoundFailure::Exhausted {
                    stage,
                    budget,
                    drawn,
                }) => {
                    failed += 1;
                    last_failure = Some((
                        InconclusiveReason::BudgetExhausted { budget, drawn },
                        Some(stage),
                    ));
                }
                Err(RoundFailure::Panicked { stage, message }) => {
                    failed += 1;
                    last_failure = Some((InconclusiveReason::StagePanicked { message }, stage));
                }
            }
            // Strict majority locked in: remaining rounds cannot flip it.
            if 2 * accepts > rounds {
                return Ok(Outcome::Conclusive(Decision::Accept));
            }
            if 2 * rejects > rounds {
                return Ok(Outcome::Conclusive(Decision::Reject));
            }
        }

        // No quorum. If no round managed to vote at all, the last failure
        // is the whole story; otherwise report the vote split.
        let (reason, stage) = match last_failure {
            Some(failure) if accepts == 0 && rejects == 0 => failure,
            _ => (
                InconclusiveReason::NoQuorum {
                    accepts,
                    rejects,
                    failed_rounds: failed,
                },
                None,
            ),
        };
        Ok(Outcome::Inconclusive {
            reason,
            stage,
            partial_ledger: partial_ledger(oracle),
        })
    }

    /// One isolated round: the tester under `catch_unwind`, with
    /// post-panic span repair on the attached tracer.
    fn round(
        &self,
        oracle: &mut dyn SampleOracle,
        k: usize,
        epsilon: f64,
        rng: &mut PortableRng,
    ) -> Result<Decision, RoundFailure> {
        let result = catch_unwind(AssertUnwindSafe(|| {
            self.tester
                .try_test_traced(&mut *oracle, k, epsilon, &mut *rng)
        }));
        match result {
            Ok(Ok(trace)) => Ok(trace.decision),
            Ok(Err(StageError {
                stage,
                error: HistoError::OracleExhausted { budget, drawn },
            })) => Err(RoundFailure::Exhausted {
                stage,
                budget,
                drawn,
            }),
            Ok(Err(StageError {
                stage,
                error:
                    HistoError::DeadlineExceeded {
                        deadline_us,
                        elapsed_us,
                    },
            })) => Err(RoundFailure::Deadline {
                stage,
                deadline_us,
                elapsed_us,
            }),
            Ok(Err(StageError { error, .. })) => Err(RoundFailure::Fatal(error)),
            Err(payload) => {
                // The panic unwound out of a stage: note where we were,
                // then close the orphaned spans so the trace stream (and
                // a later `Tracer::finish`) stays balanced.
                let stage = oracle
                    .tracer()
                    .and_then(|t| t.current_stage())
                    .map(|s| s.name());
                if let Some(t) = oracle.tracer() {
                    while t.open_spans() > 0 {
                        t.exit();
                    }
                }
                Err(RoundFailure::Panicked {
                    stage,
                    message: panic_message(payload),
                })
            }
        }
    }
}

/// Stage-attributed draws so far, from the oracle's attached tracer
/// (empty without one).
fn partial_ledger(oracle: &mut dyn SampleOracle) -> SampleLedger {
    oracle
        .tracer()
        .map(|t| t.ledger().clone())
        .unwrap_or_default()
}

/// Stringifies a panic payload (the two shapes `panic!` produces).
fn panic_message(payload: Box<dyn Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(payload) => match payload.downcast::<&'static str>() {
            Ok(s) => (*s).to_string(),
            Err(_) => "non-string panic payload".to_string(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use histo_core::Distribution;
    use histo_sampling::{DistOracle, ScopedOracle};
    use histo_trace::Tracer;

    /// Delegates to a real oracle but panics on exactly one draw index,
    /// exercising panic isolation and (on retry) recovery.
    struct FlakyOracle {
        inner: DistOracle,
        panic_at: u64,
    }

    impl SampleOracle for FlakyOracle {
        fn n(&self) -> usize {
            self.inner.n()
        }
        fn samples_drawn(&self) -> u64 {
            self.inner.samples_drawn()
        }
        fn try_draw(&mut self, rng: &mut PortableRng) -> Result<usize, HistoError> {
            if self.inner.samples_drawn() + 1 == self.panic_at {
                // Still consume the draw so retries move past the fault.
                self.inner.try_draw(rng)?;
                panic!("injected flake at draw {}", self.panic_at);
            }
            self.inner.try_draw(rng)
        }
    }

    #[test]
    fn defaults_are_identical_to_bare_tester() {
        let d = Distribution::uniform(300).unwrap();
        let tester = HistogramTester::practical();

        let mut o1 = DistOracle::new(d.clone()).with_fast_poissonization();
        let mut rng1 = PortableRng::seed_from(9001);
        let plain = tester.test_traced(&mut o1, 2, 0.4, &mut rng1).unwrap();

        let mut o2 = DistOracle::new(d).with_fast_poissonization();
        let mut rng2 = PortableRng::seed_from(9001);
        let robust = RobustRunner::new(tester.clone())
            .run(&mut o2, 2, 0.4, &mut rng2)
            .unwrap();

        assert_eq!(robust, Outcome::Conclusive(plain.decision));
        assert_eq!(o1.samples_drawn(), o2.samples_drawn());
    }

    #[test]
    fn tiny_budget_degrades_to_inconclusive() {
        let d = Distribution::uniform(300).unwrap();
        let mut o = DistOracle::new(d);
        let mut rng = PortableRng::seed_from(9007);
        let outcome = RobustRunner::new(HistogramTester::practical())
            .with_budget(50)
            .run(&mut o, 2, 0.4, &mut rng)
            .unwrap();
        match outcome {
            Outcome::Inconclusive { reason, stage, .. } => {
                assert!(matches!(
                    reason,
                    InconclusiveReason::BudgetExhausted { budget: 50, .. }
                ));
                assert_eq!(stage, Some("approx_part"));
            }
            other => panic!("expected Inconclusive, got {other:?}"),
        }
        assert!(o.samples_drawn() <= 50, "cap leaked: {}", o.samples_drawn());
    }

    #[test]
    fn budget_inconclusive_carries_partial_ledger() {
        let d = Distribution::uniform(300).unwrap();
        let mut inner = DistOracle::new(d);
        let mut o = ScopedOracle::with_tracer(&mut inner, Tracer::default().without_timing());
        let mut rng = PortableRng::seed_from(9011);
        // 2000 draws cover ApproxPart (~600 here) but not the learner's
        // batch, so the run fails mid-pipeline with work already done.
        let outcome = RobustRunner::new(HistogramTester::practical())
            .with_budget(2000)
            .run(&mut o, 2, 0.4, &mut rng)
            .unwrap();
        let Outcome::Inconclusive {
            partial_ledger,
            stage,
            ..
        } = outcome
        else {
            panic!("2000 draws cannot finish the pipeline");
        };
        assert_eq!(stage, Some("learner"));
        // The draws that did happen stay attributed, the ledger respects
        // the cap, and the tracer survived the failure balanced.
        assert!(partial_ledger.total() > 0);
        assert!(partial_ledger.total() <= 2000);
        assert_eq!(partial_ledger.unattributed(), 0);
        let ledger = o.finish().unwrap(); // would panic on unbalanced spans
        assert_eq!(ledger.total(), partial_ledger.total());
    }

    #[test]
    fn panic_is_isolated_and_spans_repaired() {
        let d = Distribution::uniform(300).unwrap();
        let mut flaky = FlakyOracle {
            inner: DistOracle::new(d),
            panic_at: 10,
        };
        let mut o = ScopedOracle::with_tracer(&mut flaky, Tracer::default().without_timing());
        let mut rng = PortableRng::seed_from(9013);
        let outcome = RobustRunner::new(HistogramTester::practical())
            .run(&mut o, 2, 0.4, &mut rng)
            .unwrap();
        match outcome {
            Outcome::Inconclusive { reason, stage, .. } => {
                match reason {
                    InconclusiveReason::StagePanicked { message } => {
                        assert!(message.contains("injected flake"), "{message}");
                    }
                    other => panic!("expected StagePanicked, got {other:?}"),
                }
                assert_eq!(stage, Some("approx_part"));
            }
            other => panic!("expected Inconclusive, got {other:?}"),
        }
        o.finish().unwrap(); // would panic if the runner left spans open
    }

    #[test]
    fn retries_recover_from_one_flaky_round() {
        let d = Distribution::uniform(300).unwrap();
        let mut o = FlakyOracle {
            inner: DistOracle::new(d),
            panic_at: 10,
        };
        let mut rng = PortableRng::seed_from(9013);
        let outcome = RobustRunner::new(HistogramTester::practical())
            .with_retries(3)
            .run(&mut o, 2, 0.4, &mut rng)
            .unwrap();
        // Round 0 hits the flake; rounds 1 and 2 run clean and agree.
        assert_eq!(outcome, Outcome::Conclusive(Decision::Accept));
    }

    #[test]
    fn invalid_params_are_hard_errors() {
        let d = Distribution::uniform(10).unwrap();
        let mut o = DistOracle::new(d);
        let mut rng = PortableRng::seed_from(9017);
        let runner = RobustRunner::new(HistogramTester::practical());
        assert!(runner.run(&mut o, 0, 0.5, &mut rng).is_err());
        assert!(runner.run(&mut o, 1, 2.0, &mut rng).is_err());
    }

    #[test]
    fn reason_display_is_informative() {
        let r = InconclusiveReason::BudgetExhausted {
            budget: 100,
            drawn: 97,
        };
        assert_eq!(r.to_string(), "sample budget exhausted (97 of 100 drawn)");
        let r = InconclusiveReason::NoQuorum {
            accepts: 1,
            rejects: 1,
            failed_rounds: 1,
        };
        assert_eq!(r.to_string(), "no quorum: 1 accept, 1 reject, 1 failed");
        assert!(Outcome::Conclusive(Decision::Accept).is_conclusive());
        assert_eq!(
            Outcome::Conclusive(Decision::Reject).decision(),
            Some(Decision::Reject)
        );
        let r = InconclusiveReason::DeadlineExceeded {
            deadline_us: 5_000,
            elapsed_us: 6_250,
        };
        assert_eq!(
            r.to_string(),
            "deadline exceeded (6250 us elapsed of a 5000 us budget)"
        );
    }

    #[test]
    fn deadline_failure_ends_the_run_immediately() {
        use histo_trace::ManualClock;
        let d = Distribution::uniform(300).unwrap();
        // Each clock read advances 50 µs, so against a 25 µs budget the
        // second guarded draw call is refused.
        let run = || {
            let mut inner = DistOracle::new(d.clone());
            let mut o = DeadlineOracle::new(&mut inner)
                .with_run_deadline_us(25)
                .with_clock(Box::new(ManualClock::with_step(50)));
            let mut rng = PortableRng::seed_from(9021);
            let outcome = RobustRunner::new(HistogramTester::practical())
                .with_retries(5)
                .run(&mut o, 2, 0.4, &mut rng)
                .unwrap();
            (outcome, inner.samples_drawn())
        };
        let (outcome, drawn) = run();
        match &outcome {
            Outcome::Inconclusive { reason, stage, .. } => {
                // Terminal: a retry would probe the clock again and report
                // a later elapsed time.
                assert_eq!(
                    *reason,
                    InconclusiveReason::DeadlineExceeded {
                        deadline_us: 25,
                        elapsed_us: 50,
                    }
                );
                // The check fires before each fallible call: ApproxPart's one
                // guarded call reads 0 µs, the learner's reads 50 µs and is
                // refused, so the overrun is charged to the learner.
                assert_eq!(*stage, Some("learner"));
            }
            other => panic!("expected Inconclusive, got {other:?}"),
        }
        assert!(drawn > 0, "some work happened first");
        // Deterministic under the manual clock.
        assert_eq!(run(), (outcome, drawn));
    }
}
