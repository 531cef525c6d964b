//! Robust-runtime determinism suite.
//!
//! The acceptance bar for the resilient runtime is *exact* transparency:
//! with `FaultPlan::none()`, the `FaultyOracle` + `RobustRunner` stack
//! must reproduce the bare `HistogramTester` bitwise — same decision,
//! same draw count, same per-stage sample ledger, same timing-free trace
//! bytes. The same holds with runner options armed that never fire: a deadline on a
//! fake clock that never expires, deadlines on the real clock at
//! `u64::MAX`, and a `u64::MAX` budget. And a budget cap far below the
//! tester's requirement must degrade to a structured `Inconclusive`,
//! never a panic or a silent coin flip.

use histo_faults::{FaultPlan, FaultyOracle};
use histo_sampling::generators::staircase;
use histo_sampling::{DistOracle, SampleOracle, ScopedOracle};
use histo_stats::PortableRng;
use histo_testers::deadline::DeadlineOracle;
use histo_testers::histogram_tester::HistogramTester;
use histo_testers::robust::{InconclusiveReason, Outcome, RobustRunner};
use histo_trace::{JsonlSink, ManualClock, SampleLedger, SharedBuffer, Tracer};

fn instance(accept_side: bool) -> histo_core::Distribution {
    if accept_side {
        staircase(600, 3).unwrap().to_distribution().unwrap()
    } else {
        histo_core::Distribution::from_weights(
            (0..600)
                .map(|i| if i % 7 == 0 { 5.0 } else { 1.0 })
                .collect(),
        )
        .unwrap()
    }
}

/// (accepted, draws, per-stage ledger, rendered trace bytes).
type Fingerprint = (bool, u64, SampleLedger, Vec<u8>);

/// The bare tester on the fixed instance/seed.
fn plain_run(accept_side: bool) -> Fingerprint {
    let mut rng = PortableRng::seed_from(1234);
    let mut inner = DistOracle::new(instance(accept_side)).with_fast_poissonization();
    let buf = SharedBuffer::new();
    let tracer = Tracer::new(Box::new(JsonlSink::new(buf.clone()))).without_timing();
    let mut oracle = ScopedOracle::with_tracer(&mut inner, tracer);
    let trace = HistogramTester::practical()
        .test_traced(&mut oracle, 3, 0.3, &mut rng)
        .unwrap();
    let drawn = oracle.samples_drawn();
    let ledger = oracle.finish().unwrap();
    (trace.decision.accepted(), drawn, ledger, buf.contents())
}

/// Runner options that are armed but never fire.
#[derive(Debug, Clone, Copy)]
enum Armed {
    /// Nothing armed: the runner's defaults.
    Nothing,
    /// Run and stage deadlines on a fake clock that never reaches them.
    FakeClockDeadline,
    /// Run and stage deadlines of `u64::MAX` µs on the real clock.
    RunnerDeadlines,
    /// A `u64::MAX` sample budget.
    MaxBudget,
}

/// The full resilient stack — `FaultyOracle(FaultPlan::none())` over a
/// traced oracle, driven by `RobustRunner` with `armed` — on the same
/// instance/seed.
fn robust_run(accept_side: bool, armed: Armed) -> Fingerprint {
    let mut rng = PortableRng::seed_from(1234);
    let mut inner = DistOracle::new(instance(accept_side)).with_fast_poissonization();
    let buf = SharedBuffer::new();
    let tracer = Tracer::new(Box::new(JsonlSink::new(buf.clone()))).without_timing();
    let scoped = ScopedOracle::with_tracer(&mut inner, tracer);
    let mut oracle = DeadlineOracle::new(FaultyOracle::new(scoped, FaultPlan::none()));
    let mut runner = RobustRunner::new(HistogramTester::practical());
    match armed {
        Armed::Nothing => {}
        Armed::FakeClockDeadline => {
            // Each clock read advances 1 s; the pipeline makes far fewer
            // than 10^6 fallible draw calls.
            oracle = oracle
                .with_run_deadline_us(1_000_000_000_000)
                .with_stage_deadline_us(1_000_000_000_000)
                .with_clock(Box::new(ManualClock::with_step(1_000_000)));
        }
        Armed::RunnerDeadlines => {
            runner = runner
                .with_run_deadline_us(u64::MAX)
                .with_stage_deadline_us(u64::MAX);
        }
        Armed::MaxBudget => runner = runner.with_budget(u64::MAX),
    }
    let outcome = runner.run(&mut oracle, 3, 0.3, &mut rng).unwrap();
    let decision = outcome
        .decision()
        .expect("fault-free run must be conclusive");
    let oracle = oracle.into_inner();
    assert_eq!(
        oracle.counters().total(),
        0,
        "no faults may fire under none()"
    );
    let drawn = oracle.samples_drawn();
    let ledger = oracle.into_inner().finish().unwrap();
    (decision.accepted(), drawn, ledger, buf.contents())
}

#[test]
fn robust_stack_is_transparent() {
    for accept_side in [true, false] {
        let plain = plain_run(accept_side);
        // The two sides genuinely exercise both decision paths.
        assert_eq!(plain.0, accept_side, "accept_side={accept_side}");
        for armed in [
            Armed::Nothing,
            Armed::FakeClockDeadline,
            Armed::RunnerDeadlines,
            Armed::MaxBudget,
        ] {
            let robust = robust_run(accept_side, armed);
            assert_eq!(
                robust, plain,
                "robust stack ({armed:?}) diverged from bare tester \
                 (accept_side={accept_side})"
            );
        }
    }

    // Starved budget: far below the Theorem 1.1 requirement, the runner
    // must come back Inconclusive with the budget reason and the failing
    // stage — not panic, not guess.
    let mut rng = PortableRng::seed_from(1234);
    let mut inner = DistOracle::new(instance(true)).with_fast_poissonization();
    let scoped = ScopedOracle::with_tracer(&mut inner, Tracer::default().without_timing());
    let mut oracle = FaultyOracle::new(scoped, FaultPlan::none());
    let outcome = RobustRunner::new(HistogramTester::practical())
        .with_budget(100)
        .run(&mut oracle, 3, 0.3, &mut rng)
        .unwrap();
    match outcome {
        Outcome::Inconclusive { reason, stage, .. } => {
            assert!(
                matches!(
                    reason,
                    InconclusiveReason::BudgetExhausted { budget: 100, .. }
                ),
                "unexpected reason: {reason:?}"
            );
            assert_eq!(stage, Some("approx_part"));
        }
        other => panic!("expected Inconclusive under a starved budget, got {other:?}"),
    }
    // A plan-level budget (enforced inside the fault layer rather than by
    // the runner) degrades the same way.
    let mut rng = PortableRng::seed_from(1234);
    let mut inner = DistOracle::new(instance(true)).with_fast_poissonization();
    let scoped = ScopedOracle::with_tracer(&mut inner, Tracer::default().without_timing());
    let mut oracle = FaultyOracle::new(scoped, FaultPlan::none().with_budget(100));
    let outcome = RobustRunner::new(HistogramTester::practical())
        .run(&mut oracle, 3, 0.3, &mut rng)
        .unwrap();
    assert!(
        !outcome.is_conclusive(),
        "plan budget must degrade gracefully, got {outcome:?}"
    );
    assert!(oracle.counters().budget_hits > 0);
}
