//! Budget-exhaustion paths through the pipeline, driven by the
//! deterministic mock oracles (`histo_sampling::mock`) and
//! `BudgetedOracle`.
//!
//! These tests pin the *failure* semantics satellite to the fault layer:
//! which stage a given cap level fails in, that refused batches never
//! un-count consumed draws, that stage spans stay balanced across the
//! error path, that the mocks' script-cycling edge case composes with
//! the cap, and that every wrapper hands an inner exhaustion back typed.

use histo_core::HistoError;
use histo_faults::{FaultPlan, FaultyOracle};
use histo_sampling::mock::{CountsOracle, ScriptedOracle};
use histo_sampling::{BudgetedOracle, DistOracle, SampleOracle, ScopedOracle};
use histo_stats::PortableRng;
use histo_testers::config::TesterConfig;
use histo_testers::deadline::DeadlineOracle;
use histo_testers::histogram_tester::HistogramTester;
use histo_testers::sieve::sieve;
use histo_trace::{MemorySink, Stage, TraceEvent, Tracer};

fn uniform_hypothesis(n: usize, intervals: usize) -> histo_core::KHistogram {
    let d = histo_core::Distribution::uniform(n).unwrap();
    let p = histo_core::Partition::equal_width(n, intervals).unwrap();
    histo_core::KHistogram::flattening_of(&d, &p).unwrap()
}

#[test]
fn sieve_budget_exhaustion_closes_span_and_keeps_draws_counted() {
    // The first Poissonized batch (60 draws) overshoots the 50-draw cap:
    // the batch is refused *after* being drawn, the error propagates out
    // of the sieve, and the span over the stage still closes.
    let hyp = uniform_hypothesis(12, 3);
    let mut inner = CountsOracle::new(12, vec![vec![5; 12]]);
    let sink = MemorySink::new();
    let handle = sink.handle();
    let mut scoped =
        ScopedOracle::with_tracer(&mut inner, Tracer::new(Box::new(sink)).without_timing());
    let mut capped = BudgetedOracle::new(&mut scoped, 50);
    let mut rng = PortableRng::seed_from(7);
    let err = sieve(
        &mut capped,
        &hyp,
        2,
        0.3,
        &TesterConfig::practical(),
        &mut rng,
    )
    .unwrap_err();
    assert!(
        matches!(
            err,
            HistoError::OracleExhausted {
                budget: 50,
                drawn: 60
            }
        ),
        "unexpected error: {err:?}"
    );
    // Refusal never un-counts work.
    assert_eq!(capped.used(), 60);
    assert_eq!(capped.remaining(), 0);
    let ledger = scoped.finish().unwrap(); // panics if the sieve left spans open
    assert_eq!(ledger.stage_total(Stage::Sieve), 60);
    // The emitted stream is span-balanced despite the error.
    let mut depth = 0i64;
    for e in handle.events() {
        match e {
            TraceEvent::StageEnter { .. } => depth += 1,
            TraceEvent::StageExit { .. } => depth -= 1,
            _ => {}
        }
        assert!(depth >= 0);
    }
    assert_eq!(depth, 0, "sieve error path left spans open");
}

#[test]
fn sieve_heavy_round_rejects_on_scripted_counts() {
    // One batch with all mass on two elements while the hypothesis is
    // uniform: every interval's Z statistic explodes, so more than k
    // intervals are heavy and the sieve must take its reject path (an
    // `Ok` with `rejected`, not an error) in round 0.
    let hyp = uniform_hypothesis(12, 6);
    let mut oracle = CountsOracle::new(
        12,
        vec![{
            let mut b = vec![0u64; 12];
            b[0] = 60;
            b[1] = 60;
            b
        }],
    );
    let mut rng = PortableRng::seed_from(11);
    let out = sieve(
        &mut oracle,
        &hyp,
        2,
        0.3,
        &TesterConfig::practical(),
        &mut rng,
    )
    .unwrap();
    assert!(out.rejected, "{out:?}");
    assert_eq!(out.rounds_used, 0, "must reject in the heavy round");
    assert!(out.discarded.len() > 2, "{out:?}");
    assert_eq!(oracle.batches_served(), 1);
}

#[test]
fn scripted_oracle_cycles_under_a_cap() {
    // Script shorter than the request: draws cycle through the script,
    // and the cap binds on draw count, not script length.
    let mut inner = ScriptedOracle::new(6, vec![0, 2, 4]);
    let mut capped = BudgetedOracle::new(&mut inner, 7);
    let mut rng = PortableRng::seed_from(13);

    // A batch bigger than the remaining budget is refused up front —
    // nothing is drawn.
    let err = capped.try_draw_counts(10, &mut rng).unwrap_err();
    assert!(matches!(
        err,
        HistoError::OracleExhausted {
            budget: 7,
            drawn: 0
        }
    ));
    assert_eq!(capped.used(), 0);

    // A batch that fits draws 5 cycled samples: 0, 2, 4, 0, 2.
    let counts = capped.try_draw_counts(5, &mut rng).unwrap();
    assert_eq!(counts.count(0), 2);
    assert_eq!(counts.count(2), 2);
    assert_eq!(counts.count(4), 1);

    // Two singles remain; the third refuses with the draws kept counted.
    assert_eq!(capped.try_draw(&mut rng).unwrap(), 4);
    assert_eq!(capped.try_draw(&mut rng).unwrap(), 0);
    let err = capped.try_draw(&mut rng).unwrap_err();
    assert!(matches!(
        err,
        HistoError::OracleExhausted {
            budget: 7,
            drawn: 7
        }
    ));
    assert_eq!(inner.samples_drawn(), 7);
}

#[test]
fn cap_levels_attribute_failures_to_successive_stages() {
    // One clean run measures the per-stage draw profile; caps placed just
    // inside each stage's cumulative requirement must then fail in
    // exactly that stage. Everything is seed-deterministic, and the
    // BudgetedOracle wrapper forwards draws without perturbing the RNG
    // stream, so the capped runs replay the clean run's prefix exactly.
    let d = histo_core::Distribution::uniform(300).unwrap();
    let tester = HistogramTester::practical();
    let seed = 4242;

    let mut inner = DistOracle::new(d.clone()).with_fast_poissonization();
    let mut clean = ScopedOracle::with_tracer(&mut inner, Tracer::default().without_timing());
    let mut rng = PortableRng::seed_from(seed);
    let trace = tester
        .try_test_traced(&mut clean, 2, 0.4, &mut rng)
        .unwrap();
    assert!(
        ["accept", "chi2"].contains(&trace.decided_by),
        "profile run must reach the final test, decided by {}",
        trace.decided_by
    );
    let total = clean.samples_drawn();
    let ledger = clean.finish().unwrap();
    let ap = ledger.stage_total(Stage::ApproxPart);
    let learner = ledger.stage_total(Stage::Learner);
    assert!(ap > 0 && learner > 0 && total > ap + learner);

    let run_capped = |cap: u64| {
        let mut o = DistOracle::new(d.clone()).with_fast_poissonization();
        let mut capped = BudgetedOracle::new(&mut o, cap);
        let mut rng = PortableRng::seed_from(seed);
        tester
            .try_test_traced(&mut capped, 2, 0.4, &mut rng)
            .unwrap_err()
    };

    for (cap, want_stage) in [
        (ap - 1, "approx_part"),
        (ap + 10, "learner"),
        (ap + learner + 10, "sieve"),
        (total - 1, "adk_test"),
    ] {
        let err = run_capped(cap);
        assert_eq!(
            err.stage, want_stage,
            "cap {cap} failed in the wrong stage: {err}"
        );
        assert!(
            matches!(err.error, HistoError::OracleExhausted { .. }),
            "cap {cap}: {err:?}"
        );
    }
}

/// Runs `check` against one wrapper stacked over the given oracle.
type Wrap = fn(&mut dyn SampleOracle, &mut dyn FnMut(&mut dyn SampleOracle));

#[test]
fn every_wrapper_keeps_the_typed_error() {
    // Each wrapper sits over a cap-5 `BudgetedOracle`. All three draw calls
    // must hand the cap's refusal back as a typed error and never unwind:
    // the batch is refused by the pre-check, the Poissonized batch
    // overshoots the cap, and the single draw finds it spent.
    let rows: [(&str, Wrap); 4] = [
        ("&mut O", |o, check| {
            let mut r: &mut dyn SampleOracle = o;
            check(&mut r)
        }),
        ("ScopedOracle", |o, check| {
            let mut scoped = ScopedOracle::with_tracer(o, Tracer::default().without_timing());
            check(&mut scoped);
            scoped.finish().unwrap();
        }),
        ("FaultyOracle(none)", |o, check| {
            check(&mut FaultyOracle::new(o, FaultPlan::none()))
        }),
        ("DeadlineOracle (unarmed)", |o, check| {
            check(&mut DeadlineOracle::new(o))
        }),
    ];
    fn exhausted<T: std::fmt::Debug>(name: &str, call: &str, r: Result<T, HistoError>) {
        assert!(
            matches!(r, Err(HistoError::OracleExhausted { budget: 5, .. })),
            "{name}: {call} returned {r:?}"
        );
    }
    for (name, wrap) in rows {
        let mut base = DistOracle::new(histo_core::Distribution::uniform(4).unwrap());
        let mut capped = BudgetedOracle::new(&mut base, 5);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            wrap(&mut capped, &mut |o| {
                let mut rng = PortableRng::seed_from(61);
                exhausted(name, "try_draw_counts", o.try_draw_counts(10, &mut rng));
                exhausted(
                    name,
                    "try_poissonized_counts",
                    o.try_poissonized_counts(200.0, &mut rng),
                );
                exhausted(name, "try_draw", o.try_draw(&mut rng));
            })
        }))
        .is_err();
        assert!(!unwound, "{name} unwound on an exhausted cap");
    }
}
