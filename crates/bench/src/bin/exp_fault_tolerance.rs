//! T14 — Fault tolerance: contamination vs decision flips, budget caps vs
//! graceful degradation.
//!
//! Two sweeps over the resilient runtime (`RobustRunner` over a
//! `FaultyOracle`) on the uniform distribution (the lone member of `H_1`):
//!
//! 1. **Huber contamination.** Each draw is replaced, with probability
//!    `η`, by the adversary `PointMass(0)`. The contaminated distribution
//!    `(1-η)·U + η·δ_0` sits at `d_TV = η·(1 - 1/n)` from `H_1`, so the
//!    tester must flip from accept to reject as `η` crosses `ε`: the
//!    flip-rate curve versus the `η = 0` baseline (same per-trial RNG
//!    streams — the fault layer consumes only its own RNG) must be
//!    monotone, pinned at 0 for `η = 0`, and decisive well past `ε`.
//! 2. **Budget caps.** A hard cap on total draws at a fraction of the
//!    measured clean-run usage. Caps below the requirement must surface as
//!    structured `Inconclusive` outcomes — never a panic, never a silent
//!    coin flip — with the inconclusive rate rising monotonically as the
//!    cap tightens.
//!
//! Both shape expectations are asserted, so this binary doubles as the CI
//! chaos gate on the fault layer's end-to-end semantics.

use histo_bench::{emit, fmt, seed, threads, trials};
use histo_core::Distribution;
use histo_experiments::{ExperimentReport, Table};
use histo_faults::{Adversary, FaultPlan, FaultyOracle};
use histo_sampling::{DistOracle, SampleOracle, ScopedOracle};
use histo_stats::PortableRng;
use histo_testers::config::TesterConfig;
use histo_testers::histogram_tester::HistogramTester;
use histo_testers::robust::{Outcome, RobustRunner};
use histo_trace::{ManualClock, NullSink, Tracer};

fn main() {
    let n = 400;
    let k = 1;
    let epsilon = 0.3;
    let scale = 0.5;
    let config = TesterConfig::practical().scaled(scale);
    let d = Distribution::uniform(n).unwrap();
    let t = trials();

    let mut report = ExperimentReport::new(
        "T14",
        "fault tolerance: contamination flips, budget caps degrade gracefully",
        "robustness of Algorithm 1 under Huber contamination (flip once the \
         contaminated distribution is eps-far from H_k) and under hard sample \
         budgets (Inconclusive, never a silent coin flip, below the Theorem 1.1 \
         requirement)",
        seed(),
    );
    report
        .param("n", n)
        .param("k", k)
        .param("epsilon", epsilon)
        .param("config scale", scale)
        .param("trials per cell", t)
        .param("threads", threads())
        .param("instance", "uniform(n) (the only member of H_1)")
        .param("adversary", "point:0");

    // --- Sweep 1: contamination level vs decision flip-rate. -------------
    let etas = [0.0, 0.02, 0.1, 0.3, 0.5];
    let mut decisions: Vec<Vec<bool>> = Vec::new();
    let mut clean_draws: Vec<u64> = Vec::new();
    for &eta in &etas {
        let mut accepted = Vec::with_capacity(t as usize);
        for trial in 0..t {
            let mut rng = PortableRng::seed_from(seed() ^ (0xA5A5 + trial));
            let mut inner = DistOracle::new(d.clone()).with_fast_poissonization();
            let plan = FaultPlan::none()
                .with_contamination(eta, Adversary::PointMass(0))
                .with_seed(seed().wrapping_add(trial));
            let mut oracle = FaultyOracle::new(&mut inner, plan);
            let runner = RobustRunner::new(HistogramTester::new(config));
            let outcome = runner.run(&mut oracle, k, epsilon, &mut rng).unwrap();
            let decision = outcome
                .decision()
                .expect("uncapped runs must be conclusive");
            accepted.push(decision.accepted());
            if eta == 0.0 {
                clean_draws.push(inner.samples_drawn());
            }
        }
        decisions.push(accepted);
    }
    let flip_rate = |i: usize| -> f64 {
        decisions[i]
            .iter()
            .zip(&decisions[0])
            .filter(|(a, b)| a != b)
            .count() as f64
            / t as f64
    };
    let mut eta_table = Table::new(
        "Huber contamination vs decisions (vs the eta = 0 baseline)",
        &["eta", "d_TV to H_1", "accept rate", "flip rate"],
    );
    let mut flips = Vec::new();
    for (i, &eta) in etas.iter().enumerate() {
        let accept = decisions[i].iter().filter(|&&a| a).count() as f64 / t as f64;
        let flip = flip_rate(i);
        flips.push(flip);
        eta_table.push_row(vec![
            fmt(eta),
            fmt(eta * (1.0 - 1.0 / n as f64)),
            fmt(accept),
            fmt(flip),
        ]);
    }
    report.table(eta_table);

    // --- Sweep 2: budget cap (fraction of clean usage) vs inconclusive. --
    let mean_clean = clean_draws.iter().sum::<u64>() as f64 / t as f64;
    let fractions = [1.5, 1.0, 0.75, 0.5, 0.25];
    let mut cap_table = Table::new(
        "hard budget cap vs outcome (clean instance)",
        &["cap/clean", "cap draws", "inconclusive rate", "accept rate"],
    );
    let mut inconclusive_rates = Vec::new();
    for &frac in &fractions {
        let cap = (mean_clean * frac) as u64;
        let mut inconclusive = 0u64;
        let mut accepts = 0u64;
        for trial in 0..t {
            let mut rng = PortableRng::seed_from(seed() ^ (0xA5A5 + trial));
            let mut oracle = DistOracle::new(d.clone()).with_fast_poissonization();
            let runner = RobustRunner::new(HistogramTester::new(config)).with_budget(cap);
            match runner.run(&mut oracle, k, epsilon, &mut rng).unwrap() {
                Outcome::Conclusive(decision) => {
                    if decision.accepted() {
                        accepts += 1;
                    }
                    assert!(
                        oracle.samples_drawn() <= cap,
                        "conclusive run exceeded its cap: {} > {cap}",
                        oracle.samples_drawn()
                    );
                }
                Outcome::Inconclusive { .. } => inconclusive += 1,
            }
        }
        let rate = inconclusive as f64 / t as f64;
        inconclusive_rates.push(rate);
        cap_table.push_row(vec![
            fmt(frac),
            cap.to_string(),
            fmt(rate),
            fmt(accepts as f64 / t as f64),
        ]);
    }
    report.table(cap_table);

    // --- Sweep 3: injected stalls must surface in stage wall-time. -------
    // Two runs under a deterministic virtual clock (1 µs per reading),
    // identical except for the stall duration: zero-length stalls as the
    // baseline, then real ones. Control flow, RNG consumption, and clock
    // readings match exactly, so the wall-time difference must be exactly
    // `stalled × stall_us` — each virtual stall lands in whichever stage
    // span was open when it fired, and telescopes up to the root.
    let stall_us = 100u64;
    let stall_every = 64u64;
    let mut stall_rows: Vec<(u64, u64, u64)> = Vec::new(); // (us, stalled, root_us)
    for &us in &[0u64, stall_us] {
        let mut rng = PortableRng::seed_from(seed() ^ 0x57A11);
        let mut inner = DistOracle::new(d.clone()).with_fast_poissonization();
        let tracer =
            Tracer::new(Box::new(NullSink)).with_clock(Box::new(ManualClock::with_step(1)));
        let scoped = ScopedOracle::with_tracer(&mut inner, tracer);
        let plan = FaultPlan::none()
            .with_stalls(us, stall_every)
            .with_seed(seed());
        let mut oracle = FaultyOracle::new(scoped, plan);
        let runner = RobustRunner::new(HistogramTester::new(config));
        let outcome = runner.run(&mut oracle, k, epsilon, &mut rng).unwrap();
        assert!(
            outcome.decision().is_some(),
            "stall-sweep runs must conclude"
        );
        let stalled = oracle.counters().stalled;
        let (_ledger, timings) = oracle
            .into_inner()
            .finish_with_timings()
            .expect("a null sink cannot fail");
        stall_rows.push((us, stalled, timings.root_us()));
    }
    let (_, base_stalled, base_root) = stall_rows[0];
    let (_, stalled, root) = stall_rows[1];
    assert_eq!(
        stalled, base_stalled,
        "identical schedules must stall identically"
    );
    assert!(stalled > 0, "the stall sweep must actually stall");
    assert_eq!(
        root,
        base_root + stalled * stall_us,
        "virtual stall time must surface, exactly, in measured wall time"
    );
    let mut stall_table = Table::new(
        "injected stalls vs measured wall time (deterministic 1 us/reading clock)",
        &["stall_us", "stalls", "root_us", "injected_us"],
    );
    for &(us, count, root_us) in &stall_rows {
        stall_table.push_row(vec![
            us.to_string(),
            count.to_string(),
            root_us.to_string(),
            (count * us).to_string(),
        ]);
    }
    report.table(stall_table);

    report.note(format!(
        "mean clean-run usage: {} draws/trial; caps are fractions of that mean",
        fmt(mean_clean)
    ));
    report.note(
        "shape gates (asserted): flip rate is 0 at eta = 0, monotone in eta \
         (0.15 slack), and >= 0.5 at the far endpoint; inconclusive rate is \
         monotone as the cap tightens (0.15 slack), <= 0.1 at 1.5x the clean \
         usage and >= 0.9 at 0.25x",
    );

    assert_eq!(flips[0], 0.0, "eta = 0 must reproduce the baseline exactly");
    for w in flips.windows(2) {
        assert!(
            w[1] + 0.15 >= w[0],
            "flip rate must be monotone in eta (slack 0.15): {flips:?}"
        );
    }
    assert!(
        flips[etas.len() - 1] >= 0.5,
        "far contamination must flip the majority of trials: {flips:?}"
    );
    for w in inconclusive_rates.windows(2) {
        assert!(
            w[1] + 0.15 >= w[0],
            "inconclusive rate must be monotone as the cap tightens: \
             {inconclusive_rates:?}"
        );
    }
    assert!(
        inconclusive_rates[0] <= 0.1,
        "a cap 1.5x the clean usage must almost always conclude: \
         {inconclusive_rates:?}"
    );
    assert!(
        inconclusive_rates[fractions.len() - 1] >= 0.9,
        "a cap at 0.25x the clean usage must almost always be inconclusive: \
         {inconclusive_rates:?}"
    );
    emit(&report);
}
