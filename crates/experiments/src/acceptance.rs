//! Acceptance-probability estimation with confidence intervals.

use histo_core::Distribution;
use histo_sampling::{DistOracle, SampleOracle, ScopedOracle};
use histo_stats::PortableRng;
use histo_stats::{RunningStats, WilsonInterval};
use histo_testers::Tester;
use histo_trace::{NullSink, Stage};
use std::sync::atomic::{AtomicU64, Ordering};

/// A source of test instances: each trial draws a (possibly fresh)
/// distribution. Must be callable from multiple threads.
pub trait InstanceEnsemble: Sync {
    /// Draws the instance for one trial.
    fn draw(&self, rng: &mut PortableRng) -> Distribution;
}

/// A fixed instance used for every trial.
pub struct FixedInstance(pub Distribution);

impl InstanceEnsemble for FixedInstance {
    fn draw(&self, _: &mut PortableRng) -> Distribution {
        self.0.clone()
    }
}

impl<F: Fn(&mut PortableRng) -> Distribution + Sync> InstanceEnsemble for F {
    fn draw(&self, rng: &mut PortableRng) -> Distribution {
        self(rng)
    }
}

/// Result of an acceptance-probability estimation run.
#[derive(Debug, Clone)]
pub struct AcceptanceEstimate {
    /// Accepting trials.
    pub accepts: u64,
    /// Total trials.
    pub trials: u64,
    /// Exact total samples drawn across all trials — an integer sum with
    /// no float rounding, the reference quantity for ledger invariants.
    pub total_drawn: u64,
    /// 95% Wilson interval for the acceptance probability.
    pub ci: WilsonInterval,
    /// Measured samples drawn per trial (mean/min/max/stddev).
    pub samples: RunningStats,
}

impl AcceptanceEstimate {
    /// Point estimate of the acceptance probability.
    pub fn rate(&self) -> f64 {
        self.ci.point
    }
}

/// Runs `trial` once per trial index `i < trials` across `threads`
/// workers (`0` = one per available core, via [`crate::num_threads`]) and
/// returns the results in trial order.
///
/// Trial `i` gets the RNG
/// `PortableRng::seed_from(seed.wrapping_add(i).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ i)`
/// — a splitmix-style mix of the base seed with the trial index, so that
/// nearby trial indices get well-separated streams. Because the seed is a
/// pure function of `(seed, i)` and workers claim trial indices from a
/// shared atomic counter, every trial computes the same result no matter
/// which worker runs it, and the returned vector is **bitwise independent
/// of the thread count**. A panicking trial re-raises its own panic here.
fn run_trials<R: Send>(
    trials: u64,
    seed: u64,
    threads: usize,
    trial: impl Fn(&mut PortableRng) -> R + Sync,
) -> Vec<R> {
    let threads = if threads == 0 {
        crate::num_threads()
    } else {
        threads
    };
    let next = AtomicU64::new(0);
    let mut results: Vec<(u64, R)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= trials {
                            break local;
                        }
                        let mut rng = PortableRng::seed_from(
                            seed.wrapping_add(i).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ i,
                        );
                        local.push((i, trial(&mut rng)));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| {
                w.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    });
    results.sort_unstable_by_key(|&(i, _)| i);
    results.into_iter().map(|(_, r)| r).collect()
}

/// Estimates `P[tester accepts]` over `trials` independent trials, each on
/// a fresh instance from `ensemble`, running trials in parallel across
/// `threads` workers (`0` = one per available core).
///
/// Trials are seeded and collected as described on `run_trials`, and the
/// per-trial draw counts are folded into the summary statistics in trial
/// order, so every field of the result — accepts, `total_drawn`, and the
/// Welford `samples` stats — is **bitwise independent of the thread
/// count**.
///
/// # Panics
///
/// Panics if the tester returns a parameter error (instances and
/// parameters are caller-controlled, so an error is a bug in the
/// experiment, not a data condition).
pub fn estimate_acceptance(
    tester: &(dyn Tester + Sync),
    ensemble: &dyn InstanceEnsemble,
    k: usize,
    epsilon: f64,
    trials: u64,
    seed: u64,
    threads: usize,
) -> AcceptanceEstimate {
    let results = run_trials(trials, seed, threads, |rng| {
        let d = ensemble.draw(rng);
        let mut oracle = DistOracle::new(d).with_fast_poissonization();
        let decision = tester
            .test(&mut oracle, k, epsilon, rng)
            .expect("experiment parameters must be valid");
        (decision.accepted(), oracle.samples_drawn())
    });
    let accepts = results.iter().filter(|&&(accepted, _)| accepted).count() as u64;
    let (samples, total_drawn) = fold_draws(results.iter().map(|&(_, drawn)| drawn));
    AcceptanceEstimate {
        accepts,
        trials,
        total_drawn,
        ci: WilsonInterval::ci95(accepts, trials),
        samples,
    }
}

/// Folds per-trial draw counts, given in trial order, into summary
/// statistics, so the Welford accumulation is a pure function of the
/// per-trial values. Also returns the exact integer total.
fn fold_draws(draws: impl IntoIterator<Item = u64>) -> (RunningStats, u64) {
    let mut samples = RunningStats::new();
    let mut total = 0u64;
    for n in draws {
        samples.push(n as f64);
        total += n;
    }
    (samples, total)
}

/// [`AcceptanceEstimate`] plus the per-stage sample ledger aggregated
/// across all trials, as measured by wrapping each trial's oracle in a
/// [`ScopedOracle`].
#[derive(Debug, Clone)]
pub struct StagedAcceptance {
    /// The acceptance estimate (identical to what
    /// [`estimate_acceptance`] would report for the same inputs —
    /// the tracing wrapper does not perturb the RNG stream).
    pub estimate: AcceptanceEstimate,
    /// Total draws charged to each stage, summed over all trials, in
    /// canonical pipeline order.
    pub stages: Vec<(Stage, u64)>,
    /// Draws made while no stage span was open, summed over all trials.
    pub unattributed: u64,
    /// Exclusive wall time per stage in µs, summed over all trials, in
    /// canonical pipeline order. Measured by the tracer's real monotonic
    /// clock, so — unlike every other field — these values vary run to
    /// run and carry **no** thread-count-invariance guarantee; only the
    /// telescoping identity (they sum to [`Self::wall_root_us`]) is exact.
    pub wall_us: Vec<(Stage, u64)>,
    /// Total wall time of top-level spans across all trials, µs.
    pub wall_root_us: u64,
}

impl StagedAcceptance {
    /// Sum of all per-stage totals plus the unattributed bucket — equals
    /// the total draws across all trials (the ledger invariant).
    pub fn total_samples(&self) -> u64 {
        self.stages.iter().map(|&(_, n)| n).sum::<u64>() + self.unattributed
    }

    /// Mean draws per trial charged to `stage`.
    pub fn mean_stage_samples(&self, stage: Stage) -> f64 {
        let total = self
            .stages
            .iter()
            .find(|&&(s, _)| s == stage)
            .map_or(0, |&(_, n)| n);
        total as f64 / self.estimate.trials.max(1) as f64
    }
}

/// Canonical presentation order for aggregated stages: the order
/// Algorithm 1 visits them, satellites after, ad-hoc stages last.
fn stage_rank(stage: Stage) -> (u8, &'static str) {
    match stage {
        Stage::ApproxPart => (0, ""),
        Stage::Learner => (1, ""),
        Stage::Sieve => (2, ""),
        Stage::Check => (3, ""),
        Stage::AdkTest => (4, ""),
        Stage::Uniformity => (5, ""),
        Stage::ModelSelection => (6, ""),
        Stage::Other(name) => (7, name),
    }
}

/// [`estimate_acceptance`] with per-stage sample accounting: each trial's
/// oracle is wrapped in a [`ScopedOracle`] (with a [`NullSink`], so no
/// events are rendered) and the per-trial ledgers are summed.
///
/// Stage totals are `u64` sums and the per-trial sample statistics are
/// folded in trial order, so like the base estimator every field of the
/// result is bitwise independent of the thread count. The wrapper
/// forwards draws without touching the RNG, so `estimate` matches what
/// [`estimate_acceptance`] reports for the same `(tester, ensemble, seed)`.
///
/// # Panics
///
/// Panics if the tester returns a parameter error (see
/// [`estimate_acceptance`]).
pub fn estimate_acceptance_staged(
    tester: &(dyn Tester + Sync),
    ensemble: &dyn InstanceEnsemble,
    k: usize,
    epsilon: f64,
    trials: u64,
    seed: u64,
    threads: usize,
) -> StagedAcceptance {
    let results = run_trials(trials, seed, threads, |rng| {
        let d = ensemble.draw(rng);
        let mut inner = DistOracle::new(d).with_fast_poissonization();
        let mut oracle = ScopedOracle::new(&mut inner, Box::new(NullSink));
        let decision = tester
            .test(&mut oracle, k, epsilon, rng)
            .expect("experiment parameters must be valid");
        let drawn = oracle.samples_drawn();
        let (ledger, timings) = oracle
            .finish_with_timings()
            .expect("a null sink cannot fail");
        (decision.accepted(), drawn, ledger, timings)
    });

    fn add(rows: &mut Vec<(Stage, u64)>, stage: Stage, n: u64) {
        match rows.iter_mut().find(|(s, _)| *s == stage) {
            Some(entry) => entry.1 += n,
            None => rows.push((stage, n)),
        }
    }
    let (mut stages, mut wall_us) = (Vec::new(), Vec::new());
    let (mut unattributed, mut wall_root_us) = (0u64, 0u64);
    for (_, _, ledger, timings) in &results {
        for &(stage, n) in ledger.entries() {
            add(&mut stages, stage, n);
        }
        unattributed += ledger.unattributed();
        for &(stage, wall) in timings.entries() {
            add(&mut wall_us, stage, wall.exclusive_us);
        }
        wall_root_us += timings.root_us();
    }
    stages.sort_by_key(|&(s, _)| stage_rank(s));
    wall_us.sort_by_key(|&(s, _)| stage_rank(s));
    let accepts = results.iter().filter(|r| r.0).count() as u64;
    let (samples, total_drawn) = fold_draws(results.iter().map(|r| r.1));
    StagedAcceptance {
        estimate: AcceptanceEstimate {
            accepts,
            trials,
            total_drawn,
            ci: WilsonInterval::ci95(accepts, trials),
            samples,
        },
        stages,
        unattributed,
        wall_us,
        wall_root_us,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use histo_sampling::generators::staircase;
    use histo_testers::histogram_tester::HistogramTester;
    use histo_testers::uniformity::CollisionUniformityTester;

    #[test]
    fn uniform_acceptance_is_high_and_deterministic() {
        let d = Distribution::uniform(400).unwrap();
        let t = CollisionUniformityTester::default();
        let a = estimate_acceptance(&t, &FixedInstance(d.clone()), 1, 0.3, 40, 7, 4);
        assert!(a.rate() >= 0.8, "rate {}", a.rate());
        assert_eq!(a.trials, 40);
        assert!(a.samples.mean() > 0.0);
        // Same seed, different thread count => identical outcome; the
        // trial-order fold makes the Welford stats bitwise-invariant too.
        let b = estimate_acceptance(&t, &FixedInstance(d), 1, 0.3, 40, 7, 1);
        assert_eq!(a.accepts, b.accepts);
        assert_eq!(a.total_drawn, b.total_drawn);
        assert_eq!(a.samples.mean(), b.samples.mean());
        assert_eq!(a.samples.variance(), b.samples.variance());
    }

    #[test]
    fn ensemble_closures_work() {
        let ens = |rng: &mut PortableRng| {
            histo_sampling::generators::random_k_histogram(200, 3, rng)
                .unwrap()
                .to_distribution()
                .unwrap()
        };
        let t = HistogramTester::practical();
        let a = estimate_acceptance(&t, &ens, 3, 0.4, 10, 11, 4);
        assert!(a.rate() >= 0.6, "rate {}", a.rate());
    }

    #[test]
    fn staged_estimate_matches_unstaged_and_partitions_samples() {
        let d = staircase(300, 2).unwrap().to_distribution().unwrap();
        let t = HistogramTester::practical();
        let plain = estimate_acceptance(&t, &FixedInstance(d.clone()), 2, 0.35, 8, 13, 2);
        let staged = estimate_acceptance_staged(&t, &FixedInstance(d), 2, 0.35, 8, 13, 2);
        // The tracing wrapper must not perturb the trials. Both totals
        // are exact u64 sums and both means are trial-order folds over
        // the same per-trial draw counts, so equality is exact.
        assert_eq!(staged.estimate.accepts, plain.accepts);
        assert_eq!(staged.estimate.total_drawn, plain.total_drawn);
        assert_eq!(staged.estimate.samples.mean(), plain.samples.mean());
        // Ledger invariant, aggregated: stage totals + unattributed ==
        // total draws over all trials (integer-to-integer comparison).
        assert_eq!(staged.total_samples(), staged.estimate.total_drawn);
        assert_eq!(staged.unattributed, 0);
        // Wall-time telescoping: per-stage exclusive times are exact
        // integer aggregates that sum to the root span total, whatever
        // the (real) clock measured.
        let wall_sum: u64 = staged.wall_us.iter().map(|&(_, us)| us).sum();
        assert_eq!(wall_sum, staged.wall_root_us);
        // Timings cover every stage that opened a span — a superset of
        // the ledger rows, which only list stages that drew. The offline
        // `check` DP is the gap: wall time but zero draws.
        for (s, _) in &staged.stages {
            assert!(
                staged.wall_us.iter().any(|&(ws, _)| ws == *s),
                "no wall entry for drawing stage {}",
                s.name()
            );
        }
        assert!(
            staged.wall_us.iter().any(|&(ws, _)| ws == Stage::Check),
            "the offline check stage must still be timed"
        );
        // The pipeline stages all drew something, in canonical order.
        let names: Vec<&str> = staged.stages.iter().map(|(s, _)| s.name()).collect();
        assert!(names.contains(&"approx_part"), "{names:?}");
        assert!(names.contains(&"learner"), "{names:?}");
        assert!(names.contains(&"sieve"), "{names:?}");
        let mut sorted = names.clone();
        sorted.sort_by_key(|n| match *n {
            "approx_part" => 0,
            "learner" => 1,
            "sieve" => 2,
            "check" => 3,
            "adk_test" => 4,
            _ => 9,
        });
        assert_eq!(names, sorted);
        assert!(staged.mean_stage_samples(Stage::Sieve) > 0.0);
    }

    #[test]
    fn estimate_is_thread_count_independent() {
        let d = staircase(300, 2).unwrap().to_distribution().unwrap();
        let t = HistogramTester::practical();
        let a = estimate_acceptance(&t, &FixedInstance(d.clone()), 2, 0.35, 8, 13, 1);
        let b = estimate_acceptance(&t, &FixedInstance(d), 2, 0.35, 8, 13, 4);
        assert_eq!(a.accepts, b.accepts);
        assert_eq!(a.total_drawn, b.total_drawn);
        assert_eq!(a.samples.count(), b.samples.count());
        assert_eq!(a.samples.mean().to_bits(), b.samples.mean().to_bits());
        assert_eq!(
            a.samples.variance().to_bits(),
            b.samples.variance().to_bits()
        );
        assert_eq!(a.samples.min().to_bits(), b.samples.min().to_bits());
        assert_eq!(a.samples.max().to_bits(), b.samples.max().to_bits());
    }

    #[test]
    #[should_panic(expected = "experiment parameters must be valid")]
    fn a_failing_trial_panics_with_its_own_message() {
        let d = staircase(300, 2).unwrap().to_distribution().unwrap();
        let t = HistogramTester::practical();
        // epsilon = 0 is a parameter error on every trial.
        estimate_acceptance(&t, &FixedInstance(d), 2, 0.0, 4, 13, 2);
    }

    #[test]
    fn staged_estimate_is_thread_count_independent() {
        let d = staircase(300, 2).unwrap().to_distribution().unwrap();
        let t = HistogramTester::practical();
        let a = estimate_acceptance_staged(&t, &FixedInstance(d.clone()), 2, 0.35, 8, 13, 1);
        let b = estimate_acceptance_staged(&t, &FixedInstance(d), 2, 0.35, 8, 13, 4);
        assert_eq!(a.estimate.accepts, b.estimate.accepts);
        assert_eq!(a.estimate.total_drawn, b.estimate.total_drawn);
        assert_eq!(a.estimate.samples.mean(), b.estimate.samples.mean());
        assert_eq!(a.estimate.samples.variance(), b.estimate.samples.variance());
        assert_eq!(a.stages, b.stages);
        assert_eq!(a.unattributed, b.unattributed);
        // Wall-time fields are real-clock measurements and are
        // deliberately NOT compared across thread counts — only their
        // internal telescoping identity is guaranteed.
        let wall_sum: u64 = a.wall_us.iter().map(|&(_, us)| us).sum();
        assert_eq!(wall_sum, a.wall_root_us);
    }

    #[test]
    fn samples_statistics_are_recorded() {
        let d = staircase(300, 2).unwrap().to_distribution().unwrap();
        let t = HistogramTester::practical();
        let a = estimate_acceptance(&t, &FixedInstance(d), 2, 0.35, 8, 13, 2);
        assert_eq!(a.samples.count(), 8);
        assert!(a.samples.min() > 0.0);
        assert!(a.samples.max() >= a.samples.min());
    }
}
