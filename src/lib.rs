#![warn(missing_docs)]

//! # few-bins — Testing Histogram Distributions
//!
//! A full reproduction of Clément L. Canonne, *"Are Few Bins Enough:
//! Testing Histogram Distributions"* (PODS 2016; corrigendum PODS 2023).
//!
//! A distribution `D` over the ordered domain `\[n\] = {1, …, n}` is a
//! **k-histogram** (`D ∈ H_k`) when it is piecewise-constant on at most
//! `k` contiguous intervals. Given i.i.d. samples from an unknown `D`,
//! the tester decides (with probability ≥ 2/3):
//!
//! - **accept** if `D ∈ H_k`;
//! - **reject** if `d_TV(D, H_k) ≥ ε`.
//!
//! The paper's algorithm achieves
//! `O(√n/ε²·log k + (k/ε³)·log²k)` samples (Theorem 1.1), nearly matching
//! the information-theoretic lower bound `Ω(√n/ε² + (k/ε)/log k)`
//! (Theorem 1.2) — both directions are implemented and empirically
//! validated here.
//!
//! ## Quick start
//!
//! ```
//! use few_bins::prelude::*;
//!
//! // A genuine 3-histogram over \[300\]:
//! let d = staircase(300, 3)?.to_distribution()?;
//! let mut rng = PortableRng::seed_from(7);
//!
//! // Black-box sample access (draws are counted):
//! let mut oracle = DistOracle::new(d).with_fast_poissonization();
//!
//! // Is it a 3-histogram, or 0.3-far from every one?
//! let tester = HistogramTester::practical();
//! let decision = tester.test(&mut oracle, 3, 0.3, &mut rng)?;
//! assert!(decision.accepted());
//! println!("decided after {} samples", oracle.samples_drawn());
//! # Ok::<(), few_bins::HistoError>(())
//! ```
//!
//! ## Crate map
//!
//! | module | contents |
//! |---|---|
//! | [`core`] | distributions, partitions, k-histogram representations, distances, exact DPs |
//! | [`stats`] | special functions, Poisson/binomial, amplification, confidence intervals |
//! | [`trace`] | stage spans, counters, sample ledger, timing clocks, JSONL sinks |
//! | [`sampling`] | alias sampler, counting oracles, workload generators |
//! | [`faults`] | deterministic fault injection: Huber contamination, budget caps, stalls, duplicated/dropped draws |
//! | [`testers`] | Algorithm 1 and all subroutines; baselines; model selection; the resilient runner (budget, retries, deadlines) |
//! | [`lowerbounds`] | the `Q_ε` family, `SuppSize`, the §4.2 reduction |
//! | [`experiments`] | acceptance estimation, budget search, reports |
//! | [`report`] | the `fewbins report` trace analyzer: per-stage samples, wall time and fault counters vs theory |

/// Re-export of `histo-core`.
pub use histo_core as core;
/// Re-export of `histo-experiments`.
pub use histo_experiments as experiments;
/// Re-export of `histo-faults`.
pub use histo_faults as faults;
/// Re-export of `histo-lowerbounds`.
pub use histo_lowerbounds as lowerbounds;
/// Re-export of `histo-sampling`.
pub use histo_sampling as sampling;
/// Re-export of `histo-stats`.
pub use histo_stats as stats;
/// Re-export of `histo-testers`.
pub use histo_testers as testers;
/// Re-export of `histo-trace`.
pub use histo_trace as trace;

pub use histo_core::{Distribution, HistoError, Interval, KHistogram, Partition};

pub mod report;

/// The most common imports in one place.
pub mod prelude {
    pub use histo_core::dp::distance_to_hk_bounds;
    pub use histo_core::{Distribution, HistoError, Interval, KHistogram, Partition};
    pub use histo_faults::{Adversary, FaultCounters, FaultPlan, FaultyOracle};
    pub use histo_sampling::generators::{
        gaussian_bump, geometric, mixture, random_k_histogram, sawtooth_perturbation, staircase,
        uniform_sawtooth, zipf,
    };
    pub use histo_sampling::{BudgetedOracle, DistOracle, SampleOracle, ScopedOracle};
    pub use histo_stats::PortableRng;
    pub use histo_testers::agnostic::AgnosticLearner;
    pub use histo_testers::config::TesterConfig;
    pub use histo_testers::deadline::DeadlineOracle;
    pub use histo_testers::histogram_tester::{Ablation, HistogramTester, StageError};
    pub use histo_testers::model_selection::doubling_search;
    pub use histo_testers::robust::{InconclusiveReason, Outcome, RobustRunner};
    pub use histo_testers::{Decision, Tester};
    pub use histo_trace::{
        Clock, JsonlSink, ManualClock, NullSink, SampleLedger, Stage, StageTimings, TraceSink,
        Tracer,
    };
}
