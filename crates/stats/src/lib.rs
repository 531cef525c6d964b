#![warn(missing_docs)]

//! # histo-stats
//!
//! Statistical building blocks shared by the `few-bins` workspace:
//!
//! - [`special`]: log-gamma, log-factorial and log-binomial coefficients,
//!   evaluated with a Lanczos approximation accurate to ~1e-13 relative error.
//! - [`poisson`]: Poisson pmf/cdf/tail bounds and exact sampling for any
//!   mean (Knuth multiplication for small means, mode-centered CDF inversion
//!   for large means).
//! - [`binomial`]: binomial pmf/cdf and exact mode-centered inversion
//!   sampling with expected `O(sqrt(n p (1-p)))` work.
//! - [`amplify`]: success-probability amplification (majority vote, median
//!   of repeated statistics) used to drive per-subroutine failure
//!   probabilities down to `delta` as in Section 3.2.1 of the paper.
//! - [`confidence`]: Wilson score intervals for estimating acceptance
//!   probabilities of randomized testers from repeated trials.
//! - [`summary`]: streaming mean/variance (Welford) and quantiles.
//! - [`rng`]: [`PortableRng`], the workspace's one random number generator
//!   (xoshiro256**), which every draw goes through.
//!
//! Everything here is deterministic given the caller-provided RNG; no global
//! state, no I/O.

pub mod amplify;
pub mod binomial;
pub mod confidence;
pub mod poisson;
pub mod rng;
pub mod special;
pub mod summary;

pub use amplify::{
    majority_vote, median, repetitions_for_confidence, try_majority_vote, try_median,
    try_repetitions_for_confidence, StatsError,
};
pub use binomial::Binomial;
pub use confidence::WilsonInterval;
pub use poisson::Poisson;
pub use rng::PortableRng;
pub use special::{ln_binomial_coeff, ln_factorial, ln_gamma};
pub use summary::{quantile, RunningStats};
