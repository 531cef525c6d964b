//! Success-probability amplification.
//!
//! Section 3.2.1: "by standard arguments (repeating the test, and taking the
//! median value), we can assume the probability of success of this test to
//! be 1 − δ, at the price of an extra log(1/δ) factor in the sample
//! complexity." These helpers implement exactly that machinery: the number
//! of repetitions needed for a target failure probability, the median of
//! repeated real-valued statistics, and majority votes over binary repeats.
//!
//! Every helper comes in two flavors: a fallible `try_*` function returning
//! [`StatsError`] on degenerate input (the API the resilient runtime uses,
//! where "no votes collected" is an expected runtime condition rather than a
//! programming error), and an infallible shim with the historical panicking
//! contract kept for callers that validate inputs up front.

use std::fmt;

/// Errors from the fallible (`try_*`) amplification API.
///
/// `histo-core` converts this into `HistoError` (the workspace-wide error
/// type) via `From`; the conversion lives in `histo-core` because this crate
/// sits below it in the dependency order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StatsError {
    /// An aggregation (vote, median) was requested over an empty collection.
    EmptyInput {
        /// Name of the offending operation.
        what: &'static str,
    },
    /// A parameter or input value was outside its documented range.
    InvalidParameter {
        /// Parameter name.
        name: &'static str,
        /// Description of the violation.
        reason: String,
    },
}

impl fmt::Display for StatsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StatsError::EmptyInput { what } => write!(f, "{what} over empty input"),
            StatsError::InvalidParameter { name, reason } => {
                write!(f, "invalid parameter {name}: {reason}")
            }
        }
    }
}

impl std::error::Error for StatsError {}

/// Number of independent repetitions of a (2/3)-correct test needed so that
/// the majority vote is correct with probability at least `1 - delta`.
///
/// Derived from the Chernoff bound for a Binomial(r, 2/3) falling to r/2:
/// `r >= 18 ln(1/delta)` suffices; we return the smallest odd such `r` (odd
/// so the majority/median is unambiguous), and at least 1.
///
/// # Errors
///
/// Returns [`StatsError::InvalidParameter`] unless `0 < delta < 1`.
pub fn try_repetitions_for_confidence(delta: f64) -> Result<usize, StatsError> {
    if !(delta > 0.0 && delta < 1.0) {
        return Err(StatsError::InvalidParameter {
            name: "delta",
            reason: format!("must be in (0,1), got {delta}"),
        });
    }
    if delta >= 1.0 / 3.0 {
        return Ok(1);
    }
    let r = (18.0 * (1.0 / delta).ln()).ceil() as usize;
    Ok(if r % 2 == 0 { r + 1 } else { r.max(1) })
}

/// Infallible shim over [`try_repetitions_for_confidence`].
///
/// # Panics
///
/// Panics unless `0 < delta < 1`.
#[doc(hidden)]
pub fn repetitions_for_confidence(delta: f64) -> usize {
    match try_repetitions_for_confidence(delta) {
        Ok(r) => r,
        Err(_) => panic!("delta must be in (0,1), got {delta}"),
    }
}

/// Majority vote over boolean outcomes. Ties (possible only for even input
/// length) are broken toward `false`, the conservative "reject" outcome.
///
/// # Errors
///
/// Returns [`StatsError::EmptyInput`] on empty input.
pub fn try_majority_vote(votes: &[bool]) -> Result<bool, StatsError> {
    if votes.is_empty() {
        return Err(StatsError::EmptyInput {
            what: "majority_vote",
        });
    }
    let yes = votes.iter().filter(|&&v| v).count();
    Ok(2 * yes > votes.len())
}

/// Infallible shim over [`try_majority_vote`].
///
/// # Panics
///
/// Panics on empty input.
#[doc(hidden)]
pub fn majority_vote(votes: &[bool]) -> bool {
    try_majority_vote(votes).unwrap_or_else(|_| panic!("majority_vote over empty slice"))
}

/// Median of a slice of floats (the lower median for even lengths).
///
/// # Errors
///
/// Returns [`StatsError::EmptyInput`] on empty input and
/// [`StatsError::InvalidParameter`] if any value is NaN.
pub fn try_median(values: &[f64]) -> Result<f64, StatsError> {
    if values.is_empty() {
        return Err(StatsError::EmptyInput { what: "median" });
    }
    if values.iter().any(|v| v.is_nan()) {
        return Err(StatsError::InvalidParameter {
            name: "values",
            reason: "median: NaN in input".to_string(),
        });
    }
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN filtered above"));
    Ok(v[(v.len() - 1) / 2])
}

/// Infallible shim over [`try_median`].
///
/// # Panics
///
/// Panics on empty input or if any value is NaN.
#[doc(hidden)]
pub fn median(values: &[f64]) -> f64 {
    match try_median(values) {
        Ok(m) => m,
        Err(StatsError::EmptyInput { .. }) => panic!("median of empty slice"),
        Err(e) => panic!("{e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repetitions_monotone_in_delta() {
        let r1 = repetitions_for_confidence(0.1);
        let r2 = repetitions_for_confidence(0.01);
        let r3 = repetitions_for_confidence(0.001);
        assert!(r1 <= r2 && r2 <= r3);
        assert!(r1 % 2 == 1 && r2 % 2 == 1 && r3 % 2 == 1);
        assert_eq!(repetitions_for_confidence(0.4), 1);
    }

    #[test]
    fn amplification_actually_amplifies() {
        // A 2/3-correct coin, repeated r times with majority vote, should
        // fail well under delta = 0.05 empirically.
        use crate::PortableRng;
        let delta = 0.05;
        let r = repetitions_for_confidence(delta);
        let mut rng = PortableRng::seed_from(42);
        let trials = 2_000;
        let mut failures = 0;
        for _ in 0..trials {
            let votes: Vec<bool> = (0..r).map(|_| rng.f64() < 2.0 / 3.0).collect();
            if !majority_vote(&votes) {
                failures += 1;
            }
        }
        assert!(
            (failures as f64) / (trials as f64) < delta,
            "failure rate {} over delta {}",
            failures as f64 / trials as f64,
            delta
        );
    }

    #[test]
    fn majority_vote_basics() {
        assert!(majority_vote(&[true, true, false]));
        assert!(!majority_vote(&[true, false, false]));
        assert!(!majority_vote(&[true, false])); // tie -> reject
        assert!(majority_vote(&[true]));
    }

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.0); // lower median
        assert_eq!(median(&[5.0]), 5.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn median_empty_panics() {
        median(&[]);
    }

    #[test]
    fn try_variants_agree_with_shims_on_valid_input() {
        assert_eq!(try_majority_vote(&[true, true, false]), Ok(true));
        assert_eq!(try_median(&[3.0, 1.0, 2.0]), Ok(2.0));
        assert_eq!(
            try_repetitions_for_confidence(0.01).unwrap(),
            repetitions_for_confidence(0.01)
        );
    }

    #[test]
    fn try_variants_report_degenerate_input() {
        assert_eq!(
            try_majority_vote(&[]),
            Err(StatsError::EmptyInput {
                what: "majority_vote"
            })
        );
        assert_eq!(
            try_median(&[]),
            Err(StatsError::EmptyInput { what: "median" })
        );
        assert!(matches!(
            try_median(&[1.0, f64::NAN]),
            Err(StatsError::InvalidParameter { name: "values", .. })
        ));
        assert!(try_repetitions_for_confidence(0.0).is_err());
        assert!(try_repetitions_for_confidence(1.0).is_err());
        // The error type renders a human-readable message.
        let msg = try_median(&[]).unwrap_err().to_string();
        assert!(msg.contains("median"), "{msg}");
    }
}
