#![warn(missing_docs)]

//! # histo-core
//!
//! Foundational types for testing histogram distributions, following
//! Canonne, *"Are Few Bins Enough: Testing Histogram Distributions"*
//! (PODS 2016; corrigendum PODS 2023).
//!
//! A probability distribution over the ordered domain `\[n\] = {1, …, n}` is a
//! *k-histogram* if it is piecewise-constant on at most `k` contiguous
//! intervals; the class is written `H_k`. This crate provides:
//!
//! - [`Distribution`]: a validated pmf over `\[n\]` (stored 0-indexed).
//! - [`Interval`] and [`Partition`]: contiguous sub-ranges of the domain and
//!   ordered partitions thereof (the objects ApproxPart produces).
//! - [`KHistogram`]: the succinct piecewise-constant representation, with
//!   breakpoint accounting and flattening operators (the `D̃^J` of the
//!   paper's learning lemma).
//! - [`distance`]: total variation, `ℓ1`/`ℓ2`, χ² and KL divergences, and
//!   their *subdomain-restricted* variants (footnote 6 of the paper).
//! - [`dp`]: exact dynamic programs — distance from an explicit distribution
//!   to the class `H_k` (the Check step of Algorithm 1, per
//!   [CDGR16, Lemma 4.11]) and optimal k-flat approximations.
//! - [`modal`]: k-modal machinery for the paper's Section 1.2 remark that
//!   the lower bound extends to k-modal distributions.
//! - [`empirical`]: empirical distributions from sample counts.
//!
//! Conventions: the domain is 0-indexed internally (`0..n`); all masses are
//! `f64` and constructors validate non-negativity and normalization up to
//! [`MASS_TOLERANCE`].

pub mod dist;
pub mod distance;
pub mod dp;
pub mod empirical;
pub mod error;
pub mod histogram;
pub mod interval;
pub mod modal;

pub use dist::{Distribution, MASS_TOLERANCE};
pub use error::HistoError;
pub use histogram::KHistogram;
pub use interval::{Interval, Partition};

/// Convenient `Result` alias for this workspace.
pub type Result<T> = std::result::Result<T, HistoError>;
