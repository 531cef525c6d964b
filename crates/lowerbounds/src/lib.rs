#![warn(missing_docs)]

//! # histo-lowerbounds
//!
//! The lower-bound constructions of Section 4 of the paper, implemented as
//! executable objects:
//!
//! - [`paninski`]: the family `Q_ε` of Proposition 4.1 — paired `(1 ± cε)/n`
//!   perturbations of uniform. Every member is far from `H_k` for
//!   `k < n/3` (certified analytically, per the paper's pairing argument),
//!   yet `o(√n/ε²)` samples cannot distinguish a random member from the
//!   uniform distribution.
//! - [`support_size`]: the `SuppSize_m` promise problem of \[VV10\] —
//!   distinguishing support `<= m/3` from `>= 7m/8` under the `1/m`
//!   mass promise — and explicit instances of it.
//! - [`reduction`]: the Section 4.2 black-box reduction: any tester for
//!   `H_k` solves `SuppSize_m` (for `m = ⌈3(k−1)/2⌉`) after random
//!   permutation "sprinkling" of an enlarged domain, including the
//!   `cover(σ(S))` machinery of Lemma 4.4.
//! - [`remark43`]: the alternative lower-bound route of Remark 4.3 — the
//!   constructive composition (H_k tester + agnostic learner + identity
//!   tester ⇒ uniformity tester) through which the Paninski bound
//!   transfers for `k = o(√n)`.
//! - [`advantage`]: a harness measuring the distinguishing advantage of a
//!   statistic between two hypothesis ensembles — the empirical form of
//!   the `Ω(√n/ε²)` barrier (experiment F1).

pub mod advantage;
pub mod paninski;
pub mod reduction;
pub mod remark43;
pub mod support_size;

pub use paninski::QEpsilonFamily;
pub use reduction::{cover, LiftedTester};
pub use support_size::SuppSizeInstance;
