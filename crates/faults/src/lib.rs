#![warn(missing_docs)]

//! # histo-faults
//!
//! Deterministic fault injection for [`histo_sampling::SampleOracle`]s —
//! the adversarial half of the robustness story (see `docs/ROBUSTNESS.md`):
//!
//! - [`FaultPlan`]: a seeded, serializable schedule of faults. Parses from
//!   and renders to a compact `key=value,...` spec string (the `fewbins
//!   --faults` argument), so any run is replayable from its spec.
//! - [`FaultyOracle`]: wraps any oracle and injects, per the plan:
//!   - **Huber contamination** — with probability η a draw is replaced by
//!     a draw from an [`Adversary`] distribution, modeling the η-mixture
//!     `(1-η)·D + η·A` the tester actually faces on contaminated streams;
//!   - **budget exhaustion** — a typed `OracleExhausted` error once a hard
//!     cap on consumed draws is reached, never silent truncation;
//!   - **stalls** — simulated (optionally wall-clock) per-draw latency for
//!     timeout testing;
//!   - **duplicated / dropped draws** — stale-cache replays and draws
//!     consumed but never delivered.
//!
//! Every injected fault is tallied in [`FaultCounters`] and can be emitted
//! as the [`FAULT_COUNTERS`] family next to the sample ledger in a
//! `histo-trace` JSONL stream, where `fewbins report` audits the fault
//! ledger identity (`returned == consumed - dropped + duplicated`).
//!
//! Determinism contract: fault decisions consume a dedicated RNG seeded
//! from the plan — never the caller's sampling RNG — and
//! [`FaultPlan::none`] makes the wrapper a bit-transparent pass-through
//! (same values, same RNG stream, same accounting, same batch fast paths).

pub mod oracle;
pub mod plan;

pub use oracle::{FaultCounters, FaultyOracle, FAULT_COUNTERS};
pub use plan::{Adversary, FaultPlan};
