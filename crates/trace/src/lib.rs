#![warn(missing_docs)]

//! # histo-trace
//!
//! Zero-dependency observability for the `few-bins` workspace.
//!
//! The testers in this workspace are sample-complexity algorithms: the
//! quantity the paper bounds stage by stage (Theorem 1.1) is *how many
//! draws each subroutine consumes*. This crate makes that quantity a
//! first-class, machine-checkable artifact:
//!
//! - [`Stage`] names the pipeline stages of Algorithm 1 (ApproxPart,
//!   Learner, Sieve, Check, A-D-K identity test, …).
//! - [`TraceEvent`] is the event vocabulary: stage enter/exit spans,
//!   named counters, and an end-of-run ledger summary.
//! - [`TraceSink`] receives events. [`NullSink`] drops them (the
//!   zero-cost default), [`MemorySink`] buffers them for tests, and
//!   [`JsonlSink`] hand-serializes them as JSON Lines — no framework, no
//!   allocation tricks, one object per line.
//! - [`Tracer`] owns the span stack and the [`SampleLedger`]: every
//!   sample charged while a span is open is attributed to the innermost
//!   open stage, so the ledger *provably* partitions the total draw
//!   count (`Σ per-stage + unattributed = total`). The invariant is
//!   enforced in tests here and re-checked from the emitted JSONL by
//!   `fewbins report`.
//!
//! Byte-determinism: with timing disabled ([`Tracer::without_timing`])
//! the emitted event stream is a pure function of the algorithm's
//! decisions — wall-clock never enters the bytes — which is what lets
//! the determinism suite diff traces across runs.
//!
//! Wall time rides in a *separate channel*: spans are timed through the
//! injectable [`Clock`] trait ([`MonotonicClock`] in production,
//! [`ManualClock`] in tests), timestamps appear only as optional
//! `t_us`/`elapsed_us` fields, and per-stage totals accumulate in
//! [`StageTimings`] — the timing counterpart of the [`SampleLedger`].

mod clock;
mod event;
mod sink;
mod tracer;

pub use clock::{Clock, ManualClock, MonotonicClock};
pub use event::{escape_json_into, Stage, TraceEvent, Value};
pub use sink::{JsonlSink, MemorySink, NullSink, SharedBuffer, TraceSink};
pub use tracer::{SampleLedger, StageTimings, StageWall, Tracer};
