//! The tracer: span stack, sample ledger, wall-time attribution, and
//! event emission.

use crate::clock::{Clock, MonotonicClock};
use crate::event::{Stage, TraceEvent, Value};
use crate::sink::{NullSink, TraceSink};
use std::io;

/// Per-stage attribution of oracle draws.
///
/// Entries are kept in first-seen order, so the ledger (and everything
/// rendered from it) is deterministic. Charges made while no span is
/// open land in `unattributed`; the defining invariant is
///
/// ```text
/// Σ stage totals + unattributed == total()
/// ```
///
/// which holds by construction: every charge increments exactly one
/// bucket and the running total.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SampleLedger {
    entries: Vec<(Stage, u64)>,
    unattributed: u64,
    total: u64,
}

impl SampleLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    fn charge(&mut self, stage: Option<Stage>, samples: u64) {
        self.total += samples;
        match stage {
            None => self.unattributed += samples,
            Some(stage) => {
                if let Some(entry) = self.entries.iter_mut().find(|(s, _)| *s == stage) {
                    entry.1 += samples;
                } else {
                    self.entries.push((stage, samples));
                }
            }
        }
    }

    /// Per-stage totals in first-seen order.
    pub fn entries(&self) -> &[(Stage, u64)] {
        &self.entries
    }

    /// Total draws charged to `stage` (0 if never seen).
    pub fn stage_total(&self, stage: Stage) -> u64 {
        self.entries
            .iter()
            .find(|(s, _)| *s == stage)
            .map_or(0, |(_, n)| *n)
    }

    /// Draws charged while no span was open.
    pub fn unattributed(&self) -> u64 {
        self.unattributed
    }

    /// Grand total of charged draws.
    pub fn total(&self) -> u64 {
        self.total
    }
}

/// Per-stage wall-time totals, aggregated over spans.
///
/// `inclusive_us` counts a span's full duration (children included);
/// `exclusive_us` subtracts time spent in nested spans, so summing it
/// over all stages telescopes back to [`StageTimings::root_us`] — the
/// total duration of top-level spans. That identity is what lets
/// `fewbins report` present per-stage wall-time that provably accounts
/// for the whole traced run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageWall {
    /// Number of spans closed for this stage.
    pub spans: u64,
    /// Total span duration in µs, nested spans included.
    pub inclusive_us: u64,
    /// Total span duration in µs with nested spans' time subtracted.
    pub exclusive_us: u64,
}

/// Wall-time ledger: the timing counterpart of [`SampleLedger`].
///
/// Entries are kept in first-seen order like the sample ledger. All
/// durations are zero when the tracer runs timing-free — span counts
/// still accumulate.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StageTimings {
    entries: Vec<(Stage, StageWall)>,
    root_us: u64,
}

impl StageTimings {
    /// Per-stage totals in first-seen order.
    pub fn entries(&self) -> &[(Stage, StageWall)] {
        &self.entries
    }

    /// Totals for `stage` (all-zero if never exited).
    pub fn stage(&self, stage: Stage) -> StageWall {
        self.entries
            .iter()
            .find(|(s, _)| *s == stage)
            .map_or(StageWall::default(), |(_, w)| *w)
    }

    /// Total duration of top-level (depth-0) spans in µs; equals the
    /// sum of `exclusive_us` over all stages.
    pub fn root_us(&self) -> u64 {
        self.root_us
    }

    fn entry_mut(&mut self, stage: Stage) -> &mut StageWall {
        if let Some(i) = self.entries.iter().position(|(s, _)| *s == stage) {
            &mut self.entries[i].1
        } else {
            self.entries.push((stage, StageWall::default()));
            &mut self.entries.last_mut().expect("just pushed").1
        }
    }
}

struct Frame {
    stage: Stage,
    /// Draws charged to this span exclusively (children excluded).
    charged: u64,
    /// Clock reading at entry, when a clock is attached.
    start_us: Option<u64>,
    /// Total µs spent in already-closed child spans of this frame.
    child_us: u64,
}

/// Owns a [`TraceSink`], a span stack, and a [`SampleLedger`].
///
/// The tracer is the single mutation point for trace state: stages are
/// opened/closed with [`enter`](Tracer::enter)/[`exit`](Tracer::exit),
/// oracle draws are attributed with [`charge`](Tracer::charge), and
/// scalar observations are emitted with [`counter`](Tracer::counter).
pub struct Tracer {
    sink: Box<dyn TraceSink>,
    stack: Vec<Frame>,
    ledger: SampleLedger,
    timings: StageTimings,
    seq: u64,
    clock: Option<Box<dyn Clock>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new(Box::new(NullSink))
    }
}

impl Tracer {
    /// A tracer emitting into `sink`, timed by the real monotonic clock.
    pub fn new(sink: Box<dyn TraceSink>) -> Self {
        Self {
            sink,
            stack: Vec::new(),
            ledger: SampleLedger::new(),
            timings: StageTimings::default(),
            seq: 0,
            clock: Some(Box::new(MonotonicClock::new())),
        }
    }

    /// Disables span timing: `t_us`/`elapsed_us` are omitted from every
    /// event, making the emitted byte stream a pure function of the
    /// algorithm's behavior (the determinism suite relies on this).
    pub fn without_timing(mut self) -> Self {
        self.clock = None;
        self
    }

    /// Replaces the span clock — e.g. with a deterministic
    /// [`crate::ManualClock`] so tests can assert on exact timestamps.
    pub fn with_clock(mut self, clock: Box<dyn Clock>) -> Self {
        self.clock = Some(clock);
        self
    }

    /// Adds `us` microseconds of *virtual* time to the span clock.
    ///
    /// Real clocks ignore it; a [`crate::ManualClock`] moves forward,
    /// which is how simulated stalls (`histo-faults`) surface in stage
    /// wall-time deterministically. No-op in timing-free mode.
    pub fn advance_clock(&mut self, us: u64) {
        if let Some(clock) = self.clock.as_mut() {
            clock.advance(us);
        }
    }

    fn next_seq(&mut self) -> u64 {
        let s = self.seq;
        self.seq += 1;
        s
    }

    fn now_us(&mut self) -> Option<u64> {
        self.clock.as_mut().map(|c| c.now_us())
    }

    /// Opens a span for `stage`. Spans nest; close with [`exit`](Tracer::exit).
    pub fn enter(&mut self, stage: Stage) {
        let seq = self.next_seq();
        let depth = self.stack.len();
        let t_us = self.now_us();
        self.sink.record(&TraceEvent::StageEnter {
            seq,
            stage,
            depth,
            t_us,
        });
        self.stack.push(Frame {
            stage,
            charged: 0,
            start_us: t_us,
            child_us: 0,
        });
    }

    /// Closes the innermost span.
    ///
    /// # Panics
    /// If no span is open — an unbalanced exit is a bug in the
    /// instrumented code, not a runtime condition to tolerate.
    pub fn exit(&mut self) {
        let frame = self
            .stack
            .pop()
            .expect("Tracer::exit with no open span (unbalanced instrumentation)");
        let seq = self.next_seq();
        let t_us = self.now_us();
        let elapsed_us = match (frame.start_us, t_us) {
            (Some(start), Some(now)) => Some(now.saturating_sub(start)),
            _ => None,
        };
        self.sink.record(&TraceEvent::StageExit {
            seq,
            stage: frame.stage,
            depth: self.stack.len(),
            samples: frame.charged,
            elapsed_us,
            t_us,
        });
        let elapsed = elapsed_us.unwrap_or(0);
        let wall = self.timings.entry_mut(frame.stage);
        wall.spans += 1;
        wall.inclusive_us += elapsed;
        wall.exclusive_us += elapsed.saturating_sub(frame.child_us);
        match self.stack.last_mut() {
            Some(parent) => parent.child_us += elapsed,
            None => self.timings.root_us += elapsed,
        }
    }

    /// The innermost open stage, if any.
    pub fn current_stage(&self) -> Option<Stage> {
        self.stack.last().map(|f| f.stage)
    }

    /// Attributes `samples` oracle draws to the innermost open stage
    /// (or to the unattributed bucket at top level).
    pub fn charge(&mut self, samples: u64) {
        if samples == 0 {
            return;
        }
        let stage = self.current_stage();
        self.ledger.charge(stage, samples);
        if let Some(frame) = self.stack.last_mut() {
            frame.charged += samples;
        }
    }

    /// Emits a named scalar, attributed to the innermost open stage.
    pub fn counter(&mut self, name: &'static str, value: impl Into<Value>) {
        let seq = self.next_seq();
        let stage = self.current_stage();
        self.sink.record(&TraceEvent::Counter {
            seq,
            stage,
            name,
            value: value.into(),
        });
    }

    /// Read access to the ledger while tracing is still in progress.
    pub fn ledger(&self) -> &SampleLedger {
        &self.ledger
    }

    /// Read access to the per-stage wall-time totals
    /// accumulated so far (spans still open are not counted).
    pub fn timings(&self) -> &StageTimings {
        &self.timings
    }

    /// Number of currently open spans.
    pub fn open_spans(&self) -> usize {
        self.stack.len()
    }

    /// Emits the ledger summary (one [`TraceEvent::LedgerEntry`] per
    /// stage plus a [`TraceEvent::LedgerTotal`] footer), flushes the
    /// sink, and returns the ledger.
    ///
    /// # Errors
    /// The sink's first write error, if it met one at any point of the
    /// run: the trace on disk is then incomplete.
    ///
    /// # Panics
    /// If spans are still open — the instrumentation must be balanced
    /// before the run is summarized.
    pub fn finish(self) -> io::Result<SampleLedger> {
        Ok(self.finish_with_timings()?.0)
    }

    /// Like [`Tracer::finish`], additionally returning the per-stage
    /// wall-time totals.
    ///
    /// # Errors
    /// The sink's first write error (see [`Tracer::finish`]).
    ///
    /// # Panics
    /// If spans are still open (see [`Tracer::finish`]).
    pub fn finish_with_timings(mut self) -> io::Result<(SampleLedger, StageTimings)> {
        assert!(
            self.stack.is_empty(),
            "Tracer::finish with {} open span(s)",
            self.stack.len()
        );
        for &(stage, samples) in self.ledger.entries.iter() {
            self.sink
                .record(&TraceEvent::LedgerEntry { stage, samples });
        }
        self.sink.record(&TraceEvent::LedgerTotal {
            samples: self.ledger.total,
            unattributed: self.ledger.unattributed,
        });
        self.sink.flush()?;
        Ok((
            std::mem::take(&mut self.ledger),
            std::mem::take(&mut self.timings),
        ))
    }
}

/// Dropping a tracer without [`Tracer::finish`] (early return, panic
/// unwind, an abandoned run) never panics, whatever the span stack
/// looks like: the sink is flushed so everything recorded so far is on
/// disk, leaving a well-defined *truncated* stream — whole JSONL lines
/// only, possibly with enter events lacking matching exits and no
/// ledger footer.
impl Drop for Tracer {
    fn drop(&mut self) {
        let _ = self.sink.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{JsonlSink, MemorySink, SharedBuffer};

    #[test]
    fn charges_attribute_to_innermost_stage() {
        let mut t = Tracer::default();
        t.enter(Stage::Sieve);
        t.charge(10);
        t.enter(Stage::AdkTest);
        t.charge(5);
        t.exit();
        t.charge(2);
        t.exit();
        t.charge(3); // top level: unattributed
        let ledger = t.finish().unwrap();
        assert_eq!(ledger.stage_total(Stage::Sieve), 12);
        assert_eq!(ledger.stage_total(Stage::AdkTest), 5);
        assert_eq!(ledger.unattributed(), 3);
        assert_eq!(ledger.total(), 20);
    }

    #[test]
    fn ledger_partitions_total() {
        let mut t = Tracer::default();
        for (stage, n) in [
            (Stage::ApproxPart, 7u64),
            (Stage::Learner, 11),
            (Stage::Sieve, 13),
            (Stage::ApproxPart, 5),
        ] {
            t.enter(stage);
            t.charge(n);
            t.exit();
        }
        let ledger = t.finish().unwrap();
        let sum: u64 = ledger.entries().iter().map(|(_, n)| n).sum();
        assert_eq!(sum + ledger.unattributed(), ledger.total());
        assert_eq!(ledger.stage_total(Stage::ApproxPart), 12);
        // First-seen order is preserved.
        let stages: Vec<Stage> = ledger.entries().iter().map(|(s, _)| *s).collect();
        assert_eq!(stages, [Stage::ApproxPart, Stage::Learner, Stage::Sieve]);
    }

    #[test]
    fn exit_reports_exclusive_samples() {
        let sink = MemorySink::new();
        let handle = sink.handle();
        let mut t = Tracer::new(Box::new(sink)).without_timing();
        t.enter(Stage::Sieve);
        t.charge(10);
        t.enter(Stage::AdkTest);
        t.charge(4);
        t.exit();
        t.exit();
        t.finish().unwrap();
        let exits: Vec<(Stage, u64)> = handle
            .events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::StageExit { stage, samples, .. } => Some((*stage, *samples)),
                _ => None,
            })
            .collect();
        assert_eq!(exits, [(Stage::AdkTest, 4), (Stage::Sieve, 10)]);
    }

    #[test]
    fn sum_of_exit_samples_matches_ledger_total() {
        let sink = MemorySink::new();
        let handle = sink.handle();
        let mut t = Tracer::new(Box::new(sink)).without_timing();
        t.enter(Stage::ApproxPart);
        t.charge(3);
        t.enter(Stage::Learner);
        t.charge(9);
        t.exit();
        t.charge(1);
        t.exit();
        let ledger = t.finish().unwrap();
        let from_exits: u64 = handle
            .events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::StageExit { samples, .. } => Some(*samples),
                _ => None,
            })
            .sum();
        assert_eq!(from_exits + ledger.unattributed(), ledger.total());
    }

    #[test]
    fn counters_carry_current_stage() {
        let sink = MemorySink::new();
        let handle = sink.handle();
        let mut t = Tracer::new(Box::new(sink)).without_timing();
        t.counter("top", 1u64);
        t.enter(Stage::Sieve);
        t.counter("round", 2u64);
        t.exit();
        t.finish().unwrap();
        let counters: Vec<(Option<Stage>, &'static str)> = handle
            .events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Counter { stage, name, .. } => Some((*stage, *name)),
                _ => None,
            })
            .collect();
        assert_eq!(counters, [(None, "top"), (Some(Stage::Sieve), "round")]);
    }

    #[test]
    fn timing_off_yields_identical_bytes_across_runs() {
        let run = || {
            let buf = SharedBuffer::new();
            let mut t = Tracer::new(Box::new(JsonlSink::new(buf.clone()))).without_timing();
            t.enter(Stage::ApproxPart);
            t.charge(100);
            t.counter("partition_size", 17u64);
            t.exit();
            t.finish().unwrap();
            buf.contents()
        };
        assert_eq!(run(), run());
        assert!(!run().is_empty());
    }

    #[test]
    fn timing_on_emits_elapsed() {
        let sink = MemorySink::new();
        let handle = sink.handle();
        let mut t = Tracer::new(Box::new(sink));
        t.enter(Stage::Check);
        t.exit();
        t.finish().unwrap();
        let has_elapsed = handle.events().iter().any(|e| {
            matches!(
                e,
                TraceEvent::StageExit {
                    elapsed_us: Some(_),
                    ..
                }
            )
        });
        assert!(has_elapsed);
    }

    #[test]
    fn finish_emits_ledger_rows_then_total() {
        let sink = MemorySink::new();
        let handle = sink.handle();
        let mut t = Tracer::new(Box::new(sink)).without_timing();
        t.enter(Stage::Learner);
        t.charge(8);
        t.exit();
        t.finish().unwrap();
        let events = handle.events();
        let n = events.len();
        assert_eq!(
            events[n - 2],
            TraceEvent::LedgerEntry {
                stage: Stage::Learner,
                samples: 8
            }
        );
        assert_eq!(
            events[n - 1],
            TraceEvent::LedgerTotal {
                samples: 8,
                unattributed: 0
            }
        );
    }

    #[test]
    fn manual_clock_timestamps_are_deterministic() {
        let run = || {
            let buf = SharedBuffer::new();
            let mut t = Tracer::new(Box::new(JsonlSink::new(buf.clone())))
                .with_clock(Box::new(crate::ManualClock::with_step(5)));
            t.enter(Stage::Sieve);
            t.charge(3);
            t.enter(Stage::AdkTest);
            t.exit();
            t.exit();
            t.finish().unwrap();
            buf.contents()
        };
        assert_eq!(run(), run());
        let text = String::from_utf8(run()).unwrap();
        // Reads at 0, 5, 10, 15 µs: the sieve span is 15-0, adk is 10-5.
        assert!(text.contains("\"t_us\":0"), "{text}");
        assert!(text.contains("\"elapsed_us\":5,\"t_us\":10"), "{text}");
        assert!(text.contains("\"elapsed_us\":15,\"t_us\":15"), "{text}");
    }

    #[test]
    fn stage_timings_split_exclusive_from_inclusive() {
        let mut t = Tracer::default().with_clock(Box::new(crate::ManualClock::with_step(10)));
        t.enter(Stage::Sieve); // t=0
        t.enter(Stage::AdkTest); // t=10
        t.exit(); // t=20: adk inclusive 10
        t.enter(Stage::AdkTest); // t=30
        t.exit(); // t=40: adk inclusive 10
        t.exit(); // t=50: sieve inclusive 50, exclusive 30
        let (_, timings) = t.finish_with_timings().unwrap();
        let sieve = timings.stage(Stage::Sieve);
        let adk = timings.stage(Stage::AdkTest);
        assert_eq!(
            (sieve.spans, sieve.inclusive_us, sieve.exclusive_us),
            (1, 50, 30)
        );
        assert_eq!((adk.spans, adk.inclusive_us, adk.exclusive_us), (2, 20, 20));
        // Exclusive times telescope back to the root duration.
        let excl_sum: u64 = timings.entries().iter().map(|(_, w)| w.exclusive_us).sum();
        assert_eq!(excl_sum, timings.root_us());
        assert_eq!(timings.root_us(), 50);
    }

    #[test]
    fn advance_clock_adds_virtual_stall_time() {
        let mut t = Tracer::default().with_clock(Box::new(crate::ManualClock::new()));
        t.enter(Stage::Check);
        t.advance_clock(250);
        t.exit();
        let (_, timings) = t.finish_with_timings().unwrap();
        assert_eq!(timings.stage(Stage::Check).inclusive_us, 250);
        // ...and is ignored without a clock.
        let mut t = Tracer::default().without_timing();
        t.enter(Stage::Check);
        t.advance_clock(250);
        t.exit();
        let (_, timings) = t.finish_with_timings().unwrap();
        assert_eq!(timings.stage(Stage::Check).inclusive_us, 0);
        assert_eq!(timings.stage(Stage::Check).spans, 1);
    }

    #[test]
    fn drop_with_open_spans_flushes_truncated_stream() {
        let buf = SharedBuffer::new();
        {
            let mut t = Tracer::new(Box::new(JsonlSink::new(buf.clone())));
            t.enter(Stage::Sieve);
            t.charge(7);
            t.enter(Stage::AdkTest);
            // Dropped with two open spans: must not panic.
        }
        let text = String::from_utf8(buf.contents()).unwrap();
        assert_eq!(text.lines().count(), 2, "{text}");
        assert!(text.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
        assert!(text.contains("\"ev\":\"enter\""));
        assert!(!text.contains("ledger_total"));
    }

    #[test]
    #[should_panic(expected = "unbalanced")]
    fn unbalanced_exit_panics() {
        let mut t = Tracer::default();
        t.exit();
    }

    #[test]
    #[should_panic(expected = "open span")]
    fn finish_with_open_span_panics() {
        let mut t = Tracer::default();
        t.enter(Stage::Sieve);
        t.finish().unwrap();
    }
}
