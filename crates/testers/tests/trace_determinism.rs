//! Determinism suite: with a fixed seed, the full `HistogramTester`
//! decision AND the emitted trace byte stream must be reproducible, and a
//! timed trace must reduce to the timing-free one once its timing fields
//! are stripped.

use histo_sampling::generators::staircase;
use histo_sampling::{DistOracle, ScopedOracle};
use histo_stats::PortableRng;
use histo_testers::histogram_tester::HistogramTester;
use histo_testers::Tester;
use histo_trace::{JsonlSink, ManualClock, SharedBuffer, Tracer};

/// One full tester run on a fixed instance/seed, returning the decision,
/// the per-run sample count, and the rendered trace bytes. `clock_step`
/// selects timing-free mode (`None`) or a deterministic [`ManualClock`]
/// advancing by that many µs per reading (`Some`).
fn run_once(accept_side: bool, clock_step: Option<u64>) -> (bool, u64, Vec<u8>) {
    let d = if accept_side {
        staircase(600, 3).unwrap().to_distribution().unwrap()
    } else {
        // A spiky non-histogram instance: exercises the sieve-removal and
        // check paths of the trace too.
        histo_core::Distribution::from_weights(
            (0..600)
                .map(|i| if i % 7 == 0 { 5.0 } else { 1.0 })
                .collect(),
        )
        .unwrap()
    };
    let mut rng = PortableRng::seed_from(1234);
    let mut inner = DistOracle::new(d).with_fast_poissonization();
    let buf = SharedBuffer::new();
    let tracer = Tracer::new(Box::new(JsonlSink::new(buf.clone())));
    let tracer = match clock_step {
        None => tracer.without_timing(),
        Some(step) => tracer.with_clock(Box::new(ManualClock::with_step(step))),
    };
    let mut oracle = ScopedOracle::with_tracer(&mut inner, tracer);
    let tester = HistogramTester::practical();
    let decision = tester.test(&mut oracle, 3, 0.3, &mut rng).unwrap();
    let drawn = histo_sampling::SampleOracle::samples_drawn(&oracle);
    let ledger = oracle.finish().unwrap();
    assert_eq!(ledger.total(), drawn, "ledger must sum to samples_drawn");
    (decision.accepted(), drawn, buf.contents())
}

/// Removes the timing-only fields (`,"t_us":N` / `,"elapsed_us":N`) from
/// a rendered trace, which must recover the timing-free byte stream.
fn strip_timing(bytes: &[u8]) -> Vec<u8> {
    let text = std::str::from_utf8(bytes).expect("traces are UTF-8");
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    'outer: while !rest.is_empty() {
        for key in [",\"t_us\":", ",\"elapsed_us\":"] {
            if let Some(tail) = rest.strip_prefix(key) {
                let digits = tail.bytes().take_while(u8::is_ascii_digit).count();
                if digits > 0 {
                    rest = &tail[digits..];
                    continue 'outer;
                }
            }
        }
        let ch = rest.chars().next().unwrap();
        out.push(ch);
        rest = &rest[ch.len_utf8()..];
    }
    out.into_bytes()
}

#[test]
fn decision_and_trace_bytes_are_deterministic() {
    let base_accept = run_once(true, None);
    let base_reject = run_once(false, None);
    assert!(
        !base_accept.2.is_empty() && !base_reject.2.is_empty(),
        "traces must be non-empty"
    );
    // The two sides genuinely exercise different paths.
    assert!(base_accept.0, "staircase(600, 3) should be accepted");
    assert!(!base_reject.0, "the spiky instance should be rejected");

    // A second run at the same seed under a deterministic injected clock
    // makes the same decision on the same draws, and stripping the timing
    // fields recovers exactly the timing-free stream: timing rides in a
    // separate channel and never perturbs the algorithmic bytes.
    let timed_accept = run_once(true, Some(7));
    let timed_reject = run_once(false, Some(7));
    assert!(
        timed_accept.2.windows(7).any(|w| w == b"\"t_us\":"),
        "timed stream must actually carry timestamps"
    );
    assert_eq!(timed_accept.0, base_accept.0);
    assert_eq!(timed_accept.1, base_accept.1);
    assert_eq!(timed_reject.0, base_reject.0);
    assert_eq!(timed_reject.1, base_reject.1);
    assert_eq!(strip_timing(&timed_accept.2), base_accept.2);
    assert_eq!(strip_timing(&timed_reject.2), base_reject.2);
}
