//! The fault-injecting oracle wrapper.

use histo_core::empirical::SampleCounts;
use histo_core::HistoError;
use histo_sampling::oracle::{draw_counts_literally, poissonized_counts_literally};
use histo_sampling::{PortableRng, SampleOracle};
use histo_trace::{Tracer, Value};

use crate::plan::FaultPlan;

/// The trace counter family [`FaultyOracle::emit_counters`] writes, in
/// emission order: the five [`FaultCounters`] kinds, their total, and the
/// draws returned to the caller. `fewbins report` checks a trace's
/// `fault_*` counters against this list.
pub const FAULT_COUNTERS: [&str; 7] = [
    "fault_events_contaminated",
    "fault_events_duplicated",
    "fault_events_dropped",
    "fault_events_stalled",
    "fault_events_budget_hits",
    "fault_events_total",
    "fault_returned_draws",
];

/// Tallies of every fault injected so far, by kind.
///
/// The counts satisfy the *fault ledger identity* that `fewbins report`
/// audits in a trace: with `returned` the number of draws handed to the
/// caller and `consumed` the number of inner draws,
///
/// ```text
/// returned == consumed - dropped + duplicated
/// ```
///
/// (duplicates are served from a stale cache and consume nothing; drops
/// consume an inner draw that is never returned).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Draws replaced by the adversarial distribution (Huber contamination).
    pub contaminated: u64,
    /// Draws served as duplicates of the previous returned value.
    pub duplicated: u64,
    /// Inner draws consumed but never returned.
    pub dropped: u64,
    /// Stall events recorded.
    pub stalled: u64,
    /// Requests refused because the budget cap was reached.
    pub budget_hits: u64,
}

impl FaultCounters {
    /// Total number of fault events across all kinds.
    pub fn total(&self) -> u64 {
        self.contaminated + self.duplicated + self.dropped + self.stalled + self.budget_hits
    }
}

/// Wraps any [`SampleOracle`] and injects the faults scheduled by a
/// [`FaultPlan`]: Huber contamination, budget exhaustion, stalls, and
/// duplicated/dropped draws.
///
/// Determinism: every fault decision is drawn from a dedicated RNG seeded
/// with `plan.seed` — the caller's sampling RNG is never touched by the
/// fault layer, so a plan replays identically against the same oracle and
/// seed. With [`FaultPlan::none`] the wrapper is a bit-transparent
/// pass-through: same values, same RNG stream, same draw accounting,
/// including batch fast paths of the inner oracle.
///
/// Batch draws are forwarded to the inner oracle whenever no *per-draw*
/// fault is active (so a budget-only plan preserves the inner oracle's
/// batch fast paths bit for bit); any per-draw fault switches batches to a
/// literal draw loop so each constituent draw can be faulted.
///
/// Accounting: [`SampleOracle::samples_drawn`] reports draws *returned to
/// the caller* — what the tester actually received. The honest draws
/// consumed from the inner oracle (`>= returned` when drops are active) are
/// exposed as [`FaultyOracle::consumed`].
pub struct FaultyOracle<O: SampleOracle> {
    inner: O,
    plan: FaultPlan,
    frng: PortableRng,
    counters: FaultCounters,
    returned: u64,
    inner_start: u64,
    last: Option<usize>,
}

impl<O: SampleOracle> FaultyOracle<O> {
    /// Wraps `inner` under `plan`. Fault decisions use a fresh RNG seeded
    /// with `plan.seed`.
    pub fn new(inner: O, plan: FaultPlan) -> Self {
        let frng = PortableRng::seed_from(plan.seed);
        let inner_start = inner.samples_drawn();
        Self {
            inner,
            plan,
            frng,
            counters: FaultCounters::default(),
            returned: 0,
            inner_start,
            last: None,
        }
    }

    /// The active fault plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Fault tallies so far.
    pub fn counters(&self) -> FaultCounters {
        self.counters
    }

    /// Honest draws consumed from the inner oracle since wrapping.
    pub fn consumed(&self) -> u64 {
        self.inner.samples_drawn().saturating_sub(self.inner_start)
    }

    /// Shared access to the wrapped oracle.
    pub fn inner(&self) -> &O {
        &self.inner
    }

    /// Unwraps, returning the inner oracle.
    pub fn into_inner(self) -> O {
        self.inner
    }

    /// Emits the [`FAULT_COUNTERS`] family on the tracer attached below
    /// this oracle, so the JSONL trace carries an auditable fault record
    /// next to the sample ledger. No-op without a tracer.
    pub fn emit_counters(&mut self) {
        let c = self.counters;
        let values = [
            c.contaminated,
            c.duplicated,
            c.dropped,
            c.stalled,
            c.budget_hits,
            c.total(),
            self.returned,
        ];
        for (name, v) in FAULT_COUNTERS.into_iter().zip(values) {
            self.inner.trace_counter(name, Value::U64(v));
        }
    }

    fn exhausted(&self, budget: u64) -> HistoError {
        HistoError::OracleExhausted {
            budget,
            drawn: self.consumed(),
        }
    }

    /// Records a stall if this returned draw lands on the stall period.
    ///
    /// The stall is virtual time: `advance_clock` moves any injected
    /// deterministic clock (real clocks ignore it), so a traced faulty run
    /// attributes `stall_us` to whichever stage was stalled without ever
    /// sleeping.
    fn maybe_stall(&mut self) {
        let every = self.plan.stall_every;
        if every > 0 && self.returned % every == 0 {
            self.counters.stalled += 1;
            if self.plan.stall_us > 0 {
                if let Some(t) = self.inner.tracer() {
                    t.advance_clock(self.plan.stall_us);
                }
            }
        }
    }
}

impl<O: SampleOracle> SampleOracle for FaultyOracle<O> {
    fn n(&self) -> usize {
        self.inner.n()
    }

    fn samples_drawn(&self) -> u64 {
        self.returned
    }

    fn try_draw(&mut self, rng: &mut PortableRng) -> Result<usize, HistoError> {
        if !self.plan.per_draw_faults() {
            if let Some(b) = self.plan.budget {
                if self.consumed() >= b {
                    self.counters.budget_hits += 1;
                    return Err(self.exhausted(b));
                }
            }
            let x = self.inner.try_draw(rng)?;
            self.returned += 1;
            return Ok(x);
        }
        // Duplicate: replay the previous returned value from a stale
        // cache; consumes no inner draw, works even past the budget.
        if self.plan.dup_prob > 0.0 {
            if let Some(prev) = self.last {
                if self.frng.f64() < self.plan.dup_prob {
                    self.counters.duplicated += 1;
                    self.returned += 1;
                    self.maybe_stall();
                    return Ok(prev);
                }
            }
        }
        loop {
            if let Some(b) = self.plan.budget {
                if self.consumed() >= b {
                    self.counters.budget_hits += 1;
                    return Err(self.exhausted(b));
                }
            }
            let honest = self.inner.try_draw(rng)?;
            if self.plan.drop_prob > 0.0 && self.frng.f64() < self.plan.drop_prob {
                self.counters.dropped += 1;
                continue;
            }
            let x = if self.plan.eta > 0.0 && self.frng.f64() < self.plan.eta {
                self.counters.contaminated += 1;
                self.plan
                    .adversary
                    .corrupt(honest, self.inner.n(), &mut self.frng)
            } else {
                honest
            };
            self.last = Some(x);
            self.returned += 1;
            self.maybe_stall();
            return Ok(x);
        }
    }

    fn try_draw_counts(
        &mut self,
        m: u64,
        rng: &mut PortableRng,
    ) -> Result<SampleCounts, HistoError> {
        if !self.plan.per_draw_faults() {
            if let Some(b) = self.plan.budget {
                if m > b.saturating_sub(self.consumed()) {
                    self.counters.budget_hits += 1;
                    return Err(self.exhausted(b));
                }
            }
            let c = self.inner.try_draw_counts(m, rng)?;
            self.returned += c.total();
            return Ok(c);
        }
        draw_counts_literally(self, m, rng)
    }

    fn try_poissonized_counts(
        &mut self,
        m: f64,
        rng: &mut PortableRng,
    ) -> Result<SampleCounts, HistoError> {
        if !self.plan.per_draw_faults() {
            if let Some(b) = self.plan.budget {
                if self.consumed() >= b {
                    self.counters.budget_hits += 1;
                    return Err(self.exhausted(b));
                }
            }
            let c = self.inner.try_poissonized_counts(m, rng)?;
            if let Some(b) = self.plan.budget {
                if self.consumed() > b {
                    // The Poissonized batch overshot the cap: withhold it.
                    // Its draws were consumed but never returned — exactly
                    // the bookkeeping of dropped draws — keeping the fault
                    // ledger identity intact.
                    self.counters.dropped += c.total();
                    self.counters.budget_hits += 1;
                    return Err(self.exhausted(b));
                }
            }
            self.returned += c.total();
            return Ok(c);
        }
        // Per-draw faults active: draw the Poissonized batch size with the
        // caller's RNG, then route every constituent draw through the
        // faulting path.
        poissonized_counts_literally(self, m, rng)
    }

    fn tracer(&mut self) -> Option<&mut Tracer> {
        self.inner.tracer()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Adversary;
    use histo_core::Distribution;
    use histo_sampling::DistOracle;

    fn uniform(n: usize) -> DistOracle {
        DistOracle::new(Distribution::new(vec![1.0 / n as f64; n]).unwrap())
    }

    #[test]
    fn none_plan_is_bit_transparent() {
        let mut rng1 = PortableRng::seed_from(5);
        let mut plain = uniform(8);
        let direct: Vec<usize> = (0..50)
            .map(|_| plain.try_draw(&mut rng1).unwrap())
            .collect();
        let dc = plain.try_draw_counts(40, &mut rng1).unwrap();
        let pc = plain.try_poissonized_counts(30.0, &mut rng1).unwrap();

        let mut rng2 = PortableRng::seed_from(5);
        let mut faulty = FaultyOracle::new(uniform(8), FaultPlan::none());
        let wrapped: Vec<usize> = (0..50)
            .map(|_| faulty.try_draw(&mut rng2).unwrap())
            .collect();
        let dcw = faulty.try_draw_counts(40, &mut rng2).unwrap();
        let pcw = faulty.try_poissonized_counts(30.0, &mut rng2).unwrap();

        assert_eq!(direct, wrapped);
        assert_eq!(dc, dcw);
        assert_eq!(pc, pcw);
        assert_eq!(faulty.samples_drawn(), plain.samples_drawn());
        assert_eq!(faulty.consumed(), plain.samples_drawn());
        assert_eq!(faulty.counters(), FaultCounters::default());
    }

    #[test]
    fn stalls_advance_an_injected_virtual_clock() {
        use histo_sampling::ScopedOracle;
        use histo_trace::{ManualClock, NullSink, Stage, Tracer};
        // 70 µs stall every 10th returned draw, virtual time only. The
        // tracer sits *below* the fault layer (as `fewbins --trace
        // --faults` stacks them), so `maybe_stall` can reach it through
        // the `tracer()` hook.
        let plan = FaultPlan::none().with_stalls(70, 10);
        let mut inner = uniform(8);
        let tracer = Tracer::new(Box::new(NullSink)).with_clock(Box::new(ManualClock::new()));
        let scoped = ScopedOracle::with_tracer(&mut inner, tracer);
        let mut faulty = FaultyOracle::new(scoped, plan);
        let mut rng = PortableRng::seed_from(9);
        faulty.trace_enter(Stage::Sieve);
        for _ in 0..30 {
            faulty.try_draw(&mut rng).unwrap();
        }
        faulty.trace_exit();
        let stalled = faulty.counters().stalled;
        let (_, timings) = faulty.into_inner().finish_with_timings().unwrap();
        // Draws 10, 20, 30 stall: 3 × 70 µs of virtual wall time, all
        // attributed to the stage that was open — deterministically.
        assert_eq!(stalled, 3);
        assert_eq!(timings.stage(Stage::Sieve).inclusive_us, 210);
        assert_eq!(timings.root_us(), 210);
    }

    #[test]
    fn none_plan_preserves_fast_poissonization() {
        let d = Distribution::new(vec![0.25; 4]).unwrap();
        let mut rng1 = PortableRng::seed_from(6);
        let mut plain = DistOracle::new(d.clone()).with_fast_poissonization();
        let pc = plain.try_poissonized_counts(100.0, &mut rng1).unwrap();

        let mut rng2 = PortableRng::seed_from(6);
        let mut faulty = FaultyOracle::new(
            DistOracle::new(d).with_fast_poissonization(),
            FaultPlan::none(),
        );
        assert_eq!(faulty.try_poissonized_counts(100.0, &mut rng2).unwrap(), pc);
    }

    #[test]
    fn per_draw_fault_batch_is_the_single_draw_loop() {
        // With per-draw faults a batch of m is exactly m faulted draws:
        // same tally, same fault tallies, and both RNGs left in the same
        // place.
        let plan = FaultPlan::none()
            .with_contamination(0.2, Adversary::Uniform)
            .with_duplicates(0.1)
            .with_drops(0.1)
            .with_seed(21);
        let m = 500;
        let mut rng1 = PortableRng::seed_from(8);
        let mut batched = FaultyOracle::new(uniform(6), plan.clone());
        let counts = batched.try_draw_counts(m, &mut rng1).unwrap();

        let mut rng2 = PortableRng::seed_from(8);
        let mut looped = FaultyOracle::new(uniform(6), plan);
        let mut tally = [0u64; 6];
        for _ in 0..m {
            tally[looped.try_draw(&mut rng2).unwrap()] += 1;
        }

        assert_eq!(counts.counts(), &tally[..]);
        assert_eq!(batched.counters(), looped.counters());
        assert_eq!(batched.consumed(), looped.consumed());
        assert_eq!(rng1.next_u64(), rng2.next_u64());
        assert_eq!(batched.frng.next_u64(), looped.frng.next_u64());
    }

    #[test]
    fn fault_schedule_is_seed_deterministic() {
        let plan = FaultPlan::none()
            .with_contamination(0.2, Adversary::PointMass(0))
            .with_duplicates(0.05)
            .with_drops(0.05)
            .with_seed(99);
        let run = || {
            let mut rng = PortableRng::seed_from(7);
            let mut o = FaultyOracle::new(uniform(16), plan.clone());
            let xs: Vec<usize> = (0..400).map(|_| o.try_draw(&mut rng).unwrap()).collect();
            (xs, o.counters(), o.consumed())
        };
        let (a, ca, na) = run();
        let (b, cb, nb) = run();
        assert_eq!(a, b);
        assert_eq!(ca, cb);
        assert_eq!(na, nb);
        assert!(ca.contaminated > 0 && ca.duplicated > 0 && ca.dropped > 0);
    }

    #[test]
    fn contamination_rate_is_roughly_eta() {
        let plan = FaultPlan::none().with_contamination(0.3, Adversary::PointMass(0));
        let mut rng = PortableRng::seed_from(11);
        let mut o = FaultyOracle::new(uniform(4), plan);
        let draws = 20_000u64;
        for _ in 0..draws {
            o.try_draw(&mut rng).unwrap();
        }
        let rate = o.counters().contaminated as f64 / draws as f64;
        assert!((rate - 0.3).abs() < 0.02, "contamination rate {rate}");
    }

    #[test]
    fn point_mass_adversary_piles_on_target() {
        let plan = FaultPlan::none().with_contamination(0.5, Adversary::PointMass(2));
        let mut rng = PortableRng::seed_from(13);
        let mut o = FaultyOracle::new(uniform(10), plan);
        let c = o.try_draw_counts(10_000, &mut rng).unwrap();
        // Bin 2 receives ~0.5 + 0.5·0.1 of the mass.
        let f2 = c.count(2) as f64 / c.total() as f64;
        assert!((f2 - 0.55).abs() < 0.03, "point-mass frequency {f2}");
    }

    #[test]
    fn budget_cap_refuses_with_typed_error() {
        let plan = FaultPlan::none().with_budget(100);
        let mut rng = PortableRng::seed_from(17);
        let mut o = FaultyOracle::new(uniform(4), plan);
        o.try_draw_counts(100, &mut rng).unwrap();
        let err = o.try_draw(&mut rng).unwrap_err();
        assert!(matches!(
            err,
            HistoError::OracleExhausted {
                budget: 100,
                drawn: 100
            }
        ));
        assert_eq!(o.counters().budget_hits, 1);
        // Batch pre-check: a batch that cannot fit is refused drawing nothing.
        let before = o.consumed();
        assert!(o.try_draw_counts(1, &mut rng).is_err());
        assert_eq!(o.consumed(), before);
    }

    #[test]
    fn budget_precheck_cannot_wrap() {
        let mut rng = PortableRng::seed_from(18);
        let mut o = FaultyOracle::new(uniform(4), FaultPlan::none().with_budget(10));
        o.try_draw(&mut rng).unwrap();
        // `consumed() + m` wraps to 0 here; the batch is refused all the same.
        assert!(matches!(
            o.try_draw_counts(u64::MAX, &mut rng),
            Err(HistoError::OracleExhausted {
                budget: 10,
                drawn: 1
            })
        ));
        assert_eq!(o.samples_drawn(), 1);
        assert_eq!(o.consumed(), 1);
    }

    #[test]
    fn budget_cap_applies_to_consumed_not_returned_draws() {
        // With drops active, consumed > returned; the cap must bind on
        // consumed draws (the resource that actually runs out).
        let plan = FaultPlan::none()
            .with_drops(0.5)
            .with_budget(200)
            .with_seed(3);
        let mut rng = PortableRng::seed_from(19);
        let mut o = FaultyOracle::new(uniform(4), plan);
        let mut returned = 0u64;
        while o.try_draw(&mut rng).is_ok() {
            returned += 1;
            assert!(returned < 1_000, "budget never bound");
        }
        assert_eq!(o.consumed(), 200);
        assert!(o.samples_drawn() < 200);
        let c = o.counters();
        assert_eq!(o.samples_drawn(), o.consumed() - c.dropped + c.duplicated);
    }

    #[test]
    fn fault_ledger_identity_holds_under_all_faults() {
        let plan = FaultPlan::none()
            .with_contamination(0.1, Adversary::Mirror)
            .with_duplicates(0.07)
            .with_drops(0.04)
            .with_stalls(1, 50)
            .with_seed(23);
        let mut rng = PortableRng::seed_from(23);
        let mut o = FaultyOracle::new(uniform(8), plan);
        for _ in 0..500 {
            o.try_draw(&mut rng).unwrap();
        }
        o.try_draw_counts(300, &mut rng).unwrap();
        o.try_poissonized_counts(200.0, &mut rng).unwrap();
        let c = o.counters();
        assert_eq!(o.samples_drawn(), o.consumed() - c.dropped + c.duplicated);
        assert!(c.stalled > 0);
        assert_eq!(
            c.total(),
            c.contaminated + c.duplicated + c.dropped + c.stalled + c.budget_hits
        );
    }

    #[test]
    fn counters_are_emitted_to_the_trace() {
        use histo_sampling::ScopedOracle;
        use histo_trace::{JsonlSink, SharedBuffer, Tracer};
        let buf = SharedBuffer::new();
        let mut base = uniform(4);
        let scoped = ScopedOracle::with_tracer(
            &mut base,
            Tracer::new(Box::new(JsonlSink::new(buf.clone()))).without_timing(),
        );
        let plan = FaultPlan::none()
            .with_contamination(0.2, Adversary::PointMass(0))
            .with_seed(29);
        let mut faulty = FaultyOracle::new(scoped, plan);
        let mut rng = PortableRng::seed_from(29);
        for _ in 0..200 {
            faulty.try_draw(&mut rng).unwrap();
        }
        faulty.emit_counters();
        faulty.into_inner().finish().unwrap();
        let text = String::from_utf8(buf.contents()).unwrap();
        assert!(text.contains("fault_events_contaminated"), "{text}");
        assert!(text.contains("fault_events_total"), "{text}");
        assert!(text.contains("fault_returned_draws"), "{text}");
    }

    #[test]
    fn per_draw_poissonized_batch_total_matches_counts() {
        let plan = FaultPlan::none()
            .with_contamination(0.3, Adversary::Uniform)
            .with_seed(31);
        let mut rng = PortableRng::seed_from(31);
        let mut o = FaultyOracle::new(uniform(6), plan);
        let c = o.try_poissonized_counts(150.0, &mut rng).unwrap();
        assert_eq!(c.total(), o.samples_drawn());
    }
}
