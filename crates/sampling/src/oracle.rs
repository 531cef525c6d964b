//! Sample oracles: the access model of distribution testing.
//!
//! A tester interacts with the unknown distribution **only** through a
//! [`SampleOracle`]. Oracles count every sample they hand out, so the
//! sample complexities reported by the experiment harness are measured
//! ground truth. Every draw is fallible, and there are three entry points:
//!
//! - [`SampleOracle::try_draw`] — one i.i.d. sample (the one required
//!   primitive).
//! - [`SampleOracle::try_draw_counts`] — the tallied counts of exactly `m`
//!   i.i.d. samples; the default ([`draw_counts_literally`]) loops over
//!   `try_draw`.
//! - [`SampleOracle::try_poissonized_counts`] — the per-element counts of a
//!   `Poisson(m)`-sized i.i.d. batch (Section 2, "Poissonization"). The
//!   default ([`poissonized_counts_literally`]) draws `m' ~ Poisson(m)`
//!   samples; the distribution-backed [`DistOracle`] overrides it with the
//!   equivalent per-bin fast path `N_i ~ Poisson(m·D(i))` when enabled.
//!
//! The two literal loops are free functions so that an oracle overriding a
//! batch method for its fast path can still fall back to the very same
//! loop, draw for draw.
//!
//! An oracle that can run out — a budget cap ([`BudgetedOracle`]), a
//! finite recorded dataset, an injected fault — returns
//! [`HistoError::OracleExhausted`]; one that cannot never returns `Err`.

use crate::alias::AliasSampler;
use histo_core::empirical::SampleCounts;
use histo_core::{Distribution, HistoError};
use histo_stats::Poisson;
use histo_stats::PortableRng;
use histo_trace::{SampleLedger, Stage, StageTimings, TraceSink, Tracer, Value};

/// Black-box sample access to an unknown distribution over `\[n\]`, with
/// built-in draw accounting.
pub trait SampleOracle {
    /// Domain size `n`.
    fn n(&self) -> usize;

    /// Total samples drawn so far.
    fn samples_drawn(&self) -> u64;

    /// Draws one i.i.d. sample (0-based index) and counts it.
    ///
    /// # Errors
    ///
    /// Returns [`HistoError::OracleExhausted`] when the oracle cannot serve
    /// the draw (a budget cap, a finite dataset, an injected fault).
    fn try_draw(&mut self, rng: &mut PortableRng) -> Result<usize, HistoError>;

    /// Draws exactly `m` i.i.d. samples and tallies them. The default is
    /// [`draw_counts_literally`].
    ///
    /// # Errors
    ///
    /// Returns [`HistoError::OracleExhausted`] when the oracle cannot serve
    /// the whole batch. Any draws consumed by a refused batch stay counted
    /// in [`SampleOracle::samples_drawn`] — refusal never un-counts work.
    fn try_draw_counts(
        &mut self,
        m: u64,
        rng: &mut PortableRng,
    ) -> Result<SampleCounts, HistoError> {
        draw_counts_literally(self, m, rng)
    }

    /// Draws a `Poisson(m)`-sized i.i.d. batch and tallies it. The default
    /// is [`poissonized_counts_literally`].
    ///
    /// # Errors
    ///
    /// Returns [`HistoError::OracleExhausted`] when the oracle cannot serve
    /// the whole batch (the batch size is only known after drawing it, so
    /// capped oracles may consume draws and then refuse the batch; the
    /// consumed draws stay counted).
    fn try_poissonized_counts(
        &mut self,
        m: f64,
        rng: &mut PortableRng,
    ) -> Result<SampleCounts, HistoError> {
        poissonized_counts_literally(self, m, rng)
    }

    /// The [`Tracer`] charging this oracle's draws to pipeline stages, if
    /// one is attached. Plain oracles return `None` (the default), which
    /// makes every `trace_*` helper below a no-op — tracing costs nothing
    /// unless a [`ScopedOracle`] wraps the oracle.
    fn tracer(&mut self) -> Option<&mut Tracer> {
        None
    }

    /// Opens a stage span on the attached tracer (no-op without one).
    fn trace_enter(&mut self, stage: Stage) {
        if let Some(t) = self.tracer() {
            t.enter(stage);
        }
    }

    /// Closes the innermost stage span (no-op without a tracer).
    fn trace_exit(&mut self) {
        if let Some(t) = self.tracer() {
            t.exit();
        }
    }

    /// Emits a named counter on the attached tracer (no-op without one).
    fn trace_counter(&mut self, name: &'static str, value: Value) {
        if let Some(t) = self.tracer() {
            t.counter(name, value);
        }
    }
}

/// Tallies `m` calls of `oracle.try_draw`: the default
/// [`SampleOracle::try_draw_counts`].
///
/// # Errors
///
/// The first error of a `try_draw`; the draws before it stay counted.
pub fn draw_counts_literally<O: SampleOracle + ?Sized>(
    oracle: &mut O,
    m: u64,
    rng: &mut PortableRng,
) -> Result<SampleCounts, HistoError> {
    let mut counts = vec![0u64; oracle.n()];
    for _ in 0..m {
        counts[oracle.try_draw(rng)?] += 1;
    }
    Ok(SampleCounts::from_counts(counts).expect("n >= 1"))
}

/// Draws the batch size `m' ~ Poisson(m)` from `rng`, then calls
/// `oracle.try_draw_counts(m')`: the default
/// [`SampleOracle::try_poissonized_counts`].
///
/// # Errors
///
/// Whatever `try_draw_counts` returns.
pub fn poissonized_counts_literally<O: SampleOracle + ?Sized>(
    oracle: &mut O,
    m: f64,
    rng: &mut PortableRng,
) -> Result<SampleCounts, HistoError> {
    let m_prime = Poisson::new(m).sample(rng);
    oracle.try_draw_counts(m_prime, rng)
}

/// A `&mut` reference to an oracle is itself an oracle. Every method —
/// including the batch paths — forwards to the referent, so overrides
/// (budget caps, fast Poissonization, tracing) are never bypassed by a
/// default implementation on the reference.
impl<O: SampleOracle + ?Sized> SampleOracle for &mut O {
    fn n(&self) -> usize {
        (**self).n()
    }

    fn samples_drawn(&self) -> u64 {
        (**self).samples_drawn()
    }

    fn try_draw(&mut self, rng: &mut PortableRng) -> Result<usize, HistoError> {
        (**self).try_draw(rng)
    }

    fn try_draw_counts(
        &mut self,
        m: u64,
        rng: &mut PortableRng,
    ) -> Result<SampleCounts, HistoError> {
        (**self).try_draw_counts(m, rng)
    }

    fn try_poissonized_counts(
        &mut self,
        m: f64,
        rng: &mut PortableRng,
    ) -> Result<SampleCounts, HistoError> {
        (**self).try_poissonized_counts(m, rng)
    }

    fn tracer(&mut self) -> Option<&mut Tracer> {
        (**self).tracer()
    }
}

/// Wraps an oracle with a [`Tracer`]: every draw made through the wrapper
/// is charged to the currently open stage, so the tracer's
/// [`SampleLedger`] partitions the wrapper's draw count exactly.
///
/// Charging is *delta-based*: each forwarded call reads the inner
/// oracle's [`SampleOracle::samples_drawn`] before and after and charges
/// the difference. That makes the ledger invariant hold no matter how an
/// oracle implements its batch methods — a [`DistOracle`] with the
/// per-bin Poissonization fast path and a literal-draw oracle charge
/// identically — and guarantees no draw is ever double-counted (batch
/// methods are forwarded to the inner oracle, never re-implemented in
/// terms of traced `try_draw` calls).
pub struct ScopedOracle<'a> {
    inner: &'a mut dyn SampleOracle,
    tracer: Tracer,
}

impl<'a> ScopedOracle<'a> {
    /// Wraps `inner`, emitting trace events into `sink` (timing on).
    pub fn new(inner: &'a mut dyn SampleOracle, sink: Box<dyn TraceSink>) -> Self {
        Self::with_tracer(inner, Tracer::new(sink))
    }

    /// Wraps `inner` with a pre-configured tracer (e.g. one built with
    /// [`Tracer::without_timing`] for byte-deterministic streams).
    pub fn with_tracer(inner: &'a mut dyn SampleOracle, tracer: Tracer) -> Self {
        Self { inner, tracer }
    }

    /// Read access to the ledger accumulated so far.
    pub fn ledger(&self) -> &SampleLedger {
        self.tracer.ledger()
    }

    /// Read access to the per-stage wall-time totals accumulated so far.
    /// Draws and time are charged through the same span stack, so this is
    /// the ledger's time counterpart (zero durations when the tracer is
    /// timing-free).
    pub fn timings(&self) -> &StageTimings {
        self.tracer.timings()
    }

    /// Finishes the tracer (emits the ledger summary, flushes the sink)
    /// and returns the ledger.
    ///
    /// # Errors
    /// The sink's first write error (see [`Tracer::finish`]).
    pub fn finish(self) -> std::io::Result<SampleLedger> {
        self.tracer.finish()
    }

    /// Like [`ScopedOracle::finish`], additionally returning the
    /// per-stage wall-time totals.
    ///
    /// # Errors
    /// The sink's first write error (see [`Tracer::finish`]).
    pub fn finish_with_timings(self) -> std::io::Result<(SampleLedger, StageTimings)> {
        self.tracer.finish_with_timings()
    }

    fn charge_delta(&mut self, before: u64) {
        let delta = self.inner.samples_drawn().saturating_sub(before);
        self.tracer.charge(delta);
    }
}

impl SampleOracle for ScopedOracle<'_> {
    fn n(&self) -> usize {
        self.inner.n()
    }

    fn samples_drawn(&self) -> u64 {
        self.inner.samples_drawn()
    }

    fn try_draw(&mut self, rng: &mut PortableRng) -> Result<usize, HistoError> {
        let before = self.inner.samples_drawn();
        let r = self.inner.try_draw(rng);
        // Charge on Err too: a refused request may still have consumed
        // draws (Poissonized overshoot), and the ledger must account them.
        self.charge_delta(before);
        r
    }

    fn try_draw_counts(
        &mut self,
        m: u64,
        rng: &mut PortableRng,
    ) -> Result<SampleCounts, HistoError> {
        let before = self.inner.samples_drawn();
        let r = self.inner.try_draw_counts(m, rng);
        self.charge_delta(before);
        r
    }

    fn try_poissonized_counts(
        &mut self,
        m: f64,
        rng: &mut PortableRng,
    ) -> Result<SampleCounts, HistoError> {
        let before = self.inner.samples_drawn();
        let r = self.inner.try_poissonized_counts(m, rng);
        self.charge_delta(before);
        r
    }

    fn tracer(&mut self) -> Option<&mut Tracer> {
        Some(&mut self.tracer)
    }
}

/// Enforces a hard draw budget over an inner oracle.
///
/// Every draw method returns [`HistoError::OracleExhausted`] once the cap
/// is reached.
///
/// Budget semantics:
///
/// - `try_draw`: refused once `used() >= budget`.
/// - `try_draw_counts(m, ..)`: strict pre-check — refused (drawing nothing)
///   if `m` exceeds the remaining budget.
/// - `try_poissonized_counts(m, ..)`: the batch size is `Poisson(m)`, known
///   only after drawing, so the check is pre + post: refused up front once
///   the cap is reached, and a batch that overshoots the cap is withheld
///   (its draws stay counted, but no data past the cap is released).
pub struct BudgetedOracle<'a> {
    inner: &'a mut dyn SampleOracle,
    budget: u64,
    start: u64,
}

impl<'a> BudgetedOracle<'a> {
    /// Caps `inner` at `budget` further draws (counted from its current
    /// [`SampleOracle::samples_drawn`]).
    pub fn new(inner: &'a mut dyn SampleOracle, budget: u64) -> Self {
        let start = inner.samples_drawn();
        Self {
            inner,
            budget,
            start,
        }
    }

    /// Draws consumed through (or since) this wrapper so far.
    pub fn used(&self) -> u64 {
        self.inner.samples_drawn().saturating_sub(self.start)
    }

    /// Draws remaining before the cap.
    pub fn remaining(&self) -> u64 {
        self.budget.saturating_sub(self.used())
    }

    fn exhausted(&self) -> HistoError {
        HistoError::OracleExhausted {
            budget: self.budget,
            drawn: self.used(),
        }
    }
}

impl SampleOracle for BudgetedOracle<'_> {
    fn n(&self) -> usize {
        self.inner.n()
    }

    fn samples_drawn(&self) -> u64 {
        self.inner.samples_drawn()
    }

    fn try_draw(&mut self, rng: &mut PortableRng) -> Result<usize, HistoError> {
        if self.used() >= self.budget {
            return Err(self.exhausted());
        }
        self.inner.try_draw(rng)
    }

    fn try_draw_counts(
        &mut self,
        m: u64,
        rng: &mut PortableRng,
    ) -> Result<SampleCounts, HistoError> {
        if m > self.remaining() {
            return Err(self.exhausted());
        }
        self.inner.try_draw_counts(m, rng)
    }

    fn try_poissonized_counts(
        &mut self,
        m: f64,
        rng: &mut PortableRng,
    ) -> Result<SampleCounts, HistoError> {
        if self.used() >= self.budget {
            return Err(self.exhausted());
        }
        let r = self.inner.try_poissonized_counts(m, rng)?;
        if self.used() > self.budget {
            return Err(self.exhausted());
        }
        Ok(r)
    }

    fn tracer(&mut self) -> Option<&mut Tracer> {
        self.inner.tracer()
    }
}

/// An oracle backed by a known [`Distribution`], sampled via the alias
/// method.
///
/// With [`DistOracle::with_fast_poissonization`] the Poissonized batch is
/// drawn as independent per-bin Poisson counts in `O(n + Σ sqrt(λᵢ))` time
/// instead of `O(m)` — identical in distribution, and the drawn total still
/// enters the sample accounting.
#[derive(Debug, Clone)]
pub struct DistOracle {
    dist: Distribution,
    sampler: AliasSampler,
    drawn: u64,
    fast_poissonization: bool,
}

impl DistOracle {
    /// Creates an oracle for `dist` (literal Poissonization).
    pub fn new(dist: Distribution) -> Self {
        let sampler = AliasSampler::new(&dist);
        Self {
            dist,
            sampler,
            drawn: 0,
            fast_poissonization: false,
        }
    }

    /// Enables the per-bin Poissonization fast path.
    pub fn with_fast_poissonization(mut self) -> Self {
        self.fast_poissonization = true;
        self
    }

    /// The underlying distribution.
    pub fn distribution(&self) -> &Distribution {
        &self.dist
    }
}

impl SampleOracle for DistOracle {
    fn n(&self) -> usize {
        self.dist.n()
    }

    fn samples_drawn(&self) -> u64 {
        self.drawn
    }

    fn try_draw(&mut self, rng: &mut PortableRng) -> Result<usize, HistoError> {
        self.drawn += 1;
        Ok(self.sampler.sample(rng))
    }

    fn try_poissonized_counts(
        &mut self,
        m: f64,
        rng: &mut PortableRng,
    ) -> Result<SampleCounts, HistoError> {
        if !self.fast_poissonization {
            return poissonized_counts_literally(self, m, rng);
        }
        let counts: Vec<u64> = self
            .dist
            .pmf()
            .iter()
            .map(|&p| Poisson::new(m * p).sample(rng))
            .collect();
        let sc = SampleCounts::from_counts(counts).expect("n >= 1");
        self.drawn += sc.total();
        Ok(sc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(v: &[f64]) -> Distribution {
        Distribution::new(v.to_vec()).unwrap()
    }

    #[test]
    fn draws_are_counted() {
        let mut o = DistOracle::new(d(&[0.5, 0.5]));
        let mut rng = PortableRng::seed_from(1);
        for _ in 0..10 {
            o.try_draw(&mut rng).unwrap();
        }
        assert_eq!(o.samples_drawn(), 10);
        let c = o.try_draw_counts(25, &mut rng).unwrap();
        assert_eq!(c.total(), 25);
        assert_eq!(o.samples_drawn(), 35);
    }

    #[test]
    fn poissonized_counts_are_counted_both_paths() {
        let mut rng = PortableRng::seed_from(2);
        let mut slow = DistOracle::new(d(&[0.25; 4]));
        let c = slow.try_poissonized_counts(100.0, &mut rng).unwrap();
        assert_eq!(slow.samples_drawn(), c.total());

        let mut fast = DistOracle::new(d(&[0.25; 4])).with_fast_poissonization();
        let c = fast.try_poissonized_counts(100.0, &mut rng).unwrap();
        assert_eq!(fast.samples_drawn(), c.total());
    }

    /// The two Poissonization paths must agree in distribution. Compare the
    /// mean and variance of a single bin's count plus the total, over many
    /// repetitions.
    #[test]
    fn poissonization_paths_agree_in_distribution() {
        let dist = d(&[0.5, 0.3, 0.2]);
        let m = 60.0;
        let reps = 4_000;
        let mut rng = PortableRng::seed_from(3);

        let run = |fast: bool, rng: &mut PortableRng| -> (f64, f64, f64) {
            let mut sum0 = 0.0;
            let mut sumsq0 = 0.0;
            let mut sum_tot = 0.0;
            for _ in 0..reps {
                let mut o = DistOracle::new(dist.clone());
                if fast {
                    o = o.with_fast_poissonization();
                }
                let c = o.try_poissonized_counts(m, rng).unwrap();
                sum0 += c.count(0) as f64;
                sumsq0 += (c.count(0) as f64).powi(2);
                sum_tot += c.total() as f64;
            }
            let mean0 = sum0 / reps as f64;
            let var0 = sumsq0 / reps as f64 - mean0 * mean0;
            (mean0, var0, sum_tot / reps as f64)
        };

        let (mean_slow, var_slow, tot_slow) = run(false, &mut rng);
        let (mean_fast, var_fast, tot_fast) = run(true, &mut rng);
        // N_0 ~ Poisson(30): mean = var = 30, total ~ Poisson(60).
        for (got, want, tol) in [
            (mean_slow, 30.0, 1.0),
            (mean_fast, 30.0, 1.0),
            (var_slow, 30.0, 3.0),
            (var_fast, 30.0, 3.0),
            (tot_slow, 60.0, 1.0),
            (tot_fast, 60.0, 1.0),
        ] {
            assert!((got - want).abs() < tol, "got {got}, want ~{want}");
        }
    }

    #[test]
    fn scoped_oracle_ledger_partitions_samples_drawn() {
        let mut inner = DistOracle::new(d(&[0.25; 4])).with_fast_poissonization();
        let mut rng = PortableRng::seed_from(11);
        let mut o = ScopedOracle::new(&mut inner, Box::new(histo_trace::NullSink));
        o.trace_enter(Stage::ApproxPart);
        o.try_draw_counts(100, &mut rng).unwrap();
        o.trace_exit();
        o.trace_enter(Stage::Sieve);
        o.try_poissonized_counts(50.0, &mut rng).unwrap();
        o.trace_enter(Stage::AdkTest);
        o.try_draw(&mut rng).unwrap();
        o.trace_exit();
        o.trace_exit();
        o.try_draw(&mut rng).unwrap(); // unattributed
        let total = o.samples_drawn();
        let ledger = o.finish().unwrap();
        assert_eq!(ledger.total(), total);
        assert_eq!(ledger.stage_total(Stage::ApproxPart), 100);
        assert_eq!(ledger.stage_total(Stage::AdkTest), 1);
        assert_eq!(ledger.unattributed(), 1);
        let sum: u64 = ledger.entries().iter().map(|(_, s)| s).sum();
        assert_eq!(sum + ledger.unattributed(), total);
        assert_eq!(inner.samples_drawn(), total);
    }

    #[test]
    fn scoped_oracle_batches_charge_once() {
        // The batch methods forward to the inner oracle and charge the
        // delta exactly once — never once per constituent draw as well.
        let mut inner = DistOracle::new(d(&[0.5, 0.5]));
        let mut rng = PortableRng::seed_from(13);
        let mut o = ScopedOracle::new(&mut inner, Box::new(histo_trace::NullSink));
        o.trace_enter(Stage::Learner);
        let c = o.try_draw_counts(37, &mut rng).unwrap();
        o.trace_exit();
        assert_eq!(c.total(), 37);
        let ledger = o.finish().unwrap();
        assert_eq!(ledger.stage_total(Stage::Learner), 37);
        assert_eq!(ledger.total(), 37);
    }

    #[test]
    fn scoped_oracle_preserves_inner_stream() {
        // Wrapping must not perturb the sample stream: the same rng seed
        // produces identical draws with and without the wrapper.
        let mut rng1 = PortableRng::seed_from(17);
        let mut plain = DistOracle::new(d(&[0.3, 0.3, 0.4]));
        let direct: Vec<usize> = (0..20)
            .map(|_| plain.try_draw(&mut rng1).unwrap())
            .collect();

        let mut rng2 = PortableRng::seed_from(17);
        let mut inner = DistOracle::new(d(&[0.3, 0.3, 0.4]));
        let mut o = ScopedOracle::new(&mut inner, Box::new(histo_trace::NullSink));
        let wrapped: Vec<usize> = (0..20).map(|_| o.try_draw(&mut rng2).unwrap()).collect();
        assert_eq!(direct, wrapped);
    }

    #[test]
    fn scoped_oracle_charges_time_alongside_draws() {
        use histo_trace::{ManualClock, NullSink, Tracer};
        let run = || {
            let mut inner = DistOracle::new(d(&[0.25; 4]));
            let mut rng = PortableRng::seed_from(53);
            let tracer =
                Tracer::new(Box::new(NullSink)).with_clock(Box::new(ManualClock::with_step(100)));
            let mut o = ScopedOracle::with_tracer(&mut inner, tracer);
            o.trace_enter(Stage::Sieve);
            o.try_draw_counts(40, &mut rng).unwrap();
            o.trace_enter(Stage::AdkTest);
            o.try_draw(&mut rng).unwrap();
            o.trace_exit();
            o.trace_exit();
            let (ledger, timings) = o.finish_with_timings().unwrap();
            (ledger, timings)
        };
        let (ledger, timings) = run();
        assert_eq!(ledger.stage_total(Stage::Sieve), 40);
        // Clock reads at enter/exit boundaries: sieve spans 0..300
        // (inclusive 300), adk 100..200 (inclusive 100).
        let sieve = timings.stage(Stage::Sieve);
        let adk = timings.stage(Stage::AdkTest);
        assert_eq!(sieve.inclusive_us, 300);
        assert_eq!(sieve.exclusive_us, 200);
        assert_eq!(adk.inclusive_us, 100);
        assert_eq!(timings.root_us(), 300);
        // Deterministic clock ⇒ bitwise-reproducible timings.
        assert_eq!(run().1, timings);
    }

    #[test]
    fn trace_helpers_are_noops_without_tracer() {
        let mut o = DistOracle::new(d(&[0.5, 0.5]));
        assert!(o.tracer().is_none());
        o.trace_enter(Stage::Sieve);
        o.trace_counter("x", Value::U64(1));
        o.trace_exit(); // must not panic despite no matching tracer state
    }

    #[test]
    fn dist_oracle_batches_pin_the_rng_stream() {
        // The batch default consumes the caller RNG exactly as a direct
        // alias loop, and the fast Poissonization exactly as one per-bin
        // Poisson variate, bit for bit.
        let dist = d(&[0.3, 0.3, 0.4]);
        let mut rng1 = PortableRng::seed_from(23);
        let mut o = DistOracle::new(dist.clone()).with_fast_poissonization();
        let counts = o.try_draw_counts(17, &mut rng1).unwrap();
        let poissonized = o.try_poissonized_counts(20.0, &mut rng1).unwrap();

        let mut rng2 = PortableRng::seed_from(23);
        let sampler = AliasSampler::new(&dist);
        let mut direct = [0u64; 3];
        for _ in 0..17 {
            direct[sampler.sample(&mut rng2)] += 1;
        }
        let per_bin: Vec<u64> = dist
            .pmf()
            .iter()
            .map(|&p| Poisson::new(20.0 * p).sample(&mut rng2))
            .collect();

        assert_eq!(counts.counts(), &direct[..]);
        assert_eq!(poissonized.counts(), &per_bin[..]);
        assert_eq!(o.samples_drawn(), 17 + per_bin.iter().sum::<u64>());
        assert_eq!(rng1.next_u64(), rng2.next_u64());
    }

    #[test]
    fn mut_ref_is_an_oracle() {
        let mut o = DistOracle::new(d(&[0.5, 0.5]));
        let mut rng = PortableRng::seed_from(29);
        fn takes_oracle<O: SampleOracle>(o: &mut O, rng: &mut PortableRng) -> usize {
            o.try_draw(rng).unwrap()
        }
        takes_oracle(&mut (&mut o), &mut rng);
        assert_eq!(o.samples_drawn(), 1);
        assert_eq!(<&mut DistOracle as SampleOracle>::n(&&mut o), 2);
    }

    #[test]
    fn budgeted_oracle_enforces_cap() {
        let mut inner = DistOracle::new(d(&[0.5, 0.5]));
        let mut rng = PortableRng::seed_from(31);
        let mut o = BudgetedOracle::new(&mut inner, 10);
        for _ in 0..10 {
            o.try_draw(&mut rng).unwrap();
        }
        assert_eq!(o.used(), 10);
        assert_eq!(o.remaining(), 0);
        let err = o.try_draw(&mut rng).unwrap_err();
        assert!(matches!(
            err,
            HistoError::OracleExhausted {
                budget: 10,
                drawn: 10
            }
        ));
        // A refused draw consumes nothing.
        assert_eq!(inner.samples_drawn(), 10);
    }

    #[test]
    fn budgeted_oracle_batch_prechecks() {
        let mut inner = DistOracle::new(d(&[0.5, 0.5]));
        let mut rng = PortableRng::seed_from(37);
        let mut o = BudgetedOracle::new(&mut inner, 50);
        o.try_draw_counts(40, &mut rng).unwrap();
        // 40 used: an 11-draw batch would exceed the cap, refuse up front.
        assert!(o.try_draw_counts(11, &mut rng).is_err());
        assert_eq!(o.used(), 40);
        // But a 10-draw batch exactly fills it.
        o.try_draw_counts(10, &mut rng).unwrap();
        assert_eq!(o.remaining(), 0);
    }

    #[test]
    fn budgeted_oracle_batch_precheck_cannot_wrap() {
        let mut inner = DistOracle::new(d(&[0.5, 0.5]));
        let mut rng = PortableRng::seed_from(39);
        let mut o = BudgetedOracle::new(&mut inner, 10);
        o.try_draw(&mut rng).unwrap();
        // `used() + m` wraps to 0 here; the batch is refused all the same.
        assert!(matches!(
            o.try_draw_counts(u64::MAX, &mut rng),
            Err(HistoError::OracleExhausted {
                budget: 10,
                drawn: 1
            })
        ));
        assert_eq!(o.samples_drawn(), 1);
    }

    #[test]
    fn budgeted_oracle_poissonized_overshoot_is_withheld_but_counted() {
        let mut inner = DistOracle::new(d(&[0.5, 0.5]));
        let mut rng = PortableRng::seed_from(41);
        let mut o = BudgetedOracle::new(&mut inner, 5);
        // Poisson(200) overshoots a budget of 5 essentially surely: the
        // batch is refused, but its draws stay counted.
        let r = o.try_poissonized_counts(200.0, &mut rng);
        assert!(r.is_err());
        assert!(inner.samples_drawn() > 5);
    }

    #[test]
    fn budgeted_oracle_budget_starts_at_wrap_time() {
        let mut inner = DistOracle::new(d(&[0.5, 0.5]));
        let mut rng = PortableRng::seed_from(43);
        inner.try_draw_counts(30, &mut rng).unwrap();
        let mut o = BudgetedOracle::new(&mut inner, 5);
        assert_eq!(o.used(), 0);
        o.try_draw_counts(5, &mut rng).unwrap();
        assert!(o.try_draw(&mut rng).is_err());
    }

    #[test]
    fn scoped_oracle_charges_refused_batches() {
        // A Poissonized batch refused by an inner budget cap still consumed
        // draws; the ledger must account for them (charged to the open
        // stage), keeping the ledger invariant intact.
        let mut base = DistOracle::new(d(&[0.5, 0.5]));
        let mut rng = PortableRng::seed_from(47);
        let mut capped = BudgetedOracle::new(&mut base, 5);
        let mut o = ScopedOracle::new(&mut capped, Box::new(histo_trace::NullSink));
        o.trace_enter(Stage::Sieve);
        assert!(o.try_poissonized_counts(200.0, &mut rng).is_err());
        o.trace_exit();
        let total = o.samples_drawn();
        let ledger = o.finish().unwrap();
        assert!(total > 5);
        assert_eq!(ledger.stage_total(Stage::Sieve), total);
        assert_eq!(ledger.total(), total);
    }

    #[test]
    fn draw_frequencies_follow_distribution() {
        let dist = d(&[0.1, 0.9]);
        let mut o = DistOracle::new(dist);
        let mut rng = PortableRng::seed_from(4);
        let c = o.try_draw_counts(50_000, &mut rng).unwrap();
        let f1 = c.count(1) as f64 / c.total() as f64;
        assert!((f1 - 0.9).abs() < 0.01);
    }
}
