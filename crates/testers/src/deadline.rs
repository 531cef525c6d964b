//! Deadline supervision: a wrapping oracle that turns wall-clock
//! overruns into typed errors instead of hung jobs.
//!
//! [`DeadlineOracle`] sits between the tester and any
//! [`SampleOracle`], reading a [`Clock`] before each draw call
//! and refusing with [`HistoError::DeadlineExceeded`] once a whole-run
//! or per-stage budget is spent. Every sample goes through one of the
//! oracle's three draw calls, so an overrunning stage is interrupted at
//! its next draw request — the natural
//! cancellation point that keeps batches intact and accounting exact.
//!
//! Two budgets compose:
//!
//! - **run deadline** — elapsed time since the first guarded draw;
//! - **stage deadline** — elapsed time since the current pipeline stage
//!   (read from the attached tracer through the oracle stack) last
//!   changed, so one pathological stage cannot eat the whole run
//!   budget silently. Without a tracer the stage never changes, and the
//!   stage deadline counts from the first guarded draw.
//!
//! [`RobustRunner`](crate::robust::RobustRunner) applies this guard
//! itself when a run or stage deadline is set. The type is public so
//! tests can arm it with a fake clock.
//!
//! Time comes from the [`Clock`] trait: [`MonotonicClock`] in
//! production, [`ManualClock`](histo_trace::ManualClock) in tests — the deadline paths are
//! deterministic under a manual clock, which is how the test suite pins
//! them. With no deadline configured the wrapper never reads the clock
//! at all and is a pure pass-through.

use histo_core::empirical::SampleCounts;
use histo_core::HistoError;
use histo_sampling::SampleOracle;
use histo_stats::PortableRng;
use histo_trace::{Clock, MonotonicClock, Stage, Tracer};

/// A [`SampleOracle`] adapter enforcing wall-clock deadlines. See the
/// module docs.
pub struct DeadlineOracle<O: SampleOracle> {
    inner: O,
    clock: Box<dyn Clock>,
    run_deadline_us: Option<u64>,
    stage_deadline_us: Option<u64>,
    run_origin: Option<u64>,
    stage_origin: Option<u64>,
    last_stage: Option<Stage>,
}

impl<O: SampleOracle> DeadlineOracle<O> {
    /// Wraps `inner` with no deadlines (a pass-through until
    /// [`Self::with_run_deadline_us`] / [`Self::with_stage_deadline_us`]
    /// arm it) and the production monotonic clock.
    pub fn new(inner: O) -> Self {
        Self {
            inner,
            clock: Box::new(MonotonicClock::new()),
            run_deadline_us: None,
            stage_deadline_us: None,
            run_origin: None,
            stage_origin: None,
            last_stage: None,
        }
    }

    /// Sets the whole-run budget: microseconds from the first guarded
    /// draw.
    pub fn with_run_deadline_us(mut self, us: u64) -> Self {
        self.run_deadline_us = Some(us);
        self
    }

    /// Sets the per-stage budget: microseconds since the current stage
    /// last changed.
    pub fn with_stage_deadline_us(mut self, us: u64) -> Self {
        self.stage_deadline_us = Some(us);
        self
    }

    /// Replaces the clock (a [`ManualClock`](histo_trace::ManualClock)
    /// makes every deadline path deterministic in tests).
    pub fn with_clock(mut self, clock: Box<dyn Clock>) -> Self {
        self.clock = clock;
        self
    }

    /// Unwraps, returning the inner oracle.
    pub fn into_inner(self) -> O {
        self.inner
    }

    fn check(&mut self) -> Result<(), HistoError> {
        if self.run_deadline_us.is_none() && self.stage_deadline_us.is_none() {
            // Unarmed: never touch the clock, so the wrapper costs
            // nothing and perturbs nothing.
            return Ok(());
        }
        let now = self.clock.now_us();
        if let Some(deadline_us) = self.run_deadline_us {
            let elapsed_us = now.saturating_sub(*self.run_origin.get_or_insert(now));
            if elapsed_us > deadline_us {
                return Err(HistoError::DeadlineExceeded {
                    deadline_us,
                    elapsed_us,
                });
            }
        }
        if let Some(deadline_us) = self.stage_deadline_us {
            let stage = self.inner.tracer().and_then(|t| t.current_stage());
            if stage != self.last_stage {
                self.last_stage = stage;
                self.stage_origin = Some(now);
            }
            let elapsed_us = now.saturating_sub(*self.stage_origin.get_or_insert(now));
            if elapsed_us > deadline_us {
                return Err(HistoError::DeadlineExceeded {
                    deadline_us,
                    elapsed_us,
                });
            }
        }
        Ok(())
    }
}

impl<O: SampleOracle> SampleOracle for DeadlineOracle<O> {
    fn n(&self) -> usize {
        self.inner.n()
    }

    fn samples_drawn(&self) -> u64 {
        self.inner.samples_drawn()
    }

    fn try_draw(&mut self, rng: &mut PortableRng) -> Result<usize, HistoError> {
        self.check()?;
        self.inner.try_draw(rng)
    }

    fn try_draw_counts(
        &mut self,
        m: u64,
        rng: &mut PortableRng,
    ) -> Result<SampleCounts, HistoError> {
        self.check()?;
        self.inner.try_draw_counts(m, rng)
    }

    fn try_poissonized_counts(
        &mut self,
        m: f64,
        rng: &mut PortableRng,
    ) -> Result<SampleCounts, HistoError> {
        self.check()?;
        self.inner.try_poissonized_counts(m, rng)
    }

    fn tracer(&mut self) -> Option<&mut Tracer> {
        self.inner.tracer()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use histo_core::Distribution;
    use histo_sampling::{DistOracle, ScopedOracle};
    use histo_trace::{ManualClock, Tracer};

    /// A clock that panics when read — proves the unarmed wrapper never
    /// touches it.
    struct ForbiddenClock;

    impl Clock for ForbiddenClock {
        fn now_us(&mut self) -> u64 {
            panic!("unarmed DeadlineOracle must not read the clock");
        }
    }

    #[test]
    fn unarmed_wrapper_is_a_clockless_pass_through() {
        let d = Distribution::uniform(100).unwrap();
        let mut o = DeadlineOracle::new(DistOracle::new(d)).with_clock(Box::new(ForbiddenClock));
        let mut rng = PortableRng::seed_from(1);
        for _ in 0..50 {
            o.try_draw(&mut rng).unwrap();
        }
        o.try_draw_counts(10, &mut rng).unwrap();
        assert_eq!(o.samples_drawn(), 60);
    }

    #[test]
    fn run_deadline_trips_deterministically() {
        let d = Distribution::uniform(100).unwrap();
        // Each guarded call reads the clock once and advances it 10 µs;
        // a 35 µs budget therefore allows reads at 0, 10, 20, 30 and
        // refuses the one at 40.
        let mut o = DeadlineOracle::new(DistOracle::new(d))
            .with_run_deadline_us(35)
            .with_clock(Box::new(ManualClock::with_step(10)));
        let mut rng = PortableRng::seed_from(2);
        for _ in 0..4 {
            o.try_draw(&mut rng).unwrap();
        }
        match o.try_draw(&mut rng) {
            Err(HistoError::DeadlineExceeded {
                deadline_us,
                elapsed_us,
            }) => {
                assert_eq!(deadline_us, 35);
                assert_eq!(elapsed_us, 40);
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        // The refusal consumed nothing.
        assert_eq!(o.samples_drawn(), 4);
    }

    #[test]
    fn stage_deadline_resets_when_the_stage_changes() {
        let d = Distribution::uniform(100).unwrap();
        let mut inner = DistOracle::new(d);
        let mut scoped = ScopedOracle::with_tracer(&mut inner, Tracer::default().without_timing());
        let mut o = DeadlineOracle::new(&mut scoped as &mut dyn SampleOracle)
            .with_stage_deadline_us(25)
            .with_clock(Box::new(ManualClock::with_step(10)));
        let mut rng = PortableRng::seed_from(3);

        o.trace_enter(Stage::ApproxPart);
        // Reads at 0 (origin), 10, 20: all within the 25 µs stage budget.
        for _ in 0..3 {
            o.try_draw(&mut rng).unwrap();
        }
        // Switching stages re-arms the budget: the read at 30 becomes the
        // new origin instead of tripping.
        o.trace_exit();
        o.trace_enter(Stage::Learner);
        o.try_draw(&mut rng).unwrap();
        // The read at 40 is 10 µs into learner.
        o.try_draw(&mut rng).unwrap();
        // Staying in one stage past the budget trips it: reads at 50, 60
        // are 20 and 30 µs into learner.
        o.try_draw(&mut rng).unwrap();
        match o.try_draw(&mut rng) {
            Err(HistoError::DeadlineExceeded {
                deadline_us: 25,
                elapsed_us: 30,
            }) => {}
            other => panic!("expected stage DeadlineExceeded, got {other:?}"),
        }
        o.trace_exit();
        drop(o);
        scoped.finish().unwrap();
    }

    #[test]
    fn builders_and_accessors_cover_the_stack() {
        let d = Distribution::uniform(10).unwrap();
        let mut o = DeadlineOracle::new(DistOracle::new(d));
        assert_eq!(o.n(), 10);
        let mut rng = PortableRng::seed_from(4);
        o.try_draw(&mut rng).unwrap();
        assert_eq!(o.into_inner().samples_drawn(), 1);
    }
}
