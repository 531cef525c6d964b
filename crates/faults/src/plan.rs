//! Fault schedules: what to inject, how often, and from which seed.
//!
//! A [`FaultPlan`] is a *deterministic* description of oracle misbehavior:
//! all randomness in fault injection comes from a dedicated RNG seeded with
//! [`FaultPlan::seed`], never from the caller's sampling RNG, so the same
//! plan against the same oracle replays the same faults draw for draw.
//!
//! Plans serialize to a compact `key=value,...` spec string (see
//! [`FaultPlan::parse`]) used verbatim by the `fewbins --faults` flag, so a
//! failing run's schedule can be pasted into a bug report and replayed.

use std::fmt;
use std::str::FromStr;

use histo_stats::PortableRng;

/// The adversarial distribution of the Huber contamination model: with
/// probability η an honest draw is replaced by a draw from (a function of)
/// this adversary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Adversary {
    /// Replace the draw with a fixed domain element (clamped to `n - 1`).
    /// Piles contaminated mass into a single spike — the classic way to
    /// push a distribution ε-far from a histogram class.
    PointMass(usize),
    /// Replace the draw with a uniform element of the domain.
    Uniform,
    /// Replace the draw `x` with its mirror image `n - 1 - x`.
    Mirror,
}

impl Adversary {
    /// Produces the corrupted value for an honest draw `honest` over the
    /// domain `[0, n)`, consuming only the fault RNG.
    pub fn corrupt(&self, honest: usize, n: usize, frng: &mut PortableRng) -> usize {
        match *self {
            Adversary::PointMass(i) => i.min(n.saturating_sub(1)),
            Adversary::Uniform => frng.below(n.max(1) as u64) as usize,
            Adversary::Mirror => n.saturating_sub(1).saturating_sub(honest),
        }
    }
}

impl fmt::Display for Adversary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Adversary::PointMass(i) => write!(f, "point:{i}"),
            Adversary::Uniform => f.write_str("uniform"),
            Adversary::Mirror => f.write_str("mirror"),
        }
    }
}

/// A seeded, serializable schedule of oracle faults.
///
/// Fields compose freely; [`FaultPlan::none`] is the identity plan (no
/// faults, and a [`crate::FaultyOracle`] running it is a bit-transparent
/// pass-through). See `docs/ROBUSTNESS.md` for the full taxonomy and the
/// determinism rules.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Huber contamination rate η ∈ \[0, 1): each returned draw is replaced
    /// by an adversarial value with this probability.
    pub eta: f64,
    /// The adversarial distribution used when a draw is contaminated.
    pub adversary: Adversary,
    /// Hard cap on *consumed* inner draws; once reached, requests fail with
    /// `HistoError::OracleExhausted` instead of returning data.
    pub budget: Option<u64>,
    /// Probability that a draw is a duplicate of the previous returned
    /// value (served from a stale cache, consuming no inner draw).
    pub dup_prob: f64,
    /// Probability that an inner draw is silently dropped (consumed but
    /// never returned; the oracle retries until a draw survives).
    pub drop_prob: f64,
    /// Simulated stall latency in microseconds, recorded on every
    /// [`FaultPlan::stall_every`]-th returned draw. Never slept: the stall
    /// is counted and advances a traced run's virtual clock.
    pub stall_us: u64,
    /// Record a stall on every `stall_every`-th returned draw; `0` disables
    /// stalls entirely.
    pub stall_every: u64,
    /// Seed of the dedicated fault RNG.
    pub seed: u64,
}

impl FaultPlan {
    /// The identity plan: no faults of any kind.
    pub fn none() -> Self {
        Self {
            eta: 0.0,
            adversary: Adversary::PointMass(0),
            budget: None,
            dup_prob: 0.0,
            drop_prob: 0.0,
            stall_us: 0,
            stall_every: 0,
            seed: 0,
        }
    }

    /// Sets Huber contamination: rate `eta` with the given adversary.
    pub fn with_contamination(mut self, eta: f64, adversary: Adversary) -> Self {
        self.eta = eta;
        self.adversary = adversary;
        self
    }

    /// Sets a hard cap on consumed inner draws.
    pub fn with_budget(mut self, budget: u64) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Sets the duplicate-draw probability.
    pub fn with_duplicates(mut self, prob: f64) -> Self {
        self.dup_prob = prob;
        self
    }

    /// Sets the dropped-draw probability.
    pub fn with_drops(mut self, prob: f64) -> Self {
        self.drop_prob = prob;
        self
    }

    /// Records a `stall_us`-microsecond stall on every `every`-th returned
    /// draw.
    pub fn with_stalls(mut self, stall_us: u64, every: u64) -> Self {
        self.stall_us = stall_us;
        self.stall_every = every;
        self
    }

    /// Sets the fault RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// True when the plan injects no faults at all (budget included).
    pub fn is_none(&self) -> bool {
        self.eta == 0.0
            && self.budget.is_none()
            && self.dup_prob == 0.0
            && self.drop_prob == 0.0
            && self.stall_every == 0
    }

    /// True when any *per-draw* fault is active (contamination, duplicates,
    /// drops, or stalls — anything that must see individual draws). A plan
    /// with only a budget cap keeps batch draws batched.
    pub fn per_draw_faults(&self) -> bool {
        self.eta > 0.0 || self.dup_prob > 0.0 || self.drop_prob > 0.0 || self.stall_every > 0
    }

    /// Validates field ranges. Called by [`FaultPlan::parse`]; direct
    /// construction via the builders is unchecked (library callers are
    /// trusted to pass probabilities).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message naming the offending field.
    pub fn validate(&self) -> Result<(), String> {
        for (name, v) in [
            ("eta", self.eta),
            ("dup", self.dup_prob),
            ("drop", self.drop_prob),
        ] {
            if !(0.0..1.0).contains(&v) {
                return Err(format!("{name} must be in [0,1), got {v}"));
            }
        }
        Ok(())
    }

    /// Parses a compact spec string.
    ///
    /// Grammar: `none`, or a comma-separated list of `key=value` pairs:
    ///
    /// - `eta=<f64>` — contamination rate in \[0, 1)
    /// - `adv=point:<idx>` | `adv=uniform` | `adv=mirror` — adversary
    /// - `budget=<u64>` — hard cap on consumed draws
    /// - `dup=<f64>` / `drop=<f64>` — duplicate / drop probabilities
    /// - `stall=<us>` or `stall=<us>x<every>` — stall `<us>` microseconds
    ///   every `<every>` draws (default every draw)
    /// - `seed=<u64>` — fault RNG seed
    ///
    /// # Errors
    ///
    /// Returns a human-readable message on unknown keys, malformed values,
    /// or out-of-range probabilities.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let spec = spec.trim();
        let mut plan = FaultPlan::none();
        if spec.is_empty() || spec == "none" {
            return Ok(plan);
        }
        for part in spec.split(',') {
            let part = part.trim();
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("expected key=value, got `{part}`"))?;
            match key {
                "eta" => {
                    plan.eta = value
                        .parse::<f64>()
                        .map_err(|_| format!("eta: not a number: `{value}`"))?;
                }
                "adv" => {
                    plan.adversary = if value == "uniform" {
                        Adversary::Uniform
                    } else if value == "mirror" {
                        Adversary::Mirror
                    } else if let Some(idx) = value.strip_prefix("point:") {
                        Adversary::PointMass(
                            idx.parse::<usize>()
                                .map_err(|_| format!("adv: bad point-mass index `{idx}`"))?,
                        )
                    } else {
                        return Err(format!(
                            "adv: expected point:<idx>, uniform or mirror, got `{value}`"
                        ));
                    };
                }
                "budget" => {
                    plan.budget = Some(
                        value
                            .parse::<u64>()
                            .map_err(|_| format!("budget: not an integer: `{value}`"))?,
                    );
                }
                "dup" => {
                    plan.dup_prob = value
                        .parse::<f64>()
                        .map_err(|_| format!("dup: not a number: `{value}`"))?;
                }
                "drop" => {
                    plan.drop_prob = value
                        .parse::<f64>()
                        .map_err(|_| format!("drop: not a number: `{value}`"))?;
                }
                "stall" => {
                    let (us, every) = match value.split_once('x') {
                        Some((us, every)) => (
                            us.parse::<u64>()
                                .map_err(|_| format!("stall: bad microseconds `{us}`"))?,
                            every
                                .parse::<u64>()
                                .map_err(|_| format!("stall: bad period `{every}`"))?,
                        ),
                        None => (
                            value
                                .parse::<u64>()
                                .map_err(|_| format!("stall: bad microseconds `{value}`"))?,
                            1,
                        ),
                    };
                    plan.stall_us = us;
                    plan.stall_every = every;
                }
                "seed" => {
                    plan.seed = value
                        .parse::<u64>()
                        .map_err(|_| format!("seed: not an integer: `{value}`"))?;
                }
                other => return Err(format!("unknown fault key `{other}`")),
            }
        }
        plan.validate()?;
        Ok(plan)
    }
}

impl FromStr for FaultPlan {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        FaultPlan::parse(s)
    }
}

impl fmt::Display for FaultPlan {
    /// Renders the canonical spec string; `parse(plan.to_string())` round
    /// trips every field.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_none() && self.seed == 0 {
            return f.write_str("none");
        }
        let mut parts: Vec<String> = Vec::new();
        if self.eta > 0.0 {
            parts.push(format!("eta={}", self.eta));
            parts.push(format!("adv={}", self.adversary));
        }
        if let Some(b) = self.budget {
            parts.push(format!("budget={b}"));
        }
        if self.dup_prob > 0.0 {
            parts.push(format!("dup={}", self.dup_prob));
        }
        if self.drop_prob > 0.0 {
            parts.push(format!("drop={}", self.drop_prob));
        }
        if self.stall_every > 0 {
            parts.push(format!("stall={}x{}", self.stall_us, self.stall_every));
        }
        if self.seed != 0 {
            parts.push(format!("seed={}", self.seed));
        }
        f.write_str(&parts.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_none() {
        let p = FaultPlan::none();
        assert!(p.is_none());
        assert!(!p.per_draw_faults());
        assert_eq!(p.to_string(), "none");
        assert_eq!(FaultPlan::parse("none").unwrap(), p);
        assert_eq!(FaultPlan::parse("").unwrap(), p);
    }

    #[test]
    fn spec_round_trips() {
        let plans = [
            FaultPlan::none().with_budget(50_000),
            FaultPlan::none()
                .with_contamination(0.1, Adversary::PointMass(3))
                .with_seed(7),
            FaultPlan::none()
                .with_contamination(0.25, Adversary::Mirror)
                .with_duplicates(0.01)
                .with_drops(0.02)
                .with_stalls(5, 100)
                .with_budget(9_999)
                .with_seed(42),
            FaultPlan::none().with_contamination(0.5, Adversary::Uniform),
            FaultPlan::none().with_drops(0.05).with_budget(10_000),
        ];
        for p in plans {
            let spec = p.to_string();
            let back = FaultPlan::parse(&spec).unwrap_or_else(|e| panic!("{spec}: {e}"));
            assert_eq!(back, p, "spec `{spec}` did not round-trip");
        }
    }

    #[test]
    fn parse_accepts_documented_grammar() {
        let p =
            FaultPlan::parse("eta=0.1,adv=point:0,budget=100,dup=0.01,drop=0.02,seed=9").unwrap();
        assert_eq!(p.eta, 0.1);
        assert_eq!(p.adversary, Adversary::PointMass(0));
        assert_eq!(p.budget, Some(100));
        assert_eq!(p.dup_prob, 0.01);
        assert_eq!(p.drop_prob, 0.02);
        assert_eq!(p.seed, 9);
        // stall shorthand: every draw.
        let p = FaultPlan::parse("stall=250").unwrap();
        assert_eq!((p.stall_us, p.stall_every), (250, 1));
        let p = FaultPlan::parse("stall=5x100").unwrap();
        assert_eq!((p.stall_us, p.stall_every), (5, 100));
    }

    #[test]
    fn parse_rejects_bad_specs() {
        for bad in [
            "eta",
            "eta=abc",
            "eta=1.5",
            "dup=-0.1",
            "adv=gauss",
            "adv=point:x",
            "budget=1.5",
            "stall=axb",
            "wat=1",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "`{bad}` should not parse");
        }
    }

    #[test]
    fn adversaries_corrupt_deterministically() {
        let mut frng = PortableRng::seed_from(1);
        assert_eq!(Adversary::PointMass(3).corrupt(7, 10, &mut frng), 3);
        assert_eq!(Adversary::PointMass(99).corrupt(7, 10, &mut frng), 9);
        assert_eq!(Adversary::Mirror.corrupt(2, 10, &mut frng), 7);
        let u = Adversary::Uniform.corrupt(0, 10, &mut frng);
        assert!(u < 10);
    }
}
