//! Event vocabulary: stages, counter values, and the trace events
//! themselves, plus their hand-rolled JSON Lines rendering.

use std::fmt;

/// A named pipeline stage of Algorithm 1 (and its satellites).
///
/// The fixed variants mirror the subroutines the paper's Theorem 1.1
/// budgets term by term; [`Stage::Other`] leaves room for ad-hoc spans
/// without touching this crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Section 3.1: the `ApproxPart` partition-refinement subroutine.
    ApproxPart,
    /// Section 3.2: the Laplace/empirical learner over the partition.
    Learner,
    /// Section 3.2.1: the iterative sieve (heavy round + removal rounds).
    Sieve,
    /// The offline distance-to-`H_k` check on the learned hypothesis.
    Check,
    /// Section 2.2: the Acharya–Daskalakis–Kamath identity test.
    AdkTest,
    /// Section 4.2: collision-based uniformity testing.
    Uniformity,
    /// Doubling search over `k` (model selection harness).
    ModelSelection,
    /// An ad-hoc stage; the payload must be a short identifier.
    Other(&'static str),
}

impl Stage {
    /// Stable machine name used in JSONL output and ledger keys.
    pub fn name(&self) -> &'static str {
        match self {
            Stage::ApproxPart => "approx_part",
            Stage::Learner => "learner",
            Stage::Sieve => "sieve",
            Stage::Check => "check",
            Stage::AdkTest => "adk_test",
            Stage::Uniformity => "uniformity",
            Stage::ModelSelection => "model_selection",
            Stage::Other(name) => name,
        }
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A counter payload. Kept deliberately small: everything the pipeline
/// reports is an integer, a float, a flag, or a short static label.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// Unsigned integer (counts, round indices, sample totals).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float (weights, statistics, thresholds).
    F64(f64),
    /// Boolean flag (decisions, early exits).
    Bool(bool),
    /// Short static label (decision names etc.).
    Str(&'static str),
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&'static str> for Value {
    fn from(v: &'static str) -> Self {
        Value::Str(v)
    }
}

/// One trace event. `seq` is a per-tracer monotone sequence number so
/// consumers can re-order-check and correlate spans without timestamps.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A stage span opened; `depth` is the stack depth *before* the push.
    StageEnter {
        /// Monotone event sequence number.
        seq: u64,
        /// The stage being entered.
        stage: Stage,
        /// Span-stack depth before this span was pushed.
        depth: usize,
        /// Clock reading at entry (µs since the tracer clock's origin);
        /// `None` in timing-free mode. Non-decreasing across events.
        t_us: Option<u64>,
    },
    /// A stage span closed. `samples` is the number of oracle draws
    /// charged to this span *exclusively* (children charge their own).
    StageExit {
        /// Monotone event sequence number.
        seq: u64,
        /// The stage being exited (must match the matching enter).
        stage: Stage,
        /// Span-stack depth after this span was popped.
        depth: usize,
        /// Draws charged to this span, excluding nested spans.
        samples: u64,
        /// Wall time of the span in microseconds; `None` when the
        /// tracer runs in deterministic (timing-free) mode.
        elapsed_us: Option<u64>,
        /// Clock reading at exit; `None` in timing-free mode. Equals
        /// the matching enter's `t_us` plus `elapsed_us`.
        t_us: Option<u64>,
    },
    /// A named scalar observation, attributed to the innermost open
    /// stage (or none, at top level).
    Counter {
        /// Monotone event sequence number.
        seq: u64,
        /// Innermost open stage at emission time, if any.
        stage: Option<Stage>,
        /// Counter name (static, snake_case).
        name: &'static str,
        /// Observed value.
        value: Value,
    },
    /// End-of-run ledger row: total draws charged to `stage` across all
    /// of its spans.
    LedgerEntry {
        /// The stage this row summarizes.
        stage: Stage,
        /// Total draws charged to the stage (sum over its spans).
        samples: u64,
    },
    /// End-of-run ledger footer; `samples` is the grand total charged
    /// through the tracer and must equal the sum of [`TraceEvent::LedgerEntry`]
    /// rows plus `unattributed`.
    LedgerTotal {
        /// Grand total of charged draws.
        samples: u64,
        /// Draws charged while no span was open.
        unattributed: u64,
    },
}

/// Appends `s` to `out` as JSON string *content* (no surrounding quotes),
/// escaped as RFC 8259 writers conventionally do: `\"`, `\\`, the short
/// forms `\b \f \n \r \t`, and `\u00xx` for the other control
/// characters.
/// Every JSON writer in the workspace goes through this one function.
pub fn escape_json_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        // Rust's shortest round-trip formatting; always a valid JSON
        // number except for integral values, which print without ".0"
        // (still valid JSON).
        out.push_str(&format!("{v}"));
    } else {
        out.push_str("null");
    }
}

impl Value {
    fn render_json(&self, out: &mut String) {
        match self {
            Value::U64(v) => out.push_str(&v.to_string()),
            Value::I64(v) => out.push_str(&v.to_string()),
            Value::F64(v) => push_f64(out, *v),
            Value::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
            Value::Str(s) => {
                out.push('"');
                escape_json_into(out, s);
                out.push('"');
            }
        }
    }
}

impl TraceEvent {
    /// Renders the event as one JSON object (no trailing newline).
    ///
    /// The rendering is a pure function of the event — no clocks, no
    /// locale, no map iteration order — so identical event streams
    /// render to identical bytes.
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(96);
        match self {
            TraceEvent::StageEnter {
                seq,
                stage,
                depth,
                t_us,
            } => {
                out.push_str("{\"ev\":\"enter\",\"seq\":");
                out.push_str(&seq.to_string());
                out.push_str(",\"stage\":\"");
                escape_json_into(&mut out, stage.name());
                out.push_str("\",\"depth\":");
                out.push_str(&depth.to_string());
                if let Some(t) = t_us {
                    out.push_str(",\"t_us\":");
                    out.push_str(&t.to_string());
                }
                out.push('}');
            }
            TraceEvent::StageExit {
                seq,
                stage,
                depth,
                samples,
                elapsed_us,
                t_us,
            } => {
                out.push_str("{\"ev\":\"exit\",\"seq\":");
                out.push_str(&seq.to_string());
                out.push_str(",\"stage\":\"");
                escape_json_into(&mut out, stage.name());
                out.push_str("\",\"depth\":");
                out.push_str(&depth.to_string());
                out.push_str(",\"samples\":");
                out.push_str(&samples.to_string());
                if let Some(us) = elapsed_us {
                    out.push_str(",\"elapsed_us\":");
                    out.push_str(&us.to_string());
                }
                if let Some(t) = t_us {
                    out.push_str(",\"t_us\":");
                    out.push_str(&t.to_string());
                }
                out.push('}');
            }
            TraceEvent::Counter {
                seq,
                stage,
                name,
                value,
            } => {
                out.push_str("{\"ev\":\"counter\",\"seq\":");
                out.push_str(&seq.to_string());
                if let Some(stage) = stage {
                    out.push_str(",\"stage\":\"");
                    escape_json_into(&mut out, stage.name());
                    out.push('"');
                }
                out.push_str(",\"name\":\"");
                escape_json_into(&mut out, name);
                out.push_str("\",\"value\":");
                value.render_json(&mut out);
                out.push('}');
            }
            TraceEvent::LedgerEntry { stage, samples } => {
                out.push_str("{\"ev\":\"ledger\",\"stage\":\"");
                escape_json_into(&mut out, stage.name());
                out.push_str("\",\"samples\":");
                out.push_str(&samples.to_string());
                out.push('}');
            }
            TraceEvent::LedgerTotal {
                samples,
                unattributed,
            } => {
                out.push_str("{\"ev\":\"ledger_total\",\"samples\":");
                out.push_str(&samples.to_string());
                out.push_str(",\"unattributed\":");
                out.push_str(&unattributed.to_string());
                out.push('}');
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_names_are_stable() {
        assert_eq!(Stage::ApproxPart.name(), "approx_part");
        assert_eq!(Stage::AdkTest.name(), "adk_test");
        assert_eq!(Stage::Other("warmup").name(), "warmup");
        assert_eq!(Stage::Sieve.to_string(), "sieve");
    }

    #[test]
    fn enter_renders_minimal_object() {
        let ev = TraceEvent::StageEnter {
            seq: 3,
            stage: Stage::Sieve,
            depth: 1,
            t_us: None,
        };
        assert_eq!(
            ev.to_json_line(),
            r#"{"ev":"enter","seq":3,"stage":"sieve","depth":1}"#
        );
        let timed = TraceEvent::StageEnter {
            seq: 3,
            stage: Stage::Sieve,
            depth: 1,
            t_us: Some(120),
        };
        assert_eq!(
            timed.to_json_line(),
            r#"{"ev":"enter","seq":3,"stage":"sieve","depth":1,"t_us":120}"#
        );
    }

    #[test]
    fn exit_omits_optional_fields_when_absent() {
        let ev = TraceEvent::StageExit {
            seq: 9,
            stage: Stage::Check,
            depth: 0,
            samples: 42,
            elapsed_us: None,
            t_us: None,
        };
        // Timing-free rendering is byte-for-byte what it was before the
        // timing channel existed — the determinism suite depends on it.
        assert_eq!(
            ev.to_json_line(),
            r#"{"ev":"exit","seq":9,"stage":"check","depth":0,"samples":42}"#
        );
        let timed = TraceEvent::StageExit {
            seq: 9,
            stage: Stage::Check,
            depth: 0,
            samples: 42,
            elapsed_us: Some(17),
            t_us: Some(137),
        };
        assert_eq!(
            timed.to_json_line(),
            r#"{"ev":"exit","seq":9,"stage":"check","depth":0,"samples":42,"elapsed_us":17,"t_us":137}"#
        );
    }

    #[test]
    fn counter_values_render_as_json_scalars() {
        let mk = |value: Value| TraceEvent::Counter {
            seq: 0,
            stage: Some(Stage::Sieve),
            name: "x",
            value,
        };
        assert!(mk(Value::U64(7)).to_json_line().ends_with("\"value\":7}"));
        assert!(mk(Value::F64(0.5))
            .to_json_line()
            .ends_with("\"value\":0.5}"));
        assert!(mk(Value::F64(f64::NAN))
            .to_json_line()
            .ends_with("\"value\":null}"));
        assert!(mk(Value::Bool(true))
            .to_json_line()
            .ends_with("\"value\":true}"));
        assert!(mk(Value::Str("a\"b"))
            .to_json_line()
            .ends_with("\"value\":\"a\\\"b\"}"));
    }

    #[test]
    fn value_from_conversions() {
        assert_eq!(Value::from(3usize), Value::U64(3));
        assert_eq!(Value::from(3u64), Value::U64(3));
        assert_eq!(Value::from(-3i64), Value::I64(-3));
        assert_eq!(Value::from(0.25), Value::F64(0.25));
        assert_eq!(Value::from(false), Value::Bool(false));
        assert_eq!(Value::from("hi"), Value::Str("hi"));
    }

    #[test]
    fn string_escaping_handles_control_chars() {
        let ev = TraceEvent::Counter {
            seq: 1,
            stage: None,
            name: "weird",
            value: Value::Str("tab\there\nnewline"),
        };
        let line = ev.to_json_line();
        assert!(line.contains("tab\\there\\nnewline"));
        assert!(!line.contains('\n'));
    }
}
