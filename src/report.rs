//! `fewbins report`: offline aggregation of JSONL trace streams.
//!
//! The tracer writes one JSON object per line; this module replays
//! those streams with a tiny flat-object parser (enough for the trace
//! schema) and folds them into a per-stage table of
//!
//! - **samples** (from the `ledger` footer rows, cross-checked against the
//!   per-span `exit.samples` sums, so the report reproduces the ledger
//!   exactly),
//! - **wall time** (inclusive and exclusive microseconds replayed from the
//!   span stack; exclusive times telescope to the root span duration),
//! - **fault counters** (the `fault_*` totals a fault-injected run emits,
//!   summed across files), and
//! - optional **Theorem 1.1 theory terms** from
//!   [`histo_experiments::theory`], so measured budgets sit side by side
//!   with the `√n/ε²·log k + k/ε³·log²k + k/ε·log(k/ε)` prediction.
//!
//! Multiple trace files aggregate by summation (stage keys are merged in
//! first-seen order). Malformed streams — unbalanced spans, a missing
//! `ledger_total` footer (e.g. a truncated stream from a dropped tracer),
//! or ledger rows that disagree with the span sums — are reported as
//! errors rather than silently producing wrong totals.
use histo_experiments::theory;
use histo_experiments::Table;
use histo_trace::escape_json_into;

/// A scalar JSON value as found in trace lines.
#[derive(Debug, Clone, PartialEq)]
enum Scalar {
    /// JSON string.
    Str(String),
    /// Non-negative integer.
    U64(u64),
    /// Negative integer.
    I64(i64),
    /// Fractional or exponent-form number.
    F64(f64),
    /// `true` / `false`.
    Bool(bool),
    /// `null`.
    Null,
}

impl Scalar {
    fn as_u64(&self) -> Option<u64> {
        match self {
            Scalar::U64(v) => Some(*v),
            _ => None,
        }
    }
    fn as_str(&self) -> Option<&str> {
        match self {
            Scalar::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Parses one flat JSON object (`{"key":scalar,...}`) into key/value
/// pairs. Only the shapes the tracer emits are supported: no nested
/// objects or arrays. Returns a descriptive error on anything else.
fn parse_flat_object(line: &str) -> Result<Vec<(String, Scalar)>, String> {
    let bytes = line.as_bytes();
    let mut pos = 0usize;
    let err = |pos: usize, what: &str| format!("byte {pos}: {what}");

    let skip_ws = |bytes: &[u8], pos: &mut usize| {
        while *pos < bytes.len() && (bytes[*pos] as char).is_ascii_whitespace() {
            *pos += 1;
        }
    };

    fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("byte {}: expected '\"'", *pos));
        }
        *pos += 1;
        let mut out = String::new();
        loop {
            match bytes.get(*pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    *pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    *pos += 1;
                    match bytes.get(*pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = bytes
                                .get(*pos + 1..*pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                            let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            *pos += 4;
                        }
                        _ => return Err(format!("byte {}: bad escape", *pos)),
                    }
                    *pos += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8 sequences pass through verbatim.
                    let s = &bytes[*pos..];
                    let ch_len = std::str::from_utf8(s)
                        .map_err(|e| e.to_string())?
                        .chars()
                        .next()
                        .map(|c| c.len_utf8())
                        .unwrap_or(1);
                    out.push_str(std::str::from_utf8(&s[..ch_len]).unwrap());
                    *pos += ch_len;
                }
            }
        }
    }

    skip_ws(bytes, &mut pos);
    if bytes.get(pos) != Some(&b'{') {
        return Err(err(pos, "expected '{'"));
    }
    pos += 1;
    let mut pairs = Vec::new();
    skip_ws(bytes, &mut pos);
    if bytes.get(pos) == Some(&b'}') {
        pos += 1;
    } else {
        loop {
            skip_ws(bytes, &mut pos);
            let key = parse_string(bytes, &mut pos)?;
            skip_ws(bytes, &mut pos);
            if bytes.get(pos) != Some(&b':') {
                return Err(err(pos, "expected ':'"));
            }
            pos += 1;
            skip_ws(bytes, &mut pos);
            let value = match bytes.get(pos) {
                Some(b'"') => Scalar::Str(parse_string(bytes, &mut pos)?),
                Some(b't') if bytes[pos..].starts_with(b"true") => {
                    pos += 4;
                    Scalar::Bool(true)
                }
                Some(b'f') if bytes[pos..].starts_with(b"false") => {
                    pos += 5;
                    Scalar::Bool(false)
                }
                Some(b'n') if bytes[pos..].starts_with(b"null") => {
                    pos += 4;
                    Scalar::Null
                }
                Some(c) if c.is_ascii_digit() || *c == b'-' => {
                    let start = pos;
                    while pos < bytes.len()
                        && matches!(bytes[pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
                    {
                        pos += 1;
                    }
                    let text = std::str::from_utf8(&bytes[start..pos]).unwrap();
                    if text.contains(['.', 'e', 'E']) {
                        Scalar::F64(text.parse().map_err(|e| format!("bad number: {e}"))?)
                    } else if text.starts_with('-') {
                        Scalar::I64(text.parse().map_err(|e| format!("bad number: {e}"))?)
                    } else {
                        Scalar::U64(text.parse().map_err(|e| format!("bad number: {e}"))?)
                    }
                }
                _ => return Err(err(pos, "expected scalar value")),
            };
            pairs.push((key, value));
            skip_ws(bytes, &mut pos);
            match bytes.get(pos) {
                Some(b',') => pos += 1,
                Some(b'}') => {
                    pos += 1;
                    break;
                }
                _ => return Err(err(pos, "expected ',' or '}'")),
            }
        }
    }
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(err(pos, "trailing content after object"));
    }
    Ok(pairs)
}

fn field<'a>(pairs: &'a [(String, Scalar)], key: &str) -> Option<&'a Scalar> {
    pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn required_u64(pairs: &[(String, Scalar)], key: &str) -> Result<u64, String> {
    field(pairs, key)
        .and_then(Scalar::as_u64)
        .ok_or_else(|| format!("missing or non-integer field '{key}'"))
}

fn required_str<'a>(pairs: &'a [(String, Scalar)], key: &str) -> Result<&'a str, String> {
    field(pairs, key)
        .and_then(Scalar::as_str)
        .ok_or_else(|| format!("missing or non-string field '{key}'"))
}

/// Aggregated per-stage measurements across one or more traces.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StageReport {
    /// Draws charged to the stage (sum of its `ledger` footer rows).
    pub samples: u64,
    /// Sum of per-span exclusive `exit.samples` (must equal `samples`).
    pub span_samples: u64,
    /// Number of closed spans.
    pub spans: u64,
    /// Wall time including nested child spans, microseconds.
    pub inclusive_us: u64,
    /// Wall time excluding nested child spans, microseconds. Summed over
    /// all stages this telescopes to [`TraceReport::root_us`].
    pub exclusive_us: u64,
}

/// The aggregate of one or more replayed trace files.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceReport {
    /// Per-stage rows in first-seen order.
    pub stages: Vec<(String, StageReport)>,
    /// Total wall time of all depth-0 spans, microseconds.
    pub root_us: u64,
    /// Grand total of charged draws (from `ledger_total` footers).
    pub total_samples: u64,
    /// Draws charged while no span was open.
    pub unattributed: u64,
    /// Number of trace files folded in.
    pub files: usize,
    /// Number of events replayed.
    pub events: u64,
    /// Whether any timing fields (`elapsed_us`/`t_us`) were present.
    pub timed: bool,
    /// `fault_*` counter totals in first-seen order (empty unless a trace
    /// came from a fault-injected run).
    pub faults: Vec<(String, u64)>,
}

/// Theorem 1.1 parameters for the optional theory columns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TheoryParams {
    /// Domain size `n`.
    pub n: usize,
    /// Number of histogram pieces `k`.
    pub k: usize,
    /// Distance parameter `ε`.
    pub epsilon: f64,
}

/// Replay state for one stream: the open-span stack.
struct Frame {
    stage: String,
    child_us: u64,
    enter_t: Option<u64>,
}

impl TraceReport {
    /// Creates an empty report; fold streams in with [`Self::add_stream`].
    pub fn new() -> Self {
        Self::default()
    }

    fn stage_mut(&mut self, name: &str) -> &mut StageReport {
        if let Some(idx) = self.stages.iter().position(|(s, _)| s == name) {
            return &mut self.stages[idx].1;
        }
        self.stages.push((name.to_string(), StageReport::default()));
        &mut self.stages.last_mut().unwrap().1
    }

    /// Replays one JSONL trace stream into the aggregate.
    ///
    /// # Errors
    ///
    /// Returns a message naming `source` and the offending line on parse
    /// failures, unbalanced spans, a missing `ledger_total` footer, a
    /// non-monotone timestamp, or a ledger/span-sum mismatch.
    pub fn add_stream(&mut self, source: &str, text: &str) -> Result<(), String> {
        let mut stack: Vec<Frame> = Vec::new();
        let mut saw_total = false;
        let mut last_t: Option<u64> = None;
        // Per-file ledger rows, checked against this file's span sums.
        let mut file_ledger: Vec<(String, u64)> = Vec::new();
        let mut file_span_samples: Vec<(String, u64)> = Vec::new();

        for (lineno, line) in text.lines().enumerate() {
            let at = |what: String| format!("{source}:{}: {what}", lineno + 1);
            if line.trim().is_empty() {
                continue;
            }
            let pairs = parse_flat_object(line).map_err(&at)?;
            self.events += 1;
            let ev = required_str(&pairs, "ev").map_err(&at)?;
            // Timestamps, wherever they appear, must be non-decreasing.
            if let Some(t) = field(&pairs, "t_us").and_then(Scalar::as_u64) {
                self.timed = true;
                if let Some(prev) = last_t {
                    if t < prev {
                        return Err(at(format!("t_us went backwards ({prev} -> {t})")));
                    }
                }
                last_t = Some(t);
            }
            match ev {
                "enter" => {
                    let stage = required_str(&pairs, "stage").map_err(&at)?;
                    let depth = required_u64(&pairs, "depth").map_err(&at)?;
                    if depth as usize != stack.len() {
                        return Err(at(format!(
                            "enter depth {depth} but {} spans open",
                            stack.len()
                        )));
                    }
                    stack.push(Frame {
                        stage: stage.to_string(),
                        child_us: 0,
                        enter_t: field(&pairs, "t_us").and_then(Scalar::as_u64),
                    });
                }
                "exit" => {
                    let stage = required_str(&pairs, "stage").map_err(&at)?;
                    let frame = stack
                        .pop()
                        .ok_or_else(|| at("exit with no open span".into()))?;
                    if frame.stage != stage {
                        return Err(at(format!(
                            "exit stage '{stage}' does not match open span '{}'",
                            frame.stage
                        )));
                    }
                    let samples = required_u64(&pairs, "samples").map_err(&at)?;
                    let elapsed = field(&pairs, "elapsed_us").and_then(Scalar::as_u64);
                    let t_exit = field(&pairs, "t_us").and_then(Scalar::as_u64);
                    if let (Some(e), Some(t0), Some(t1)) = (elapsed, frame.enter_t, t_exit) {
                        if t0 + e != t1 {
                            return Err(at(format!(
                                "elapsed_us {e} != t_us delta {}",
                                t1.saturating_sub(t0)
                            )));
                        }
                    }
                    if let Some(e) = elapsed {
                        self.timed = true;
                        match stack.last_mut() {
                            Some(parent) => parent.child_us += e,
                            None => self.root_us += e,
                        }
                    }
                    let row = self.stage_mut(stage);
                    row.spans += 1;
                    row.span_samples += samples;
                    if let Some(e) = elapsed {
                        row.inclusive_us += e;
                        row.exclusive_us += e.saturating_sub(frame.child_us);
                    }
                    bump(&mut file_span_samples, stage, samples);
                }
                "ledger" => {
                    let stage = required_str(&pairs, "stage").map_err(&at)?;
                    let samples = required_u64(&pairs, "samples").map_err(&at)?;
                    bump(&mut file_ledger, stage, samples);
                    self.stage_mut(stage).samples += samples;
                }
                "ledger_total" => {
                    let samples = required_u64(&pairs, "samples").map_err(&at)?;
                    let unattributed = required_u64(&pairs, "unattributed").map_err(&at)?;
                    let row_sum: u64 = file_ledger.iter().map(|(_, s)| s).sum();
                    if row_sum + unattributed != samples {
                        return Err(at(format!(
                            "ledger_total {samples} != row sum {row_sum} + unattributed {unattributed}"
                        )));
                    }
                    self.total_samples += samples;
                    self.unattributed += unattributed;
                    saw_total = true;
                }
                "counter" => {
                    let name = required_str(&pairs, "name").map_err(&at)?;
                    if name.starts_with("fault_") {
                        let value = required_u64(&pairs, "value").map_err(&at)?;
                        bump(&mut self.faults, name, value);
                    }
                }
                other => return Err(at(format!("unknown event '{other}'"))),
            }
        }
        if !stack.is_empty() {
            let open: Vec<&str> = stack.iter().map(|f| f.stage.as_str()).collect();
            return Err(format!(
                "{source}: stream ended with unclosed spans: {} (truncated trace?)",
                open.join(" > ")
            ));
        }
        if !saw_total {
            return Err(format!(
                "{source}: missing ledger_total footer (truncated trace?)"
            ));
        }
        // The ledger is derived from the same charges as the spans; any
        // disagreement means the file was edited or corrupted.
        for (stage, charged) in &file_span_samples {
            let ledgered = file_ledger
                .iter()
                .find(|(s, _)| s == stage)
                .map(|(_, v)| *v)
                .unwrap_or(0);
            if ledgered != *charged {
                return Err(format!(
                    "{source}: stage '{stage}' ledger row {ledgered} != span sum {charged}"
                ));
            }
        }
        self.files += 1;
        Ok(())
    }

    /// Renders the human-facing table. Wall-time columns appear only when
    /// the traces carried them; theory columns only when
    /// `theory` parameters are given.
    pub fn render_table(&self, theory: Option<&TheoryParams>) -> Table {
        let mut headers: Vec<&str> = vec!["stage", "samples", "share", "spans"];
        if self.timed {
            headers.extend(["wall_us", "wall_incl_us", "wall%"]);
        }
        if theory.is_some() {
            headers.extend(["theory_term", "samples/term"]);
        }
        let title = format!(
            "fewbins report: {} file(s), {} events",
            self.files, self.events
        );
        let mut table = Table::new(title, &headers);
        let pct = |num: u64, den: u64| {
            if den == 0 {
                "-".to_string()
            } else {
                format!("{:.1}%", 100.0 * num as f64 / den as f64)
            }
        };
        for (name, row) in &self.stages {
            let mut cells = vec![
                name.clone(),
                row.samples.to_string(),
                pct(row.samples, self.total_samples),
                row.spans.to_string(),
            ];
            if self.timed {
                cells.push(row.exclusive_us.to_string());
                cells.push(row.inclusive_us.to_string());
                cells.push(pct(row.exclusive_us, self.root_us));
            }
            if let Some(p) = theory {
                match theory::term_for_stage(name, p.n, p.k, p.epsilon) {
                    Some(term) => {
                        cells.push(format!("{term:.0}"));
                        cells.push(format!("{:.3}", row.samples as f64 / term));
                    }
                    None => {
                        cells.push("-".to_string());
                        cells.push("-".to_string());
                    }
                }
            }
            table.push_row(cells);
        }
        // Footer row: ledger totals and the root wall time they sit under.
        let mut total = vec![
            "(total)".to_string(),
            self.total_samples.to_string(),
            "100.0%".to_string(),
            self.stages
                .iter()
                .map(|(_, r)| r.spans)
                .sum::<u64>()
                .to_string(),
        ];
        if self.timed {
            total.push(self.root_us.to_string());
            total.push(self.root_us.to_string());
            total.push("100.0%".to_string());
        }
        if let Some(p) = theory {
            total.push(format!(
                "{:.0}",
                theory::theorem_1_1_budget(p.n, p.k, p.epsilon)
            ));
            total.push(format!(
                "{:.3}",
                self.total_samples as f64 / theory::theorem_1_1_budget(p.n, p.k, p.epsilon)
            ));
        }
        table.push_row(total);
        table
    }

    /// Renders the stage table, followed by a table of the fault counters
    /// when the traces carried any.
    pub fn render_text(&self, theory: Option<&TheoryParams>) -> String {
        let mut out = self.render_table(theory).render_text();
        if !self.faults.is_empty() {
            let mut faults = Table::new("injected faults", &["counter", "value"]);
            for (name, value) in &self.faults {
                faults.push_row(vec![name.clone(), value.to_string()]);
            }
            out.push('\n');
            out.push_str(&faults.render_text());
        }
        out
    }

    /// Serializes the report as one JSON object.
    pub fn to_json(&self, theory: Option<&TheoryParams>) -> String {
        let mut out = String::from("{");
        out.push_str(&format!(
            "\"files\":{},\"events\":{},\"total_samples\":{},\"unattributed\":{}",
            self.files, self.events, self.total_samples, self.unattributed
        ));
        if self.timed {
            out.push_str(&format!(",\"root_us\":{}", self.root_us));
        }
        out.push_str(",\"stages\":[");
        for (i, (name, row)) in self.stages.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"stage\":\"");
            escape_json_into(&mut out, name);
            out.push_str(&format!(
                "\",\"samples\":{},\"spans\":{}",
                row.samples, row.spans
            ));
            if self.timed {
                out.push_str(&format!(
                    ",\"wall_us\":{},\"wall_incl_us\":{}",
                    row.exclusive_us, row.inclusive_us
                ));
            }
            if let Some(p) = theory {
                if let Some(term) = theory::term_for_stage(name, p.n, p.k, p.epsilon) {
                    out.push_str(&format!(
                        ",\"theory_term\":{term:.1},\"samples_per_term\":{:.4}",
                        row.samples as f64 / term
                    ));
                }
            }
            out.push('}');
        }
        out.push_str("],\"faults\":{");
        for (i, (name, value)) in self.faults.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            escape_json_into(&mut out, name);
            out.push_str(&format!("\":{value}"));
        }
        out.push_str("}}");
        out
    }
}

fn bump(rows: &mut Vec<(String, u64)>, key: &str, by: u64) {
    match rows.iter_mut().find(|(k, _)| k == key) {
        Some((_, v)) => *v += by,
        None => rows.push((key.to_string(), by)),
    }
}

/// Reads and folds trace files into one report.
///
/// # Errors
///
/// I/O failures and malformed streams are formatted with the offending
/// path; the CLI maps them to exit code 3.
pub fn analyze_files(paths: &[String]) -> Result<TraceReport, String> {
    let mut report = TraceReport::new();
    for path in paths {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        report.add_stream(path, &text)?;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use histo_trace::{JsonlSink, ManualClock, SharedBuffer, Stage, Tracer};

    fn traced_stream(clocked: bool) -> String {
        let buf = SharedBuffer::new();
        let tracer = Tracer::new(Box::new(JsonlSink::new(buf.clone())));
        let mut tracer = if clocked {
            tracer.with_clock(Box::new(ManualClock::with_step(10)))
        } else {
            tracer.without_timing()
        };
        tracer.enter(Stage::Sieve);
        tracer.charge(40);
        tracer.enter(Stage::AdkTest);
        tracer.charge(5);
        tracer.exit();
        tracer.charge(2);
        tracer.exit();
        tracer.enter(Stage::Learner);
        tracer.charge(13);
        tracer.exit();
        let (_ledger, _timings) = tracer.finish_with_timings().unwrap();
        String::from_utf8(buf.contents()).unwrap()
    }

    #[test]
    fn parser_handles_scalars_and_escapes() {
        let pairs =
            parse_flat_object(r#"{"a":"x\"y","b":42,"c":-3,"d":0.5,"e":true,"f":null}"#).unwrap();
        assert_eq!(pairs[0], ("a".into(), Scalar::Str("x\"y".into())));
        assert_eq!(pairs[1], ("b".into(), Scalar::U64(42)));
        assert_eq!(pairs[2], ("c".into(), Scalar::I64(-3)));
        assert_eq!(pairs[3], ("d".into(), Scalar::F64(0.5)));
        assert_eq!(pairs[4], ("e".into(), Scalar::Bool(true)));
        assert_eq!(pairs[5], ("f".into(), Scalar::Null));
    }

    #[test]
    fn parser_rejects_trailing_garbage_and_nesting() {
        assert!(parse_flat_object(r#"{"a":1} extra"#).is_err());
        assert!(parse_flat_object(r#"{"a":{"nested":1}}"#).is_err());
        assert!(parse_flat_object(r#"not json"#).is_err());
    }

    #[test]
    fn report_reproduces_ledger_and_splits_wall_time() {
        let text = traced_stream(true);
        let mut report = TraceReport::new();
        report.add_stream("mem", &text).unwrap();
        assert_eq!(report.total_samples, 60);
        assert_eq!(report.unattributed, 0);
        assert!(report.timed);
        let sieve = &report.stages.iter().find(|(s, _)| s == "sieve").unwrap().1;
        // ManualClock step 10: every clock read advances 10µs. The sieve
        // span covers its own enter/exit reads plus the nested adk span.
        assert_eq!(sieve.samples, 42);
        assert_eq!(sieve.spans, 1);
        assert_eq!(sieve.inclusive_us, sieve.exclusive_us + 10);
        let adk = &report
            .stages
            .iter()
            .find(|(s, _)| s == "adk_test")
            .unwrap()
            .1;
        assert_eq!(adk.inclusive_us, 10);
        // Exclusive times telescope to the root wall time.
        let excl: u64 = report.stages.iter().map(|(_, r)| r.exclusive_us).sum();
        assert_eq!(excl, report.root_us);
    }

    #[test]
    fn timing_free_stream_reports_without_wall_columns() {
        let text = traced_stream(false);
        let mut report = TraceReport::new();
        report.add_stream("mem", &text).unwrap();
        assert!(!report.timed);
        assert_eq!(report.total_samples, 60);
        let table = report.render_table(None);
        assert!(!table.headers.iter().any(|h| h.contains("wall")));
        let json = report.to_json(None);
        assert!(!json.contains("root_us"));
        assert!(json.contains("\"total_samples\":60"));
    }

    #[test]
    fn aggregation_sums_across_files() {
        let text = traced_stream(true);
        let mut report = TraceReport::new();
        report.add_stream("a", &text).unwrap();
        report.add_stream("b", &text).unwrap();
        assert_eq!(report.files, 2);
        assert_eq!(report.total_samples, 120);
        let sieve = &report.stages.iter().find(|(s, _)| s == "sieve").unwrap().1;
        assert_eq!(sieve.samples, 84);
        assert_eq!(sieve.spans, 2);
    }

    #[test]
    fn truncated_stream_is_rejected_with_context() {
        let text = traced_stream(true);
        // Drop the footer lines: unclosed ledger.
        let truncated: String = text
            .lines()
            .filter(|l| !l.contains("ledger"))
            .map(|l| format!("{l}\n"))
            .collect();
        let err = TraceReport::new()
            .add_stream("trunc", &truncated)
            .unwrap_err();
        assert!(err.contains("ledger_total"), "{err}");
        // Keep only the first enter: unclosed span.
        let open_only = text.lines().next().unwrap().to_string();
        let err = TraceReport::new()
            .add_stream("open", &open_only)
            .unwrap_err();
        assert!(err.contains("unclosed"), "{err}");
    }

    #[test]
    fn tampered_ledger_row_is_detected() {
        let text = traced_stream(true).replace(
            r#"{"ev":"ledger","stage":"learner","samples":13}"#,
            r#"{"ev":"ledger","stage":"learner","samples":14}"#,
        );
        // The footer check trips first: rows no longer sum to the total.
        let err = TraceReport::new().add_stream("bad", &text).unwrap_err();
        assert!(err.contains("ledger"), "{err}");
    }

    #[test]
    fn theory_columns_join_measured_and_predicted() {
        let text = traced_stream(true);
        let mut report = TraceReport::new();
        report.add_stream("mem", &text).unwrap();
        let params = TheoryParams {
            n: 600,
            k: 3,
            epsilon: 0.3,
        };
        let table = report.render_table(Some(&params));
        assert!(table.headers.iter().any(|h| h == "theory_term"));
        let rendered = table.render_text();
        assert!(rendered.contains("sieve"));
        assert!(rendered.contains("(total)"));
        let json = report.to_json(Some(&params));
        assert!(json.contains("theory_term"));
    }

    #[test]
    fn fault_counters_sum_across_files() {
        let buf = SharedBuffer::new();
        let mut tracer = Tracer::new(Box::new(JsonlSink::new(buf.clone()))).without_timing();
        tracer.enter(Stage::Sieve);
        tracer.charge(9);
        tracer.exit();
        tracer.counter("fault_events_dropped", 2u64);
        tracer.counter("fault_events_total", 3u64);
        tracer.counter("unrelated", 7u64);
        tracer.finish().unwrap();
        let text = String::from_utf8(buf.contents()).unwrap();
        let mut report = TraceReport::new();
        report.add_stream("a", &text).unwrap();
        report.add_stream("b", &text).unwrap();
        assert_eq!(
            report.faults,
            vec![
                ("fault_events_dropped".to_string(), 4),
                ("fault_events_total".to_string(), 6)
            ]
        );
        let json = report.to_json(None);
        assert!(
            json.ends_with(r#""faults":{"fault_events_dropped":4,"fault_events_total":6}}"#),
            "{json}"
        );
        let text = report.render_text(None);
        assert!(text.contains("injected faults"), "{text}");
        assert!(text.contains("fault_events_total"), "{text}");
        // A clean trace reports an empty fault object and no fault table.
        let mut clean = TraceReport::new();
        clean.add_stream("clean", &traced_stream(false)).unwrap();
        assert!(clean.to_json(None).ends_with(r#""faults":{}}"#));
        assert!(!clean.render_text(None).contains("injected faults"));
    }

    #[test]
    fn non_integer_fault_counter_is_rejected() {
        let stream =
            "{\"ev\":\"counter\",\"seq\":0,\"name\":\"fault_events_total\",\"value\":1.5}\n";
        let err = TraceReport::new().add_stream("bad", stream).unwrap_err();
        assert!(err.contains("value"), "{err}");
    }

    #[test]
    fn non_monotone_timestamps_are_rejected() {
        let stream = "\
{\"ev\":\"enter\",\"seq\":0,\"stage\":\"sieve\",\"depth\":0,\"t_us\":50}\n\
{\"ev\":\"exit\",\"seq\":1,\"stage\":\"sieve\",\"depth\":0,\"samples\":0,\"elapsed_us\":0,\"t_us\":40}\n";
        let err = TraceReport::new().add_stream("bad", stream).unwrap_err();
        assert!(err.contains("backwards"), "{err}");
    }
}
