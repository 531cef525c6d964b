//! `fewbins report`: offline aggregation of JSONL trace streams, and the
//! one reader of the trace format.
//!
//! The tracer writes one JSON object per line; this module decodes each
//! line with a tiny flat-object parser into a typed event with an exact
//! key set per `ev` kind, and folds the stream into a per-stage table of
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
//! first-seen order). A stream that breaks any rule of the schema (listed
//! on [`TraceReport::add_stream`]) is reported as an error rather than
//! silently producing wrong totals.
use histo_experiments::theory;
use histo_experiments::Table;
use histo_faults::FAULT_COUNTERS;
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
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
            if pairs.iter().any(|(k, _)| *k == key) {
                return Err(format!("duplicate key '{key}'"));
            }
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

/// One decoded trace line. Each `ev` kind has an exact key set: the
/// required keys below plus the optional ones noted, so a key the writer
/// does not emit, or one it stopped emitting, fails the line.
#[derive(Debug, PartialEq)]
enum Event {
    /// `enter`: `seq`, `stage`, `depth`, optional `t_us`.
    Enter {
        seq: u64,
        stage: String,
        depth: u64,
        t_us: Option<u64>,
    },
    /// `exit`: `seq`, `stage`, `depth`, `samples`, optional `elapsed_us`
    /// and `t_us`.
    Exit {
        seq: u64,
        stage: String,
        depth: u64,
        samples: u64,
        elapsed_us: Option<u64>,
        t_us: Option<u64>,
    },
    /// `counter`: `seq`, `name`, `value`, optional string `stage`.
    Counter {
        seq: u64,
        name: String,
        value: Scalar,
    },
    /// `ledger`: `stage`, `samples`.
    Ledger { stage: String, samples: u64 },
    /// `ledger_total`: `samples`, `unattributed`.
    LedgerTotal { samples: u64, unattributed: u64 },
}

impl Event {
    fn seq(&self) -> Option<u64> {
        match self {
            Event::Enter { seq, .. } | Event::Exit { seq, .. } | Event::Counter { seq, .. } => {
                Some(*seq)
            }
            Event::Ledger { .. } | Event::LedgerTotal { .. } => None,
        }
    }

    fn t_us(&self) -> Option<u64> {
        match self {
            Event::Enter { t_us, .. } | Event::Exit { t_us, .. } => *t_us,
            _ => None,
        }
    }
}

/// The key/value pairs of one line, removed key by key as they decode;
/// whatever is left over is a key the schema does not have.
struct Fields(Vec<(String, Scalar)>);

impl Fields {
    fn take(&mut self, key: &str) -> Option<Scalar> {
        let at = self.0.iter().position(|(k, _)| k == key)?;
        Some(self.0.remove(at).1)
    }

    fn opt_u64(&mut self, key: &str) -> Result<Option<u64>, String> {
        match self.take(key) {
            None => Ok(None),
            Some(Scalar::U64(v)) => Ok(Some(v)),
            Some(other) => Err(format!(
                "key '{key}' is {other:?}, not a non-negative integer"
            )),
        }
    }

    fn opt_str(&mut self, key: &str) -> Result<Option<String>, String> {
        match self.take(key) {
            None => Ok(None),
            Some(Scalar::Str(s)) => Ok(Some(s)),
            Some(other) => Err(format!("key '{key}' is {other:?}, not a string")),
        }
    }

    fn u64(&mut self, key: &str) -> Result<u64, String> {
        self.opt_u64(key)?
            .ok_or_else(|| format!("missing key '{key}'"))
    }

    fn str(&mut self, key: &str) -> Result<String, String> {
        self.opt_str(key)?
            .ok_or_else(|| format!("missing key '{key}'"))
    }

    /// Decodes the rest of an `ev` line, then rejects any key left over.
    fn event(mut self, ev: &str) -> Result<Event, String> {
        let event = match ev {
            "enter" => Event::Enter {
                seq: self.u64("seq")?,
                stage: self.str("stage")?,
                depth: self.u64("depth")?,
                t_us: self.opt_u64("t_us")?,
            },
            "exit" => Event::Exit {
                seq: self.u64("seq")?,
                stage: self.str("stage")?,
                depth: self.u64("depth")?,
                samples: self.u64("samples")?,
                elapsed_us: self.opt_u64("elapsed_us")?,
                t_us: self.opt_u64("t_us")?,
            },
            "counter" => {
                self.opt_str("stage")?;
                Event::Counter {
                    seq: self.u64("seq")?,
                    name: self.str("name")?,
                    value: self.take("value").ok_or("missing key 'value'")?,
                }
            }
            "ledger" => Event::Ledger {
                stage: self.str("stage")?,
                samples: self.u64("samples")?,
            },
            "ledger_total" => Event::LedgerTotal {
                samples: self.u64("samples")?,
                unattributed: self.u64("unattributed")?,
            },
            _ => return Err("is not a known kind".into()),
        };
        match self.0.first() {
            Some((key, _)) => Err(format!("has unknown key '{key}'")),
            None => Ok(event),
        }
    }
}

/// Decodes one trace line into its typed event.
fn decode(line: &str) -> Result<Event, String> {
    let mut fields = Fields(parse_flat_object(line)?);
    let ev = fields.str("ev")?;
    fields.event(&ev).map_err(|e| format!("{ev} event {e}"))
}

/// Aggregated per-stage measurements across one or more traces.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StageReport {
    /// Draws charged to the stage (sum of its `ledger` footer rows).
    pub samples: u64,
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

    /// Replays one JSONL trace stream into the aggregate, enforcing every
    /// rule of the trace schema: the exact key set of each event kind,
    /// strictly increasing `seq`, span nesting and `depth`, timing that is
    /// all-or-nothing per span, one `ledger_total` footer that both the
    /// ledger rows and the exit samples reconcile with, and a complete,
    /// reconciling [`FAULT_COUNTERS`] family whenever a `fault_*` counter
    /// appears. `docs/OBSERVABILITY.md` states each rule.
    ///
    /// # Errors
    ///
    /// Returns a message naming `source`, the offending line where there
    /// is one, and the broken rule.
    pub fn add_stream(&mut self, source: &str, text: &str) -> Result<(), String> {
        let mut stack: Vec<Frame> = Vec::new();
        let mut footer: Option<(u64, u64)> = None;
        let mut last_seq: Option<u64> = None;
        let mut last_t: Option<u64> = None;
        // Per-file ledger rows, checked against this file's span sums.
        let mut file_ledger: Vec<(String, u64)> = Vec::new();
        let mut file_span_samples: Vec<(String, u64)> = Vec::new();
        let mut file_faults: [Option<u64>; FAULT_COUNTERS.len()] = Default::default();

        for (lineno, line) in text.lines().enumerate() {
            let at = |what: String| format!("{source}:{}: {what}", lineno + 1);
            if line.trim().is_empty() {
                continue;
            }
            let event = decode(line).map_err(&at)?;
            self.events += 1;
            if let Some(seq) = event.seq() {
                if let Some(prev) = last_seq.filter(|&prev| seq <= prev) {
                    return Err(at(format!("seq {seq} after {prev} is not increasing")));
                }
                last_seq = Some(seq);
            }
            // Timestamps, wherever they appear, must be non-decreasing.
            if let Some(t) = event.t_us() {
                self.timed = true;
                if let Some(prev) = last_t.filter(|&prev| t < prev) {
                    return Err(at(format!("t_us went backwards ({prev} -> {t})")));
                }
                last_t = Some(t);
            }
            match event {
                Event::Enter {
                    stage, depth, t_us, ..
                } => {
                    if depth != stack.len() as u64 {
                        return Err(at(format!(
                            "enter depth {depth} but {} spans open",
                            stack.len()
                        )));
                    }
                    stack.push(Frame {
                        stage,
                        child_us: 0,
                        enter_t: t_us,
                    });
                }
                Event::Exit {
                    stage,
                    depth,
                    samples,
                    elapsed_us,
                    t_us,
                    ..
                } => {
                    let frame = stack
                        .pop()
                        .ok_or_else(|| at("exit with no open span".into()))?;
                    if frame.stage != stage {
                        return Err(at(format!(
                            "exit stage '{stage}' does not match open span '{}'",
                            frame.stage
                        )));
                    }
                    if depth != stack.len() as u64 {
                        return Err(at(format!(
                            "exit depth {depth} but {} spans remain open",
                            stack.len()
                        )));
                    }
                    let elapsed = match (frame.enter_t, elapsed_us, t_us) {
                        (None, None, None) => None,
                        (Some(t0), Some(e), Some(t1)) => {
                            if t0.checked_add(e) != Some(t1) {
                                return Err(at(format!(
                                    "elapsed_us {e} != t_us delta {}",
                                    t1.saturating_sub(t0)
                                )));
                            }
                            Some(e)
                        }
                        (t0, e, t1) => {
                            return Err(at(format!(
                                "timing must be all-or-nothing per span (enter t_us {}, \
                                 exit t_us {}, elapsed_us {})",
                                or_none(t0),
                                or_none(t1),
                                or_none(e)
                            )))
                        }
                    };
                    if let Some(e) = elapsed {
                        match stack.last_mut() {
                            Some(parent) => parent.child_us += e,
                            None => self.root_us += e,
                        }
                    }
                    let row = self.stage_mut(&stage);
                    row.spans += 1;
                    if let Some(e) = elapsed {
                        row.inclusive_us += e;
                        row.exclusive_us += e.saturating_sub(frame.child_us);
                    }
                    bump(&mut file_span_samples, &stage, samples).map_err(&at)?;
                }
                Event::Ledger { stage, samples } => {
                    bump(&mut file_ledger, &stage, samples).map_err(&at)?;
                    self.stage_mut(&stage).samples += samples;
                }
                Event::LedgerTotal {
                    samples,
                    unattributed,
                } => {
                    if footer.replace((samples, unattributed)).is_some() {
                        return Err(at("second ledger_total footer".into()));
                    }
                    let row_sum = wide_sum(&file_ledger);
                    if row_sum + u128::from(unattributed) != u128::from(samples) {
                        return Err(at(format!(
                            "ledger_total {samples} != row sum {row_sum} + unattributed {unattributed}"
                        )));
                    }
                    self.total_samples += samples;
                    self.unattributed += unattributed;
                }
                Event::Counter { name, value, .. } => {
                    if name.starts_with("fault_") {
                        let slot = FAULT_COUNTERS
                            .iter()
                            .position(|known| *known == name)
                            .ok_or_else(|| at(format!("unknown fault counter '{name}'")))?;
                        let Scalar::U64(value) = value else {
                            return Err(at(format!(
                                "fault counter '{name}' value {value:?} is not a non-negative integer"
                            )));
                        };
                        if file_faults[slot].replace(value).is_some() {
                            return Err(at(format!("fault counter '{name}' repeated")));
                        }
                        bump(&mut self.faults, &name, value).map_err(&at)?;
                    }
                }
            }
        }
        if !stack.is_empty() {
            let open: Vec<&str> = stack.iter().map(|f| f.stage.as_str()).collect();
            return Err(format!(
                "{source}: stream ended with unclosed spans: {} (truncated trace?)",
                open.join(" > ")
            ));
        }
        let (total, unattributed) = footer
            .ok_or_else(|| format!("{source}: missing ledger_total footer (truncated trace?)"))?;
        // Exit samples are exclusive (children charge their own spans), so
        // they partition the total just as the ledger rows do.
        let span_sum = wide_sum(&file_span_samples);
        if span_sum + u128::from(unattributed) != u128::from(total) {
            return Err(format!(
                "{source}: exit-sample sum {span_sum} + unattributed {unattributed} \
                 != ledger_total {total}"
            ));
        }
        // The ledger is derived from the same charges as the spans; any
        // disagreement means the file was edited or corrupted. Stages that
        // drew nothing (the offline `check`, `ingest`) have spans but no row.
        file_span_samples.retain(|(_, s)| *s > 0);
        let lookup = |rows: &[(String, u64)], stage: &str| {
            rows.iter().find(|(s, _)| s == stage).map(|(_, v)| *v)
        };
        for (stage, _) in file_span_samples.iter().chain(&file_ledger) {
            let (row, sum) = (
                lookup(&file_ledger, stage),
                lookup(&file_span_samples, stage),
            );
            if row != sum {
                return Err(format!(
                    "{source}: stage '{stage}' ledger row {} != non-zero exit-sample sum {}",
                    or_none(row),
                    or_none(sum)
                ));
            }
        }
        if file_faults.iter().any(Option::is_some) {
            if let Some(slot) = file_faults.iter().position(Option::is_none) {
                return Err(format!(
                    "{source}: fault counter family incomplete: missing '{}'",
                    FAULT_COUNTERS[slot]
                ));
            }
            let [contaminated, duplicated, dropped, stalled, budget_hits, events_total, returned] =
                file_faults.map(|v| u128::from(v.unwrap_or_default()));
            let kinds = contaminated + duplicated + dropped + stalled + budget_hits;
            if events_total != kinds {
                return Err(format!(
                    "{source}: fault_events_total {events_total} != sum of the five kinds {kinds}"
                ));
            }
            if returned + dropped != u128::from(total) + duplicated {
                return Err(format!(
                    "{source}: fault_returned_draws {returned} != ledger total {total} \
                     - dropped {dropped} + duplicated {duplicated}"
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

fn or_none(v: Option<u64>) -> String {
    v.map_or("(none)".to_string(), |v| v.to_string())
}

/// Adds `by` to the row for `key`, appending the row on first sight.
fn bump(rows: &mut Vec<(String, u64)>, key: &str, by: u64) -> Result<(), String> {
    match rows.iter_mut().find(|(k, _)| k == key) {
        Some((_, v)) => {
            *v = v
                .checked_add(by)
                .ok_or_else(|| format!("'{key}' sum overflows u64"))?
        }
        None => rows.push((key.to_string(), by)),
    }
    Ok(())
}

/// The sum of all rows, wide enough that trace values cannot overflow it.
fn wide_sum(rows: &[(String, u64)]) -> u128 {
    rows.iter().map(|(_, v)| u128::from(*v)).sum()
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
    use histo_trace::{JsonlSink, ManualClock, SharedBuffer, Stage, TraceEvent, Tracer, Value};

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

    /// A timing-free stream whose fault counters reconcile with its
    /// ledger: 9 draws consumed, 2 of them dropped, 1 duplicate served,
    /// so 8 returned.
    fn faulty_stream() -> String {
        let buf = SharedBuffer::new();
        let mut tracer = Tracer::new(Box::new(JsonlSink::new(buf.clone()))).without_timing();
        tracer.enter(Stage::Sieve);
        tracer.charge(9);
        tracer.exit();
        for (name, value) in FAULT_COUNTERS.into_iter().zip([4u64, 1, 2, 0, 0, 7, 8]) {
            tracer.counter(name, value);
        }
        tracer.counter("unrelated", 7u64);
        tracer.finish().unwrap();
        String::from_utf8(buf.contents()).unwrap()
    }

    #[test]
    fn every_writer_shape_decodes() {
        const TEXT: &str = "q\"b\\s/t\tn\nr\rb\u{8}f\u{c}u\u{1}é";
        let enter = |t_us| TraceEvent::StageEnter {
            seq: 3,
            stage: Stage::Sieve,
            depth: 1,
            t_us,
        };
        let entered = |t_us| Event::Enter {
            seq: 3,
            stage: "sieve".into(),
            depth: 1,
            t_us,
        };
        let exit = |elapsed_us, t_us| TraceEvent::StageExit {
            seq: 4,
            stage: Stage::Other("warm up"),
            depth: 0,
            samples: 42,
            elapsed_us,
            t_us,
        };
        let exited = |elapsed_us, t_us| Event::Exit {
            seq: 4,
            stage: "warm up".into(),
            depth: 0,
            samples: 42,
            elapsed_us,
            t_us,
        };
        let counter = |stage, value| TraceEvent::Counter {
            seq: 5,
            stage,
            name: "x",
            value,
        };
        let counted = |value| Event::Counter {
            seq: 5,
            name: "x".into(),
            value,
        };
        let cases = [
            (enter(None), entered(None)),
            (enter(Some(120)), entered(Some(120))),
            (exit(None, None), exited(None, None)),
            (exit(Some(17), Some(137)), exited(Some(17), Some(137))),
            (
                counter(Some(Stage::Learner), Value::U64(7)),
                counted(Scalar::U64(7)),
            ),
            (counter(None, Value::U64(7)), counted(Scalar::U64(7))),
            (counter(None, Value::I64(-3)), counted(Scalar::I64(-3))),
            (counter(None, Value::F64(0.5)), counted(Scalar::F64(0.5))),
            (counter(None, Value::F64(f64::NAN)), counted(Scalar::Null)),
            (
                counter(None, Value::Bool(true)),
                counted(Scalar::Bool(true)),
            ),
            (
                counter(None, Value::Str(TEXT)),
                counted(Scalar::Str(TEXT.into())),
            ),
            (
                TraceEvent::LedgerEntry {
                    stage: Stage::Learner,
                    samples: 13,
                },
                Event::Ledger {
                    stage: "learner".into(),
                    samples: 13,
                },
            ),
            (
                TraceEvent::LedgerTotal {
                    samples: 60,
                    unattributed: 2,
                },
                Event::LedgerTotal {
                    samples: 60,
                    unattributed: 2,
                },
            ),
        ];
        for (written, expected) in cases {
            let line = written.to_json_line();
            assert_eq!(decode(&line), Ok(expected), "{line}");
        }
    }

    #[test]
    fn each_rule_fails_a_doctored_stream() {
        let timed = traced_stream(true);
        let faulty = faulty_stream();
        let footer = "{\"ev\":\"ledger_total\",\"samples\":60,\"unattributed\":0}\n";
        let twice = footer.repeat(2);
        let phantom =
            format!("{{\"ev\":\"ledger\",\"stage\":\"phantom\",\"samples\":0}}\n{footer}");
        let huge = format!(
            "{{\"ev\":\"ledger\",\"stage\":\"sieve\",\"samples\":{}}}\n{footer}",
            u64::MAX
        );
        // (stream, text to replace, replacement, what the error must name)
        let cases = [
            (
                &timed,
                r#""samples":5,"#,
                r#""samples":5,"alloc_count":3,"#,
                "unknown key 'alloc_count'",
            ),
            (
                &timed,
                r#""adk_test","depth":1,"samples""#,
                r#""adk_test","samples""#,
                "missing key 'depth'",
            ),
            (
                &timed,
                r#""exit","seq":3"#,
                r#""exit","seq":2"#,
                "seq 2 after 2 is not increasing",
            ),
            (
                &timed,
                r#""adk_test","depth":1,"samples""#,
                r#""adk_test","depth":0,"samples""#,
                "exit depth 0 but 1 spans",
            ),
            (
                &timed,
                r#""learner","depth":0,"t_us":40"#,
                r#""learner","depth":0"#,
                "all-or-nothing",
            ),
            (
                &timed,
                r#""elapsed_us":10,"t_us":50"#,
                r#""elapsed_us":11,"t_us":50"#,
                "elapsed_us 11 != t_us delta 10",
            ),
            (&timed, footer, &twice, "second ledger_total"),
            (
                &timed,
                r#""learner","samples":13"#,
                r#""learner","samples":14"#,
                "ledger_total 60 != row sum 61",
            ),
            (
                &timed,
                r#""samples":42,"elapsed_us""#,
                r#""samples":43,"elapsed_us""#,
                "exit-sample sum 61 + unattributed 0 != ledger_total 60",
            ),
            (
                &timed,
                footer,
                &phantom,
                "stage 'phantom' ledger row 0 != non-zero exit-sample sum (none)",
            ),
            (&timed, footer, &huge, "'sieve' sum overflows u64"),
            (
                &faulty,
                "{\"ev\":\"counter\",\"seq\":4,\"name\":\"fault_events_dropped\",\"value\":2}\n",
                "",
                "family incomplete: missing 'fault_events_dropped'",
            ),
            (
                &faulty,
                r#""fault_events_total","value":7"#,
                r#""fault_events_total","value":8"#,
                "fault_events_total 8 != sum of the five kinds 7",
            ),
            (
                &faulty,
                r#""fault_returned_draws","value":8"#,
                r#""fault_returned_draws","value":9"#,
                "fault_returned_draws 9 != ledger total 9 - dropped 2 + duplicated 1",
            ),
            (
                &faulty,
                r#""fault_events_stalled""#,
                r#""fault_events_slow""#,
                "unknown fault counter 'fault_events_slow'",
            ),
            (
                &faulty,
                r#""unrelated","value":7"#,
                r#""fault_events_stalled","value":0"#,
                "fault counter 'fault_events_stalled' repeated",
            ),
        ];
        for (stream, from, to, rule) in cases {
            assert!(stream.contains(from), "{from} not in {stream}");
            let doctored = stream.replacen(from, to, 1);
            let err = TraceReport::new()
                .add_stream("doctored", &doctored)
                .unwrap_err();
            assert!(err.contains(rule), "expected '{rule}', got '{err}'");
        }
        for stream in [&timed, &faulty] {
            TraceReport::new().add_stream("clean", stream).unwrap();
        }
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
        assert!(parse_flat_object(r#"{"a":1,"a":2}"#).is_err());
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
        let text = faulty_stream();
        let mut report = TraceReport::new();
        report.add_stream("a", &text).unwrap();
        report.add_stream("b", &text).unwrap();
        let doubled: Vec<(String, u64)> = FAULT_COUNTERS
            .into_iter()
            .zip([8, 2, 4, 0, 0, 14, 16])
            .map(|(name, value)| (name.to_string(), value))
            .collect();
        assert_eq!(report.faults, doubled);
        let json = report.to_json(None);
        assert!(
            json.ends_with(
                r#""faults":{"fault_events_contaminated":8,"fault_events_duplicated":2,"fault_events_dropped":4,"fault_events_stalled":0,"fault_events_budget_hits":0,"fault_events_total":14,"fault_returned_draws":16}}"#
            ),
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
