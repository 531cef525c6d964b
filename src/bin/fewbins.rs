//! `fewbins` — command-line interface to the histogram tester.
//!
//! Subcommands:
//!
//! - `test`      — test sampled data for membership in `H_k`.
//! - `select-k`  — doubling search for the smallest adequate `k`.
//! - `certify`   — offline DP bounds on `d_TV(D, H_k)` for an explicit pmf.
//! - `sketch`    — agnostically learn a k-histogram sketch from samples.
//! - `report`    — aggregate JSONL trace files into a per-stage table of
//!   samples and wall time, plus the injected-fault counters (optionally
//!   against the Theorem 1.1 theory terms when `--n`/`--k` are given). It
//!   is the one view derived from a trace.
//!
//! Input formats: `test`/`select-k`/`sketch` read 0-based sample indices
//! from a file (or stdin with `-`) and stream them into one count per
//! domain element, so memory is O(n) whatever the number of samples;
//! `certify` reads non-negative weights (one per domain element). Tokens
//! are separated by ASCII whitespace.
//!
//! `test` always runs one oracle stack — the recorded data, a tracer, and
//! an optional fault layer — under one resilient runner (see
//! `docs/ROBUSTNESS.md`). Its options are all off by default: `--faults
//! SPEC` injects a deterministic fault schedule into the oracle,
//! `--max-samples B` caps the total draw budget, `--retries R` amplifies
//! by majority vote over `R` rounds, and `--deadline-ms` /
//! `--stage-deadline-ms` bound the run (or any one stage) by wall clock.
//! An option that never fires changes no draw and no output byte. When
//! the run cannot finish honestly it reports `INCONCLUSIVE` (exit code 5,
//! or 6 for a deadline) instead of guessing. `select-k` and `sketch` run
//! the same stack, and `--max-samples` caps them the same way: on the
//! draws returned to the tester.
//!
//! Exit codes: `0` ok · `1` internal error (a panic) · `2` usage error ·
//! `3` bad input data, or a `--trace` file that cannot be written · `4`
//! samples exhausted (dataset or budget) · `5` inconclusive · `6` deadline
//! exceeded.
//!
//! Examples:
//!
//! ```sh
//! fewbins test    --n 1000 --k 4 --eps 0.25 --scale 0.2 samples.txt
//! fewbins test    --k 4 --faults eta=0.1,adv=point:0,seed=7 --retries 3 samples.txt
//! fewbins test    --k 4 --trace run.jsonl samples.txt
//! fewbins select-k --n 1000 --eps 0.2 samples.txt
//! fewbins certify --k 3 pmf.txt
//! fewbins sketch  --n 1000 --k 4 --eps 0.1 samples.txt
//! fewbins report  --n 1000 --k 4 --eps 0.25 --json run.jsonl
//! ```

use few_bins::prelude::*;
use few_bins::report::{analyze_files, TheoryParams};
use few_bins::testers::validate_params;
use histo_stats::PortableRng;
use std::collections::TryReserveError;
use std::io::Read;
use std::process::ExitCode;

/// A CLI failure with its exit code: `2` usage, `3` input data, `4`
/// samples exhausted, `5` inconclusive, `6` deadline exceeded (internal
/// panics exit `1`).
struct CliError {
    code: u8,
    msg: String,
}

impl CliError {
    fn usage(msg: impl Into<String>) -> Self {
        Self {
            code: 2,
            msg: msg.into(),
        }
    }

    fn input(msg: impl Into<String>) -> Self {
        Self {
            code: 3,
            msg: msg.into(),
        }
    }
}

impl From<HistoError> for CliError {
    fn from(e: HistoError) -> Self {
        let code = match &e {
            HistoError::OracleExhausted { .. } => 4,
            HistoError::DeadlineExceeded { .. } => 6,
            _ => 3,
        };
        Self {
            code,
            msg: e.to_string(),
        }
    }
}

/// Exact alias table over integer counts: Vose's method in integer
/// arithmetic. Column `c = below(n)` keeps itself when
/// `below(total) < cut[c]` and yields `alias[c]` otherwise, so element `i`
/// is drawn with probability exactly `weights[i] / total`, in O(1) and
/// without floats.
struct CountAlias {
    weights: Vec<u64>,
    total: u64,
    cut: Vec<u64>,
    alias: Vec<usize>,
}

impl CountAlias {
    /// `weights` must have a positive sum.
    fn new(weights: Vec<u64>) -> Self {
        let n = weights.len();
        let total: u64 = weights.iter().sum();
        // Column `i` starts with `n·weights[i]` units against a capacity of
        // `total` units per column; u128 holds the product for any input.
        let cap = u128::from(total);
        let mut mass: Vec<u128> = weights.iter().map(|&w| u128::from(w) * n as u128).collect();
        let mut cut = vec![total; n];
        let mut alias: Vec<usize> = (0..n).collect();
        let (mut small, mut large): (Vec<usize>, Vec<usize>) = (0..n).partition(|&i| mass[i] < cap);
        // Each step fills one small column from a large one. The unfilled
        // columns always hold `cap` units on average, so `small` empties no
        // later than `large`, and every column left over holds exactly
        // `cap` units and keeps itself.
        while let Some(&l) = large.last() {
            let Some(s) = small.pop() else { break };
            cut[s] = mass[s] as u64;
            alias[s] = l;
            mass[l] -= cap - mass[s];
            if mass[l] < cap {
                large.pop();
                small.push(l);
            }
        }
        Self {
            weights,
            total,
            cut,
            alias,
        }
    }

    fn draw(&self, rng: &mut PortableRng) -> usize {
        let col = rng.below(self.cut.len() as u64) as usize;
        if rng.below(self.total) < self.cut[col] {
            col
        } else {
            self.alias[col]
        }
    }
}

/// Replay oracle over a recorded dataset, held as one count per domain
/// element.
///
/// Two modes, chosen explicitly by the user:
///
/// - **bootstrap** (default): draws with replacement — this tests the
///   dataset's *empirical* distribution, which is only meaningful when the
///   dataset is large relative to the tester's budget (a warning is
///   printed otherwise: a small dataset's empirical distribution is a
///   noisy non-histogram even when the source is one);
/// - **no-resample** (`--no-resample`): consumes each recorded sample
///   exactly once in random order (true i.i.d. semantics) and fails with a
///   typed `OracleExhausted` error when the dataset runs out.
///
/// Both modes draw from a [`CountAlias`] over the counts. Without
/// resampling, a drawn element `i` is kept with probability
/// `left[i] / weights[i]` (else drawn again), which makes each draw
/// uniform over the samples not yet consumed — the law of shuffling the
/// dataset and reading it in order. The table is rebuilt from `left` once
/// a sixteenth of its weight is consumed, but at most once per `n` draws
/// (a rebuild costs O(n)) and always by the time half is consumed, so a
/// draw is kept with probability at least 1/2 and costs O(1) expected
/// time.
struct ReplayOracle {
    table: CountAlias,
    /// `--no-resample`: the counts not yet drawn (`None` bootstraps).
    left: Option<Vec<u64>>,
    left_total: u64,
    recorded: u64,
    drawn: u64,
}

impl ReplayOracle {
    /// `counts` must have a positive sum.
    fn new(counts: Vec<u64>, resample: bool) -> Self {
        let left = (!resample).then(|| counts.clone());
        let table = CountAlias::new(counts);
        Self {
            left_total: table.total,
            recorded: table.total,
            table,
            left,
            drawn: 0,
        }
    }

    /// True once a no-resample run has consumed every recorded sample.
    fn ran_dry(&self) -> bool {
        self.left.is_some() && self.left_total == 0
    }
}

impl few_bins::sampling::oracle::SampleOracle for ReplayOracle {
    fn n(&self) -> usize {
        self.table.weights.len()
    }
    fn samples_drawn(&self) -> u64 {
        self.drawn
    }
    fn try_draw(&mut self, rng: &mut PortableRng) -> Result<usize, HistoError> {
        let s = match self.left.as_mut() {
            None => self.table.draw(rng),
            Some(left) => {
                if self.left_total == 0 {
                    return Err(HistoError::OracleExhausted {
                        budget: self.recorded,
                        drawn: self.drawn,
                    });
                }
                let consumed = self.table.total - self.left_total;
                let due = (self.table.total / 16)
                    .max(left.len() as u64)
                    .min(self.table.total / 2);
                if consumed > 0 && consumed >= due {
                    self.table = CountAlias::new(left.clone());
                }
                loop {
                    let i = self.table.draw(rng);
                    if rng.below(self.table.weights[i]) < left[i] {
                        left[i] -= 1;
                        self.left_total -= 1;
                        break i;
                    }
                }
            }
        };
        self.drawn += 1;
        Ok(s)
    }
}

/// Rough estimate of the tester's total draw count for one run, from the
/// config's budget formulas (ApproxPart + Learner + sieve rounds + final
/// χ² batch).
fn estimate_budget(config: &TesterConfig, n: usize, k: usize, eps: f64) -> u64 {
    let b = config.b(k, eps).max(1.0);
    let ap = config.approx_part_samples(b);
    let big_k = (1.5 * b) as usize + 2;
    let learner = config.learner_samples(big_k, eps / config.learner_eps_divisor);
    let alpha = eps / config.sieve.alpha_divisor;
    let m_sieve = config.sieve.sample_factor * (n as f64).sqrt() / (alpha * alpha);
    let rounds = (k as f64).log2().ceil().max(1.0) + 1.0 + config.sieve.extra_rounds as f64;
    let m_test = config.test_samples(n, config.final_eps_factor * eps);
    ap + learner + (rounds * m_sieve) as u64 + m_test as u64
}

/// `FEWBINS_TRACE_NO_TIMING=1` drops `t_us`/`elapsed_us` from every
/// trace event, making the stream a pure function of the algorithm —
/// the flag-transparency checks byte-compare traces of runs with and
/// without flags that never fire this way.
fn trace_timing_disabled() -> bool {
    std::env::var("FEWBINS_TRACE_NO_TIMING").is_ok_and(|v| v == "1")
}

/// Prints the fault-injection summary to stderr (stdout stays
/// machine-readable).
fn report_faults(c: FaultCounters) {
    eprintln!(
        "fewbins: faults injected: {} contaminated, {} duplicated, {} dropped, \
         {} stalled, {} budget hits ({} events total)",
        c.contaminated,
        c.duplicated,
        c.dropped,
        c.stalled,
        c.budget_hits,
        c.total()
    );
}

/// Prints the per-stage sample ledger and wall-time summary to stderr.
fn report_ledger(path: &str, ledger: &SampleLedger, timings: &StageTimings) {
    eprintln!("fewbins: trace written to {path}; samples and wall time by stage:");
    for (stage, samples) in ledger.entries() {
        let wall = timings.stage(*stage);
        eprintln!(
            "fewbins:   {:>16}  {samples:>12}  {:>10} us",
            stage.name(),
            wall.exclusive_us
        );
    }
    eprintln!(
        "fewbins:   {:>16}  {:>12}  (total {} draws, {} us wall)",
        "unattributed",
        ledger.unattributed(),
        ledger.total(),
        timings.root_us()
    );
}

/// Runs `body` against `oracle` under the one oracle stack: a tracing
/// [`ScopedOracle`] over `tracer` (see [`ingest`]; the ledger summary goes
/// to stderr when `trace_path` is set) and a [`FaultyOracle`] when `plan`
/// injects anything. The fault layer wraps the tracer, so injected fault
/// counters are emitted into the trace stream, where `fewbins report`
/// audits and sums them. The tracer is
/// always attached because a stage deadline reads the current stage from
/// it; it never touches the draw stream.
fn with_stack<T>(
    oracle: &mut dyn SampleOracle,
    tracer: Tracer,
    trace_path: &Option<String>,
    plan: &Option<FaultPlan>,
    body: impl FnOnce(&mut dyn SampleOracle) -> Result<T, CliError>,
) -> Result<T, CliError> {
    let mut scoped = ScopedOracle::with_tracer(oracle, tracer);
    // A plan that injects nothing (`--faults none`) gets no fault layer,
    // so its trace is byte-identical to a run without `--faults`.
    let (result, finished) = match plan.as_ref().filter(|p| !p.is_none()) {
        None => {
            let result = body(&mut scoped);
            (result, scoped.finish_with_timings())
        }
        Some(plan) => {
            let mut faulty = FaultyOracle::new(scoped, plan.clone());
            let result = body(&mut faulty);
            faulty.emit_counters();
            report_faults(faulty.counters());
            (result, faulty.into_inner().finish_with_timings())
        }
    };
    // Only a `--trace` file can fail to write; an incomplete trace fails
    // the run, whatever its outcome.
    if let Some(path) = trace_path {
        let (ledger, timings) =
            finished.map_err(|e| CliError::input(format!("writing {path}: {e}")))?;
        report_ledger(path, &ledger, &timings);
    }
    result
}

#[derive(Debug, Default)]
struct Args {
    n: Option<usize>,
    k: Option<usize>,
    eps: Option<f64>,
    seed: u64,
    max_k: usize,
    scale: f64,
    no_resample: bool,
    trace: Option<String>,
    json: bool,
    faults: Option<String>,
    max_samples: Option<u64>,
    retries: usize,
    deadline_ms: Option<u64>,
    stage_deadline_ms: Option<u64>,
    file: Option<String>,
    files: Vec<String>,
}

fn parse_args(argv: &[String]) -> Result<(String, Args), String> {
    let mut it = argv.iter();
    let cmd = it
        .next()
        .ok_or_else(|| "missing subcommand (test | select-k | certify | sketch)".to_string())?
        .clone();
    let mut args = Args {
        seed: 160,
        max_k: 256,
        scale: 1.0,
        retries: 1,
        ..Default::default()
    };
    while let Some(a) = it.next() {
        let mut take = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("flag {name} needs a value"))
        };
        match a.as_str() {
            "--n" => args.n = Some(take("--n")?.parse().map_err(|e| format!("--n: {e}"))?),
            "--k" => args.k = Some(take("--k")?.parse().map_err(|e| format!("--k: {e}"))?),
            "--eps" => args.eps = Some(take("--eps")?.parse().map_err(|e| format!("--eps: {e}"))?),
            "--seed" => {
                args.seed = take("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--max-k" => {
                args.max_k = take("--max-k")?
                    .parse()
                    .map_err(|e| format!("--max-k: {e}"))?
            }
            "--scale" => {
                args.scale = take("--scale")?
                    .parse()
                    .map_err(|e| format!("--scale: {e}"))?;
                if args.scale <= 0.0 {
                    return Err("--scale must be positive".into());
                }
            }
            "--no-resample" => args.no_resample = true,
            "--trace" => args.trace = Some(take("--trace")?),
            "--json" => args.json = true,
            "--faults" => args.faults = Some(take("--faults")?),
            "--max-samples" => {
                args.max_samples = Some(
                    take("--max-samples")?
                        .parse()
                        .map_err(|e| format!("--max-samples: {e}"))?,
                )
            }
            "--retries" => {
                args.retries = take("--retries")?
                    .parse()
                    .map_err(|e| format!("--retries: {e}"))?;
                if args.retries == 0 {
                    return Err("--retries must be at least 1".into());
                }
            }
            "--deadline-ms" => {
                args.deadline_ms = Some(
                    take("--deadline-ms")?
                        .parse()
                        .map_err(|e| format!("--deadline-ms: {e}"))?,
                )
            }
            "--stage-deadline-ms" => {
                args.stage_deadline_ms = Some(
                    take("--stage-deadline-ms")?
                        .parse()
                        .map_err(|e| format!("--stage-deadline-ms: {e}"))?,
                )
            }
            other if !other.starts_with("--") => {
                if args.file.is_none() {
                    args.file = Some(other.to_string());
                }
                args.files.push(other.to_string());
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok((cmd, args))
}

/// Bytes per read of the input.
const CHUNK: usize = 64 * 1024;

/// The token separators: the ASCII characters `char::is_whitespace`
/// accepts (tab, LF, VT, FF, CR and space).
fn is_separator(b: u8) -> bool {
    b == b' ' || (b'\t'..=b'\r').contains(&b)
}

/// Opens the file at `path`, or stdin for `-` or no path, with the label
/// that read errors carry.
fn open_input(path: &Option<String>) -> Result<(Box<dyn Read>, String), String> {
    match path.as_deref() {
        None | Some("-") => Ok((Box::new(std::io::stdin()), "stdin".into())),
        Some(p) => match std::fs::File::open(p) {
            Ok(f) => Ok((Box::new(f), p.to_string())),
            Err(e) => Err(format!("reading {p}: {e}")),
        },
    }
}

/// Streams the separator-delimited tokens of `src` to `f`, reading `chunk`
/// bytes at a time. A token of at most 19 ASCII digits, which cannot
/// overflow a `u64`, comes with its value, read in the same pass over the
/// bytes. A token cut by the end of one read is passed whole once the next
/// read completes it, without a value.
fn for_each_token(
    src: &mut dyn Read,
    label: &str,
    chunk: usize,
    mut f: impl FnMut(&[u8], Option<u64>) -> Result<(), String>,
) -> Result<(), String> {
    let mut buf = vec![0u8; chunk];
    let mut carry = Vec::new();
    loop {
        let len = match src.read(&mut buf) {
            Ok(0) => break,
            Ok(len) => len,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(format!("reading {label}: {e}")),
        };
        let bytes = &buf[..len];
        let mut i = 0;
        if !carry.is_empty() {
            i = bytes.iter().position(|&b| is_separator(b)).unwrap_or(len);
            carry.extend_from_slice(&bytes[..i]);
            if i == len {
                continue;
            }
            f(&carry, None)?;
            carry.clear();
        }
        while i < len {
            if is_separator(bytes[i]) {
                i += 1;
                continue;
            }
            let start = i;
            let mut value = 0u64;
            while i < len && bytes[i].is_ascii_digit() {
                value = value
                    .wrapping_mul(10)
                    .wrapping_add(u64::from(bytes[i] - b'0'));
                i += 1;
            }
            let digits_end = i;
            while i < len && !is_separator(bytes[i]) {
                i += 1;
            }
            if i == len {
                carry.extend_from_slice(&bytes[start..]);
                break;
            }
            let plain = digits_end == i && i - start <= 19;
            f(&bytes[start..i], plain.then_some(value))?;
        }
    }
    if carry.is_empty() {
        Ok(())
    } else {
        f(&carry, None)
    }
}

/// One sample index: the token's digit value when the tokenizer read one,
/// else `str::parse`, which also accepts a leading `+` and words the error.
fn parse_sample(token: &[u8], value: Option<u64>) -> Result<usize, String> {
    if let Some(v) = value.and_then(|v| usize::try_from(v).ok()) {
        return Ok(v);
    }
    let text = String::from_utf8_lossy(token);
    text.parse().map_err(|e| format!("sample `{text}`: {e}"))
}

/// Zero-extends `counts` to `len` entries. The allocation is fallible, so
/// a domain too large for memory is bad input rather than an abort.
fn grow_tally(counts: &mut Vec<u64>, len: usize) -> Result<(), TryReserveError> {
    counts.try_reserve(len - counts.len())?;
    counts.resize(len, 0);
    Ok(())
}

/// Tallies the sample indices of `src` into one count per element of the
/// domain `0..n`; without `n` the domain is `0..=max`. Memory is O(n),
/// whatever the number of samples.
fn tally_samples(
    src: &mut dyn Read,
    label: &str,
    chunk: usize,
    n: Option<usize>,
) -> Result<Vec<u64>, String> {
    let mut counts = Vec::new();
    if let Some(n) = n {
        grow_tally(&mut counts, n)
            .map_err(|e| format!("--n {n}: cannot tally the domain 0..{n} ({e})"))?;
    }
    let mut total = 0u64;
    for_each_token(src, label, chunk, |token, value| {
        let s = parse_sample(token, value)?;
        if s >= counts.len() {
            if let Some(n) = n {
                return Err(format!("a sample exceeds the domain 0..{n}"));
            }
            grow_tally(&mut counts, s.saturating_add(1)).map_err(|e| {
                format!(
                    "sample {s}: cannot tally the domain 0..={s} ({e}); \
                     the largest sample sets the domain unless --n is given"
                )
            })?;
        }
        counts[s] += 1;
        total += 1;
        Ok(())
    })?;
    if total == 0 {
        return Err("no samples provided".into());
    }
    Ok(counts)
}

/// The non-negative weights of `certify`, one per domain element.
fn read_weights(path: &Option<String>) -> Result<Vec<f64>, String> {
    let (mut src, label) = open_input(path)?;
    let mut weights = Vec::new();
    for_each_token(&mut *src, &label, CHUNK, |token, _| {
        let text = String::from_utf8_lossy(token);
        weights.push(text.parse().map_err(|e| format!("weight `{text}`: {e}"))?);
        Ok(())
    })?;
    Ok(weights)
}

/// Opens the run's tracer (JSONL spans to `--trace`, or a [`NullSink`])
/// and then reads the recorded samples into a [`ReplayOracle`] inside an
/// `ingest` span that draws nothing, so the trace accounts for the whole
/// process.
fn ingest(args: &Args) -> Result<(Tracer, ReplayOracle), CliError> {
    let sink: Box<dyn TraceSink> = match &args.trace {
        Some(path) => Box::new(
            JsonlSink::create(path)
                .map_err(|e| CliError::input(format!("creating {path}: {e}")))?,
        ),
        None => Box::new(NullSink),
    };
    let mut tracer = Tracer::new(sink);
    if trace_timing_disabled() {
        tracer = tracer.without_timing();
    }
    tracer.enter(Stage::Other("ingest"));
    let oracle = open_input(&args.file)
        .and_then(|(mut src, label)| tally_samples(&mut *src, &label, CHUNK, args.n))
        .map(|counts| ReplayOracle::new(counts, !args.no_resample));
    tracer.exit();
    Ok((tracer, oracle.map_err(CliError::input)?))
}

fn run() -> Result<(), CliError> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() || argv[0] == "--help" || argv[0] == "-h" {
        eprintln!(
            "usage: fewbins <test|select-k|certify|sketch|report> [--n N] [--k K] [--eps E]\n\
             \x20      [--seed S] [--max-k M] [--scale F] [--no-resample]\n\
             \x20      [--trace out.jsonl] [--faults SPEC]\n\
             \x20      [--max-samples B] [--retries R] [--deadline-ms T]\n\
             \x20      [--stage-deadline-ms T] [--json] [file|-]\n\
             \n\
             test runs one resilient runner; --max-samples, --retries, --faults\n\
             \x20      and --deadline-ms/--stage-deadline-ms are off by default, and\n\
             \x20      one that never fires changes no draw\n\
             \n\
             fault spec: comma-separated key=value pairs (or `none`), e.g.\n\
             \x20      eta=0.1,adv=point:0,budget=50000,dup=0.01,drop=0.02,stall=5x100,seed=9\n\
             \n\
             report: aggregates one or more --trace outputs into a per-stage\n\
             \x20      table (samples, wall time) and the injected fault counters;\n\
             \x20      give --n/--k [--eps] to add Theorem 1.1 theory-term\n\
             \x20      columns; --json switches the output format\n\
             \n\
             exit codes: 0 ok; 1 internal error (a panic); 2 usage; 3 bad input\n\
             \x20      data or an unwritable --trace file; 4 samples exhausted\n\
             \x20      (dataset or budget); 5 inconclusive; 6 deadline exceeded"
        );
        return Ok(());
    }
    let (cmd, args) = parse_args(&argv).map_err(CliError::usage)?;
    let plan = args
        .faults
        .as_deref()
        .map(FaultPlan::parse)
        .transpose()
        .map_err(|e| CliError::usage(format!("--faults: {e}")))?;
    let mut rng = PortableRng::seed_from(args.seed);

    if args.retries > 1 && cmd != "test" {
        eprintln!("fewbins: warning: --retries only applies to `test`; ignored");
    }
    if (args.deadline_ms.is_some() || args.stage_deadline_ms.is_some()) && cmd != "test" {
        eprintln!(
            "fewbins: warning: --deadline-ms/--stage-deadline-ms only apply to `test`; ignored"
        );
    }

    match cmd.as_str() {
        "test" => {
            let (tracer, mut oracle) = ingest(&args)?;
            let n = oracle.n();
            let k = args.k.ok_or_else(|| CliError::usage("test requires --k"))?;
            let eps = args.eps.unwrap_or(0.25);
            validate_params(n, k, eps).map_err(CliError::from)?;
            let config = TesterConfig::practical().scaled(args.scale);
            let needed = estimate_budget(&config, n, k, eps);
            if oracle.recorded < needed {
                eprintln!(
                    "fewbins: warning: dataset has {} samples but the tester needs ~{needed}; \
                     {}",
                    oracle.recorded,
                    if args.no_resample {
                        "this run will fail when the data runs out — lower --scale or add data"
                    } else {
                        "bootstrap resampling will test the (noisy) empirical distribution \
                         instead — prefer more data"
                    }
                );
            }
            let mut runner =
                RobustRunner::new(HistogramTester::new(config)).with_retries(args.retries);
            if let Some(budget) = args.max_samples {
                runner = runner.with_budget(budget);
            }
            if let Some(ms) = args.deadline_ms {
                runner = runner.with_run_deadline_us(ms.saturating_mul(1_000));
            }
            if let Some(ms) = args.stage_deadline_ms {
                runner = runner.with_stage_deadline_us(ms.saturating_mul(1_000));
            }
            let outcome = with_stack(&mut oracle, tracer, &args.trace, &plan, |o| {
                runner.run(o, k, eps, &mut rng).map_err(CliError::from)
            })?;
            match outcome {
                Outcome::Conclusive(decision) => println!(
                    "{} (H_{k} at eps = {eps}; {} draws over [0..{n}))",
                    if decision.accepted() {
                        "ACCEPT"
                    } else {
                        "REJECT"
                    },
                    oracle.samples_drawn()
                ),
                Outcome::Inconclusive { reason, stage, .. } => {
                    let deadline = matches!(reason, InconclusiveReason::DeadlineExceeded { .. });
                    if !deadline && oracle.ran_dry() {
                        // The recorded data ran out, not a budget.
                        return Err(CliError {
                            code: 4,
                            msg: format!(
                                "dataset exhausted after {} draws; provide more samples, \
                                 lower --scale, or allow bootstrap resampling (drop \
                                 --no-resample)",
                                oracle.samples_drawn()
                            ),
                        });
                    }
                    let place = stage.map(|s| format!(" in stage {s}")).unwrap_or_default();
                    println!("INCONCLUSIVE{place}: {reason}");
                    return Err(CliError {
                        code: if deadline { 6 } else { 5 },
                        msg: format!("inconclusive{place}: {reason}"),
                    });
                }
            }
        }
        "select-k" => {
            let (tracer, mut oracle) = ingest(&args)?;
            let eps = args.eps.unwrap_or(0.25);
            let config = TesterConfig::practical().scaled(args.scale);
            let tester = HistogramTester::new(config);
            let sel = with_stack(&mut oracle, tracer, &args.trace, &plan, |o| {
                let mut capped = BudgetedOracle::new(o, args.max_samples.unwrap_or(u64::MAX));
                doubling_search(&tester, &mut capped, eps, args.max_k, 3, true, &mut rng)
                    .map_err(CliError::from)
            })?;
            match sel.selected_k {
                Some(k) => println!("selected k = {k} (decisions: {:?})", sel.trials),
                None => println!("no k <= {} accepted at eps = {eps}", args.max_k),
            }
        }
        "certify" => {
            if args.trace.is_some() {
                eprintln!("fewbins: warning: --trace is ignored by `certify` (no sampling)");
            }
            if plan.is_some() || args.max_samples.is_some() {
                eprintln!(
                    "fewbins: warning: --faults/--max-samples are ignored by `certify` \
                     (no sampling)"
                );
            }
            let k = args
                .k
                .ok_or_else(|| CliError::usage("certify requires --k"))?;
            let weights = read_weights(&args.file).map_err(CliError::input)?;
            let d = Distribution::from_weights(weights).map_err(CliError::from)?;
            let b = distance_to_hk_bounds(&d, k).map_err(CliError::from)?;
            println!(
                "d_TV(D, H_{k}) in [{:.6}, {:.6}]; witness has {} pieces",
                b.lower,
                b.upper,
                b.witness.minimal_pieces()
            );
            if b.upper < 1e-9 {
                println!("D IS a {k}-histogram (distance 0)");
            }
        }
        "sketch" => {
            let (tracer, mut oracle) = ingest(&args)?;
            let k = args
                .k
                .ok_or_else(|| CliError::usage("sketch requires --k"))?;
            let eps = args.eps.unwrap_or(0.1);
            let learner = AgnosticLearner::default();
            let sketch = with_stack(&mut oracle, tracer, &args.trace, &plan, |o| {
                let mut capped = BudgetedOracle::new(o, args.max_samples.unwrap_or(u64::MAX));
                learner
                    .learn(&mut capped, k, eps, &mut rng)
                    .map_err(CliError::from)
            })?;
            println!("# k-histogram sketch: start_index level");
            for (j, iv) in sketch.partition().intervals().iter().enumerate() {
                println!("{} {:.9}", iv.lo(), sketch.levels()[j]);
            }
        }
        "report" => {
            if args.files.is_empty() {
                return Err(CliError::usage(
                    "report requires at least one trace file (from a `--trace` run)",
                ));
            }
            let theory = match (args.n, args.k) {
                (Some(n), Some(k)) => Some(TheoryParams {
                    n,
                    k,
                    epsilon: args.eps.unwrap_or(0.25),
                }),
                _ => None,
            };
            let report = analyze_files(&args.files).map_err(CliError::input)?;
            if args.json {
                println!("{}", report.to_json(theory.as_ref()));
            } else {
                print!("{}", report.render_text(theory.as_ref()));
            }
        }
        other => {
            return Err(CliError::usage(format!(
                "unknown subcommand `{other}` \
                 (expected test | select-k | certify | sketch | report)"
            )))
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    // A panic would be an internal bug — every draw path returns a typed
    // error — so it is presented as a normal CLI error, not a backtrace;
    // it exits 1 where typed failures exit 2–6.
    std::panic::set_hook(Box::new(|info| {
        let msg = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| info.payload().downcast_ref::<&str>().copied())
            .unwrap_or("internal error");
        eprintln!("fewbins: {msg}");
    }));
    match std::panic::catch_unwind(run) {
        Ok(Ok(())) => ExitCode::SUCCESS,
        Ok(Err(e)) => {
            eprintln!("fewbins: {}", e.msg);
            ExitCode::from(e.code)
        }
        Err(_) => ExitCode::FAILURE,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use few_bins::sampling::oracle::SampleOracle;

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_full_flag_set() {
        let (cmd, args) = parse_args(&strs(&[
            "test",
            "--n",
            "100",
            "--k",
            "3",
            "--eps",
            "0.2",
            "--seed",
            "7",
            "--scale",
            "0.5",
            "--no-resample",
            "data.txt",
        ]))
        .unwrap();
        assert_eq!(cmd, "test");
        assert_eq!(args.n, Some(100));
        assert_eq!(args.k, Some(3));
        assert_eq!(args.eps, Some(0.2));
        assert_eq!(args.seed, 7);
        assert_eq!(args.scale, 0.5);
        assert!(args.no_resample);
        assert_eq!(args.file.as_deref(), Some("data.txt"));
    }

    #[test]
    fn parses_trace_flag() {
        let (_, args) = parse_args(&strs(&[
            "test",
            "--k",
            "2",
            "--trace",
            "out.jsonl",
            "d.txt",
        ]))
        .unwrap();
        assert_eq!(args.trace.as_deref(), Some("out.jsonl"));
        assert!(parse_args(&strs(&["test", "--trace"])).is_err());
    }

    #[test]
    fn parses_json_flag() {
        let (_, args) = parse_args(&strs(&["test", "--k", "2", "d.txt"])).unwrap();
        assert!(!args.json);
        let (cmd, args) = parse_args(&strs(&["report", "--json", "a.jsonl", "b.jsonl"])).unwrap();
        assert_eq!(cmd, "report");
        assert!(args.json);
        assert_eq!(
            args.files,
            vec!["a.jsonl".to_string(), "b.jsonl".to_string()]
        );
        assert_eq!(args.file.as_deref(), Some("a.jsonl"));
    }

    #[test]
    fn parses_resilience_flags() {
        let (_, args) = parse_args(&strs(&[
            "test",
            "--k",
            "2",
            "--faults",
            "eta=0.1,seed=3",
            "--max-samples",
            "5000",
            "--retries",
            "3",
            "d.txt",
        ]))
        .unwrap();
        assert_eq!(args.faults.as_deref(), Some("eta=0.1,seed=3"));
        assert_eq!(args.max_samples, Some(5000));
        assert_eq!(args.retries, 3);
        assert!(parse_args(&strs(&["test", "--retries", "0", "d.txt"])).is_err());
        assert!(parse_args(&strs(&["test", "--max-samples", "x", "d.txt"])).is_err());
    }

    #[test]
    fn parses_deadline_flags() {
        let (_, args) = parse_args(&strs(&[
            "test",
            "--k",
            "2",
            "--deadline-ms",
            "5000",
            "--stage-deadline-ms",
            "800",
            "d.txt",
        ]))
        .unwrap();
        assert_eq!(args.deadline_ms, Some(5000));
        assert_eq!(args.stage_deadline_ms, Some(800));
        assert!(parse_args(&strs(&["test", "--deadline-ms", "x", "d.txt"])).is_err());
        assert!(parse_args(&strs(&["test", "--stage-deadline-ms", "x", "d.txt"])).is_err());
    }

    #[test]
    fn defaults_apply() {
        let (_, args) = parse_args(&strs(&["certify", "pmf.txt"])).unwrap();
        assert_eq!(args.seed, 160);
        assert_eq!(args.max_k, 256);
        assert_eq!(args.scale, 1.0);
        assert_eq!(args.retries, 1);
        assert!(!args.no_resample);
        assert!(args.faults.is_none());
        assert!(args.max_samples.is_none());
    }

    #[test]
    fn rejects_bad_flags() {
        assert!(parse_args(&strs(&["test", "--bogus"])).is_err());
        assert!(parse_args(&strs(&["test", "--n"])).is_err());
        assert!(parse_args(&strs(&["test", "--scale", "-1", "f"])).is_err());
        assert!(parse_args(&strs(&[])).is_err());
    }

    #[test]
    fn replay_oracle_try_path_fails_gracefully() {
        let mut rng = PortableRng::seed_from(1);
        let mut o = ReplayOracle::new(vec![1, 1, 1], false);
        assert!(o.try_draw_counts(3, &mut rng).is_ok());
        let err = o.try_draw(&mut rng).unwrap_err();
        assert!(
            matches!(
                err,
                HistoError::OracleExhausted {
                    budget: 3,
                    drawn: 3
                }
            ),
            "{err:?}"
        );
        assert!(o.ran_dry());
    }

    #[test]
    fn replay_oracle_bootstrap_never_exhausts() {
        let mut rng = PortableRng::seed_from(1);
        let mut o = ReplayOracle::new(vec![0, 0, 1], true);
        for _ in 0..10 {
            assert_eq!(o.try_draw(&mut rng).unwrap(), 2);
        }
        assert_eq!(o.samples_drawn(), 10);
        assert!(!o.ran_dry());
    }

    /// Pearson's χ² of `tally` against `counts / N` over the cells with
    /// positive counts; panics if a zero-count cell was drawn.
    fn chi2(tally: &[u64], counts: &[u64]) -> f64 {
        let n: u64 = counts.iter().sum();
        let m: u64 = tally.iter().sum();
        tally
            .iter()
            .zip(counts)
            .map(|(&t, &c)| {
                assert!(c > 0 || t == 0, "drew an element with no samples");
                if c == 0 {
                    return 0.0;
                }
                let e = m as f64 * c as f64 / n as f64;
                (t as f64 - e).powi(2) / e
            })
            .sum()
    }

    /// χ² with 5 degrees of freedom (six positive cells, below) exceeds 30
    /// with probability 1.5e-5, and with 1 degree of freedom exceeds 19
    /// with probability 1.3e-5.
    const CHI2_5DF_CUTOFF: f64 = 30.0;
    const CHI2_1DF_CUTOFF: f64 = 19.0;
    const SKEWED: [u64; 7] = [5, 0, 17, 3, 75, 1, 9];

    #[test]
    fn bootstrap_draws_follow_the_counts() {
        let mut rng = PortableRng::seed_from(11);
        let mut o = ReplayOracle::new(SKEWED.to_vec(), true);
        let tally = o.try_draw_counts(200_000, &mut rng).unwrap();
        let stat = chi2(tally.counts(), &SKEWED);
        assert!(stat < CHI2_5DF_CUTOFF, "chi2 = {stat}");
    }

    #[test]
    fn no_resample_drains_exactly_the_recorded_counts() {
        let total: u64 = SKEWED.iter().sum();
        let mut rng = PortableRng::seed_from(12);
        let mut o = ReplayOracle::new(SKEWED.to_vec(), false);
        let tally = o.try_draw_counts(total, &mut rng).unwrap();
        assert_eq!(tally.counts(), SKEWED);
        let err = o.try_draw(&mut rng).unwrap_err();
        assert!(
            matches!(err, HistoError::OracleExhausted { budget, drawn } if budget == total && drawn == total),
            "{err:?}"
        );
    }

    #[test]
    fn no_resample_late_draws_are_still_proportional_to_the_counts() {
        // Shuffle-then-consume gives every position the marginal
        // counts / N. One heavy element and fifty singletons: without the
        // thinning step the singletons would fade out as they are drawn.
        // Draw 50 comes before the first table rebuild, draw 150 after two.
        let counts: Vec<u64> = std::iter::once(150)
            .chain(std::iter::repeat(1).take(50))
            .collect();
        let mut rng = PortableRng::seed_from(13);
        let trials = 20_000;
        for position in [50, 150] {
            let mut heavy = 0;
            for _ in 0..trials {
                let mut o = ReplayOracle::new(counts.clone(), false);
                o.try_draw_counts(position, &mut rng).unwrap();
                heavy += u64::from(o.try_draw(&mut rng).unwrap() == 0);
            }
            let stat = chi2(&[heavy, trials - heavy], &[150, 50]);
            assert!(stat < CHI2_1DF_CUTOFF, "draw {position}: chi2 = {stat}");
        }
    }

    #[test]
    fn alias_table_is_exact() {
        // Each element's probability, summed over the columns that can
        // yield it, is weights[i] / total exactly (in units of
        // 1 / (n · total)).
        for weights in [
            vec![5, 0, 17, 3, 75, 1, 9],
            vec![1],
            vec![0, 4],
            vec![3, 3, 3],
        ] {
            let t = CountAlias::new(weights.clone());
            let n = weights.len() as u64;
            let mut units = vec![0u64; weights.len()];
            for c in 0..weights.len() {
                units[c] += t.cut[c];
                units[t.alias[c]] += t.total - t.cut[c];
            }
            let want: Vec<u64> = weights.iter().map(|&w| w * n).collect();
            assert_eq!(units, want, "{weights:?}");
        }
    }

    /// The ingestion path this file used to have, kept as the reference:
    /// the whole input as UTF-8, `split_whitespace`, `parse::<usize>`,
    /// then the domain check.
    fn reference_tally(input: &[u8], n: Option<usize>) -> Result<Vec<u64>, String> {
        let text = std::str::from_utf8(input).map_err(|e| format!("reading: {e}"))?;
        let samples: Vec<usize> = text
            .split_whitespace()
            .map(|t| t.parse::<usize>().map_err(|e| format!("sample `{t}`: {e}")))
            .collect::<Result<_, _>>()?;
        if samples.is_empty() {
            return Err("no samples provided".into());
        }
        // `wrapping_add`, as the release build ran it: a sample of `usize::MAX`
        // made the domain empty, so every sample exceeded it.
        let n = n.unwrap_or_else(|| samples.iter().max().copied().unwrap_or(0).wrapping_add(1));
        if samples.iter().any(|&s| s >= n) {
            return Err(format!("a sample exceeds the domain 0..{n}"));
        }
        let mut counts = vec![0u64; n];
        for s in samples {
            counts[s] += 1;
        }
        Ok(counts)
    }

    #[test]
    fn tokenizer_agrees_with_the_reference_parser() {
        let corpus: [&[u8]; 16] = [
            b"0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16",
            b"12345 6789 12345\n6789",
            b"+7 3 +0",
            b"1 18446744073709551616 2",
            b"4 -1 5",
            b"1\t2\r\n3\x0b4\x0c5\n",
            b"3 1 4 1 5 9 2 6",
            b"",
            b" \t\r\n ",
            b"1 2 \xff 3",
            b"1 2\xc3",
            b"00017 17 0",
            b"1 oops 2",
            b"7",
            b"1 2 3 99",
            b"018446744073709551615",
        ];
        for input in corpus {
            for n in [None, Some(20)] {
                let want = reference_tally(input, n);
                // Chunks of 1, 2, 3 and 5 bytes cut tokens at every
                // possible place; CHUNK reads the input in one piece.
                for chunk in [1, 2, 3, 5, CHUNK] {
                    let got = tally_samples(&mut &input[..], "test", chunk, n);
                    match (&want, &got) {
                        (Ok(w), Ok(g)) => assert_eq!(w, g, "{input:?} n={n:?} chunk={chunk}"),
                        (Err(_), Err(_)) => {}
                        _ => panic!("{input:?} n={n:?} chunk={chunk}: {want:?} vs {got:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn parse_errors_quote_the_token() {
        let err = tally_samples(&mut &b"0 1 oops 2"[..], "test", CHUNK, None).unwrap_err();
        assert_eq!(err, "sample `oops`: invalid digit found in string");
        // A non-ASCII space does not separate tokens.
        let err = tally_samples(&mut "1\u{a0}2".as_bytes(), "test", CHUNK, None).unwrap_err();
        assert!(err.starts_with("sample `1\u{a0}2`"), "{err}");
    }

    #[test]
    fn budget_estimate_is_sane() {
        let c = TesterConfig::practical();
        let small = estimate_budget(&c, 500, 2, 0.3);
        let large_n = estimate_budget(&c, 8_000, 2, 0.3);
        let large_k = estimate_budget(&c, 500, 8, 0.3);
        assert!(small > 10_000);
        assert!(large_n > small);
        assert!(large_k > small);
    }
}
