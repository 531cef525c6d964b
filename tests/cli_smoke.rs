//! End-to-end smoke tests for the `fewbins` binary: every exit code in
//! the documented scheme (`0` ok, `2` usage, `3` bad input, `4` samples
//! exhausted, `5` inconclusive, `6` deadline exceeded; `1` is reserved
//! for internal panics) is reachable from a typed failure, distinct, and
//! paired with a useful message — and runner flags that never fire leave
//! the output byte-identical.

use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

fn fewbins(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fewbins"))
        .args(args)
        .output()
        .expect("failed to spawn fewbins")
}

/// Like [`fewbins`], but with timing stripped from trace output, so two
/// runs of the same logical stream are byte-comparable.
fn fewbins_notiming(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fewbins"))
        .args(args)
        .env("FEWBINS_TRACE_NO_TIMING", "1")
        .output()
        .expect("failed to spawn fewbins")
}

/// Like [`fewbins`], with `input` on stdin.
fn fewbins_stdin(args: &[&str], input: &[u8]) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_fewbins"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("failed to spawn fewbins");
    child
        .stdin
        .take()
        .expect("stdin is piped")
        .write_all(input)
        .expect("writing stdin");
    child.wait_with_output().expect("waiting for fewbins")
}

fn code(out: &Output) -> i32 {
    out.status.code().expect("fewbins was killed by a signal")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Writes a unique temp file for one test; `name` keeps concurrent tests
/// from colliding.
fn write_tmp(name: &str, contents: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("fewbins_smoke_{}_{name}.txt", std::process::id()));
    std::fs::write(&p, contents).unwrap();
    p
}

/// A dataset of 60 samples spread over [0..30).
fn dataset(name: &str) -> PathBuf {
    let samples: Vec<String> = (0..60).map(|i| (i % 30).to_string()).collect();
    write_tmp(name, &samples.join(" "))
}

#[test]
fn help_exits_zero_and_documents_exit_codes() {
    let out = fewbins(&["--help"]);
    assert_eq!(code(&out), 0);
    let usage = stderr(&out);
    assert!(usage.contains("exit codes"), "{usage}");
    assert!(usage.contains("--faults"), "{usage}");
}

#[test]
fn usage_errors_exit_two() {
    let data = dataset("usage");
    let data = data.to_str().unwrap();
    for argv in [
        vec!["frobnicate"],
        vec!["test", data],                        // missing --k
        vec!["test", "--k", "2", "--bogus", data], // unknown flag
        vec!["test", "--k", "2", "--retries", "0", data],
        vec!["test", "--k", "2", "--faults", "bogus=1", data],
        vec!["test", "--k", "2", "--max-samples", "many", data],
        // Retired flags and fault arms are unknown, not internal errors.
        vec!["test", "--k", "2", "--checkpoint", "x", data],
        vec!["test", "--k", "2", "--resume", data],
        vec!["report", "--stitch", data],
        vec!["test", "--k", "2", "--faults", "crash=5", data],
        vec!["test", "--k", "2", "--metrics", "x", data],
    ] {
        let out = fewbins(&argv);
        assert_eq!(code(&out), 2, "argv {argv:?}: {}", stderr(&out));
        assert!(stderr(&out).contains("fewbins:"), "argv {argv:?}");
    }
}

#[test]
fn input_errors_exit_three() {
    let bad = write_tmp("badtok", "0 1 oops 2");
    let out = fewbins(&["test", "--k", "2", bad.to_str().unwrap()]);
    assert_eq!(code(&out), 3, "{}", stderr(&out));
    assert!(stderr(&out).contains("oops"), "{}", stderr(&out));

    let out = fewbins(&["test", "--k", "2", "/nonexistent/fewbins_smoke.txt"]);
    assert_eq!(code(&out), 3, "{}", stderr(&out));

    let big = write_tmp("domain", "0 1 99");
    let out = fewbins(&["test", "--n", "10", "--k", "2", big.to_str().unwrap()]);
    assert_eq!(code(&out), 3, "{}", stderr(&out));

    // A domain too large to tally is bad input, not an abort (the largest
    // sample sets it) or a caught panic (`--n` sets it).
    let out = fewbins_stdin(&["test", "--k", "2", "-"], b"0 1 2 99999999999999");
    assert_eq!(code(&out), 3, "{}", stderr(&out));
    assert!(
        stderr(&out).contains("domain 0..=99999999999999"),
        "{}",
        stderr(&out)
    );
    assert!(stderr(&out).contains("--n"), "{}", stderr(&out));
    let n_max = u64::MAX.to_string();
    let data = dataset("huge_n");
    let out = fewbins(&["test", "--n", &n_max, "--k", "2", data.to_str().unwrap()]);
    assert_eq!(code(&out), 3, "{}", stderr(&out));
    assert!(
        stderr(&out).contains(&format!("--n {n_max}: cannot tally the domain 0..{n_max}")),
        "{}",
        stderr(&out)
    );

    // Bad (k, eps) is refused before the budget estimate, so no warning
    // quotes a budget computed from eps = 0.
    let data = dataset("badeps");
    let out = fewbins(&["test", "--k", "1", "--eps", "0", data.to_str().unwrap()]);
    assert_eq!(code(&out), 3, "{}", stderr(&out));
    assert!(stderr(&out).contains("epsilon"), "{}", stderr(&out));
    assert!(!stderr(&out).contains("warning"), "{}", stderr(&out));
}

/// A trace that cannot be written fails the run with exit 3 instead of
/// reporting "trace written" over a lost file.
#[cfg(target_os = "linux")]
#[test]
fn unwritable_trace_exits_three() {
    let data = dataset("devfull");
    let data = data.to_str().unwrap();
    for cmd in ["test", "select-k", "sketch"] {
        let argv = ["--n", "30", "--k", "2", "--trace", "/dev/full", data];
        let out = fewbins(&[&[cmd][..], &argv[..]].concat());
        assert_eq!(code(&out), 3, "{cmd}: {}", stderr(&out));
        assert!(
            stderr(&out).contains("fewbins: writing /dev/full: "),
            "{cmd}: {}",
            stderr(&out)
        );
        assert!(!stderr(&out).contains("trace written"), "{cmd}");
        assert!(stdout(&out).is_empty(), "{cmd}: {}", stdout(&out));
    }
}

#[test]
fn exhausted_dataset_exits_four() {
    // 60 samples against a budget of hundreds of thousands: the
    // no-resample replay oracle runs dry mid-pipeline and the typed
    // exhaustion error must surface as exit 4, not a panic (exit 1), on
    // every sampling subcommand.
    let data = dataset("exhaust");
    let data = data.to_str().unwrap();
    for argv in [
        ["test", "--n", "30", "--k", "2", "--no-resample", data].as_slice(),
        &["sketch", "--n", "30", "--k", "2", "--no-resample", data],
        &["select-k", "--n", "30", "--no-resample", data],
    ] {
        let out = fewbins(argv);
        assert_eq!(code(&out), 4, "{argv:?}: {}", stderr(&out));
        assert!(
            stderr(&out).contains("exhausted"),
            "{argv:?}: {}",
            stderr(&out)
        );
    }
}

#[test]
fn starved_budget_exits_five_and_reports_inconclusive() {
    // --max-samples far below the Theorem 1.1 requirement: the resilient
    // runner must come back INCONCLUSIVE (stdout) with exit code 5.
    let data = dataset("starved");
    let out = fewbins(&[
        "test",
        "--n",
        "30",
        "--k",
        "2",
        "--max-samples",
        "40",
        data.to_str().unwrap(),
    ]);
    assert_eq!(code(&out), 5, "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("INCONCLUSIVE"), "{text}");
    assert!(text.contains("approx_part"), "{text}");
}

#[test]
fn faulty_traced_run_emits_trace_and_fault_summary() {
    // All resilience layers at once: faults + budget + tracing. Still
    // exit 5 (inconclusive), with the fault summary on stderr and a
    // non-empty JSONL trace on disk.
    let data = dataset("faulty");
    let trace =
        std::env::temp_dir().join(format!("fewbins_smoke_{}_trace.jsonl", std::process::id()));
    let out = fewbins(&[
        "test",
        "--n",
        "30",
        "--k",
        "2",
        "--faults",
        "eta=0.5,adv=point:0,seed=1",
        "--max-samples",
        "40",
        "--trace",
        trace.to_str().unwrap(),
        data.to_str().unwrap(),
    ]);
    assert_eq!(code(&out), 5, "{}", stderr(&out));
    assert!(stderr(&out).contains("faults injected"), "{}", stderr(&out));
    let trace_bytes = std::fs::read(&trace).expect("trace file written");
    assert!(!trace_bytes.is_empty());
}

/// The unsigned integer after the first `"key":` in `json`.
fn json_u64(json: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\":");
    let at = json
        .find(&pat)
        .unwrap_or_else(|| panic!("no {key} in {json}"))
        + pat.len();
    let digits: String = json[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits
        .parse()
        .unwrap_or_else(|e| panic!("{key} in {json}: {e}"))
}

/// Every `"key":N` value in `json`, in order.
fn json_u64_all(json: &str, key: &str) -> Vec<u64> {
    let pat = format!("\"{key}\":");
    json.match_indices(&pat)
        .map(|(at, _)| json_u64(&json[at..], key))
        .collect()
}

/// The body of the `"faults":{...}` object of a `report --json` line.
fn faults_object(json: &str) -> &str {
    let at = json.find("\"faults\":{").expect("faults object") + "\"faults\":{".len();
    let end = json[at..].find('}').expect("faults object closes");
    &json[at..at + end]
}

#[test]
fn traced_run_reports_wall_time() {
    // A clean traced run: the stderr ledger summary must carry per-stage
    // wall time next to the sample counts, and `report --json` over the
    // same trace must reproduce the ledger and split the wall time.
    let data = dataset("walltime");
    let trace = std::env::temp_dir().join(format!(
        "fewbins_smoke_{}_wall_trace.jsonl",
        std::process::id()
    ));
    let trace = trace.to_str().unwrap();
    let out = fewbins(&[
        "test",
        "--n",
        "30",
        "--k",
        "2",
        "--trace",
        trace,
        data.to_str().unwrap(),
    ]);
    assert_eq!(code(&out), 0, "{}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("samples and wall time by stage"), "{err}");
    assert!(
        err.contains(" us\n"),
        "per-stage wall column missing: {err}"
    );
    assert!(err.contains("us wall)"), "root wall footer missing: {err}");
    let draws: u64 = stdout(&out)
        .split(';')
        .nth(1)
        .and_then(|s| s.split_whitespace().next())
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no draw count in {}", stdout(&out)));

    // Ingestion is traced as its own top-level span, and draws nothing.
    let ingest = std::fs::read_to_string(trace)
        .unwrap()
        .lines()
        .find(|l| l.contains("\"ev\":\"exit\"") && l.contains("\"stage\":\"ingest\""))
        .map(str::to_string)
        .expect("an ingest span");
    assert!(ingest.contains("\"depth\":0,\"samples\":0,"), "{ingest}");

    let out = fewbins(&["report", "--json", trace]);
    assert_eq!(code(&out), 0, "{}", stderr(&out));
    let json = stdout(&out);
    assert!(
        json.contains("{\"stage\":\"ingest\",\"samples\":0,"),
        "{json}"
    );
    assert_eq!(json_u64(&json, "total_samples"), draws, "{json}");
    let stage_samples: u64 = json_u64_all(&json, "samples").iter().sum();
    assert_eq!(
        stage_samples + json_u64(&json, "unattributed"),
        draws,
        "{json}"
    );
    // Exclusive stage wall times telescope to the root wall time.
    let wall: u64 = json_u64_all(&json, "wall_us").iter().sum();
    assert_eq!(wall, json_u64(&json, "root_us"), "{json}");
    assert_eq!(
        faults_object(&json),
        "",
        "a clean run injects no faults: {json}"
    );
}

#[test]
fn report_faults_match_the_trace_counters() {
    // The chaos fixture's shape: a budget-capped faulty run exits 5 and
    // leaves a trace whose `fault_*` counters `report --json` must sum
    // verbatim, reconciling with the ledger as `report` audits:
    // returned = total - dropped + duplicated.
    let samples: Vec<String> = (0..5000u64).map(|i| (i * 7919 % 60).to_string()).collect();
    let data = write_tmp("chaos", &samples.join(" "));
    let trace = std::env::temp_dir().join(format!(
        "fewbins_smoke_{}_chaos_trace.jsonl",
        std::process::id()
    ));
    let trace = trace.to_str().unwrap();
    let out = fewbins(&[
        "test",
        "--n",
        "60",
        "--k",
        "2",
        "--seed",
        "7",
        "--faults",
        "eta=0.3,adv=point:0,dup=0.02,drop=0.02,budget=50000,seed=1",
        "--trace",
        trace,
        data.to_str().unwrap(),
    ]);
    assert_eq!(code(&out), 5, "{}", stderr(&out));

    let mut counters: Vec<String> = Vec::new();
    for line in std::fs::read_to_string(trace).unwrap().lines() {
        if line.contains("\"ev\":\"counter\"") && line.contains("\"name\":\"fault_") {
            let name = line.split("\"name\":\"").nth(1).unwrap();
            let name = &name[..name.find('"').unwrap()];
            counters.push(format!("\"{name}\":{}", json_u64(line, "value")));
        }
    }
    assert_eq!(counters.len(), 7, "the whole fault family is traced");

    let out = fewbins(&["report", "--json", trace]);
    assert_eq!(code(&out), 0, "{}", stderr(&out));
    let json = stdout(&out);
    let faults = faults_object(&json);
    assert_eq!(faults, counters.join(","), "{json}");
    assert!(json_u64(faults, "fault_events_total") > 0, "{json}");
    assert_eq!(
        json_u64(faults, "fault_returned_draws") + json_u64(faults, "fault_events_dropped"),
        json_u64(&json, "total_samples") + json_u64(faults, "fault_events_duplicated"),
        "{json}"
    );

    let out = fewbins(&["report", trace]);
    assert_eq!(code(&out), 0, "{}", stderr(&out));
    assert!(stdout(&out).contains("injected faults"), "{}", stdout(&out));
}

#[test]
fn report_subcommand_summarizes_a_trace() {
    // `fewbins report` must round-trip a trace produced by `--trace`:
    // human table by default, one JSON object with `--json`, and the
    // theory columns only when (n, k) are supplied.
    let data = dataset("report");
    let trace = std::env::temp_dir().join(format!(
        "fewbins_smoke_{}_report_trace.jsonl",
        std::process::id()
    ));
    let out = fewbins(&[
        "test",
        "--n",
        "30",
        "--k",
        "2",
        "--trace",
        trace.to_str().unwrap(),
        data.to_str().unwrap(),
    ]);
    assert_eq!(code(&out), 0, "{}", stderr(&out));

    let out = fewbins(&["report", trace.to_str().unwrap()]);
    assert_eq!(code(&out), 0, "{}", stderr(&out));
    let table = stdout(&out);
    assert!(table.contains("fewbins report"), "{table}");
    assert!(table.contains("wall_us"), "{table}");
    assert!(table.contains("(total)"), "{table}");

    let out = fewbins(&[
        "report",
        "--json",
        "--n",
        "30",
        "--k",
        "2",
        "--eps",
        "0.3",
        trace.to_str().unwrap(),
    ]);
    assert_eq!(code(&out), 0, "{}", stderr(&out));
    let json = stdout(&out);
    assert!(json.contains("\"total_samples\":"), "{json}");
    assert!(json.contains("\"stages\":["), "{json}");
    assert!(json.contains("\"theory_term\":"), "{json}");

    // No trace files is a usage error; a malformed trace is bad input.
    assert_eq!(code(&fewbins(&["report"])), 2);
    let garbage = write_tmp("report_garbage", "not json\n");
    let out = fewbins(&["report", garbage.to_str().unwrap()]);
    assert_eq!(code(&out), 3, "{}", stderr(&out));
}

#[test]
fn report_rejects_a_key_outside_the_schema() {
    // A real trace whose first `exit` carries a key the writer does not
    // emit is malformed: `report` must fail it in both forms, not skip it.
    let data = dataset("schema");
    let trace = std::env::temp_dir().join(format!(
        "fewbins_smoke_{}_schema_trace.jsonl",
        std::process::id()
    ));
    let trace = trace.to_str().unwrap();
    let out = fewbins(&[
        "test",
        "--n",
        "30",
        "--k",
        "2",
        "--trace",
        trace,
        data.to_str().unwrap(),
    ]);
    assert_eq!(code(&out), 0, "{}", stderr(&out));
    assert_eq!(code(&fewbins(&["report", trace])), 0);

    let text = std::fs::read_to_string(trace).unwrap();
    let exit = text.find("{\"ev\":\"exit\"").expect("an exit event");
    let end = exit + text[exit..].find('}').unwrap();
    let doctored = format!("{},\"alloc_count\":3{}", &text[..end], &text[end..]);
    let doctored = write_tmp("schema_doctored", &doctored);
    for json in [false, true] {
        let mut args = vec!["report", doctored.to_str().unwrap()];
        if json {
            args.insert(1, "--json");
        }
        let out = fewbins(&args);
        assert_eq!(code(&out), 3, "{}", stdout(&out));
        assert!(stdout(&out).is_empty(), "{}", stdout(&out));
        assert!(
            stderr(&out).contains("exit event has unknown key 'alloc_count'"),
            "{}",
            stderr(&out)
        );
    }
}

#[test]
fn deadline_zero_exits_six_and_reports_deadline_exceeded() {
    // A whole-run deadline of 0 ms must trip on the first supervised
    // draw: structured INCONCLUSIVE on stdout, dedicated exit code 6.
    let data = dataset("deadline");
    let out = fewbins(&[
        "test",
        "--n",
        "30",
        "--k",
        "2",
        "--deadline-ms",
        "0",
        data.to_str().unwrap(),
    ]);
    assert_eq!(code(&out), 6, "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("INCONCLUSIVE"), "{text}");
    assert!(text.contains("deadline exceeded"), "{text}");
}

#[test]
fn flags_that_never_fire_are_bit_transparent() {
    // Every option is off by default; switching one on without it ever
    // firing must not move a single draw. Each subcommand's stdout (the
    // decision line carries the decision and the draw count) must be
    // byte-identical to its plain run's, every traced variant must write
    // the same timing-free trace bytes, and no fault layer may appear.
    let data = dataset("transparent");
    let data = data.to_str().unwrap();
    let tmp = std::env::temp_dir();
    let pid = std::process::id();
    // (tag, extra flags) for one variant of a plain run.
    type Variant<'a> = (&'a str, &'a [&'a str]);
    let shared: [Variant; 3] = [
        ("trace", &[]),
        ("max_samples", &["--max-samples", "18446744073709551615"]),
        ("faults_none", &["--faults", "none"]),
    ];
    let runner_only: [Variant; 3] = [
        ("deadline", &["--deadline-ms", "100000000"]),
        ("stage_deadline", &["--stage-deadline-ms", "100000000"]),
        ("retries_1", &["--retries", "1"]),
    ];
    let subcommands: [(&str, &[&str], &[Variant]); 3] = [
        (
            "test",
            &["test", "--n", "30", "--k", "2", "--seed", "5", data],
            &runner_only,
        ),
        (
            "sketch",
            &[
                "sketch", "--n", "30", "--k", "2", "--eps", "0.3", "--seed", "5", data,
            ],
            &[],
        ),
        (
            "select_k",
            &["select-k", "--n", "30", "--seed", "5", data],
            &[],
        ),
    ];
    for (sub, plain, extra) in subcommands {
        let base = fewbins_notiming(plain);
        assert_eq!(code(&base), 0, "{plain:?}: {}", stderr(&base));
        let line = stdout(&base);
        assert!(!line.is_empty(), "{plain:?} printed nothing");
        if sub == "test" {
            assert!(line.contains(" draws over "), "{line}");
        }
        let mut trace_bytes: Option<Vec<u8>> = None;
        for &(tag, flags) in shared.iter().chain(extra) {
            let trace = tmp.join(format!("fewbins_smoke_{pid}_transparent_{sub}_{tag}.jsonl"));
            let untraced: Vec<&str> = plain.iter().chain(flags).copied().collect();
            let traced: Vec<&str> = untraced
                .iter()
                .chain(&["--trace", trace.to_str().unwrap()])
                .copied()
                .collect();
            for argv in [&untraced, &traced] {
                let out = fewbins_notiming(argv);
                assert_eq!(code(&out), 0, "{argv:?}: {}", stderr(&out));
                assert_eq!(stdout(&out), line, "{argv:?}");
                assert!(
                    !stderr(&out).contains("faults injected"),
                    "{argv:?}: {}",
                    stderr(&out)
                );
            }
            let bytes = std::fs::read(&trace).expect("trace file written");
            let reference = trace_bytes.get_or_insert_with(|| bytes.clone());
            assert!(
                bytes == *reference,
                "trace of {sub} `{tag}` differs from the plain trace"
            );
        }
    }
}

#[test]
fn sketch_happy_path_exits_zero() {
    let data = dataset("sketch");
    let out = fewbins(&[
        "sketch",
        "--n",
        "30",
        "--k",
        "2",
        "--eps",
        "0.3",
        data.to_str().unwrap(),
    ]);
    assert_eq!(code(&out), 0, "{}", stderr(&out));
    assert!(stdout(&out).contains("sketch"), "{}", stdout(&out));
}

#[test]
fn certify_happy_path_exits_zero() {
    let pmf = write_tmp("pmf", "1 1 1 1 1 1 1 1");
    let out = fewbins(&["certify", "--k", "1", pmf.to_str().unwrap()]);
    assert_eq!(code(&out), 0, "{}", stderr(&out));
    assert!(stdout(&out).contains("d_TV"), "{}", stdout(&out));
}
