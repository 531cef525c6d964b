#!/usr/bin/env python3
"""Validates a histo-trace JSONL file (the fewbins `--trace` output).

Checks, per trace file:
  1. every line is a JSON object with a known "ev" kind and exactly the
     keys of that kind (SCHEMA): a missing or unknown key fails, so a
     field deleted from the tracer cannot come back unnoticed;
  2. enter/exit spans are balanced, properly nested, and depth-consistent
     (exit stage matches the matching enter, depths agree with the stack);
  3. seq numbers of enter/exit/counter events are strictly increasing;
  4. the ledger footer is present, its per-stage rows equal the sum of
     exit samples per stage, and stage totals + unattributed equal the
     grand total — the ScopedOracle ledger invariant, re-verified from
     the serialized stream alone;
  5. if fault-injection counters (`fault_*`, emitted by the histo-faults
     layer) appear, the whole family must be present, `fault_events_total`
     must equal the sum of the five per-kind counters, and
     `fault_returned_draws` must reconcile with the ledger total
     (returned = consumed - dropped + duplicated);
  6. if timing fields appear (`t_us` on enter/exit, `elapsed_us` on
     exit), `t_us` must be monotone non-decreasing across the stream,
     every timed exit's `elapsed_us` must equal the delta to its
     matching enter's `t_us`, and timing must be all-or-nothing per
     span (a timed exit requires a timed enter and vice versa).

Usage: scripts/check_trace.py trace.jsonl [more.jsonl ...]
Exits non-zero on the first malformed file (after printing all findings).
"""
import json
import sys

# Per event kind: (required keys, optional keys). The optional keys are
# the timing fields, absent in timing-free mode, and a counter's stage,
# absent at top level.
SCHEMA = {
    "enter": ({"ev", "seq", "stage", "depth"}, {"t_us"}),
    "exit": ({"ev", "seq", "stage", "depth", "samples"}, {"elapsed_us", "t_us"}),
    "counter": ({"ev", "seq", "name", "value"}, {"stage"}),
    "ledger": ({"ev", "stage", "samples"}, set()),
    "ledger_total": ({"ev", "samples", "unattributed"}, set()),
}


FAULT_KINDS = [
    "fault_events_contaminated",
    "fault_events_duplicated",
    "fault_events_dropped",
    "fault_events_stalled",
    "fault_events_budget_hits",
]
FAULT_FAMILY = FAULT_KINDS + ["fault_events_total", "fault_returned_draws"]


def check(path):
    errors = []
    stack = []  # (stage name, enter t_us or None) of open spans
    exit_samples = {}  # stage -> summed exclusive exit samples
    counters = {}  # counter name -> last value
    ledger_rows = {}
    ledger_total = None
    last_seq = -1
    last_t = None  # last t_us seen (monotonicity)
    timed_spans = 0
    events = 0
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                ev = json.loads(line)
            except json.JSONDecodeError as e:
                errors.append(f"line {lineno}: not JSON ({e})")
                continue
            kind = ev.get("ev") if isinstance(ev, dict) else None
            if kind not in SCHEMA:
                errors.append(f"line {lineno}: unknown ev {kind!r}")
                continue
            required, optional = SCHEMA[kind]
            missing = sorted(required - ev.keys())
            unknown = sorted(ev.keys() - required - optional)
            if missing or unknown:
                errors.append(
                    f"line {lineno}: {kind} event missing keys {missing}, "
                    f"unknown keys {unknown}"
                )
            if missing:
                continue
            events += 1
            if "seq" in ev:
                if ev["seq"] <= last_seq:
                    errors.append(f"line {lineno}: seq {ev['seq']} not increasing")
                last_seq = ev["seq"]
            t = ev.get("t_us")
            if t is not None:
                if not isinstance(t, int) or t < 0:
                    errors.append(f"line {lineno}: t_us {t!r} is not a non-negative int")
                elif last_t is not None and t < last_t:
                    errors.append(f"line {lineno}: t_us went backwards ({t} < {last_t})")
                else:
                    last_t = t
            if kind == "enter":
                if ev["depth"] != len(stack):
                    errors.append(f"line {lineno}: enter depth {ev['depth']} != stack {len(stack)}")
                stack.append((ev["stage"], t))
            elif kind == "exit":
                if not stack:
                    errors.append(f"line {lineno}: exit with no open span")
                    continue
                opened, enter_t = stack.pop()
                if ev["stage"] != opened:
                    errors.append(f"line {lineno}: exit {ev['stage']!r} closes {opened!r}")
                if ev["depth"] != len(stack):
                    errors.append(f"line {lineno}: exit depth {ev['depth']} != stack {len(stack)}")
                exit_samples[ev["stage"]] = exit_samples.get(ev["stage"], 0) + ev["samples"]
                elapsed = ev.get("elapsed_us")
                if (elapsed is None) != (enter_t is None) or (t is None) != (enter_t is None):
                    errors.append(
                        f"line {lineno}: timing must be all-or-nothing per span "
                        f"(enter t_us {enter_t!r}, exit t_us {t!r}, elapsed_us {elapsed!r})"
                    )
                elif elapsed is not None:
                    timed_spans += 1
                    if t - enter_t != elapsed:
                        errors.append(
                            f"line {lineno}: elapsed_us {elapsed} != t_us delta "
                            f"{t} - {enter_t} = {t - enter_t}"
                        )
            elif kind == "counter":
                counters[ev["name"]] = ev["value"]
            elif kind == "ledger":
                ledger_rows[ev["stage"]] = ev["samples"]
            elif kind == "ledger_total":
                ledger_total = (ev["samples"], ev["unattributed"])
    if stack:
        errors.append(f"{len(stack)} span(s) never exited: {[s for s, _ in stack]}")
    if ledger_total is None:
        errors.append("no ledger_total footer (trace truncated?)")
    else:
        total, unattributed = ledger_total
        if sum(ledger_rows.values()) + unattributed != total:
            errors.append(
                f"ledger rows {sum(ledger_rows.values())} + unattributed {unattributed} != total {total}"
            )
        # Exit samples are exclusive (children charge their own spans), so
        # summing them per stage must reproduce the ledger rows exactly.
        # Stages that drew nothing (e.g. the offline `check`) have exits
        # but no ledger row.
        nonzero_exits = {s: n for s, n in exit_samples.items() if n > 0}
        if nonzero_exits != ledger_rows:
            errors.append(f"exit-sample sums {nonzero_exits} != ledger rows {ledger_rows}")
        if sum(exit_samples.values()) + unattributed != total:
            errors.append("sum of exit samples + unattributed != ledger total")
    fault = {k: v for k, v in counters.items() if k.startswith("fault_")}
    if fault:
        missing = [k for k in FAULT_FAMILY if k not in fault]
        unknown = [k for k in fault if k not in FAULT_FAMILY]
        if missing:
            errors.append(f"fault counter family incomplete, missing {missing}")
        if unknown:
            errors.append(f"unknown fault counters {unknown}")
        if not missing:
            kinds_sum = sum(fault[k] for k in FAULT_KINDS)
            if fault["fault_events_total"] != kinds_sum:
                errors.append(
                    f"fault_events_total {fault['fault_events_total']} != "
                    f"sum of kinds {kinds_sum}"
                )
            if ledger_total is not None:
                total, _ = ledger_total
                expect = (
                    total
                    - fault["fault_events_dropped"]
                    + fault["fault_events_duplicated"]
                )
                if fault["fault_returned_draws"] != expect:
                    errors.append(
                        f"fault_returned_draws {fault['fault_returned_draws']} != "
                        f"ledger total {total} - dropped + duplicated = {expect}"
                    )
    for e in errors:
        print(f"BAD {path}: {e}")
    if not errors:
        total = ledger_total[0]
        print(
            f"ok {path}: {events} events, {len(ledger_rows)} stage(s), "
            f"{total} samples attributed, {timed_spans} timed span(s)"
        )
    return not errors


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    sys.exit(0 if all([check(p) for p in sys.argv[1:]]) else 1)
