#!/usr/bin/env python3
"""Span-trace report tool for the dmst observability subsystem (obs/).

Reads a Chrome-trace JSON file (Perfetto-loadable) written by
`scenario_runner --trace=PATH` or any caller of obs/export.h: spans are
"X" events, phase names come from thread_name metadata, and the
"dmst_totals" instant event carries the RunStats totals.

Modes:

  trace_report.py FILE                 per-phase summary table
  trace_report.py FILE --check        verify conservation: span sums must
                                      equal the recorded totals (exit 1
                                      on violation — self-checking CI leg)
  trace_report.py FILE --diff OTHER   compare two traces' span tables
                                      (exit 1 if they differ — the
                                      tri-engine parity check from files);
                                      --diff-fields=f1,f2 selects the span
                                      fields compared (default
                                      messages,words,first_round,last_round;
                                      multi-epoch drivers skew round
                                      numbering: use messages,words)

Exit status: 0 ok, 1 check/diff failure, 2 bad input.
"""

import argparse
import json
import sys

SYNC_TRACK = "synchronizer"


def die(msg):
    print("trace_report: " + msg, file=sys.stderr)
    sys.exit(2)


def load(path):
    """Returns (spans, totals): spans maps (phase, level) -> counter dict."""
    with open(path) as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as e:
            die("%s: bad JSON: %s" % (path, e))
    events = doc.get("traceEvents") if isinstance(doc, dict) else None
    if events is None:
        die("%s: no traceEvents (not a chrome trace?)" % path)
    tid_name = {}
    spans = {}
    totals = None
    for ev in events:
        if ev.get("ph") == "M" and ev.get("name") == "thread_name":
            tid_name[ev["tid"]] = ev["args"]["name"]
    for ev in events:
        ph = ev.get("ph")
        if ph == "X":
            phase = tid_name.get(ev["tid"], "tid%d" % ev["tid"])
            if phase == SYNC_TRACK:
                continue  # synchronizer control traffic, not a driver span
            args = ev["args"]
            level = args.get("level", 0)
            spans[(phase, level)] = {
                "phase": phase,
                "level": level,
                "messages": args["messages"],
                "words": args["words"],
                "first_round": int(ev["ts"]),
                "last_round": int(ev["ts"]) + int(ev["dur"]) - 1,
            }
        elif ph == "i" or ph == "I":
            if ev.get("name") == "dmst_totals":
                totals = ev["args"]
    if totals is None:
        die("%s: no dmst_totals event" % path)
    return spans, totals


def summarize(path, spans, totals):
    print("%s: %d spans, %d messages, %d words, %d rounds"
          % (path, len(spans), totals["messages"], totals["words"],
             totals["rounds"]))
    if totals.get("sync_messages"):
        print("  synchronizer: %d messages, %d words"
              % (totals["sync_messages"], totals["sync_words"]))
    header = "%-14s %6s %10s %10s %8s %8s" % (
        "phase", "level", "messages", "words", "first", "last")
    print("  " + header)
    for (phase, level) in sorted(spans, key=span_order):
        s = spans[(phase, level)]
        print("  %-14s %6d %10d %10d %8d %8d"
              % (phase, level, s["messages"], s["words"],
                 s["first_round"], s["last_round"]))


def span_order(key):
    phase, level = key
    return (phase, level)


def check(path, spans, totals):
    """Conservation: the spans partition the run's payload traffic."""
    failures = []
    msg_sum = sum(s["messages"] for s in spans.values())
    word_sum = sum(s["words"] for s in spans.values())
    if msg_sum != totals["messages"]:
        failures.append("message conservation: spans sum to %d, totals say %d"
                        % (msg_sum, totals["messages"]))
    if word_sum != totals["words"]:
        failures.append("word conservation: spans sum to %d, totals say %d"
                        % (word_sum, totals["words"]))
    for (phase, level), s in spans.items():
        if s["first_round"] > s["last_round"]:
            failures.append("span %s/%d: first_round %d > last_round %d"
                            % (phase, level, s["first_round"],
                               s["last_round"]))
        if s["last_round"] > totals["rounds"]:
            failures.append("span %s/%d: last_round %d beyond the run's %d"
                            % (phase, level, s["last_round"],
                               totals["rounds"]))
    if failures:
        for f in failures:
            print("%s: FAIL %s" % (path, f), file=sys.stderr)
        return False
    print("%s: conservation ok (%d spans, %d messages, %d words)"
          % (path, len(spans), msg_sum, word_sum))
    return True


PARITY_FIELDS = ("messages", "words", "first_round", "last_round")


def diff(path_a, spans_a, path_b, spans_b, fields=PARITY_FIELDS):
    """Structural comparison on the parity fields; vtime is an engine-
    specific timebase and deliberately excluded. Multi-epoch drivers
    (sync Borůvka) accumulate engine-specific round offsets across epoch
    boundaries — diff those with fields=messages,words."""
    same = True
    for key in sorted(set(spans_a) | set(spans_b), key=span_order):
        a, b = spans_a.get(key), spans_b.get(key)
        if a is None or b is None:
            print("span %s/%d: only in %s"
                  % (key[0], key[1], path_a if b is None else path_b))
            same = False
            continue
        for field in fields:
            if a.get(field) != b.get(field):
                print("span %s/%d %s: %s vs %s"
                      % (key[0], key[1], field, a.get(field), b.get(field)))
                same = False
    print("traces %s" % ("match" if same else "DIFFER"))
    return same


def main():
    # Full module docstring as the --help epilog: the mode notes above are the documentation of record, and check_trace_report_help.py
    # asserts --help and the accepted flags stay in sync.
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        epilog=__doc__.split("\n", 2)[2],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("file", help="chrome trace file")
    ap.add_argument("--check", action="store_true",
                    help="verify span/total conservation")
    ap.add_argument("--diff", metavar="OTHER",
                    help="compare against a second trace file")
    ap.add_argument("--diff-fields", default=",".join(PARITY_FIELDS),
                    help="comma list of span fields --diff compares "
                         "(multi-epoch drivers skew round numbering "
                         "across engines: use messages,words)")
    args = ap.parse_args()

    spans, totals = load(args.file)
    ok = True
    if args.check:
        ok = check(args.file, spans, totals) and ok
    if args.diff:
        spans_b, _ = load(args.diff)
        fields = tuple(f for f in args.diff_fields.split(",") if f)
        ok = diff(args.file, spans, args.diff, spans_b, fields) and ok
    if not args.check and not args.diff:
        summarize(args.file, spans, totals)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
