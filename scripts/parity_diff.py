#!/usr/bin/env python3
"""Cross-engine parity diff over scenario_runner JSONL output.

Groups rows by scenario point (algorithm, family, n, bandwidth, the
conditioner axes, and the crash schedule) and enforces the engines'
equivalence contracts:

  - lock-step engines (serial, parallel at every thread count) must be
    bit-identical per point: rounds, messages, words, activations,
    mst_weight, the oracle verdict, and the in-model verification block;
  - async-engine rows behind a synchronizer (sync alpha or beta; the
    "sync" field defaults to alpha when absent, for pre-sync-axis JSONL)
    must match the point's serial row on mst_weight, verdicts, and the
    payload counters (messages/words, verify_messages/verify_words) at
    every max_delay x event_seed point. rounds are excluded: async pulse
    levels may exceed the serial count by the documented endgame skew,
    and the synchronizer metrics (events, virtual_time, sync_*) are
    async-only. activations are engine-specific (the lock-step engines
    skip sleeping vertices, the async engine pulses every vertex) and
    compared only within an engine. Lossy async rows (drop_rate > 0; loss
    is async-only) are compared against the same clean serial row: the
    reliable-delivery shim never changes a payload;
  - natively-dispatched rows (sync == "none": a message-driven driver,
    no synchronizer) must match the serial row on mst_weight and the
    verdict block and carry exactly zero synchronizer traffic
    (sync_messages == sync_words == 0). The payload counters are NOT
    compared: a natively asynchronous protocol's message schedule is
    delay-dependent by design — only its output is invariant;
  - socket-engine rows (one per rank of a dmst_launcher launch, grouped
    by procs within the scenario point) merge against the
    point's serial row: every rank 0..procs-1 must appear exactly once
    and be verified; the per-round counters (rounds, verify_rounds) and
    the verdict block must be bit-identical on every rank to the serial
    row; the sender-charged counters (messages, words, mst_weight,
    verify_messages, verify_words) and activations must SUM across the
    ranks to exactly the serial value — each rank reports the slice it
    owns, and the slices partition the run. malformed_frames is deliberately not
    compared: it counts connections and frames the receive path dropped
    (stray traffic from outside the run), an environment fact rather
    than a protocol counter.

Reads one or more JSONL files (e.g. one per algorithm from the nightly
grid). Exit status: 0 parity holds, 1 mismatch, 2 bad input.

Usage: parity_diff.py runs1.jsonl [runs2.jsonl ...]
"""

import json
import sys

GROUP_KEYS = ("algorithm", "family", "n", "bandwidth",
              "hetero_b", "adversarial_order", "crash")
LOCKSTEP_COMPARE = ("rounds", "messages", "words", "activations",
                    "mst_weight", "verified",
                    "model_verified", "mutations_passed", "mutations_run",
                    "verify_rounds", "verify_messages", "verify_words")
ASYNC_COMPARE = ("messages", "words", "mst_weight", "verified",
                 "model_verified", "mutations_passed", "mutations_run",
                 "verify_messages", "verify_words")
# Native dispatch (sync == "none"): only the output and the verdict block
# are schedule-invariant; payload counters vary with the delay draw.
NATIVE_COMPARE = ("mst_weight", "verified", "model_verified",
                  "mutations_passed", "mutations_run")
# Socket-rank merge: fields every rank must match the serial row on
# exactly, and fields whose per-rank values must sum to the serial value.
SOCKET_EQUAL = ("rounds", "verified", "model_verified", "mutations_passed",
                "mutations_run", "verify_rounds")
SOCKET_SUM = ("messages", "words", "activations", "mst_weight",
              "verify_messages", "verify_words")


def describe(row):
    where = "/".join(str(row.get(k)) for k in GROUP_KEYS)
    extra = f" engine={row.get('engine')} threads={row.get('threads')}"
    if row.get("engine") == "async":
        extra += (f" max_delay={row.get('max_delay')}"
                  f" event_seed={row.get('event_seed')}"
                  f" sync={row.get('sync', 'alpha')}")
        if row.get("drop_rate"):
            extra += (f" drop_rate={row.get('drop_rate')}"
                      f" loss_seed={row.get('loss_seed')}")
    if row.get("engine") == "socket":
        extra += f" procs={row.get('procs')} rank={row.get('rank')}"
    return where + extra


def main(argv):
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2

    groups = {}
    rows = 0
    for path in argv[1:]:
        try:
            with open(path) as f:
                for line_no, line in enumerate(f, 1):
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        row = json.loads(line)
                    except ValueError as e:
                        print(f"parity_diff: {path}:{line_no}: {e}",
                              file=sys.stderr)
                        return 2
                    key = tuple(row.get(k) for k in GROUP_KEYS)
                    groups.setdefault(key, []).append(row)
                    rows += 1
        except OSError as e:
            print(f"parity_diff: cannot read {path}: {e}", file=sys.stderr)
            return 2

    mismatches = []
    lockstep_pairs = 0
    async_rows = 0
    socket_launches = 0

    def check(reference, row, fields, kind):
        nonlocal mismatches
        for field in fields:
            if reference.get(field) != row.get(field):
                mismatches.append(
                    f"{kind} {field}: {reference.get(field)} != "
                    f"{row.get(field)}\n    ref: {describe(reference)}\n"
                    f"    row: {describe(row)}")

    def check_socket_launch(serial, launch_rows, key):
        nonlocal mismatches
        procs, rows = launch_rows
        where = f"{key} procs={procs}"
        if serial is None:
            mismatches.append(f"socket rows without a serial reference at "
                              f"{where}")
            return
        ranks = sorted(r.get("rank") for r in rows)
        if ranks != list(range(procs)):
            mismatches.append(f"socket ranks {ranks} != 0..{procs - 1} at "
                              f"{where}")
            return
        for row in rows:
            if row.get("verified") is False:
                mismatches.append(
                    f"socket rank not verified\n    row: {describe(row)}")
            for field in SOCKET_EQUAL:
                if serial.get(field) != row.get(field):
                    mismatches.append(
                        f"socket {field}: {serial.get(field)} != "
                        f"{row.get(field)}\n    ref: {describe(serial)}\n"
                        f"    row: {describe(row)}")
        for field in SOCKET_SUM:
            if serial.get(field) is None:
                continue
            total = sum(r.get(field, 0) for r in rows)
            if total != serial.get(field):
                mismatches.append(
                    f"socket sum({field}): {total} over {procs} ranks != "
                    f"serial {serial.get(field)} at {where}")

    for key in sorted(groups, key=str):
        group = groups[key]
        lockstep = [r for r in group if r.get("engine") in ("serial",
                                                            "parallel")]
        asyncs = [r for r in group if r.get("engine") == "async"]
        sockets = [r for r in group if r.get("engine") == "socket"]
        serial = next((r for r in group if r.get("engine") == "serial"),
                      None)

        reference = serial or (lockstep[0] if lockstep else None)
        for row in lockstep:
            if row is reference:
                continue
            lockstep_pairs += 1
            check(reference, row, LOCKSTEP_COMPARE, "lockstep")

        if asyncs and serial is None:
            mismatches.append(
                f"async rows without a serial reference at {key}")
            continue
        for row in asyncs:
            async_rows += 1
            if row.get("sync", "alpha") == "none":
                check(serial, row, NATIVE_COMPARE, "native")
                for field in ("sync_messages", "sync_words"):
                    if row.get(field, 0) != 0:
                        mismatches.append(
                            f"native {field}: expected 0, got "
                            f"{row.get(field)}\n    row: {describe(row)}")
            else:
                check(serial, row, ASYNC_COMPARE, "async")

        # Socket-rank merge: one launch per procs; the ranks' owned slices
        # must partition the serial row exactly.
        by_launch = {}
        for row in sockets:
            by_launch.setdefault(row.get("procs"), []).append(row)
        for launch_rows in sorted(by_launch.items(), key=str):
            socket_launches += 1
            check_socket_launch(serial, launch_rows, key)

    print(f"parity_diff: {rows} rows, {len(groups)} scenario points, "
          f"{lockstep_pairs} lock-step comparisons, {async_rows} async "
          f"comparisons, {socket_launches} socket launch merges")
    if mismatches:
        for m in mismatches:
            print(f"PARITY MISMATCH: {m}", file=sys.stderr)
        print(f"parity_diff: {len(mismatches)} mismatches", file=sys.stderr)
        return 1
    print("parity_diff: engine parity holds across all backends")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
