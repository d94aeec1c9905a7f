#!/usr/bin/env python3
"""Checks docs/SCENARIOS.md's flag and JSONL-field tables against the runner.

Runs scenario_runner over one small sweep that turns every row group on
(a serial crash cell, an async beta lossy cell, a single-rank socket
cell, ghs_native with sync=none, --verify=model, --trace and
--record_per_edge), then fails unless:

  - the set of top-level keys the rows carry equals the set of field
    names in docs/SCENARIOS.md's "JSONL fields" tables,
  - every field named in a tuple of scripts/parity_diff.py (read by
    importing it) is an emitted key, and
  - the flags the runner defines (read from the help it prints for an
    unknown flag) and their defaults equal docs/SCENARIOS.md's "Flags"
    table ("—" documents an empty default).

The counters among those keys come from one list, RunStats::fields
(src/dmst/congest/network_base.h), so a counter added there must be
documented, and a field parity_diff.py compares must exist.

Usage: check_counter_fields.py PATH/TO/scenario_runner
Exit status: 0 consistent, 1 disagreement or a failed sweep, 2 bad usage.
"""

import json
import os
import re
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DOC = os.path.join(ROOT, "docs", "SCENARIOS.md")

SWEEPS = (
    ["--algo=boruvka", "--engines=serial,async,socket", "--sync=beta",
     "--drop_rate=0,0.05", "--crash=none,5@3", "--verify=model",
     "--record_per_edge", "--trace={dir}/trace.json"],
    ["--algo=ghs_native", "--engines=async", "--sync=none"],
)


def emitted_keys(runner, workdir):
    keys = set()
    for i, sweep in enumerate(SWEEPS):
        out = os.path.join(workdir, "sweep%d.jsonl" % i)
        cmd = [runner, "--families=er", "--sizes=32", "--json=" + out]
        cmd += [arg.format(dir=workdir) for arg in sweep]
        if subprocess.call(cmd) != 0:
            sys.exit("check_counter_fields: sweep failed: " + " ".join(cmd))
        with open(out) as f:
            for line in f:
                if line.strip():
                    keys.update(json.loads(line))
    return keys


def doc_section(heading):
    """The table rows of one "## heading" section of docs/SCENARIOS.md."""
    with open(DOC) as f:
        text = f.read()
    start = text.index("\n## " + heading + "\n")
    end = text.find("\n## ", start + 1)
    return [line for line in
            text[start:end if end >= 0 else None].splitlines()
            if line.startswith("|")]


def documented_fields():
    """Backticked names in the first column of the JSONL-field tables."""
    fields = set()
    for line in doc_section("JSONL fields"):
        fields.update(re.findall(r"`([a-z_]+)`", line.split("|")[1]))
    return fields


def runner_flags(runner):
    """{flag: default} from the help the runner prints for an unknown flag."""
    proc = subprocess.run([runner, "--check_counter_fields_help"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          universal_newlines=True)
    flags = dict(re.findall(r"^  --([a-z_]+) \(default: (.*?)\)  ",
                            proc.stderr, re.M))
    if not flags:
        sys.exit("check_counter_fields: no flag help from " + runner)
    return flags


def documented_flags():
    """{flag: default} from the Flags table's first two columns."""
    flags = {}
    for line in doc_section("Flags"):
        cells = line.split("|")
        name = re.fullmatch(r"\s*`--([a-z_]+)`\s*", cells[1])
        if name:
            default = cells[2].strip().strip("`")
            flags[name.group(1)] = "" if default == "—" else default
    return flags


def parity_tuples():
    sys.path.insert(0, os.path.join(ROOT, "scripts"))
    sys.dont_write_bytecode = True  # leave no __pycache__ in the tree
    import parity_diff
    return {name: value for name, value in vars(parity_diff).items()
            if name.isupper() and isinstance(value, tuple)
            and all(isinstance(v, str) for v in value)}


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as workdir:
        emitted = emitted_keys(argv[1], workdir)
    documented = documented_fields()
    failures = []
    for key in sorted(emitted - documented):
        failures.append("emitted but not in docs/SCENARIOS.md: " + key)
    for key in sorted(documented - emitted):
        failures.append("in docs/SCENARIOS.md but never emitted: " + key)
    tuples = parity_tuples()
    for name, fields in sorted(tuples.items()):
        for field in fields:
            if field not in emitted:
                failures.append("parity_diff.py %s names a field the runner "
                                "never emits: %s" % (name, field))
    defined = runner_flags(argv[1])
    flags = documented_flags()
    for name in sorted(defined.keys() - flags.keys()):
        failures.append("runner flag not in docs/SCENARIOS.md: --" + name)
    for name in sorted(flags.keys() - defined.keys()):
        failures.append("in docs/SCENARIOS.md but not a runner flag: --" +
                        name)
    for name in sorted(defined.keys() & flags.keys()):
        if defined[name] != flags[name]:
            failures.append("--%s defaults to '%s' but docs/SCENARIOS.md "
                            "says '%s'" % (name, defined[name], flags[name]))
    for f in failures:
        print("check_counter_fields: " + f, file=sys.stderr)
    if failures:
        return 1
    print("check_counter_fields: %d emitted keys and %d flags match "
          "docs/SCENARIOS.md; %d parity_diff.py tuples name only emitted "
          "keys" % (len(emitted), len(defined), len(tuples)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
