#!/usr/bin/env python3
"""Smoke check: trace_report.py --help stays in sync with its flags.

The tool's module docstring is its documentation of record (and is shown
as the --help epilog). This check fails if either drifts:

  - every --flag the argparse parser accepts must appear in --help output
    (argparse guarantees this) AND in the module docstring;
  - every --flag the docstring mentions must be one the parser accepts
    (no documented-but-removed flags).

Exit status: 0 in sync, 1 drift, 2 cannot run the tool.
"""

import re
import subprocess
import sys
from pathlib import Path

FLAG_RE = re.compile(r"--[a-z][a-z0-9-]*")


def main():
    tool = Path(__file__).resolve().parent / "trace_report.py"
    try:
        help_text = subprocess.run(
            [sys.executable, str(tool), "--help"],
            capture_output=True, text=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError) as e:
        print("check_trace_report_help: cannot run %s --help: %s"
              % (tool, e), file=sys.stderr)
        return 2

    docstring = tool.read_text().split('"""')[1]

    # Flags argparse accepts: parse them out of the usage block, where
    # every option is listed exactly once in [--flag ...] form.
    usage = help_text.split("\n\n")[0]
    accepted = set(FLAG_RE.findall(usage)) - {"--help"}
    documented = set(FLAG_RE.findall(docstring))
    # The docstring also names scenario_runner's writer-side --trace flag;
    # it is not this tool's flag.
    documented -= {"--trace"}

    failures = []
    for flag in sorted(accepted - documented):
        failures.append("accepted flag %s is not in the module docstring"
                        % flag)
    for flag in sorted(documented - accepted):
        failures.append("docstring mentions %s but the parser does not "
                        "accept it" % flag)
    if failures:
        for f in failures:
            print("check_trace_report_help: FAIL " + f, file=sys.stderr)
        return 1
    print("check_trace_report_help: --help and docstring in sync "
          "(%d flags)" % len(accepted))
    return 0


if __name__ == "__main__":
    sys.exit(main())
