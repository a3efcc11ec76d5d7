#!/usr/bin/env python3
"""Run every CI leg locally, report each one, and fail if any fails.

    python3 tools/gates.py [--quick] [--list] [NAME_PART ...]

The legs are the ``run:`` steps of ``.github/workflows/ci.yml``, read
from the file itself, so the two cannot drift.  Each runs from the repo
root under ``bash -eo pipefail`` (what a GitHub runner uses), one after
another; a failing leg does not stop the rest.  The dependency install
is skipped (the tests need pytest, pytest-benchmark and hypothesis
installed already).  ``--quick`` drops the tier-1 rerun under
``JASH_JOBS=2`` from the worker-pool leg, the longest command of all;
``--list`` prints the legs; NAME_PART keeps the legs whose name holds it.
"""

from __future__ import annotations

import argparse
import re
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"
#: the pytest rerun ``--quick`` drops: a command continued over lines
JOBS2_TIER1 = re.compile(r"^[ \t]*JASH_JOBS=2[^\n]*\\\n[^\n]*pytest[^\n]*\n",
                         re.MULTILINE)


def legs(text: str) -> list[tuple[str, str]]:
    """``(name, script)`` of every step with a ``run:`` key, in order.
    Reads the subset of YAML the workflow uses: ``- name:`` opens a step,
    ``run:`` holds one line or a ``|`` block indented past the key."""
    found: list[tuple[str, str]] = []
    name = None
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        line = lines[i]
        i += 1
        step = re.match(r"\s*- name: (.*)$", line)
        if step:
            name = step.group(1).strip()
            continue
        run = re.match(r"(\s*)run: (.*)$", line)
        if not run or name is None:
            continue
        indent, value = len(run.group(1)), run.group(2).strip()
        if value not in ("|", "|-"):
            found.append((name, value + "\n"))
            continue
        block = []
        while i < len(lines) and (not lines[i].strip()
                                  or len(lines[i]) - len(lines[i].lstrip())
                                  > indent):
            block.append(lines[i])
            i += 1
        margin = min(len(b) - len(b.lstrip()) for b in block if b.strip())
        found.append((name, "".join(b[margin:] + "\n" for b in block)))
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="skip the JASH_JOBS=2 tier-1 rerun")
    parser.add_argument("--list", action="store_true",
                        help="print the legs and exit")
    parser.add_argument("only", nargs="*",
                        help="run only legs whose name contains one of these")
    args = parser.parse_args(argv)
    selected = [(name, script) for name, script in legs(WORKFLOW.read_text())
                if "pip install" not in script
                and (not args.only or any(part in name for part in args.only))]
    if args.list:
        for name, _script in selected:
            print(name)
        return 0
    results = []
    for name, script in selected:
        if args.quick:
            script = JOBS2_TIER1.sub("", script)
        print(f"== {name}", flush=True)
        start = time.perf_counter()
        done = subprocess.run(["bash", "--noprofile", "--norc", "-eo",
                               "pipefail", "-c", script], cwd=ROOT)
        seconds = time.perf_counter() - start
        results.append((name, done.returncode, seconds))
        print(f"-- {'ok' if done.returncode == 0 else 'FAILED'} "
              f"({seconds:.1f} s)", flush=True)
    print()
    for name, code, seconds in results:
        print(f"{'ok    ' if code == 0 else 'FAILED'} {seconds:7.1f} s  {name}")
    failed = sum(code != 0 for _name, code, _seconds in results)
    print(f"{len(results) - failed} of {len(results)} legs passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
