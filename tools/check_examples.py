#!/usr/bin/env python3
"""CI gate: run the whole-script analyzer + lint over every
``examples/*.sh`` script AND every ``tests/corpus/`` script, and fail
on any diagnostic not fingerprinted in ``tools/check_baseline.json``.

A fingerprint is ``line:col:code`` — position-pinned so a diagnostic
*moving* (a refactor shifting what the analyzer sees) is surfaced, not
just a new code appearing.  All severities are fingerprinted: the S20
value-flow warnings (JS4xxx) are part of the contract, not just the
error-severity races.  The baseline is written with sorted keys and
sorted fingerprints, so it is byte-stable under any PYTHONHASHSEED.

Known diagnostics (the intentionally-buggy negative examples such as
``racy.sh`` and ``deadcode.sh``) are pinned in the baseline; run with
``--update`` after deliberately changing a script to regenerate it.

Usage::

    python tools/check_examples.py           # gate (exit 1 on new diagnostics)
    python tools/check_examples.py --update  # rewrite the baseline
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
BASELINE = REPO / "tools" / "check_baseline.json"

sys.path.insert(0, str(REPO / "src"))


def scripts() -> list[Path]:
    out = sorted((REPO / "examples").glob("*.sh"))
    out += sorted((REPO / "tests" / "corpus").rglob("*.sh"))
    if not out:
        raise SystemExit("no example or corpus scripts found")
    return out


def collect() -> dict[str, list[str]]:
    """Per-script sorted fingerprints (``line:col:code``) of every
    diagnostic, all severities."""
    from repro.analysis import analyze_program
    from repro.lint import lint
    from repro.parser import parse

    out: dict[str, list[str]] = {}
    for script in scripts():
        text = script.read_text()
        # the analyzer must at least complete on every script; stats()
        # reads every demand-driven section
        analyze_program(parse(text)).stats()
        prints = sorted(f"{d.line}:{d.col}:{d.code}" for d in lint(text))
        out[str(script.relative_to(REPO))] = prints
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baseline from the current state")
    args = parser.parse_args()

    current = collect()
    if args.update:
        BASELINE.write_text(json.dumps(current, indent=2, sort_keys=True)
                            + "\n")
        print(f"baseline updated: {BASELINE.relative_to(REPO)}")
        return 0

    baseline = json.loads(BASELINE.read_text()) if BASELINE.exists() else {}
    failures = []
    for name, prints in current.items():
        known = set(baseline.get(name, []))
        new = [p for p in prints if p not in known]
        if new:
            failures.append((name, new))
    for name, new in failures:
        print(f"FAIL {name}: unfingerprinted diagnostics {new} "
              f"(baseline: {baseline.get(name, [])})")
    if failures:
        print("re-run with --update only if the diagnostics are intentional")
        return 1
    total = sum(len(p) for p in current.values())
    print(f"ok: {len(current)} scripts checked, "
          f"{total} fingerprinted diagnostic(s), 0 new")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
