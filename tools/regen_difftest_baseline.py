#!/usr/bin/env python3
"""Regenerate tools/difftest_baseline.json from the CI smoke campaign.

Run this only after triaging every divergence (see DESIGN.md §10): a
divergence lands in the baseline when it is a *documented* feature gap,
not a bug.  The goal state is an empty baseline — CI then fails on any
divergence at all.

Usage:
    PYTHONPATH=src python tools/regen_difftest_baseline.py
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.difftest import generate_cases, run_campaign, save_baseline
from repro.difftest.baseline import BASELINE_PATH

# keep in lockstep with the difftest step in .github/workflows/ci.yml
CI_CAMPAIGNS = [
    ("default", 0, 120, "bash"),
    ("coreutils", 0, 40, "bash"),
    ("expansion", 0, 40, "bash"),
    ("jobs", 0, 40, "bash"),
    ("heredoc", 0, 40, "bash"),
    ("replay", 0, 40, "bash"),
    ("pipeline", 0, 40, "pash"),
]


def main() -> int:
    divergences = []
    for profile, seed, count, engine in CI_CAMPAIGNS:
        result = run_campaign(generate_cases(seed, count, profile),
                              engine=engine)
        if result.skipped:
            print("no host shell available; refusing to write a baseline",
                  file=sys.stderr)
            return 1
        print(f"{profile} ({engine}): {result.agreed}/{result.total} agreed")
        divergences.extend(result.divergences)

    from repro.difftest import load_sessions, run_replay
    result = run_replay(load_sessions())
    print(f"sessions: {result.agreed}/{result.total} agreed")
    divergences.extend(result.divergences)
    path = save_baseline(divergences, BASELINE_PATH)
    print(f"wrote {len(divergences)} known divergence(s) -> {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
