#!/usr/bin/env python3
"""Compare two ledger documents, A (before) and B (after).

    python3 benchmarks/ledger/compare.py A.json B.json

One row per workload x end-to-end metric, judged against the metric's
bound in BENCHMARK.json:

* ``ok``          B's median is no worse than A's by more than the bound
* ``regressed``   it is worse by more than the bound
* ``unresolved``  the run-to-run quartile spread of the repetitions is
                  wider than the bound, so the medians cannot decide
                  (unless every repetition of B beats every one of A)

``virtual_s`` and the exact per-layer counts must be *identical* when A
and B used the same seed; any drop in ``verified_share`` is a regression.
Exit status 1 on any ``regressed`` row.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
#: per-layer counts that depend only on the inputs, never on the host
EXACT_COUNTS = ("vos.dispatches", "vos.steps", "compiler.mix_divergences",
                "parallel_host.regions_dispatched", "parallel_host.tasks",
                "parallel_host.oracle_hits", "parallel_host.oracle_fallbacks",
                "parallel_host.bytes_shipped", "parallel_host.bytes_returned")
#: metrics whose spread is that of another metric's samples
SAMPLES_OF = {"work_per_s": "wall_s"}


def spread(samples: list[float]) -> float:
    """Interquartile range as a share of the median."""
    if len(samples) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / statistics.median(samples)


def judge(metric: dict, a: dict, b: dict, same_seed: bool) -> tuple:
    name, bound = metric["name"], metric["bound"]
    before, after = a["end_to_end"][name], b["end_to_end"][name]
    worse = after - before if metric["better"] == "lower" else before - after
    if before:
        worse_by = worse / before
    else:  # A is a ledger whose every operation failed: no share of zero
        worse_by = float("inf") if worse > 0 else 0.0
    key = SAMPLES_OF.get(name, name)
    runs_a = a.get("samples", {}).get(key, [])
    runs_b = b.get("samples", {}).get(key, [])
    noise = max(spread(runs_a), spread(runs_b))
    if name == "virtual_s" and same_seed:
        exact = abs(after - before) <= 1e-9 * abs(before)
        verdict = "ok" if exact else "regressed"
    elif name == "verified_share":
        verdict = "regressed" if after < before else "ok"
    elif noise > bound:
        # lower-is-better samples; work_per_s borrows wall_s's, same sense
        clear_win = runs_a and runs_b and max(runs_b) < min(runs_a)
        verdict = "ok" if clear_win else "unresolved"
    else:
        verdict = "regressed" if worse_by > bound else "ok"
    return (a["workload"], name, before, after, worse_by, noise, bound,
            verdict)


def compare_docs(doc_a: dict, doc_b: dict, spec: dict) -> list[tuple]:
    rows = []
    same_seed = doc_a["meta"]["seed"] == doc_b["meta"]["seed"] and (
        doc_a["meta"]["quick"] == doc_b["meta"]["quick"])
    for name, a in doc_a["workloads"].items():
        b = doc_b["workloads"].get(name)
        if b is None or "end_to_end" not in a or "end_to_end" not in b:
            rows.append((name, "(all)", 0.0, 0.0, 0.0, 0.0, 0.0,
                         "regressed"))
            continue
        rows += [judge(metric, a, b, same_seed)
                 for metric in spec["end_to_end"]]
        if same_seed and "per_layer" in a and "per_layer" in b:
            for count in EXACT_COUNTS:
                before, after = a["per_layer"][count], b["per_layer"][count]
                rows.append((name, count, before, after, 0.0, 0.0, 0.0,
                             "ok" if before == after else "regressed"))
    return rows


def print_rows(rows: list[tuple]) -> int:
    """Print one line per row; return the exit status."""
    print(f"\n{'workload':<14} {'metric':<34} {'A':>14} {'B':>14} "
          f"{'worse by':>9} {'spread':>7} {'bound':>6}  verdict")
    for workload, metric, a, b, worse_by, noise, bound, verdict in rows:
        print(f"{workload:<14} {metric:<34} {a:>14.6f} {b:>14.6f} "
              f"{worse_by:>+9.2%} {noise:>7.2%} {bound:>6.0%}  {verdict}")
    counts = {v: sum(row[-1] == v for row in rows)
              for v in ("ok", "unresolved", "regressed")}
    print(f"\n{counts['ok']} ok, {counts['unresolved']} unresolved, "
          f"{counts['regressed']} regressed")
    return 1 if counts["regressed"] else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    doc_a, doc_b = (json.loads(Path(path).read_text()) for path in argv)
    return print_rows(compare_docs(doc_a, doc_b,
                                   json.loads(SPEC_PATH.read_text())))


if __name__ == "__main__":
    sys.exit(main())
