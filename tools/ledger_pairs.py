#!/usr/bin/env python3
"""Alternating parent/change pairs of the host-time ledger, kept raw.

    python3 tools/ledger_pairs.py PARENT_TREE [--change TREE] [--label L]
        [--workload W]... [--pairs 10] [--seed0 11]

Each pair runs ``benchmarks/ledger/run.py --workload W --seed S --seconds
10 --trace 0`` (the driver's call) once in PARENT_TREE and once in the
change tree (default: this checkout), alternating which goes first.
Every run's end-to-end metrics go, unsummarised, into
``BENCH_wallclock.json`` under ``ledger_pairs[label][workload]`` next to
a per-metric summary (medians, quartiles, wins of n), so a claimed gain
can be checked pair by pair.  Writing a label drops the raw ``runs`` of
every other (older) label and keeps its summary.  ``bench_wallclock.py
--record before`` archives the section with the finished pair it
belongs to.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = ROOT / "BENCH_wallclock.json"
WORKLOADS = ("spell_pipe", "spell_pool", "log_report", "script_mix",
             "engine_matrix")
HIGHER_IS_BETTER = ("work_per_s", "verified_share")


def ledger_run(tree: str, workload: str, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "10", "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=True)
    doc = json.loads(done.stdout.strip().splitlines()[-1])
    row = {name: metric["value"] for name, metric in doc["metrics"].items()}
    row["failed"], row["attempted"] = doc["failed"], doc["attempted"]
    return row


def summarise(pairs: list[dict]) -> dict:
    summary = {}
    for metric in pairs[0]["parent"]:
        if metric in ("failed", "attempted"):
            continue
        before = [pair["parent"][metric] for pair in pairs]
        after = [pair["change"][metric] for pair in pairs]
        sign = 1 if metric in HIGHER_IS_BETTER else -1
        summary[metric] = {
            "parent_median": statistics.median(before),
            "parent_quartiles": statistics.quantiles(before, n=4)[::2],
            "change_median": statistics.median(after),
            "change_quartiles": statistics.quantiles(after, n=4)[::2],
            "change_wins": sum(sign * (b - a) > 0
                               for a, b in zip(before, after)),
            "pairs": len(pairs),
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="checkout of the parent commit")
    parser.add_argument("--change", default=str(ROOT))
    parser.add_argument("--label", default="change")
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=11)
    args = parser.parse_args(argv)
    trees = {"parent": args.parent, "change": args.change}
    for workload in args.workload or WORKLOADS:
        pairs = []
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"seed": args.seed0 + i, "first": order[0]}
            for side in order:
                pair[side] = ledger_run(trees[side], workload, pair["seed"])
            pairs.append(pair)
            print(workload, pair["seed"], "wall_s %.3f -> %.3f" % (
                pair["parent"]["wall_s"], pair["change"]["wall_s"]),
                flush=True)
        doc = json.loads(RESULT_PATH.read_text())
        sections = doc.setdefault("ledger_pairs", {})
        for label, section in sections.items():
            # an older label's parent has been measured afresh by now:
            # its medians, quartiles and wins stay, its raw runs go
            if label != args.label and isinstance(section, dict):
                for cell in section.values():
                    cell.pop("runs", None)
        sections.setdefault(args.label, {})[workload] = {
            "summary": summarise(pairs), "runs": pairs}
        RESULT_PATH.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
