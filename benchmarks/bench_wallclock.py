"""Host wall-clock throughput of the VOS data plane (BENCH trajectory).

Unlike every other bench in this suite, the numbers here are **host
seconds**, not virtual seconds: they measure how fast the pure-Python
substrate can move bytes through a virtual pipeline, which is what
bounds how large a virtual workload we can afford to simulate (the
paper's Figure 1 moves 3 GB; the ROADMAP north star is "as fast as the
hardware allows").  Two metrics per scenario:

* **MB/s** — host-side throughput of the end-to-end run;
* **dispatches/GB** — kernel syscall dispatches per (virtual) gigabyte
  moved, the control-transfer overhead the zero-copy data plane
  attacks (splice collapses a whole pass-through stage into one
  dispatch).

Results go to ``BENCH_wallclock.json`` at the repo root with separate
``before``/``after`` sections (``--record before`` is run once, with
``PYTHONPATH`` on the pre-PR tree's ``src``, and moves the previous PR's
finished pair into ``history``) so the trajectory across PRs is visible
in one file; ``tools/ledger_pairs.py`` adds the PR's raw host-time ledger
pairs beside them.
``--smoke`` runs a small suite for CI and optionally enforces the
checked-in ``tools/wallclock_baseline.json`` dispatch budget.

Usage::

    python benchmarks/bench_wallclock.py [--mb N] [--record before|after]
    python benchmarks/bench_wallclock.py --smoke \
        [--baseline tools/wallclock_baseline.json] [--update-baseline]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from common import ensure_hashseed, host_metadata  # noqa: E402

from repro.bench.workloads import access_log, words_text  # noqa: E402
from repro.shell import Shell  # noqa: E402
from repro.vos.machines import laptop  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = ROOT / "BENCH_wallclock.json"
BASELINE_PATH = ROOT / "tools" / "wallclock_baseline.json"

#: (name, script, input path, generator) — the fixed pipeline suite.
SCENARIOS = (
    ("cat", "cat /data/stream.txt > /data/out.bin", "/data/stream.txt",
     "words"),
    ("spell", "cat /data/words.txt | tr -cs A-Za-z '\\n' | sort | uniq "
     "> /data/out.txt", "/data/words.txt", "words"),
    ("grep", "grep 'HTTP/1.1\" 500' /data/access.log > /data/hits.txt",
     "/data/access.log", "log"),
    ("wc", "wc /data/words.txt > /data/counts.txt", "/data/words.txt",
     "words"),
    # per-record charging: one CPU burst per line, drained as CpuVReqs
    ("sed", "sed -n 's/.*resource\\/\\([0-9]*\\) HTTP.*/\\1/p' "
     "/data/access.log > /data/ids.txt", "/data/access.log", "log"),
    ("awk", "awk '{s+=$NF} END{print s}' /data/access.log > /data/sum.txt",
     "/data/access.log", "log"),
)


def make_input(kind: str, n_bytes: int) -> bytes:
    if kind == "log":
        # ~100 bytes/line
        return access_log(max(1, n_bytes // 100), seed=11)
    return words_text(n_bytes, seed=42)


def run_scenario(name: str, script: str, path: str, data: bytes) -> dict:
    shell = Shell(laptop())
    shell.fs.write_bytes(path, data)
    kernel = shell.kernel
    start_dispatch = getattr(kernel, "dispatches", None)
    if start_dispatch is None:  # pre-zero-copy kernels: steps ~ dispatches
        start_dispatch = kernel.steps
    t0 = time.perf_counter()
    result = shell.run(script)
    wall = time.perf_counter() - t0
    end_dispatch = getattr(kernel, "dispatches", None)
    if end_dispatch is None:
        end_dispatch = kernel.steps
    assert result.status == 0, (name, result.status, result.err)
    dispatches = end_dispatch - start_dispatch
    mb = len(data) / 1e6
    return {
        "mb": round(mb, 3),
        "wall_s": round(wall, 4),
        "virtual_s": round(result.elapsed, 6),
        "mbps": round(mb / wall, 2) if wall > 0 else float("inf"),
        "dispatches": dispatches,
        "dispatches_per_gb": round(dispatches / (len(data) / 1e9), 1),
    }


def run_suite(n_bytes: int) -> dict[str, dict]:
    cache: dict[str, bytes] = {}
    out: dict[str, dict] = {}
    for name, script, path, kind in SCENARIOS:
        if kind not in cache:
            cache[kind] = make_input(kind, n_bytes)
        out[name] = run_scenario(name, script, path, cache[kind])
        row = out[name]
        print(f"  {name:<6} {row['mb']:8.1f} MB  {row['wall_s']:8.2f} s  "
              f"{row['mbps']:9.2f} MB/s  "
              f"{row['dispatches_per_gb']:12.0f} dispatches/GB")
    return out


def run_scaling(n_bytes: int, jobs_levels=(1, 2, 4, 8)) -> dict:
    """Cores-vs-MB/s curve for the S21 host worker pool (spell pipeline).

    Each level runs the same spell scenario under ``--jobs N`` with the
    ship-volume gate disarmed (the bench input is below the production
    4 MiB floor at --smoke sizes).  Output bytes and the virtual clock
    are asserted identical to the serial run — the pool is an execution
    detail, never an observable one — so the only thing allowed to move
    is host MB/s.
    """
    import os as _os

    from repro.parallel_host import shutdown_global_pool

    _, script, path, kind = next(s for s in SCENARIOS if s[0] == "spell")
    data = make_input(kind, n_bytes)
    saved = _os.environ.get("JASH_POOL_MIN_BYTES")
    _os.environ["JASH_POOL_MIN_BYTES"] = "0"
    curve: dict[str, dict] = {}
    baseline = None
    try:
        for jobs in jobs_levels:
            # best-of-2: single-run wall clocks on shared CI hosts are
            # noisy enough to swamp the effect being measured
            wall = float("inf")
            for _ in range(2):
                shell = Shell(laptop(), jobs=jobs)
                shell.fs.write_bytes(path, data)
                t0 = time.perf_counter()
                result = shell.run(script)
                wall = min(wall, time.perf_counter() - t0)
                assert result.status == 0, (jobs, result.status, result.err)
            out_bytes = shell.fs.read_bytes("/data/out.txt")
            coord = shell.host_coord
            row = {
                "wall_s": round(wall, 4),
                "virtual_s": round(result.elapsed, 6),
                "mbps": round(len(data) / 1e6 / wall, 2),
                "oracle_hits": coord.stats["oracle_hits"] if coord else 0,
                "oracle_fallbacks":
                    coord.stats["oracle_fallbacks"] if coord else 0,
            }
            if baseline is None:
                baseline = (out_bytes, result.elapsed)
            else:
                assert out_bytes == baseline[0], \
                    f"--jobs {jobs} changed output bytes"
                assert result.elapsed == baseline[1], \
                    f"--jobs {jobs} changed the virtual clock"
            curve[str(jobs)] = row
            print(f"  spell --jobs {jobs}: {row['mbps']:8.2f} MB/s  "
                  f"(wall {row['wall_s']:.2f} s, "
                  f"oracle hits {row['oracle_hits']})")
    finally:
        shutdown_global_pool()
        if saved is None:
            _os.environ.pop("JASH_POOL_MIN_BYTES", None)
        else:
            _os.environ["JASH_POOL_MIN_BYTES"] = saved
    base_mbps = curve[str(jobs_levels[0])]["mbps"]
    return {
        "scenario": "spell",
        "mb": round(len(data) / 1e6, 3),
        "jobs": curve,
        "speedup": {j: round(row["mbps"] / base_mbps, 2)
                    for j, row in curve.items()},
    }


def load_results() -> dict:
    if RESULT_PATH.exists():
        return json.loads(RESULT_PATH.read_text())
    return {"meta": {}, "before": {}, "after": {}, "gains": {}}


def compute_gains(doc: dict) -> None:
    before, after = doc.get("before") or {}, doc.get("after") or {}
    gains = {}
    for name in after:
        if name not in before:
            continue
        b, a = before[name], after[name]
        gains[name] = {
            "mbps_gain": round(a["mbps"] / b["mbps"], 2) if b["mbps"] else None,
            "dispatch_reduction": round(
                b["dispatches_per_gb"] / a["dispatches_per_gb"], 1)
            if a["dispatches_per_gb"] else None,
        }
    doc["gains"] = gains


def check_baseline(results: dict[str, dict], baseline_path: Path,
                   tolerance: float = 0.10) -> list[str]:
    """Dispatch-budget regression gate: dispatches/GB may not exceed the
    checked-in baseline by more than ``tolerance`` (host-speed
    independent, so it is stable across CI machines)."""
    baseline = json.loads(baseline_path.read_text())
    failures = []
    for name, budget in baseline.get("dispatches_per_gb", {}).items():
        if name not in results:
            failures.append(f"{name}: scenario missing from run")
            continue
        got = results[name]["dispatches_per_gb"]
        if got > budget * (1 + tolerance):
            failures.append(
                f"{name}: {got:.0f} dispatches/GB exceeds baseline "
                f"{budget:.0f} by more than {tolerance:.0%}")
    return failures


def main(argv=None) -> int:
    ensure_hashseed()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mb", type=float, default=64.0,
                        help="input size per scenario in MB (default 64)")
    parser.add_argument("--record", choices=("before", "after"),
                        default="after",
                        help="which section of BENCH_wallclock.json to "
                             "write (before = pre-PR tree)")
    parser.add_argument("--smoke", action="store_true",
                        help="small CI workload (4 MB); writes "
                             "BENCH_wallclock_smoke.json next to the repo "
                             "root JSON")
    parser.add_argument("--baseline", default=None,
                        help="with --smoke: fail if dispatches/GB regresses "
                             ">10%% vs this JSON")
    parser.add_argument("--update-baseline", action="store_true",
                        help="with --smoke: rewrite the baseline from this "
                             "run")
    parser.add_argument("--no-scaling", action="store_true",
                        help="skip the S21 cores-vs-MB/s curve (full runs "
                             "only; --smoke never runs it)")
    args = parser.parse_args(argv)

    n_bytes = int((4.0 if args.smoke else args.mb) * 1e6)
    print(f"wallclock suite ({n_bytes / 1e6:.0f} MB per scenario):")
    results = run_suite(n_bytes)

    if args.smoke:
        doc = {"meta": host_metadata(), "results": results}
        smoke_path = ROOT / "BENCH_wallclock_smoke.json"
        smoke_path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        print(f"wrote {smoke_path}")
        if args.update_baseline:
            BASELINE_PATH.write_text(json.dumps({
                "note": "dispatches/GB budget for bench_wallclock.py "
                        "--smoke (4 MB inputs); regenerate with "
                        "--smoke --update-baseline",
                "dispatches_per_gb": {
                    name: row["dispatches_per_gb"]
                    for name, row in results.items()},
            }, indent=2, sort_keys=True) + "\n")
            print(f"wrote {BASELINE_PATH}")
        if args.baseline:
            failures = check_baseline(results, Path(args.baseline))
            for failure in failures:
                print(f"REGRESSION: {failure}", file=sys.stderr)
            if failures:
                return 1
            print("dispatch budget OK vs baseline")
        return 0

    doc = load_results()
    if args.record == "before" and doc.get("before") and doc.get("after"):
        # a new PR starts: keep the finished pair instead of overwriting
        doc.setdefault("history", []).append(
            {k: doc[k] for k in ("meta", "before", "after", "gains",
                                 "scaling", "ledger_pairs") if k in doc})
        doc["after"] = {}
        doc.pop("ledger_pairs", None)  # tools/ledger_pairs.py, per PR
    doc["meta"] = host_metadata()
    doc[args.record] = results
    if not args.no_scaling:
        print("scaling curve (spell, worker pool):")
        doc["scaling"] = run_scaling(n_bytes)
    compute_gains(doc)
    RESULT_PATH.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {RESULT_PATH} ({args.record} section)")
    for name, gain in doc.get("gains", {}).items():
        print(f"  {name}: {gain['mbps_gain']}x MB/s, "
              f"{gain['dispatch_reduction']}x fewer dispatches/GB")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
