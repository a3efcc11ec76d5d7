#!/usr/bin/env python3
"""The host-time ledger: five workloads, end to end and layer by layer.

    python3 benchmarks/ledger/run.py [--seed N] [--workload NAME] [--reps N]
        [--quick] [--trace 0|1] [--out FILE] [--trace-out FILE] [--selfcheck]

runs every workload in its own fresh subprocess under PYTHONHASHSEED=0,
verifies every output against host /bin/sh, prints every metric named in
BENCHMARK.json with its unit and writes one JSON document.  ``--trace 0``
skips the per-layer repetitions.

    python3 benchmarks/ledger/run.py --workload NAME --seed N --seconds S
        --trace 0|1

is the form the benchmark driver calls: it measures for S seconds and,
because a workload and ``--trace`` are both named, ends its output with
one JSON object: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

STARTED = time.perf_counter()
LEDGER = Path(__file__).resolve().parent
ROOT = LEDGER.parents[1]
SPEC_PATH = ROOT / "BENCHMARK.json"
#: seconds a workload subprocess may take before it is killed and every
#: operation it had left is counted as failed (the driver allows 180)
BUDGET_S = 170.0


def units(spec: dict, section: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in spec[section]}


# -- the workload subprocess ------------------------------------------------


def child_main(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    import repro  # noqa: F401 - timed: this is cli.import_s
    import_s = time.perf_counter() - start
    from measure import measure
    from workloads import WORKLOADS

    reps = args.reps
    if reps is None and args.seconds is None:
        reps = 2 if args.quick else WORKLOADS[args.workload].reps
    doc = measure(args.workload, args.seed, args.quick, reps, args.seconds,
                  trace=args.trace != 0, deadline=STARTED + BUDGET_S,
                  trace_out=args.trace_out, started=STARTED,
                  import_s=import_s)
    print(json.dumps(doc))
    return 0


def run_child(name: str, args, scratch: str) -> dict:
    """One workload in a fresh interpreter; killed at the budget."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child",
           "--workload", name, "--seed", str(args.seed),
           "--trace", str(int(args.trace != 0))]
    if args.quick:
        cmd.append("--quick")
    if args.reps is not None:
        cmd += ["--reps", str(args.reps)]
    if args.seconds is not None:
        cmd += ["--seconds", str(args.seconds)]
    if args.trace_out:
        cmd += ["--trace-out", trace_out_path(args, name)]
    # JASH_* would change the pool; the hash seed moves dict order and so
    # wall time; TMPDIR keeps host-sh and pool scratch inside the checkout
    env = {k: v for k, v in os.environ.items() if not k.startswith("JASH_")}
    env.update(PYTHONHASHSEED="0", TMPDIR=scratch)
    if args.quick:
        env["JASH_POOL_MIN_BYTES"] = "0"  # 1 MB is below the ship gate
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=BUDGET_S + 8)
        error = None if proc.returncode == 0 else f"exit {proc.returncode}"
    except subprocess.TimeoutExpired:
        out, error = b"", f"killed after {BUDGET_S + 8:.0f} s"
    finally:
        try:  # the child and anything it left behind
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    lines = out.decode().strip().splitlines()
    try:
        doc = json.loads(lines[-1]) if lines else {}
    except json.JSONDecodeError:
        doc = {}
    if error and "error" not in doc:
        doc["error"] = error
    if "error" in doc:  # whatever it had left to do counts as failed
        doc.setdefault("workload", name)
        doc["attempted"] = doc.get("attempted", 0) + 1
        doc["failed"] = doc.get("failed", 0) + 1
    return doc


def trace_out_path(args, name: str) -> str:
    if args.workload:
        return args.trace_out
    path = Path(args.trace_out)
    return str(path.with_name(f"{path.stem}.{name}{path.suffix}"))


# -- output -----------------------------------------------------------------


def print_workload(doc: dict, spec: dict) -> None:
    name = doc["workload"]
    print(f"\n== {name}  (seed {doc.get('seed')}, reference "
          f"{doc.get('reference', 'none')}, {doc.get('attempted', 0)} "
          f"operations, {doc.get('failed', 0)} failed)")
    if "error" in doc:
        print(f"   ERROR: {doc['error'].strip()}")
    for reason in doc.get("failures", []):
        print(f"   failed: {reason}")
    if "end_to_end" in doc:
        wall, work = doc["wall"], doc["work"]
        print(f"   wall_s quartiles {wall['q1']:.4f} / {wall['q3']:.4f}, "
              f"min {wall['min']:.4f}, max {wall['max']:.4f}, "
              f"{wall['reps']} reps; one operation = {work['amount']:.6g} "
              f"{work['unit']}")
    for section in ("end_to_end", "per_layer"):
        table = units(spec, section)
        for metric, value in doc.get(section, {}).items():
            shown = (f"{value:>16d}" if isinstance(value, int)
                     else f"{value:>16.6f}")
            print(f"   {metric:<42} {shown} {table[metric]}")


def check_names(doc: dict, spec: dict) -> None:
    """The ledger and BENCHMARK.json must name the same metrics."""
    for section in ("end_to_end", "per_layer"):
        if section in doc and set(doc[section]) != set(units(spec, section)):
            odd = set(doc[section]) ^ set(units(spec, section))
            raise SystemExit(f"{doc['workload']}: {section} metrics differ "
                             f"from BENCHMARK.json: {sorted(odd)}")


def cross_check(docs: dict[str, dict]) -> None:
    """spell_pool must equal spell_pipe in virtual_s (their bytes are both
    checked against the same host reference)."""
    try:
        pipe = docs["spell_pipe"]["end_to_end"]["virtual_s"]
        pool = docs["spell_pool"]["end_to_end"]["virtual_s"]
    except KeyError:
        return
    if pipe != pool:
        doc = docs["spell_pool"]
        doc["failed"] += 1
        doc["failures"].append(
            f"virtual_s {pool!r} differs from spell_pipe's {pipe!r}")


def settle(doc: dict) -> None:
    """``verified_share``, once everything that can count an operation as
    failed has: the child's checks, a killed or crashed child, and
    ``cross_check``."""
    if "end_to_end" in doc:
        doc["end_to_end"]["verified_share"] = (
            1 - doc["failed"] / doc["attempted"])


def host_facts(args) -> dict:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]
    from common import host_metadata

    meta = host_metadata()
    meta.update(nproc=os.cpu_count(), hashseed="0", seed=args.seed,
                quick=args.quick, reps=args.reps, seconds=args.seconds,
                loadavg_1min=os.getloadavg()[0],
                argv=sys.argv[1:])
    return meta


# -- modes ------------------------------------------------------------------


def protocol_line(doc: dict, spec: dict, tracing: bool) -> int:
    """The benchmark driver's protocol: one JSON object, last on stdout."""
    section = "per_layer" if tracing else "end_to_end"
    if section not in doc:
        return 1
    table = units(spec, section)
    print(json.dumps({
        "correct": doc["failed"] == 0,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {name: {"value": value, "unit": table[name]}
                    for name, value in doc[section].items()},
    }))
    return 0


def ledger_run(args, spec: dict, scratch: str) -> tuple[dict, int]:
    """Every workload (or the one named), end to end and, unless
    ``--trace 0``, layer by layer."""
    meta = host_facts(args)
    print(f"host: {meta['cpu']} x{meta['nproc']}, python {meta['python']}, "
          f"PYTHONHASHSEED=0, pool {meta['pool']}, seed {args.seed}, "
          f"load {meta['loadavg_1min']:.2f}")
    if meta["loadavg_1min"] > 0.5:
        print("warning: 1-minute load average above 0.5; timings will be "
              "noisy", file=sys.stderr)
    if (os.cpu_count() or 1) < 2:
        print("warning: spell_pool runs 2 pool workers on fewer than 2 "
              "cores", file=sys.stderr)
    names = [args.workload] if args.workload else [
        w["name"] for w in spec["workloads"]]
    docs = {}
    for name in names:
        docs[name] = run_child(name, args, scratch)
    cross_check(docs)
    status = 0
    for doc in docs.values():
        settle(doc)
        check_names(doc, spec)
        print_workload(doc, spec)
        if doc.get("failed") or "error" in doc:
            status = 1
    if status:
        print("\nFAILED: outputs differ from their references; the timings "
              "above are not verified", file=sys.stderr)
    return {"meta": meta, "workloads": docs}, status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--reps", type=int,
                        help="timed repetitions (default: per workload)")
    parser.add_argument("--seconds", type=float,
                        help="repeat for this long instead of --reps")
    parser.add_argument("--quick", action="store_true",
                        help="<= 1 MB inputs, 2 reps: a smoke run")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0 skips the per-layer repetitions; with "
                        "--workload, the last line of output is the "
                        "driver's JSON object")
    parser.add_argument("--out", help="write the ledger JSON here")
    parser.add_argument("--trace-out",
                        help="write the spans as Chrome trace_event JSON")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run twice and compare the two runs")
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"{ROOT}/src/repro not found: the ledger measures the "
              "repository it sits in", file=sys.stderr)
        return 2
    spec = json.loads(SPEC_PATH.read_text())
    known = [w["name"] for w in spec["workloads"]]
    if args.workload and args.workload not in known:
        parser.error(f"unknown workload {args.workload!r}; have {known}")
    if args.child:
        return child_main(args)

    scratch = tempfile.mkdtemp(prefix=".scratch-", dir=LEDGER)
    try:
        doc, status = ledger_run(args, spec, scratch)
        if args.selfcheck:
            from compare import compare_docs, print_rows

            second, status2 = ledger_run(args, spec, scratch)
            rows = compare_docs(doc, second, spec)
            status = print_rows(rows) or status or status2
        if args.out:
            Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
        if args.workload and args.trace is not None:
            return protocol_line(doc["workloads"][args.workload], spec,
                                 args.trace == 1)
        return status
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
