"""T-faults — recovery overhead under injected faults.

The paper's robustness thread ("a well-behaved distributed and fault
tolerant shell", §4) needs more than retries in the distributed layer:
the JIT itself must not turn a transient fault into silent data loss.
This benchmark installs a seeded :class:`repro.FaultPlan` on the kernel
(disk EIO, transient disk slowdowns, pipe breakage, process crashes)
and measures what each engine does about it:

* ``bash``       — the plain interpreter: no recovery (motivating row).
* ``pash-tx``    — PaSh-AOT with transactional fallback: retried
                   staged execution, then interpretation.
* ``jash-tx``    — Jash with the degradation ladder: retries at the
                   chosen width, halves the width, finally interprets.

Reported per (engine, fault rate): exit status, whether stdout is
byte-identical to the fault-free reference, faults fired, recovery
attempts, and virtual-time overhead versus the same engine's
fault-free run.  The acceptance bar: at rate 0 the transactional
machinery costs <= 5% (it is bypassed entirely when no FaultPlan is
installed, and stages only when one is); at rates <= 10% with a
bounded fault budget, both transactional engines recover
byte-identically.

Run standalone: ``PYTHONPATH=src python benchmarks/bench_faults.py
[--smoke]``; or under pytest-benchmark: ``pytest benchmarks/bench_faults.py``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

try:  # script mode without an installed package
    import repro  # noqa: F401
except ImportError:  # pragma: no cover
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro import FaultPlan, JashConfig, JashOptimizer, Shell
from repro.bench import format_table, words_text
from repro.compiler import OptimizerConfig, PashConfig, PashOptimizer
from repro.vos.machines import laptop

from common import bench_mb, once, record

SCRIPT = "cat /w.txt | tr a-z A-Z | sort"
RATES = (0.0, 0.02, 0.05, 0.10)
KINDS = ("disk-error", "disk-slow", "pipe-break", "crash")
#: transient-storm budget: the plan stops injecting after this many
#: faults, so a bounded number of recovery attempts always suffices
#: (PaSh's 3 staged attempts can each absorb at least one fatal fault,
#: so the post-ladder interpreter run is guaranteed fault-free)
MAX_FAULTS = 3
ENGINES = ("bash", "pash-tx", "jash-tx")
SEED = 7


def make_optimizer(engine: str):
    # a low optimization floor so the smoke workload still exercises
    # the compiled path (ratios, not absolute sizes, are the target)
    opt_config = OptimizerConfig(min_input_bytes=4096)
    if engine == "bash":
        return None
    if engine == "pash-tx":
        return PashOptimizer(PashConfig(width=4))
    if engine == "jash-tx":
        return JashOptimizer(JashConfig(optimizer=opt_config))
    raise ValueError(f"unknown engine {engine!r}; have {ENGINES}")


def make_plan(rate: float) -> FaultPlan:
    return FaultPlan(seed=SEED, rate=rate, kinds=KINDS,
                     max_faults=MAX_FAULTS)


def run_one(engine: str, data: bytes, plan):
    optimizer = make_optimizer(engine)
    shell = Shell(laptop(), optimizer=optimizer, faults=plan)
    shell.fs.write_bytes("/w.txt", data)
    result = shell.run(SCRIPT)
    return result, optimizer, shell


def degradation_note(optimizer) -> str:
    """Human-readable recovery summary from the engine's event log."""
    if optimizer is None:
        return "-"
    notes = []
    for ev in optimizer.events:
        trail = getattr(ev, "degraded", "")
        if trail:
            notes.append(trail)
        elif ev.decision == "interpreted" and "fault" in ev.reason:
            notes.append("interpreter")
    return "; ".join(notes) or "-"


def fault_failures(optimizer) -> int:
    if optimizer is None:
        return 0
    return sum(getattr(ev, "fault_failures", 0) for ev in optimizer.events)


def collect(n_bytes: int) -> dict:
    """Run the engine x rate matrix; returns rows plus the raw runs."""
    data = words_text(n_bytes, seed=3)
    reference, _, _ = run_one("bash", data, None)
    assert reference.status == 0
    rows, runs = [], {}
    for engine in ENGINES:
        base, _, _ = run_one(engine, data, None)  # fault-free, no plan
        assert base.status == 0
        assert base.stdout == reference.stdout, engine
        for rate in RATES:
            result, optimizer, shell = run_one(engine, data, make_plan(rate))
            fired = shell.faults.fired
            identical = result.stdout == reference.stdout
            overhead = (result.elapsed - base.elapsed) / base.elapsed
            rows.append([
                engine, f"{rate:.0%}", result.status,
                "yes" if (result.status == 0 and identical) else "NO",
                fired, fault_failures(optimizer),
                degradation_note(optimizer),
                result.elapsed, f"{overhead:+.1%}",
            ])
            runs[(engine, rate)] = (result, optimizer, shell, base, identical)
    return {"rows": rows, "runs": runs, "reference": reference}


def check(results: dict) -> None:
    """The acceptance assertions (shared by pytest and --smoke)."""
    runs = results["runs"]
    for engine in ("pash-tx", "jash-tx"):
        # <= 5% transactional overhead with a plan installed but no faults
        result, _, _, base, identical = runs[(engine, 0.0)]
        overhead = (result.elapsed - base.elapsed) / base.elapsed
        assert overhead <= 0.05, (engine, overhead)
        assert result.status == 0 and identical
        # byte-identical recovery at every injected rate
        for rate in RATES[1:]:
            result, _, shell, _, identical = runs[(engine, rate)]
            assert result.status == 0, (engine, rate, result.status)
            assert identical, (engine, rate)
    # Jash's degradation must be visible in its event log at the top rate
    _, optimizer, shell, _, _ = runs[("jash-tx", RATES[-1])]
    assert shell.faults.fired > 0
    assert fault_failures(optimizer) > 0
    assert any(getattr(ev, "fault_failures", 0) or getattr(ev, "degraded", "")
               for ev in optimizer.events)


def check_deterministic(n_bytes: int) -> None:
    """Same seed => identical status, stdout, timing, and fault trace."""
    data = words_text(n_bytes, seed=3)
    probes = []
    for _ in range(2):
        result, _, shell = run_one("jash-tx", data, make_plan(RATES[-1]))
        probes.append((result.status, result.stdout, result.elapsed,
                       shell.faults.trace()))
    assert probes[0] == probes[1]


def faults_table(rows) -> str:
    return format_table(
        ["engine", "rate", "status", "ok", "fired", "fault_fails",
         "degradation", "virtual_s", "overhead"],
        rows, title="T-faults: recovery under injected faults "
                    f"(kinds={','.join(KINDS)}, budget={MAX_FAULTS})",
    )


# -- pytest-benchmark entry points --------------------------------------------

import pytest


@pytest.fixture(scope="module")
def fault_results():
    return collect(max(1_000_000, int(bench_mb() * 1e6 / 4)))


def test_faults_table(fault_results, benchmark):
    once(benchmark, lambda: None)
    record("faults", faults_table(fault_results["rows"]))


def test_faults_acceptance(fault_results, benchmark):
    once(benchmark, lambda: None)
    check(fault_results)


def test_faults_deterministic(benchmark):
    once(benchmark, lambda: check_deterministic(1_000_000))


# -- standalone / CI smoke ----------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small workload for CI (~0.4 MB)")
    parser.add_argument("--mb", type=float, default=None,
                        help="workload size in MB (overrides --smoke)")
    args = parser.parse_args(argv)
    if args.mb is not None:
        n_bytes = int(args.mb * 1e6)
    elif args.smoke:
        n_bytes = 1_000_000  # smallest size the optimizer transforms
    else:
        n_bytes = int(bench_mb() * 1e6 / 4)
    results = collect(n_bytes)
    table = faults_table(results["rows"])
    if args.smoke:
        print(table)
    else:
        record("faults", table)
    check(results)
    check_deterministic(min(n_bytes, 1_000_000))
    print("T-faults: all acceptance checks passed "
          f"({len(results['rows'])} runs, {n_bytes / 1e6:.1f} MB workload)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
