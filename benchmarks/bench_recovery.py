"""T-recovery — seeded chaos campaign for supervised streaming (S18).

The paper's robustness thread asks for pipelines that survive the real
world: processes crash mid-splice, vectored writes tear, the host dies
between a payload fsync and its journal record, checkpoints rot on
disk.  This campaign drives the :class:`repro.Supervisor` through a
few hundred seeded crash/fault scenarios and holds it to one bar:
**after recovery, the durably-committed output is byte-identical to a
crash-free run over the same input** — and resuming must be cheaper
than starting over (< 50% of the bytes recomputed, thanks to the
journal + incremental cache).

Scenario families:

* ``crash``   — a host crash at each point of the commit protocol
                (pre-commit, post-payload, torn-record, post-commit).
* ``storm``   — seeded Bernoulli fault rates (disk EIO, slowdowns,
                pipe breakage, process crashes, partial writes) layered
                under a host crash.
* ``splice``  — explicit faults targeted at the zero-copy splice path
                (mid-splice EIO and torn partial writes).
* ``writev``  — explicit faults targeted at vectored pipe writes.
* ``corrupt`` — after the crash, the checkpoint directory itself is
                damaged (torn journal tail, flipped cache bytes,
                orphan segment, deleted cache) before resume.
* ``loop``    — repeated crashes at the same round: the supervisor's
                crash-loop detector must back off, then still converge.

Results go to ``BENCH_recovery.json`` at the repo root (smoke runs
write ``BENCH_recovery_smoke.json`` so CI never clobbers the full
campaign's numbers).  Run standalone:
``PYTHONPATH=src python benchmarks/bench_recovery.py [--smoke]``; or
under pytest-benchmark: ``pytest benchmarks/bench_recovery.py``.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

try:  # script mode without an installed package
    import repro  # noqa: F401
except ImportError:  # pragma: no cover
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro import (
    CrashPoint,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    SimulatedCrash,
    SuperviseConfig,
    Supervisor,
    SyntheticSource,
    run_script,
)
from repro.bench import format_table
from repro.vos.devices import DiskSpec
from repro.vos.machines import MachineSpec

from common import once, record

ROOT = Path(__file__).resolve().parents[1]
RESULT_PATH = ROOT / "BENCH_recovery.json"

SCRIPTS = (
    "cat /stream.log | tr a-z A-Z | grep -v ERROR",
    "grep INFO /stream.log | tr a-z A-Z",
    "cat /stream.log | grep req | wc -l",
    "cat /stream.log | sort",
)
WHERES = ("pre-commit", "post-payload", "torn-record", "post-commit")
RATES = (0.02, 0.05, 0.10)
KINDS = ("disk-error", "disk-slow", "pipe-break", "crash",
         "partial-write")
#: storm budget per scenario — bounded so the retry ladder always wins
MAX_FAULTS = 3
ROUNDS = 4
GROW = 2048
SEED = 7


def fast_machine() -> MachineSpec:
    """IO/CPU effectively free: the campaign measures recovery
    correctness and byte savings, not simulated time."""
    return MachineSpec(
        name="chaos-fast", cores=8, cpu_speed=1e6,
        disk=DiskSpec(name="ram", throughput_bps=1e12, base_iops=1e9,
                      burst_iops=1e9))


# -- one scenario -------------------------------------------------------------------

_REFS: dict = {}


def reference_output(script: str, data: bytes) -> bytes:
    key = (script, hash(data))
    if key not in _REFS:
        _REFS[key] = run_script(script, machine=fast_machine(),
                                files={"/stream.log": data}).stdout
    return _REFS[key]


def make_supervisor(root: str, script: str, seed: int, faults=None):
    config = SuperviseConfig(
        script=script, checkpoint_dir=root, machine=fast_machine(),
        min_input_bytes=16, faults=faults,
        policy=RetryPolicy(max_retries=6, timeout_s=120.0))
    return Supervisor(config, SyntheticSource(seed=seed))


def corrupt_checkpoint(root: Path, how: str) -> None:
    """Host-level damage applied between the crash and the resume."""
    journal = root / "journal.jsonl"
    cache = root / "cache.snap"
    segs = sorted((root / "segs").glob("*.bin"))
    if how == "torn-journal" and journal.exists():
        with open(journal, "ab") as fh:  # a half-written trailing record
            fh.write(b'{"round":99,"input_off')
    elif how == "flip-cache" and cache.exists():
        raw = bytearray(cache.read_bytes())
        if len(raw) > 80:
            raw[len(raw) // 2] ^= 0xFF
            cache.write_bytes(bytes(raw))
    elif how == "orphan-seg":
        (root / "segs").mkdir(exist_ok=True)
        (root / "segs" / "zz-orphan.bin").write_bytes(b"garbage")
    elif how == "drop-cache" and cache.exists():
        cache.unlink()


def run_scenario(family: str, script: str, seed: int, crash_round: int,
                 where: str, faults_for=None, corrupt: str | None = None,
                 extra_crashes: int = 0) -> dict:
    """Crash a supervised run, resume it in a fresh supervisor, and
    compare the committed bytes against a crash-free reference.

    ``faults_for()`` builds a fresh FaultPlan per supervisor incarnation
    (plans carry RNG state, so each process gets its own).  Returns the
    scenario's report row, including the resume's recompute ratio.
    """
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        plan = faults_for() if faults_for else None
        sup = make_supervisor(tmp, script, seed, faults=plan)
        try:
            sup.run_rounds(ROUNDS, GROW,
                           crashes=[CrashPoint(crash_round, where)])
            raise AssertionError(
                f"crash point never reached: {script!r} r{crash_round}")
        except SimulatedCrash:
            pass
        if corrupt:
            corrupt_checkpoint(root, corrupt)
        # crash-loop scenarios die again on the next few resumes
        for _ in range(extra_crashes):
            sup = make_supervisor(tmp, script, seed,
                                  faults=faults_for() if faults_for else None)
            sup.resume()
            try:
                sup.run_rounds(ROUNDS - sup.round, GROW,
                               crashes=[CrashPoint(sup.round, where)])
                break  # post-commit crash past the last round
            except SimulatedCrash:
                continue
        # the recovery under test: a fresh process over the same dir
        sup2 = make_supervisor(tmp, script, seed,
                               faults=faults_for() if faults_for else None)
        repairs = sup2.resume()
        reports = sup2.run_rounds(ROUNDS - sup2.round, GROW)
        full = sup2.source.replay(sup2._fed)
        expect = reference_output(script, full)
        got = sup2.committed_output()
        # recompute cost of the resumed rounds vs re-running from zero
        resumed_in = sum(r.input_len for r in reports)
        saved = sum(r.saved_bytes for r in reports)
        return {
            "family": family, "script": script, "seed": seed,
            "crash_round": crash_round, "where": where,
            "corrupt": corrupt or "", "faulted": bool(faults_for),
            "identical": got == expect,
            "rounds_resumed": len(reports),
            "resumed_input_bytes": resumed_in,
            "saved_bytes": saved,
            "recompute_ratio": ((resumed_in - saved) / resumed_in
                                if resumed_in else 0.0),
            "repairs": repairs,
            "restarts_without_progress":
                repairs.get("restarts_without_progress", 0),
        }


# -- the campaign -------------------------------------------------------------------


def scenarios(smoke: bool) -> list[dict]:
    """The full matrix is ~230 scenarios; smoke trims each family."""
    out = []
    seeds = (SEED,) if smoke else (SEED, 101, 20_26)

    # crash: every commit-protocol point, two crash rounds
    for script in SCRIPTS:
        for where in WHERES:
            for crash_round in ((1,) if smoke else (1, 2)):
                for seed in seeds:
                    out.append(dict(family="crash", script=script,
                                    seed=seed, crash_round=crash_round,
                                    where=where))

    # storm: Bernoulli faults under a host crash
    storm_wheres = ("post-payload",) if smoke else WHERES
    for script in SCRIPTS:
        for rate in (RATES if not smoke else RATES[-1:]):
            for where in storm_wheres:
                seed = SEED + int(rate * 1000)
                out.append(dict(
                    family="storm", script=script, seed=seed,
                    crash_round=2, where=where,
                    faults_for=lambda seed=seed, rate=rate: FaultPlan(
                        seed=seed, rate=rate, kinds=KINDS,
                        max_faults=MAX_FAULTS)))

    # splice / writev: explicit faults pinned to the zero-copy paths.
    # cat feeds the splice fast path; grep flushes via writev.
    targeted = (("splice", SCRIPTS[0]), ("splice", SCRIPTS[3]),
                ("writev", SCRIPTS[1]), ("writev", SCRIPTS[2]))
    for via, script in targeted:
        for kind in ("disk-error", "partial-write"):
            for op in ((2,) if smoke else (1, 2, 3)):
                for where in (("torn-record",) if smoke
                              else ("pre-commit", "torn-record")):
                    out.append(dict(
                        family=via, script=script, seed=SEED + op,
                        crash_round=1, where=where,
                        faults_for=lambda kind=kind, op=op, via=via:
                            FaultPlan(specs=(FaultSpec(kind, op=op,
                                                       via=via),))))

    # corrupt: damage the checkpoint dir itself before resuming
    for script in SCRIPTS:
        for how in ("torn-journal", "flip-cache", "orphan-seg",
                    "drop-cache"):
            for where in (("post-commit",) if smoke
                          else ("post-payload", "post-commit")):
                out.append(dict(family="corrupt", script=script,
                                seed=SEED, crash_round=2, where=where,
                                corrupt=how))

    # loop: three consecutive crashes before the run that succeeds
    for script in (SCRIPTS if not smoke else SCRIPTS[:1]):
        for where in ("pre-commit", "post-commit"):
            out.append(dict(family="loop", script=script, seed=SEED,
                            crash_round=1, where=where,
                            extra_crashes=3))
    return out


def collect(smoke: bool) -> dict:
    matrix = scenarios(smoke)
    rows, failures = [], []
    for spec in matrix:
        row = run_scenario(**spec)
        rows.append(row)
        if not row["identical"]:
            failures.append(row)
    ratios = [r["recompute_ratio"] for r in rows if r["rounds_resumed"]]
    by_family: dict[str, list] = {}
    for r in rows:
        by_family.setdefault(r["family"], []).append(r)
    summary = {
        "scenarios": len(rows),
        "byte_identical": sum(r["identical"] for r in rows),
        "divergent": len(failures),
        "mean_recompute_ratio": (sum(ratios) / len(ratios)
                                 if ratios else 0.0),
        "families": {
            fam: {
                "scenarios": len(rs),
                "byte_identical": sum(r["identical"] for r in rs),
                "mean_recompute_ratio": (
                    sum(r["recompute_ratio"] for r in rs
                        if r["rounds_resumed"]) /
                    max(1, sum(1 for r in rs if r["rounds_resumed"]))),
            } for fam, rs in sorted(by_family.items())
        },
    }
    return {"rows": rows, "failures": failures, "summary": summary}


def check(results: dict, smoke: bool) -> None:
    """The acceptance assertions (shared by pytest, --smoke, and CI)."""
    s = results["summary"]
    assert s["divergent"] == 0, (
        f"{s['divergent']} scenarios diverged: "
        + "; ".join(f"{f['family']}/{f['script']}/{f['where']}"
                    for f in results["failures"][:5]))
    if not smoke:
        assert s["scenarios"] >= 200, s["scenarios"]
    # resuming must beat starting over: < 50% of the bytes recomputed
    assert s["mean_recompute_ratio"] < 0.50, s["mean_recompute_ratio"]


def recovery_table(results: dict) -> str:
    s = results["summary"]
    rows = [[fam, f["scenarios"], f["byte_identical"],
             f"{f['mean_recompute_ratio']:.1%}"]
            for fam, f in s["families"].items()]
    rows.append(["TOTAL", s["scenarios"], s["byte_identical"],
                 f"{s['mean_recompute_ratio']:.1%}"])
    return format_table(
        ["family", "scenarios", "byte-identical", "recomputed"],
        rows, title="T-recovery: seeded chaos campaign "
                    f"(rounds={ROUNDS}, grow={GROW}B, budget={MAX_FAULTS})")


def write_report(results: dict, path: Path) -> None:
    payload = {
        "summary": results["summary"],
        "config": {"rounds": ROUNDS, "grow_bytes": GROW,
                   "max_faults": MAX_FAULTS, "scripts": SCRIPTS,
                   "rates": RATES, "kinds": KINDS, "seed": SEED},
        "scenarios": [{k: v for k, v in r.items()} for r in
                      results["rows"]],
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")


# -- pytest-benchmark entry points --------------------------------------------


import pytest


@pytest.fixture(scope="module")
def recovery_results():
    return collect(smoke=True)


def test_recovery_table(recovery_results, benchmark):
    once(benchmark, lambda: None)
    record("recovery", recovery_table(recovery_results))


def test_recovery_acceptance(recovery_results, benchmark):
    once(benchmark, lambda: None)
    check(recovery_results, smoke=True)


# -- standalone / CI smoke ----------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="trimmed matrix for CI (~40 scenarios)")
    args = parser.parse_args(argv)
    results = collect(smoke=args.smoke)
    if args.smoke:
        print(recovery_table(results))
    else:
        record("recovery", recovery_table(results))
    path = (ROOT / "BENCH_recovery_smoke.json" if args.smoke
            else RESULT_PATH)
    write_report(results, path)
    check(results, smoke=args.smoke)
    s = results["summary"]
    print(f"T-recovery: {s['scenarios']} scenarios, "
          f"{s['byte_identical']} byte-identical, "
          f"{s['mean_recompute_ratio']:.1%} of bytes recomputed on "
          "resume — all acceptance checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
