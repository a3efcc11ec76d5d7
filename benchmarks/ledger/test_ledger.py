"""Tests of the ledger itself.  Run by path (not part of tier-1):

    PYTHONPATH=src python -m pytest -q benchmarks/ledger/test_ledger.py
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

LEDGER = Path(__file__).resolve().parent
ROOT = LEDGER.parents[1]
sys.path[:0] = [str(LEDGER), str(ROOT / "src")]

import compare  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

from repro import Shell, laptop  # noqa: E402
from repro.difftest.runner import Outcome  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXACT = compare.EXACT_COUNTS + ("vos.processes",)


def quick_run(tmp_path_factory, tag: str, *options: str) -> tuple[dict, float]:
    out = tmp_path_factory.mktemp(tag) / "ledger.json"
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(LEDGER / "run.py"), "--quick", "--out",
         str(out), *options], capture_output=True, text=True, timeout=300)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(out.read_text()), elapsed


@pytest.fixture(scope="module")
def quick_runs(tmp_path_factory):
    return [quick_run(tmp_path_factory, tag) for tag in ("a", "b")]


def test_quick_run_emits_exactly_the_declared_names(quick_runs):
    doc, elapsed = quick_runs[0]
    assert elapsed < 30, f"--quick took {elapsed:.1f} s"
    assert list(doc["workloads"]) == [w["name"] for w in SPEC["workloads"]]
    for name, result in doc["workloads"].items():
        assert result["failed"] == 0, (name, result["failures"])
        assert result["reference"] == "host-sh"
        for section in ("end_to_end", "per_layer"):
            assert set(result[section]) == {
                m["name"] for m in SPEC[section]}, (name, section)


def test_counts_and_virtual_clock_repeat_exactly(quick_runs):
    (first, _), (second, _) = quick_runs
    for name in first["workloads"]:
        a, b = first["workloads"][name], second["workloads"][name]
        assert a["end_to_end"]["virtual_s"] == b["end_to_end"]["virtual_s"]
        for metric in EXACT:
            assert a["per_layer"][metric] == b["per_layer"][metric], (
                name, metric)
        for metric, value in a["per_layer"].items():
            if metric.endswith("virtual_s"):
                assert value == b["per_layer"][metric], (name, metric)


def test_virtual_clock_does_not_see_the_seed(quick_runs, tmp_path_factory):
    """What lets BENCHMARK.json bound ``virtual_s`` at 1e-9 across seeds."""
    first, _ = quick_runs[0]
    other, _ = quick_run(tmp_path_factory, "seed", "--seed", "7",
                         "--trace", "0")
    for name, result in other["workloads"].items():
        assert result["failed"] == 0, (name, result["failures"])
        assert "per_layer" not in result
        assert (result["end_to_end"]["virtual_s"]
                == first["workloads"][name]["end_to_end"]["virtual_s"]), name
    log = workloads.LogReport(1, quick=True).make_input()
    assert workloads.LogReport(7, quick=True).make_input() != log
    assert sorted(workloads.reseeded(log, 7, workloads.log_shape)
                  .splitlines()) == sorted(log.splitlines())


def test_pool_only_works_on_spell_pool(quick_runs):
    doc, _ = quick_runs[0]
    for name, result in doc["workloads"].items():
        tasks = result["per_layer"]["parallel_host.tasks"]
        assert (tasks > 0) == (name == "spell_pool"), (name, tasks)
    pipe, pool = (doc["workloads"][n]["end_to_end"]["virtual_s"]
                  for n in ("spell_pipe", "spell_pool"))
    assert pipe == pool


def early_exit_run(rec=None):
    """``cat | head``: head exits early, cat dies of BrokenPipe — the
    kernel resumes cat's generator with ``throw``."""
    shell = Shell(laptop(), jobs=1)
    shell.fs.write_bytes("/big.txt", b"line\n" * 200_000)
    script = "cat big.txt | head -n 3; echo status=$?"
    if rec is None:
        result = shell.run(script)
    else:
        with spans.tracing(rec):
            result = shell.run(script)
    return result, shell.kernel


def test_proxy_is_transparent_and_forwards_throw():
    plain, plain_kernel = early_exit_run()
    rec = spans.Recorder()
    traced, traced_kernel = early_exit_run(rec)
    assert traced.stdout == plain.stdout == b"line\n" * 3 + b"status=0\n"
    assert traced.status == plain.status
    assert traced.elapsed == plain.elapsed
    assert traced_kernel.dispatches == plain_kernel.dispatches
    assert traced_kernel.steps == plain_kernel.steps
    cat = [p for p in traced_kernel.processes.values() if p.name == "cat"]
    assert cat and cat[0].exit_status == 141  # died of SIGPIPE via throw()
    assert rec.calls["commands.cat"] > 0 and rec.calls["commands.head"] > 0
    assert rec.calls["vos.run"] == 1 and rec.calls["shell.run"] == 1
    # every patched name is restored
    assert Shell.run.__name__ == "run"
    assert "traced" not in type(plain_kernel).create_process.__qualname__
    # self times partition the traced interval: nothing is counted twice
    assert rec.attributed_s() <= rec.total_s("shell.run") * (1 + 1e-9)


def test_proxy_forwards_throw_and_close():
    log = []

    def body():
        try:
            while True:
                try:
                    yield "request"
                except KeyError:
                    log.append("caught")
        finally:
            log.append("closed")

    rec = spans.Recorder()
    proxy = spans._BodyProxy(body(), "commands.test", 7, 1, rec)
    assert proxy.send(None) == "request"
    assert proxy.throw(KeyError("x")) == "request"
    with pytest.raises(ValueError):
        proxy.throw(ValueError("unhandled"))
    assert log == ["caught", "closed"]
    proxy.close()
    assert rec.calls["commands.test"] == 3
    assert [span[3:] for span in rec.spans] == [(7, 1)] * 3
    assert rec.chrome_trace()["traceEvents"][0]["tid"] == 7


def test_corrupt_reference_fails_the_run(monkeypatch, tmp_path):
    real = workloads.host_outcomes

    def corrupted(jobs):
        outcomes = real(jobs)
        outcomes[0] = Outcome(outcomes[0].status, outcomes[0].stdout + b"x")
        return outcomes

    monkeypatch.setattr(workloads, "host_outcomes", corrupted)
    now = time.perf_counter()
    doc = measure.measure("log_report", seed=2, quick=True, reps=2,
                          seconds=None, trace=False, deadline=now + 120,
                          trace_out=None, started=now, import_s=0.0)
    assert doc["failed"] == 2 and doc["attempted"] == 2
    assert "stdout differs" in doc["failures"][0]

    monkeypatch.setattr(run, "run_child", lambda name, args, scratch: doc)
    out = tmp_path / "ledger.json"
    assert run.main(["--quick", "--workload", "log_report", "--seed", "2",
                     "--out", str(out)]) == 1
    written = json.loads(out.read_text())["workloads"]["log_report"]
    assert written["end_to_end"]["verified_share"] == 0.0
    # a ledger of failures on the A side is compared, not divided by
    rows = compare.compare_docs(*[json.loads(out.read_text())] * 2, SPEC)
    assert {row[-1] for row in rows} == {"ok"}


def test_failures_found_by_the_parent_lower_verified_share(monkeypatch):
    def child(name, args, scratch):
        return {"workload": name, "attempted": 4, "failed": 0, "failures": [],
                "end_to_end": {"virtual_s": 1.0 + (name == "spell_pool")}}

    monkeypatch.setattr(run, "run_child", child)
    monkeypatch.setattr(run, "check_names", lambda doc, spec: None)
    monkeypatch.setattr(run, "print_workload", lambda doc, spec: None)
    args = run.argparse.Namespace(workload=None, seed=1, quick=True,
                                  reps=None, seconds=None)
    spec = dict(SPEC, workloads=SPEC["workloads"][:2])
    doc, status = run.ledger_run(args, spec, "unused")
    assert status == 1
    shares = {name: result["end_to_end"]["verified_share"]
              for name, result in doc["workloads"].items()}
    assert shares == {"spell_pipe": 1.0, "spell_pool": 0.75}


def test_shipped_digest_disagreement_is_loud(monkeypatch):
    monkeypatch.setattr(
        workloads, "host_outcomes",
        lambda jobs: [Outcome(0, b"not what sh prints\n")] * len(jobs))
    with pytest.raises(workloads.ReferenceMismatch):
        workloads.LogReport(workloads.DEFAULT_SEED, quick=True).setup()


def test_no_host_shell_falls_back_to_digests(monkeypatch):
    monkeypatch.setattr(workloads, "HOST_SH", None)
    default = workloads.LogReport(workloads.DEFAULT_SEED, quick=True)
    default.setup()
    assert default.reference == "digest"
    assert not default.verify(default.operate(default.prepare()))
    other = workloads.LogReport(workloads.DEFAULT_SEED + 1, quick=True)
    other.setup()
    assert other.reference == "none"
    assert other.verify(other.operate(other.prepare())) == {
        0: "no reference available"}


def test_compare_verdicts():
    def doc(wall, samples, virtual=1.0, share=1.0):
        return {"meta": {"seed": 1, "quick": False}, "workloads": {"w": {
            "workload": "w",
            "end_to_end": {"setup_s": 1.0, "wall_s": wall, "cpu_user_s": 1.0,
                           "work_per_s": 1 / wall, "virtual_s": virtual,
                           "peak_rss_mb": 10.0, "verified_share": share},
            "samples": {"wall_s": samples}}}}

    def verdicts(a, b):
        return {row[1]: row[-1] for row in compare.compare_docs(a, b, SPEC)}

    bound = next(m["bound"] for m in SPEC["end_to_end"]
                 if m["name"] == "wall_s")
    steady = [1.0, 1.01, 0.99, 1.0]
    base = doc(1.0, steady)
    assert set(verdicts(base, base).values()) == {"ok"}
    slow = 1 + 2 * bound
    slower = verdicts(base, doc(slow, [slow * s for s in steady]))
    assert slower["wall_s"] == slower["work_per_s"] == "regressed"
    wide = [1 - 2 * bound, 1.0, 1.0, 1 + 2 * bound]
    noisy = verdicts(doc(1.0, wide), doc(1.05, [w * 1.05 for w in wide]))
    assert noisy["wall_s"] == "unresolved"
    faster = verdicts(doc(1.0, wide), doc(0.1, [w * 0.1 for w in wide]))
    assert faster["wall_s"] == "ok"  # every repetition of B beats all of A
    assert verdicts(base, doc(1.0, steady, virtual=1.0001))[
        "virtual_s"] == "regressed"
    assert verdicts(base, doc(1.0, steady, share=0.99))[
        "verified_share"] == "regressed"
    # nothing verified on the A side: a verdict, not a ZeroDivisionError
    assert verdicts(doc(1.0, steady, share=0.0), base)[
        "verified_share"] == "ok"
    assert verdicts(doc(1.0, steady, virtual=0.0), base)[
        "virtual_s"] == "regressed"
    assert compare.print_rows(compare.compare_docs(base, base, SPEC)) == 0
