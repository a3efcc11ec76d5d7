"""T-incr — §4 Incremental Computation.

"Small changes to the input of a script [cause] a complete re-execution,
leading to many hours of wasted redundant computation. ... we have the
critical building blocks for a runtime that incrementally reinterprets
a script given changes of its input."

Reproduction: cold run vs unchanged re-run (replay) vs append-only
re-run (delta) for a data-cleaning pipeline; the warm paths must be
dramatically cheaper than recomputation.
"""

from __future__ import annotations

import pytest

from repro.bench import access_log, format_table, speedup
from repro.incremental import IncrementalConfig, IncrementalOptimizer
from repro.shell import Shell
from repro.vos.machines import aws_c5_2xlarge_gp3

from common import bench_mb, once, record

SCRIPT = "grep ' 500 ' /var/log/access.log | cut -d ' ' -f 1 > /data/bad_hosts.txt"


@pytest.fixture(scope="module")
def incr_results():
    n_lines = int(bench_mb() * 1e6 / 80)
    log = access_log(n_lines, seed=11)
    inc = IncrementalOptimizer(IncrementalConfig(min_input_bytes=1024))
    shell = Shell(aws_c5_2xlarge_gp3(), optimizer=inc)
    shell.fs.write_bytes("/var/log/access.log", log)

    results = {}
    r_cold = shell.run(SCRIPT)
    results["cold"] = (r_cold.elapsed, inc.events[-1].decision)
    cold_output = shell.fs.read_bytes("/data/bad_hosts.txt")

    r_replay = shell.run(SCRIPT)
    results["unchanged"] = (r_replay.elapsed, inc.events[-1].decision)

    # append 1% new lines
    delta = access_log(max(1, n_lines // 100), seed=77)
    node = shell.fs.files["/var/log/access.log"]
    node.data.extend(delta)
    node.mtime = shell.kernel.now + 1.0
    r_delta = shell.run(SCRIPT)
    results["append-1%"] = (r_delta.elapsed, inc.events[-1].decision)
    delta_output = shell.fs.read_bytes("/data/bad_hosts.txt")

    # correctness: delta output == full recomputation
    fresh = Shell(aws_c5_2xlarge_gp3())
    fresh.fs.write_bytes("/var/log/access.log", bytes(node.data))
    fresh.run(SCRIPT)
    results["_delta_correct"] = (
        fresh.fs.read_bytes("/data/bad_hosts.txt") == delta_output
    )
    results["_cold_nonempty"] = bool(cold_output)
    results["_stats"] = inc.cache.stats()
    return results


def test_incremental_table(incr_results, benchmark):
    once(benchmark, lambda: None)
    cold = incr_results["cold"][0]
    rows = []
    for label in ("cold", "unchanged", "append-1%"):
        t, decision = incr_results[label]
        rows.append([label, decision, t, speedup(cold, t)])
    record("incremental", format_table(
        ["run", "decision", "virtual_s", "vs_cold"], rows,
        title="T-incr: incremental re-execution of a log pipeline",
    ))


def test_replay_much_faster(incr_results, benchmark):
    once(benchmark, lambda: None)
    cold, _ = incr_results["cold"]
    replay, decision = incr_results["unchanged"]
    assert decision == "replayed"
    assert replay < cold / 5


def test_delta_much_faster(incr_results, benchmark):
    once(benchmark, lambda: None)
    cold, _ = incr_results["cold"]
    delta, decision = incr_results["append-1%"]
    assert decision == "extended"
    assert delta < cold / 2


def test_delta_correct(incr_results, benchmark):
    once(benchmark, lambda: None)
    assert incr_results["_cold_nonempty"]
    assert incr_results["_delta_correct"]
