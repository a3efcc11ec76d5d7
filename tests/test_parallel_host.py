"""S21 multi-core execution plane: the --jobs N equality gate.

The worker pool is an *execution* detail, never an observable one:
every test here pins some adversarial condition (completion order,
worker crashes, fault injection) and then asserts the strongest
possible property — stdout bytes, stderr bytes, exit status AND the
virtual clock are exactly equal to the serial run.  ``oracle_hits``
assertions prove the pool actually executed the region (a silently
idle pool would pass any equality gate).
"""

from __future__ import annotations

import os

import pytest

from repro import FaultPlan, RetryPolicy, Shell
from repro.bench.workloads import access_log, words_text
from repro.obs.metrics import MetricsRegistry
from repro.parallel_host import shutdown_global_pool
from repro.parallel_host.pool import PoolConfig, WorkerPool
from repro.vos.machines import laptop

WORDS = words_text(300_000, seed=3)
LOG = access_log(2_000, seed=11)
NO_NEWLINE = WORDS[:-1] + b"tail-without-newline"

SPELL = "cat /w.txt | tr -cs A-Za-z '\\n' | sort | uniq"
SCRIPTS = (
    SPELL,
    "cat /w.txt | tr a-z A-Z | sort",
    "cat /w.txt | tr -d aeiou | tr -s ' ' | sort -u",
    "sort -r /w.txt | uniq",
    "cat /w.txt | tr -cs A-Za-z '\\n' | sort | uniq > /out.txt; "
    "wc -l /out.txt",
)


@pytest.fixture(autouse=True)
def pool_env(monkeypatch):
    """Every test runs with the ship-volume gate disarmed (the corpora
    here are far below the production 4 MiB floor) and multi-part
    splitting forced (the host cap would otherwise collapse to one part
    per wave on single-core CI machines, leaving the merge discipline
    untested).  The global pool is torn down around each test so
    env-sensitive pool state (shuffle hooks, retry budgets) never leaks
    between tests."""
    monkeypatch.setenv("JASH_POOL_MIN_BYTES", "0")
    monkeypatch.setenv("JASH_POOL_PARTS", "4")
    monkeypatch.delenv("JASH_JOBS", raising=False)
    monkeypatch.delenv("JASH_POOL_SHUFFLE", raising=False)
    shutdown_global_pool()
    yield
    shutdown_global_pool()


def run_once(script, jobs=1, data=WORDS, faults=None, metrics=None):
    shell = Shell(laptop(), jobs=jobs, faults=faults, metrics=metrics)
    shell.fs.write_bytes("/w.txt", data)
    result = shell.run(script)
    return shell, result


def assert_identical(script, jobs=4, data=WORDS, require_hits=True):
    _, serial = run_once(script, jobs=1, data=data)
    shell, pooled = run_once(script, jobs=jobs, data=data)
    assert pooled.stdout == serial.stdout
    assert pooled.stderr == serial.stderr
    assert pooled.status == serial.status
    assert pooled.elapsed == serial.elapsed
    if require_hits:
        assert shell.host_coord.stats["oracle_hits"] > 0
    return shell


class TestEqualityGate:
    @pytest.mark.parametrize("script", SCRIPTS)
    def test_jobs4_byte_and_time_identical(self, script):
        assert_identical(script)

    def test_jobs2_and_jobs8(self):
        assert_identical(SPELL, jobs=2)
        assert_identical(SPELL, jobs=8)

    def test_no_trailing_newline(self):
        assert_identical(SPELL, data=NO_NEWLINE)

    def test_binaryish_input(self):
        blob = bytes(range(256)) * 1200
        assert_identical("cat /w.txt | tr -d '\\0' | sort", data=blob)

    def test_log_corpus(self):
        assert_identical("cat /w.txt | tr -s ' ' | sort | uniq", data=LOG)

    def test_redirect_target_outside_pool(self):
        shell = assert_identical(
            "cat /w.txt | tr a-z A-Z | sort > /out.txt; cat /out.txt")
        _, serial = run_once(
            "cat /w.txt | tr a-z A-Z | sort > /out.txt; cat /out.txt")
        assert shell.fs.read_bytes("/out.txt") == serial.stdout

    def test_volume_gate_keeps_small_inputs_off_pool(self, monkeypatch):
        monkeypatch.setenv("JASH_POOL_MIN_BYTES", str(4 << 20))
        shell, pooled = run_once(SPELL, jobs=4)
        _, serial = run_once(SPELL, jobs=1)
        assert pooled.stdout == serial.stdout
        assert pooled.elapsed == serial.elapsed
        assert shell.host_coord.stats["regions_dispatched"] == 0


class TestAdversarialMerge:
    def test_shuffled_completion_order(self, monkeypatch):
        """Results arriving in any order must merge by part index."""
        for seed in ("1", "7", "1234"):
            shutdown_global_pool()
            monkeypatch.setenv("JASH_POOL_SHUFFLE", seed)
            assert_identical(SPELL)
            assert_identical("cat /w.txt | tr -d aeiou | tr -s ' ' | sort")

    def test_reorder_hook_reverses_batches(self):
        _, serial = run_once(SPELL, jobs=1)
        shell = Shell(laptop(), jobs=4)
        shell.fs.write_bytes("/w.txt", WORDS)
        pool = shell.host_coord._ensure_pool()
        pool.reorder_hook = lambda batch: list(reversed(batch))
        pooled = shell.run(SPELL)
        assert pooled.stdout == serial.stdout
        assert pooled.elapsed == serial.elapsed
        assert shell.host_coord.stats["oracle_hits"] > 0

    def test_worker_crash_mid_region_retries(self):
        _, serial = run_once(SPELL, jobs=1)
        shell = Shell(laptop(), jobs=2)
        shell.fs.write_bytes("/w.txt", WORDS)
        shell.host_coord.chaos = "crash"
        pooled = shell.run(SPELL)
        assert pooled.stdout == serial.stdout
        assert pooled.elapsed == serial.elapsed
        stats = shell.host_coord.stats
        assert stats["regions_validated"] == 1, "retry should recover"
        crashes = sum(w["crashes"]
                      for w in shell.host_coord.pool.worker_stats.values())
        assert crashes >= 1, "chaos crash must actually have fired"

    def test_retry_exhausted_degrades_in_process(self):
        """With a zero retry budget a crashed worker fails the region;
        the stage must fall back to in-process execution with identical
        observable behavior (the prefix-stable oracle contract)."""
        _, serial = run_once(SPELL, jobs=1)
        shell = Shell(laptop(), jobs=2)
        shell.host_coord.config.policy = RetryPolicy(max_retries=0,
                                                     timeout_s=60.0)
        shell.fs.write_bytes("/w.txt", WORDS)
        shell.host_coord.chaos = "crash"
        pooled = shell.run(SPELL)
        assert pooled.stdout == serial.stdout
        assert pooled.stderr == serial.stderr
        assert pooled.elapsed == serial.elapsed
        assert shell.host_coord.stats["regions_failed"] == 1


class TestFaultAndMetricsWitnesses:
    def test_fault_counters_match_across_jobs(self):
        """Workers execute zero virtual ops, so an injected fault plan
        must see the exact same op stream — and fire the exact same
        faults — at --jobs 2 as at --jobs 1."""
        plan1 = FaultPlan(seed=7, rate=0.02)
        _, serial = run_once(SPELL, jobs=1, faults=plan1)
        plan2 = FaultPlan(seed=7, rate=0.02)
        _, pooled = run_once(SPELL, jobs=2, faults=plan2)
        assert plan2.ops == plan1.ops
        assert pooled.stdout == serial.stdout
        assert pooled.status == serial.status
        assert pooled.elapsed == serial.elapsed

    def test_pool_counters_go_through_registry_witness(self):
        reg = MetricsRegistry()
        before = MetricsRegistry.total_updates
        shell, _ = run_once(SPELL, jobs=2, metrics=reg)
        assert shell.host_coord.stats["regions_validated"] == 1
        series = {s["name"]: s for s in reg.snapshot()["series"]
                  if s["name"].startswith("pool.")}
        assert series["pool.regions_validated"]["value"] == 1.0
        assert series["pool.oracle_hits"]["value"] > 0
        assert "worker" not in str(series), \
            "per-worker labels are host noise and must stay out"
        assert MetricsRegistry.total_updates > before

    def test_metrics_snapshot_identical_across_reruns(self):
        snaps = []
        for _ in range(2):
            shutdown_global_pool()
            reg = MetricsRegistry()
            run_once(SPELL, jobs=2, metrics=reg)
            snaps.append(repr(reg.snapshot()))
        assert snaps[0] == snaps[1]


class TestPoolUnit:
    def test_owns_rejects_paths_outside_scratch(self, tmp_path):
        pool = WorkerPool(PoolConfig(jobs=1))
        try:
            assert pool.owns(pool.spill_path("x.bin"))
            assert not pool.owns(str(tmp_path / "evil.bin"))
            assert not pool.owns("/etc/passwd")
            # prefix tricks: /tmp/jash-pool-XYZevil is not inside scratch
            assert not pool.owns(pool.scratch + "-evil/x.bin")
        finally:
            pool.close()

    def test_task_round_trip_and_crash_retry(self):
        pool = WorkerPool(PoolConfig(jobs=2))
        try:
            import time as _time

            spill = pool.spill_path("in.bin")
            with open(spill, "wb") as fh:
                fh.write(b"b\na\nb\n")
            task = {"kind": "sort_part", "segments": [(spill, 0, 6)],
                    "out_prefix": pool.spill_path("s0"), "chaos": "crash"}
            tid = pool.submit(task)
            results, failed = pool.wait_for([tid],
                                            _time.monotonic() + 30.0)
            assert not failed
            kind, payload, m = results[0]["part"]
            assert kind == "counts" and payload == {b"a": 1, b"b": 2}
            assert m == 3
        finally:
            pool.close()

    def test_zero_retry_budget_fails_task(self):
        pool = WorkerPool(PoolConfig(
            jobs=1, policy=RetryPolicy(max_retries=0, timeout_s=30.0)))
        try:
            import time as _time

            spill = pool.spill_path("in.bin")
            with open(spill, "wb") as fh:
                fh.write(b"a\n")
            tid = pool.submit({"kind": "sort_part",
                               "segments": [(spill, 0, 2)],
                               "out_prefix": pool.spill_path("s0"),
                               "chaos": "crash"})
            results, failed = pool.wait_for([tid],
                                            _time.monotonic() + 30.0)
            assert results is None and tid in failed
        finally:
            pool.close()

    def test_single_core_cap_and_parts_override(self, monkeypatch):
        shell = Shell(laptop(), jobs=8)
        coord = shell.host_coord
        monkeypatch.delenv("JASH_POOL_PARTS", raising=False)
        cores = os.cpu_count() or 1
        assert coord._n_parts() == min(8, cores)
        monkeypatch.setenv("JASH_POOL_PARTS", "3")
        assert coord._n_parts() == 3


class TestMergeSortedParts:
    """The pool's merge is the in-process counting kernel over whatever
    mix of parts the workers returned."""

    COUNTS = {b"pear": 3, b"apple": 2, b"": 1, b"fig": 1}
    LINES = sorted([b"apple", b"apple", b"kiwi", b"a\rb", b"zoo", b"zoo",
                    b"zoo", b""])
    MORE = sorted(b"%04d" % (i * 7919 % 500) for i in range(900))

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("unique", [False, True])
    @pytest.mark.parametrize("shape", ["counts", "lines", "mixed", "empty"])
    def test_equals_sorted_of_the_expanded_parts(self, shape, reverse,
                                                 unique):
        from repro.parallel_host.kernels import merge_sorted_parts

        parts = {
            "counts": [("counts", self.COUNTS, 7),
                       ("counts", {b"fig": 4, b"zz": 1}, 5)],
            "lines": [("lines", self.LINES, 8), ("lines", self.MORE, 900)],
            "mixed": [("counts", self.COUNTS, 7), ("lines", self.LINES, 8),
                      ("lines", [], 0), ("lines", self.MORE, 900)],
            "empty": [],
        }[shape]
        expanded = [body for kind, payload, _ in parts
                    for body in (payload if kind == "lines" else
                                 [b for b, n in payload.items()
                                  for _ in range(n)])]
        want = sorted(set(expanded) if unique else expanded, reverse=reverse)
        stream, run_ends, n_lines = merge_sorted_parts(parts, reverse, unique)
        assert stream == b"".join(body + b"\n" for body in want)
        assert n_lines == len(expanded) == sum(m for _, _, m in parts)
        # run_ends: the end offset of every run of equal lines, in order
        ends, total, prev = [], 0, None
        for body in want:
            if body != prev and prev is not None:
                ends.append(total)
            total += len(body) + 1
            prev = body
        if want:
            ends.append(total)
        assert list(run_ends) == ends


class TestDetectionGuard:
    def test_analyzer_crash_is_survived_and_recorded(self, monkeypatch):
        from repro.obs import Tracer
        from repro.parallel_host import coordinator

        def boom(*args, **kwargs):
            raise KeyError("analyzer bug")

        monkeypatch.setattr(coordinator, "detect_regions", boom)
        _, serial = run_once(SPELL, jobs=1)
        tracer = Tracer()
        shell = Shell(laptop(), jobs=4, tracer=tracer)
        shell.fs.write_bytes("/w.txt", WORDS)
        pooled = shell.run(SPELL)
        assert (pooled.stdout, pooled.elapsed) == (serial.stdout,
                                                   serial.elapsed)
        assert shell.host_coord.stats["regions_detected"] == 0
        (record,) = [r for r in tracer.records
                     if r.name == "pool.detect_error"]
        assert record.cat == "pool" and record.args == {"error": "KeyError"}


class TestLintJS2260:
    def _analysis(self, text, files=()):
        from repro.analysis import analyze_program
        from repro.parser import parse

        shell = Shell(laptop())
        for path, data in files:
            shell.fs.write_bytes(path, data)
        program = parse(text)
        return program, analyze_program(program, fs=shell.fs)

    def test_warns_when_no_region_is_eligible(self):
        from repro.lint import check_jobs_eligibility

        program, analysis = self._analysis("echo hi; ls")
        diag = check_jobs_eligibility(program, analysis, 4)
        assert diag is not None and diag.code == "JS2260"
        assert "safe_parallel" in diag.message

    def test_silent_when_a_region_clears(self):
        from repro.lint import check_jobs_eligibility

        program, analysis = self._analysis(
            "cat /w.txt | tr a-z A-Z | sort", files=[("/w.txt", WORDS)])
        assert check_jobs_eligibility(program, analysis, 4) is None

    def test_silent_at_jobs_one(self):
        from repro.lint import check_jobs_eligibility

        program, analysis = self._analysis("echo hi")
        assert check_jobs_eligibility(program, analysis, 1) is None


#: statement -> (stage kinds, input_path, single_part), or None when the
#: pool must refuse it.  The accept set decides what ``--jobs`` ships,
#: so it is pinned literally.
ACCEPT_SET = [
    ("cat /w | tr a-z A-Z", (["cat", "tr"], "/w", False)),
    ("cat /w | tr a-z A-Z | tr -d x", (["cat", "tr", "tr"], "/w", False)),
    ("cat /w | tr -cs A-Za-z '\\n' | sort", (["cat", "tr", "sort"], "/w", False)),
    ("cat /w | tr -s a | tr a-z A-Z | sort -u | uniq > /o",
     (["cat", "tr", "tr", "sort", "uniq"], "/w", True)),
    ("cat /w | tr a-z A-Z | sort -r >> /o", (["cat", "tr", "sort"], "/w", False)),
    ("cat /w | sort", (["cat", "sort"], "/w", False)),
    ("cat /w | sort -r | uniq", (["cat", "sort", "uniq"], "/w", False)),
    ("cat /w | sort -u > /o", (["cat", "sort"], "/w", False)),
    ("sort /w", (["sort"], "/w", False)),
    ("sort -r -u /w | uniq >> /o", (["sort", "uniq"], "/w", False)),
    ("sort -ru /w 1> /o", (["sort"], "/w", False)),
    # -- refusals ----------------------------------------------------------
    ("cat /w", None),
    ("cat /w | sort >| /o", None),
    ("cat < /w | sort", None),
    ("sort /w < /x", None),
    ("sort /w > /o > /p", None),
    ("cat /w | sort 2> /e", None),
    ("cat /w > /o | sort", None),
    ("cat /w | sort > $OUT", None),
    ("X=1 cat /w | sort", None),
    ("cat /w | X=1 sort", None),
    ("cat - | sort", None),
    ("cat -n /w | sort", None),
    ("cat /a /b | sort", None),
    ("cat /w | tr a b | tr b c | tr c d", None),
    ("cat /w | tr a", None),
    ("cat /w | sort -k2", None),
    ("cat /w | sort -n", None),
    ("cat /w | sort /x", None),
    ("sort -", None),
    ("sort /a /b", None),
    ("cat /w | tr a b | tr b c | sort | uniq | uniq", None),
    ("cat /w | sort | uniq -c", None),
    ("cat /w | sort | wc -l", None),
    ("cat $F | sort", None),
    ("cat /w | tr \"$A\" b", None),
    ("! cat /w | sort", None),
    ("cat /w | (sort)", None),
    ("grep x /w | sort", None),
]


class TestAcceptSet:
    @pytest.mark.parametrize("text,expected", ACCEPT_SET,
                             ids=[t for t, _ in ACCEPT_SET])
    def test_match_region(self, text, expected):
        from repro.parallel_host.regions import match_region
        from repro.parser import parse_one

        plan = match_region(parse_one(text))
        if expected is None:
            assert plan is None
        else:
            assert plan is not None
            assert ([s.kind for s in plan.stages], plan.input_path,
                    plan.single_part) == expected
