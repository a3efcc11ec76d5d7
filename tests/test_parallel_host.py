"""S21 multi-core execution plane: the --jobs N equality gate.

The worker pool is an *execution* detail, never an observable one:
every test here pins some adversarial condition (part seams, worker
crashes, fault injection, uncountable input) and then asserts the strongest
possible property — stdout bytes, stderr bytes, exit status AND the
virtual clock are exactly equal to the serial run.  ``oracle_hits``
assertions prove the pool actually executed the region (a silently
idle pool would pass any equality gate).
"""

from __future__ import annotations

import os
from array import array
from collections import Counter
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from repro import FaultPlan, Shell
from repro.bench.workloads import access_log, words_text
from repro.commands.filters import tr_block
from repro.commands.sorting import split_bodies
from repro.obs.metrics import MetricsRegistry
from repro.parallel_host import kernels, shutdown_global_pool
from repro.parallel_host.coordinator import (HostCoordinator, RegionState,
                                             merge_counts, sorted_table)
from repro.parallel_host.pool import WorkerPool
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
    untested).  The global pool is torn down around each test so pool
    state (a wave's width, a crashed executor) never leaks between
    tests."""
    monkeypatch.setenv("JASH_POOL_MIN_BYTES", "0")
    monkeypatch.setenv("JASH_POOL_PARTS", "4")
    monkeypatch.delenv("JASH_JOBS", raising=False)
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

    @pytest.mark.parametrize("floor,ships", [(5000, True), (5001, False)])
    def test_file_size_decides_at_the_floor(self, floor, ships):
        """The gate compares the input's size when the run begins with
        the floor; at floor 0 everything ships."""
        from repro.analysis import analyze_program
        from repro.parallel_host import detect_regions
        from repro.parser import parse

        shell = Shell(laptop())
        shell.fs.write_bytes("/w.txt", WORDS[:5000])
        program = parse("cat /w.txt | tr a-z A-Z | sort")
        analysis = analyze_program(program)
        assert len(detect_regions(program, analysis, shell.fs, "/",
                                  floor)) == ships
        assert len(detect_regions(program, analysis, shell.fs, "/", 0)) == 1


#: 20 000 distinct lines: no part's count table is worth finishing
DISTINCT = b"".join(b"%016x\n" % (i * 0x9E3779B97F4A7C15 % (1 << 64))
                    for i in range(20_000))


#: script -> how many of its stages an oracle serves (tr and sort; uniq
#: runs in-process)
HIGH_CARD_SCRIPTS = {"sort /w.txt | uniq": 1,
                     "cat /w.txt | tr a-z A-Z | sort": 2}


class TestHighCardinality:
    """Input the line counter gives up on runs in-process, decided
    before anything ships or, where the ship gate is open or the head
    looked countable, in the one wave — pinned by counts, not by clock."""

    @staticmethod
    def assert_wave_failed(shell, script):
        stats = shell.host_coord.stats
        assert stats["regions_dispatched"] == stats["regions_failed"] == 1
        assert stats["regions_validated"] == 0
        # no second wave, no merge task, no spill detour
        assert stats["tasks"] == shell.host_coord._n_parts()
        # every oracled stage fell back and ran in-process
        assert stats["oracle_hits"] == 0
        assert stats["oracle_fallbacks"] == HIGH_CARD_SCRIPTS[script]

    @pytest.mark.parametrize("script", HIGH_CARD_SCRIPTS)
    def test_part_giving_up_fails_region_in_one_wave(self, script):
        self.assert_wave_failed(assert_identical(
            script, jobs=2, data=DISTINCT, require_hits=False), script)

    @pytest.mark.parametrize("script", HIGH_CARD_SCRIPTS)
    def test_probe_fails_region_before_shipping(self, script, monkeypatch):
        monkeypatch.setenv("JASH_POOL_MIN_BYTES", "1")  # the gate is armed
        shell = assert_identical(script, jobs=2, data=DISTINCT,
                                 require_hits=False)
        stats = shell.host_coord.stats
        assert stats["regions_detected"] == stats["regions_failed"] == 1
        # nothing forked, spilled or handed an oracle
        assert stats["tasks"] == stats["bytes_shipped"] == 0
        assert stats["oracle_hits"] == stats["oracle_fallbacks"] == 0
        assert shell.host_coord.pool is None

    @pytest.mark.parametrize("script", HIGH_CARD_SCRIPTS)
    def test_countable_head_passes_probe_then_parts_give_up(
            self, script, monkeypatch):
        monkeypatch.setenv("JASH_POOL_MIN_BYTES", "1")
        data = b"dup\n" * (kernels.PROBE // 4 + 1) + DISTINCT
        self.assert_wave_failed(assert_identical(
            script, jobs=2, data=data, require_hits=False), script)

    def test_duplicate_heavy_large_table_still_ships(self):
        """The give-up rule is LineCounter's own (over half the lines
        distinct), not a table-size cap: 10 000 distinct words per part,
        each three times, are counted and shipped."""
        data = b"".join(b"w%05d\n" % (i // 3) for i in range(120_000))
        shell = assert_identical("sort /w.txt | uniq", jobs=2, data=data)
        assert shell.host_coord.stats["regions_validated"] == 1


class TestAdversarialMerge:
    """Workers dying under a region (completion *order* is no longer an
    adversary: results are keyed by future)."""

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
        assert shell.host_coord.pool.crashes >= 1, \
            "chaos crash must actually have fired"

    def test_retry_exhausted_degrades_in_process(self):
        """With a zero retry budget a crashed worker fails the region;
        the stage must fall back to in-process execution with identical
        observable behavior (the prefix-stable oracle contract)."""
        _, serial = run_once(SPELL, jobs=1)
        shell = Shell(laptop(), jobs=2)
        shell.host_coord.retries = 0
        shell.fs.write_bytes("/w.txt", WORDS)
        shell.host_coord.chaos = "crash"
        pooled = shell.run(SPELL)
        assert pooled.stdout == serial.stdout
        assert pooled.stderr == serial.stderr
        assert pooled.elapsed == serial.elapsed
        assert shell.host_coord.stats["regions_failed"] == 1
        assert shell.host_coord.pool.crashes == 1


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
        pool = WorkerPool()
        try:
            assert pool.owns(pool.spill_path("x.bin"))
            assert not pool.owns(str(tmp_path / "evil.bin"))
            assert not pool.owns("/etc/passwd")
            # prefix tricks: /tmp/jash-pool-XYZevil is not inside scratch
            assert not pool.owns(pool.scratch + "-evil/x.bin")
        finally:
            pool.close()

    @staticmethod
    def _wave(pool, data, **extra):
        """One sort-only part task over ``data``, submitted."""
        spill = pool.spill_path("in.bin")
        with open(spill, "wb") as fh:
            fh.write(data)
        return pool.submit([{"in_path": spill, "a": 0, "b": len(data),
                             "chain": [], "sort": True,
                             "out_prefix": pool.spill_path("p0"), **extra}])

    def test_task_round_trip_and_crash_retry(self):
        pool = WorkerPool()
        try:
            wave = self._wave(pool, b"b\na\nb\n", chaos="crash")
            results = pool.collect(wave, retries=1)
            assert results is not None and pool.crashes == 1
            (result,) = results
            assert result["streams"] == [] and result["count"] == (
                {b"a": 1, b"b": 1}, b"b\n", b"")
            table = merge_counts([result["count"]], [0])
            assert table == {b"a": 1, b"b": 2}
            assert sum(table.values()) == 3
        finally:
            pool.close()

    def test_zero_retry_budget_fails_task(self):
        pool = WorkerPool()
        try:
            wave = self._wave(pool, b"a\n", chaos="crash")
            assert pool.collect(wave, retries=0) is None
            assert pool.crashes == 1
        finally:
            pool.close()

    def test_raising_task_fails_wave_without_retry(self):
        pool = WorkerPool()
        try:
            wave = self._wave(pool, b"a\n",
                              in_path=pool.spill_path("missing.bin"))
            assert pool.collect(wave, retries=1) is None
            assert pool.crashes == 0
        finally:
            pool.close()

    def test_watchdog_expiry_fails_wave_and_abandons_the_task(
            self, monkeypatch):
        from repro.parallel_host import pool as pool_module

        pool = WorkerPool()
        try:
            wave = self._wave(pool, b"to\nbe\nor\nnot\n" * 50_000)
            monkeypatch.setattr(pool_module, "WATCHDOG_S", 0.0)
            assert pool.collect(wave, retries=1) is None
            assert pool.crashes == 0
            # not killed: the task runs on, and its future still answers
            monkeypatch.setattr(pool_module, "WATCHDOG_S", 30.0)
            (result,) = pool.collect(wave, retries=0)
            assert merge_counts([result["count"]], [0]) == dict.fromkeys(
                (b"to", b"be", b"or", b"not"), 50_000)
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
    """The pool's merge is the in-process counting kernel over the
    parts' count tables, seam lines stitched in."""

    COUNTS = {b"pear": 3, b"apple": 2, b"": 1, b"fig": 1}

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("unique", [False, True])
    @pytest.mark.parametrize("shape", ["counts", "empty"])
    def test_equals_sorted_of_the_expanded_parts(self, shape, reverse,
                                                 unique):
        parts = {
            "counts": [(self.COUNTS, b"zoo\n", b"fi"),
                       ({b"fig": 4, b"zz": 1}, b"g\n", b"")],
            "empty": [],
        }[shape]
        expanded = [body for table, _, _ in parts
                    for body, n in table.items() for _ in range(n)]
        if parts:
            expanded += [b"zoo", b"fig"]  # the first head, the seam line
        want = sorted(set(expanded) if unique else expanded, reverse=reverse)
        stream, n_lines = sorted_table(
            merge_counts(parts, [0] * len(parts)), reverse, unique)
        assert stream == b"".join(body + b"\n" for body in want)
        assert n_lines == len(expanded)


#: tr chains the part merge must stitch; only a final stage may squeeze
#: when there is more than one part (detection's ``single_part``)
CHAINS = (
    ("tr ab AB",),
    ("tr -d a",),
    ("tr -s 'a\\n'",),
    ("tr -cs ab '\\n'",),
    ("tr -d a", "tr -s 'b\\n'"),
)
STEP = 8  # GRID_STEP for the merge tests: a seam every few bytes


def merge_in_parts(data: bytes, chain: tuple, cuts: list[int]):
    """``kernels.run_task`` per part (in this process) and the
    coordinator's own ``_merge``: the merged RegionState."""
    from repro.parallel_host.regions import match_region
    from repro.parser import parse_one

    plan = match_region(parse_one(f"cat /w | {' | '.join(chain)} | sort"))
    coord = HostCoordinator(jobs=2)
    pool = coord.pool = WorkerPool()
    try:
        with open(pool.spill_path("in.bin"), "wb") as fh:
            fh.write(data)
        state = RegionState(plan, 0)
        state.snapshot = data
        bounds = [0] + sorted({c * STEP for c in cuts if c * STEP < len(data)})
        state.ranges = list(zip(bounds, bounds[1:] + [len(data)]))
        with mock.patch.object(kernels, "GRID_STEP", STEP):
            results = [kernels.run_task(
                {"in_path": pool.spill_path("in.bin"), "a": a, "b": b,
                 "chain": plan.tr_chain, "sort": True,
                 "out_prefix": pool.spill_path(f"p{k}")})
                for k, (a, b) in enumerate(state.ranges)]
            assert coord._merge(state, results)
    finally:
        pool.close()
    return state


def check_merge(data: bytes, chain: tuple, cuts: list[int]) -> None:
    state = merge_in_parts(data, chain, cuts)
    stream = data
    for spec, merged, (in_offs, out_offs) in zip(
            state.plan.tr_chain, state.streams, state.grids):
        serial, _ = tr_block(stream, spec, -1)
        assert merged == serial
        # every table entry maps an input prefix to its serial output
        assert in_offs[-1] == len(stream) and out_offs[-1] == len(serial)
        for a, b in zip(in_offs, out_offs):
            assert len(tr_block(stream[:a], spec, -1)[0]) == b
        stream = serial
    lines = split_bodies(stream)
    assert state.n_lines == len(lines)
    assert state.sorted_stream == b"".join(
        body + b"\n" for body in sorted(lines))
    # the table itself, straight from the parts of the final stage
    assert Counter(split_bodies(state.sorted_stream)) == Counter(lines)


class TestPartMerge:
    @settings(max_examples=150, deadline=None)
    @given(data=st.binary(max_size=120).map(
               lambda raw: bytes(b"ab \n"[c % 4] for c in raw)),
           chain=st.sampled_from(CHAINS),
           cuts=st.lists(st.integers(1, 14), min_size=1, max_size=5))
    # a part with no newline carries through two seams
    @example(data=b"aa\nbbbbbbbbbbbbbbbbbbbbbbbbbb\nab\n",
             chain=CHAINS[0], cuts=[1, 2, 3])
    # a squeezed newline lands on the seam: part 2 starts with the run
    @example(data=b"ab ab a\n\n\nb a\n", chain=CHAINS[2], cuts=[1])
    @example(data=b"ab ab  \n  \nb a\n", chain=CHAINS[3], cuts=[1])
    # an empty part: everything in [8, 16) is deleted
    @example(data=b"b\nb b b\naaaaaaaab\nb\n", chain=CHAINS[1], cuts=[1, 2])
    @example(data=b"b\nb b bbaaaaaaaabbb\n", chain=CHAINS[4], cuts=[1, 2])
    # no trailing newline, and no newline at all
    @example(data=b"a b\nb a\nab ab ab ab", chain=CHAINS[0], cuts=[1, 2])
    @example(data=b"abababababababababab", chain=CHAINS[1], cuts=[1, 2])
    @example(data=b"", chain=CHAINS[0], cuts=[1])
    def test_parts_merge_to_the_serial_streams(self, data, chain, cuts):
        check_merge(data, chain, cuts)

    def test_merge_counts_seams(self):
        # tail + head make the seam line; a newline-free part extends it
        assert merge_counts([({b"x": 2}, b"he\n", b"wo"),
                             ({}, b"rl", None),
                             ({b"y": 1}, b"d\n", b"end")], [0, 0, 0]) == {
            b"x": 2, b"he": 1, b"world": 1, b"y": 1, b"end": 1}
        # the second part's leading newline was squeezed into the first
        # part's last byte: it ends no line
        assert merge_counts([({}, b"a\n", b""), ({b"b": 1}, b"\n", b"")],
                            [0, 1]) == {b"a": 1, b"b": 1}
        # untrimmed, the same head is an empty line
        assert merge_counts([({}, b"a\n", b""), ({b"b": 1}, b"\n", b"")],
                            [0, 0]) == {b"a": 1, b"": 1, b"b": 1}
        assert merge_counts([], []) == {}

    def test_rejects_path_outside_scratch_and_short_spill(self, tmp_path):
        state = merge_in_parts(b"ab\nab\n", CHAINS[0], [])
        coord = HostCoordinator(jobs=2)
        pool = coord.pool = WorkerPool()
        try:
            outside = tmp_path / "p0.s0"
            outside.write_bytes(b"AB\nAB\n")
            result = {"streams": [str(outside)], "lens": [6],
                      "grids": [array("q", [0, 6]).tobytes()],
                      "count": ({b"AB": 1}, b"AB\n", b"")}
            fresh = RegionState(state.plan, 1)
            fresh.ranges = [(0, 6)]
            assert not coord._merge(fresh, [result])
            inside = pool.spill_path("p0.s0")
            with open(inside, "wb") as fh:
                fh.write(b"AB\nA")  # shorter than the worker reported
            assert not coord._merge(fresh, [dict(result, streams=[inside])])
            with open(inside, "wb") as fh:
                fh.write(b"AB\nAB\n")
            assert coord._merge(fresh, [dict(result, streams=[inside])])
            assert fresh.sorted_stream == b"AB\nAB\n"
        finally:
            pool.close()


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
    def _analysis(self, text):
        from repro.analysis import analyze_program
        from repro.parser import parse

        program = parse(text)
        return program, analyze_program(program)

    def test_warns_when_no_region_is_eligible(self):
        from repro.lint import check_jobs_eligibility

        program, analysis = self._analysis("echo hi; ls")
        diag = check_jobs_eligibility(program, analysis, 4)
        assert diag is not None and diag.code == "JS2260"
        assert "safe_parallel" in diag.message

    def test_silent_when_a_region_clears(self):
        from repro.lint import check_jobs_eligibility

        program, analysis = self._analysis("cat /w.txt | tr a-z A-Z | sort")
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
    ("cat /w | sort >| /o", (["cat", "sort"], "/w", False)),
    # -- refusals ----------------------------------------------------------
    ("cat /w", None),
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


#: a nested command list ahead of the region: the statement report then
#: has more entries than the script has top-level statements
NESTED_LIST = "if true; then echo a; echo b; fi\n"
ACCEPTED = [text for text, expected in ACCEPT_SET if expected is not None]


class TestDetection:
    @pytest.mark.parametrize("prefix", ["", NESTED_LIST],
                             ids=["alone", "behind-if"])
    @pytest.mark.parametrize("text", ACCEPTED, ids=ACCEPTED)
    def test_accepted_statement_ships_at_floor_zero(self, text, prefix):
        from repro.analysis import analyze_program
        from repro.parallel_host import detect_regions
        from repro.parser import parse

        shell = Shell(laptop())
        shell.fs.write_bytes("/w", b"b\na\n")
        program = parse(prefix + text)
        (plan,) = detect_regions(program, analyze_program(program),
                                 shell.fs, "/", 0)
        assert plan.input_path == "/w"

    @pytest.mark.parametrize("text", [t for t in ACCEPTED if ">" in t])
    def test_redirect_target_is_a_declared_write(self, text):
        """Why ``detect_regions`` has no write-set gate: every redirect
        form the grammar accepts (``>``, ``>>``, ``1>``) is already in
        the statement's write set."""
        from repro.analysis import EffectAnalyzer
        from repro.analysis.paths import literal
        from repro.parallel_host.regions import match_region
        from repro.parser import parse_one

        node = parse_one(text)
        plan = match_region(node)
        assert literal(plan.stdout_file) in \
            EffectAnalyzer().compute(node).writes

    def test_region_behind_nested_list_runs_on_the_pool(self):
        script = NESTED_LIST + "cat /w.txt | tr a-z A-Z | sort > /out.txt"
        serial_shell, _ = run_once(script, jobs=1)
        shell = assert_identical(script, jobs=2)
        assert shell.fs.read_bytes("/out.txt") == \
            serial_shell.fs.read_bytes("/out.txt")
        stats = shell.host_coord.stats
        assert stats["regions_detected"] == stats["regions_dispatched"] == 1
