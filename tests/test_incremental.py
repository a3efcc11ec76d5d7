"""Incremental computation framework tests: replay, append-only delta,
invalidation, purity/region gating, cache mechanics."""

import pytest

from repro.bench import access_log
from repro.incremental import (
    IncrementalCache,
    IncrementalConfig,
    IncrementalOptimizer,
    digest,
    region_key,
)
from repro.incremental.cache import CacheEntry
from repro.shell import Shell
from repro.vos.machines import aws_c5_2xlarge_gp3

from .conftest import fast_machine


@pytest.fixture
def inc_shell():
    inc = IncrementalOptimizer(
        IncrementalConfig(min_input_bytes=16)
    )
    shell = Shell(fast_machine(), optimizer=inc)
    shell.optimizer_hook = inc
    return shell


LOG = b"".join(
    b"host%d %s request%d\n" % (i % 5, b"ERROR" if i % 9 == 0 else b"INFO", i)
    for i in range(2000)
)


def _grow(shell, extra, path="/log"):
    node = shell.fs.files[path]
    node.data.extend(extra)
    node.mtime = shell.kernel.now + 5


def _fresh(shell, script, path="/log"):
    fresh = Shell(fast_machine())
    fresh.fs.write_bytes(path, bytes(shell.fs.files[path].data))
    return fresh.run(script)


class TestReplay:
    def test_second_run_replayed(self, inc_shell):
        inc_shell.fs.write_bytes("/log", LOG)
        script = "grep ERROR /log | wc -l > /out"
        r1 = inc_shell.run(script)
        r2 = inc_shell.run(script)
        assert r1.status == r2.status == 0
        assert inc_shell.optimizer_hook.events[-1].decision == "replayed"
        assert inc_shell.fs.read_bytes("/out").strip().isdigit()

    def test_replay_faster(self, inc_shell):
        inc_shell.fs.write_bytes("/log", LOG)
        script = "cat /log | sort > /out"
        r1 = inc_shell.run(script)
        r2 = inc_shell.run(script)
        assert r2.elapsed < r1.elapsed

    def test_replay_to_stdout(self, inc_shell):
        inc_shell.fs.write_bytes("/log", LOG)
        r1 = inc_shell.run("grep -c ERROR /log")
        r2 = inc_shell.run("grep -c ERROR /log")
        assert r1.stdout == r2.stdout

    def test_different_args_not_replayed(self, inc_shell):
        inc_shell.fs.write_bytes("/log", LOG)
        inc_shell.run("grep ERROR /log > /o1")
        inc_shell.run("grep INFO /log > /o2")
        decisions = [e.decision for e in inc_shell.optimizer_hook.events]
        assert decisions.count("computed") == 2

    def test_changed_input_invalidates(self, inc_shell):
        inc_shell.fs.write_bytes("/log", LOG)
        inc_shell.run("grep -c ERROR /log > /out")
        # rewrite with different content (different size -> new key)
        inc_shell.fs.write_bytes("/log", LOG + b"extra ERROR line\n",
                                 mtime=inc_shell.kernel.now + 1)
        inc_shell.run("grep -c ERROR /log > /out")
        last = inc_shell.optimizer_hook.events[-1]
        assert last.decision in ("computed", "extended")


class TestAppendOnlyDelta:
    def test_extends_stateless_region(self, inc_shell):
        inc_shell.fs.write_bytes("/log", LOG)
        script = "grep ERROR /log > /out"
        inc_shell.run(script)
        node = inc_shell.fs.files["/log"]
        node.data.extend(b"hostX ERROR appended\n" * 10)
        node.mtime = inc_shell.kernel.now + 5
        inc_shell.run(script)
        assert inc_shell.optimizer_hook.events[-1].decision == "extended"
        out = inc_shell.fs.read_bytes("/out")
        assert out.count(b"appended") == 10
        # correctness vs fresh computation
        fresh = Shell(fast_machine())
        fresh.fs.write_bytes("/log", bytes(node.data))
        fresh.run(script)
        assert fresh.fs.read_bytes("/out") == out

    def test_sort_region_extended_by_merge(self, inc_shell):
        # sort is not stateless, but its PaSh aggregator (sort -m) can
        # fold the sorted suffix into the cached sorted prefix
        inc_shell.fs.write_bytes("/log", LOG)
        script = "cat /log | sort > /out"
        inc_shell.run(script)
        node = inc_shell.fs.files["/log"]
        node.data.extend(b"aaa first line\n")
        node.mtime = inc_shell.kernel.now + 5
        inc_shell.run(script)
        ev = inc_shell.optimizer_hook.events[-1]
        assert ev.decision == "extended"
        assert "sort_merge" in ev.reason
        assert ev.saved_bytes == len(LOG)
        assert inc_shell.fs.read_bytes("/out").startswith(b"aaa")
        fresh = Shell(fast_machine())
        fresh.fs.write_bytes("/log", bytes(node.data))
        fresh.run(script)
        assert fresh.fs.read_bytes("/out") == inc_shell.fs.read_bytes("/out")

    def test_in_place_edit_not_treated_as_append(self, inc_shell):
        inc_shell.fs.write_bytes("/log", LOG)
        script = "grep ERROR /log > /out"
        inc_shell.run(script)
        # grow the file but also corrupt the prefix
        node = inc_shell.fs.files["/log"]
        node.data[0:4] = b"XXXX"
        node.data.extend(b"more\n")
        node.mtime = inc_shell.kernel.now + 5
        inc_shell.run(script)
        assert inc_shell.optimizer_hook.events[-1].decision == "computed"


class TestGating:
    def test_impure_region_interpreted(self, inc_shell):
        inc_shell.fs.write_bytes("/log", LOG)
        r = inc_shell.run("grep ERROR $(echo /log)")
        assert r.status == 0
        events = inc_shell.optimizer_hook.events
        assert all(e.decision == "interpreted" for e in events if e.node_text)

    def test_small_input_skipped(self):
        inc = IncrementalOptimizer()  # default 4096-byte floor
        shell = Shell(fast_machine(), optimizer=inc)
        shell.fs.write_bytes("/f", b"tiny\n")
        shell.run("grep t /f > /o")
        assert all(e.decision == "interpreted" for e in inc.events)

    def test_side_effectful_not_cached(self, inc_shell):
        inc_shell.fs.write_bytes("/log", LOG)
        r = inc_shell.run("cat /log | tee /copy > /out")
        assert r.status == 0
        # the tee-containing region must not be cached (inner pure stages
        # like the bare `cat /log` may be — that is sound)
        tee_events = [e for e in inc_shell.optimizer_hook.events
                      if "tee" in e.node_text]
        assert tee_events
        assert all(e.decision == "interpreted" for e in tee_events)
        assert inc_shell.fs.read_bytes("/copy") == LOG

    def test_pipe_input_not_cached(self, inc_shell):
        r = inc_shell.run("seq 100 | wc -l")
        assert r.stdout.strip() == b"100"


class TestCacheMechanics:
    def test_eviction(self):
        cache = IncrementalCache(capacity_bytes=100)
        for i in range(10):
            cache.put(CacheEntry(f"k{i}", b"x" * 30, 0), f"sig{i}")
        assert cache.size_bytes <= 100

    def test_region_key_sensitive_to_argv(self):
        k1 = region_key([["grep", "a"]], ["fp1"])
        k2 = region_key([["grep", "b"]], ["fp1"])
        k3 = region_key([["grep", "a"]], ["fp2"])
        assert len({k1, k2, k3}) == 3

    def test_region_key_injective_on_boundaries(self):
        # ["ab","c"] must differ from ["a","bc"]
        assert region_key([["ab", "c"]], []) != region_key([["a", "bc"]], [])

    def test_digest(self):
        assert digest(b"x") != digest(b"y")
        assert digest(b"same") == digest(b"same")

    def test_stats(self):
        cache = IncrementalCache()
        cache.get("missing")
        cache.put(CacheEntry("k", b"v", 0), "sig")
        cache.get("k")
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["entries"] == 1


class TestCacheRobustness:
    """Truncated/corrupted cache state must never reach pipeline output."""

    def _shell(self):
        from repro.obs import Tracer

        inc = IncrementalOptimizer(IncrementalConfig(min_input_bytes=16))
        shell = Shell(fast_machine(), optimizer=inc, tracer=Tracer())
        shell.optimizer_hook = inc
        return shell

    def test_corrupted_entry_recomputed_not_replayed(self):
        shell = self._shell()
        shell.fs.write_bytes("/log", LOG)
        script = "grep ERROR /log | wc -l"
        good = shell.run(script)
        # corrupt every cached output in place (bit rot)
        inc = shell.optimizer_hook
        for entry in inc.cache.entries.values():
            entry.output = b"garbage" + entry.output[7:]
        again = shell.run(script)
        assert again.stdout == good.stdout  # recomputed, not stale bytes
        assert inc.events[-1].decision == "computed"
        assert inc.cache.stats()["invalidated"] >= 1

    def test_cache_invalid_event_traced(self):
        shell = self._shell()
        shell.fs.write_bytes("/log", LOG)
        shell.run("grep ERROR /log | wc -l")
        for entry in shell.optimizer_hook.cache.entries.values():
            entry.output = entry.output + b"!"
        shell.run("grep ERROR /log | wc -l")
        names = [r.name for r in shell.tracer.records]
        assert "inc.cache_invalid" in names

    def test_invalidate_mechanics(self):
        cache = IncrementalCache()
        cache.put(CacheEntry("k", b"v", 0, input_paths=["/a"]), "sig")
        assert cache.latest("sig", ["/a"]) is not None
        cache.invalidate("k")
        assert cache.get("k") is None
        assert cache.latest("sig", ["/a"]) is None
        assert cache.stats()["invalidated"] == 1
        assert cache.size_bytes == 0

    def test_prefix_hasher_chains(self):
        from repro.incremental import PrefixHasher

        h = PrefixHasher.seeded(b"abc")
        h2 = h.copy().advance(b"def")
        assert h2.hexdigest() == digest(b"abcdef")
        assert h2.length == 6
        assert h.hexdigest() == digest(b"abc")  # copy did not mutate

    def test_mangled_snapshot_entry_skipped(self, tmp_path):
        from repro.supervise import load_cache, save_cache

        cache = IncrementalCache()
        cache.put(CacheEntry("k1", b"payload-one", 0, input_paths=["/a"]),
                  "sig1")
        cache.put(CacheEntry("k2", b"payload-two", 0, input_paths=["/b"]),
                  "sig2")
        save_cache(str(tmp_path), cache)
        path = tmp_path / "cache.bin"
        raw = path.read_bytes()
        path.write_bytes(raw.replace(b"payload-one", b"paYload-one"))
        loaded = load_cache(str(tmp_path))
        assert "k1" not in loaded.entries  # digest mismatch: dropped
        assert loaded.entries["k2"].output == b"payload-two"

    def test_truncated_snapshot_stops_at_last_complete_entry(self, tmp_path):
        from repro.supervise import load_cache, save_cache

        cache = IncrementalCache()
        cache.put(CacheEntry("k1", b"A" * 64, 0), "sig1")
        cache.put(CacheEntry("k2", b"B" * 64, 0), "sig2")
        save_cache(str(tmp_path), cache)
        path = tmp_path / "cache.bin"
        raw = path.read_bytes()
        # truncate mid-way through the second entry's payload
        path.write_bytes(raw[: raw.find(b"B" * 64) + 10])
        loaded = load_cache(str(tmp_path))
        assert len(loaded.entries) == 1
        assert all(e.verify_output() for e in loaded.entries.values())

    def test_snapshot_roundtrip_preserves_delta_lookup(self, tmp_path):
        from repro.supervise import load_cache, save_cache

        shell = self._shell()
        shell.fs.write_bytes("/log", LOG)
        shell.run("grep ERROR /log | wc -l")
        save_cache(str(tmp_path), shell.optimizer_hook.cache)
        loaded = load_cache(str(tmp_path))
        original = shell.optimizer_hook.cache
        assert set(loaded.entries) == set(original.entries)
        assert loaded.latest_for_paths == original.latest_for_paths
        assert loaded.size_bytes == original.size_bytes


class TestSampledDeltaVerify:
    """delta_verify='sampled': O(delta) append validation for streaming."""

    def _shell(self):
        inc = IncrementalOptimizer(IncrementalConfig(
            min_input_bytes=16, delta_verify="sampled",
            spot_check_bytes=64))
        shell = Shell(fast_machine(), optimizer=inc)
        shell.optimizer_hook = inc
        return shell

    def test_append_extends(self):
        shell = self._shell()
        shell.fs.write_bytes("/log", LOG)
        shell.run("grep INFO /log > /out")
        node = shell.fs.open_node("/log")
        node.data.extend(b"host1 INFO request-late\n")
        node.mtime = shell.kernel.now + 1.0
        shell.run("grep INFO /log > /out")
        assert shell.optimizer_hook.events[-1].decision == "extended"
        assert shell.fs.read_bytes("/out").endswith(b"request-late\n")

    def test_boundary_edit_caught(self):
        shell = self._shell()
        shell.fs.write_bytes("/log", LOG)
        shell.run("grep request /log > /out")
        node = shell.fs.open_node("/log")
        # flip a byte just before the old end (inside the tail window),
        # then append: NOT a pure append, and the spot check sees it
        node.data[len(LOG) - 2] = ord(b"@")
        node.data.extend(b"extra request bytes\n")
        node.mtime = shell.kernel.now + 1.0
        shell.run("grep request /log > /out")
        assert shell.optimizer_hook.events[-1].decision == "computed"
        out = shell.fs.read_bytes("/out")
        assert out.endswith(b"extra request bytes\n")
        assert b"@\n" in out  # recompute saw the boundary edit

    def test_head_edit_caught(self):
        shell = self._shell()
        shell.fs.write_bytes("/log", LOG)
        shell.run("grep request /log > /out")
        node = shell.fs.open_node("/log")
        node.data[0] = ord(b"@")
        node.data.extend(b"extra request bytes\n")
        node.mtime = shell.kernel.now + 1.0
        shell.run("grep request /log > /out")
        assert shell.optimizer_hook.events[-1].decision == "computed"

    def test_validation_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="delta_verify"):
            IncrementalConfig(delta_verify="yolo")


class TestAggregatorDelta:
    """Aggregator-merge deltas: a stateless prefix feeding one
    parallelizable-pure final stage extends via the stage's PaSh
    aggregator instead of recomputing the whole region."""

    def test_wc_sum_merge(self, inc_shell):
        script = "cat /log | grep INFO | wc -l"
        inc_shell.fs.write_bytes("/log", LOG)
        inc_shell.run(script)
        _grow(inc_shell, b"late INFO line\nlate ERROR line\n" * 40)
        got = inc_shell.run(script)
        ev = inc_shell.optimizer_hook.events[-1]
        assert ev.decision == "extended" and "sum" in ev.reason
        assert got.stdout == _fresh(inc_shell, script).stdout

    def test_uniq_rerun_merge_handles_boundary_dupes(self, inc_shell):
        script = "grep host0 /log | uniq"
        inc_shell.fs.write_bytes("/log", b"host0 x\nhost0 x\nhost1 y\n" * 400)
        inc_shell.run(script)
        # the appended suffix starts with the line the prefix ended on:
        # the rerun aggregator must deduplicate across the seam
        _grow(inc_shell, b"host0 x\nhost0 z\n" * 10)
        got = inc_shell.run(script)
        ev = inc_shell.optimizer_hook.events[-1]
        assert ev.decision == "extended" and "rerun" in ev.reason
        assert got.stdout == _fresh(inc_shell, script).stdout

    def test_non_mergeable_final_stage_recomputed(self, inc_shell):
        # uniq -c needs cross-chunk state: no aggregator, full recompute
        script = "cat /log | uniq -c"
        inc_shell.fs.write_bytes("/log", LOG)
        inc_shell.run(script)
        _grow(inc_shell, b"tail line\n" * 20)
        got = inc_shell.run(script)
        assert inc_shell.optimizer_hook.events[-1].decision == "computed"
        assert got.stdout == _fresh(inc_shell, script).stdout

    def test_non_stateless_prefix_recomputed(self, inc_shell):
        # the merge is only sound when everything before the final
        # stage is stateless; sort mid-pipeline disqualifies the region
        script = "cat /log | sort | grep host1"
        inc_shell.fs.write_bytes("/log", LOG)
        inc_shell.run(script)
        _grow(inc_shell, b"host1 straggler\n" * 20)
        got = inc_shell.run(script)
        assert inc_shell.optimizer_hook.events[-1].decision == "computed"
        assert got.stdout == _fresh(inc_shell, script).stdout

    def test_merge_temp_files_cleaned_up(self, inc_shell):
        script = "cat /log | sort > /out"
        inc_shell.fs.write_bytes("/log", LOG)
        inc_shell.run(script)
        _grow(inc_shell, b"zzz\n" * 10)
        inc_shell.run(script)
        assert inc_shell.optimizer_hook.events[-1].decision == "extended"
        assert not [p for p in inc_shell.fs.files if ".inc-merge" in p]


class TestFaultTaintedResults:
    def test_faulted_attempt_result_not_cached(self):
        """A write torn mid-region leaves truncated output — it must
        not enter the cache under any status, or a retry would
        digest-replay the poison (found by the S18 chaos campaign,
        storm seed 57)."""
        from repro import FaultPlan

        plan = FaultPlan(seed=1, rate=1.0, kinds=("partial-write",),
                         max_faults=1)
        inc = IncrementalOptimizer(IncrementalConfig(min_input_bytes=16))
        shell = Shell(fast_machine(), optimizer=inc, faults=plan)
        shell.optimizer_hook = inc
        shell.fs.write_bytes("/log", LOG)
        script = "cat /log | tr a-z A-Z | grep -v ERROR"
        first = shell.run(script)
        assert shell.kernel.faults.fired == 1
        # whatever the torn run produced, none of it was cached ...
        assert not inc.cache.entries
        assert any("not cached" in e.reason for e in inc.events)
        # ... so the retry (fault budget spent) recomputes the answer
        second = shell.run(script)
        fresh = Shell(fast_machine())
        fresh.fs.write_bytes("/log", LOG)
        assert second.stdout == fresh.run(script).stdout
        assert len(second.stdout) > len(first.stdout)


class TestExtendedStatus:
    """An extended region's exit status is the region's, not the
    suffix's: the cached prefix and the suffix are two copies of the
    last stage (``compiler.runtime.copies_status``)."""

    SCRIPT = "grep ERROR /log"

    def test_no_match_in_the_append_keeps_status_0(self, inc_shell):
        inc_shell.fs.write_bytes("/log", LOG)
        assert inc_shell.run(self.SCRIPT).status == 0
        _grow(inc_shell, b"hostX INFO late\n" * 10)
        got = inc_shell.run(self.SCRIPT)
        inc = inc_shell.optimizer_hook
        assert inc.events[-1].decision == "extended"
        assert got.status == 0
        want = _fresh(inc_shell, self.SCRIPT)
        assert (got.status, got.stdout) == (want.status, want.stdout)
        # and 0 is what was stored: a replay returns it
        assert inc_shell.run(self.SCRIPT).status == 0
        assert inc.events[-1].decision == "replayed"

    def test_match_only_in_the_append_turns_status_0(self, inc_shell):
        inc_shell.fs.write_bytes("/log", LOG.replace(b"ERROR", b"INFO"))
        assert inc_shell.run(self.SCRIPT).status == 1
        _grow(inc_shell, b"hostX ERROR late\n")
        got = inc_shell.run(self.SCRIPT)
        assert inc_shell.optimizer_hook.events[-1].decision == "extended"
        want = _fresh(inc_shell, self.SCRIPT)
        assert (got.status, got.stdout) == (want.status, want.stdout) \
            == (0, b"hostX ERROR late\n")
        assert inc_shell.run(self.SCRIPT).status == 0
        assert inc_shell.optimizer_hook.events[-1].decision == "replayed"

    def test_fault_in_the_suffix_propagates_and_is_not_stored(self):
        from repro import FaultPlan, FaultSpec

        # only the suffix plan has a range reader, and in `cat /log` it
        # is the last stage: its death is the suffix's status
        inc = IncrementalOptimizer(IncrementalConfig(min_input_bytes=16))
        shell = Shell(fast_machine(), optimizer=inc, faults=FaultPlan(
            specs=[FaultSpec("disk-error", at=0.0, proc="dfg:range_read")]))
        shell.fs.write_bytes("/log", LOG)
        assert shell.run("cat /log").status == 0
        stored = dict(inc.cache.entries)
        _grow(shell, b"hostX ERROR late\n" * 10)
        got = shell.run("cat /log")
        assert inc.events[-1].decision == "extended"
        assert shell.kernel.faults.fired == 1
        assert got.status == 74
        assert inc.cache.entries == stored


#: one region per aggregator kind; each reads the field the torn line tears
KIND_REGIONS = ["grep ERROR /log", "cut -d' ' -f3 /log | sort",
                "cat /log | wc -l", "cat /log | cut -d' ' -f3 | uniq"]


@pytest.mark.parametrize("delta_verify", ["full", "sampled"])
@pytest.mark.parametrize("script", KIND_REGIONS)
class TestTornPrefix:
    """A cached input whose last line had no newline is not a prefix of
    what the append makes of it: the region recomputes."""

    BODY = b"".join(b"h%d %s r%d\n" % (i, b"ERROR" if i % 3 else b"INFO", i)
                    for i in range(20))

    def _run(self, script, delta_verify, tail, extra):
        inc = IncrementalOptimizer(IncrementalConfig(
            min_input_bytes=16, delta_verify=delta_verify,
            spot_check_bytes=64))
        shell = Shell(fast_machine(), optimizer=inc)
        shell.fs.write_bytes("/log", self.BODY + tail)
        shell.run(script)
        _grow(shell, extra)
        got = shell.run(script)
        want = _fresh(shell, script)
        assert (got.status, got.stdout) == (want.status, want.stdout)
        return inc.events[-1].decision

    def test_unterminated_prefix_recomputes(self, script, delta_verify):
        assert self._run(script, delta_verify, b"y ERROR part",
                         b"ial\nz INFO\n") == "computed"

    def test_terminated_prefix_extends(self, script, delta_verify):
        assert self._run(script, delta_verify, b"y ERROR part\n",
                         b"ial\nz INFO\n") == "extended"


#: Recorded at the parent of the PR that made the engine a client of
#: ``compiler/parallel`` (as ``PLAN_CELLS`` is for plans): per region, the
#: ``(decision, repr(elapsed), status, len(output))`` of a cold, an
#: unchanged and an appended run, then ``(kernel dispatches, processes)``
#: of the appended run.  A refactor may not edit a literal.
INC_CELLS = {
    "grep ' 500 ' /l | cut -d ' ' -f 1 > /o": (
        ("computed", "0.015543067000000006", 0, 19708),
        ("replayed", "7.883199999999917e-05", 0, 19708),
        ("extended", "0.0021914219999999984", 0, 20028),
        (26, 4)),
    "cat /l | cut -d ' ' -f 1 | sort > /o": (
        ("computed", "0.04630133971091867", 0, 239459),
        ("replayed", "0.0009578359999999966", 0, 239459),
        ("extended", "0.008880417739524513", 0, 243026),
        (119, 7)),
    "cat /l | grep ' 500 ' | wc -l": (
        ("computed", "0.010632723499999998", 0, 5),
        ("replayed", "0.0", 0, 5),
        ("extended", "0.002739023133333336", 0, 5),
        (50, 7)),
    "cut -d ' ' -f 1 /l | uniq": (
        ("computed", "0.01714981400000001", 0, 235850),
        ("replayed", "0.0", 0, 235850),
        ("extended", "0.004853885999999998", 0, 239370),
        (76, 8)),
    "tr a-z A-Z < /l > /o": (
        ("computed", "0.02620476299999998", 0, 1669294),
        ("replayed", "0.006677175999999976", 0, 1669294),
        ("extended", "0.008939833499999973", 0, 1694309),
        (44, 3)),
    "cat /l > /o": (
        ("computed", "0.017023646000000007", 0, 1669294),
        ("replayed", "0.006677175999999972", 0, 1669294),
        ("extended", "0.007463974666666637", 0, 1694309),
        (37, 2)),
    "cut -d ' ' -f 1 /l | sort | uniq -c": (
        ("computed", "0.052411036710918686", 0, 1278),
        ("replayed", "0.0", 0, 1278),
        ("computed", "0.05324565797255438", 0, 2532),
        (102, 4)),
}


@pytest.mark.parametrize("script", INC_CELLS)
def test_inc_cells_bit_identical(script):
    inc = IncrementalOptimizer(IncrementalConfig(min_input_bytes=1024))
    shell = Shell(aws_c5_2xlarge_gp3(), optimizer=inc)
    shell.fs.write_bytes("/l", access_log(20000, seed=11))
    rows = []
    for step in ("cold", "unchanged", "appended"):
        if step == "appended":
            _grow(shell, access_log(300, seed=77), "/l")
        before = shell.kernel.dispatches, len(shell.kernel.processes)
        result = shell.run(script)
        out = result.stdout
        if shell.fs.is_file("/o"):
            out += shell.fs.read_bytes("/o")
        rows.append((inc.events[-1].decision, repr(result.elapsed),
                     result.status, len(out)))
    rows.append((shell.kernel.dispatches - before[0],
                 len(shell.kernel.processes) - before[1]))
    assert tuple(rows) == INC_CELLS[script]
