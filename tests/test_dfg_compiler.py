"""Dataflow graph + parallelizing compiler tests: region extraction
(AOT vs JIT knowledge), graph construction, every split mode's
correctness, and plan properties under randomized data."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.annotations import DEFAULT_LIBRARY, AggKind
from repro.compiler.parallel import baseline_plan, find_parallel_run, parallelize
from repro.compiler.runtime import execute_graph
from repro.dfg import (
    CMD,
    CONCAT_MERGE,
    RANGE_READ,
    RR_SPLIT,
    SORT_KWAY,
    RegionRefusal,
    build_dfg,
    extract_region,
    read_region,
    region_from_argvs,
    region_from_words,
    to_shell,
)
from repro.jit.frontend import expand_stage_words, pipeline_stages
from repro.parser import parse_one
from repro.shell import Shell
from repro.vos.devices import DiskSpec
from repro.vos.handles import Collector
from repro.vos.kernel import Kernel, Node


def fast_kernel():
    return Kernel(Node("t", 8, 1e5,
                       DiskSpec(throughput_bps=1e12, base_iops=1e9,
                                burst_iops=1e9)))


def expanded_words(text):
    """``text``'s stages as the JIT front end hands them to the region
    rules: expanded by a running interpreter, which then skips the
    node."""
    words = []

    class Expand:
        def try_execute(self, interp, proc, node):
            words.extend((yield from expand_stage_words(
                interp, proc, pipeline_stages(node))))
            return 0

    Shell(optimizer=Expand()).run(text)
    return words


def run_plan(plan, files):
    kernel = fast_kernel()
    for path, data in files.items():
        kernel.main_node.fs.write_bytes(path, data)
    out = Collector()

    def main(proc):
        status = 0
        for phase in plan.phases:
            status = yield from execute_graph(phase, proc, stdout_handle=out)
        return status

    root = kernel.create_process(main)
    status = kernel.run_until_process_done(root)
    return status, out.getvalue()


class TestRegionExtraction:
    def test_literal_pipeline(self):
        node = parse_one("cat /f | tr a-z A-Z | sort")
        region = extract_region(node, DEFAULT_LIBRARY)
        assert region is not None
        assert len(region.stages) == 3
        assert region.parallelizable

    def test_dynamic_words_rejected_aot(self):
        # the paper's spell argument: $FILES defeats AOT extraction
        node = parse_one("cat $FILES | sort")
        assert extract_region(node, DEFAULT_LIBRARY) is None

    def test_unknown_command_rejected(self):
        node = parse_one("cat /f | frobnicate | sort")
        assert extract_region(node, DEFAULT_LIBRARY) is None

    def test_side_effectful_rejected(self):
        node = parse_one("cat /f | tee /copy | sort")
        assert extract_region(node, DEFAULT_LIBRARY) is None

    def test_assignment_rejected(self):
        node = parse_one("X=1 cat /f")
        assert extract_region(node, DEFAULT_LIBRARY) is None

    def test_redirects_captured(self):
        node = parse_one("sort < /in > /out")
        region = extract_region(node, DEFAULT_LIBRARY)
        assert region.stages[0].stdin_file == "/in"
        assert region.stages[-1].stdout_file == "/out"

    def test_mid_pipeline_redirect_rejected(self):
        node = parse_one("cat /f > /x | sort")
        assert extract_region(node, DEFAULT_LIBRARY) is None

    def test_second_redirect_of_a_fd_rejected(self):
        # the shell would create /a too; a one-sink region would not.
        # `< /g` beside an operand: sort reads /f, never stdin
        for text in ("sort /f > /a > /b", "sort /f > /a >> /b",
                     "sort < /a < /b", "sort /f < /g"):
            assert extract_region(parse_one(text), DEFAULT_LIBRARY) is None
            with pytest.raises(RegionRefusal):
                region_from_words(expanded_words(text), DEFAULT_LIBRARY)

    @pytest.mark.parametrize("text,cwd,sink", [
        ("sort f > /d/f", "/d", "/d/f"),
        ("cat /d/./f | tr a b > ../d/f", "/d", "../d/f"),
        ("sort < /d/f > /d/f", "/", "/d/f"),
        ("sort /d/f >> /d/f", "/", None),
        ("sort - > -", "/", None),
        ("sort /d/f > /d/g", "/", None),
    ])
    def test_clobbered_input(self, text, cwd, sink):
        region = extract_region(parse_one(text), DEFAULT_LIBRARY)
        assert region.clobbered_input(cwd) == sink

    def test_append_sink_is_never_parallelized(self):
        # a plan's sink is opened for truncation: `>>` stays interpreted
        region = extract_region(parse_one("cat /f | sort >> /out"),
                                DEFAULT_LIBRARY)
        assert region.stages[-1].stdout_append
        assert parallelize(region, 4, "rr",
                           file_sizes=lambda path: 1 << 20) is None
        region = extract_region(parse_one("cat /f | sort > /out"),
                                DEFAULT_LIBRARY)
        assert parallelize(region, 4, "rr",
                           file_sizes=lambda path: 1 << 20) is not None

    @pytest.mark.parametrize("text,kind,name", [
        ("! cat /f | sort", "shape", ""),
        ("cat /f | (sort)", "shape", ""),
        ("> /out", "shape", ""),
        ("cat /f | sort 2> /err", "redirect", ""),
        ("sort /f < /g", "redirect", ""),
        ("cat $FILES | sort", "dynamic", ""),
        ("cat /f | frobnicate", "command", "frobnicate"),
    ])
    def test_refusal_kinds(self, text, kind, name):
        with pytest.raises(RegionRefusal) as refusal:
            read_region(parse_one(text), DEFAULT_LIBRARY)
        assert (refusal.value.kind, refusal.value.name) == (kind, name)
        if kind in ("redirect", "command"):
            # the same rules refuse the early-expanded words alike
            with pytest.raises(RegionRefusal) as refusal:
                region_from_words(expanded_words(text), DEFAULT_LIBRARY)
            assert (refusal.value.kind, refusal.value.name) == (kind, name)

    def test_jit_path_from_argvs(self):
        region = region_from_argvs(
            [["cat", "/a", "/b"], ["grep", "x"], ["sort"]], DEFAULT_LIBRARY
        )
        assert region is not None
        assert region.parallelizable


class TestGraph:
    def test_baseline_structure(self):
        region = region_from_argvs([["cat", "/f"], ["sort"]], DEFAULT_LIBRARY)
        dfg = build_dfg(region)
        assert len(dfg.nodes) == 2
        stages = dfg.linear_stages()
        assert [n.name for n in stages] == ["cat", "sort"]
        assert dfg.sink is not None

    def test_input_files_discovered(self):
        region = region_from_argvs([["cat", "/a", "/b"], ["sort"]],
                                   DEFAULT_LIBRARY)
        dfg = build_dfg(region)
        assert dfg.input_files() == ["/a", "/b"]

    def test_topological_order(self):
        region = region_from_argvs(
            [["cat", "/f"], ["tr", "a", "b"], ["sort"]], DEFAULT_LIBRARY
        )
        plan = parallelize(region, 2, "rr", file_sizes=lambda p: 100)
        order = plan.phases[-1].topological_order()
        kinds = [n.kind for n in order]
        assert kinds.index(RR_SPLIT) < kinds.index(SORT_KWAY)

    def test_to_shell_rendering(self):
        region = region_from_argvs([["cat", "/f"], ["sort"]], DEFAULT_LIBRARY)
        text = to_shell(build_dfg(region))
        assert "cat /f" in text and "sort" in text

    def test_describe(self):
        region = region_from_argvs([["cat", "/f"], ["sort"]], DEFAULT_LIBRARY)
        assert "sort" in build_dfg(region).describe()


class TestFindParallelRun:
    def test_stateless_plus_pure(self):
        region = region_from_argvs(
            [["cat", "/f"], ["tr", "a", "b"], ["sort"]], DEFAULT_LIBRARY
        )
        run = find_parallel_run(region)
        assert (run.start, run.end) == (0, 3)
        assert run.agg_kind is AggKind.SORT_MERGE

    def test_stateless_only(self):
        region = region_from_argvs(
            [["cat", "/f"], ["grep", "x"]], DEFAULT_LIBRARY
        )
        run = find_parallel_run(region)
        assert run.agg_kind is AggKind.CONCAT

    def test_stops_at_non_parallelizable(self):
        region = region_from_argvs(
            [["cat", "/f"], ["sort"], ["head", "-n1"]], DEFAULT_LIBRARY
        )
        run = find_parallel_run(region)
        assert run.end == 2  # head excluded

    def test_none_when_nothing_parallelizable(self):
        region = region_from_argvs([["head", "-n5", "/f"]], DEFAULT_LIBRARY)
        assert find_parallel_run(region) is None


WORDS = ["ant", "bee", "cat", "dog", "elk", "fox", "gnu", "hen"]


def word_data(n, seed):
    rng = random.Random(seed)
    return ("".join(rng.choice(WORDS) + "\n" for _ in range(n))).encode()


class TestPlanCorrectness:
    @pytest.mark.parametrize("mode", ["rr", "range", "materialize"])
    @pytest.mark.parametrize("width", [2, 3, 8])
    def test_sort_region(self, mode, width):
        data = word_data(500, seed=width)
        region = region_from_argvs(
            [["cat", "/in"], ["tr", "a-z", "A-Z"], ["sort"]], DEFAULT_LIBRARY
        )
        plan = parallelize(region, width, mode,
                           file_sizes=lambda p: len(data))
        assert plan is not None
        status, out = run_plan(plan, {"/in": data})
        assert status == 0
        expected = b"".join(sorted(data.upper().splitlines(keepends=True)))
        assert out == expected

    @pytest.mark.parametrize("mode", ["range", "materialize"])
    def test_stateless_region_order_preserved(self, mode):
        data = word_data(400, seed=9)
        region = region_from_argvs(
            [["cat", "/in"], ["grep", "-v", "cat"], ["rev"]], DEFAULT_LIBRARY
        )
        plan = parallelize(region, 4, mode, file_sizes=lambda p: len(data))
        assert plan is not None
        status, out = run_plan(plan, {"/in": data})
        expected = b"".join(
            line.rstrip(b"\n")[::-1] + b"\n"
            for line in data.splitlines(keepends=True) if b"cat" not in line
        )
        assert out == expected

    def test_rr_refused_for_order_sensitive(self):
        region = region_from_argvs(
            [["cat", "/in"], ["grep", "x"]], DEFAULT_LIBRARY
        )
        assert parallelize(region, 4, "rr", file_sizes=lambda p: 100) is None

    def test_sum_aggregation(self):
        data = word_data(300, seed=3)
        region = region_from_argvs([["cat", "/in"], ["wc", "-l"]],
                                   DEFAULT_LIBRARY)
        plan = parallelize(region, 4, "rr", file_sizes=lambda p: len(data))
        status, out = run_plan(plan, {"/in": data})
        assert int(out.split()[0]) == 300

    def test_grep_c_sum(self):
        data = word_data(300, seed=4)
        region = region_from_argvs(
            [["cat", "/in"], ["grep", "-c", "cat"]], DEFAULT_LIBRARY
        )
        plan = parallelize(region, 4, "rr", file_sizes=lambda p: len(data))
        status, out = run_plan(plan, {"/in": data})
        assert int(out.split()[0]) == data.count(b"cat\n")

    def test_rerun_aggregation_uniq(self):
        data = b"".join(s.encode() + b"\n" for s in sorted(
            random.Random(5).choices(WORDS, k=300)
        ))
        region = region_from_argvs([["cat", "/in"], ["sort"], ["head", "-n99"]],
                                   DEFAULT_LIBRARY)
        # uniq via sort -u instead (rerun tested through distributed path)
        region = region_from_argvs([["cat", "/in"], ["sort", "-u"]],
                                   DEFAULT_LIBRARY)
        plan = parallelize(region, 3, "rr", file_sizes=lambda p: len(data))
        status, out = run_plan(plan, {"/in": data})
        expected = b"".join(sorted(set(data.splitlines(keepends=True))))
        assert out == expected

    def test_downstream_stage_after_merge(self):
        data = word_data(200, seed=6)
        region = region_from_argvs(
            [["cat", "/in"], ["sort"], ["head", "-n5"]], DEFAULT_LIBRARY
        )
        plan = parallelize(region, 4, "rr", file_sizes=lambda p: len(data))
        status, out = run_plan(plan, {"/in": data})
        expected = b"".join(sorted(data.splitlines(keepends=True))[:5])
        assert out == expected

    def test_multi_file_input(self):
        d1, d2 = word_data(150, 7), word_data(150, 8)
        region = region_from_argvs([["cat", "/a", "/b"], ["sort"]],
                                   DEFAULT_LIBRARY)
        sizes = {"/a": len(d1), "/b": len(d2)}
        plan = parallelize(region, 4, "range", file_sizes=sizes.get)
        status, out = run_plan(plan, {"/a": d1, "/b": d2})
        expected = b"".join(sorted((d1 + d2).splitlines(keepends=True)))
        assert out == expected

    def test_stdin_redirect_input(self):
        data = word_data(200, seed=10)
        region = extract_region(parse_one("sort < /in"), DEFAULT_LIBRARY)
        plan = parallelize(region, 4, "range", file_sizes=lambda p: len(data))
        assert plan is not None
        status, out = run_plan(plan, {"/in": data})
        assert out == b"".join(sorted(data.splitlines(keepends=True)))

    def test_output_redirect_sink(self):
        data = word_data(100, seed=11)
        region = extract_region(parse_one("cat /in | sort > /out"),
                                DEFAULT_LIBRARY)
        plan = parallelize(region, 2, "rr", file_sizes=lambda p: len(data))
        kernel = fast_kernel()
        kernel.main_node.fs.write_bytes("/in", data)

        def main(proc):
            status = 0
            for phase in plan.phases:
                status = yield from execute_graph(phase, proc)
            return status

        root = kernel.create_process(main)
        assert kernel.run_until_process_done(root) == 0
        assert kernel.main_node.fs.read_bytes("/out") == b"".join(
            sorted(data.splitlines(keepends=True))
        )

    def test_temp_files_recorded_for_materialize(self):
        region = region_from_argvs([["cat", "/in"], ["sort"]],
                                   DEFAULT_LIBRARY)
        plan = parallelize(region, 3, "materialize",
                           file_sizes=lambda p: 1000)
        assert len(plan.temp_files) == 3

    def test_width_one_rejected(self):
        region = region_from_argvs([["cat", "/in"], ["sort"]],
                                   DEFAULT_LIBRARY)
        assert parallelize(region, 1, "rr", file_sizes=lambda p: 10) is None


@given(st.integers(2, 8), st.integers(0, 1000),
       st.sampled_from(["rr", "range", "materialize"]))
@settings(max_examples=40, deadline=None)
def test_parallel_sort_equals_sequential_any_width(width, seed, mode):
    """Property: every (width, mode) plan computes the same bytes as the
    sequential baseline."""
    data = word_data(120, seed)
    region = region_from_argvs(
        [["cat", "/in"], ["tr", "a-z", "A-Z"], ["sort"]], DEFAULT_LIBRARY
    )
    base_status, base_out = run_plan(baseline_plan(region), {"/in": data})
    plan = parallelize(region, width, mode, file_sizes=lambda p: len(data))
    assert plan is not None
    status, out = run_plan(plan, {"/in": data})
    assert (status, out) == (base_status, base_out)


class TestDot:
    def test_to_dot_renders(self):
        region = region_from_argvs([["cat", "/f"], ["sort"]], DEFAULT_LIBRARY)
        dot = build_dfg(region).to_dot()
        assert dot.startswith("digraph dataflow")
        assert "cat /f" in dot and "sort" in dot

    def test_to_dot_parallel_plan(self):
        region = region_from_argvs([["cat", "/f"], ["sort"]], DEFAULT_LIBRARY)
        plan = parallelize(region, 3, "rr", file_sizes=lambda p: 1000)
        dot = plan.phases[-1].to_dot()
        assert dot.count("sort") >= 3  # three branch copies
        assert "rr_split" in dot
