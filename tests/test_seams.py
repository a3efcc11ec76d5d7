"""Plans and incremental extensions across a seam (ROADMAP "Plans that
are right across a seam"): every split mode, at widths that cut the
input more than once, against the sequential plan — and the incremental
engine's append seam, which is the same contiguous two-way split.

The cells that are wrong at this commit are ``xfail(strict=True)`` with
their ROADMAP cause, so the correctness PR starts from a list that has
to turn green; refusing the plan instead does not count (it would move
``PLAN_CELLS``)."""

import pytest

from repro.annotations import DEFAULT_LIBRARY
from repro.compiler.parallel import baseline_plan, parallelize
from repro.dfg import RR_SPLIT, extract_region
from repro.incremental import IncrementalConfig, IncrementalOptimizer
from repro.parser import parse_one
from repro.shell import Shell

from .conftest import fast_machine, seam_input, seam_lines
from .test_dfg_compiler import run_plan

BLOCK = 7
TR = "tr -cs a-z0-9 '\\n'"
#: script behind ``cat /in |`` -> what the incremental engine does with
#: it when /in grows ("computed": the region is not one run)
SCRIPTS = {
    "sed s/x/y/": "extended",
    "grep l": "extended",
    "uniq": "extended",
    "uniq | wc -l": "computed",
    "sort": "extended",
    "grep -c l": "extended",
    TR: "extended",
    TR + " | sort | uniq -c": "computed",
}
CAUSE = {
    "a": "ROADMAP cause (a): materialize deals blocks round-robin and "
         "reassembles them branch by branch",
    "b": "ROADMAP cause (b): RERUN counted as commutative, so uniq sees "
         "round-robin blocks out of order",
    "c": "ROADMAP cause (c): squeezing tr is annotated stateless; a piece "
         "that opens with a squeezed byte emits a token the whole does not",
}
#: (script, mode) -> cause, for every cell that is wrong today
RED = {
    **{(s, "materialize"): "a" for s in
       ("sed s/x/y/", "grep l", "uniq", "uniq | wc -l", TR,
        TR + " | sort | uniq -c")},
    ("uniq", "rr"): "b",
    ("uniq | wc -l", "rr"): "b",
    (TR + " | sort | uniq -c", "rr"): "c",
    (TR, "range"): "c",
    (TR + " | sort | uniq -c", "range"): "c",
    (TR, "extend"): "c",
}
#: a round-robin split ahead of an order-preserving merge is refused
UNBUILT = {(s, "rr") for s in ("sed s/x/y/", "grep l", TR)}


def cells(modes, points):
    for script in SCRIPTS:
        for mode in modes:
            cause = RED.get((script, mode))
            marks = [pytest.mark.xfail(strict=True, reason=CAUSE[cause])] \
                if cause else []
            for point in points:
                yield pytest.param(script, mode, point, marks=marks,
                                   id=f"{script}-{mode}-{point}")


@pytest.mark.parametrize(
    "script,mode,width", cells(("range", "rr", "materialize"), (2, 3, 8)))
def test_plan_across_seams(script, mode, width):
    data = seam_input(block=BLOCK)
    region = extract_region(parse_one("cat /in | " + script), DEFAULT_LIBRARY)
    plan = parallelize(region, width, mode, file_sizes=lambda path: len(data))
    if (script, mode) in UNBUILT:
        assert plan is None
        return
    for phase in plan.phases:
        for node in phase.nodes.values():
            if node.kind == RR_SPLIT:
                node.params["block_lines"] = BLOCK
    assert run_plan(plan, {"/in": data}) == \
        run_plan(baseline_plan(region), {"/in": data})


@pytest.mark.parametrize("script,mode,cut",
                         cells(("extend",), (BLOCK, 3 * BLOCK, 8 * BLOCK)))
def test_extension_across_seams(script, mode, cut):
    """/in holds the first ``cut`` lines when the region is cached and
    the whole input when it runs again: the append seam is a block edge."""
    text = "cat /in | " + script
    data = seam_input(block=BLOCK)
    inc = IncrementalOptimizer(IncrementalConfig(min_input_bytes=16))
    shell = Shell(fast_machine(), optimizer=inc)
    shell.fs.write_bytes(
        "/in", b"".join(line + b"\n" for line in seam_lines(block=BLOCK)[:cut]))
    shell.run(text)
    shell.fs.write_bytes("/in", data, mtime=shell.kernel.now + 1)
    got = shell.run(text)
    assert inc.events[-1].decision == SCRIPTS[script]
    fresh = Shell(fast_machine())
    fresh.fs.write_bytes("/in", data)
    want = fresh.run(text)
    assert (got.status, got.stdout) == (want.status, want.stdout)
