"""Parallelizing transformations over dataflow regions (the PaSh rewrites).

Given a :class:`~repro.dfg.from_ast.Region` (a pipeline of classified
stages), build a :class:`Plan` — one or more dataflow graphs executed as
phases — that computes the same output with data parallelism:

* ``rr``          streaming round-robin split; sound only when the
                  parallel run ends in a commutative aggregation
                  (sort -m, sum, rerun) that re-establishes order.
* ``range``       w readers over byte ranges of the input *files*
                  (requires file-backed input); preserves order, so it
                  also works for stateless runs merged by concatenation.
* ``materialize`` PaSh-batch style: phase 1 splits the input into chunk
                  files on disk, phase 2 processes chunks in parallel.
                  Works for any input but pays 2x extra disk IO.

This is the only module that builds transformed graphs.  The pieces a
plan is made of — a range reader, one copy of a run's stages, the merge
matched to the run's aggregator — are shared with the two partial-result
plans the incremental engine runs: :func:`range_plan` (the region over
given byte ranges) and :func:`merge_plan` (fold ordered partial outputs).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..annotations.model import AggKind, ParClass
from ..dfg.from_ast import Region, RegionStage, build_dfg
from ..dfg.graph import (
    CMD,
    CONCAT_MERGE,
    EAGER,
    FILE_READ,
    RANGE_READ,
    RR_SPLIT,
    SORT_KWAY,
    SUM_MERGE,
    DataflowGraph,
)
from .runtime import fresh_tmp_path

SPLIT_MODES = ("rr", "range", "materialize")


@dataclass
class Plan:
    """An executable optimization plan: phases of dataflow graphs."""

    phases: list[DataflowGraph] = field(default_factory=list)
    width: int = 1
    mode: str = "baseline"
    eager: bool = False
    description: str = "baseline"
    #: temp files to clean up afterwards
    temp_files: list[str] = field(default_factory=list)


def baseline_plan(region: Region) -> Plan:
    """The unmodified sequential pipeline as a single-phase plan."""
    return Plan([build_dfg(region)], width=1, mode="baseline",
                description="sequential pipeline")


@dataclass
class RunChoice:
    start: int           # index of first stage in the parallel run
    end: int             # index *after* last stage in the run
    agg_kind: AggKind
    agg_argv: tuple[str, ...]


def find_parallel_run(region: Region) -> Optional[RunChoice]:
    """The maximal useful run: consecutive STATELESS stages optionally
    capped by one PARALLELIZABLE_PURE stage (whose aggregator merges)."""
    stages = region.stages
    best: Optional[RunChoice] = None
    i = 0
    while i < len(stages):
        if not stages[i].spec.parallelizable:
            i += 1
            continue
        j = i
        while j < len(stages) and stages[j].spec.par_class is ParClass.STATELESS:
            j += 1
        if j < len(stages) and stages[j].spec.par_class is ParClass.PARALLELIZABLE_PURE:
            agg = stages[j].spec.aggregator
            choice = RunChoice(i, j + 1, agg.kind, agg.argv)
        elif j > i:
            choice = RunChoice(i, j, AggKind.CONCAT, ())
        else:
            i += 1
            continue
        if best is None or (choice.end - choice.start) > (best.end - best.start):
            best = choice
        i = max(j, i + 1)
    return best


def whole_region_run(region: Region) -> Optional[RunChoice]:
    """:func:`find_parallel_run` when the run is the region: a stateless
    chain, optionally capped by one aggregated stage, and nothing else.
    Such a region can be computed over any contiguous piece of its input
    (an appended suffix, one file of many) and the pieces folded back
    together by the run's aggregator."""
    run = find_parallel_run(region)
    if run is not None and (run.start, run.end) == (0, len(region.stages)):
        return run
    return None


def _input_files_of_run(region: Region, run: RunChoice,
                        file_sizes) -> Optional[list[tuple[str, int]]]:
    """When the run starts the region and its input is file-backed,
    return [(path, size)] — the precondition for range splitting."""
    paths = region.input_paths() if run.start == 0 else None
    if paths is None:
        return None
    sized = [(path, file_sizes(path)) for path in paths]
    return sized if all(size is not None for _p, size in sized) else None


def _segments_for_branch(files: list[tuple[str, int]], branch: int,
                         width: int) -> list[tuple[str, int, int]]:
    """Byte-range segments assigned to one branch: each file is divided
    into ``width`` contiguous ranges; branch i takes range i of each."""
    segments = []
    for path, size in files:
        chunk = max(1, size // width)
        start = branch * chunk
        end = (branch + 1) * chunk if branch < width - 1 else size
        if start < size:
            segments.append((path, start, min(end, size)))
    return segments


def _first_stage_is_pure_reader(stage: RegionStage) -> bool:
    """cat (or equivalent) whose only job is reading its file operands."""
    return stage.argv[0] == "cat" and bool(stage.spec.input_operands)


def _head_feed_ok(stage: RegionStage) -> bool:
    """Can this run-head stage's file operands be replaced by a stdin
    feed?  True for cat (pure reader) and for single-file commands whose
    output is identical when reading stdin (grep with one file never
    prefixes filenames).  Multi-file grep would change its output."""
    if not stage.spec.input_operands:
        return True
    if _first_stage_is_pure_reader(stage):
        return True
    return len(stage.spec.input_operands) == 1


# ---- the pieces every partial-result plan is made of ---------------------------------


def _refed(run_stages: list[RegionStage]) -> list[RegionStage]:
    """The run's stages once a reader node feeds them the head's file
    operands: a pure reader (cat) is dropped — the reader replaces it."""
    if _first_stage_is_pure_reader(run_stages[0]):
        return run_stages[1:]
    return run_stages


def _add_reader(dfg: DataflowGraph,
                segments: list[tuple[str, int, int]]) -> int:
    """A ``RANGE_READ`` over byte segments (whole lines only, see
    :func:`~repro.compiler.runtime.range_read_body`); returns its
    output stream."""
    path, start, end = segments[0] if segments else ("", 0, 0)
    sid = dfg.new_stream()
    dfg.add_node(RANGE_READ, params={"segments": segments, "path": path,
                                     "start": start, "end": end},
                 outputs=(sid,))
    return sid


def _add_branch(dfg: DataflowGraph, run_stages: list[RegionStage], src: int,
                grouped: bool) -> int:
    """One copy of the run's stages reading stream ``src`` on stdin, so
    file operands are dropped (the copy runs plain ``grep pat``, not
    ``grep pat f``); returns the copy's output stream.  ``grouped``
    marks the copy as one of several: :func:`execute_graph` then takes
    the stage's status over all of them."""
    for si, stage in enumerate(run_stages):
        drop = set(stage.spec.input_operands)
        argv = [a for i, a in enumerate(stage.argv) if i - 1 not in drop]
        out = dfg.new_stream()
        dfg.add_node(CMD, tuple(argv), inputs=(src,), outputs=(out,),
                     params={"branch_group": f"stage{si}"} if grouped else None,
                     spec=stage.spec)
        src = out
    return src


def _add_merge(dfg: DataflowGraph, run: RunChoice, parts: list[int]) -> int:
    """The merge matched to the run's aggregator over the ordered
    partial outputs ``parts``; returns the merged stream."""
    merged = dfg.new_stream()
    if run.agg_kind is AggKind.SORT_MERGE:
        # streaming k-way merge honouring the original sort's flags
        dfg.add_node(SORT_KWAY, params={"argv": list(run.agg_argv)},
                     inputs=tuple(parts), outputs=(merged,))
    elif run.agg_kind is AggKind.SUM:
        dfg.add_node(SUM_MERGE, inputs=tuple(parts), outputs=(merged,))
    elif run.agg_kind is AggKind.RERUN:
        concat_out = dfg.new_stream()
        dfg.add_node(CONCAT_MERGE, inputs=tuple(parts), outputs=(concat_out,))
        dfg.add_node(CMD, tuple(run.agg_argv), inputs=(concat_out,),
                     outputs=(merged,))
    else:  # CONCAT
        dfg.add_node(CONCAT_MERGE, inputs=tuple(parts), outputs=(merged,))
    return merged


def range_plan(region: Region,
               segments: list[tuple[str, int, int]]) -> Plan:
    """The whole region over byte ranges of its input: one reader
    feeding one copy of the stages, writing where the region writes.
    Partial by construction — only for a :func:`whole_region_run`
    region whose head can be fed on stdin (it reads one file), and only
    meaningful next to the outputs over the remaining ranges
    (:func:`merge_plan`)."""
    dfg = DataflowGraph()
    dfg.sink = _add_branch(dfg, _refed(region.stages),
                           _add_reader(dfg, segments), grouped=False)
    dfg.streams[dfg.sink].path = region.stages[-1].stdout_file
    return Plan([dfg], mode="range", description=f"range {segments}")


def merge_plan(run: RunChoice, parts: list[tuple[str, int]]) -> Plan:
    """Merge ordered partial outputs — ``(path, size)`` files, each the
    run's output over one contiguous piece of the input — with the
    run's aggregator.  The files are the plan's temp files."""
    dfg = DataflowGraph()
    dfg.sink = _add_merge(dfg, run, [_add_reader(dfg, [(path, 0, size)])
                                     for path, size in parts])
    return Plan([dfg], width=len(parts), mode="range",
                description=f"merge agg={run.agg_kind.value}",
                temp_files=[path for path, _size in parts])


def parallelize(region: Region, width: int, mode: str,
                file_sizes=lambda path: None,
                eager: bool = False,
                tmp_prefix: str = "/tmp/jash") -> Optional[Plan]:
    """Build a width-``width`` parallel plan, or None when ``mode`` is not
    applicable to this region."""
    if width < 2 or mode not in SPLIT_MODES:
        return None
    run = find_parallel_run(region)
    if run is None or region.stages[-1].stdout_append:
        return None  # a plan's sink file is opened for truncation
    stages = region.stages
    agg_commutative = run.agg_kind in (AggKind.SORT_MERGE, AggKind.SUM, AggKind.RERUN)
    if mode == "rr" and not agg_commutative:
        return None  # round-robin split breaks output order

    input_files = _input_files_of_run(region, run, file_sizes)
    run_stages = list(stages[run.start : run.end])
    head = run_stages[0]
    feed_paths: Optional[list[str]] = None
    if mode == "range" or head.spec.input_operands:
        # the head's file operands are re-fed by a reader node
        if input_files is None or not _head_feed_ok(head):
            return None  # nothing to stat, or unsafe to feed on stdin
        run_stages = _refed(run_stages)
        if not run_stages:
            return None
        feed_paths = [path for path, _size in input_files]
    elif mode == "materialize" and run.start == 0 and head.stdin_file is not None:
        feed_paths = [head.stdin_file]

    plan = Plan(width=width, mode=mode, eager=eager)
    dfg = DataflowGraph()
    # materialize spools chunk files in a first phase; rr splits in the
    # plan's own graph
    phase1 = DataflowGraph() if mode == "materialize" else None

    # ---- feed: produce the w branch input streams ---------------------------------
    if mode == "range":
        branch_inputs = [
            _add_reader(dfg, _segments_for_branch(input_files, b, width))
            for b in range(width)]
    else:
        feed = dfg if phase1 is None else phase1
        if feed_paths is not None:
            src = feed.new_stream()
            feed.add_node(FILE_READ, params={"paths": feed_paths},
                          outputs=(src,))
        else:
            # upstream stages (or region stdin) run ahead of the split
            src = _build_upstream(feed, region, run.start)
        if phase1 is None:
            branch_inputs = [dfg.new_stream() for _ in range(width)]
            dfg.add_node(RR_SPLIT, inputs=(src,), outputs=tuple(branch_inputs))
        else:
            chunk_paths = [fresh_tmp_path(tmp_prefix + ".chunk")
                           for _ in range(width)]
            phase1.add_node(RR_SPLIT, inputs=(src,), outputs=tuple(
                phase1.new_stream(path=path) for path in chunk_paths))
            plan.temp_files.extend(chunk_paths)
            branch_inputs = [dfg.new_stream(path=path) for path in chunk_paths]

    # ---- branches: copy of the run's stages per branch -----------------------------
    branch_outputs: list[int] = []
    for src in branch_inputs:
        prev = _add_branch(dfg, run_stages, src, grouped=True)
        if eager:
            buffered = dfg.new_stream()
            eager_tmp = fresh_tmp_path(tmp_prefix + ".eager")
            # registered for cleanup: the eager body normally unlinks its
            # spool itself, but not if the consumer closes early or the
            # branch is killed by a fault
            plan.temp_files.append(eager_tmp)
            dfg.add_node(EAGER, params={"mode": "disk", "tmp_path": eager_tmp},
                         inputs=(prev,), outputs=(buffered,))
            prev = buffered
        branch_outputs.append(prev)

    # ---- merge, then downstream stages run sequentially -------------------------------
    prev = _add_merge(dfg, run, branch_outputs)
    for stage in stages[run.end :]:
        out = dfg.new_stream(path=stage.stdout_file)
        dfg.add_node(CMD, tuple(stage.argv), inputs=(prev,), outputs=(out,),
                     spec=stage.spec)
        prev = out
    if run.end == len(stages):
        dfg.streams[prev].path = stages[-1].stdout_file
    dfg.sink = prev

    plan.phases = [phase1, dfg] if phase1 is not None else [dfg]
    plan.description = (
        f"width={width} mode={mode}{' eager' if eager else ''} "
        f"run=[{run.start}:{run.end}] agg={run.agg_kind.value}"
    )
    return plan


def _build_upstream(dfg: DataflowGraph, region: Region, end: int) -> int:
    """Emit the sequential stages before the parallel run
    (``region.stages[:end]``), reading the region's ``< file`` or its
    stdin; returns the stream id feeding the splitter."""
    stdin_file = region.stages[0].stdin_file
    prev = dfg.new_stream(path=stdin_file)
    if stdin_file is None:
        dfg.source = prev
    for stage in region.stages[:end]:
        out = dfg.new_stream()
        dfg.add_node(CMD, tuple(stage.argv), inputs=(prev,), outputs=(out,),
                     spec=stage.spec)
        prev = out
    return prev
