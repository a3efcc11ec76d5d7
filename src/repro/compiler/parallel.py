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


def _input_files_of_run(region: Region, run: RunChoice,
                        file_sizes) -> Optional[list[tuple[str, int]]]:
    """When the run starts the region and its input is file-backed,
    return [(path, size)] — the precondition for range splitting."""
    if run.start != 0:
        return None
    first = region.stages[0]
    if first.stdin_file is not None:
        size = file_sizes(first.stdin_file)
        return [(first.stdin_file, size)] if size is not None else None
    spec = first.spec
    if spec.input_operands:
        args = first.argv[1:]
        out = []
        for idx in spec.input_operands:
            if idx >= len(args) or args[idx] == "-":
                return None
            size = file_sizes(args[idx])
            if size is None:
                return None
            out.append((args[idx], size))
        return out
    return None


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
    if mode == "range" and input_files is None:
        return None

    plan = Plan(width=width, mode=mode, eager=eager)
    dfg = DataflowGraph()
    phase1: Optional[DataflowGraph] = None
    chunk_paths: list[str] = []

    # ---- feed: produce the w branch input streams ---------------------------------
    run_stages = list(stages[run.start : run.end])
    branch_inputs: list[int] = []
    if mode == "range":
        if not _head_feed_ok(run_stages[0]):
            return None
        # drop a pure reader stage (cat) — the range readers replace it
        if _first_stage_is_pure_reader(run_stages[0]):
            run_stages = run_stages[1:]
            if not run_stages:
                return None
        for b in range(width):
            sid = dfg.new_stream()
            segments = _segments_for_branch(input_files, b, width)
            dfg.add_node(RANGE_READ, params={"segments": segments,
                                             "path": segments[0][0] if segments else "",
                                             "start": 0, "end": 0},
                         outputs=(sid,))
            branch_inputs.append(sid)
    elif mode == "materialize":
        head = run_stages[0]
        if head.spec.input_operands and (input_files is None
                                         or not _head_feed_ok(head)):
            return None  # file operands we cannot stat or safely re-feed
        # phase 1: spool input into chunk files on disk
        phase1 = DataflowGraph()
        if input_files is not None and head.spec.input_operands:
            src = phase1.new_stream()
            phase1.add_node(FILE_READ,
                            params={"paths": [p for p, _s in input_files]},
                            outputs=(src,))
            if _first_stage_is_pure_reader(head):
                run_stages = run_stages[1:]
                if not run_stages:
                    return None
        elif stages[0].stdin_file is not None and run.start == 0:
            src = phase1.new_stream()
            phase1.add_node(FILE_READ, params={"paths": [stages[0].stdin_file]},
                            outputs=(src,))
        else:
            # upstream stages (or region stdin) must run in phase 1 too
            src = _build_upstream(phase1, stages[: run.start])
        chunk_streams = []
        for b in range(width):
            path = fresh_tmp_path(tmp_prefix + ".chunk")
            chunk_paths.append(path)
            chunk_streams.append(phase1.new_stream(path=path))
        phase1.add_node(RR_SPLIT, inputs=(src,), outputs=tuple(chunk_streams))
        plan.temp_files.extend(chunk_paths)
        for path in chunk_paths:
            branch_inputs.append(dfg.new_stream(path=path))
    else:  # rr: streaming split
        head = run_stages[0]
        if head.spec.input_operands:
            if input_files is None or not _head_feed_ok(head):
                return None
            src = dfg.new_stream()
            dfg.add_node(FILE_READ,
                         params={"paths": [p for p, _s in input_files]},
                         outputs=(src,))
            if _first_stage_is_pure_reader(head):
                run_stages = run_stages[1:]
                if not run_stages:
                    return None
        else:
            src = _build_upstream(dfg, stages[: run.start], region)
        branch_streams = tuple(dfg.new_stream() for _ in range(width))
        dfg.add_node(RR_SPLIT, inputs=(src,), outputs=branch_streams)
        branch_inputs = list(branch_streams)

    # ---- branches: copy of the run's stages per branch -----------------------------
    branch_outputs: list[int] = []
    for b in range(width):
        prev = branch_inputs[b]
        for si, stage in enumerate(run_stages):
            out = dfg.new_stream()
            argv = _strip_file_operands(stage)
            dfg.add_node(CMD, tuple(argv), inputs=(prev,), outputs=(out,),
                         params={"branch_group": f"stage{si}"},
                         spec=stage.spec)
            prev = out
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

    # ---- merge ----------------------------------------------------------------------
    merged = dfg.new_stream()
    if run.agg_kind is AggKind.SORT_MERGE:
        # streaming k-way merge honouring the original sort's flags
        dfg.add_node(SORT_KWAY, params={"argv": list(run.agg_argv)},
                     inputs=tuple(branch_outputs), outputs=(merged,))
    elif run.agg_kind is AggKind.SUM:
        dfg.add_node(SUM_MERGE, inputs=tuple(branch_outputs), outputs=(merged,))
    elif run.agg_kind is AggKind.RERUN:
        concat_out = dfg.new_stream()
        dfg.add_node(CONCAT_MERGE, inputs=tuple(branch_outputs),
                     outputs=(concat_out,))
        dfg.add_node(CMD, tuple(run.agg_argv), inputs=(concat_out,),
                     outputs=(merged,))
    else:  # CONCAT
        dfg.add_node(CONCAT_MERGE, inputs=tuple(branch_outputs),
                     outputs=(merged,))

    # ---- downstream stages run sequentially -------------------------------------------
    prev = merged
    for stage in stages[run.end :]:
        out = dfg.new_stream(path=stage.stdout_file)
        dfg.add_node(CMD, tuple(stage.argv), inputs=(prev,), outputs=(out,),
                     spec=stage.spec)
        prev = out
    last_stage = stages[-1]
    if run.end == len(stages) and last_stage.stdout_file is not None:
        dfg.streams[prev].path = last_stage.stdout_file
    dfg.sink = prev

    phases = [phase1, dfg] if phase1 is not None else [dfg]
    plan.phases = phases
    plan.description = (
        f"width={width} mode={mode}{' eager' if eager else ''} "
        f"run=[{run.start}:{run.end}] agg={run.agg_kind.value}"
    )
    return plan


def _build_upstream(dfg: DataflowGraph, upstream_stages: list[RegionStage],
                    region: Optional[Region] = None) -> int:
    """Emit the sequential stages before the parallel run; returns the
    stream id feeding the splitter."""
    first_stage = None
    if region is not None and region.stages:
        first_stage = region.stages[0]
    prev: Optional[int] = None
    if upstream_stages:
        head = upstream_stages[0]
        if head.stdin_file is not None:
            prev = dfg.new_stream(path=head.stdin_file)
    elif first_stage is not None and first_stage.stdin_file is not None:
        prev = dfg.new_stream(path=first_stage.stdin_file)
    if prev is None:
        prev = dfg.new_stream()
        dfg.source = prev
    for stage in upstream_stages:
        out = dfg.new_stream()
        dfg.add_node(CMD, tuple(stage.argv), inputs=(prev,), outputs=(out,),
                     spec=stage.spec)
        prev = out
    return prev


def _strip_file_operands(stage: RegionStage) -> list[str]:
    """Branch copies read from stdin, so file operands must be dropped
    (e.g. the branch runs plain ``grep pat`` instead of ``grep pat f``)."""
    if not stage.spec.input_operands:
        return list(stage.argv)
    args = stage.argv[1:]
    drop = {idx for idx in stage.spec.input_operands}
    kept = [a for i, a in enumerate(args) if i not in drop]
    return [stage.argv[0]] + kept
