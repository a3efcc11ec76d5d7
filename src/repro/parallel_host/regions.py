"""Static region detection and gating for the host pool.

A *region* is a top-level statement the pool can precompute: a pipeline
of literal-argv stages over a single input file whose byte streams are
fully determined by a snapshot of that file —

    cat FILE | tr ... [| tr ...] [| sort [-r|-u] [| uniq]] [> OUT]
    cat FILE | sort [-r|-u] [| uniq] [> OUT]
    sort [-r|-u] FILE [| uniq] [> OUT]

Two gates stand between a matched shape and a dispatch:

* **S16 certificate** — the statement must carry a ``safe_parallel``
  certificate; an uncertified region is never shipped, which is what
  the JS2260 lint surfaces (a region S20 proves dead carries none).
* **volume** — the input file's size when the run begins must reach
  ``min_ship_bytes``; 0 always ships — the difftest/CI override that
  exercises the machinery on tiny corpora.

A trailing ``> OUT`` needs no gate of its own: the effect analyzer
records every literal redirect target as a write, so the statement's
write set always covers it.

Detection never decides correctness — the oracles' chunk validation
does — so a too-eager match costs wasted worker time, never wrong
bytes.  Detection *does* decide prefetch timing: a region whose input
may be written by an earlier statement is dispatched lazily at
statement start instead of at run start.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..analysis.paths import literal, may_alias
from ..annotations.library import DEFAULT_LIBRARY
from ..commands.base import UsageError, parse_args
from ..commands.filters import TrPlan, tr_plan
from ..dfg.from_ast import extract_region
from ..parser.ast_nodes import CommandList


@dataclass
class StagePlan:
    kind: str                     # "cat" | "tr" | "sort" | "uniq"
    tr_index: int = -1            # index into the region's tr chain


@dataclass
class RegionPlan:
    node: object                  # the Pipeline / SimpleCommand AST node
    stages: list                  # StagePlan per pipeline stage
    tr_chain: list                # TrPlan per tr stage, pipeline order
    input_path: str               # resolved virtual path of the source
    stdout_file: Optional[str]    # the trailing `> OUT` / `>> OUT`, if any
    sort_reverse: bool = False
    sort_unique: bool = False
    has_sort: bool = False
    #: an early tr stage squeezes: seams between parts are not locally
    #: repairable, so the region ships as a single part
    single_part: bool = False
    #: snapshot at statement start instead of run start (an earlier
    #: statement may write the input)
    deferred: bool = False


def _tr_spec(argv: list[str]) -> Optional[TrPlan]:
    try:
        args = parse_args("tr", argv[1:])
        return tr_plan(args.opts, args.operands)
    except UsageError:
        return None


def match_region(node) -> Optional[RegionPlan]:
    """Match one statement node against the supported region shapes:
    the pool's cat/tr/sort/uniq grammar over the literal region
    :func:`~repro.dfg.from_ast.extract_region` reads."""
    region = extract_region(node, DEFAULT_LIBRARY)
    if (region is None or len(region.stages) > 5
            or region.stages[0].stdin_file is not None):
        return None
    argvs = [stage.argv for stage in region.stages]

    stages: list[StagePlan] = []
    tr_chain: list[TrPlan] = []
    input_path = None
    i = 0
    # -- source stage ------------------------------------------------------
    head = argvs[0]
    if head[0] == "cat":
        if len(head) != 2 or head[1].startswith("-"):
            return None
        input_path = head[1]
        stages.append(StagePlan("cat"))
        i = 1
    elif head[0] != "sort":
        return None
    # -- tr chain ----------------------------------------------------------
    while i < len(argvs) and argvs[i][0] == "tr":
        if len(tr_chain) == 2:
            return None
        spec = _tr_spec(argvs[i])
        if spec is None:
            return None
        tr_chain.append(spec)
        stages.append(StagePlan("tr", tr_index=len(tr_chain) - 1))
        i += 1
    # -- sort [+ uniq] -----------------------------------------------------
    has_sort = reverse = unique = False
    if i < len(argvs) and argvs[i][0] == "sort":
        try:
            args = parse_args("sort", argvs[i][1:])
        except UsageError:
            return None
        opts, operands = args.opts, args.operands
        if set(opts) - {"r", "u"}:
            return None
        if i == 0:
            if len(operands) != 1 or operands[0] == "-":
                return None
            input_path = operands[0]
        elif operands:
            return None
        reverse, unique = bool(opts.get("r")), bool(opts.get("u"))
        has_sort = True
        stages.append(StagePlan("sort"))
        i += 1
        if i < len(argvs) and argvs[i] == ["uniq"]:
            stages.append(StagePlan("uniq"))
            i += 1
    if i != len(argvs):
        return None
    if input_path is None or (not tr_chain and not has_sort):
        return None
    # squeeze seams between parts are only locally repairable on the
    # last tr stage; an earlier squeezing stage forces one part
    single_part = any(s.squeeze for s in tr_chain[:-1])
    return RegionPlan(node=node, stages=stages, tr_chain=tr_chain,
                      input_path=input_path,
                      stdout_file=region.stages[-1].stdout_file,
                      sort_reverse=reverse, sort_unique=unique,
                      has_sort=has_sort, single_part=single_part)


def _statement_nodes(program) -> list:
    """(node, is_async) for each top-level statement, in program order."""
    if isinstance(program, CommandList):
        return [(item.command, item.is_async) for item in program.items]
    return [(program, False)]


def _matched_statements(program, analysis):
    """(index, RegionPlan, cleared) for each synchronous statement the
    pool's grammar matches; ``cleared`` when its certificate says early
    expansion is side-effect free."""
    certificates = analysis.certificates
    for idx, (node, is_async) in enumerate(_statement_nodes(program)):
        plan = None if is_async else match_region(node)
        if plan is not None:
            yield idx, plan, (id(node) in certificates
                              and certificates[id(node)] is None)


def detect_regions(program, analysis, fs, cwd: str,
                   min_ship_bytes: int) -> list[RegionPlan]:
    """All certificate- and volume-gated regions of ``program``."""
    from ..vos.fs import normalize

    regions: list[RegionPlan] = []
    statements = [node for node, _ in _statement_nodes(program)]
    for idx, plan, cleared in _matched_statements(program, analysis):
        if not cleared:
            continue
        plan.input_path = normalize(plan.input_path, cwd)
        if not fs.exists(plan.input_path) or \
                fs.size(plan.input_path) < min_ship_bytes:
            continue
        # prefetch timing: defer the snapshot when any earlier
        # statement may write (or has unknown effects on) the input;
        # asked in program order, as the summary cache needs
        input_ap = literal(plan.input_path)
        plan.deferred = any(
            summary.opaque
            or any(may_alias(input_ap, w) for w in summary.writes)
            for summary in map(analysis.effects.compute, statements[:idx]))
        regions.append(plan)
    return regions


def eligible_region_count(program, analysis) -> tuple[int, int]:
    """(matched shapes, certificate-cleared shapes) — the JS2260 input."""
    cleared = [ok for _, _, ok in _matched_statements(program, analysis)]
    return len(cleared), sum(cleared)
