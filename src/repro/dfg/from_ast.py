"""Shell AST -> dataflow-graph region extraction.

One rule set, :func:`region_from_words`, turns a pipeline's words and
redirect targets, as strings, into a :class:`Region`.  Two word sources
feed it: :func:`read_region` passes constant words only — the AOT
compiler (PaSh role) cannot extract ``cat $FILES | ...``, the paper's
spell-script argument — and :func:`repro.jit.frontend.expand_region`
passes words the JIT (Jash role) expanded early, soundly, via the purity
analysis.  Each engine then adds only its own rule (no appending sink,
no ``< file`` source, no redirect at all).
"""

from __future__ import annotations

import posixpath
from dataclasses import dataclass, field
from typing import Optional

from ..analysis.candidates import pipeline_stages
from ..annotations.model import InstanceSpec, ParClass, SpecLibrary
from ..parser.ast_nodes import Command, Redirect
from ..vos.fs import normalize
from .graph import CMD, DataflowGraph


@dataclass
class RegionStage:
    argv: list[str]
    spec: InstanceSpec
    stdin_file: Optional[str] = None   # from `< file`
    stdout_file: Optional[str] = None  # from `> file` / `>| file` / `>> file`
    stdout_append: bool = False


@dataclass
class Region:
    """A candidate dataflow region: a pipeline of known, pure commands."""

    stages: list[RegionStage] = field(default_factory=list)
    #: the words and redirect targets it was read from
    words: list[StageWords] = field(default_factory=list)

    @property
    def parallelizable(self) -> bool:
        return any(s.spec.parallelizable for s in self.stages)

    def input_paths(self) -> Optional[list[str]]:
        """The paths the region reads, as written, when its input is
        file-backed: the first stage's ``< file`` redirect, else its
        file operands.  None for a pipe, a tty or a ``-`` operand."""
        first = self.stages[0]
        if first.stdin_file is not None:
            return [first.stdin_file]
        paths = operands(first.argv, first.spec)
        return paths if paths and "-" not in paths else None

    def clobbered_input(self, cwd: str) -> Optional[str]:
        """:func:`clobbered_sink` of the words the region was read from."""
        return clobbered_sink(self.words, [s.spec for s in self.stages], cwd)


def operands(argv: list[str], spec: InstanceSpec) -> list[str]:
    """The file operands ``argv`` reads by ``spec``; ``-`` is stdin."""
    args = argv[1:]
    return [args[idx] if idx < len(args) else "-"
            for idx in spec.input_operands]


class RegionRefusal(Exception):
    """Why a node is not a region.  ``kind`` is ``"shape"`` (not a flat
    pipeline of plain simple commands), ``"redirect"`` (one the region
    model lacks), ``"dynamic"`` (a word needs expansion) or ``"command"``
    (unknown or side-effectful; ``name`` says which)."""

    def __init__(self, kind: str, name: str = ""):
        super().__init__(kind, name)
        self.kind, self.name = kind, name


#: one stage as strings: its argv, and each redirect with its target
StageWords = tuple[list[str], list[tuple[Redirect, str]]]


def region_from_words(words: list[StageWords],
                      library: SpecLibrary) -> Region:
    """The one rule set between a pipeline's words, constant or expanded,
    and a :class:`Region`.  A redirect is read only when it is its fd's
    one redirect (the shell would still open, or fail on, the first of
    two) and it is ``<`` on the first stage, which then names no file
    operand but ``-``, or ``>``, ``>|`` (no noclobber: the same as
    ``>``) or ``>>`` on the last stage.  Raises :class:`RegionRefusal`."""
    stages: list[RegionStage] = []
    last = len(words) - 1
    for i, (argv, redirects) in enumerate(words):
        stdin_file = stdout_file = None
        append = False
        for redirect, target in redirects:
            fd = redirect.default_fd()
            if (redirect.op == "<" and fd == 0 and i == 0
                    and stdin_file is None):
                stdin_file = target
            elif (redirect.op in (">", ">|", ">>") and fd == 1 and i == last
                  and stdout_file is None):
                stdout_file, append = target, redirect.op == ">>"
            else:
                raise RegionRefusal("redirect")
        if not argv:
            raise RegionRefusal("shape")
        spec = library.classify(argv[0], argv[1:])
        if spec is None or spec.par_class is ParClass.SIDE_EFFECTFUL:
            raise RegionRefusal("command", argv[0])
        stage = RegionStage(list(argv), spec, stdin_file, stdout_file, append)
        if stdin_file is not None and set(operands(argv, spec)) - {"-"}:
            raise RegionRefusal("redirect")
        stages.append(stage)
    return Region(stages, words)


def clobbered_sink(words: list[StageWords],
                   specs: list[Optional[InstanceSpec]],
                   cwd: Optional[str]) -> Optional[str]:
    """The first ``>``/``>|`` target (any stage, any fd) that the shell
    truncates before it is read: a ``<`` target, or a file operand of a
    stage whose spec (``specs``, one per stage) is known, under ``cwd``.
    Under an unknown ``cwd`` (None) relative paths meet one another,
    never an absolute path."""
    reads, sinks = set(), []
    for (argv, redirects), spec in zip(words, specs):
        if spec is not None:
            reads.update(operands(argv, spec))
        for redirect, target in redirects:
            if redirect.op == "<":
                reads.add(target)
            elif redirect.op in (">", ">|"):
                sinks.append(target)
    def resolve(path: str) -> str:
        if cwd is None and not path.startswith("/"):
            return posixpath.normpath(path)
        return normalize(path, cwd or "/")

    paths = {resolve(path) for path in reads - {"-"}}
    return next((s for s in sinks if resolve(s) in paths), None)


def read_region(node: Command, library: SpecLibrary) -> Region:
    """The AST -> region reader for constant words: a flat pipeline
    (:func:`~repro.analysis.candidates.pipeline_stages`) read by
    :func:`region_from_words`; else :class:`RegionRefusal`."""
    commands = pipeline_stages(node)
    if commands is None:
        raise RegionRefusal("shape")
    words: list[StageWords] = []
    for cmd in commands:
        targets = [(r, r.target.constant) for r in cmd.redirects]
        if None in [target for _, target in targets]:
            raise RegionRefusal("redirect")
        argv = [w.constant for w in cmd.words]
        if None in argv:
            raise RegionRefusal("dynamic")
        words.append((argv, targets))
    return region_from_words(words, library)


def extract_region(node: Command, library: SpecLibrary) -> Optional[Region]:
    """AOT extraction: region from a constant-only pipeline/simple command."""
    try:
        return read_region(node, library)
    except RegionRefusal:
        return None


def region_from_argvs(argvs: list[list[str]],
                      library: SpecLibrary) -> Optional[Region]:
    """Region from already-expanded, redirect-free argvs."""
    try:
        return region_from_words([(argv, []) for argv in argvs], library)
    except RegionRefusal:
        return None


def build_dfg(region: Region) -> DataflowGraph:
    """Lower a region to the baseline (sequential) dataflow graph."""
    dfg = DataflowGraph()
    prev_stream: Optional[int] = None
    first = region.stages[0]
    if first.stdin_file is not None:
        prev_stream = dfg.new_stream(path=first.stdin_file)
        dfg.source = prev_stream
    for stage in region.stages:
        inputs: tuple[int, ...] = ()
        if stage.spec.reads_stdin or prev_stream is not None:
            if prev_stream is None:
                prev_stream = dfg.new_stream()  # empty stdin
                dfg.source = prev_stream
            inputs = (prev_stream,)
        out_stream = dfg.new_stream(path=stage.stdout_file)
        dfg.add_node(CMD, tuple(stage.argv), inputs=inputs,
                     outputs=(out_stream,), spec=stage.spec)
        prev_stream = out_stream
    dfg.sink = prev_stream
    return dfg


def to_shell(dfg: DataflowGraph) -> str:
    """Render a (possibly transformed) DFG as an illustrative shell
    command; internal nodes appear as jash runtime helpers."""
    parts = []
    for node in dfg.topological_order():
        if node.kind == CMD:
            parts.append(" ".join(node.argv))
        else:
            args = " ".join(f"{k}={v}" for k, v in sorted(node.params.items()))
            parts.append(f"jash-{node.kind.replace('_', '-')} {args}".strip())
    return " | ".join(parts)
