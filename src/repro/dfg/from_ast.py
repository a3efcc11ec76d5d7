"""Shell AST -> dataflow-graph region extraction.

Two consumers with different knowledge:

* the **AOT compiler** (PaSh role) sees the unexpanded AST — it can only
  extract regions whose words are fully literal.  ``cat $FILES | ...``
  is *not* extractable, which is the paper's spell-script argument.
* the **JIT** (Jash role) expands words first (soundly, via the purity
  analysis) and hands concrete argvs to :func:`build_dfg`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..analysis.candidates import pipeline_stages
from ..annotations.model import InstanceSpec, ParClass, SpecLibrary
from ..parser.ast_nodes import Command, SimpleCommand
from .graph import CMD, DataflowGraph


@dataclass
class RegionStage:
    argv: list[str]
    spec: InstanceSpec
    stdin_file: Optional[str] = None   # from `< file`
    stdout_file: Optional[str] = None  # from `> file` / `>> file`
    stdout_append: bool = False


@dataclass
class Region:
    """A candidate dataflow region: a pipeline of known, pure commands."""

    stages: list[RegionStage] = field(default_factory=list)

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
        args = first.argv[1:]
        paths = [args[idx] if idx < len(args) else "-"
                 for idx in first.spec.input_operands]
        return paths if paths and "-" not in paths else None


class RegionRefusal(Exception):
    """Why :func:`read_region` refused a node.  ``kind`` is ``"shape"``
    (not a flat pipeline of plain simple commands), ``"redirect"`` (one
    the region model lacks), ``"dynamic"`` (a word needs expansion) or
    ``"command"`` (unknown or side-effectful; ``name`` says which)."""

    def __init__(self, kind: str, name: str = ""):
        super().__init__(kind, name)
        self.kind, self.name = kind, name


def literal_argv(node: SimpleCommand) -> Optional[list[str]]:
    """argv when every word is static (no expansions); else None."""
    argv: list[str] = []
    for word in node.words:
        if not word.is_literal():
            return None
        argv.append(word.literal_value())
    return argv if argv else None


def _literal_redirects(node: SimpleCommand) -> tuple[Optional[str], Optional[str], bool]:
    """(stdin_file, stdout_file, append) when redirects are simple/static;
    refuses redirects the region model lacks — a second redirect of the
    same fd included: the shell would still create the first target, a
    region with one sink would not."""
    stdin_file = None
    stdout_file = None
    append = False
    for redirect in node.redirects:
        if not redirect.target.is_literal():
            raise RegionRefusal("redirect")
        target = redirect.target.literal_value()
        fd = redirect.default_fd()
        if redirect.op == "<" and fd == 0 and stdin_file is None:
            stdin_file = target
        elif redirect.op in (">", ">>") and fd == 1 and stdout_file is None:
            stdout_file = target
            append = redirect.op == ">>"
        else:
            raise RegionRefusal("redirect")
    return stdin_file, stdout_file, append


def read_region(node: Command, library: SpecLibrary) -> Region:
    """The one AST -> region reader: a flat pipeline
    (:func:`~repro.analysis.candidates.pipeline_stages`) whose words and
    ``<``/``>``/``>>`` targets are all literal and whose commands the
    library knows.  Raises :class:`RegionRefusal` otherwise."""
    commands = pipeline_stages(node)
    if commands is None:
        raise RegionRefusal("shape")
    stages: list[RegionStage] = []
    for i, cmd in enumerate(commands):
        stdin_file, stdout_file, append = _literal_redirects(cmd)
        if (stdin_file is not None and i != 0) or (
                stdout_file is not None and i != len(commands) - 1):
            raise RegionRefusal("redirect")
        argv = literal_argv(cmd)
        if argv is None:
            raise RegionRefusal("dynamic" if cmd.words else "shape")
        stage = make_stage(argv, library, stdin_file, stdout_file, append)
        if stage is None:
            raise RegionRefusal("command", argv[0])
        stages.append(stage)
    return Region(stages)


def extract_region(node: Command, library: SpecLibrary) -> Optional[Region]:
    """AOT extraction: region from a literal-only pipeline/simple command."""
    try:
        return read_region(node, library)
    except RegionRefusal:
        return None


def make_stage(argv: list[str], library: SpecLibrary,
               stdin_file: Optional[str] = None,
               stdout_file: Optional[str] = None,
               append: bool = False) -> Optional[RegionStage]:
    """Classify one expanded argv into a region stage; None when the
    command is unknown or side-effectful (B1 strikes)."""
    if not argv:
        return None
    spec = library.classify(argv[0], argv[1:])
    if spec is None:
        return None
    if spec.par_class is ParClass.SIDE_EFFECTFUL:
        return None
    return RegionStage(list(argv), spec, stdin_file, stdout_file, append)


def region_from_argvs(argvs: list[list[str]], library: SpecLibrary,
                      stdin_file: Optional[str] = None,
                      stdout_file: Optional[str] = None) -> Optional[Region]:
    """JIT extraction: stages from already-expanded argvs."""
    stages: list[RegionStage] = []
    for i, argv in enumerate(argvs):
        stage = make_stage(
            argv, library,
            stdin_file if i == 0 else None,
            stdout_file if i == len(argvs) - 1 else None,
        )
        if stage is None:
            return None
        stages.append(stage)
    return Region(stages)


def build_dfg(region: Region) -> DataflowGraph:
    """Lower a region to the baseline (sequential) dataflow graph."""
    dfg = DataflowGraph()
    prev_stream: Optional[int] = None
    first = region.stages[0]
    if first.stdin_file is not None:
        prev_stream = dfg.new_stream(path=first.stdin_file)
        dfg.source = prev_stream
    for i, stage in enumerate(region.stages):
        inputs: tuple[int, ...] = ()
        if stage.spec.reads_stdin or prev_stream is not None:
            if prev_stream is None:
                prev_stream = dfg.new_stream()  # empty stdin
                dfg.source = prev_stream
            inputs = (prev_stream,)
        out_stream = dfg.new_stream(
            path=stage.stdout_file if i == len(region.stages) - 1 else None
        )
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
