"""Effect summaries: abstract read/write file sets per AST node (S16).

A summary answers the question the race detector, the host pool's
prefetch timing and ``jash check`` ask: which files *may* this statement
read or write (as :class:`~repro.analysis.paths.AbstractPath` sets)?

File effects come from three sources: redirections, the annotation
library's per-invocation specs (``input_operands`` name the read files,
``output_files`` the written ones), and hard-wired rules for the
filesystem-mutating commands the library only marks SIDE_EFFECTFUL
(``rm``/``mv``/``cp``/``touch``/``mkdir``/``tee``).  Unknown commands
make a summary *opaque*: its effects are unknown, so the pool defers a
region behind it and races through it can be missed, rather than
guessed.

Function definitions are summarized once and inlined at call sites
(the interprocedural half of the analysis), with a recursion guard.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..annotations.library import DEFAULT_LIBRARY
from ..annotations.model import SpecLibrary
from ..parser.ast_nodes import (
    AndOr,
    ArithSub,
    BraceGroup,
    Case,
    CmdSub,
    Command,
    CommandList,
    DoubleQuoted,
    For,
    FuncDef,
    If,
    Param,
    Pipeline,
    Redirect,
    SimpleCommand,
    Subshell,
    While,
    Word,
)
from ..semantics.builtins import REGULAR_BUILTINS, SPECIAL_BUILTINS
from .candidates import placeholder_argv
from .paths import AbstractPath, may_alias, word_to_path

#: commands whose filesystem effects the library does not itemize
#: (it only marks them SIDE_EFFECTFUL); modelled here by hand.
_WRITES_OPERANDS = ("rm", "touch", "mkdir", "shred", "mkfs")

READ_REDIRECTS = ("<", "<>")
WRITE_REDIRECTS = (">", ">>", ">|")


@dataclass
class EffectSummary:
    """Abstract effects of one AST subtree."""

    reads: set[AbstractPath] = field(default_factory=set)
    writes: set[AbstractPath] = field(default_factory=set)
    #: contains a command the library cannot classify: effects unknown
    opaque: bool = False

    def merge(self, other: "EffectSummary") -> None:
        self.reads |= other.reads
        self.writes |= other.writes
        self.opaque = self.opaque or other.opaque

    def to_dict(self) -> dict:
        def paths(ps):
            return sorted(p.display() for p in ps)

        return {
            "reads": paths(self.reads),
            "writes": paths(self.writes),
            "opaque": self.opaque,
        }


@dataclass(frozen=True)
class Conflict:
    """One pair of abstract paths that may name the same file with at
    least one write involved."""

    kind: str  # "write-write" | "write-read" | "read-write"
    path: AbstractPath
    other: AbstractPath

    def display(self) -> str:
        return f"{self.kind} on {self.path.display()} / {self.other.display()}"


def conflicts(a: EffectSummary, b: EffectSummary,
              include_top: bool = False) -> list[Conflict]:
    """Memory-model conflicts between two summaries executing
    concurrently: write-write, write-read (``a`` writes what ``b``
    reads) and read-write.  ⊤ paths are excluded unless
    ``include_top`` — they alias everything and would drown the report.
    """
    out: list[Conflict] = []

    def scan(kind, left, right):
        for p in sorted(left, key=lambda x: (x.kind, x.text)):
            if p.is_top and not include_top:
                continue
            for q in sorted(right, key=lambda x: (x.kind, x.text)):
                if q.is_top and not include_top:
                    continue
                if may_alias(p, q):
                    out.append(Conflict(kind, p, q))

    scan("write-write", a.writes, b.writes)
    scan("write-read", a.writes, b.reads)
    scan("read-write", a.reads, b.writes)
    return out


class EffectAnalyzer:
    """Computes :class:`EffectSummary` per node against a spec library
    and the program's function table."""

    def __init__(self, library: SpecLibrary | None = None):
        self.library = library or DEFAULT_LIBRARY
        self.functions: dict[str, Command] = {}
        self._stack: list[str] = []  # recursion guard for function inlining
        self._cache: dict[int, EffectSummary] = {}

    # -- functions ----------------------------------------------------------------

    def register_functions(self, program: Command) -> None:
        from ..parser.ast_nodes import walk

        for node in walk(program):
            if isinstance(node, FuncDef):
                self.functions[node.name] = node.body

    # -- entry point --------------------------------------------------------------

    def compute(self, node: Command) -> EffectSummary:
        cached = self._cache.get(id(node))
        if cached is not None:
            return cached
        summary = self._compute(node)
        self._cache[id(node)] = summary
        return summary

    def _compute(self, node: Command) -> EffectSummary:
        s = EffectSummary()
        if isinstance(node, SimpleCommand):
            self._simple(node, s)
        elif isinstance(node, Pipeline):
            for cmd in node.commands:
                s.merge(self.compute(cmd))
        elif isinstance(node, AndOr):
            s.merge(self.compute(node.left))
            s.merge(self.compute(node.right))
        elif isinstance(node, CommandList):
            for item in node.items:
                s.merge(self.compute(item.command))
        elif isinstance(node, (Subshell, BraceGroup)):
            s.merge(self.compute(node.body))
            self._redirects(node.redirects, s)
        elif isinstance(node, If):
            s.merge(self.compute(node.cond))
            s.merge(self.compute(node.then_body))
            for cond, body in node.elifs:
                s.merge(self.compute(cond))
                s.merge(self.compute(body))
            if node.else_body is not None:
                s.merge(self.compute(node.else_body))
            self._redirects(node.redirects, s)
        elif isinstance(node, While):
            s.merge(self.compute(node.cond))
            s.merge(self.compute(node.body))
            self._redirects(node.redirects, s)
        elif isinstance(node, For):
            for word in node.words or ():
                self._word_effects(word, s)
            s.merge(self.compute(node.body))
            self._redirects(node.redirects, s)
        elif isinstance(node, Case):
            self._word_effects(node.word, s)
            for item in node.items:
                for pat in item.patterns:
                    self._word_effects(pat, s)
                if item.body is not None:
                    s.merge(self.compute(item.body))
            self._redirects(node.redirects, s)
        elif isinstance(node, FuncDef):
            pass  # defining a function has no effect; calls inline the body
        return s

    # -- simple commands ----------------------------------------------------------

    def _simple(self, node: SimpleCommand, s: EffectSummary) -> None:
        for assign in node.assigns:
            self._word_effects(assign.word, s)
        for word in node.words:
            self._word_effects(word, s)
        self._redirects(node.redirects, s)
        if not node.words:
            return
        name = node.words[0].constant
        if name is None:
            s.opaque = True  # dynamically-named command: anything goes
            return
        if name in self.functions:
            self._call(name, s)
            return
        argv = placeholder_argv(node.words)
        operands = [w for w, arg in zip(node.words[1:], argv[1:])
                    if not arg.startswith("-") or arg == "-"]
        if name in _WRITES_OPERANDS:
            s.writes.update(word_to_path(w) for w in operands)
            return
        if name == "mv":
            for w in operands:
                s.writes.add(word_to_path(w))
            for w in operands[:-1]:
                s.reads.add(word_to_path(w))
            return
        if name == "cp":
            if operands:
                s.writes.add(word_to_path(operands[-1]))
                s.reads.update(word_to_path(w) for w in operands[:-1])
            return
        if name == "tee":
            s.writes.update(word_to_path(w) for w in operands)
            return
        if name in SPECIAL_BUILTINS or name in REGULAR_BUILTINS:
            return  # no file effects beyond redirects
        spec = self.library.classify(name, argv[1:])
        if spec is None:
            s.opaque = True
            return
        for idx in spec.input_operands:
            if idx < len(node.words) - 1:
                s.reads.add(word_to_path(node.words[idx + 1]))
        for out in spec.output_files:
            # output_files come back as argv strings; re-abstract them
            # through the matching word when one exists
            for w in node.words[1:]:
                if w.constant == out:
                    s.writes.add(word_to_path(w))
                    break

    def _call(self, name: str, s: EffectSummary) -> None:
        if name in self._stack:
            s.opaque = True  # recursive function: give up on precision
            return
        self._stack.append(name)
        try:
            s.merge(self.compute(self.functions[name]))
        finally:
            self._stack.pop()

    # -- shared helpers -----------------------------------------------------------

    def _redirects(self, redirects: tuple[Redirect, ...], s: EffectSummary) -> None:
        for redirect in redirects:
            if redirect.op in ("<<", "<<-", "<&", ">&"):
                continue  # heredocs and fd-dups touch no named file
            self._word_effects(redirect.target, s)
            path = word_to_path(redirect.target)
            if redirect.op in READ_REDIRECTS:
                s.reads.add(path)
            elif redirect.op in WRITE_REDIRECTS:
                s.writes.add(path)

    def _word_effects(self, word: Word, s: EffectSummary) -> None:
        """File effects inside a word (including nested expansions): a
        command substitution contributes its command's reads and writes
        (its writes happen in a subshell but still touch the fs)."""
        for part in word.parts:
            self._part_effects(part, s)

    def _part_effects(self, part, s: EffectSummary) -> None:
        if isinstance(part, Param):
            if part.word is not None:
                self._word_effects(part.word, s)
        elif isinstance(part, (DoubleQuoted, ArithSub)):
            for sub in part.parts:
                self._part_effects(sub, s)
        elif isinstance(part, CmdSub):
            s.merge(self.compute(part.command))
