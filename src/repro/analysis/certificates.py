"""The whole-script analyzer (S16) and its verdict table.

``analyze_program`` is the compile-once pass the engines consult instead
of re-deriving safety on the hot path.  For every candidate dataflow
region (a flat pipeline of simple commands — the same shape test the JIT
uses, see :mod:`repro.analysis.candidates`) it answers the one question
the paper asks of a region (§3.2: "early expansions shouldn't have
side-effects"), and that answer is the region's certificate:

* ``unsafe(reason)``   — early expansion has side effects; the exact
  verdict the runtime purity walk would reach, precomputed.  The JIT
  skips the node without walking it again.
* ``safe_parallel``    — expansion is provably side-effect free: the JIT
  may expand early and hand the region to the optimizer.
* ``unknown``          — never stored; a missing entry *is* the unknown
  verdict, and the engine falls back to the runtime check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from ..annotations.library import DEFAULT_LIBRARY
from ..annotations.model import SpecLibrary
from ..parser.ast_nodes import Command, CommandList, walk
from ..parser.unparse import unparse
from .candidates import pipeline_stages, purity_reason
from .effects import EffectAnalyzer, EffectSummary
from .envflow import VarUse, use_before_def
from .races import RaceFinding, detect_races

SAFE_PARALLEL = "safe_parallel"
UNSAFE = "unsafe"
UNKNOWN = "unknown"


def verdict(reason: Optional[str]) -> str:
    """The verdict of a table entry: ``unsafe`` when it names a reason."""
    return SAFE_PARALLEL if reason is None else UNSAFE


@dataclass
class StatementReport:
    """One statement-level entry of the whole-script report."""

    text: str
    summary: EffectSummary
    is_async: bool = False

    def to_dict(self) -> dict:
        d = {"statement": self.text, "effects": self.summary.to_dict()}
        if self.is_async:
            d["async"] = True
        return d


class AnalysisResult:
    """What one ``analyze_program`` pass knows, section by section.

    Only :attr:`purity` — the verdict table the JIT looks candidates up
    in — is built when the pass is made.  Every other section is
    computed on its first read and kept, so a consumer pays for what it
    reads: ``absint`` (S20 value flow) and through it ``certificates``,
    the ``effects`` analyzer behind ``statements``, ``races`` and
    ``use_before_def``.  The values do not depend on the order of reads.
    """

    def __init__(self, program: Command, library: SpecLibrary):
        #: the analyzed program (kept so id()-keyed tables stay valid)
        self.program = program
        self._library = library
        #: id(node) -> why early expansion is unsound, or None when it is
        #: pure, for every candidate region (dead ones included)
        self.purity: dict[int, Optional[str]] = {}
        for node in walk(program):
            stages = pipeline_stages(node)
            if stages is not None:
                self.purity[id(node)] = purity_reason(stages)

    @cached_property
    def absint(self):
        """The S20 value-flow result (AbsintResult)."""
        from .absint import analyze_value_flow

        return analyze_value_flow(self.program)

    @cached_property
    def certificates(self) -> dict[int, Optional[str]]:
        """The :attr:`purity` entries of every live candidate region, in
        walk order: a region value flow proves dead gets no certificate."""
        dead = self.dead_nodes()
        return {key: reason for key, reason in self.purity.items()
                if key not in dead}

    @cached_property
    def effects(self) -> EffectAnalyzer:
        """The effect analyzer over this program.  Its summary cache is
        shared, and a summary cut at a recursive call depends on which
        node asked first, so top-level statements are asked in program
        order before anything nested."""
        effects = EffectAnalyzer(self._library)
        effects.register_functions(self.program)
        return effects

    @cached_property
    def statements(self) -> list[StatementReport]:
        effects = self.effects
        return [StatementReport(unparse(item.command),
                                effects.compute(item.command), item.is_async)
                for node in walk(self.program)
                if isinstance(node, CommandList) for item in node.items]

    @property
    def cert_list(self) -> list[dict]:
        """The certificates in walk order, as report entries."""
        certificates = self.certificates
        return [{"verdict": verdict(certificates[id(node)]),
                 "reason": (certificates[id(node)]
                            or "expansion is side-effect free"),
                 "node": unparse(node)}
                for node in walk(self.program) if id(node) in certificates]

    @cached_property
    def races(self) -> list[RaceFinding]:
        self.statements  # its summaries are the ones detect_races reuses
        return detect_races(self.program, self.effects)

    @cached_property
    def use_before_def(self) -> list[VarUse]:
        return use_before_def(self.program)

    def stats(self) -> dict:
        unsafe = sum(reason is not None
                     for reason in self.certificates.values())
        return {
            "statements": len(self.statements),
            "certificates": len(self.certificates),
            "safe_parallel": len(self.certificates) - unsafe,
            "unsafe": unsafe,
            "races": len(self.races),
            "use_before_def": len(self.use_before_def),
            **self.absint.stats(),
        }

    def dead_nodes(self) -> frozenset:
        """ids of provably-dead nodes."""
        return frozenset(self.absint.dead)

    def to_dict(self) -> dict:
        return {
            "summary": self.stats(),
            "statements": [s.to_dict() for s in self.statements],
            "certificates": self.cert_list,
            "races": [r.to_dict() for r in self.races],
            "use_before_def": [
                {"name": u.name, "statement": unparse(u.node)}
                for u in self.use_before_def
            ],
            "value_flow": self.absint.to_dict(),
        }


def analyze_program(program: Command,
                    library: SpecLibrary | None = None) -> AnalysisResult:
    """The interprocedural whole-script pass, demand-driven: this call
    walks the program once for the purity verdicts and every other
    section of the :class:`AnalysisResult` is computed when first read.

    The S20 abstract interpreter (:mod:`repro.analysis.absint`) is
    always offered: provably-dead regions get no certificate (they can
    never be executed).  It sees no file system, so its facts hold
    whatever the files are when the script runs."""
    return AnalysisResult(program, library or DEFAULT_LIBRARY)
