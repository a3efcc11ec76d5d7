"""Signed safety certificates and the whole-script analyzer (S16).

``analyze_program`` is the compile-once pass the engines consult instead
of re-deriving safety on the hot path.  For every candidate dataflow
region (a flat pipeline of simple commands — the same shape test the JIT
uses, see :mod:`repro.analysis.candidates`) it issues a
:class:`SafetyCertificate`:

* ``unsafe(reason)``   — early expansion has side effects; the exact
  verdict the runtime purity walk would reach, precomputed.  The JIT
  skips the node without walking it again.
* ``safe_parallel``    — expansion is provably side-effect free: the JIT
  may expand early and hand the region to the optimizer.  Hazards
  (e.g. the region writes a file it also reads) are attached for the
  lint layer but do not veto the certificate — the runtime engine's
  decision must stay bit-identical with and without the analyzer.
* ``safe_reorder``     — additionally the region writes nothing (files
  or variables): it commutes with any effect-disjoint statement.
* ``unknown``          — never stored; a missing certificate *is* the
  unknown verdict, and the engine falls back to the runtime check.

Certificates are signed: the digest covers the analyzer version, the
unparsed region text, and the verdict, so a consumer can detect a
certificate applied to a node it was not computed for.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from ..annotations.library import DEFAULT_LIBRARY
from ..annotations.model import SpecLibrary
from ..parser.ast_nodes import Command, CommandList, walk
from ..parser.unparse import unparse
from .candidates import pipeline_stages, purity_reason
from .effects import EffectAnalyzer, EffectSummary, self_conflicts
from .envflow import VarUse, use_before_def
from .races import RaceFinding, detect_races

ANALYZER_VERSION = "s16.1"

SAFE_PARALLEL = "safe_parallel"
SAFE_REORDER = "safe_reorder"
UNSAFE = "unsafe"
UNKNOWN = "unknown"


def _sign(node_text: str, verdict: str, reason: str) -> str:
    payload = "\x00".join((ANALYZER_VERSION, node_text, verdict, reason))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class SafetyCertificate:
    verdict: str          # SAFE_PARALLEL | SAFE_REORDER | UNSAFE
    reason: str           # why (impurity reason, or the safety argument)
    node_text: str        # unparsed region the verdict covers
    digest: str           # signature over (version, text, verdict, reason)
    hazards: tuple[str, ...] = ()  # advisory conflicts (lint layer)

    @property
    def safe(self) -> bool:
        return self.verdict in (SAFE_PARALLEL, SAFE_REORDER)

    def verify(self) -> bool:
        """Re-derive the signature; False means tampered/mismatched."""
        return self.digest == _sign(self.node_text, self.verdict, self.reason)

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "reason": self.reason,
            "node": self.node_text,
            "digest": self.digest,
            "hazards": list(self.hazards),
        }


def make_certificate(verdict: str, reason: str, node_text: str,
                     hazards: tuple[str, ...] = ()) -> SafetyCertificate:
    return SafetyCertificate(verdict, reason, node_text,
                             _sign(node_text, verdict, reason), hazards)


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
    reads: ``absint`` (S20 value flow), the effect pass behind
    ``statements``/``cert_list``/``certificates``, ``races`` and
    ``use_before_def``.  The values do not depend on the order of reads.
    """

    def __init__(self, program: Command, library: SpecLibrary,
                 allow_pure_cmdsub: bool, pure_commands: frozenset):
        #: the analyzed program (kept so id()-keyed tables stay valid)
        self.program = program
        self._library = library
        #: id(node) -> why early expansion is unsound, or None when it is
        #: pure, for every candidate region (dead ones included)
        self.purity: dict[int, Optional[str]] = {}
        for node in walk(program):
            stages = pipeline_stages(node)
            if stages is not None:
                self.purity[id(node)] = purity_reason(
                    stages, allow_pure_cmdsub, pure_commands)

    @cached_property
    def absint(self):
        """The S20 value-flow result (AbsintResult)."""
        from .absint import analyze_value_flow

        return analyze_value_flow(self.program)

    @cached_property
    def _effects(self) -> EffectAnalyzer:
        effects = EffectAnalyzer(self._library)
        effects.register_functions(self.program)
        return effects

    @cached_property
    def _effect_pass(self) -> tuple[list, list, dict]:
        """Statement reports and certificates from one walk: both read
        the analyzer's summary cache, and a summary cut at a recursive
        call depends on which node asked first."""
        effects = self._effects
        dead = self.dead_nodes()
        statements: list[StatementReport] = []
        cert_list: list[SafetyCertificate] = []
        certificates: dict[int, SafetyCertificate] = {}
        for node in walk(self.program):
            if isinstance(node, CommandList):
                for item in node.items:
                    statements.append(StatementReport(
                        unparse(item.command), effects.compute(item.command),
                        item.is_async))
            if id(node) not in self.purity or id(node) in dead:
                continue  # not a candidate, or provably never executes
            text = unparse(node)
            impure = self.purity[id(node)]
            if impure is not None:
                cert = make_certificate(UNSAFE, impure, text)
            else:
                summary = effects.compute(node)
                hazards = tuple(c.display() for c in self_conflicts(summary))
                if summary.opaque:
                    hazards += ("contains a command with unknown effects",)
                if not summary.writes and not summary.env_defs \
                        and not summary.opaque:
                    cert = make_certificate(
                        SAFE_REORDER,
                        "expansion is pure and the region writes nothing",
                        text, hazards)
                else:
                    cert = make_certificate(
                        SAFE_PARALLEL, "expansion is side-effect free",
                        text, hazards)
            certificates[id(node)] = cert
            cert_list.append(cert)
        return statements, cert_list, certificates

    @property
    def statements(self) -> list[StatementReport]:
        return self._effect_pass[0]

    @property
    def cert_list(self) -> list[SafetyCertificate]:
        """The certificates in walk order (stable for reports)."""
        return self._effect_pass[1]

    @property
    def certificates(self) -> dict[int, SafetyCertificate]:
        """id(node) -> certificate, for every live candidate region."""
        return self._effect_pass[2]

    @cached_property
    def races(self) -> list[RaceFinding]:
        self._effect_pass  # its summaries are the ones detect_races reuses
        return detect_races(self.program, self._effects)

    @cached_property
    def use_before_def(self) -> list[VarUse]:
        return use_before_def(self.program)

    def stats(self) -> dict:
        by_verdict: dict[str, int] = {}
        for cert in self.cert_list:
            by_verdict[cert.verdict] = by_verdict.get(cert.verdict, 0) + 1
        return {
            "statements": len(self.statements),
            "certificates": len(self.cert_list),
            "safe_parallel": by_verdict.get(SAFE_PARALLEL, 0),
            "safe_reorder": by_verdict.get(SAFE_REORDER, 0),
            "unsafe": by_verdict.get(UNSAFE, 0),
            "races": len(self.races),
            "use_before_def": len(self.use_before_def),
            **self.absint.stats(),
        }

    def dead_nodes(self) -> frozenset:
        """ids of provably-dead nodes."""
        return frozenset(self.absint.dead)

    def to_dict(self) -> dict:
        return {
            "analyzer": ANALYZER_VERSION,
            "summary": self.stats(),
            "statements": [s.to_dict() for s in self.statements],
            "certificates": [c.to_dict() for c in self.cert_list],
            "races": [r.to_dict() for r in self.races],
            "use_before_def": [
                {"name": u.name, "statement": unparse(u.node)}
                for u in self.use_before_def
            ],
            "value_flow": self.absint.to_dict(),
        }


def analyze_program(program: Command,
                    library: SpecLibrary | None = None,
                    allow_pure_cmdsub: bool = False,
                    pure_commands: frozenset = frozenset()) -> AnalysisResult:
    """The interprocedural whole-script pass, demand-driven: this call
    walks the program once for the purity verdicts and every other
    section of the :class:`AnalysisResult` is computed when first read.

    ``allow_pure_cmdsub``/``pure_commands`` must match the consuming
    engine's configuration — the purity verdicts are only transferable
    when both sides ask the same question.

    The S20 abstract interpreter (:mod:`repro.analysis.absint`) is
    always offered: provably-dead regions get no safety certificate
    (they can never be executed).  It sees no file system, so its facts
    hold whatever the files are when the script runs."""
    return AnalysisResult(program, library or DEFAULT_LIBRARY,
                          allow_pure_cmdsub, pure_commands)
