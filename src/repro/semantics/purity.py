"""Purity analysis for early word expansion.

Jash expands words *before* their command runs so the optimizer can see
concrete file names and sizes.  The paper (§3.2): "early expansions
shouldn't have side-effects; Smoosh's semantics is critical for this kind
of reasoning."  This module is that check: a conservative, syntactic
side-effect analysis over word ASTs.

An expansion is *pure* when evaluating it cannot change shell or system
state and cannot abort the shell:

* ``${x=w}`` / ``${x:=w}`` assign — impure.
* ``${x?w}`` / ``${x:?w}`` may exit the shell — impure.
* ``$((x=1))`` and friends assign — impure.
* ``$(cmd)`` runs arbitrary commands — impure, even for a read-only
  command such as ``$(wc -l f)``: commands consume input (cat a pipe
  twice and the second read sees nothing).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..parser.ast_nodes import (
    ArithSub,
    CmdSub,
    DoubleQuoted,
    Escaped,
    Lit,
    Param,
    SingleQuoted,
    Word,
)
from .arith import has_side_effects
from .patterns import strip_quote_marks


@dataclass
class PurityReport:
    pure: bool
    reasons: list[str] = field(default_factory=list)

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.pure


def check_word(word: Word) -> PurityReport:
    """Is expanding ``word`` side-effect free?"""
    reasons: list[str] = []
    _check_parts(word.parts, reasons)
    return PurityReport(not reasons, reasons)


def check_words(words) -> PurityReport:
    reasons: list[str] = []
    for word in words:
        _check_parts(word.parts, reasons)
    return PurityReport(not reasons, reasons)


def _check_parts(parts, reasons: list[str]) -> None:
    for part in parts:
        if isinstance(part, (Lit, SingleQuoted, Escaped)):
            continue
        if isinstance(part, DoubleQuoted):
            _check_parts(part.parts, reasons)
        elif isinstance(part, Param):
            base_op = part.op.lstrip(":")
            if base_op == "=":
                reasons.append(f"${{{part.name}{part.op}...}} assigns a variable")
            elif base_op == "?":
                reasons.append(f"${{{part.name}{part.op}...}} may abort the shell")
            if part.word is not None:
                _check_parts(part.word.parts, reasons)
        elif isinstance(part, ArithSub):
            expr = _static_text(part.parts)
            if expr is None or has_side_effects(expr):
                reasons.append("arithmetic expansion may assign")
            else:
                _check_parts(part.parts, reasons)
        elif isinstance(part, CmdSub):
            reasons.append("command substitution runs commands")
        else:
            reasons.append(f"unknown word part {type(part).__name__}")


def _static_text(parts) -> str | None:
    """Concatenated text of literal-only parts; None when dynamic."""
    out: list[str] = []
    for part in parts:
        if isinstance(part, Lit):
            out.append(part.text)
        elif isinstance(part, SingleQuoted):
            out.append(part.text)
        elif isinstance(part, Escaped):
            out.append(part.char)
        elif isinstance(part, Param) and part.op in ("", "length"):
            out.append("0")  # a plain variable read: value is numeric-shaped
        else:
            return None
    return "".join(out)

