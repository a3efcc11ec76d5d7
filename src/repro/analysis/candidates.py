"""Candidate-region shape and expansion-purity checks.

This is the *shared* front half of both the static analyzer and the JIT
front-end (:mod:`repro.jit.frontend` re-exports these): a node is a
dataflow-region candidate when it is a flat pipeline of simple commands,
and its words may be expanded early only when expansion is side-effect
free.  Keeping one implementation here guarantees the analyzer's static
verdicts and the JIT's runtime pre-screen can never disagree.
"""

from __future__ import annotations

from typing import Optional

from ..parser.ast_nodes import Command, Pipeline, SimpleCommand, Word
from ..semantics.purity import check_word, check_words

class _Placeholder(str):
    """A field that equals only itself, whatever text a word holds."""

    def __eq__(self, other: object) -> bool:
        return self is other

    def __ne__(self, other: object) -> bool:
        return self is not other

    __hash__ = str.__hash__


#: :func:`placeholder_argv`'s field for a word only expansion decides
DYNAMIC = _Placeholder("\x00dyn")


def placeholder_argv(words: tuple[Word, ...]) -> list[str]:
    """Each word's ``constant``, a dynamic word as :data:`DYNAMIC` (not a
    flag, so operand positions line up): an argv before anything runs."""
    return [DYNAMIC if w.constant is None else w.constant for w in words]


def pipeline_stages(node: Command) -> Optional[list[SimpleCommand]]:
    """The simple-command stages of a flat pipeline; None when the node
    has shapes the dataflow fragment does not cover."""
    if isinstance(node, SimpleCommand):
        stages = [node]
    elif isinstance(node, Pipeline) and not node.negated:
        if not all(isinstance(c, SimpleCommand) for c in node.commands):
            return None
        stages = list(node.commands)
    else:
        return None
    for stage in stages:
        if stage.assigns:
            return None
        for redirect in stage.redirects:
            if redirect.op in ("<<", "<<-", "<&", ">&"):
                return None
    return stages


def purity_reason(stages: list[SimpleCommand]) -> Optional[str]:
    """Why early expansion would be unsound, or None when it is safe."""
    for stage in stages:
        report = check_words(stage.words)
        if not report.pure:
            return "; ".join(report.reasons)
        for redirect in stage.redirects:
            report = check_word(redirect.target)
            if not report.pure:
                return "; ".join(report.reasons)
    return None
