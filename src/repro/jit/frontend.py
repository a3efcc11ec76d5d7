"""Shared JIT front-end: candidate detection, purity checking, and sound
early expansion of a pipeline's words and redirect targets.

Used by the Jash optimizer (S9), the incremental engine (S11) and the
misuse guard.  What the expanded strings mean for a region is decided by
the rule set the literal reader uses too,
:func:`repro.dfg.from_ast.region_from_words`.
"""

from __future__ import annotations

# the candidate-shape and purity checks live in repro.analysis so the
# static analyzer and the JIT pre-screen can never diverge; re-exported
# here for the engine and the incremental hook
from ..analysis.candidates import pipeline_stages, purity_reason  # noqa: F401
from ..annotations.model import SpecLibrary
from ..dfg.from_ast import RegionRefusal, StageWords, region_from_words
from ..parser.ast_nodes import SimpleCommand
from ..semantics.expansion import expand_word_single, expand_words


def expand_stage_words(interp, proc, stages: list[SimpleCommand]):
    """Each stage's expanded argv and (redirect, target) pairs.  A
    generator: command substitution would need the kernel — but purity
    checking has already excluded those."""
    words: list[StageWords] = []
    for stage in stages:
        argv = yield from expand_words(interp, proc, stage.words)
        targets = []
        for redirect in stage.redirects:
            target = yield from expand_word_single(interp, proc,
                                                   redirect.target)
            targets.append((redirect, target))
        words.append((argv, targets))
    return words


def expand_region(interp, proc, stages: list[SimpleCommand],
                  library: SpecLibrary):
    """Early-expand a (purity-checked) pipeline into a Region, or None
    when the region rules refuse it."""
    words = yield from expand_stage_words(interp, proc, stages)
    try:
        return region_from_words(words, library)
    except RegionRefusal:
        return None
