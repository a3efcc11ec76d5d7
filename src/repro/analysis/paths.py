"""The abstract-path lattice (S16).

The static analyzer cannot know which concrete files a word names — the
word may contain globs or runtime expansions.  It abstracts every
file-naming word into one of three shapes, ordered by precision:

* ``literal(p)``    — the word statically expands to exactly ``p``;
* ``glob(q)``       — the word is a glob whose matches all start with the
  literal prefix ``q`` (``/logs/*.gz`` → ``glob("/logs/")``);
* ``prefix(q)``     — the word contains runtime expansions after the
  literal prefix ``q`` (``/data/$f`` → ``prefix("/data/")``); ``prefix("")``
  is ⊤, the unresolvable word.

``literal ⊑ glob ⊑ prefix`` in the sense that each shape denotes a
superset of concrete paths.  :func:`may_alias` is the conservative
overlap test the race detector and the host pool's prefetch timing use:
it answers "could these two abstract paths denote the same file?" and
errs toward *yes* (soundness for conflict detection).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..parser.ast_nodes import (
    DoubleQuoted,
    Escaped,
    Lit,
    SingleQuoted,
    Word,
)

LITERAL = "literal"
GLOB = "glob"
PREFIX = "prefix"

GLOB_CHARS = "*?["


@dataclass(frozen=True)
class AbstractPath:
    """One point in the abstract-path lattice."""

    kind: str  # LITERAL | GLOB | PREFIX
    text: str  # the exact path (literal) or the known literal prefix

    @property
    def is_top(self) -> bool:
        """⊤: a word with no statically-known prefix at all."""
        return self.kind != LITERAL and not self.text

    def display(self) -> str:
        if self.kind == LITERAL:
            return self.text
        if self.is_top:
            return "<unresolvable>"
        return f"{self.text}*" if self.kind == GLOB else f"{self.text}…"

    def to_dict(self) -> dict:
        return {"kind": self.kind, "text": self.text}


def literal(path: str) -> AbstractPath:
    return AbstractPath(LITERAL, _norm(path))


def glob_prefix(prefix: str) -> AbstractPath:
    return AbstractPath(GLOB, _norm(prefix))


def prefix(prefix_: str) -> AbstractPath:
    return AbstractPath(PREFIX, _norm(prefix_))


TOP = AbstractPath(PREFIX, "")


def _norm(path: str) -> str:
    """Light, purely-syntactic normalization (no filesystem, no cwd)."""
    while path.startswith("./"):
        path = path[2:]
    return path


def may_alias(a: AbstractPath, b: AbstractPath) -> bool:
    """Could ``a`` and ``b`` denote the same concrete file?

    literal×literal compares exactly; a literal overlaps an abstract
    path when it extends the abstract prefix; two abstract paths overlap
    when either prefix extends the other (⊤ overlaps everything).
    """
    if a.kind == LITERAL and b.kind == LITERAL:
        return a.text == b.text
    if a.kind == LITERAL:
        return a.text.startswith(b.text)
    if b.kind == LITERAL:
        return b.text.startswith(a.text)
    return a.text.startswith(b.text) or b.text.startswith(a.text)


def word_to_path(word: Word) -> AbstractPath:
    """Abstract the file path a word denotes: a constant word is its one
    field, an unquoted leading ``~`` some absolute path (⊤ would drop out
    of conflict reports), any other word its literal prefix up to the
    first glob character (``glob``) or runtime expansion (``prefix``)."""
    if word.constant is not None:
        return literal(word.constant)
    if type(word.parts[0]) is Lit and word.parts[0].text.startswith("~"):
        return prefix("/")
    out: list[str] = []
    for part in word.parts:
        if isinstance(part, Lit):
            # unquoted literal text: glob metacharacters are live
            for i, ch in enumerate(part.text):
                if ch in GLOB_CHARS:
                    out.append(part.text[:i])
                    return glob_prefix("".join(out))
            out.append(part.text)
        elif isinstance(part, SingleQuoted):
            out.append(part.text)
        elif isinstance(part, Escaped):
            out.append(part.char)
        elif isinstance(part, DoubleQuoted):
            for sub in part.parts:
                if isinstance(sub, Lit):
                    out.append(sub.text)
                elif isinstance(sub, Escaped):
                    out.append(sub.char)
                else:
                    return prefix("".join(out))
        else:  # Param / CmdSub / ArithSub: runtime-dependent suffix
            return prefix("".join(out))
    return literal("".join(out))
