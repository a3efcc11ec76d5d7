"""Word expansion (POSIX XCU 2.6): tilde, parameter, command, and
arithmetic expansion, field splitting, pathname expansion, quote removal.

Expansion functions are generators (command substitution spawns a
subshell process), driven with ``yield from`` inside the interpreter.

Between its steps a word is a list of *segments*, ``(text, kind)`` pairs
(Smoosh keeps the same structure): quoted text, the word's own unquoted
text, unquoted expansion output, the break between two positionals of
``"$@"``, and an empty quote (which must survive as an empty field).
Field splitting splits only expansion output, tilde expansion reads only
the word's own text, and a field handed to pathname expansion is a tuple
of ``(text, quoted)`` pieces, the form :mod:`.patterns` matches.  Quote
removal joins the texts.  Structure never travels inside the text, so a
value may hold any character.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Optional

from ..parser.ast_nodes import (
    ArithSub,
    CmdSub,
    DoubleQuoted,
    Escaped,
    Lit,
    Param,
    SingleQuoted,
    Word,
    WordPart,
)
from ..vos.fs import normalize
from . import arith
from .patterns import glob_match_names, has_glob_chars, remove_affix, text_of
from .state import ShellError

#: segment kinds
QUOTED = "quoted"  # never split; literal in a pattern
LITERAL = "literal"  # the word's own unquoted text: never split
EXPANDED = "expanded"  # unquoted expansion output: split by IFS
BREAK = "break"  # between two positionals of "$@"; a space in one field
EMPTY = "empty"  # '' or "": keeps an otherwise empty field

_BREAK = (" ", BREAK)
_EMPTY = ("", EMPTY)


class ExpansionError(ShellError):
    """Expansion failures (bad substitution, ${x:?msg}, nounset)."""


class UnsetError(ExpansionError):
    """A read of an unset parameter under ``set -u``."""

    def __init__(self, name: str):
        super().__init__(f"{name}: parameter not set")
        self.name = name


def _output(text: str, in_dquotes: bool) -> list:
    """An expansion's result as segments (none when it is empty)."""
    return [(text, QUOTED if in_dquotes else EXPANDED)] if text else []


def pattern_of(segments) -> tuple:
    """Segments as the ``(text, quoted)`` pieces a pattern is made of."""
    return tuple((text, kind is not LITERAL and kind is not EXPANDED)
                 for text, kind in segments if text)


# ---------------------------------------------------------------------------
# part expansion -> segments
# ---------------------------------------------------------------------------


def expand_parts(interp, proc, parts: tuple[WordPart, ...],
                 in_dquotes: bool = False):
    """Expand word parts into segments.  ``interp`` is the interpreter
    or an abstract world with the same ``state`` and
    ``command_substitution``.  A quote keeps an otherwise empty field."""
    out: list = []
    for part in parts:
        if isinstance(part, Lit):
            out.append((part.text, QUOTED if in_dquotes else LITERAL))
        elif isinstance(part, SingleQuoted):
            out.append((part.text, QUOTED) if part.text else _EMPTY)
        elif isinstance(part, Escaped):
            out.append((part.char, QUOTED))
        elif isinstance(part, DoubleQuoted):
            inner = yield from expand_parts(interp, proc, part.parts, True)
            if inner or not at_only(part):  # "$@" may give no field
                out.extend(inner or [_EMPTY])
        elif isinstance(part, Param):
            out.extend((yield from _expand_param(interp, proc, part, in_dquotes)))
        elif isinstance(part, CmdSub):
            raw = yield from interp.command_substitution(proc, part.command)
            out.extend(_output(raw.rstrip("\n"), in_dquotes))
        elif isinstance(part, ArithSub):
            expr = yield from expand_parts(interp, proc, part.parts)
            try:
                value = arith.evaluate(
                    text_of(expr),
                    get=interp.state.get,
                    set_=lambda n, v: interp.state.set(n, v),
                )
            except arith.ArithError as err:
                raise ExpansionError(f"arithmetic: {err}") from None
            out.extend(_output(str(value), in_dquotes))
        else:
            raise ExpansionError(f"unknown word part {part!r}")
    return out


def _expand_param(interp, proc, param: Param, in_dquotes: bool):
    state = interp.state
    name, op = param.name, param.op

    if name in ("@", "*") and op in ("", "length"):
        return _expand_at_star(state, name, op, in_dquotes)

    value = state.get(name)
    colon = op.startswith(":")
    base_op = op.lstrip(":") if colon else op
    # set -u rejects an unset value read, not a test whether it is set
    if value is None and base_op in ("", "length", "#", "##", "%", "%%") \
            and state.options.get("nounset") and not _is_special(name):
        raise UnsetError(name)

    if op == "length":
        return _output(str(len(value or "")), in_dquotes)

    if op == "":
        return [] if value is None else _output(value, in_dquotes)

    # test operators: ':' variants also treat empty as unset
    use_word = base_op in ("-", "=", "?", "+")
    if use_word:
        unset_or_null = value is None or (colon and value == "")
        if base_op == "+":
            if unset_or_null:
                return []
            operand = yield from _expand_operand(interp, proc, param.word, in_dquotes)
            return operand
        if not unset_or_null:
            return _output(value, in_dquotes)
        operand = yield from _expand_operand(interp, proc, param.word, in_dquotes)
        if base_op == "-":
            return operand
        if base_op == "=":
            assigned = text_of(operand)
            state.set(name, assigned)
            return _output(assigned, in_dquotes)
        if base_op == "?":
            message = text_of(operand) or "parameter null or not set"
            raise ExpansionError(f"{name}: {message}")

    if base_op in ("#", "##", "%", "%%"):
        pattern = []
        if param.word is not None:
            pattern = yield from expand_parts(interp, proc, param.word.parts)
        result = remove_affix(value or "", pattern_of(pattern), base_op)
        return _output(result, in_dquotes)

    raise ExpansionError(f"bad substitution ${{{name}{op}...}}")


def _expand_operand(interp, proc, word: Optional[Word], in_dquotes: bool):
    """The operand word of ``${x:-word}`` and kin.  Outside double quotes
    it is tilde-expanded and its own unquoted text is expansion output:
    it splits and globs like the value it stands in for."""
    if word is None:
        return []
    result = yield from expand_parts(interp, proc, word.parts, in_dquotes)
    if in_dquotes:
        return result
    return [(text, EXPANDED if kind is LITERAL else kind)
            for text, kind in _tilde_expand(result, interp.state)]


def _expand_at_star(state, name: str, op: str, in_dquotes: bool) -> list:
    positionals = state.positionals
    if op == "length":
        return _output(str(len(positionals)), in_dquotes)
    if in_dquotes and name == "*":
        sep = state.ifs[:1]
        return _output(sep.join(positionals), True) if positionals else [_EMPTY]
    # "$@": one field per positional, empty ones included; unquoted $@ and
    # $*: each positional subject to field splitting
    out: list = []
    for i, value in enumerate(positionals):
        if i:
            out.append(_BREAK)
        if in_dquotes and not value:
            out.append(_EMPTY)
        else:
            out.extend(_output(value, in_dquotes))
    return out


def _is_special(name: str) -> bool:
    return name in ("@", "*", "#", "?", "-", "$", "!") or name.isdigit()


def at_only(part: DoubleQuoted) -> bool:
    """Is ``part`` ``"$@"``, no field when there are no positionals?"""
    return bool(part.parts) and all(
        isinstance(sub, Param) and sub.name == "@" and sub.op == ""
        for sub in part.parts)


# ---------------------------------------------------------------------------
# field splitting
# ---------------------------------------------------------------------------


@lru_cache(maxsize=64)
def _ifs_runs(ifs: str) -> re.Pattern:
    return re.compile("([" + re.escape(ifs) + "]+)")


def split_fields(segments, ifs: str) -> list[tuple]:
    """Split segments into fields (XCU 2.6.5), each a tuple of ``(text,
    quoted)`` pieces.  Pure: absint splits known values with it too.

    Only expansion output splits; the word's own text and quoted text
    never do.  A run of IFS characters (it may span adjacent expansions)
    holding ``h`` non-whitespace ("hard") delimiters separates ``h``
    times — whitespace around a hard delimiter merges into it — while an
    all-whitespace run separates once without forcing an empty field.
    """
    fields: list[tuple] = []
    pieces: list = []
    has_content = False  # the field holds quoted or real material
    i, n = 0, len(segments)
    while i < n:
        text, kind = segments[i]
        i += 1
        if kind is BREAK:
            if has_content:
                fields.append(tuple(pieces))
            pieces, has_content = [], False
        elif kind is EXPANDED and ifs:
            while i < n and segments[i][1] is EXPANDED:
                text += segments[i][0]
                i += 1
            chunks = _ifs_runs(ifs).split(text)
            for j, chunk in enumerate(chunks):
                if not j % 2:
                    if chunk:
                        pieces.append((chunk, False))
                        has_content = True
                    continue
                hards = len(chunk) - sum(map(chunk.count, " \t\n"))
                if hards == 0:
                    if has_content:
                        fields.append(tuple(pieces))
                    pieces, has_content = [], False
                for _ in range(hards):
                    fields.append(tuple(pieces))
                    pieces, has_content = [], False
        else:  # quoted or literal text, an empty quote, or no IFS
            if kind is not EMPTY:
                pieces.append((text, kind is QUOTED))
            has_content = True
    if has_content:
        fields.append(tuple(pieces))
    return fields


# ---------------------------------------------------------------------------
# pathname expansion
# ---------------------------------------------------------------------------


def expand_pathnames(field: tuple, fs, cwd: str) -> list[str]:
    """Glob one field against the virtual filesystem; no match -> the
    field's own text (POSIX default).  Each path keeps the field's text
    for every component it does not match: ``//`` stays, and a trailing
    ``/`` keeps only directories."""
    if not has_glob_chars(field):
        return [text_of(field)]
    # components on '/' (quoted slashes separate paths too)
    comps: list[list] = [[]]
    for text, quoted in field:
        first, *rest = text.split("/")
        if first:
            comps[-1].append((first, quoted))
        comps.extend([(piece, quoted)] if piece else [] for piece in rest)
    # (the path as shown, its absolute form)
    matches = [("", cwd if comps[0] else "/")]
    for i, comp in enumerate(map(tuple, comps)):
        if not comp and not i:
            continue  # the root of an absolute path
        step = []
        for shown, path in matches:
            if i:
                shown += "/"
            if not comp:
                if fs.is_dir(path):
                    step.append((shown, path))
            elif not has_glob_chars(comp):
                name = text_of(comp)
                child = normalize(name, path)
                if fs.exists(child):
                    step.append((shown + name, child))
            elif fs.is_dir(path):
                for name in glob_match_names(comp, fs.listdir(path)):
                    step.append((shown + name, path.rstrip("/") + "/" + name))
        matches = step
        if not matches:
            return [text_of(field)]
    return sorted(shown for shown, _ in matches)


# ---------------------------------------------------------------------------
# tilde expansion
# ---------------------------------------------------------------------------


def _tilde_expand(segments: list, state) -> list:
    """A leading ``~`` of the word's own text, up to its first ``/``
    (XCU 2.6.1); quoted or expanded text in the prefix leaves it be."""
    if not segments or segments[0][1] is not LITERAL \
            or not segments[0][0].startswith("~"):
        return segments
    user, rest = "", []
    for i, (text, kind) in enumerate(segments):
        if kind is not LITERAL:
            return segments
        slash = text.find("/")
        if slash >= 0:
            user += text[:slash]
            rest = [(text[slash:], LITERAL)] + segments[i + 1:]
            break
        user += text
    # named users resolve to /home/<user> in the virtual OS
    home = (state.get("HOME") or "/") if user == "~" else "/home/" + user[1:]
    return [(home, QUOTED)] + rest


# ---------------------------------------------------------------------------
# public API
# ---------------------------------------------------------------------------


def word_fields(segments: list, state, fs) -> list[str]:
    """The fields of an expanded word: tilde expansion, field splitting
    and pathname expansion (``fs`` is read only for a pattern)."""
    fields = split_fields(_tilde_expand(segments, state), state.ifs)
    if state.options.get("noglob"):
        return [text_of(field) for field in fields]
    out: list[str] = []
    for field in fields:
        out.extend(expand_pathnames(field, fs, state.cwd))
    return out


def word_text(segments: list, state) -> str:
    """The one field of an expanded word that is not split or globbed:
    tilde expansion and quote removal."""
    return text_of(_tilde_expand(segments, state))


def expand_word(interp, proc, word: Word):
    """Full expansion of one word into zero or more fields; a constant
    word is its one field."""
    if word.constant is not None:
        return [word.constant]
    segments = yield from expand_parts(interp, proc, word.parts)
    return word_fields(segments, interp.state, proc.fs)


def expand_word_single(interp, proc, word: Word):
    """Expansion producing exactly one field (assignments, redirect
    targets, case subjects): no splitting, no globbing."""
    if word.constant is not None:
        return word.constant
    segments = yield from expand_parts(interp, proc, word.parts)
    return word_text(segments, interp.state)


def expand_text(interp, proc, word: Word):
    """A here-document body: parameter, command and arithmetic expansion
    and quote removal only."""
    segments = yield from expand_parts(interp, proc, word.parts)
    return text_of(segments)


def expand_pattern(interp, proc, word: Word):
    """A case pattern as ``(text, quoted)`` pieces: no splitting, no
    globbing, quoted characters stay literal."""
    segments = yield from expand_parts(interp, proc, word.parts)
    return pattern_of(segments)


def expand_words(interp, proc, words):
    """Expand a word sequence into an argv field list; a constant word
    costs no generator."""
    fields: list[str] = []
    for word in words:
        if word.constant is not None:
            fields.append(word.constant)
        else:
            fields.extend((yield from expand_word(interp, proc, word)))
    return fields
