"""Shell pattern matching (XCU 2.13): case patterns, pathname expansion,
and the prefix/suffix removal of ``${x#pat}`` / ``${x%pat}``.

A pattern is a hashable tuple of ``(text, quoted)`` pieces, the form
expansion hands over, so that quoted metacharacters stay literal:
``case $x in "*") ...`` matches only a literal asterisk.  An unquoted
backslash (from expansion output) escapes the character after it.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Iterable

_CLASS_NAMES = {
    "alpha": "a-zA-Z",
    "digit": "0-9",
    "alnum": "a-zA-Z0-9",
    "lower": "a-z",
    "upper": "A-Z",
    "space": r" \t\n\r\v\f",
    "blank": r" \t",
    "punct": re.escape(r"""!"#$%&'()*+,-./:;<=>?@[\]^_`{|}~"""),
    "xdigit": "0-9a-fA-F",
    "print": r"\x20-\x7e",
    "graph": r"\x21-\x7e",
    "cntrl": r"\x00-\x1f\x7f",
}


def text_of(pieces) -> str:
    """Quote removal: the text of ``(text, ...)`` pairs — a pattern's
    pieces, a field's, or a word's expansion segments."""
    return "".join([text for text, _ in pieces])


def _chars(pattern) -> list[tuple[str, bool]]:
    return [(c, quoted) for text, quoted in pattern for c in text]


def translate(pattern) -> str:
    """Translate a shell pattern, given as ``(text, quoted)`` pieces, into
    a Python regex.  Quoted characters and those an unquoted backslash
    escapes match only themselves."""
    chars = _chars(pattern)
    out: list[str] = []
    i = 0
    n = len(chars)
    while i < n:
        c, quoted = chars[i]
        if quoted:
            out.append(re.escape(c))
            i += 1
            continue
        if c == "\\":
            i += 1
            out.append(re.escape(chars[i][0] if i < n else "\\"))
            i += 1
            continue
        if c == "*":
            out.append(".*")
            i += 1
        elif c == "?":
            out.append(".")
            i += 1
        elif c == "[":
            closing, expr = _translate_bracket(chars, i)
            if closing < 0:
                out.append(re.escape("["))
                i += 1
            else:
                out.append(expr)
                i = closing + 1
        else:
            out.append(re.escape(c))
            i += 1
    return "".join(out)


def _translate_bracket(chars: list, start: int) -> tuple[int, str]:
    """Translate a bracket expression starting at an unquoted ``[``.
    Returns (index of closing ']', regex) or (-1, '') when unterminated."""
    n = len(chars)
    i = start + 1
    negate = False
    if i < n and chars[i] in (("!", False), ("^", False)):
        negate = True
        i += 1
    items: list[str] = []
    first = True
    while i < n:
        c, quoted = chars[i]
        if c == "]" and not quoted and not first:
            inner = "".join(items)
            if not inner:
                return -1, ""
            return i, "[" + ("^" if negate else "") + inner + "]"
        first = False
        if quoted:
            items.append(re.escape(c))
            i += 1
            continue
        if c == "[" and i + 1 < n and chars[i + 1] == (":", False):
            end = text_of(chars).find(":]", i + 2)
            if end < 0:
                return -1, ""
            cls = _CLASS_NAMES.get(text_of(chars[i + 2 : end]))
            if cls is None:
                return -1, ""
            items.append(cls)
            i = end + 2
            continue
        if c == "\\" and i + 1 < n:
            items.append(re.escape(chars[i + 1][0]))
            i += 2
            continue
        if i + 2 < n and chars[i + 1] == ("-", False) and chars[i + 2][0] != "]":
            if ord(c) > ord(chars[i + 2][0]):
                # reversed range (e.g. [o-n]): not a valid bracket
                # expression; shells treat the '[' literally
                return -1, ""
            items.append(re.escape(c) + "-" + re.escape(chars[i + 2][0]))
            i += 3
            continue
        items.append(re.escape(c))
        i += 1
    return -1, ""


@lru_cache(maxsize=4096)
def _compiled(pattern) -> re.Pattern:
    try:
        return re.compile(translate(pattern), re.DOTALL)
    except re.error:
        # pathological bracket contents: degrade to a literal match,
        # which is what shells do with malformed patterns
        return re.compile(re.escape(text_of(pattern)), re.DOTALL)


def match(pattern, value: str) -> bool:
    """Full-string shell pattern match."""
    return _compiled(pattern).fullmatch(value) is not None


def has_glob_chars(pattern) -> bool:
    """Does the pattern contain active metacharacters?  A ``[`` that
    opens no bracket expression matches only itself."""
    if not any(not quoted and ("*" in text or "?" in text or "[" in text)
               for text, quoted in pattern):
        return False
    chars = _chars(pattern)
    i = 0
    while i < len(chars):
        c, quoted = chars[i]
        if quoted:
            i += 1
            continue
        if c == "\\":
            i += 2
            continue
        if c in "*?" or c == "[" and _translate_bracket(chars, i)[0] >= 0:
            return True
        i += 1
    return False


def remove_affix(value: str, pattern, op: str) -> str:
    """Implement ``${x#pat}`` (op '#'), ``##``, ``%``, ``%%``."""
    if op in ("#", "##"):
        indices: Iterable[int] = range(len(value) + 1)
        best = None
        for i in indices:
            if match(pattern, value[:i]):
                best = i
                if op == "#":
                    break
        if op == "##" and best is not None:
            # want the longest: keep scanning upward
            for i in range(len(value), -1, -1):
                if match(pattern, value[:i]):
                    best = i
                    break
        return value[best:] if best is not None else value
    if op in ("%", "%%"):
        best = None
        if op == "%":
            for i in range(len(value), -1, -1):
                if match(pattern, value[i:]):
                    best = i
                    break
        else:
            for i in range(len(value) + 1):
                if match(pattern, value[i:]):
                    best = i
                    break
        return value[:best] if best is not None else value
    raise ValueError(f"bad affix op {op!r}")


def glob_match_names(pattern, names: Iterable[str],
                     include_hidden: bool = False) -> list[str]:
    """Match one path component's pattern against candidate names."""
    regex = _compiled(pattern)
    # a leading dot must be matched explicitly
    hidden = include_hidden or text_of(pattern).startswith(".")
    out = []
    for name in names:
        if name.startswith(".") and not hidden:
            continue
        if regex.fullmatch(name):
            out.append(name)
    return sorted(out)
