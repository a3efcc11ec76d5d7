"""Shell pattern matching (XCU 2.13): case patterns, pathname expansion,
and the prefix/suffix removal of ``${x#pat}`` / ``${x%pat}``.

Patterns arrive as (text, quoted) fragment lists so that quoted
metacharacters stay literal: ``case $x in "*") ...`` matches only a
literal asterisk.
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

#: sentinel prefixing characters that must be treated literally
QUOTE_MARK = "\x00"
#: sentinel recording an empty quoted string ('' / ""): matches nothing
EMPTY_MARK = "\x02"
#: sentinel prefixing characters produced by an expansion: only these are
#: candidates for field splitting (XCU 2.6.5 splits expansion results,
#: never literal text)
SPLIT_MARK = "\x03"


def quote_literal(text: str) -> str:
    """Mark every character of ``text`` as literal (quoted)."""
    return "".join(QUOTE_MARK + c for c in text)


def translate(pattern: str) -> str:
    """Translate a shell pattern (possibly containing QUOTE_MARK-escaped
    literal characters and backslash escapes) into a Python regex."""
    out: list[str] = []
    i = 0
    n = len(pattern)
    while i < n:
        c = pattern[i]
        if c == EMPTY_MARK:
            i += 1  # '' contributes nothing to the pattern
            continue
        if c == SPLIT_MARK:
            i += 1  # the following char stays active (unquoted expansion)
            continue
        if c == QUOTE_MARK:
            i += 1
            if i < n:
                out.append(re.escape(pattern[i]))
                i += 1
            continue
        if c == "\\":
            i += 1
            if i < n:
                out.append(re.escape(pattern[i]))
                i += 1
            else:
                out.append(re.escape("\\"))
            continue
        if c == "*":
            out.append(".*")
            i += 1
        elif c == "?":
            out.append(".")
            i += 1
        elif c == "[":
            closing, expr = _translate_bracket(pattern, i)
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


def _translate_bracket(pattern: str, start: int) -> tuple[int, str]:
    """Translate a bracket expression starting at pattern[start] == '['.
    Returns (index of closing ']', regex) or (-1, '') when unterminated."""
    i = start + 1
    negate = False
    if i < len(pattern) and pattern[i] in "!^":
        negate = True
        i += 1
    items: list[str] = []
    first = True
    while i < len(pattern):
        c = pattern[i]
        if c == "]" and not first:
            inner = "".join(items)
            if not inner:
                return -1, ""
            return i, "[" + ("^" if negate else "") + inner + "]"
        first = False
        if pattern.startswith("[:", i):
            end = pattern.find(":]", i + 2)
            if end < 0:
                return -1, ""
            name = pattern[i + 2 : end]
            cls = _CLASS_NAMES.get(name)
            if cls is None:
                return -1, ""
            items.append(cls)
            i = end + 2
            continue
        if c == SPLIT_MARK:
            i += 1
            continue
        if c == QUOTE_MARK and i + 1 < len(pattern):
            items.append(re.escape(pattern[i + 1]))
            i += 2
            continue
        if c == "\\" and i + 1 < len(pattern):
            items.append(re.escape(pattern[i + 1]))
            i += 2
            continue
        if (
            i + 2 < len(pattern)
            and pattern[i + 1] == "-"
            and pattern[i + 2] not in "]"
        ):
            if ord(c) > ord(pattern[i + 2]):
                # reversed range (e.g. [o-n]): not a valid bracket
                # expression; shells treat the '[' literally
                return -1, ""
            items.append(re.escape(c) + "-" + re.escape(pattern[i + 2]))
            i += 3
            continue
        items.append(re.escape(c))
        i += 1
    return -1, ""


@lru_cache(maxsize=4096)
def _compiled(pattern: str) -> re.Pattern:
    try:
        return re.compile(translate(pattern), re.DOTALL)
    except re.error:
        # pathological bracket contents: degrade to a literal match,
        # which is what shells do with malformed patterns
        return re.compile(re.escape(strip_quote_marks(pattern)), re.DOTALL)


def match(pattern: str, value: str) -> bool:
    """Full-string shell pattern match."""
    return _compiled(pattern).fullmatch(value) is not None


def has_glob_chars(pattern: str) -> bool:
    """Does the (marked) pattern contain active metacharacters?  A ``[``
    that opens no bracket expression matches only itself."""
    i = 0
    while i < len(pattern):
        c = pattern[i]
        if c == QUOTE_MARK or c == "\\":
            i += 2
            continue
        if c in "*?" or c == "[" and _translate_bracket(pattern, i)[0] >= 0:
            return True
        i += 1
    return False


def remove_affix(value: str, pattern: str, op: str) -> str:
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


def strip_quote_marks(text: str) -> str:
    """Quote removal: drop QUOTE_MARK/SPLIT_MARK sentinels, keep the
    characters they tag."""
    out: list[str] = []
    i = 0
    while i < len(text):
        if text[i] == QUOTE_MARK:
            i += 1
            if i < len(text):
                out.append(text[i])
                i += 1
        elif text[i] == SPLIT_MARK:
            i += 1  # drop the mark; the tagged char is handled normally
        else:
            out.append(text[i])
            i += 1
    return "".join(out)


def glob_match_names(pattern: str, names: Iterable[str],
                     include_hidden: bool = False) -> list[str]:
    """Match one path component's pattern against candidate names."""
    regex = _compiled(pattern)
    out = []
    for name in names:
        if name.startswith(".") and not include_hidden:
            # leading dot must be matched explicitly
            if not (pattern.startswith(".") or pattern.startswith(QUOTE_MARK + ".")):
                continue
        if regex.fullmatch(name):
            out.append(name)
    return sorted(out)
