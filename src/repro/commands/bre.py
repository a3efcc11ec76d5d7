"""POSIX regular-expression translation: BRE/ERE -> Python `re`.

Python's `re` is an ERE dialect, so feeding it a POSIX *basic* regular
expression silently changes meaning: in a BRE, `+`, `?`, `|` and an
unescaped `{` are ordinary characters (`grep 'a+b'` matches the literal
``a+b``), while `\\(`, `\\)` and `\\{m,n\\}` are the grouping/interval
operators.  GNU grep additionally treats `\\+`, `\\?` and `\\|` as the
ERE operators.  The differential harness (S17) caught this as a real
divergence, so the translation is now explicit instead of "Python re is
close enough".

Bracket expressions are shared between both dialects: `[:class:]`
classes expand to their C-locale member sets, a leading `]` is literal,
and a backslash inside brackets is a literal backslash (POSIX) rather
than an escape (Python).
"""

from __future__ import annotations

import re
from functools import lru_cache

#: C-locale expansions for POSIX character classes (usable inside [...]).
_POSIX_CLASSES = {
    "alpha": "a-zA-Z",
    "digit": "0-9",
    "alnum": "0-9a-zA-Z",
    "upper": "A-Z",
    "lower": "a-z",
    "space": r" \t\n\r\v\f",
    "blank": r" \t",
    "xdigit": "0-9A-Fa-f",
    "cntrl": r"\x00-\x1f\x7f",
    "print": r"\x20-\x7e",
    "graph": r"\x21-\x7e",
    "punct": r"!-/:-@\[-`{-~",
}


class RegexTranslationError(ValueError):
    """A construct we cannot faithfully translate (grep exits 2)."""


def _class_escape(c: str) -> str:
    """Escape a literal character for use inside a Python [...] class."""
    if c in "\\^]-[":
        return "\\" + c
    return c


def _translate_bracket(pat: str, i: int) -> tuple[str, int]:
    """Translate the bracket expression starting at ``pat[i] == '['``.

    Returns (python_fragment, index_after_closing_bracket).  An
    unterminated bracket is a literal '[' (GNU behaviour).
    """
    j = i + 1
    neg = False
    if j < len(pat) and pat[j] == "^":
        neg = True
        j += 1
    atoms: list[str] = []
    first = True
    closed = False
    while j < len(pat):
        c = pat[j]
        if c == "]" and not first:
            closed = True
            break
        first = False
        if pat.startswith("[:", j):
            end = pat.find(":]", j + 2)
            if end >= 0:
                cls = pat[j + 2 : end]
                if cls not in _POSIX_CLASSES:
                    raise RegexTranslationError(
                        f"unknown character class [:{cls}:]")
                atoms.append(_POSIX_CLASSES[cls])
                j = end + 2
                continue
        if j + 2 < len(pat) and pat[j + 1] == "-" and pat[j + 2] != "]":
            atoms.append(_class_escape(c) + "-" + _class_escape(pat[j + 2]))
            j += 3
            continue
        atoms.append(_class_escape(c))
        j += 1
    if not closed:
        return re.escape(pat[i]), i + 1
    body = "".join(atoms)
    if not body:
        # "[]" can't happen (first ']' is literal); "[^]" is literal too
        return re.escape(pat[i:j + 1]), j + 1
    return "[" + ("^" if neg else "") + body + "]", j + 1


@lru_cache(maxsize=512)
def bre_to_python(pat: str) -> str:
    """Translate a POSIX basic regular expression to Python `re` syntax.

    Follows GNU grep: `\\+ \\? \\|` are operators (GNU extensions),
    `*` is literal at the start of an expression, `^`/`$` anchor only at
    the start/end of the pattern or a `\\( \\|` subexpression.
    """
    out: list[str] = []
    i, n = 0, len(pat)
    at_start = True  # start of pattern or of a \( / \| subexpression
    while i < n:
        c = pat[i]
        if c == "\\" and i + 1 < n:
            d = pat[i + 1]
            if d in "(){}|+?":
                out.append(d)
                at_start = d in "(|"
            elif d.isdigit() and d != "0":
                out.append("\\" + d)  # backreference
                at_start = False
            elif d in "<>":
                out.append(r"\b")  # GNU word boundaries
                at_start = False
            elif d in "wWsSbB":
                out.append("\\" + d)  # GNU shorthand classes
                at_start = False
            else:
                out.append(re.escape(d))
                at_start = False
            i += 2
            continue
        if c == "[":
            frag, i = _translate_bracket(pat, i)
            out.append(frag)
            at_start = False
            continue
        if c == "*":
            out.append("*" if not at_start else r"\*")
            at_start = False
            i += 1
            continue
        if c == "^":
            # anchor only in leading position; elsewhere literal
            out.append("^" if at_start else r"\^")
            i += 1
            continue
        if c == "$":
            if i == n - 1 or pat.startswith(r"\)", i + 1) or pat.startswith(r"\|", i + 1):
                out.append("$")
            else:
                out.append(r"\$")
            at_start = False
            i += 1
            continue
        if c == ".":
            out.append(".")
        else:
            # +, ?, |, {, }, (, ) and all other characters are literal
            out.append(re.escape(c))
        at_start = False
        i += 1
    return "".join(out)


@lru_cache(maxsize=512)
def ere_to_python(pat: str) -> str:
    """Translate a POSIX extended regular expression to Python `re`.

    ERE operators coincide with Python's; the differences handled here
    are bracket expressions (classes, literal backslash) and escapes of
    ordinary letters (ERE `\\d` is a literal ``d``, not a digit class —
    except the GNU shorthands, which grep supports in both dialects).
    """
    out: list[str] = []
    i, n = 0, len(pat)
    while i < n:
        c = pat[i]
        if c == "\\" and i + 1 < n:
            d = pat[i + 1]
            if d.isdigit() and d != "0":
                out.append("\\" + d)
            elif d in "<>":
                out.append(r"\b")
            elif d in "wWsSbB":
                out.append("\\" + d)
            else:
                out.append(re.escape(d))
            i += 2
            continue
        if c == "[":
            frag, i = _translate_bracket(pat, i)
            out.append(frag)
            continue
        out.append(c)
        i += 1
    return "".join(out)


@lru_cache(maxsize=512)
def compile_posix(pattern: str, *, ere: bool = False, fixed: bool = False,
                  ignorecase: bool = False) -> "re.Pattern[bytes]":
    """Compile a POSIX BRE (default), ERE (`-E`) or fixed string (`-F`)
    into a bytes-matching Python regex.  Cached: loops re-grep with the
    same pattern thousands of times."""
    if fixed:
        src = re.escape(pattern)
    elif ere:
        src = ere_to_python(pattern)
    else:
        src = bre_to_python(pattern)
    flags = re.IGNORECASE if ignorecase else 0
    return re.compile(src.encode("utf-8", "surrogateescape"), flags)


def posix_sub(regex: re.Pattern, expand, text, nth: int = 1,
              every: bool = False):
    """``(new text, substitutions made)``: matches of ``regex`` replaced by
    ``expand(match)`` as sed and awk count them — the ``nth`` match, with
    ``every`` all later ones too, and an empty match at the end of the
    previous match is none (``re.sub`` takes it: ``s/b*/X/g`` on ``abc``
    gave ``XaXXcX`` for sed's ``XaXcX``).  bytes or str alike."""
    out, pos, seen, last = [], 0, 0, -1
    for match in regex.finditer(text):
        start, end = match.span()
        if start == end == last:
            continue
        last = end
        seen += 1
        if seen >= nth:
            out += (text[pos:start], expand(match))
            pos = end
            if not every:
                break
    if not out:
        return text, 0
    return text[:0].join(out) + text[pos:], len(out) // 2
