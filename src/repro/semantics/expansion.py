"""Word expansion (POSIX XCU 2.6): tilde, parameter, command, and
arithmetic expansion, field splitting, pathname expansion, quote removal.

Expansion functions are generators (command substitution spawns a
subshell process), driven with ``yield from`` inside the interpreter.

Internal representation: a *marked string* where each quoted character is
preceded by QUOTE_MARK; FIELD_BREAK separates "$@" positionals and
EMPTY_QUOTE records an empty quoted string (which must survive as an
empty field).
"""

from __future__ import annotations

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
from . import arith
from .patterns import (
    EMPTY_MARK,
    QUOTE_MARK,
    SPLIT_MARK,
    glob_match_names,
    has_glob_chars,
    quote_literal,
    strip_quote_marks,
)
from .state import ShellError

FIELD_BREAK = "\x01"
EMPTY_QUOTE = EMPTY_MARK  # shared with the pattern matcher


def mark_splittable(text: str, ifs: str) -> str:
    """Tag every unquoted IFS character of an expansion result with
    SPLIT_MARK.  Field splitting (XCU 2.6.5) applies only to the results
    of parameter/command/arithmetic expansion — literal text in the word
    never splits — so marking happens exactly where expansion output is
    stitched into the word."""
    if not ifs or not text:
        return text
    out: list[str] = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c in (QUOTE_MARK, SPLIT_MARK):
            out.append(c)
            if i + 1 < n:
                out.append(text[i + 1])
            i += 2
            continue
        if c in ifs:
            out.append(SPLIT_MARK)
        out.append(c)
        i += 1
    return "".join(out)


class ExpansionError(ShellError):
    """Expansion failures (bad substitution, ${x:?msg}, nounset)."""


# ---------------------------------------------------------------------------
# part expansion -> marked string
# ---------------------------------------------------------------------------


def _expand_parts(interp, proc, parts: tuple[WordPart, ...], in_dquotes: bool):
    """Expand a sequence of word parts into one marked string."""
    out: list[str] = []
    for part in parts:
        if isinstance(part, Lit):
            out.append(quote_literal(part.text) if in_dquotes else part.text)
        elif isinstance(part, SingleQuoted):
            out.append(quote_literal(part.text) if part.text else EMPTY_QUOTE)
        elif isinstance(part, Escaped):
            out.append(QUOTE_MARK + part.char)
        elif isinstance(part, DoubleQuoted):
            inner = yield from _expand_parts(interp, proc, part.parts, True)
            out.append(inner if inner else EMPTY_QUOTE)
        elif isinstance(part, Param):
            text = yield from _expand_param(interp, proc, part, in_dquotes)
            if not in_dquotes:
                text = mark_splittable(text, interp.state.ifs)
            out.append(text)
        elif isinstance(part, CmdSub):
            raw = yield from interp.command_substitution(proc, part.command)
            text = raw.rstrip("\n")
            out.append(
                quote_literal(text)
                if in_dquotes
                else mark_splittable(text, interp.state.ifs)
            )
        elif isinstance(part, ArithSub):
            expr_marked = yield from _expand_parts(interp, proc, part.parts, False)
            expr = strip_quote_marks(expr_marked)
            try:
                value = arith.evaluate(
                    expr,
                    get=interp.state.get,
                    set_=lambda n, v: interp.state.set(n, v),
                )
            except arith.ArithError as err:
                raise ExpansionError(f"arithmetic: {err}") from None
            text = str(value)
            out.append(
                quote_literal(text)
                if in_dquotes
                else mark_splittable(text, interp.state.ifs)
            )
        else:
            raise ExpansionError(f"unknown word part {part!r}")
    return "".join(out)


def _expand_param(interp, proc, param: Param, in_dquotes: bool):
    state = interp.state
    name, op = param.name, param.op

    if name in ("@", "*") and op in ("", "length"):
        return (yield from _expand_at_star(interp, name, op, in_dquotes))

    value = state.get(name)

    if op == "length":
        return _mark(str(len(value or "")), in_dquotes)

    if op == "":
        if value is None:
            if state.options.get("nounset") and not _is_special(name):
                raise ExpansionError(f"{name}: unbound variable")
            return ""
        return _mark(value, in_dquotes)

    # test operators: ':' variants also treat empty as unset
    colon = op.startswith(":")
    base_op = op.lstrip(":") if colon else op
    use_word = base_op in ("-", "=", "?", "+")
    if use_word:
        unset_or_null = value is None or (colon and value == "")
        if base_op == "+":
            if unset_or_null:
                return ""
            operand = yield from _expand_operand(interp, proc, param.word, in_dquotes)
            return operand
        if not unset_or_null:
            return _mark(value, in_dquotes)
        operand = yield from _expand_operand(interp, proc, param.word, in_dquotes)
        if base_op == "-":
            return operand
        if base_op == "=":
            assigned = strip_quote_marks(operand).replace(EMPTY_QUOTE, "")
            state.set(name, assigned)
            return _mark(assigned, in_dquotes)
        if base_op == "?":
            message = strip_quote_marks(operand).replace(EMPTY_QUOTE, "") or "parameter null or not set"
            raise ExpansionError(f"{name}: {message}")

    if base_op in ("#", "##", "%", "%%"):
        if value is None:
            value = ""
        pattern_marked = ""
        if param.word is not None:
            pattern_marked = yield from _expand_parts(
                interp, proc, param.word.parts, False
            )
        from .patterns import remove_affix

        result = remove_affix(value, pattern_marked.replace(EMPTY_QUOTE, ""), base_op)
        return _mark(result, in_dquotes)

    raise ExpansionError(f"bad substitution ${{{name}{op}...}}")


def _expand_operand(interp, proc, word: Optional[Word], in_dquotes: bool):
    if word is None:
        return ""
    result = yield from _expand_parts(interp, proc, word.parts, in_dquotes)
    return result


def _expand_at_star(interp, name: str, op: str, in_dquotes: bool):
    state = interp.state
    positionals = state.positionals
    if op == "length":
        return _mark(str(len(positionals)), in_dquotes)
        yield  # pragma: no cover - make this a generator
    if in_dquotes:
        if name == "@":
            # empty positionals must survive as empty fields, so record
            # them as EMPTY_QUOTE rather than a zero-length piece
            pieces = [quote_literal(p) if p else EMPTY_QUOTE for p in positionals]
            return FIELD_BREAK.join(pieces) if pieces else ""
        sep = (state.ifs[:1]) if state.ifs else ""
        return quote_literal(sep.join(positionals)) if positionals else EMPTY_QUOTE
    # unquoted $@ / $*: each positional subject to field splitting
    return FIELD_BREAK.join(positionals)
    yield  # pragma: no cover - make this a generator


def _mark(text: str, in_dquotes: bool) -> str:
    return quote_literal(text) if in_dquotes else text


def _is_special(name: str) -> bool:
    return name in ("@", "*", "#", "?", "-", "$", "!") or name.isdigit()


# ---------------------------------------------------------------------------
# field splitting
# ---------------------------------------------------------------------------


def split_fields(marked: str, ifs: str) -> list[str]:
    """Split a marked string into fields (XCU 2.6.5).

    Only SPLIT_MARK-tagged characters (expansion output, see
    ``mark_splittable``) participate in splitting; literal and quoted
    text never does.  A run of adjacent tagged IFS characters containing
    ``h`` non-whitespace ("hard") delimiters separates ``h`` times —
    whitespace around a hard delimiter merges into it — while an
    all-whitespace run separates once without forcing an empty field.
    """
    fields: list[str] = []
    current: list[str] = []
    has_content = False  # current field contains quoted-or-real material

    def end_field(force: bool = False) -> None:
        nonlocal current, has_content
        if has_content or force:
            fields.append("".join(current))
        current = []
        has_content = False

    i = 0
    n = len(marked)
    while i < n:
        c = marked[i]
        if c == FIELD_BREAK:
            # "$@" positional boundary: zero-length unquoted positionals
            # vanish (empty quoted ones arrive as EMPTY_QUOTE pieces)
            end_field()
            i += 1
            continue
        if c == QUOTE_MARK:
            current.append(c)
            if i + 1 < n:
                current.append(marked[i + 1])
            has_content = True
            i += 2
            continue
        if c == EMPTY_QUOTE:
            has_content = True
            current.append(c)
            i += 1
            continue
        if c == SPLIT_MARK:
            tagged = marked[i + 1] if i + 1 < n else ""
            if ifs and tagged in ifs:
                hards = 0
                while i < n and marked[i] == SPLIT_MARK:
                    nxt = marked[i + 1] if i + 1 < n else ""
                    if nxt not in ifs:
                        break
                    if nxt not in " \t\n":
                        hards += 1
                    i += 2
                if hards == 0:
                    end_field()
                else:
                    for _ in range(hards):
                        end_field(force=True)
                continue
            # tagged char no longer in the active IFS: plain content
            current.append(tagged)
            has_content = True
            i += 2
            continue
        current.append(c)
        has_content = True
        i += 1
    end_field()
    return fields


# ---------------------------------------------------------------------------
# pathname expansion
# ---------------------------------------------------------------------------


def expand_pathnames(field_marked: str, fs, cwd: str) -> list[str]:
    """Glob one field against the virtual filesystem; no match -> the
    pattern itself (POSIX default)."""
    if not has_glob_chars(field_marked):
        return [_finalize(field_marked)]
    # split into components on '/' (quoted slashes still separate paths)
    comps: list[str] = []
    current: list[str] = []
    i = 0
    n = len(field_marked)
    while i < n:
        c = field_marked[i]
        if c == QUOTE_MARK and i + 1 < n:
            if field_marked[i + 1] == "/":
                comps.append("".join(current))
                current = []
            else:
                current.append(c)
                current.append(field_marked[i + 1])
            i += 2
            continue
        if c == "/":
            comps.append("".join(current))
            current = []
            i += 1
            continue
        current.append(c)
        i += 1
    comps.append("".join(current))

    is_abs = comps and comps[0] == ""
    if is_abs:
        comps = comps[1:]
        bases = [("/", "/")]
    else:
        bases = [("", cwd)]

    from ..vos.fs import normalize

    for comp in comps:
        if comp == "":
            continue
        new_bases = []
        if not has_glob_chars(comp):
            literal = _finalize(comp)
            for display, absdir in bases:
                child_abs = normalize(literal, absdir if absdir else cwd) \
                    if literal.startswith("/") else normalize(
                        (absdir.rstrip("/") + "/" + literal) if absdir != "/" else "/" + literal)
                child_display = (display.rstrip("/") + "/" + literal) if display else literal
                if display == "/":
                    child_display = "/" + literal
                if fs.exists(child_abs):
                    new_bases.append((child_display, child_abs))
        else:
            for display, absdir in bases:
                listdir_base = absdir if absdir else cwd
                if not fs.is_dir(listdir_base):
                    continue
                names = fs.listdir(listdir_base)
                for name in glob_match_names(comp, names):
                    child_abs = (listdir_base.rstrip("/") + "/" + name)
                    child_display = (
                        (display.rstrip("/") + "/" + name) if display and display != "/"
                        else ("/" + name if display == "/" else name)
                    )
                    new_bases.append((child_display, child_abs))
        bases = new_bases
        if not bases:
            return [_finalize(field_marked)]
    results = sorted(display for display, _abs in bases if display)
    return results if results else [_finalize(field_marked)]


def _finalize(marked: str) -> str:
    """Quote removal on a marked field."""
    return strip_quote_marks(marked).replace(EMPTY_QUOTE, "")


# ---------------------------------------------------------------------------
# tilde expansion
# ---------------------------------------------------------------------------


def _tilde_expand(marked: str, state) -> str:
    if not marked.startswith("~"):
        return marked
    # up to the first unquoted '/'
    end = 0
    while end < len(marked) and marked[end] != "/":
        if marked[end] in (QUOTE_MARK, EMPTY_QUOTE, SPLIT_MARK):
            return marked  # quoted/expanded char in the prefix: no expansion
        end += 1
    user = marked[1:end]
    if user == "":
        home = state.get("HOME") or "/"
        return quote_literal(home) + marked[end:]
    # named users resolve to /home/<user> in the virtual OS
    return quote_literal("/home/" + user) + marked[end:]


# ---------------------------------------------------------------------------
# public API
# ---------------------------------------------------------------------------


def expand_word(interp, proc, word: Word):
    """Full expansion of one word into zero or more fields; a constant
    word is its one field."""
    if word.constant is not None:
        return [word.constant]
    marked = yield from _expand_parts(interp, proc, word.parts, False)
    fields = split_fields(_tilde_expand(marked, interp.state), interp.state.ifs)
    if interp.state.options.get("noglob"):
        return [_finalize(f) for f in fields]
    out: list[str] = []
    for field in fields:
        out.extend(expand_pathnames(field, proc.fs, interp.state.cwd))
    return out


def expand_word_single(interp, proc, word: Word):
    """Expansion producing exactly one field (assignments, redirect
    targets, case subjects, here-docs): no splitting, no globbing."""
    if word.constant is not None:
        return word.constant
    marked = yield from _expand_parts(interp, proc, word.parts, False)
    marked = _tilde_expand(marked, interp.state)
    return _finalize(marked.replace(FIELD_BREAK, " "))


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
