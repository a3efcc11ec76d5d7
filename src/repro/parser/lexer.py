"""POSIX shell lexer.

The lexer hands the grammar one line of tokens at a time:
:meth:`Lexer.line` returns the tokens through the next newline (or
``)``, or the end of input), and the grammar indexes into that list.
Each lexer mode — between tokens, an unquoted word, double quotes, a
``${...}`` operand, an arithmetic expansion, a here-document body — is
driven by one compiled pattern, so each byte of a script is looked at a
constant number of times.  Words are
lexed with their internal structure (quoting, parameter/command/arithmetic
substitution) already resolved into :mod:`repro.parser.ast_nodes` word
parts, which is how dash (and therefore libdash) structures its reader,
and a word whose expansion is the identity carries its one field
(:attr:`~repro.parser.ast_nodes.Word.constant`).

The list is cut where the grammar must act before lexing goes on: at a
newline, whose consumption first gathers the here-document bodies queued
on that line (POSIX XCU 2.7.4), and at ``)``, which may close a ``$(``
body that a nested parser reads from the same source: that parser
returns where the body ended, and lexes nothing past it.
"""

from __future__ import annotations

import re
from typing import Callable, Optional

from .ast_nodes import (
    ArithSub,
    CmdSub,
    DoubleQuoted,
    Escaped,
    Lit,
    Param,
    SingleQuoted,
    Word,
)


class ShellSyntaxError(SyntaxError):
    """Raised on malformed shell input."""

    def __init__(self, message: str, pos: int = -1, line: int = -1):
        super().__init__(message)
        self.pos = pos
        self.line = line


SPECIAL_PARAMS = set("@*#?-$!0123456789")

#: A token is a tuple ``(kind, value, word, pos)``.  ``kind`` is
#: WORD, IO_NUMBER, NEWLINE, EOF or the operator itself; ``value`` is a
#: word's text when it is one unquoted literal (what a reserved word is
#: matched against), else None, and an operator's or io-number's text;
#: ``word`` is the word's :class:`Word`.
WORD, IO_NUMBER, NEWLINE, EOF = "WORD", "IO_NUMBER", "\n", ""

#: between tokens: blanks, line continuations and a comment, then an
#: io-number, a whole word that is one plain literal, or a newline or
#: operator (longest first, POSIX token recognition rules 2/3); anything
#: else starts a word that :meth:`Lexer._parts` reads
_TOKEN = re.compile(
    r"(?:[ \t]|\\\n)*(?:#[^\n]*)?"
    r"(?:(?P<io>\d+)(?=[<>])"
    r"|(?P<lit>[^ \t\n<>|&;()'\"\\$`]+)(?=[ \t\n<>|&;()]|\Z)"
    r"|(?P<op><<-|<<|>>|<&|>&|<>|>\||&&|\|\||;;|[<>|&;()\n]))?")

#: one pattern per word mode: the run of characters that mode takes as is
_RUNS = {
    "word": re.compile(r"[^ \t\n<>|&;()'\"\\$`]+"),
    "dq": re.compile(r"[^\"\\$`]+"),
    "operand": re.compile(r"[^{}'\"\\$`]+"),
    "arith": re.compile(r"[^()'\"\\$`]+"),
    "heredoc": re.compile(r"[^\\$`]+"),
}
#: what a backslash quotes in each mode (None: any character)
_ESCAPES = {"word": None, "operand": None, "dq": '$`"\\', "heredoc": "$`\\",
            "arith": ""}
#: the error at the end of input, for the modes a closer must end
_UNTERMINATED = {"dq": "unterminated double quote",
                 "operand": "unterminated ${...}",
                 "arith": "unterminated arithmetic expansion"}
_BACKQUOTED = re.compile(r"(?:[^`\\]+|\\[$`\\]|\\)*")
_BACKSLASHED = re.compile(r"\\([$`\\])")
_NAME_TAIL = re.compile(r"\w*")
#: unquoted text that expansion does not leave as is (pathname and tilde
#: expansion; a ``[`` with no later ``]`` opens no bracket expression, so
#: it matches only itself)
ACTIVE = re.compile(r"[*?~]|\[[^]]*\]")


def is_name(s: str) -> bool:
    """POSIX *name*: [A-Za-z_][A-Za-z0-9_]*."""
    if not s:
        return False
    if not (s[0].isalpha() or s[0] == "_"):
        return False
    return all(c.isalnum() or c == "_" for c in s[1:])


def constant_of(parts) -> Optional[str]:
    """The one field a word made of ``parts`` expands to when expansion is
    the identity — no parameter, command or arithmetic part, and unquoted
    text (all of it: a bracket expression may span quotes) with no ``*``,
    ``?``, ``~`` or ``[`` … ``]`` — else None."""
    out: list[str] = []
    bare = ""
    for part in parts:
        kind = type(part)
        if kind is Lit:
            bare += part.text
            out.append(part.text)
        elif kind is SingleQuoted:
            out.append(part.text)
        elif kind is Escaped:
            out.append(part.char)
        elif kind is DoubleQuoted:
            for inner in part.parts:
                if type(inner) is Lit:
                    out.append(inner.text)
                elif type(inner) is Escaped:
                    out.append(inner.char)
                else:
                    return None
        else:
            return None
    text = "".join(out)
    return None if ACTIVE.search(bare) else text


class Fault:
    """The token at which lexing failed.  Reading it raises the error, so
    the grammar meets the error exactly where it would meet the token."""

    __slots__ = ("error",)

    def __init__(self, error: ShellSyntaxError):
        self.error = error

    def __getitem__(self, index: int):
        raise self.error


class Lexer:
    """Tokenizer over a shell source string, one line of tokens a call."""

    def __init__(self, src: str, parse_command: Callable, pos: int = 0):
        """``parse_command(source, offset, close)`` parses a command
        substitution body and returns ``(Command, end_offset)``."""
        self.src = src
        self.pos = pos
        self._parse_command = parse_command
        #: (redirect, delimiter, quoted, strip_tabs) queued by the grammar;
        #: :meth:`read_heredocs` reads the bodies when it consumes the
        #: newline that ends their line
        self.heredocs: list[tuple] = []
        self._line, self._at = 1 + src.count("\n", 0, pos), pos

    def _error(self, msg: str, pos: int) -> ShellSyntaxError:
        return ShellSyntaxError(msg, pos=pos, line=self.line_at(pos))

    # -- tokens -----------------------------------------------------------------

    def line(self) -> list:
        """The tokens through the next newline, ``)`` or the end of input;
        the list ends early at a :class:`Fault`."""
        toks: list = []
        src, n, pos = self.src, len(self.src), self.pos
        try:
            while True:
                m = _TOKEN.match(src, pos)
                kind = m.lastgroup
                if kind == "lit":
                    start, pos = m.span(kind)
                    text = src[start:pos]
                    const = None if ACTIVE.search(text) else text
                    toks.append((WORD, text, Word((Lit(text),), const), start))
                elif kind == "op":
                    start, pos = m.span(kind)
                    text = src[start:pos]
                    toks.append((text, text, None, start))
                    if text == "\n" or text == ")":
                        break
                elif kind == "io":
                    start, pos = m.span(kind)
                    toks.append((IO_NUMBER, src[start:pos], None, start))
                elif m.end() >= n:
                    toks.append((EOF, "", None, n))
                    break
                else:
                    start = m.end()
                    parts, pos = self._parts(start, "word")
                    text = (parts[0].text if len(parts) == 1
                            and type(parts[0]) is Lit else None)
                    word = Word(parts, constant_of(parts))
                    toks.append((WORD, text, word, start))
            self.pos = pos
        except ShellSyntaxError as err:
            toks.append(Fault(err))
        return toks

    def line_at(self, pos: int) -> int:
        """The 1-based line of offset ``pos``, counted from the offset asked
        about last (the grammar asks in nearly increasing order)."""
        if pos >= self._at:
            self._line += self.src.count("\n", self._at, pos)
        else:
            self._line -= self.src.count("\n", pos, self._at)
        self._at = pos
        return self._line

    # -- words ------------------------------------------------------------------

    def _parts(self, pos: int, mode: str):
        """Read word parts from ``pos`` until ``mode`` ends: an unquoted
        word at a terminator (not consumed), double quotes at ``"``, an
        operand at its unmatched ``}``, an arithmetic expansion at ``))``
        and a here-document body at the end of input.  Returns
        ``(parts, end)``; an arithmetic expansion that closes with one
        ``)`` was ``$( (...) )`` and returns ``(None, pos)``."""
        src, n = self.src, len(self.src)
        run, escapes = _RUNS[mode].match, _ESCAPES[mode]
        parts: list = []
        lit: list[str] = []
        depth = 0
        while True:
            m = run(src, pos)
            if m is not None:
                lit.append(m.group())
                pos = m.end()
            if pos >= n:
                if mode in _UNTERMINATED:
                    raise self._error(_UNTERMINATED[mode], pos)
                break
            c = src[pos]
            if c == "\\":
                nxt = src[pos + 1:pos + 2]
                if nxt == "\n":  # line continuation
                    pos += 2
                    continue
                if not nxt and mode in ("word", "operand", "dq"):
                    raise self._error("trailing backslash" if mode == "word"
                                      else _UNTERMINATED[mode], pos)
                if nxt and (escapes is None or nxt in escapes):
                    part, end = Escaped(nxt), pos + 2
                else:  # the backslash stays literal
                    lit.append(c)
                    pos += 1
                    continue
            elif c == "$":
                part, end = self._dollar(pos)
            elif c == "`":
                part, end = self._backquoted(pos)
            elif c == "'":
                end = src.find("'", pos + 1)
                if end < 0:
                    raise self._error("unterminated single quote", pos)
                part, end = SingleQuoted(src[pos + 1:end]), end + 1
            elif c == '"':
                if mode == "dq":
                    pos += 1
                    break
                inner, end = self._parts(pos + 1, "dq")
                part = DoubleQuoted(tuple(inner))
            elif c == "{":
                depth += 1
                lit.append(c)
                pos += 1
                continue
            elif c == "}":
                pos += 1
                if not depth:
                    break
                depth -= 1
                lit.append(c)
                continue
            elif mode == "arith":
                if c == "(":
                    depth += 1
                elif depth:
                    depth -= 1
                elif src.startswith("))", pos):
                    pos += 2
                    break
                else:
                    return None, pos
                lit.append(c)
                pos += 1
                continue
            else:  # a word terminator
                break
            if lit:
                parts.append(Lit("".join(lit)))
                lit.clear()
            parts.append(part)
            pos = end
        if lit:
            parts.append(Lit("".join(lit)))
        return tuple(parts), pos

    def _dollar(self, pos: int):
        src = self.src
        nxt = src[pos + 1:pos + 2]
        if nxt == "(":
            if src.startswith("$((", pos):
                parts, end = self._parts(pos + 3, "arith")
                if parts is not None:
                    return ArithSub(parts), end
            command, end = self._parse_command(src, pos + 2, ")")
            return CmdSub(command), end
        if nxt == "{":
            return self._braced(pos + 2)
        if nxt and (nxt in SPECIAL_PARAMS or nxt.isdigit()):
            return Param(nxt), pos + 2
        if nxt and (nxt.isalpha() or nxt == "_"):
            end = _NAME_TAIL.match(src, pos + 2).end()
            return Param(src[pos + 1:end]), end
        return Lit("$"), pos + 1  # a lone $ is literal

    def _backquoted(self, pos: int):
        end = _BACKQUOTED.match(self.src, pos + 1).end()
        if end >= len(self.src):
            raise self._error("unterminated backquote", end)
        body = _BACKSLASHED.sub(r"\1", self.src[pos + 1:end])
        command, __ = self._parse_command(body, 0, None)
        return CmdSub(command, backtick=True), end + 1

    def _braced(self, pos: int):
        """``${...}`` from just after the brace."""
        src, n = self.src, len(self.src)
        c = src[pos:pos + 1]
        if c == "#" and pos + 1 < n and (src[pos + 1].isalnum()
                                         or src[pos + 1] in "_@*"):
            name, end = self._param_name(pos + 1, pos)  # ${#x}: the length
            if src[end:end + 1] != "}":
                raise self._error("bad ${#name} expansion", end)
            return Param(name, "length"), end + 1
        if c and c in SPECIAL_PARAMS and not c.isalnum():
            name, pos = c, pos + 1
        elif c.isdigit():
            end = pos
            while end < n and src[end].isdigit():
                end += 1
            name, pos = src[pos:end], end
        else:
            name, pos = self._param_name(pos, pos)
        if pos >= n:
            raise self._error("unterminated ${", pos)
        c = src[pos]
        if c == "}":
            return Param(name), pos + 1
        if c == ":":
            if src[pos + 1:pos + 2] not in ("-", "=", "?", "+"):
                raise self._error("bad ':' in parameter expansion", pos)
            op = src[pos:pos + 2]
        elif c in "-=?+":
            op = c
        elif c in "%#":
            op = c * 2 if src[pos + 1:pos + 2] == c else c
        else:
            raise self._error(f"bad parameter operator {c!r}", pos)
        parts, end = self._parts(pos + len(op), "operand")
        return Param(name, op, Word(parts)), end

    def _param_name(self, start: int, at: int):
        end = _NAME_TAIL.match(self.src, start).end()
        name = self.src[start:end]
        if not is_name(name):
            raise self._error(f"bad parameter name {name!r}", at)
        return name, end

    # -- here-documents -----------------------------------------------------------

    def read_heredocs(self) -> None:
        """Read the bodies queued on the line whose newline was consumed."""
        src, n = self.src, len(self.src)
        while self.heredocs:
            redirect, delimiter, quoted, strip_tabs = self.heredocs.pop(0)
            lines: list[str] = []
            while True:
                if self.pos >= n:
                    raise self._error("here-document delimited by EOF "
                                      f"(wanted {delimiter!r})", self.pos)
                eol = src.find("\n", self.pos)
                if eol < 0:
                    eol = n
                line = src[self.pos:eol]
                self.pos = min(eol + 1, n)
                if strip_tabs:
                    line = line.lstrip("\t")
                if line == delimiter:
                    break
                lines.append(line)
            text = "".join(line + "\n" for line in lines)
            if quoted:
                body = Word((SingleQuoted(text),), text)
            else:
                # $, backquotes and backslash before $ ` \ and newline
                # expand, as in double quotes without the quotes
                inner, __ = Lexer(text, self._parse_command)._parts(
                    0, "heredoc")
                parts = (DoubleQuoted(inner or (Lit(""),)),)
                body = Word(parts, constant_of(parts))
            # the one write to a frozen node, made while it is being built
            object.__setattr__(redirect, "heredoc", body)
