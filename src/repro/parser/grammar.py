"""Recursive-descent parser for the POSIX Shell Command Language.

Implements the grammar of POSIX.1-2017 XCU 2.10 over the token lines
produced by :mod:`repro.parser.lexer`: the parser holds the current line
and an index into it (a token is a ``(kind, value, word, pos)`` tuple),
and asks the lexer for the next line when it consumes the newline or
``)`` that ends one.  ``parse(src)`` returns a
:class:`~repro.parser.ast_nodes.CommandList`.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from .ast_nodes import (
    AndOr,
    Assign,
    BraceGroup,
    Case,
    CaseItem,
    Command,
    CommandList,
    DoubleQuoted,
    Escaped,
    For,
    FuncDef,
    If,
    Lit,
    ListItem,
    Pipeline,
    Redirect,
    SimpleCommand,
    SingleQuoted,
    Subshell,
    While,
    Word,
)
from .lexer import EOF, IO_NUMBER, NEWLINE, WORD, Lexer, ShellSyntaxError, is_name

RESERVED = {
    "if", "then", "else", "elif", "fi", "do", "done",
    "case", "esac", "while", "until", "for", "in", "{", "}", "!",
}

REDIR_OPERATORS = frozenset(("<", ">", ">>", "<&", ">&", "<>", ">|", "<<", "<<-"))
_REDIRECT_START = REDIR_OPERATORS | {IO_NUMBER}

#: Reserved words that terminate an enclosing body; a command can never
#: begin with one of these, so list parsing stops there.
STOP_KEYWORDS = ("then", "else", "elif", "fi", "do", "done", "esac", "}")


def word_literal(word: Word) -> Optional[str]:
    """The literal string of a fully-unquoted single-Lit word, else None.

    Reserved words are only recognized when completely unquoted (POSIX
    2.10.2 rule 1 applies to the *token*, so ``"if"`` is not a keyword).
    """
    if len(word.parts) == 1 and isinstance(word.parts[0], Lit):
        return word.parts[0].text
    return None


def split_assignment(word: Word) -> Optional[tuple[str, Word]]:
    """If ``word`` has the shape ``name=value`` (with ``name=`` unquoted),
    return ``(name, value_word)``."""
    if not word.parts or not isinstance(word.parts[0], Lit):
        return None
    first = word.parts[0].text
    eq = first.find("=")
    if eq <= 0:
        return None
    name = first[:eq]
    if not is_name(name):
        return None
    rest_text = first[eq + 1 :]
    value_parts = list(word.parts[1:])
    if rest_text:
        value_parts.insert(0, Lit(rest_text))
    constant = word.constant
    return name, Word(tuple(value_parts),
                      None if constant is None else constant[eq + 1:])


class Parser:
    """One-pass recursive-descent parser; not reusable across inputs."""

    def __init__(self, src: str, offset: int = 0):
        self.src = src
        #: id(node) -> (line, col), 1-based, for statement-level nodes.
        #: A side-table: the frozen AST nodes stay position-free so value
        #: equality and unparse round-trips are unaffected.
        self.positions: dict[int, tuple[int, int]] = {}
        self.lexer = Lexer(src, _parse_substitution, offset)
        self.toks = self.lexer.line()  # the current line of tokens
        self.i = 0  # the current token's index in it

    def _mark(self, node: Command, tok) -> Command:
        if id(node) not in self.positions:
            pos = tok[3]
            self.positions[id(node)] = (self.lexer.line_at(pos),
                                        pos - self.src.rfind("\n", 0, pos))
        return node

    # -- token helpers --------------------------------------------------------

    def _error(self, msg: str) -> ShellSyntaxError:
        pos = self.toks[self.i][3]
        return ShellSyntaxError(msg, pos=pos, line=self.lexer.line_at(pos))

    def _expect(self, text: str) -> None:
        """Consume operator or reserved word ``text``."""
        tok = self.toks[self.i]
        if tok[1] != text:
            raise self._error(f"expected {text!r}, found {self._describe(tok)}")
        self.i += 1
        if text == ")":
            self._next_line()

    def _next_line(self) -> None:
        self.toks = self.lexer.line()
        self.i = 0

    @staticmethod
    def _describe(tok) -> str:
        if tok[0] == WORD:
            return repr(tok[1]) if tok[1] is not None else "word"
        if tok[0] == EOF:
            return "end of input"
        if tok[0] == NEWLINE:
            return "newline"
        return repr(tok[1])

    def _skip_newlines(self) -> None:
        # a newline ends its line of tokens: consuming it reads the queued
        # here-document bodies, then the next line
        while self.toks[self.i][0] == NEWLINE:
            if self.lexer.heredocs:
                self.lexer.read_heredocs()
            self._next_line()

    # -- entry points ---------------------------------------------------------

    def parse_program(self) -> CommandList:
        return self.parse_until(None)[0]

    def parse_until(self, close: Optional[str]) -> tuple[Command, int]:
        """Parse a command list terminated by operator ``close`` (such as
        ``)``), or by EOF when None; consume the terminator, which ends its
        line of tokens.  Returns the parsed command and the source offset
        just past the terminator."""
        self._skip_newlines()
        items: list[ListItem] = []
        until = (close,) if close else ()
        while True:
            tok = self.toks[self.i]
            if tok[0] == EOF:
                if close is not None:
                    raise self._error(f"expected {close!r} before end of input")
                return CommandList(tuple(items)), tok[3]
            if tok[0] == close:
                self.i += 1
                return CommandList(tuple(items)), tok[3] + 1
            items.extend(self._parse_list_items(until))
            self._skip_newlines()

    # -- lists ---------------------------------------------------------------

    def _parse_list_items(self, until_ops: tuple) -> list[ListItem]:
        """Parse ``and_or ((';'|'&') and_or)*`` up to a newline/terminator."""
        items: list[ListItem] = []
        while True:
            cmd = self._parse_and_or()
            kind = self.toks[self.i][0]
            separated = kind == "&" or kind == ";"
            if separated:
                self.i += 1
            items.append(ListItem(cmd, kind == "&"))
            tok = self.toks[self.i]
            kind = tok[0]
            if kind in (EOF, NEWLINE, ")", ";;") or kind in until_ops:
                break
            if kind == "&" or kind == ";":
                raise self._error("unexpected separator")
            if not separated:
                raise self._error(f"expected separator, found {self._describe(tok)}")
            if tok[1] in STOP_KEYWORDS and kind == WORD:
                break
        return items

    def _parse_and_or(self) -> Command:
        start = self.toks[self.i]
        left = self._parse_pipeline()
        while self.toks[self.i][0] in ("&&", "||"):
            op = self.toks[self.i][0]
            self.i += 1
            self._skip_newlines()
            right = self._parse_pipeline()
            left = self._mark(AndOr(left, op, right), start)
        return left

    def _parse_pipeline(self) -> Command:
        start = self.toks[self.i]
        negated = start[1] == "!" and start[0] == WORD
        if negated:
            self.i += 1
        commands = [self._parse_command()]
        while self.toks[self.i][0] == "|":
            self.i += 1
            self._skip_newlines()
            commands.append(self._parse_command())
        if len(commands) == 1 and not negated:
            return commands[0]
        return self._mark(Pipeline(tuple(commands), negated=negated), start)

    # -- commands --------------------------------------------------------------

    def _parse_command(self) -> Command:
        start = self.toks[self.i]
        kw = start[1]
        if start[0] == "(":
            node = self._parse_subshell()
        elif start[0] != WORD or kw not in RESERVED:
            node = self._parse_simple_command()
        elif kw == "{":
            self.i += 1
            body, __ = self._parse_body_until_keywords("}")
            node = BraceGroup(body, self._parse_redirect_suffix())
        elif kw == "if":
            node = self._parse_if()
        elif kw in ("while", "until"):
            self.i += 1
            cond, __ = self._parse_body_until_keywords("do")
            body, __ = self._parse_body_until_keywords("done")
            node = While(cond, body, until=kw == "until",
                         redirects=self._parse_redirect_suffix())
        elif kw == "for":
            node = self._parse_for()
        elif kw == "case":
            node = self._parse_case()
        elif kw not in ("!", "in"):
            raise self._error(f"unexpected reserved word {kw!r}")
        else:
            node = self._parse_simple_command()
        return self._mark(node, start)

    def _parse_redirect_suffix(self) -> tuple[Redirect, ...]:
        redirects = []
        while self.toks[self.i][0] in _REDIRECT_START:
            redirects.append(self._parse_redirect())
        return tuple(redirects)

    def _parse_redirect(self) -> Redirect:
        """The redirect at the current token, an io-number or an operator."""
        tok = self.toks[self.i]
        fd: Optional[int] = None
        if tok[0] == IO_NUMBER:
            fd = int(tok[1])
            self.i += 1
            tok = self.toks[self.i]
            if tok[0] not in REDIR_OPERATORS:
                raise self._error("expected redirection operator after io-number")
        op = tok[0]
        self.i += 1
        target = self.toks[self.i]
        if target[0] != WORD:
            raise self._error(f"expected word after {op!r}")
        self.i += 1
        if op in ("<<", "<<-"):
            return self._make_heredoc(op, target[2], fd)
        return Redirect(op, target[2], fd)

    def _make_heredoc(self, op: str, delim_word: Word, fd: Optional[int]) -> Redirect:
        quoted = not all(isinstance(p, Lit) for p in delim_word.parts)
        delim_text_parts: list[str] = []
        for part in delim_word.parts:
            if isinstance(part, (Lit, SingleQuoted)):
                delim_text_parts.append(part.text)
            elif isinstance(part, Escaped):
                delim_text_parts.append(part.char)
            elif isinstance(part, DoubleQuoted):
                for q in part.parts:
                    if isinstance(q, Lit):
                        delim_text_parts.append(q.text)
                    elif isinstance(q, Escaped):
                        delim_text_parts.append(q.char)
                    else:
                        raise self._error("here-doc delimiter must be static")
            else:
                raise self._error("here-doc delimiter must be static")
        # the lexer installs the body when the newline after it is consumed
        redirect = Redirect(op, delim_word, fd)
        self.lexer.heredocs.append(
            (redirect, "".join(delim_text_parts), quoted, op == "<<-"))
        return redirect

    # -- compound commands -------------------------------------------------------

    def _parse_subshell(self) -> Command:
        self.i += 1  # (
        body, __ = self.parse_until(")")
        self._next_line()
        return Subshell(body, self._parse_redirect_suffix())

    def _parse_body_until_keywords(self, *keywords: str):
        """Parse a command list until one of several keywords; consume it and
        return (body, keyword)."""
        self._skip_newlines()
        items: list[ListItem] = []
        while True:
            tok = self.toks[self.i]
            if tok[1] in keywords and tok[0] == WORD:
                self.i += 1
                return CommandList(tuple(items)), tok[1]
            if tok[0] == EOF:
                raise self._error(f"expected one of {keywords} before end of input")
            items.extend(self._parse_list_items(()))
            self._skip_newlines()

    def _parse_if(self) -> Command:
        self.i += 1  # if
        cond, __ = self._parse_body_until_keywords("then")
        then_body, kw = self._parse_body_until_keywords("elif", "else", "fi")
        elifs: list[tuple[Command, Command]] = []
        else_body: Optional[Command] = None
        while kw == "elif":
            elif_cond, __ = self._parse_body_until_keywords("then")
            elif_body, kw = self._parse_body_until_keywords("elif", "else", "fi")
            elifs.append((elif_cond, elif_body))
        if kw == "else":
            else_body, kw = self._parse_body_until_keywords("fi")
        redirects = self._parse_redirect_suffix()
        return If(cond, then_body, tuple(elifs), else_body, redirects)

    def _parse_for(self) -> Command:
        self.i += 1  # for
        tok = self.toks[self.i]
        if tok[0] != WORD:
            raise self._error("expected name after 'for'")
        name = tok[1]
        if name is None or not is_name(name):
            raise self._error("bad for-loop variable name")
        self.i += 1
        self._skip_newlines()
        words: Optional[tuple[Word, ...]] = None
        tok = self.toks[self.i]
        if tok[1] == "in" and tok[0] == WORD:
            self.i += 1
            collected: list[Word] = []
            while self.toks[self.i][0] == WORD:
                collected.append(self.toks[self.i][2])
                self.i += 1
            words = tuple(collected)
            kind = self.toks[self.i][0]
            if kind == ";":
                self.i += 1
            elif kind == NEWLINE:
                self._skip_newlines()
            else:
                raise self._error("expected ';' or newline after for-words")
        elif tok[0] == ";":
            self.i += 1
        self._skip_newlines()
        self._expect("do")
        body, __ = self._parse_body_until_keywords("done")
        redirects = self._parse_redirect_suffix()
        return For(name, words, body, redirects)

    def _parse_case(self) -> Command:
        self.i += 1  # case
        subject = self.toks[self.i]
        if subject[0] != WORD:
            raise self._error("expected word after 'case'")
        self.i += 1
        self._skip_newlines()
        self._expect("in")
        self._skip_newlines()
        items: list[CaseItem] = []
        while not self._at_esac():
            if self.toks[self.i][0] == EOF:
                raise self._error("expected 'esac' before end of input")
            if self.toks[self.i][0] == "(":
                self.i += 1
            patterns = [self._read_pattern_word()]
            while self.toks[self.i][0] == "|":
                self.i += 1
                patterns.append(self._read_pattern_word())
            self._expect(")")
            self._skip_newlines()
            body: Optional[Command] = None
            if self.toks[self.i][0] != ";;" and not self._at_esac():
                body_items: list[ListItem] = []
                while True:
                    if self.toks[self.i][0] == ";;" or self._at_esac():
                        break
                    if self.toks[self.i][0] == EOF:
                        raise self._error("expected ';;' or 'esac'")
                    body_items.extend(self._parse_list_items((";;",)))
                    self._skip_newlines()
                body = CommandList(tuple(body_items))
            if self.toks[self.i][0] == ";;":
                self.i += 1
            self._skip_newlines()
            items.append(CaseItem(tuple(patterns), body))
        self.i += 1  # esac
        redirects = self._parse_redirect_suffix()
        return Case(subject[2], tuple(items), redirects)

    def _at_esac(self) -> bool:
        tok = self.toks[self.i]
        return tok[1] == "esac" and tok[0] == WORD

    def _read_pattern_word(self) -> Word:
        tok = self.toks[self.i]
        if tok[0] != WORD:
            raise self._error("expected case pattern")
        self.i += 1
        return tok[2]

    # -- simple commands -----------------------------------------------------------

    def _parse_simple_command(self) -> Command:
        assigns: list[Assign] = []
        words: list[Word] = []
        redirects: list[Redirect] = []
        while True:
            tok = self.toks[self.i]
            if tok[0] != WORD:
                if tok[0] not in _REDIRECT_START:
                    break
                redirects.append(self._parse_redirect())
                continue
            # a literal word without "=" is no assignment
            if not words and (tok[1] is None or "=" in tok[1]):
                assignment = split_assignment(tok[2])
                if assignment is not None:
                    self.i += 1
                    assigns.append(Assign(*assignment))
                    continue
            self.i += 1
            # function definition: name ( ) body
            if (not words and not assigns and not redirects
                    and self.toks[self.i][0] == "("):
                name = tok[1]
                if name is not None and is_name(name) and name not in RESERVED:
                    self.i += 1  # (
                    self._expect(")")
                    self._skip_newlines()
                    body = self._parse_command()
                    # trailing redirects attach to the function body
                    extra = self._parse_redirect_suffix()
                    if extra:
                        body = _attach_redirects(body, extra)
                    return FuncDef(name, body)
            words.append(tok[2])
        if not assigns and not words and not redirects:
            raise self._error(
                f"expected a command, found {self._describe(self.toks[self.i])}")
        return SimpleCommand(tuple(assigns), tuple(words), tuple(redirects))


def _attach_redirects(cmd: Command, redirects: tuple[Redirect, ...]) -> Command:
    if hasattr(cmd, "redirects"):
        return replace(cmd, redirects=tuple(cmd.redirects) + redirects)
    return Subshell(cmd, redirects)


def _parse_substitution(src: str, offset: int, close_op: Optional[str]):
    """Hook installed into the lexer: parse a $(...) / `...` body."""
    return Parser(src, offset).parse_until(close_op)


def parse(src: str) -> CommandList:
    """Parse a complete shell program into a :class:`CommandList`."""
    return Parser(src).parse_program()


def parse_with_positions(src: str):
    """Parse and also return the (line, col) side-table for statement
    nodes — the anchor source for ``jash check`` diagnostics.  Nodes
    inside ``$(...)`` bodies are parsed by nested parsers and carry no
    entry; consumers fall back to the innermost recorded ancestor."""
    parser = Parser(src)
    program = parser.parse_program()
    return program, parser.positions


def parse_one(src: str) -> Command:
    """Parse a program expected to contain exactly one command."""
    program = parse(src)
    if len(program.items) != 1:
        raise ShellSyntaxError(f"expected one command, found {len(program.items)}")
    item = program.items[0]
    if item.is_async:
        return program
    return item.command
