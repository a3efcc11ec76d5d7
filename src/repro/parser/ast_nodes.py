"""AST node definitions for the POSIX shell (the libdash-equivalent IR).

Every node is a frozen-ish dataclass.  Words are sequences of *parts*;
quoting structure is preserved so that (a) the unparser can round-trip and
(b) expansion (repro.semantics.expansion) can honour quoting rules.

The node set follows the POSIX.1-2017 Shell Command Language grammar
(XCU 2.10), the same fragment libdash parses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

# ---------------------------------------------------------------------------
# Word parts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Lit:
    """Unquoted literal characters (may contain glob metacharacters)."""

    text: str


@dataclass(frozen=True)
class SingleQuoted:
    """A '...' segment: fully literal, never expanded."""

    text: str


@dataclass(frozen=True)
class Escaped:
    """A backslash-escaped character outside quotes (quoted literal)."""

    char: str


@dataclass(frozen=True)
class DoubleQuoted:
    """A "..." segment: parameter/command/arith expansion but no splitting."""

    parts: tuple["WordPart", ...]


#: Parameter expansion operators (POSIX 2.6.2).
PARAM_OPS = (
    "",  # plain $x / ${x}
    "length",  # ${#x}
    "-", ":-", "=", ":=", "?", ":?", "+", ":+",  # use/assign/error/alternate
    "%", "%%", "#", "##",  # pattern removal
)


@dataclass(frozen=True)
class Param:
    """Parameter expansion ``${name<op>word}``.

    ``op`` is one of PARAM_OPS; ``word`` is the operand word (None when the
    operator takes none, e.g. plain ``$x`` or ``${#x}``).
    """

    name: str
    op: str = ""
    word: Optional["Word"] = None

    def __post_init__(self) -> None:
        if self.op not in PARAM_OPS:
            raise ValueError(f"bad parameter op {self.op!r}")


@dataclass(frozen=True)
class CmdSub:
    """Command substitution ``$(...)`` or backticks.

    ``backtick`` records concrete syntax only and does not affect equality:
    ``$(date)`` and ``\\`date\\``` denote the same substitution.
    """

    command: "Command"
    backtick: bool = field(default=False, compare=False)


@dataclass(frozen=True)
class ArithSub:
    """Arithmetic substitution ``$((...))``.

    The body is kept as word parts: POSIX expands parameters and command
    substitutions in the expression before evaluating it.
    """

    parts: tuple["WordPart", ...]


WordPart = Union[Lit, SingleQuoted, Escaped, DoubleQuoted, Param, CmdSub, ArithSub]


@dataclass(frozen=True)
class Word:
    """A shell word: a non-empty sequence of parts (empty for null word)."""

    parts: tuple[WordPart, ...] = ()
    #: the one field the word expands to when expansion is the identity,
    #: else None; set by the lexer (:func:`repro.parser.lexer.constant_of`)
    #: and the one static reading of the word that every analysis makes;
    #: ignored by equality, hashing, repr and unparse
    constant: Optional[str] = field(default=None, compare=False, repr=False)


# ---------------------------------------------------------------------------
# Redirections
# ---------------------------------------------------------------------------

REDIR_OPS = ("<", ">", ">>", "<&", ">&", "<>", ">|", "<<", "<<-")


@dataclass(frozen=True)
class Redirect:
    """A redirection: ``[fd]op target``.

    For here-documents (``<<``/``<<-``) ``heredoc`` holds the body as a Word
    (a single Lit part when the delimiter was quoted, expansion parts
    otherwise) and ``target`` holds the delimiter.
    """

    op: str
    target: Word
    fd: Optional[int] = None
    heredoc: Optional[Word] = None

    def __post_init__(self) -> None:
        if self.op not in REDIR_OPS:
            raise ValueError(f"bad redirect op {self.op!r}")

    def default_fd(self) -> int:
        """The fd this redirection applies to when none was written."""
        if self.fd is not None:
            return self.fd
        return 0 if self.op in ("<", "<&", "<>", "<<", "<<-") else 1


@dataclass(frozen=True)
class Assign:
    """A variable assignment prefix ``name=word``."""

    name: str
    word: Word


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimpleCommand:
    assigns: tuple[Assign, ...] = ()
    words: tuple[Word, ...] = ()
    redirects: tuple[Redirect, ...] = ()


@dataclass(frozen=True)
class Pipeline:
    """``cmd | cmd | ...`` with optional leading ``!``."""

    commands: tuple["Command", ...]
    negated: bool = False


@dataclass(frozen=True)
class AndOr:
    """``left && right`` or ``left || right`` (left-associative chains)."""

    left: "Command"
    op: str  # "&&" or "||"
    right: "Command"

    def __post_init__(self) -> None:
        if self.op not in ("&&", "||"):
            raise ValueError(f"bad and-or op {self.op!r}")


@dataclass(frozen=True)
class ListItem:
    command: "Command"
    is_async: bool = False  # terminated by & rather than ; / newline


@dataclass(frozen=True)
class CommandList:
    """A sequence of and-or lists separated by ``;``, ``&``, or newlines."""

    items: tuple[ListItem, ...]


@dataclass(frozen=True)
class Subshell:
    body: "Command"
    redirects: tuple[Redirect, ...] = ()


@dataclass(frozen=True)
class BraceGroup:
    body: "Command"
    redirects: tuple[Redirect, ...] = ()


@dataclass(frozen=True)
class If:
    cond: "Command"
    then_body: "Command"
    elifs: tuple[tuple["Command", "Command"], ...] = ()
    else_body: Optional["Command"] = None
    redirects: tuple[Redirect, ...] = ()


@dataclass(frozen=True)
class While:
    cond: "Command"
    body: "Command"
    until: bool = False
    redirects: tuple[Redirect, ...] = ()


@dataclass(frozen=True)
class For:
    var: str
    words: Optional[tuple[Word, ...]]  # None means implicit `in "$@"`
    body: "Command"
    redirects: tuple[Redirect, ...] = ()


@dataclass(frozen=True)
class CaseItem:
    patterns: tuple[Word, ...]
    body: Optional["Command"]


@dataclass(frozen=True)
class Case:
    word: Word
    items: tuple[CaseItem, ...]
    redirects: tuple[Redirect, ...] = ()


@dataclass(frozen=True)
class FuncDef:
    name: str
    body: "Command"


Command = Union[
    SimpleCommand,
    Pipeline,
    AndOr,
    CommandList,
    Subshell,
    BraceGroup,
    If,
    While,
    For,
    Case,
    FuncDef,
]

COMPOUND_WITH_REDIRECTS = (Subshell, BraceGroup, If, While, For, Case)


def walk(node: object):
    """Yield ``node`` and every AST descendant (commands, words, parts)."""
    yield node
    if isinstance(node, Word):
        for part in node.parts:
            yield from walk(part)
    elif isinstance(node, DoubleQuoted):
        for part in node.parts:
            yield from walk(part)
    elif isinstance(node, Param):
        if node.word is not None:
            yield from walk(node.word)
    elif isinstance(node, CmdSub):
        yield from walk(node.command)
    elif isinstance(node, ArithSub):
        for part in node.parts:
            yield from walk(part)
    elif isinstance(node, Redirect):
        yield from walk(node.target)
        if node.heredoc is not None:
            yield from walk(node.heredoc)
    elif isinstance(node, Assign):
        yield from walk(node.word)
    elif isinstance(node, SimpleCommand):
        for assign in node.assigns:
            yield from walk(assign)
        for word in node.words:
            yield from walk(word)
        for redirect in node.redirects:
            yield from walk(redirect)
    elif isinstance(node, Pipeline):
        for cmd in node.commands:
            yield from walk(cmd)
    elif isinstance(node, AndOr):
        yield from walk(node.left)
        yield from walk(node.right)
    elif isinstance(node, CommandList):
        for item in node.items:
            yield from walk(item.command)
    elif isinstance(node, (Subshell, BraceGroup)):
        yield from walk(node.body)
        for redirect in node.redirects:
            yield from walk(redirect)
    elif isinstance(node, If):
        yield from walk(node.cond)
        yield from walk(node.then_body)
        for cond, body in node.elifs:
            yield from walk(cond)
            yield from walk(body)
        if node.else_body is not None:
            yield from walk(node.else_body)
        for redirect in node.redirects:
            yield from walk(redirect)
    elif isinstance(node, While):
        yield from walk(node.cond)
        yield from walk(node.body)
        for redirect in node.redirects:
            yield from walk(redirect)
    elif isinstance(node, For):
        if node.words is not None:
            for word in node.words:
                yield from walk(word)
        yield from walk(node.body)
        for redirect in node.redirects:
            yield from walk(redirect)
    elif isinstance(node, Case):
        yield from walk(node.word)
        for item in node.items:
            for pat in item.patterns:
                yield from walk(pat)
            if item.body is not None:
                yield from walk(item.body)
        for redirect in node.redirects:
            yield from walk(redirect)
    elif isinstance(node, FuncDef):
        yield from walk(node.body)
