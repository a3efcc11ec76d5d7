"""POSIX shell arithmetic ($((...))) — XCU 2.6.4.

Signed 64-bit integer arithmetic (dash's intmax_t) with the C operator
set, assignment, and the ternary conditional.  Variables resolve
through get/set callbacks so the evaluator is shared by the interpreter
and the symbolic analyses.
"""

from __future__ import annotations

import re
from typing import Callable, Optional


class ArithError(ValueError):
    pass


_TOKEN_RE = re.compile(
    r"""
    \s*(
        0[xX][0-9a-fA-F]+ | \d+              # numbers
      | [A-Za-z_][A-Za-z0-9_]*               # names
      | \<\<\= | \>\>\= | \<\< | \>\> | \<\= | \>\= | \=\= | \!\=
      | \&\& | \|\| | \+\= | \-\= | \*\= | /\= | %\= | \&\= | \^\= | \|\=
      | [-+*/%()!~<>=&^|?:,]
    )""",
    re.VERBOSE,
)


def tokenize(expr: str) -> list[str]:
    tokens: list[str] = []
    pos = 0
    while pos < len(expr):
        m = _TOKEN_RE.match(expr, pos)
        if m is None:
            rest = expr[pos:].strip()
            if not rest:
                break
            raise ArithError(f"bad arithmetic token at {rest[:10]!r}")
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


_ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "<<=", ">>=", "&=", "^=", "|="}

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


class _Parser:
    """Precedence-climbing parser, evaluating as it goes."""

    def __init__(self, tokens: list[str], get: Callable[[str], str],
                 set_: Optional[Callable[[str, str], None]]):
        self.tokens = tokens
        self.pos = 0
        self.get = get
        self.set = set_

    def peek(self) -> Optional[str]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, tok: str) -> None:
        if self.peek() != tok:
            raise ArithError(f"expected {tok!r}, found {self.peek()!r}")
        self.take()

    # expression levels, lowest first
    def parse_comma(self) -> int:
        value = self.parse_assign()
        while self.peek() == ",":
            self.take()
            value = self.parse_assign()
        return value

    def parse_assign(self) -> int:
        # lookahead: NAME assign-op expr
        if (
            self.pos + 1 < len(self.tokens)
            and _NAME_RE.match(self.tokens[self.pos])
            and self.tokens[self.pos + 1] in _ASSIGN_OPS
        ):
            name = self.take()
            op = self.take()
            rhs = self.parse_assign()
            if op != "=":
                current = self._value_of(name)
                rhs = _apply_binop(op[:-1], current, rhs)
            if self.set is None:
                raise ArithError(f"assignment to {name} not allowed here")
            self.set(name, str(rhs))
            return rhs
        return self.parse_ternary()

    def parse_ternary(self) -> int:
        cond = self.parse_binary(0)
        if self.peek() == "?":
            self.take()
            # evaluate both branches (side effects in untaken branch are a
            # documented divergence; our corpus has none)
            then = self.parse_assign()
            self.expect(":")
            other = self.parse_ternary()
            return then if cond else other
        return cond

    _LEVELS = [
        ("||",),
        ("&&",),
        ("|",),
        ("^",),
        ("&",),
        ("==", "!="),
        ("<", "<=", ">", ">="),
        ("<<", ">>"),
        ("+", "-"),
        ("*", "/", "%"),
    ]

    def parse_binary(self, level: int) -> int:
        if level >= len(self._LEVELS):
            return self.parse_unary()
        ops = self._LEVELS[level]
        value = self.parse_binary(level + 1)
        while self.peek() in ops:
            op = self.take()
            rhs = self.parse_binary(level + 1)
            value = _apply_binop(op, value, rhs)
        return value

    def parse_unary(self) -> int:
        tok = self.peek()
        if tok == "-":
            self.take()
            return _wrap(-self.parse_unary())
        if tok == "+":
            self.take()
            return self.parse_unary()
        if tok == "!":
            self.take()
            return 0 if self.parse_unary() else 1
        if tok == "~":
            self.take()
            return ~self.parse_unary()
        return self.parse_primary()

    def parse_primary(self) -> int:
        tok = self.peek()
        if tok is None:
            raise ArithError("unexpected end of expression")
        if tok == "(":
            self.take()
            value = self.parse_comma()
            self.expect(")")
            return value
        self.take()
        if tok[0].isdigit():
            return _parse_int(tok)
        if _NAME_RE.match(tok):
            return self._value_of(tok)
        raise ArithError(f"unexpected token {tok!r}")

    def _value_of(self, name: str) -> int:
        raw = self.get(name)
        if raw is None or raw == "":
            return 0
        try:
            return _parse_int(raw.strip())
        except ArithError:
            # POSIX allows recursive evaluation; one level is plenty here
            raise ArithError(f"non-numeric value for {name}: {raw!r}")


_INT64_MIN = -1 << 63


def _wrap(value: int) -> int:
    """``value`` modulo 2**64, as a signed 64-bit integer."""
    return (value - _INT64_MIN) % (1 << 64) + _INT64_MIN


def _parse_int(text: str) -> int:
    """A number as strtoimax reads it: out-of-range values saturate."""
    try:
        if text.lower().startswith("0x"):
            value = int(text, 16)
        elif text.startswith("0") and len(text) > 1 and text.isdigit():
            value = int(text, 8)
        else:
            value = int(text)
    except ValueError:
        raise ArithError(f"bad number {text!r}") from None
    return max(_INT64_MIN, min(value, -1 - _INT64_MIN))


def _apply_binop(op: str, a: int, b: int) -> int:
    if op in ("/", "%"):
        if b == 0:
            raise ArithError("division by zero")
        quotient = abs(a) // abs(b)  # C semantics: truncate toward zero
        if (a < 0) != (b < 0):
            quotient = -quotient
        return _wrap(quotient if op == "/" else a - quotient * b)
    if op in ("<<", ">>"):
        b &= 63  # the shift count, as the hardware takes it
    return _wrap(_binop(op, a, b))


def _binop(op: str, a: int, b: int) -> int:
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "<<":
        return a << b
    if op == ">>":
        return a >> b
    if op == "<":
        return int(a < b)
    if op == "<=":
        return int(a <= b)
    if op == ">":
        return int(a > b)
    if op == ">=":
        return int(a >= b)
    if op == "==":
        return int(a == b)
    if op == "!=":
        return int(a != b)
    if op == "&":
        return a & b
    if op == "^":
        return a ^ b
    if op == "|":
        return a | b
    if op == "&&":
        return int(bool(a) and bool(b))
    if op == "||":
        return int(bool(a) or bool(b))
    raise ArithError(f"unknown operator {op!r}")


def evaluate(expr: str, get: Callable[[str], str],
             set_: Optional[Callable[[str, str], None]] = None) -> int:
    """Evaluate a shell arithmetic expression.

    ``get(name)`` returns a variable's string value ('' / None for unset);
    ``set_(name, value)`` performs assignments (None forbids them, which
    the purity analysis uses).
    """
    tokens = tokenize(expr)
    if not tokens:
        return 0
    parser = _Parser(tokens, get, set_)
    value = parser.parse_comma()
    if parser.peek() is not None:
        raise ArithError(f"trailing tokens at {parser.peek()!r}")
    return value


def has_side_effects(expr: str) -> bool:
    """Conservative syntactic check: does the expression assign?"""
    try:
        tokens = tokenize(expr)
    except ArithError:
        return True
    return any(tok in _ASSIGN_OPS for tok in tokens)
