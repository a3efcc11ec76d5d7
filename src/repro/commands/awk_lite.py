"""awk — a substantial subset of POSIX awk.

Supported:

* program structure: ``pattern { action }`` items; BEGIN / END /
  ``/regex/`` / expression patterns; pattern-only items (print $0);
  action-only items (match every record)
* statements: ``print``, ``printf``, expression statements (assignments,
  ``++``/``--``, ``+=`` family), ``if (...) ... [else ...]``,
  ``while (...)``, ``for (k in arr)``, ``next``, ``exit [expr]``, ``{}``
  blocks
* expressions: numbers, string literals, fields ``$0..$n`` (computed
  ``$e`` too), variables, associative arrays ``a[expr]``, arithmetic,
  string concatenation (juxtaposition), comparisons, ``~``/``!~`` regex
  match, ``&&``/``||``/``!``, ternary ``?:``, parentheses
* built-ins: NR, NF, FS, OFS, ORS, FILENAME; functions length, substr,
  index, toupper, tolower, int, split, sprintf
* options: ``-F sep``, ``-v name=value``

The numeric/string coercion rules follow POSIX awk: numeric strings
compare numerically, uninitialized values are "" / 0.
"""

from __future__ import annotations

import re
from typing import Optional

from ..vos.process import Process
from .base import LineStream, OutBuf, UsageError, command, cpu_coeff, open_input, write_err

# ---------------------------------------------------------------------------
# lexer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"""
    (?P<ws>[ \t]+)
  | (?P<comment>\#[^\n]*)
  | (?P<newline>\n)
  | (?P<number>\d+(\.\d+)?([eE][-+]?\d+)?)
  | (?P<string>"(\\.|[^"\\])*")
  | (?P<regex_placeholder>\x00)                   # never matches input
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>\+\+|--|\+=|-=|\*=|/=|%=|==|!=|<=|>=|&&|\|\||!~|[-+*/%<>=!~?:;{}()\[\],$])
""", re.VERBOSE)

KEYWORDS = {"BEGIN", "END", "print", "printf", "if", "else", "while",
            "for", "in", "next", "exit"}


class AwkSyntaxError(UsageError):
    pass


def tokenize(src: str) -> list[tuple[str, str]]:
    tokens: list[tuple[str, str]] = []
    pos = 0
    while pos < len(src):
        # regex literal: a '/' in operand position
        if src[pos] == "/" and _regex_position(tokens):
            end = pos + 1
            while end < len(src):
                if src[end] == "\\":
                    end += 2
                    continue
                if src[end] == "/":
                    break
                end += 1
            if end >= len(src):
                raise AwkSyntaxError("unterminated /regex/")
            tokens.append(("regex", src[pos + 1 : end]))
            pos = end + 1
            continue
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            raise AwkSyntaxError(f"bad awk token at {src[pos:pos+10]!r}")
        kind = m.lastgroup
        text = m.group()
        pos = m.end()
        if kind in ("ws", "comment"):
            continue
        if kind == "newline":
            tokens.append(("op", ";"))
        elif kind == "number":
            tokens.append(("number", text))
        elif kind == "string":
            tokens.append(("string", _unescape(text[1:-1])))
        elif kind == "name":
            tokens.append(("keyword" if text in KEYWORDS else "name", text))
        else:
            tokens.append(("op", text))
    return tokens


def _regex_position(tokens: list) -> bool:
    """Is a '/' here a regex literal (operand position) or division?"""
    if not tokens:
        return True
    kind, text = tokens[-1]
    if kind in ("number", "string", "regex", "name"):
        return False
    if kind == "op" and text in (")", "]", "++", "--", "$"):
        return False
    return True


def _unescape(text: str) -> str:
    out: list[str] = []
    i = 0
    while i < len(text):
        c = text[i]
        if c == "\\" and i + 1 < len(text):
            nxt = text[i + 1]
            out.append({"n": "\n", "t": "\t", "\\": "\\", '"': '"',
                        "r": "\r", "/": "/"}.get(nxt, "\\" + nxt))
            i += 2
        else:
            out.append(c)
            i += 1
    return "".join(out)


# ---------------------------------------------------------------------------
# AST + parser
# ---------------------------------------------------------------------------


class Node:
    __slots__ = ("kind", "a", "b", "c")

    def __init__(self, kind, a=None, b=None, c=None):
        self.kind = kind
        self.a = a
        self.b = b
        self.c = c

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Node({self.kind}, {self.a!r}, {self.b!r}, {self.c!r})"


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def take(self):
        token = self.peek()
        self.pos += 1
        return token

    def accept(self, kind, text=None) -> bool:
        k, t = self.peek()
        if k == kind and (text is None or t == text):
            self.pos += 1
            return True
        return False

    def expect(self, kind, text=None):
        k, t = self.peek()
        if k != kind or (text is not None and t != text):
            raise AwkSyntaxError(f"expected {text or kind}, found {t!r}")
        return self.take()

    def skip_seps(self):
        while self.accept("op", ";"):
            pass

    # -- program -------------------------------------------------------------

    def parse_program(self):
        items = []
        self.skip_seps()
        while self.peek()[0] is not None:
            items.append(self.parse_item())
            self.skip_seps()
        return items

    def parse_item(self):
        kind, text = self.peek()
        pattern = None
        if kind == "keyword" and text in ("BEGIN", "END"):
            self.take()
            pattern = Node(text)
        elif not (kind == "op" and text == "{"):
            pattern = Node("expr_pattern", self.parse_expr())
        action = None
        if self.peek() == ("op", "{"):
            action = self.parse_block()
        if action is None:
            action = Node("block", [Node("print", [])])
        return (pattern, action)

    # -- statements --------------------------------------------------------------

    def parse_block(self):
        self.expect("op", "{")
        stmts = []
        self.skip_seps()
        while self.peek() != ("op", "}"):
            if self.peek()[0] is None:
                raise AwkSyntaxError("unterminated { block }")
            stmts.append(self.parse_statement())
            self.skip_seps()
        self.expect("op", "}")
        return Node("block", stmts)

    def parse_statement(self):
        kind, text = self.peek()
        if kind == "op" and text == "{":
            return self.parse_block()
        if kind == "keyword":
            if text == "print":
                self.take()
                args = []
                if self.peek()[1] not in (";", "}", None):
                    args.append(self.parse_expr())
                    while self.accept("op", ","):
                        args.append(self.parse_expr())
                return Node("print", args)
            if text == "printf":
                self.take()
                args = [self.parse_expr()]
                while self.accept("op", ","):
                    args.append(self.parse_expr())
                return Node("printf", args)
            if text == "next":
                self.take()
                return Node("next")
            if text == "exit":
                self.take()
                if self.peek()[1] in (";", "}", None):
                    return Node("exit")
                return Node("exit", self.parse_expr())
            if text == "if":
                self.take()
                self.expect("op", "(")
                cond = self.parse_expr()
                self.expect("op", ")")
                self.skip_seps()
                then = self.parse_statement()
                other = None
                save = self.pos
                self.skip_seps()
                if self.accept("keyword", "else"):
                    self.skip_seps()
                    other = self.parse_statement()
                else:
                    self.pos = save
                return Node("if", cond, then, other)
            if text == "while":
                self.take()
                self.expect("op", "(")
                cond = self.parse_expr()
                self.expect("op", ")")
                self.skip_seps()
                return Node("while", cond, self.parse_statement())
            if text == "for":
                self.take()
                self.expect("op", "(")
                name = self.expect("name")[1]
                self.expect("keyword", "in")
                arr = self.expect("name")[1]
                self.expect("op", ")")
                self.skip_seps()
                return Node("forin", name, arr, self.parse_statement())
        return Node("exprstmt", self.parse_expr())

    # -- expressions (precedence climbing) ----------------------------------------

    def parse_expr(self):
        return self.parse_ternary()

    def parse_ternary(self):
        cond = self.parse_or()
        if self.accept("op", "?"):
            then = self.parse_ternary()
            self.expect("op", ":")
            other = self.parse_ternary()
            return Node("ternary", cond, then, other)
        return cond

    def parse_or(self):
        node = self.parse_and()
        while self.accept("op", "||"):
            node = Node("or", node, self.parse_and())
        return node

    def parse_and(self):
        node = self.parse_match()
        while self.accept("op", "&&"):
            node = Node("and", node, self.parse_match())
        return node

    def parse_match(self):
        node = self.parse_compare()
        while True:
            if self.accept("op", "~"):
                node = Node("match", node, self.parse_compare())
            elif self.accept("op", "!~"):
                node = Node("nomatch", node, self.parse_compare())
            else:
                return node

    def parse_compare(self):
        node = self.parse_concat()
        for op in ("==", "!=", "<=", ">=", "<", ">"):
            if self.accept("op", op):
                return Node("cmp", op, node, self.parse_concat())
        return node

    _CONCAT_STOP = {";", "}", ")", "]", ",", "?", ":", "==", "!=", "<=",
                    ">=", "<", ">", "&&", "||", "~", "!~", "=", "+=", "-=",
                    "*=", "/=", "%=", "{"}

    def parse_concat(self):
        node = self.parse_additive()
        while True:
            kind, text = self.peek()
            if kind is None or (kind == "op" and text in self._CONCAT_STOP):
                return node
            if kind == "keyword" and text != "in":
                return node
            if kind == "keyword" and text == "in":
                return node
            node = Node("concat", node, self.parse_additive())

    def parse_additive(self):
        node = self.parse_term()
        while True:
            if self.accept("op", "+"):
                node = Node("arith", "+", node, self.parse_term())
            elif self.accept("op", "-"):
                node = Node("arith", "-", node, self.parse_term())
            else:
                return node

    def parse_term(self):
        node = self.parse_unary()
        while True:
            if self.accept("op", "*"):
                node = Node("arith", "*", node, self.parse_unary())
            elif self.accept("op", "/"):
                node = Node("arith", "/", node, self.parse_unary())
            elif self.accept("op", "%"):
                node = Node("arith", "%", node, self.parse_unary())
            else:
                return node

    def parse_unary(self):
        if self.accept("op", "-"):
            return Node("neg", self.parse_unary())
        if self.accept("op", "+"):
            return self.parse_unary()
        if self.accept("op", "!"):
            return Node("not", self.parse_unary())
        if self.accept("op", "++"):
            target = self.parse_postfix()
            return Node("preincr", target, 1)
        if self.accept("op", "--"):
            target = self.parse_postfix()
            return Node("preincr", target, -1)
        return self.parse_assignment_or_postfix()

    def parse_assignment_or_postfix(self):
        node = self.parse_postfix()
        for op in ("=", "+=", "-=", "*=", "/=", "%="):
            if self.accept("op", op):
                if node.kind not in ("var", "field", "index"):
                    raise AwkSyntaxError(f"cannot assign to {node.kind}")
                return Node("assign", op, node, self.parse_expr())
        return node

    def parse_postfix(self):
        node = self.parse_primary()
        while True:
            if self.accept("op", "++"):
                node = Node("postincr", node, 1)
            elif self.accept("op", "--"):
                node = Node("postincr", node, -1)
            else:
                return node

    FUNCTIONS = {"length", "substr", "index", "toupper", "tolower", "int",
                 "split", "sprintf", "sub", "gsub", "match"}

    def parse_primary(self):
        kind, text = self.peek()
        if kind == "number":
            self.take()
            return Node("num", float(text))
        if kind == "string":
            self.take()
            return Node("str", text)
        if kind == "regex":
            self.take()
            return Node("regex", text)
        if kind == "op" and text == "(":
            self.take()
            node = self.parse_expr()
            self.expect("op", ")")
            return node
        if kind == "op" and text == "$":
            self.take()
            return Node("field", self.parse_primary())
        if kind == "name":
            self.take()
            if text in self.FUNCTIONS and self.peek() == ("op", "("):
                self.take()
                args = []
                if self.peek() != ("op", ")"):
                    args.append(self.parse_expr())
                    while self.accept("op", ","):
                        args.append(self.parse_expr())
                self.expect("op", ")")
                return Node("call", text, args)
            if self.peek() == ("op", "["):
                self.take()
                subscript = self.parse_expr()
                while self.accept("op", ","):
                    rhs = self.parse_expr()
                    subscript = Node("concat",
                                     Node("concat", subscript,
                                          Node("str", "\x1c")), rhs)
                self.expect("op", "]")
                return Node("index", text, subscript)
            return Node("var", text)
        raise AwkSyntaxError(f"unexpected awk token {text!r}")


def parse_awk(src: str):
    return _Parser(tokenize(src)).parse_program()


# ---------------------------------------------------------------------------
# evaluator
# ---------------------------------------------------------------------------


class _Next(Exception):
    pass


class _Exit(Exception):
    """``exit [expr]``: ``status`` is None when no expression was given."""

    def __init__(self, status: Optional[int]):
        self.status = status


class AwkRuntime:
    def __init__(self, fs: str = " ", assigns: Optional[dict] = None):
        self.vars: dict[str, object] = {"FS": fs, "OFS": " ", "ORS": "\n",
                                        "NR": 0.0, "NF": 0.0, "FILENAME": ""}
        self.vars.update(assigns or {})
        self.arrays: dict[str, dict] = {}
        self.fields: list[str] = [""]
        self.out: list[bytes] = []

    # -- records -------------------------------------------------------------

    def set_record(self, line: str) -> None:
        self.vars["NR"] = float(self.vars.get("NR", 0)) + 1
        self._split_record(line)

    def _split_record(self, line: str) -> None:
        fs = to_str(self.vars.get("FS", " "))
        if fs == " ":
            parts = line.split()
        elif len(fs) == 1:
            parts = line.split(fs)
        else:
            parts = re.split(fs, line)
        self.fields = [line] + parts
        self.vars["NF"] = float(len(parts))

    def get_field(self, n: int) -> str:
        if 0 <= n < len(self.fields):
            return self.fields[n]
        return ""

    def set_field(self, n: int, value: str) -> None:
        while len(self.fields) <= n:
            self.fields.append("")
        self.fields[n] = value
        if n > 0:
            nf = max(int(self.vars["NF"]), n)
            self.vars["NF"] = float(nf)
            ofs = to_str(self.vars["OFS"])
            self.fields[0] = ofs.join(self.fields[1 : nf + 1])
        else:
            self._split_record(value)

    # -- statements -----------------------------------------------------------

    def exec_block(self, block: Node) -> None:
        for stmt in block.a:
            self.exec_stmt(stmt)

    def exec_stmt(self, stmt: Node) -> None:
        kind = stmt.kind
        if kind == "block":
            self.exec_block(stmt)
        elif kind == "print":
            if stmt.a:
                ofs = to_str(self.vars["OFS"])
                text = ofs.join(to_str(self.eval(e)) for e in stmt.a)
            else:
                text = self.get_field(0)
            self.out.append((text + to_str(self.vars["ORS"])).encode())
        elif kind == "printf":
            values = [self.eval(e) for e in stmt.a]
            self.out.append(_sprintf(values).encode())
        elif kind == "exprstmt":
            self.eval(stmt.a)
        elif kind == "if":
            if truthy(self.eval(stmt.a)):
                self.exec_stmt(stmt.b)
            elif stmt.c is not None:
                self.exec_stmt(stmt.c)
        elif kind == "while":
            guard = 0
            while truthy(self.eval(stmt.a)):
                self.exec_stmt(stmt.b)
                guard += 1
                if guard > 10_000_000:  # runaway protection
                    raise UsageError("awk: while loop exceeded limit")
        elif kind == "forin":
            for key in list(self.arrays.get(stmt.b, {})):
                self.vars[stmt.a] = key
                self.exec_stmt(stmt.c)
        elif kind == "next":
            raise _Next()
        elif kind == "exit":
            raise _Exit(None if stmt.a is None
                        else int(to_num(self.eval(stmt.a))))
        else:
            raise UsageError(f"awk: cannot execute {kind}")

    # -- expressions --------------------------------------------------------------

    def eval(self, node: Node):
        kind = node.kind
        if kind == "num":
            return node.a
        if kind == "str":
            return node.a
        if kind == "regex":
            # a bare /re/ means $0 ~ /re/
            return 1.0 if re.search(node.a, self.get_field(0)) else 0.0
        if kind == "var":
            return self.vars.get(node.a, "")
        if kind == "field":
            return self.get_field(int(to_num(self.eval(node.a))))
        if kind == "index":
            arr = self.arrays.setdefault(node.a, {})
            return arr.get(to_str(self.eval(node.b)), "")
        if kind == "assign":
            return self._assign(node)
        if kind in ("preincr", "postincr"):
            old = to_num(self._read_lvalue(node.a))
            new = old + node.b
            self._write_lvalue(node.a, new)
            return new if kind == "preincr" else old
        if kind == "neg":
            return -to_num(self.eval(node.a))
        if kind == "not":
            return 0.0 if truthy(self.eval(node.a)) else 1.0
        if kind == "arith":
            left = to_num(self.eval(node.b))
            right = to_num(self.eval(node.c))
            return _arith(node.a, left, right)
        if kind == "concat":
            return to_str(self.eval(node.a)) + to_str(self.eval(node.b))
        if kind == "cmp":
            return 1.0 if _compare(node.a, self.eval(node.b),
                                   self.eval(node.c)) else 0.0
        if kind == "match":
            return 1.0 if re.search(_regex_of(node.b, self),
                                    to_str(self.eval(node.a))) else 0.0
        if kind == "nomatch":
            return 0.0 if re.search(_regex_of(node.b, self),
                                    to_str(self.eval(node.a))) else 1.0
        if kind == "and":
            return 1.0 if (truthy(self.eval(node.a))
                           and truthy(self.eval(node.b))) else 0.0
        if kind == "or":
            return 1.0 if (truthy(self.eval(node.a))
                           or truthy(self.eval(node.b))) else 0.0
        if kind == "ternary":
            return (self.eval(node.b) if truthy(self.eval(node.a))
                    else self.eval(node.c))
        if kind == "call":
            if node.a in ("sub", "gsub"):
                return self._sub_call(node)
            return self._call(node.a, [self.eval(arg) for arg in node.b],
                              node.b)
        raise UsageError(f"awk: cannot evaluate {kind}")

    def _sub_call(self, node: Node):
        """sub(re, repl [, target]) / gsub: in-place substitution on the
        target lvalue (default $0); returns the substitution count."""
        args = node.b
        if len(args) < 2:
            raise UsageError(f"awk: {node.a} needs 2 or 3 arguments")
        pattern = (args[0].a if args[0].kind == "regex"
                   else to_str(self.eval(args[0])))
        repl = to_str(self.eval(args[1])).replace("\\&", "\x01")
        repl = repl.replace("&", "\\g<0>").replace("\x01", "&")
        target = args[2] if len(args) > 2 else Node("field", Node("num", 0.0))
        current = to_str(self._read_lvalue(target))
        count = 0 if node.a == "gsub" else 1
        new, n = re.subn(pattern, repl, current, count=count)
        if n:
            self._write_lvalue(target, new)
        return float(n)

    def _assign(self, node: Node):
        op, target = node.a, node.b
        value = self.eval(node.c)
        if op != "=":
            current = to_num(self._read_lvalue(target))
            value = _arith(op[0], current, to_num(value))
        self._write_lvalue(target, value)
        return value

    def _read_lvalue(self, target: Node):
        if target.kind == "var":
            return self.vars.get(target.a, "")
        if target.kind == "field":
            return self.get_field(int(to_num(self.eval(target.a))))
        if target.kind == "index":
            return self.arrays.setdefault(target.a, {}).get(
                to_str(self.eval(target.b)), "")
        raise UsageError("awk: bad lvalue")

    def _write_lvalue(self, target: Node, value) -> None:
        if target.kind == "var":
            self.vars[target.a] = value
        elif target.kind == "field":
            self.set_field(int(to_num(self.eval(target.a))), to_str(value))
        elif target.kind == "index":
            self.arrays.setdefault(target.a, {})[
                to_str(self.eval(target.b))] = value
        else:
            raise UsageError("awk: bad lvalue")

    def _call(self, name: str, args: list, raw_args):
        if name == "length":
            if not args:
                return float(len(self.get_field(0)))
            if raw_args and raw_args[0].kind == "var" and raw_args[0].a in self.arrays:
                return float(len(self.arrays[raw_args[0].a]))
            return float(len(to_str(args[0])))
        if name == "substr":
            text = to_str(args[0])
            start = max(1, int(to_num(args[1])))
            if len(args) > 2:
                return text[start - 1 : start - 1 + int(to_num(args[2]))]
            return text[start - 1 :]
        if name == "index":
            return float(to_str(args[0]).find(to_str(args[1])) + 1)
        if name == "toupper":
            return to_str(args[0]).upper()
        if name == "tolower":
            return to_str(args[0]).lower()
        if name == "int":
            return float(int(to_num(args[0])))
        if name == "split":
            text = to_str(args[0])
            if raw_args[1].kind != "var":
                raise UsageError("awk: split needs an array name")
            sep = to_str(args[2]) if len(args) > 2 else to_str(self.vars["FS"])
            parts = text.split() if sep == " " else text.split(sep)
            self.arrays[raw_args[1].a] = {
                str(i + 1): part for i, part in enumerate(parts)
            }
            return float(len(parts))
        if name == "sprintf":
            return _sprintf(args)
        if name == "match":
            m = re.search(to_str(args[1]) if raw_args[1].kind != "regex"
                          else raw_args[1].a, to_str(args[0]))
            self.vars["RSTART"] = float(m.start() + 1) if m else 0.0
            self.vars["RLENGTH"] = float(m.end() - m.start()) if m else -1.0
            return self.vars["RSTART"]
        raise UsageError(f"awk: unknown function {name}")


def _regex_of(node: Node, runtime: AwkRuntime) -> str:
    if node.kind == "regex":
        return node.a
    return to_str(runtime.eval(node))


def to_num(value) -> float:
    if isinstance(value, float):
        return value
    if isinstance(value, str):
        m = re.match(r"\s*[-+]?(\d+\.?\d*([eE][-+]?\d+)?|\.\d+)", value)
        return float(m.group()) if m else 0.0
    return 0.0


_NUMERIC_RE = re.compile(r"^\s*[-+]?(\d+\.?\d*([eE][-+]?\d+)?|\.\d+)\s*$")


def to_str(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, float):
        if value == int(value) and abs(value) < 1e16:
            return str(int(value))
        return f"{value:.6g}"
    return str(value)


def truthy(value) -> bool:
    if isinstance(value, float):
        return value != 0.0
    return value != ""


def _compare(op: str, left, right) -> bool:
    # numeric comparison when both are numbers or numeric strings
    both_numeric = (
        (isinstance(left, float) or _NUMERIC_RE.match(left or ""))
        and (isinstance(right, float) or _NUMERIC_RE.match(right or ""))
    )
    if both_numeric:
        a, b = to_num(left), to_num(right)
    else:
        a, b = to_str(left), to_str(right)
    return {
        "==": a == b, "!=": a != b, "<": a < b,
        "<=": a <= b, ">": a > b, ">=": a >= b,
    }[op]


def _arith(op: str, a: float, b: float) -> float:
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        if b == 0:
            raise UsageError("awk: division by zero")
        return a / b
    if op == "%":
        if b == 0:
            raise UsageError("awk: division by zero")
        return float(int(a) % int(b)) if a >= 0 else -float(int(-a) % int(b))
    raise UsageError(f"awk: bad operator {op}")


def _sprintf(values: list) -> str:
    fmt = to_str(values[0])
    args = values[1:]
    out: list[str] = []
    i = 0
    ai = 0
    while i < len(fmt):
        c = fmt[i]
        if c == "%" and i + 1 < len(fmt):
            m = re.match(r"%[-+ 0#]*\d*(\.\d+)?[diouxXeEfgGcs%]", fmt[i:])
            if m:
                spec = m.group()
                i += len(spec)
                if spec == "%%":
                    out.append("%")
                    continue
                arg = args[ai] if ai < len(args) else ""
                ai += 1
                conv = spec[-1]
                if conv in "diouxX":
                    out.append(spec[:-1].replace("i", "d") % int(to_num(arg))
                               if conv == "i" else spec % int(to_num(arg)))
                elif conv in "eEfgG":
                    out.append(spec % to_num(arg))
                elif conv == "c":
                    text = to_str(arg)
                    out.append(text[:1] if text else "")
                else:
                    out.append(spec % to_str(arg))
                continue
        out.append(c)
        i += 1
    return "".join(out)


# ---------------------------------------------------------------------------
# program analysis (for the annotation library)
# ---------------------------------------------------------------------------


def _walk_nodes(node):
    if isinstance(node, Node):
        yield node
        for child in (node.a, node.b, node.c):
            yield from _walk_nodes(child)
    elif isinstance(node, list):
        for item in node:
            yield from _walk_nodes(item)
    elif isinstance(node, tuple):
        for item in node:
            yield from _walk_nodes(item)


def program_is_stateless(src: str) -> bool:
    """True when the awk program is a pure per-record map: no BEGIN/END,
    no NR, no variable/array state carried across records."""
    try:
        items = parse_awk(src)
    except UsageError:
        return False
    per_record_ok = True
    for pattern, action in items:
        if pattern is not None and pattern.kind in ("BEGIN", "END"):
            return False
        for node in _walk_nodes((pattern, action)):
            if not isinstance(node, Node):
                continue
            if node.kind == "var" and node.a == "NR":
                return False
            if node.kind in ("assign", "preincr", "postincr"):
                target = node.b if node.kind == "assign" else node.a
                if target.kind in ("var", "index") and (
                    target.kind == "index"
                    or target.a not in ("OFS", "ORS", "FS")
                ):
                    return False  # cross-record state
            if node.kind in ("forin", "exit"):
                return False  # exit: later records depend on earlier ones
            if node.kind == "call":
                if node.a == "split":
                    return False  # writes an array (cross-record state)
                if node.a in ("sub", "gsub") and len(node.b) > 2 \
                        and node.b[2].kind != "field":
                    return False  # substitutes into a variable
                if node.a == "match":
                    return False  # sets RSTART/RLENGTH
    return per_record_ok


# ---------------------------------------------------------------------------
# the command
# ---------------------------------------------------------------------------


@command("awk")
def awk(proc: Process, argv: list[str]):
    fs = " "
    assigns: dict[str, object] = {}
    operands: list[str] = []
    program_text: Optional[str] = None
    i = 0
    while i < len(argv):
        arg = argv[i]
        if arg == "-F":
            i += 1
            if i >= len(argv):
                yield from write_err(proc, "awk: -F requires an argument")
                return 2
            fs = argv[i]
        elif arg.startswith("-F") and len(arg) > 2:
            fs = arg[2:]
        elif arg == "-v":
            i += 1
            if i >= len(argv) or "=" not in argv[i]:
                yield from write_err(proc, "awk: -v requires name=value")
                return 2
            name, __, value = argv[i].partition("=")
            assigns[name] = value
        elif program_text is None:
            program_text = arg
        else:
            operands.append(arg)
        i += 1
    if program_text is None:
        yield from write_err(proc, "awk: missing program")
        return 2
    if fs == "\\t":
        fs = "\t"
    try:
        items = parse_awk(program_text)
    except UsageError as err:
        yield from write_err(proc, f"awk: {err}")
        return 2

    runtime = AwkRuntime(fs, assigns)
    coeff = cpu_coeff("default") * 6  # awk interprets: slower per byte
    out = OutBuf(proc, 1)

    def flush_runtime():
        if runtime.out:
            data = b"".join(runtime.out)
            runtime.out.clear()
            yield from out.put(data)

    # ``exit`` from BEGIN or a record ends the input and still runs END;
    # from END it stops END.  The last status given is the command's.
    status = 0
    try:
        try:
            for pattern, action in items:
                if pattern is not None and pattern.kind == "BEGIN":
                    runtime.exec_block(action)
            yield from flush_runtime()

            main_items = [(p, a) for p, a in items
                          if p is None or p.kind not in ("BEGIN", "END")]
            has_main_or_end = bool(main_items) or any(
                p is not None and p.kind == "END" for p, __ in items
            )
            if has_main_or_end:
                for path in operands or ["-"]:
                    fd, needs_close = yield from open_input(proc, path)
                    runtime.vars["FILENAME"] = path if path != "-" else ""
                    stream = LineStream(proc, fd)
                    while True:
                        batch = yield from stream.next_batch()
                        if batch is None:
                            break
                        for line in batch:
                            proc.charge(len(line) * coeff)
                            runtime.set_record(
                                line.decode("utf-8", "replace").rstrip("\n"))
                            try:
                                for pattern, action in main_items:
                                    matched = (
                                        pattern is None
                                        or truthy(runtime.eval(pattern.a))
                                    )
                                    if matched:
                                        runtime.exec_block(action)
                            except _Next:
                                pass
                            if runtime.out:
                                yield from flush_runtime()
                    if needs_close:
                        yield from proc.close(fd)
        except _Exit as stop:
            status = stop.status or 0

        try:
            for pattern, action in items:
                if pattern is not None and pattern.kind == "END":
                    runtime.exec_block(action)
        except _Exit as stop:
            if stop.status is not None:
                status = stop.status
        yield from flush_runtime()
    except UsageError as err:
        yield from out.flush()
        yield from write_err(proc, f"awk: {err}")
        return 2
    yield from out.flush()
    return status
