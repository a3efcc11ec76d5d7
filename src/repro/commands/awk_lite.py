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
* options: ``-F sep``, ``-v name=value``; ``name=value`` operands

Refused at parse time (``awk: unsupported: ...``, status 2, nothing
run) rather than answered wrongly: ``function`` definitions, ``getline``,
``delete``, ``do``, ``for (;;)``, ``print > file`` / ``>>`` / ``| cmd``,
``^`` and ``**``, ``k in arr`` and ``(i,j) in arr`` outside ``for``.

Coercion follows POSIX awk: fields and ``-v`` values that look numeric
compare numerically, string constants as strings, uninitialized values
are "" / 0.  The program is parsed to a small AST and compiled, once per
program text, to Python source (:func:`compile_awk`): one generated
function runs the main rules over a whole batch of records.
"""

from __future__ import annotations

import math
import operator
import re
from functools import lru_cache, partial, reduce
from typing import Optional

from ..vos.process import Process
from .base import (Grammar, OutBuf, UsageError, command, cpu_coeff,
                   each_batch, emit, indent, open_operand, record_loop,
                   usage_error)
from .bre import posix_sub

# ---------------------------------------------------------------------------
# lexer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"""
    (?P<ws>[ \t]+)
  | (?P<comment>\#[^\n]*)
  | (?P<newline>\n)
  | (?P<number>\d+(\.\d+)?([eE][-+]?\d+)?)
  | (?P<string>"(\\.|[^"\\])*")
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>\+\+|--|\+=|-=|\*\*|\*=|/=|%=|==|!=|<=|>>|>=|&&|\|\||!~|[-+*/%<>=!~?:;{}()\[\],$^|])
""", re.VERBOSE)

_REGEX_RE = re.compile(r"/((?:\\.|[^\\/])*)/", re.DOTALL)
KEYWORDS = {"BEGIN", "END", "print", "printf", "if", "else", "while",
            "for", "in", "next", "exit"}
#: words and operators of awk this subset refuses by name
UNSUPPORTED = {"function", "getline", "delete", "do", "^", "**", "|", ">>"}


class AwkSyntaxError(UsageError):
    pass


def tokenize(src: str) -> list[tuple[str, str]]:
    tokens: list[tuple[str, str]] = []
    pos = 0
    while pos < len(src):
        # regex literal: a '/' in operand position
        if src[pos] == "/" and _regex_position(tokens):
            m = _REGEX_RE.match(src, pos)
            if m is None:
                raise AwkSyntaxError("unterminated /regex/")
            tokens.append(("regex", m[1]))
            pos = m.end()
            continue
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            raise AwkSyntaxError(f"bad awk token at {src[pos:pos+10]!r}")
        kind, text, pos = m.lastgroup, m.group(), m.end()
        if kind in ("ws", "comment"):
            continue
        if text in UNSUPPORTED:
            raise AwkSyntaxError(f"unsupported: {text}")
        if kind == "newline":
            tokens.append(("op", ";"))
        elif kind == "string":
            tokens.append(("string", _unescape(text[1:-1])))
        elif kind == "name":
            tokens.append(("keyword" if text in KEYWORDS else "name", text))
        else:
            tokens.append((kind, text))  # number, op
    return tokens


def _regex_position(tokens: list) -> bool:
    """Is a '/' here a regex literal (operand position) or division?"""
    kind, text = tokens[-1] if tokens else ("op", ";")
    return kind not in ("number", "string", "regex", "name") and not (
        kind == "op" and text in (")", "]", "++", "--", "$"))


_ESCAPE_RE = re.compile(r"\\(.)", re.DOTALL)
_ESCAPES = {"n": "\n", "t": "\t", "\\": "\\", '"': '"', "r": "\r", "/": "/"}


def _unescape(text: str) -> str:
    return _ESCAPE_RE.sub(lambda m: _ESCAPES.get(m[1], m[0]), text)


# ---------------------------------------------------------------------------
# AST + parser
# ---------------------------------------------------------------------------


class Node:
    __slots__ = ("kind", "a", "b", "c")

    def __init__(self, kind, a=None, b=None, c=None):
        self.kind, self.a, self.b, self.c = kind, a, b, c


class _Parser:
    def __init__(self, tokens):
        self.tokens, self.pos = tokens, 0
        self.parenthesised = None  # the node the last ( ... ) held

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
        if self.peek() == ("op", "{"):
            return pattern, self.parse_block()
        return pattern, Node("block", [Node("print", [])])

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
        if kind != "keyword" or text not in ("print", "printf", "next", "exit",
                                             "if", "while", "for"):
            return Node("exprstmt", self.parse_expr())
        self.take()
        if text in ("print", "printf"):
            args = self.parse_list() if text == "printf" or \
                self.peek()[1] not in (";", "}", ">", None) else []
            # a bare > closing the list is a redirection, not a test
            if self.peek() == ("op", ">") or (
                    args and args[-1].kind == "cmp" and args[-1].a == ">"
                    and args[-1] is not self.parenthesised):
                raise AwkSyntaxError(f"unsupported: {text} > file")
            return Node(text, args)
        if text in ("next", "exit"):
            if text == "next" or self.peek()[1] in (";", "}", None):
                return Node(text)
            return Node("exit", self.parse_expr())
        self.expect("op", "(")
        if text == "for":
            if self.tokens[self.pos + 1 : self.pos + 2] != [("keyword", "in")]:
                raise AwkSyntaxError("unsupported: for (;;)")
            name = self.expect("name")[1]
            self.expect("keyword", "in")
            head = self.expect("name")[1]  # the array
        else:
            head = self.parse_expr()  # the condition
        self.expect("op", ")")
        self.skip_seps()
        body = self.parse_statement()
        if text == "for":
            return Node("forin", name, head, body)
        if text == "while":
            return Node("while", head, body)
        save = self.pos
        self.skip_seps()
        if self.accept("keyword", "else"):
            self.skip_seps()
            return Node("if", head, body, self.parse_statement())
        self.pos = save
        return Node("if", head, body)

    # -- expressions (precedence climbing) ----------------------------------------

    def parse_list(self) -> list:
        """``expr (, expr)*``."""
        items = [self.parse_expr()]
        while self.accept("op", ","):
            items.append(self.parse_expr())
        return items

    def parse_expr(self):  # the ternary, loosest of all
        cond = self.parse_or()
        if self.accept("op", "?"):
            then = self.parse_expr()
            self.expect("op", ":")
            other = self.parse_expr()
            return Node("ternary", cond, then, other)
        return cond

    def _left_assoc(self, ops: dict, operand):
        """``operand (op operand)*`` as a left-leaning tree; ``ops`` maps a
        token to its node kind (an arith node keeps the token)."""
        node = operand()
        while self.peek()[0] == "op" and self.peek()[1] in ops:
            op = self.take()[1]
            children = (node, operand())
            node = Node(ops[op], *((op,) + children if ops[op] == "arith"
                                   else children))
        return node

    _MATCH = {"~": "match", "!~": "nomatch"}
    _ADD, _MUL = dict.fromkeys("+-", "arith"), dict.fromkeys("*/%", "arith")

    def parse_or(self):
        return self._left_assoc({"||": "or"}, self.parse_and)

    def parse_and(self):
        return self._left_assoc({"&&": "and"}, self.parse_match)

    def parse_match(self):
        return self._left_assoc(self._MATCH, self.parse_compare)

    def parse_compare(self):
        node = self.parse_concat()
        if self.peek() == ("keyword", "in"):
            raise AwkSyntaxError("unsupported: in outside for (k in arr)")
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
            if kind in (None, "keyword") or (kind == "op"
                                             and text in self._CONCAT_STOP):
                return node
            node = Node("concat", node, self.parse_additive())

    def parse_additive(self):
        return self._left_assoc(self._ADD, self.parse_term)

    def parse_term(self):
        return self._left_assoc(self._MUL, self.parse_unary)

    def parse_unary(self):
        if self.accept("op", "-"):
            return Node("neg", self.parse_unary())
        if self.accept("op", "+"):
            return self.parse_unary()
        if self.accept("op", "!"):
            return Node("not", self.parse_unary())
        if self.peek() in (("op", "++"), ("op", "--")):
            step = 1 if self.take()[1] == "++" else -1
            return Node("preincr", self.parse_postfix(), step)
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
        # only what can be assigned takes a postfix: ``1 ++x`` is 1 (++x)
        while node.kind in ("var", "field", "index") and \
                self.peek() in (("op", "++"), ("op", "--")):
            node = Node("postincr", node, 1 if self.take()[1] == "++" else -1)
        return node

    #: the built-in functions: name -> (fewest, most) arguments
    FUNCTIONS = {"length": (0, 1), "substr": (2, 3), "index": (2, 2),
                 "toupper": (1, 1), "tolower": (1, 1), "int": (1, 1),
                 "split": (2, 3), "sprintf": (1, 99), "sub": (2, 3),
                 "gsub": (2, 3), "match": (2, 2)}

    def parse_primary(self):
        kind, text = self.peek()
        if kind in ("number", "string", "regex"):
            self.take()
            return Node("num", float(text)) if kind == "number" else \
                Node("str" if kind == "string" else "regex", text)
        if kind == "op" and text == "(":
            self.take()
            node = self.parse_expr()
            if self.peek() == ("op", ","):
                raise AwkSyntaxError("unsupported: a parenthesised (a, b) list")
            self.expect("op", ")")
            self.parenthesised = node
            return node
        if kind == "op" and text == "$":
            self.take()
            return Node("field", self.parse_primary())
        if kind == "name":
            self.take()
            if text in self.FUNCTIONS and self.peek() == ("op", "("):
                self.take()
                args = self.parse_list() if self.peek() != ("op", ")") else []
                self.expect("op", ")")
                low, high = self.FUNCTIONS[text]
                if not low <= len(args) <= high:
                    raise AwkSyntaxError(f"{text}: wrong number of arguments")
                return Node("call", text, args)
            if text == "length":  # without parentheses: length($0)
                return Node("call", text, [])
            if self.peek() == ("op", "["):
                self.take()
                subscript = reduce(lambda key, rhs: Node("concat", Node(
                    "concat", key, Node("str", "\x1c")), rhs), self.parse_list())
                self.expect("op", "]")
                return Node("index", text, subscript)
            return Node("var", text)
        raise AwkSyntaxError(f"unexpected awk token {text!r}")


def parse_awk(src: str):
    return _Parser(tokenize(src)).parse_program()


# ---------------------------------------------------------------------------
# the compiler: a program as Python source, compiled once per program text
# ---------------------------------------------------------------------------


class _Next(Exception):
    pass


class _Exit(Exception):
    """``exit [expr]``: ``status`` is None when no expression was given."""

    def __init__(self, status: Optional[int]):
        self.status = status


class _Table(dict):
    """Variables, or an array: an unassigned name reads as "", unborn."""

    def __missing__(self, key):
        return ""


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")  # a name the lexer reads
#: what always has a float value, and what a str (a call: by its name)
_NUMERIC = {"num", "arith", "neg", "not", "cmp", "match", "nomatch", "and",
            "or", "regex", "preincr", "postincr", "call"}
_STRING = {"str", "concat", "field", "substr", "toupper", "tolower", "sprintf"}


def _steps(steps: list[str], at: int = -1) -> str:
    """Source running ``steps`` in turn (empty ones skipped): step ``at``."""
    return f"({', '.join(filter(None, steps))})[{at}]"


class _Compiler:
    """A program as ``begin(V, A, F, P)``, ``end`` and ``records`` (a
    :func:`record_loop` of the main rules) over variables ``V``, arrays
    ``A``, fields ``F`` ($0 first) and the text printed ``P``, with each
    variable (array) in a local ``v_NAME`` (``a_NAME``) between entry and
    exit (DESIGN.md §11).  Regexes, operators and numbers without a
    literal are bound in the namespace as ``kN``."""

    def __init__(self, items):
        self.items, self.namespace, self.temps = items, dict(_RUNTIME), 0
        self.scalars: set[str] = {"FS"}  # the variables named
        self.splits = False  # is a field past $0 used?
        nodes = list(_walk_nodes(items))
        self.arrays = {n.a for n in nodes if n.kind == "index"} | {
            n.b for n in nodes if n.kind == "forin"} | {
            n.b[1].a for n in nodes if n.kind == "call" and n.a == "split"}

    def build(self) -> tuple:
        """``(begin, records, end, arrays, reads_input)``."""
        bodies: dict = {"BEGIN": [], "END": [], None: []}
        for pattern, action in self.items:
            where, lines = getattr(pattern, "kind", None), self.stmts(action)
            if where == "expr_pattern":
                where, lines = None, [f"if {self.cond(pattern.a)}:",
                                      *indent(lines, 1)]
            elif where and any(n.kind == "next" for n in _walk_nodes(action)):
                raise AwkSyntaxError("improper use of next")  # as awk says
            bodies[where] += lines
        main = ["try:", *indent(bodies[None], 1), "except _Next:", "    pass"]
        if any(line.lstrip().startswith("put(") for line in main):
            main += ["if P:", "    data = b''.join(P)", "    P.clear()",
                     *indent(emit("data"), 1)]
        head = [f"v_NR = {self.num(Node('var', 'NR'))} + 1.0"] \
            if "NR" in self.scalars else []
        head += ["if v_FS is not fs_seen:", "    fs_seen = v_FS",
                 "    S, RS = _splitter(to_str(v_FS))"]
        head += ["F = R.split(S) if RS is None else RS(R)", "F.insert(0, R)"] \
            if self.splits or "NF" in self.scalars else ["F[0] = R"]
        head += ["v_NF = len(F) - 1.0"] * ("NF" in self.scalars)
        if not all(map(_NAME_RE.match, self.scalars | self.arrays)):
            raise AwkSyntaxError("bad name")  # the lexer reads none
        load = [f"v_{n} = V[{n!r}]" for n in sorted(self.scalars)] + [
            f"a_{n} = A[{n!r}]" for n in sorted(self.arrays)] + ["put = P.append"]
        store = [f"V[{n!r}] = v_{n}" for n in sorted(self.scalars)]
        ends = [line for where in ("BEGIN", "END") for line in [
            f"def {where.lower()}(V, A, F, P):", *indent(load, 1), "    try:",
            *indent(bodies[where], 2), "    finally:", *indent(store, 2)]]
        space = record_loop("records", "V, A, fields, P, ",
                            ["F = fields", *load, "fs_seen = None"], head + main,
                            [*store, "fields[:] = F"], True, self.namespace,
                            "\n".join(ends) + "\n")
        return (space["begin"], space["records"], space["end"],
                sorted(self.arrays), any(getattr(pattern, "kind", "") != "BEGIN"
                                         for pattern, _ in self.items))

    def name(self, name: str) -> str:
        """The local holding variable ``name`` (array ``X``: ``a_X``)."""
        self.scalars.add(name)
        return "v_" + name

    def temp(self) -> str:
        self.temps += 1
        return f"t{self.temps}"

    def bind(self, value) -> str:
        name = f"k{len(self.namespace)}"
        self.namespace[name] = value
        return name

    def regex(self, node: Node) -> str:
        """The regex an operand means: a literal compiled now, other text
        when evaluated (cached)."""
        return self.bind(re.compile(node.a)) if node.kind == "regex" else \
            f"_regex({self.str_(node)})"

    def kind(self, node: Node) -> Optional[str]:
        """"num" or "str" when the node's value is always a float or a str."""
        if (node.a if node.kind == "call" else node.kind) in _STRING:
            return "str"
        if node.kind in _NUMERIC or node.kind == "assign" and node.a != "=":
            return "num"
        return self.kind(node.c) if node.kind == "assign" else None

    def num(self, node: Node) -> str:
        code, kind = self.expr(node), self.kind(node)
        if kind == "num":
            return code
        if kind is None and node.kind == "var":  # a local: test it inline
            return f"({code} if {code}.__class__ is float else to_num({code}))"
        if kind is None:
            return f"to_num({code})"
        t = self.temp()  # a str: to_num's digits case inline, the test first
        return f"(float({t}) if ({t} := {code}).isdecimal() else to_num({t}))"

    def str_(self, node: Node) -> str:
        code = self.expr(node)
        return code if self.kind(node) == "str" else f"to_str({code})"

    def arith(self, op: str, left: str, right: str) -> str:
        if op in "+-*":
            return f"({left} {op} {right})"
        return f"{self.bind(_ARITH[op])}({left}, {right})"

    def expr(self, node: Node) -> str:
        kind, a, b, c = node.kind, node.a, node.b, node.c
        if kind == "num":
            return repr(a) if math.isfinite(a) else self.bind(a)
        if kind == "str":
            return repr(a)
        if kind == "var":
            return self.name(a)
        if kind == "field":
            return self.field(a)
        if kind == "index":
            return f"a_{a}[{self.str_(b)}]"
        if kind in ("assign", "preincr", "postincr"):
            return self.assign(node)
        if kind == "neg":
            return f"(-{self.num(a)})"
        if kind == "arith":
            return self.arith(a, self.num(b), self.num(c))
        if kind == "concat":
            return f"({self.str_(a)} + {self.str_(b)})"
        if kind == "ternary":
            return f"({self.expr(b)} if {self.cond(a)} else {self.expr(c)})"
        if kind == "call":
            return self.call(a, b)
        return f"(1.0 if {self.cond(node)} else 0.0)"

    def field(self, index: Node) -> str:
        n = int(index.a) if index.kind == "num" else None  # a constant
        if n == 0:
            return "F[0]"
        self.splits = True
        if n is not None:
            return f'(F[{n:d}] if {n:d} < len(F) else "")'
        if index.kind == "var" and index.a == "NF":
            return "F[-1]"  # F is NF + 1 long
        t = self.temp()
        return (f'(F[{t}] if 0 <= ({t} := int({self.num(index)})) < len(F)'
                ' else "")')

    def cond(self, node: Node) -> str:
        """The node as a Python test: awk truth is a float's or a str's."""
        kind, a, b, c = node.kind, node.a, node.b, node.c
        if kind == "cmp" and {b.kind, c.kind} & {"str", "concat"}:
            # a string constant or concatenation never compares as a number
            return f"({self.str_(b)} {a} {self.str_(c)})"
        if kind == "cmp" and self.kind(b) == self.kind(c) == "num":
            return f"({self.expr(b)} {a} {self.expr(c)})"
        if kind == "cmp":
            t = self.temp()
            return (f"(({t} := _coerce({self.expr(b)}, {self.expr(c)}))[0] "
                    f"{a} {t}[1])")
        if kind in ("match", "nomatch"):  # the regex first, as awk
            test = f"{self.regex(b)}.search({self.str_(a)})"
            return test if kind == "match" else f"(not {test})"
        if kind == "regex":  # a bare /re/ means $0 ~ /re/
            return f"{self.regex(node)}.search(F[0])"
        if kind == "not":
            return f"(not {self.cond(a)})"
        if kind in ("and", "or"):
            return f"({self.cond(a)} {kind} {self.cond(b)})"
        return self.expr(node)

    def lvalue(self, node: Node) -> tuple:
        """An assignable node's ``(key, read, write)``: ``key`` puts its
        subscript in a temporary ("" if none), ``read`` is its value then
        and ``write(code)`` stores the value of ``code`` and gives it."""
        if node.kind == "var" and node.a != "NF":
            local = self.name(node.a)
            return "", local, lambda value: f"({local} := {value})"
        t, u = self.temp(), self.temp()
        if node.kind == "index":
            table = f"a_{node.a}"
            return (f"({t} := {self.str_(node.b)})", f"{table}[{t}]", lambda value:
                    f"({table}.__setitem__({t}, ({u} := {value})) or {u})")
        if node.kind not in ("field", "var"):
            raise AwkSyntaxError(f"cannot assign to {node.kind}")
        self.splits, nf, ofs = True, self.name("NF"), self.str_(Node("var", "OFS"))
        if node.kind == "var":  # NF: the fields cut or padded
            key, read, t = "", nf, "None"
        else:
            key = f"({t} := int({self.num(node.a)}))"
            read = f'(F[{t}] if 0 <= {t} < len(F) else "")'
        return key, read, lambda value: _steps(
            [f"_set_field(F, {t}, {value}, {ofs}, v_FS)",
             "(v_NF := len(F) - 1.0)"], 0)

    def assign(self, node: Node) -> str:
        """An assignment, ``++`` or ``--``; the value is evaluated first,
        then the subscript, as awk."""
        incr = node.kind != "assign"
        target = node.a if incr else node.b
        key, read, write = self.lvalue(target)
        op = "+" if incr else None if node.a == "=" else node.a[0]
        if target.kind == "var" and target.a != "NF":  # a local
            if node.kind == "preincr":
                return write(f"{self.num(target)} + {node.b:d}")
            if op is None:
                return write(self.expr(node.c))
            if not incr and not any(
                    n.kind in ("assign", "preincr", "postincr", "call")
                    for n in _walk_nodes(node.c)):  # nothing to order
                return write(self.arith(op, self.num(target), self.num(node.c)))
        value, old = self.temp(), self.temp()
        new = value if op is None else self.arith(op, old, f"to_num({value})")
        return _steps([f"({value} := "
                       f"{f'{node.b:d}.0' if incr else self.expr(node.c)})",
                       key, op and f"({old} := to_num({read}))", write(new)],
                      -2 if node.kind == "postincr" else -1)

    def call(self, name: str, args: list) -> str:
        if name == "length" and (not args or args[0].kind == "var"
                                 and args[0].a in self.arrays):  # $0, array
            return f"(len({f'a_{args[0].a}' if args else 'F[0]'}) + 0.0)"
        if name in _PURE:
            return f"{self.bind(_PURE[name])}([{', '.join(map(self.expr, args))}])"
        if name == "split":
            if args[1].kind != "var":
                raise AwkSyntaxError("split needs an array name")
            sep = self.str_(args[2]) if len(args) > 2 else "to_str(v_FS)"
            return (f"_split_into(a_{args[1].a}, "
                    f"{self.str_(args[0])}, {sep})")
        t, r = self.temp(), self.temp()
        if name == "match":  # the text first, then the regex
            return (f"(({t} := _match({self.str_(args[0])}, "
                    f"{self.regex(args[1])})), ({self.name('RSTART')} := "
                    f"{t}[0]), ({self.name('RLENGTH')} := {t}[1]))[1]")
        # sub(re, repl [, target]) / gsub: in-place substitution on the
        # target (default $0); the regex, the text, the subscript, in turn
        regex, repl = self.regex(args[0]), self.str_(args[1])
        key, read, write = self.lvalue(
            args[2] if len(args) > 2 else Node("field", Node("num", 0.0)))
        return _steps([f"({r} := ({regex}, {repl}))", key,
                       f"({t} := _sub({r}[0], {r}[1], to_str({read}), "
                       f"{name == 'gsub'}))", f"({t}[1] and {write(f'{t}[0]')})",
                       f"{t}[1] + 0.0"])

    def stmts(self, node: Node) -> list[str]:
        kind, a = node.kind, node.a
        if kind == "block":
            return [line for stmt in a for line in self.stmts(stmt)]
        if kind == "print":
            ofs, ors = (self.str_(Node("var", name)) for name in ("OFS", "ORS"))
            text = (f"{ofs}.join([{', '.join(map(self.str_, a))}])"
                    if len(a) > 1 else self.str_(a[0]) if a else "F[0]")
            return [f"put(({text} + {ors}).encode())"]
        if kind == "printf":
            return [f"put(_sprintf([{', '.join(map(self.expr, a))}]).encode())"]
        if kind == "exprstmt":  # a value no one reads: x++ is ++x
            return [self.expr(Node("preincr", a.a, a.b)
                              if a.kind == "postincr" else a)]
        if kind == "if":
            lines = [f"if {self.cond(a)}:", *indent(self.stmts(node.b), 1)]
            if node.c is not None:
                lines += ["else:", *indent(self.stmts(node.c), 1)]
            return lines
        if kind == "while":
            guard = self.temp()
            return [f"{guard} = 0", f"while {self.cond(a)}:",
                    *indent(self.stmts(node.b), 1), f"    {guard} += 1",
                    f"    if {guard} > 10_000_000:  # runaway protection",
                    "        raise UsageError('while loop exceeded limit')"]
        if kind == "forin":
            return [f"for {self.name(a)} in list(a_{node.b}):",
                    *indent(self.stmts(node.c), 1)]
        if kind == "next":
            return ["raise _Next()"]
        if kind == "exit":
            return [f"raise _Exit({'None' if a is None else f'int({self.num(a)})'})"]
        raise UsageError(f"cannot compile {kind}")


@lru_cache(maxsize=128)
def compile_awk(src: str) -> tuple:
    """``(begin, records, end, arrays, reads_input)`` of ``src``, compiled
    once per program text (see :class:`_Compiler`)."""
    return _Compiler(parse_awk(src)).build()


class AwkRuntime:
    """One run of a program: its variables, arrays, the current record's
    fields and the text printed but not yet written (``out``);
    ``begin()``, ``end()`` and ``records(batch, out, charge_all, coeff)``,
    a :func:`record_loop` of the main rules, run over them."""

    def __init__(self, src: str, fs: str = " ", assigns: Optional[dict] = None):
        begin, records, end, arrays, self.reads_input = compile_awk(src)
        self.vars = _Table({"FS": fs, "OFS": " ", "ORS": "\n", "NR": 0.0, "NF": 0.0,
                            "FILENAME": "", "SUBSEP": "\x1c", **(assigns or {})})
        self.arrays = {name: _Table() for name in arrays}
        self.fields: list[str] = [""]  # always NF + 1 long
        self.out: list[bytes] = []
        state = (self.vars, self.arrays, self.fields, self.out)
        self.begin, self.records, self.end = (partial(run, *state) for run in
                                              (begin, records, end))


def _coerce(left, right) -> tuple:
    """What a comparison compares: two numbers if each is a float or a
    string that looks like one from end to end, else two strings."""
    x = left if left.__class__ is float else _strnum(left)
    y = right if right.__class__ is float else _strnum(right)
    if x is None or y is None:
        return to_str(left), to_str(right)
    return x, y


@lru_cache(maxsize=64)
def _splitter(fs: str) -> tuple:
    """``(sep, split)`` for field separator ``fs``: a record's fields are
    ``text.split(sep)`` when ``split`` is None, else ``split(text)``."""
    if fs == " " or len(fs) == 1:
        return (None if fs == " " else fs), None
    return None, re.compile(fs).split


def _set_field(fields: list, key, value, ofs: str, fs):
    """``$key = value``, or with ``key`` None ``NF = value`` (the fields cut
    or padded): $0 re-split by ``fs`` or rebuilt with ``ofs``; the value."""
    if key is None:
        n = max(0, int(to_num(value)))
        fields[:] = (fields + [""] * n)[: n + 1]
    elif key < 0:
        raise UsageError(f"attempt to access field {key}")
    else:
        fields.extend([""] * (key + 1 - len(fields)))
        fields[key] = to_str(value)
    if key == 0:
        sep, split = _splitter(to_str(fs))
        fields[1:] = fields[0].split(sep) if split is None else split(fields[0])
    else:
        fields[0] = ofs.join(fields[1:])
    return value


def _split_into(array: _Table, text: str, sep: str) -> float:
    parts = text.split() if sep == " " else text.split(sep)
    array.clear()
    array.update((str(i), part) for i, part in enumerate(parts, 1))
    return len(parts) + 0.0


def _match(text: str, regex) -> tuple[float, float]:
    """``(RSTART, RLENGTH)`` of ``match(text, regex)``."""
    m = regex.search(text)
    return (m.start() + 1.0, m.end() - m.start() + 0.0) if m else (0.0, -1.0)


def _sub(regex, repl: str, text: str, every: bool) -> tuple[str, int]:
    """sub/gsub: the matched text joins the literals around each ``&``."""
    pieces = _sub_pieces(repl)
    return posix_sub(regex, lambda m: m[0].join(pieces), text, every=every)


_regex = lru_cache(maxsize=64)(re.compile)


@lru_cache(maxsize=64)
def _sub_pieces(repl: str) -> tuple[str, ...]:
    """A sub/gsub replacement split at each ``&``; ``\\&`` is a literal
    ampersand."""
    return tuple(piece.replace("\x01", "&")
                 for piece in repl.replace("\\&", "\x01").split("&"))


_NUM_PREFIX = re.compile(r"\s*[-+]?(\d+\.?\d*([eE][-+]?\d+)?|\.\d+)")
_NUMERIC_RE = re.compile(r"^\s*[-+]?(\d+\.?\d*([eE][-+]?\d+)?|\.\d+)\s*$")


def to_num(value) -> float:
    if value.__class__ is float:
        return value
    if value.isdecimal():  # digits only; float() takes any other string
        return float(value)  # too readily: 1_0, inf, nan
    m = _NUM_PREFIX.match(value)
    return float(m.group()) if m else 0.0


def _strnum(text: str) -> Optional[float]:
    return float(text) if text.isdecimal() or _NUMERIC_RE.match(text) else None


def to_str(value) -> str:
    if value.__class__ is str:
        return value
    if abs(value) < 1e16 and value == int(value):
        return str(int(value))
    return f"{value:.6g}"


def _div(a: float, b: float, op=operator.truediv) -> float:
    if b == 0:
        raise UsageError("division by zero")
    return op(a, b)


_SPEC_RE = re.compile(r"%[-+ 0#]*\d*(\.\d+)?[diouxXeEfgGcs%]")


def _sprintf(values: list) -> str:
    args = iter(values[1:])

    def convert(m) -> str:  # a missing argument formats as ""
        spec, conv = m[0], m[0][-1]
        if conv == "%":
            return "%"
        arg = next(args, "")
        if conv in "diouxX":
            return (spec[:-1] + "d" if conv == "i" else spec) % int(to_num(arg))
        if conv in "eEfgG":
            return spec % to_num(arg)
        return to_str(arg)[:1] if conv == "c" else spec % to_str(arg)
    return _SPEC_RE.sub(convert, to_str(values[0]))


def _substr(args: list) -> str:
    start = max(1, int(to_num(args[1]))) - 1
    stop = start + int(to_num(args[2])) if len(args) > 2 else None
    return to_str(args[0])[start:stop]


_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul,
          "/": _div, "%": lambda a, b: _div(a, b, math.fmod)}

#: built-ins that are functions of their argument values alone
_PURE = {
    "length": lambda args: len(to_str(args[0])) + 0.0,
    "substr": _substr,
    "index": lambda args: to_str(args[0]).find(to_str(args[1])) + 1.0,
    "toupper": lambda args: to_str(args[0]).upper(),
    "tolower": lambda args: to_str(args[0]).lower(),
    "int": lambda args: float(int(to_num(args[0]))),
    "sprintf": _sprintf,
}

#: what generated source calls, by name
_RUNTIME = {"to_num": to_num, "to_str": to_str, "_coerce": _coerce,
            "_splitter": _splitter, "_set_field": _set_field,
            "_split_into": _split_into, "_match": _match, "_sub": _sub,
            "_regex": _regex, "_sprintf": _sprintf, "_Next": _Next,
            "_Exit": _Exit, "UsageError": UsageError}

# ---------------------------------------------------------------------------
# program analysis (for the annotation library)
# ---------------------------------------------------------------------------


def _walk_nodes(node):
    if isinstance(node, Node):
        yield node
        for child in (node.a, node.b, node.c):
            yield from _walk_nodes(child)
    elif isinstance(node, (list, tuple)):
        for item in node:
            yield from _walk_nodes(item)


def program_is_stateless(src: str) -> bool:
    """True when the awk program is a pure per-record map: no BEGIN/END,
    no NR, no variable/array state carried across records."""
    try:
        return not any(map(_carries_state, _walk_nodes(parse_awk(src))))
    except UsageError:
        return False


def _carries_state(node: Node) -> bool:
    """Does ``node`` tie a record to those before it: BEGIN, END, NR,
    ``exit``, or a variable or array written (split and match write one)?"""
    if node.kind in ("assign", "preincr", "postincr"):
        target = node.b if node.kind == "assign" else node.a
        return target.kind == "index" or target.kind == "var" and \
            target.a not in ("OFS", "ORS", "FS")
    if node.kind == "call":
        return node.a in ("split", "match") or node.a in ("sub", "gsub") \
            and len(node.b) > 2 and node.b[2].kind != "field"
    return node.kind in ("BEGIN", "END", "forin", "exit") or \
        node.kind == "var" and node.a == "NR"


# ---------------------------------------------------------------------------
# the command
# ---------------------------------------------------------------------------


_ASSIGN_RE = re.compile(r"([A-Za-z_]\w*)=(.*)", re.DOTALL)


@command("awk", Grammar(valued="Fv", repeat="v"))
def awk(proc: Process, opts: dict, operands: list[str]):
    try:
        assigns = [assign.partition("=") for assign in opts.get("v", ())]
        if not operands or not all(eq for _, eq, _ in assigns):
            raise UsageError("-v requires name=value" if operands
                             else "missing program")
        fs = opts.get("F", " ")
        runtime = AwkRuntime(operands.pop(0), "\t" if fs == "\\t" else fs,
                             {name: value for name, _, value in assigns})
    except (UsageError, re.error) as err:
        return (yield from usage_error(proc, "awk", err))

    coeff = cpu_coeff("default") * 6  # awk interprets: slower per byte
    out = OutBuf(proc, 1)
    printed = runtime.out

    # a ``name=value`` operand is an assignment made when it is reached;
    # with no file among the operands the input is stdin
    if all(_ASSIGN_RE.match(operand) for operand in operands):
        operands.append("-")
    # ``exit`` from BEGIN or a record ends the input and still runs END;
    # from END it stops END.  The last status given is the command's.
    status = 0
    try:
        try:
            runtime.begin()
            yield from out.put(b"".join(printed))
            printed.clear()

            for path in operands if runtime.reads_input else ():
                if assign := _ASSIGN_RE.match(path):
                    runtime.vars[assign[1]] = assign[2]
                    continue
                fd, needs_close = yield from open_operand(proc, "awk", path)
                if fd is None:
                    status = 2
                    continue
                runtime.vars["FILENAME"] = path if path != "-" else ""
                yield from each_batch(proc, fd, runtime.records, out,
                                      proc.charge_all, coeff)
                if needs_close:
                    yield from proc.close(fd)
        except _Exit as stop:
            status = stop.status or 0

        try:
            runtime.end()
        except _Exit as stop:
            if stop.status is not None:
                status = stop.status
        yield from out.put(b"".join(printed))
    except (UsageError, re.error) as err:  # re.error: a dynamic regex
        yield from out.flush()
        return (yield from usage_error(proc, "awk", err))
    yield from out.flush()
    return status
