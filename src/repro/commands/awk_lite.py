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
are "" / 0.  The program is parsed to a small AST and lowered once to
closures (:class:`AwkRuntime`); per record, awk only calls them.
"""

from __future__ import annotations

import math
import operator
import re
from functools import lru_cache
from typing import Optional

from ..vos.process import Process
from .base import (Grammar, LineStream, OutBuf, UsageError, command,
                   cpu_coeff, open_operand, usage_error)
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
        if kind != "keyword" or text not in ("print", "printf", "next", "exit",
                                             "if", "while", "for"):
            return Node("exprstmt", self.parse_expr())
        self.take()
        if text in ("print", "printf"):
            args = []
            if text == "printf" or self.peek()[1] not in (";", "}", ">", None):
                args.append(self.parse_expr())
                while self.accept("op", ","):
                    args.append(self.parse_expr())
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
            if kind is None or (kind == "op" and text in self._CONCAT_STOP):
                return node
            if kind == "keyword":
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
        if self.accept("op", "++"):
            return Node("preincr", self.parse_postfix(), 1)
        if self.accept("op", "--"):
            return Node("preincr", self.parse_postfix(), -1)
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

    #: the built-in functions: name -> (fewest, most) arguments
    FUNCTIONS = {"length": (0, 1), "substr": (2, 3), "index": (2, 2),
                 "toupper": (1, 1), "tolower": (1, 1), "int": (1, 1),
                 "split": (2, 3), "sprintf": (1, 99), "sub": (2, 3),
                 "gsub": (2, 3), "match": (2, 2)}

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
                args = []
                if self.peek() != ("op", ")"):
                    args.append(self.parse_expr())
                    while self.accept("op", ","):
                        args.append(self.parse_expr())
                self.expect("op", ")")
                low, high = self.FUNCTIONS[text]
                if not low <= len(args) <= high:
                    raise AwkSyntaxError(f"{text}: wrong number of arguments")
                return Node("call", text, args)
            if text == "length":  # without parentheses: length($0)
                return Node("call", text, [])
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
# evaluator: the AST lowered, once per program, to plain Python closures
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


_FALSE = (0.0, "")  # ``value not in _FALSE`` is awk truth, without a call


def _raise(exc: Exception):
    raise exc


class AwkRuntime:
    """Interpreter state plus the lowering pass: ``compile(node)`` turns
    an expression or statement node into a zero-argument closure over
    this runtime, once per node, deciding there what is static (constant
    field numbers, regex literals, operators, the kind of an lvalue)."""

    def __init__(self, fs: str = " ", assigns: Optional[dict] = None):
        self.vars = _Table({"FS": fs, "OFS": " ", "ORS": "\n", "NR": 0.0,
                            "NF": 0.0, "FILENAME": "", "SUBSEP": "\x1c"})
        self.vars.update(assigns or {})
        self.arrays: dict[str, _Table] = {}
        self.fields: list[str] = [""]  # always NF + 1 long
        self.out: list[bytes] = []
        self._fs = None  # the FS value ``_split`` was built for
        self._memo: dict[int, object] = {}

    # -- records -------------------------------------------------------------

    def set_record(self, line: str) -> None:
        nr = self.vars["NR"]
        self.vars["NR"] = (nr if nr.__class__ is float else to_num(nr)) + 1.0
        self._split_record(line)

    def _split_record(self, line: str) -> None:
        fs = self.vars["FS"]
        if fs is not self._fs:  # assigned since the last record
            self._fs, sep = fs, to_str(fs)
            self._split = (str.split if sep == " "
                           else (lambda text: text.split(sep)) if len(sep) == 1
                           else re.compile(sep).split)
        parts = self._split(line)
        self.fields = [line, *parts]
        self.vars["NF"] = len(parts) + 0.0

    def __getitem__(self, n):  # the runtime is the box of $n and NF lvalues
        if n == "NF":
            return self.vars["NF"]
        return self.fields[n] if 0 <= n < len(self.fields) else ""

    def __setitem__(self, n, value) -> None:
        """``$n = value``, or ``NF = value`` for n "NF": $0 is rebuilt."""
        fields = self.fields
        if n == "NF":
            nf = max(0, int(to_num(value)))
            self.fields = fields = (fields + [""] * nf)[: nf + 1]
        elif n < 0:
            raise UsageError(f"attempt to access field {n}")
        else:
            fields.extend([""] * (n + 1 - len(fields)))
            fields[n] = to_str(value)
            if n == 0:
                return self._split_record(fields[0])
        self.vars["NF"] = len(fields) - 1.0
        fields[0] = to_str(self.vars["OFS"]).join(fields[1:])

    # -- entry points ----------------------------------------------------------

    def compile(self, node: Node):
        fn = self._memo.get(id(node))
        if fn is None:
            fn = self._memo[id(node)] = self._lower(node)
        return fn

    def eval(self, node: Node):
        return self.compile(node)()

    exec_block = eval

    def rules(self, items) -> tuple[list, list, list]:
        """(BEGIN actions, main rules, END actions) as closures; a main
        rule tests its own pattern."""
        begin, main, end = [], [], []
        for pattern, action in items:
            run = self.compile(action)
            if pattern is None:
                main.append(run)
            elif pattern.kind == "expr_pattern":
                main.append(self._lower(Node("if", pattern.a, action)))
            else:
                (begin if pattern.kind == "BEGIN" else end).append(run)
        return begin, main, end

    # -- the lowering pass --------------------------------------------------------

    def _lvalue(self, node: Node):
        """``(box, key, name)`` of an assignable node: the value lives at
        ``box[key()]``, or at ``box[name]`` when ``key`` is None — a
        subscript is evaluated once per assignment."""
        if node.kind == "var":
            return (self if node.a == "NF" else self.vars), None, node.a
        index = self.compile(node.a if node.kind == "field" else node.b)
        if node.kind == "field":
            return self, (lambda: int(to_num(index()))), None
        return (self.arrays.setdefault(node.a, _Table()),
                (lambda: to_str(index())), None)

    def _pattern(self, node: Node):
        """``() -> compiled regex``: a literal here, dynamic text cached."""
        if node.kind == "regex":
            pattern = re.compile(node.a)
            return lambda: pattern
        text = self.compile(node)
        return lambda: _regex(to_str(text()))

    def _lower(self, node: Node):
        rt, vars, emit, kind = self, self.vars, self.out.append, node.kind
        # child nodes lowered (an lvalue or regex operand: never called)
        a, b, c = (self.compile(x) if isinstance(x, Node) else x
                   for x in (node.a, node.b, node.c))
        if kind in ("num", "str"):
            return lambda: a
        if kind == "regex":  # a bare /re/ means $0 ~ /re/
            search = re.compile(a).search
            return lambda: 1.0 if search(rt.fields[0]) else 0.0
        if kind == "var":
            return lambda: vars[a]
        if kind == "field":
            if node.a.kind == "var" and node.a.a == "NF":
                return lambda: rt.fields[-1]  # fields is NF + 1 long
            if node.a.kind != "num":
                return lambda: rt[int(to_num(a()))]
            n = int(node.a.a)
            if n == 0:
                return lambda: rt.fields[0]
            return lambda: rt.fields[n] if n < len(rt.fields) else ""
        if kind == "index":
            arr = self.arrays.setdefault(a, _Table())
            return lambda: arr[to_str(b())]
        if kind in ("assign", "preincr", "postincr"):
            box, key, name = self._lvalue(
                node.b if kind == "assign" else node.a)
            op = _ARITH.get(a[0]) if kind == "assign" else None

            def assign():  # the value first, then the subscript, as awk
                value = c()
                k = key() if key else name
                if op:
                    old = box[k]
                    value = op(old if old.__class__ is float else to_num(old),
                               to_num(value))
                box[k] = value
                return value

            pre = kind == "preincr"

            def incr():  # node.b is +1 or -1
                k = key() if key else name
                old = to_num(box[k])
                box[k] = new = old + b
                return new if pre else old
            return assign if kind == "assign" else incr
        if kind == "neg":
            return lambda: -to_num(a())
        if kind == "not":
            return lambda: 1.0 if a() in _FALSE else 0.0
        if kind == "arith":
            op = _ARITH[a]
            return lambda: op(to_num(b()), to_num(c()))
        if kind == "concat":
            return lambda: to_str(a()) + to_str(b())
        if kind == "cmp":
            op = _COMPARE[a]
            # a string constant or concatenation never compares as a number
            stringy = any(n.kind in ("str", "concat") for n in (node.b, node.c))

            def cmp():
                left, right = b(), c()
                if not stringy:
                    x = _strnum(left)
                    y = _strnum(right) if x is not None else None
                    if y is not None:
                        return 1.0 if op(x, y) else 0.0
                return 1.0 if op(to_str(left), to_str(right)) else 0.0
            return cmp
        if kind in ("match", "nomatch"):
            pattern = self._pattern(node.b)
            hit, miss = (1.0, 0.0) if kind == "match" else (0.0, 1.0)
            return lambda: hit if pattern().search(to_str(a())) else miss
        if kind == "and":
            return lambda: 1.0 if (a() not in _FALSE
                                   and b() not in _FALSE) else 0.0
        if kind == "or":
            return lambda: 0.0 if a() in _FALSE and b() in _FALSE else 1.0
        if kind == "ternary":
            return lambda: b() if a() not in _FALSE else c()
        if kind == "call":
            return self._builtin(a, b)
        # -- statements
        if kind in ("block", "print", "printf"):
            parts = [self.compile(part) for part in a]
        if kind == "block" and len(parts) != 1:
            def block():
                for stmt in parts:
                    stmt()
            return block
        if kind == "block":
            return parts[0]
        if kind == "print" and not parts:
            return lambda: emit((rt.fields[0] + to_str(vars["ORS"])).encode())
        if kind == "print":
            return lambda: emit(
                (to_str(vars["OFS"]).join([to_str(arg()) for arg in parts])
                 + to_str(vars["ORS"])).encode())
        if kind == "printf":
            return lambda: emit(_sprintf([arg() for arg in parts]).encode())
        if kind == "exprstmt":
            return a
        if kind == "if":
            def if_():
                if a() not in _FALSE:
                    b()
                elif c is not None:
                    c()
            return if_
        if kind == "while":
            def while_():
                guard = 0
                while a() not in _FALSE:
                    b()
                    guard += 1
                    if guard > 10_000_000:  # runaway protection
                        raise UsageError("while loop exceeded limit")
            return while_
        if kind == "forin":
            arr = self.arrays.setdefault(b, _Table())

            def forin():
                for key in list(arr):
                    vars[a] = key
                    c()
            return forin
        if kind == "next":
            return lambda: _raise(_Next())
        if kind == "exit":
            return lambda: _raise(
                _Exit(None if a is None else int(to_num(a()))))
        raise UsageError(f"cannot compile {kind}")

    def _builtin(self, name: str, raw: list):
        rt, vars, arrays = self, self.vars, self.arrays
        args = [self.compile(arg) for arg in raw]
        if name in _PURE:
            fn = _PURE[name]
            return lambda: fn([arg() for arg in args])
        if name == "length" and not raw:
            return lambda: len(rt.fields[0]) + 0.0
        if name == "length":  # of an array, when the name is one by then
            array = raw[0].a if raw[0].kind == "var" else None
            return lambda: len(arrays[array] if array in arrays
                               else to_str(args[0]())) + 0.0
        if name == "split":
            if raw[1].kind != "var":
                raise AwkSyntaxError("split needs an array name")
            arr = arrays.setdefault(raw[1].a, _Table())

            def split():
                text = to_str(args[0]())
                sep = to_str(args[2]() if len(args) > 2 else vars["FS"])
                parts = text.split() if sep == " " else text.split(sep)
                arr.clear()
                arr.update((str(i), part) for i, part in enumerate(parts, 1))
                return len(parts) + 0.0
            return split
        pattern = self._pattern(raw[0 if name != "match" else 1])
        if name == "match":
            def match():
                text = to_str(args[0]())
                m = pattern().search(text)
                vars["RSTART"] = m.start() + 1.0 if m else 0.0
                vars["RLENGTH"] = m.end() - m.start() + 0.0 if m else -1.0
                return vars["RSTART"]
            return match
        # sub(re, repl [, target]) / gsub: in-place substitution on the
        # target lvalue (default $0); returns the substitution count
        box, key, lname = self._lvalue(
            raw[2] if len(raw) > 2 else Node("field", Node("num", 0.0)))

        def sub():
            regex, pieces = pattern(), _sub_pieces(to_str(args[1]()))
            k = key() if key else lname
            # the matched text joins the literals around each &
            new, n = posix_sub(regex, lambda m: m[0].join(pieces),
                               to_str(box[k]), every=name == "gsub")
            if n:
                box[k] = new
            return n + 0.0
        return sub


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


def _strnum(value) -> Optional[float]:
    """The number a value compares as — a float, or a string that looks
    like one from end to end — else None."""
    if value.__class__ is float:
        return value
    if value.isdecimal() or _NUMERIC_RE.match(value):
        return float(value)
    return None


def to_str(value) -> str:
    if value.__class__ is str:
        return value
    if abs(value) < 1e16 and value == int(value):
        return str(int(value))
    return f"{value:.6g}"


def truthy(value) -> bool:
    return value not in _FALSE


def _div(a: float, b: float, op=operator.truediv) -> float:
    if b == 0:
        raise UsageError("division by zero")
    return op(a, b)


_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul,
          "/": _div, "%": lambda a, b: _div(a, b, math.fmod)}
_COMPARE = {"==": operator.eq, "!=": operator.ne, "<": operator.lt,
            "<=": operator.le, ">": operator.gt, ">=": operator.ge}

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


#: built-ins that are functions of their argument values alone
_PURE = {
    "substr": _substr,
    "index": lambda args: to_str(args[0]).find(to_str(args[1])) + 1.0,
    "toupper": lambda args: to_str(args[0]).upper(),
    "tolower": lambda args: to_str(args[0]).lower(),
    "int": lambda args: float(int(to_num(args[0]))),
    "sprintf": _sprintf,
}

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
        items = parse_awk(src)
    except UsageError:
        return False
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
    return True


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
        runtime = AwkRuntime("\t" if fs == "\\t" else fs,
                             {name: value for name, _, value in assigns})
        begin, main, end = runtime.rules(parse_awk(operands.pop(0)))
    except (UsageError, re.error) as err:
        return (yield from usage_error(proc, "awk", err))

    coeff = cpu_coeff("default") * 6  # awk interprets: slower per byte
    out = OutBuf(proc, 1)
    charge, set_record, printed = proc.charge, runtime.set_record, runtime.out

    # a ``name=value`` operand is an assignment made when it is reached;
    # with no file among the operands the input is stdin
    if all(_ASSIGN_RE.match(operand) for operand in operands):
        operands.append("-")
    # ``exit`` from BEGIN or a record ends the input and still runs END;
    # from END it stops END.  The last status given is the command's.
    status = 0
    try:
        try:
            for action in begin:
                action()
            yield from out.put(b"".join(printed))
            printed.clear()

            for path in operands if main or end else ():
                assign = _ASSIGN_RE.match(path)
                if assign:
                    runtime.vars[assign[1]] = assign[2]
                    continue
                fd, needs_close = yield from open_operand(proc, "awk", path)
                if fd is None:
                    status = 2
                    continue
                runtime.vars["FILENAME"] = path if path != "-" else ""
                stream = LineStream(proc, fd)
                while True:
                    batch = yield from stream.next_batch()
                    if batch is None:
                        break
                    for line in batch:
                        charge(len(line) * coeff)
                        text = line.decode("utf-8", "replace")
                        set_record(text[:-1] if text[-1] == "\n" else text)
                        try:
                            for rule in main:
                                rule()
                        except _Next:
                            pass
                        if printed:
                            data = b"".join(printed)
                            printed.clear()
                            if out.add(data):  # flush on this record
                                yield from out.flush()
                if needs_close:
                    yield from proc.close(fd)
        except _Exit as stop:
            status = stop.status or 0

        try:
            for action in end:
                action()
        except _Exit as stop:
            if stop.status is not None:
                status = stop.status
        yield from out.put(b"".join(printed))
    except (UsageError, re.error) as err:  # re.error: a dynamic regex
        yield from out.flush()
        return (yield from usage_error(proc, "awk", err))
    yield from out.flush()
    return status
