"""Abstract-interpretation value-flow analyzer (S20).

An interprocedural abstract interpreter over the shell AST, running on
the same structured CFG discipline as :mod:`repro.analysis.envflow`
(branch unions, two-pass loop fixpoints, function inlining with a
recursion guard).  Three cooperating domains:

* a **value domain** for variables — ``unset`` / constant string / ⊤.
  A word's value is the interpreter's own expander
  (:mod:`repro.semantics.expansion`) run over an abstract world
  (:class:`_World`): a known value reads as its text, and a ⊤ value, a
  special parameter, a positional, a command substitution's output or
  the file system stops the expansion with :class:`_Unknown`, so the
  word is ⊤.  ``test``/``[`` is ``eval_test``, a ``case`` pattern is
  ``patterns.match``, ``set`` is ``builtins.parse_set``: a constant
  input gives the interpreter's answer;
* an **exit-status domain** — an integer interval over 0..255 — flowing
  through pipelines, ``&&``/``||``, ``!``, ``if``/``while`` guards and
  ``set -e`` implications;
* a **trip-count domain** — ``for`` loop cardinalities from literal and
  constant word lists and constant ``seq`` ranges.

The analysis sees no file system: a glob's cardinality is unknown (at
least one field — an unmatched POSIX glob stays literal), and a file
test's status is ⊤.  The files when the script runs need not be the
files at analysis time, so nothing it proves may depend on them.

Outputs (see :class:`AbsintResult`):

* **dead facts** — AST nodes that provably never execute: constant
  guards, statements following an unconditional
  ``exit``/``return``/``break``, ``set -e`` after a provably non-zero
  constant status, and loops over constant-empty word lists.  The
  engines' correctness never *depends* on the dead set: a wrongly-dead
  node that does execute simply misses its certificate and takes the
  runtime purity walk, reaching the identical decision.
* **findings** — the JS4xxx ``jash check`` diagnostics (unreachable
  code, constant guards, infinite loops, provably-unset reads under
  ``set -u``, dead ``&&``/``||`` arms, empty loop word lists).

A command whose name is unknown, ``eval`` and ``.`` run text the
analysis does not read: every value and option becomes ⊤.

Caveats (documented unsoundness, acceptable because consumers only use
the dead set to *skip optimization*, never to skip execution): plain
assignments are treated as status 0 (a ``readonly`` violation would
abort), an expansion error's abort is not followed, and external
commands that signal the shell (``kill $$``) are only screened
syntactically for the infinite-loop fact.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import reduce
from typing import Optional

from ..commands.base import UsageError
from ..commands.fs_cmds import bracket_expression, eval_test
from ..parser.ast_nodes import (
    AndOr,
    ArithSub,
    BraceGroup,
    Case,
    CmdSub,
    Command,
    CommandList,
    DoubleQuoted,
    For,
    FuncDef,
    If,
    Lit,
    Param,
    Pipeline,
    Redirect,
    SimpleCommand,
    Subshell,
    While,
    Word,
    walk,
)
from ..parser.unparse import unparse
from ..semantics import arith
from ..semantics.builtins import parse_set
from ..semantics.expansion import (
    ExpansionError,
    UnsetError,
    at_only,
    expand_parts,
    pattern_of,
    word_fields,
    word_text,
)
from ..semantics.patterns import match
from ..semantics.state import OPTIONS
from .envflow import EnvFlow

ABSINT_VERSION = "s20.1"

# control-flow outcomes a construct may have (sets of these flow upward)
NORMAL = "normal"
BREAK = "break"
CONTINUE = "continue"
EXIT = "exit"
RETURN = "return"

_ONLY_NORMAL = frozenset((NORMAL,))


# ---------------------------------------------------------------------------
# Value domain
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AbsValue:
    """unset | const(text) | top."""

    kind: str
    text: str = ""

    def __repr__(self) -> str:  # compact, for reports/tests
        if self.kind == "const":
            return f"const({self.text!r})"
        return self.kind


UNSET = AbsValue("unset")
TOP = AbsValue("top")


def vconst(text: str) -> AbsValue:
    return AbsValue("const", text)


def join_value(a: AbsValue, b: AbsValue) -> AbsValue:
    """Equal values join to themselves, anything else to ⊤ (maybe-unset
    is indistinguishable from unknown for every consumer)."""
    return a if a == b else TOP


# ---------------------------------------------------------------------------
# Exit-status domain
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AbsStatus:
    """Interval over exit statuses 0..255."""

    lo: int
    hi: int

    @property
    def is_zero(self) -> bool:
        return self.lo == 0 and self.hi == 0

    @property
    def is_nonzero(self) -> bool:
        return self.lo >= 1

    def __repr__(self) -> str:
        return f"status[{self.lo},{self.hi}]"


S_ZERO = AbsStatus(0, 0)
S_ONE = AbsStatus(1, 1)
S_TOP = AbsStatus(0, 255)


def sjoin(a: AbsStatus, b: AbsStatus) -> AbsStatus:
    return AbsStatus(min(a.lo, b.lo), max(a.hi, b.hi))


def snot(a: AbsStatus) -> AbsStatus:
    if a.is_zero:
        return S_ONE
    if a.is_nonzero:
        return S_ZERO
    return S_TOP


# ---------------------------------------------------------------------------
# Findings and dead facts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Finding:
    """One JS4xxx-grade fact, anchored at an AST node."""

    code: str
    message: str
    node: object
    context: str = ""


@dataclass(frozen=True)
class DeadFact:
    """The root of one provably-dead region."""

    node: object
    reason: str


@dataclass
class AbsintResult:
    """Everything one value-flow pass learned."""

    #: id() of every provably-dead node, descendants included
    dead: set[int] = field(default_factory=set)
    #: dead-region roots in visit order (stable for reports)
    dead_list: list[DeadFact] = field(default_factory=list)
    findings: list[Finding] = field(default_factory=list)
    nodes: int = 0
    widenings: int = 0
    #: the analyzed program (keeps id()-keyed maps valid)
    program: object = None

    def stats(self) -> dict:
        return {
            "absint_nodes": self.nodes,
            "absint_widenings": self.widenings,
            "dead_branches": len(self.dead_list),
        }

    def to_dict(self) -> dict:
        return {
            "analyzer": ABSINT_VERSION,
            "summary": self.stats(),
            "dead": [{"node": unparse(d.node), "reason": d.reason}
                     for d in self.dead_list],
            "findings": [{"code": f.code, "message": f.message,
                          "node": unparse(f.node)} for f in self.findings],
        }


# ---------------------------------------------------------------------------
# Abstract state
# ---------------------------------------------------------------------------


class _State:
    """Variable values + tracked shell options on one control path."""

    __slots__ = ("vars", "options")

    def __init__(self, vars=None, options=None):
        self.vars: dict[str, AbsValue] = vars if vars is not None else {}
        self.options: dict[str, Optional[bool]] = (
            options if options is not None
            else dict.fromkeys(OPTIONS, False))

    def copy(self) -> "_State":
        return _State(dict(self.vars), dict(self.options))

    def join(self, other: "_State") -> None:
        """In-place join: a variable known on only one side becomes ⊤."""
        for name in list(self.vars):
            if name in other.vars:
                self.vars[name] = join_value(self.vars[name],
                                             other.vars[name])
            else:
                self.vars[name] = TOP
        for name, val in other.vars.items():
            if name not in self.vars:
                self.vars[name] = TOP
        for opt in self.options:
            if self.options[opt] != other.options.get(opt):
                self.options[opt] = None


def _join_arms(st: _State, arms: list) -> tuple[AbsStatus, frozenset]:
    """Join the ``(status, flows, state)`` of the arms that may run; the
    joined state becomes ``st``'s."""
    merged = arms[0][2]
    for _, _, other in arms[1:]:
        merged.join(other)
    st.vars, st.options = merged.vars, merged.options
    return (reduce(sjoin, [status for status, _, _ in arms]),
            frozenset().union(*[flows for _, flows, _ in arms]))


class _Unknown(Exception):
    """A read whose answer the analysis does not know."""


class _World:
    """What the expander and ``test`` read, over one abstract state: the
    interpreter's ``state`` and ``command_substitution``, and the file
    system.  A constant reads as its text and ``unset`` as None; ⊤, a
    name never assigned on this path (it may come from the environment),
    a special parameter, a positional, a substitution's output and every
    file-system read raise :class:`_Unknown`."""

    #: read only on the way to the file system, which raises
    cwd = "/"

    def __init__(self, flow: "ValueFlow", st: _State, emit: bool):
        self.flow, self.st, self.emit = flow, st, emit
        self.state = self
        self.options = st.options
        #: ids of the substitution bodies the expander ran
        self.visited: set[int] = set()

    def get(self, name: str) -> Optional[str]:
        value = self.st.vars.get(name)
        if value is UNSET:
            return None
        if value is None or value.kind != "const":
            raise _Unknown(name)
        return value.text

    def set(self, name: str, value: str) -> None:
        self.st.vars[name] = vconst(value)

    @property
    def positionals(self):
        raise _Unknown("$@")

    @property
    def ifs(self) -> str:
        if self.st.vars.get("IFS", UNSET) is UNSET:
            return " \t\n"  # the shell starts with the default
        return self.get("IFS")

    def command_substitution(self, proc, command: Command):
        """Visit the body as the subshell it is; its output is unknown."""
        self.visited.add(id(command))
        self.flow._visit(command, self.st.copy(), self.emit, True)
        raise _Unknown("$(...)")
        yield  # a generator, as the interpreter's is

    def exists(self, path: str):
        raise _Unknown(path)

    is_file = is_dir = size = listdir = exists


class _ScriptNamesUnset(_World):
    """The world JS4004 asks under a constant ``set -u``: a name the script
    assigns somewhere, read before its first assignment on this path, is
    taken to be absent from the environment.  Only its abort is read,
    never a value, and it visits no substitution."""

    def get(self, name: str) -> Optional[str]:
        if name not in self.st.vars and name in self.flow.all_defs:
            return None
        return super().get(name)

    def command_substitution(self, proc, command: Command):
        raise _Unknown("$(...)")
        yield


def _run(expansion):
    """Drive an expansion generator: over a world it never blocks."""
    try:
        expansion.send(None)
    except StopIteration as stop:
        return stop.value
    raise AssertionError("an abstract expansion yielded")


def _nested(part):
    """``part`` and every part inside it, short of a substitution's body."""
    yield part
    if isinstance(part, Param):
        inner = part.word.parts if part.word is not None else ()
    else:  # a quote or $((...)) has parts; $(...) has a command
        inner = getattr(part, "parts", ())
    for sub in inner:
        yield from _nested(sub)


def _assignable(part) -> set[str]:
    """The names expanding ``part`` could assign: ``${x=w}``, ``${x:=w}``
    and the names of an arithmetic expression that assigns."""
    names = set()
    for sub in _nested(part):
        if isinstance(sub, Param) and sub.op in ("=", ":="):
            names.add(sub.name)
        elif isinstance(sub, ArithSub):
            text = "".join(p.text for p in sub.parts if isinstance(p, Lit))
            if arith.has_side_effects(text):
                names.update(re.findall(r"\b[A-Za-z_]\w*", text))
    return names


# ---------------------------------------------------------------------------
# The interpreter
# ---------------------------------------------------------------------------

#: commands that could terminate or re-enter the shell from a loop body in
#: ways the flow analysis does not model — veto the infinite-loop fact
_LOOP_ESCAPES = frozenset(("kill", "exec", "trap", "eval", "."))


class ValueFlow:
    """One-shot analysis: ``ValueFlow().run(program)``."""

    def __init__(self):
        self.functions: dict[str, Command] = {}
        self._stack: list[str] = []
        self.findings: list[Finding] = []
        self.dead: set[int] = set()
        self.dead_list: list[DeadFact] = []
        self._dead_roots: set[int] = set()
        self._finding_keys: set[tuple[str, int]] = set()
        self.nodes = 0
        self.widenings = 0
        self.all_defs: set[str] = set()

    # -- entry point ---------------------------------------------------------------

    def run(self, program: Command) -> AbsintResult:
        # prepass: which names are script-defined (env filter for JS4004)
        flow = EnvFlow()
        flow.run(program)
        self.all_defs = flow.all_defs
        st = _State()
        self._visit(program, st, emit=True, guard=False)
        return AbsintResult(
            dead=self.dead, dead_list=self.dead_list,
            findings=self.findings, nodes=self.nodes,
            widenings=self.widenings, program=program)

    # -- bookkeeping ---------------------------------------------------------------

    def _finding(self, code: str, message: str, node, emit: bool,
                 context: str = "") -> None:
        if not emit:
            return
        key = (code, id(node))
        if key in self._finding_keys:
            return
        self._finding_keys.add(key)
        self.findings.append(Finding(code, message, node, context))

    def _mark_dead(self, node, reason: str, emit: bool) -> None:
        if not emit or node is None:
            return
        if id(node) in self._dead_roots:
            return
        self._dead_roots.add(id(node))
        self.dead_list.append(DeadFact(node, reason))
        for sub in walk(node):
            self.dead.add(id(sub))

    # -- the walk ------------------------------------------------------------------

    def _visit(self, node: Command, st: _State, emit: bool,
               guard: bool) -> tuple[AbsStatus, frozenset]:
        """Returns (abstract exit status, set of possible control flows)."""
        self.nodes += 1
        if isinstance(node, SimpleCommand):
            return self._simple(node, st, emit, guard)
        if isinstance(node, Pipeline):
            return self._pipeline(node, st, emit, guard)
        if isinstance(node, AndOr):
            return self._andor(node, st, emit, guard)
        if isinstance(node, CommandList):
            return self._list(node, st, emit, guard)
        if isinstance(node, Subshell):
            self._redirects(node.redirects, node, st, emit)
            status, flows = self._visit(node.body, st.copy(), emit, True)
            if flows & {EXIT, RETURN}:
                status = S_TOP  # exit N inside the subshell is its status
            return status, _ONLY_NORMAL
        if isinstance(node, BraceGroup):
            self._redirects(node.redirects, node, st, emit)
            return self._visit(node.body, st, emit, guard)
        if isinstance(node, If):
            return self._if(node, st, emit, guard)
        if isinstance(node, While):
            return self._while(node, st, emit, guard)
        if isinstance(node, For):
            return self._for(node, st, emit, guard)
        if isinstance(node, Case):
            return self._case(node, st, emit, guard)
        if isinstance(node, FuncDef):
            self.functions[node.name] = node.body
            return S_ZERO, _ONLY_NORMAL
        return S_TOP, _ONLY_NORMAL  # pragma: no cover - exhaustive above

    # -- statement sequences -------------------------------------------------------

    def _list(self, node: CommandList, st: _State, emit: bool,
              guard: bool) -> tuple[AbsStatus, frozenset]:
        status = S_ZERO
        escaped: set[str] = set()
        dead_reason: Optional[str] = None
        first_dead = True
        for item in node.items:
            if dead_reason is not None:
                if first_dead:
                    self._finding(
                        "JS4001",
                        f"unreachable: {dead_reason}", item.command, emit)
                    first_dead = False
                self._mark_dead(item.command, dead_reason, emit)
                continue
            if item.is_async:
                self._visit(item.command, st.copy(), emit, True)
                status = S_ZERO  # launching a background job succeeds
                continue
            status, flows = self._visit(item.command, st, emit, guard)
            escaped |= set(flows) - {NORMAL}
            if NORMAL not in flows:
                if not flows:
                    dead_reason = "the preceding loop never terminates"
                elif EXIT in flows and len(flows) == 1:
                    dead_reason = "the preceding statement always exits"
                elif flows <= {BREAK, CONTINUE}:
                    dead_reason = ("the preceding statement always leaves "
                                   "the loop iteration")
                else:
                    dead_reason = "the preceding statement never falls through"
        if dead_reason is not None:
            return status, frozenset(escaped) or frozenset((EXIT,))
        return status, frozenset(escaped | {NORMAL})

    # -- pipelines / and-or --------------------------------------------------------

    def _pipeline(self, node: Pipeline, st: _State, emit: bool,
                  guard: bool) -> tuple[AbsStatus, frozenset]:
        if len(node.commands) == 1:
            status, flows = self._visit(node.commands[0], st, emit,
                                        guard or node.negated)
        else:
            # each stage runs in a subshell; nothing escapes
            statuses = [self._visit(cmd, st.copy(), emit, True)[0]
                        for cmd in node.commands]
            status = statuses[-1]  # POSIX: pipeline status = last stage
            if st.options["pipefail"] is not False:  # or the last failing one
                status = reduce(sjoin, statuses)
            flows = _ONLY_NORMAL
        if node.negated:
            status = snot(status)
        return status, flows

    def _andor(self, node: AndOr, st: _State, emit: bool,
               guard: bool) -> tuple[AbsStatus, frozenset]:
        left_status, left_flows = self._visit(node.left, st, emit, True)
        if NORMAL not in left_flows:
            self._finding("JS4001",
                          "unreachable: the left side never falls through",
                          node.right, emit)
            self._mark_dead(node.right, "left side never falls through", emit)
            return left_status, left_flows
        right_dead = (left_status.is_nonzero if node.op == "&&"
                      else left_status.is_zero)
        right_certain = (left_status.is_zero if node.op == "&&"
                         else left_status.is_nonzero)
        if right_dead:
            what = ("a constant non-zero status short-circuits `&&`"
                    if node.op == "&&"
                    else "a constant zero status short-circuits `||`")
            self._finding("JS4005", f"{what}; the right side never runs",
                          node, emit, context=unparse(node.left))
            self._mark_dead(node.right, what, emit)
            return left_status, left_flows
        if right_certain:
            right_status, right_flows = self._visit(node.right, st, emit,
                                                    guard)
            return right_status, frozenset(
                (set(left_flows) - {NORMAL}) | set(right_flows))
        branch = st.copy()
        right_status, right_flows = self._visit(node.right, branch, emit,
                                                guard)
        st.join(branch)
        return (sjoin(left_status, right_status),
                frozenset(set(left_flows) | set(right_flows)))

    # -- conditionals --------------------------------------------------------------

    def _if(self, node: If, st: _State, emit: bool,
            guard: bool) -> tuple[AbsStatus, frozenset]:
        self._redirects(node.redirects, node, st, emit)
        arms: list = []  # (status, flows, state) of each body that may run
        escapes: set[str] = set()  # what the guards themselves may do
        decided = False
        for cond, body in [(node.cond, node.then_body)] + list(node.elifs):
            if decided:
                self._mark_dead(cond, "an earlier guard is always true", emit)
                self._mark_dead(body, "an earlier guard is always true", emit)
                continue
            cond_status, cond_flows = self._visit(cond, st, emit, True)
            escapes |= set(cond_flows) - {NORMAL}
            if NORMAL not in cond_flows:
                self._mark_dead(body, "the guard never falls through", emit)
                decided = True
            elif cond_status.is_zero:
                self._finding("JS4002", "guard is always true", cond, emit,
                              context=unparse(cond))
                arms.append((*self._visit(body, st, emit, guard), st))
                decided = True
            elif cond_status.is_nonzero:
                self._finding("JS4002", "guard is always false", cond, emit,
                              context=unparse(cond))
                self._mark_dead(body, "guard is always false", emit)
            else:
                branch = st.copy()
                arms.append((*self._visit(body, branch, emit, guard), branch))
        if decided:
            self._mark_dead(node.else_body,
                            "an earlier guard decides this `if`", emit)
        elif node.else_body is not None:
            branch = st.copy()
            arms.append((*self._visit(node.else_body, branch, emit, guard),
                         branch))
        else:
            arms.append((S_ZERO, _ONLY_NORMAL, st.copy()))  # no branch taken
        if not arms:
            return S_TOP, frozenset(escapes) or frozenset((EXIT,))
        status, flows = _join_arms(st, arms)
        return status, (flows | escapes) or frozenset((EXIT,))

    # -- loops ---------------------------------------------------------------------

    def _widen(self, st: _State, snap: _State) -> None:
        """A variable the loop body changed (or defined) becomes ⊤."""
        for name in list(st.vars):
            if snap.vars.get(name) != st.vars[name]:
                st.vars[name] = TOP
                self.widenings += 1
        for opt in st.options:
            if st.options[opt] != snap.options.get(opt):
                st.options[opt] = None

    def _body_can_escape(self, body: Command) -> bool:
        """Could the loop body leave the loop in a way flow analysis does
        not model (external signals, exec, sourced scripts)?"""
        names: set[str] = set()
        for sub in walk(body):
            if isinstance(sub, SimpleCommand) and sub.words:
                names.add(sub.words[0].constant)
        if names & _LOOP_ESCAPES:
            return True
        for name in names & set(self.functions):
            if self._body_can_escape(self.functions[name]):
                return True
        return False

    def _while(self, node: While, st: _State, emit: bool,
               guard: bool) -> tuple[AbsStatus, frozenset]:
        self._redirects(node.redirects, node, st, emit)
        probe = st.copy()
        cond_status, cond_flows = self._visit(node.cond, probe, False, True)
        # sound on the *entry* state: the guard is evaluated exactly once
        # before the body could change anything
        never_runs = (cond_status.is_zero if node.until
                      else cond_status.is_nonzero)
        if never_runs and NORMAL in cond_flows:
            self._visit(node.cond, st, emit, True)  # cond still executes once
            self._finding("JS4002",
                          "guard is always "
                          + ("true; `until` body never runs" if node.until
                             else "false; `while` body never runs"),
                          node.cond, emit, context=unparse(node.cond))
            self._mark_dead(node.body, "loop guard is constant", emit)
            return S_ZERO, _ONLY_NORMAL
        snap = st.copy()
        # pass 1 (silent): saturate values around the back edge, then widen
        self._visit(node.cond, st, False, True)
        _, body_flows1 = self._visit(node.body, st, False, guard)
        self._widen(st, snap)
        # pass 2: report with the widened (stable) state.  The guard is
        # only "always true" when it stays true at the *fixpoint* — the
        # entry state alone would call every counted loop infinite.
        cond_status2, _ = self._visit(node.cond, st, emit, True)
        always_runs = (cond_status2.is_nonzero if node.until
                       else cond_status2.is_zero)
        body_status, body_flows = self._visit(node.body, st, emit, guard)
        st.join(snap)  # the body may have run zero times
        escapes = (set(body_flows) | set(body_flows1)) & {BREAK, EXIT, RETURN}
        if always_runs and not escapes and \
                st.options.get("errexit") is False and \
                not self._body_can_escape(node.body):
            self._finding(
                "JS4003",
                "infinite loop: guard is always "
                + ("false" if node.until else "true")
                + " and the body has no break/exit/return",
                node, emit, context=unparse(node.cond))
            # the loop never completes: everything after is unreachable
            return S_TOP, frozenset(escapes & {EXIT, RETURN})
        return S_TOP, frozenset({NORMAL} | (escapes & {EXIT, RETURN}))

    def _for(self, node: For, st: _State, emit: bool,
             guard: bool) -> tuple[AbsStatus, frozenset]:
        self._redirects(node.redirects, node, st, emit)
        trip_lo, trip_hi, values = self._for_fields(node, st, emit)
        if trip_hi == 0:
            self._finding(
                "JS4006",
                "loop over a provably-empty word list: the body never runs",
                node, emit)
            self._mark_dead(node.body, "loop word list is provably empty",
                            emit)
            st.vars.setdefault(node.var, st.vars.get(node.var, TOP))
            return S_ZERO, _ONLY_NORMAL
        var_value = TOP
        if values is not None and values:
            var_value = values[0]
            for v in values[1:]:
                var_value = join_value(var_value, v)
        st.vars[node.var] = var_value
        if trip_lo == trip_hi == 1:
            body_status, body_flows = self._visit(node.body, st, emit, guard)
        else:
            snap = st.copy()
            _, body_flows1 = self._visit(node.body, st, False, guard)
            self._widen(st, snap)
            st.vars[node.var] = var_value  # the loop variable re-enters known
            body_status, body_flows = self._visit(node.body, st, emit, guard)
            if trip_lo == 0:
                st.join(snap)
            body_flows = frozenset(set(body_flows) | set(body_flows1))
        escapes = set(body_flows) & {EXIT, RETURN}
        return S_TOP, frozenset({NORMAL} | escapes)

    # -- for-loop word-list cardinality ---------------------------------------------

    def _for_fields(self, node: For, st: _State, emit: bool):
        """(trip_lo, trip_hi, per-field values or None)."""
        if node.words is None:  # implicit `in "$@"`
            return 0, None, None
        lo = 0
        hi: Optional[int] = 0
        values: Optional[list[AbsValue]] = []
        for word in node.words:
            n_lo, n_hi, vals = self._word_fields(word, st, emit, node)
            lo += n_lo
            hi = None if hi is None or n_hi is None else hi + n_hi
            if values is not None and vals is not None:
                values.extend(vals)
            else:
                values = None
        return lo, hi, values

    def _word_fields(self, word: Word, st: _State, emit: bool, stmt):
        """Field cardinality of one word: (lo, hi, values|None)."""
        if len(word.parts) == 1 and isinstance(word.parts[0], CmdSub):
            return self._cmdsub_fields(word.parts[0], st, emit)
        fields = self._fields(word, st, emit, stmt)
        if fields is not None:
            return len(fields), len(fields), [vconst(f) for f in fields]
        only = word.parts[0] if len(word.parts) == 1 else None
        if isinstance(only, DoubleQuoted) and not at_only(only):
            return 1, 1, None  # quoted: exactly one field
        if any(isinstance(part, Lit) for part in word.parts):
            return 1, None, None  # its own text never splits away
        return 0, None, None

    def _fields(self, word: Word, st: _State, emit: bool,
                stmt) -> Optional[list[str]]:
        """The fields ``word`` expands to, as the interpreter splits and
        globs them; None when something they depend on is unknown."""
        if word.constant is not None:
            return [word.constant]
        return self._expand(word, st, emit, stmt,
                            lambda segments, world:
                            word_fields(segments, world, world))

    def _cmdsub_fields(self, part: CmdSub, st: _State, emit: bool):
        """Static cardinality for ``$(seq ...)`` / ``$(echo ...)``."""
        argv = self._cmdsub_argv(part.command)
        self._visit(part.command, st.copy(), emit, True)
        if argv is None:
            return 0, None, None
        name, args = argv[0], argv[1:]
        if name == "seq":
            count = self._seq_count(args)
            if count is None:
                return 0, None, None
            return count, count, [] if count == 0 else None
        if name == "echo":
            operands = [a for a in args if not (a.startswith("-")
                                                and set(a[1:]) <= set("neE")
                                                and len(a) > 1)]
            return len(operands), len(operands), [vconst(op) for op in operands]
        return 0, None, None

    @staticmethod
    def _cmdsub_argv(command: Command) -> Optional[list[str]]:
        """argv of a single constant simple command inside ``$(...)``."""
        node = command
        while True:
            if isinstance(node, CommandList) and len(node.items) == 1 and \
                    not node.items[0].is_async:
                node = node.items[0].command
            elif isinstance(node, Pipeline) and len(node.commands) == 1 and \
                    not node.negated:
                node = node.commands[0]
            else:
                break
        if not isinstance(node, SimpleCommand) or node.assigns or \
                node.redirects or not node.words:
            return None
        argv = [w.constant for w in node.words]
        return None if None in argv else argv

    @staticmethod
    def _seq_count(args: list[str]) -> Optional[int]:
        """How many numbers ``seq`` prints for constant arguments."""
        try:
            nums = [int(a) for a in args]
        except ValueError:
            return None
        if len(nums) == 1:
            first, incr, last = 1, 1, nums[0]
        elif len(nums) == 2:
            first, incr, last = nums[0], 1, nums[1]
        elif len(nums) == 3:
            first, incr, last = nums[0], nums[1], nums[2]
        else:
            return None
        if incr == 0:
            return None
        return max(0, (last - first) // incr + 1)

    # -- case ----------------------------------------------------------------------

    def _case(self, node: Case, st: _State, emit: bool,
              guard: bool) -> tuple[AbsStatus, frozenset]:
        """An arm is dead when each of its patterns is known not to match
        a known subject, or when an earlier arm's known pattern matches."""
        self._redirects(node.redirects, node, st, emit)
        subject = self._abs_word(node.word, st, emit, node)
        arms: list[tuple[AbsStatus, frozenset, _State]] = []
        matched = False
        for item in node.items:
            verdicts = set()
            for pat in () if matched else item.patterns:
                pattern = self._expand(pat, st, emit, node,
                                       lambda segs, _: pattern_of(segs))
                verdicts.add(None if pattern is None or subject.kind != "const"
                             else match(pattern, subject.text))
            if matched or verdicts == {False}:
                self._mark_dead(item.body, "case subject is constant and "
                                "selects another arm", emit)
                continue
            matched = True in verdicts
            # the first arm that may run, and surely does, runs in place
            branch = st if matched and not arms else st.copy()
            status, flows = (S_ZERO, _ONLY_NORMAL) if item.body is None \
                else self._visit(item.body, branch, emit, guard)
            arms.append((status, flows, branch))
        if not matched:
            arms.append((S_ZERO, _ONLY_NORMAL, st.copy()))  # no arm matches
        return _join_arms(st, arms)

    # -- simple commands -----------------------------------------------------------

    def _simple(self, node: SimpleCommand, st: _State, emit: bool,
                guard: bool) -> tuple[AbsStatus, frozenset]:
        assign_values = []
        has_cmdsub = False
        for assign in node.assigns:
            if any(isinstance(p, CmdSub) for p in walk(assign.word)):
                has_cmdsub = True
            assign_values.append(
                (assign.name, self._abs_word(assign.word, st, emit, node)))
        self._redirects(node.redirects, node, st, emit)
        if not node.words:
            for name, value in assign_values:
                st.vars[name] = value
            # `x=$(cmd)` takes the substitution's status; plain assigns are 0
            status = S_TOP if has_cmdsub else S_ZERO
            return status, _ONLY_NORMAL
        # assignment prefixes on a command are temporary env: not persisted
        argv: list[Optional[str]] = []
        for word in node.words:
            fields = self._fields(word, st, emit, node)
            argv.extend([None] if fields is None else fields)
        if not argv:  # every word expanded to nothing: no command runs
            return S_TOP, _ONLY_NORMAL
        status, flows = self._command_status(argv[0], argv[1:], node, st,
                                             emit, guard)
        # `set -e`: an unguarded, provably-failing command exits the shell
        if NORMAL in flows and not guard and status.is_nonzero and \
                st.options.get("errexit") is True:
            return status, frozenset((EXIT,))
        return status, flows

    def _command_status(self, name: Optional[str],
                        args: list[Optional[str]], node, st: _State,
                        emit: bool, guard: bool) -> tuple[AbsStatus, frozenset]:
        if name in (None, "eval", "."):  # may run text the analysis cannot see
            st.vars.update(dict.fromkeys(st.vars, TOP))
            st.options.update(dict.fromkeys(st.options))
            return S_TOP, _ONLY_NORMAL
        if name in ("true", ":"):
            return S_ZERO, _ONLY_NORMAL
        if name == "false":
            return S_ONE, _ONLY_NORMAL
        if name in ("exit", "return"):
            status = S_TOP
            if args and args[0] is not None:
                try:
                    n = int(args[0]) & 255
                    status = AbsStatus(n, n)
                except ValueError:
                    pass
            elif not args:
                status = S_TOP  # $? of the previous command
            return status, frozenset((EXIT if name == "exit" else RETURN,))
        if name == "break":
            return S_ZERO, frozenset((BREAK,))
        if name == "continue":
            return S_ZERO, frozenset((CONTINUE,))
        if name in ("test", "["):
            return self._test(name, args, st, emit), _ONLY_NORMAL
        if name == "set":
            # the options come before `--` or the first positional; a
            # dynamic argument in their place may toggle anything
            cut = args.index(None) if None in args else len(args)
            options, positionals = parse_set(args[:cut])
            if cut < len(args) and positionals is None:
                options = dict.fromkeys(st.options)
            st.options.update((opt, on) for opt, on in options.items()
                              if opt in st.options)
            return S_ZERO, _ONLY_NORMAL
        if name in ("unset", "export", "readonly", "local"):
            if name == "local" and not self._stack:  # not in a function
                return S_ONE, _ONLY_NORMAL
            if None in args:  # any name may move
                st.vars.update(dict.fromkeys(st.vars, TOP))
            elif name != "unset":  # a bare name local, or unset, becomes ""
                for var, eq, val in (arg.partition("=") for arg in args):
                    if var.isidentifier() and (eq or name == "local" or
                                               st.vars.get(var) is UNSET):
                        st.vars[var] = vconst(val)
            elif "-f" not in args:  # `unset -f` drops functions
                st.vars.update((a, UNSET) for a in args if a.isidentifier())
            return S_ZERO, _ONLY_NORMAL
        if name in ("read", "getopts"):
            for arg in args:
                if arg and arg.isidentifier():
                    st.vars[arg] = TOP
            return S_TOP, _ONLY_NORMAL  # read fails at EOF
        if name == "shift":
            return S_TOP, _ONLY_NORMAL
        if name in self.functions and name not in self._stack:
            self._stack.append(name)
            try:
                status, flows = self._visit(self.functions[name], st, emit,
                                            guard)
            finally:
                self._stack.pop()
            # `return` ends the call normally; `exit` still ends the script
            out = set(flows) & {NORMAL, EXIT}
            if set(flows) - {NORMAL, EXIT}:
                out.add(NORMAL)
            return (status if flows == _ONLY_NORMAL else S_TOP,
                    frozenset(out))
        return S_TOP, _ONLY_NORMAL

    def _test(self, name: str, args: list[Optional[str]], st: _State,
              emit: bool) -> AbsStatus:
        """``test``/``[`` as the command runs it; a file test is ⊤."""
        if None in args:
            return S_TOP
        try:
            expression = bracket_expression(args) if name == "[" else args
            world = _World(self, st, emit)
            return S_ZERO if eval_test(expression, world, world.cwd) else S_ONE
        except UsageError:
            return AbsStatus(2, 2)
        except _Unknown:
            return S_TOP

    # -- words and expansions ------------------------------------------------------

    def _redirects(self, redirects: tuple[Redirect, ...], stmt, st: _State,
                   emit: bool) -> None:
        for redirect in redirects:
            self._abs_word(redirect.target, st, emit, stmt)
            if redirect.heredoc is not None:
                self._abs_word(redirect.heredoc, st, emit, stmt)

    def _abs_word(self, word: Word, st: _State, emit: bool,
                  stmt) -> AbsValue:
        """The one field of an assignment, a redirect target, a case
        subject or a here-document (only its substitutions matter)."""
        if word.constant is not None:
            return vconst(word.constant)
        text = self._expand(word, st, emit, stmt, word_text)
        return TOP if text is None else vconst(text)

    def _report_unset(self, err: Exception, part, st: _State, emit: bool,
                      stmt) -> None:
        """JS4004 where ``set -u`` aborts ``part``: the expander's own
        ``UnsetError``, or the one it raises when the names the script
        assigns but has not yet assigned here are absent from the
        environment (that run's values are dropped)."""
        if isinstance(err, _Unknown) and st.options["nounset"] is True:
            try:
                _run(expand_parts(_ScriptNamesUnset(self, st.copy(), emit),
                                  None, (part,)))
            except (_Unknown, ExpansionError) as again:
                err = again
        if isinstance(err, UnsetError):
            self._finding(
                "JS4004", f"`{err.name}` is provably unset here: "
                "under `set -u` the shell aborts", stmt, emit,
                context=err.name)

    def _expand(self, word: Word, st: _State, emit: bool, stmt, finish):
        """``finish(segments, world)`` of ``word``'s segments, or None when
        an expansion or ``finish`` reads something unknown.

        Each top-level part expands on its own, so the parts after an
        unknown one still run their substitutions and reads.  A part that
        stops leaves every name it could assign ⊤ and reports ``set -u``'s
        abort (JS4004).  Every substitution in the word is visited once,
        those the expansion did not reach too."""
        world = _World(self, st, emit)
        segments: Optional[list] = []
        for part in word.parts:
            try:
                expanded = _run(expand_parts(world, None, (part,)))
            except (_Unknown, ExpansionError) as err:
                self._report_unset(err, part, st, emit, stmt)
                for name in _assignable(part):
                    st.vars[name] = TOP
                expanded = segments = None
            for sub in _nested(part):
                if isinstance(sub, CmdSub) and \
                        id(sub.command) not in world.visited:
                    self._visit(sub.command, st.copy(), emit, True)
            if segments is not None:
                segments.extend(expanded)
        if segments is None:
            return None
        try:
            return finish(segments, world)
        except _Unknown:
            return None


def analyze_value_flow(program: Command) -> AbsintResult:
    """Run the S20 abstract interpreter over a parsed program."""
    return ValueFlow().run(program)
