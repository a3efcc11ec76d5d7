"""Abstract-interpretation value-flow analyzer (S20).

An interprocedural abstract interpreter over the shell AST, running on
the same structured CFG discipline as :mod:`repro.analysis.envflow`
(branch unions, two-pass loop fixpoints, function inlining with a
recursion guard).  Three cooperating domains:

* a **value domain** for variables — ``unset`` / constant string / ⊤ —
  flowing through assignments, parameter expansions (``${x:-d}``,
  ``${x#p}``, quoting) and ``$((...))`` arithmetic, split into fields
  by the expander's own splitter;
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

Caveats (documented unsoundness, acceptable because consumers only use
the dead set to *skip optimization*, never to skip execution): plain
assignments are treated as status 0 (a ``readonly`` violation would
abort), and external commands that signal the shell (``kill $$``) are
only screened syntactically for the infinite-loop fact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..parser.ast_nodes import (
    AndOr,
    ArithSub,
    BraceGroup,
    Case,
    CmdSub,
    Command,
    CommandList,
    DoubleQuoted,
    Escaped,
    For,
    FuncDef,
    If,
    Lit,
    Param,
    Pipeline,
    Redirect,
    SimpleCommand,
    SingleQuoted,
    Subshell,
    While,
    Word,
    walk,
)
from ..parser.lexer import ACTIVE
from ..parser.unparse import unparse
from ..semantics import arith
from ..semantics.expansion import known_segments, split_fields
from ..semantics.patterns import has_glob_chars, text_of
from .envflow import _SPECIAL, EnvFlow

ABSINT_VERSION = "s20.1"

# control-flow outcomes a construct may have (sets of these flow upward)
NORMAL = "normal"
BREAK = "break"
CONTINUE = "continue"
EXIT = "exit"
RETURN = "return"

_ONLY_NORMAL = frozenset((NORMAL,))
#: the case pattern that matches anything: an unquoted lone ``*``
_CATCH_ALL = Word((Lit("*"),))


def _inert(word: Word) -> bool:
    """Does expansion leave ``word``'s unquoted text as is (the lexer's test)?"""
    return not ACTIVE.search("".join(p.text for p in word.parts
                                     if type(p) is Lit))


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
S_NONZERO = AbsStatus(1, 255)


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
            else {"errexit": False, "nounset": False})

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


class _Unknown(Exception):
    """A variable the static arithmetic evaluator cannot resolve."""


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
            status = S_TOP
            for cmd in node.commands:
                # each stage runs in a subshell; nothing escapes
                stage_status, _ = self._visit(cmd, st.copy(), emit, True)
                status = stage_status  # POSIX: pipeline status = last stage
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
        arms = [(node.cond, node.then_body)] + list(node.elifs)
        taken_states: list[_State] = []
        statuses: list[AbsStatus] = []
        flow_acc: set[str] = set()
        decided = False
        fell_through = True
        for cond, body in arms:
            if decided:
                self._mark_dead(cond, "an earlier guard is always true", emit)
                self._mark_dead(body, "an earlier guard is always true", emit)
                continue
            cond_status, cond_flows = self._visit(cond, st, emit, True)
            if NORMAL not in cond_flows:
                self._mark_dead(body, "the guard never falls through", emit)
                flow_acc |= set(cond_flows) - {NORMAL}
                decided = True
                fell_through = False
                continue
            flow_acc |= set(cond_flows) - {NORMAL}
            if cond_status.is_zero:
                self._finding("JS4002", "guard is always true", cond, emit,
                              context=unparse(cond))
                body_status, body_flows = self._visit(body, st, emit, guard)
                taken_states.append(st)
                statuses.append(body_status)
                flow_acc |= set(body_flows)
                decided = True
                fell_through = False
            elif cond_status.is_nonzero:
                self._finding("JS4002", "guard is always false", cond, emit,
                              context=unparse(cond))
                self._mark_dead(body, "guard is always false", emit)
            else:
                branch = st.copy()
                body_status, body_flows = self._visit(body, branch, emit,
                                                      guard)
                taken_states.append(branch)
                statuses.append(body_status)
                flow_acc |= set(body_flows)
        if decided:
            for_else_dead = node.else_body
            if for_else_dead is not None:
                self._mark_dead(for_else_dead,
                                "an earlier guard decides this `if`", emit)
        elif node.else_body is not None:
            else_state = st.copy()
            else_status, else_flows = self._visit(node.else_body, else_state,
                                                  emit, guard)
            taken_states.append(else_state)
            statuses.append(else_status)
            flow_acc |= set(else_flows)
            fell_through = False
        if fell_through and not decided:
            statuses.append(S_ZERO)  # no branch taken: status 0
            taken_states.append(st.copy())
            flow_acc.add(NORMAL)
        if not taken_states:
            return S_TOP, frozenset(flow_acc) or frozenset((EXIT,))
        merged = taken_states[0]
        for other in taken_states[1:]:
            merged.join(other)
        st.vars = merged.vars
        st.options = merged.options
        status = statuses[0]
        for s in statuses[1:]:
            status = sjoin(status, s)
        return status, frozenset(flow_acc) or frozenset((EXIT,))

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
        if not _inert(word):  # ≥1: a glob with no match stays as it is
            return 1, None, None
        if len(word.parts) == 1 and isinstance(word.parts[0], DoubleQuoted):
            return 1, 1, None  # quoted: exactly one field
        return 0, None, None

    def _fields(self, word: Word, st: _State, emit: bool,
                stmt) -> Optional[list[str]]:
        """The fields ``word`` expands to, split by the expander's own
        :func:`split_fields` under the state's ``IFS``; None when a part,
        ``IFS``, a tilde or a pathname match is unknown."""
        if word.constant is not None:
            return [word.constant]
        values = [self._part_value(part, st, emit, stmt) for part in word.parts]
        ifs = st.vars.get("IFS", UNSET)  # the shell starts with the default
        ifs = " \t\n" if ifs is UNSET else ifs.text if ifs.kind == "const" \
            else None
        if ifs is None or not _inert(word) or \
                any(value.kind != "const" for value in values):
            return None
        segments = known_segments(word.parts, [v.text for v in values])
        if segments is None:
            return None
        fields = split_fields(segments, ifs)
        if any(has_glob_chars(field) for field in fields):
            return None
        return [text_of(field) for field in fields]

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
        self._redirects(node.redirects, node, st, emit)
        subject = self._abs_word(node.word, st, emit, node)
        if subject.kind == "const" and all(
                p == _CATCH_ALL or p.constant is not None
                for item in node.items for p in item.patterns):
            return self._case_const(node, subject.text, st, emit, guard)
        statuses = [S_ZERO]  # no pattern may match: status 0
        flow_acc: set[str] = {NORMAL}
        states = [st.copy()]
        for item in node.items:
            for pat in item.patterns:
                self._abs_word(pat, st, emit, node)
            if item.body is None:
                continue
            branch = st.copy()
            s, fl = self._visit(item.body, branch, emit, guard)
            statuses.append(s)
            flow_acc |= set(fl)
            states.append(branch)
        merged = states[0]
        for other in states[1:]:
            merged.join(other)
        st.vars, st.options = merged.vars, merged.options
        status = statuses[0]
        for s in statuses[1:]:
            status = sjoin(status, s)
        return status, frozenset(flow_acc)

    def _case_const(self, node: Case, subject: str, st: _State, emit: bool,
                    guard: bool) -> tuple[AbsStatus, frozenset]:
        chosen = None
        for item in node.items:
            if chosen is None and any(p == _CATCH_ALL or p.constant == subject
                                      for p in item.patterns):
                chosen = item
            elif item.body is not None:
                self._mark_dead(item.body,
                                "case subject is constant and selects "
                                "another arm", emit)
        if chosen is None or chosen.body is None:
            return S_ZERO, _ONLY_NORMAL
        return self._visit(chosen.body, st, emit, guard)

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
        name = argv[0] if argv else None
        status, flows = self._command_status(name, argv[1:], node, st, emit,
                                             guard)
        # `set -e`: an unguarded, provably-failing command exits the shell
        if NORMAL in flows and not guard and status.is_nonzero and \
                st.options.get("errexit") is True:
            return status, frozenset((EXIT,))
        return status, flows

    def _command_status(self, name: Optional[str],
                        args: list[Optional[str]], node, st: _State,
                        emit: bool, guard: bool) -> tuple[AbsStatus, frozenset]:
        if name is None:
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
            return self._eval_test(name, args), _ONLY_NORMAL
        if name == "set":
            self._apply_set(args, st)
            return S_ZERO, _ONLY_NORMAL
        if name == "unset":
            for arg in args:
                if arg and arg.isidentifier():
                    st.vars[arg] = UNSET
            return S_ZERO, _ONLY_NORMAL
        if name in ("export", "readonly", "local"):
            for arg in args:
                if arg and "=" in arg:
                    var, _, val = arg.partition("=")
                    if var.isidentifier():
                        st.vars[var] = vconst(val)
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

    def _apply_set(self, args: list[Optional[str]], st: _State) -> None:
        tracked = {"e": "errexit", "u": "nounset"}
        for arg in args:
            if arg is None:  # dynamic: anything may have been toggled
                st.options["errexit"] = None
                st.options["nounset"] = None
                return
            if arg == "--":
                return
            if arg in ("-o", "+o"):
                continue  # the option name follows; handled below
            if arg in ("errexit", "nounset"):
                # follows -o/+o; sign unknown without lookbehind — handle
                # via index pass below instead
                continue
            if arg.startswith("-") or arg.startswith("+"):
                value = arg.startswith("-")
                for ch in arg[1:]:
                    if ch in tracked:
                        st.options[tracked[ch]] = value
            else:
                return  # positional parameters begin: no more flags
        # second pass for `-o errexit` style pairs
        concrete = [a for a in args if a is not None]
        for i, arg in enumerate(concrete[:-1]):
            if arg in ("-o", "+o"):
                opt = concrete[i + 1]
                if opt in ("errexit", "nounset"):
                    st.options[opt] = arg == "-o"

    def _eval_test(self, name: str, args: list[Optional[str]]) -> AbsStatus:
        if name == "[":
            if not args or args[-1] != "]":
                return S_TOP
            args = args[:-1]
        if any(a is None for a in args):
            return S_TOP
        return self._test_value(args)

    def _test_value(self, args: list[str]) -> AbsStatus:
        if not args:
            return S_ONE
        if args[0] == "!" and len(args) > 1:
            return snot(self._test_value(args[1:]))
        if len(args) == 1:
            return S_ONE if args[0] == "" else S_ZERO
        if len(args) == 2:
            op, operand = args
            if op == "-z":
                return S_ZERO if operand == "" else S_ONE
            if op == "-n":
                return S_ONE if operand == "" else S_ZERO
            return S_TOP  # file tests etc: runtime state
        if len(args) == 3:
            a, op, b = args
            if op == "=":
                return S_ZERO if a == b else S_ONE
            if op == "!=":
                return S_ZERO if a != b else S_ONE
            int_ops = {"-eq": "==", "-ne": "!=", "-gt": ">", "-ge": ">=",
                       "-lt": "<", "-le": "<="}
            if op in int_ops:
                try:
                    x, y = int(a), int(b)
                except ValueError:
                    return S_TOP  # test would error (status 2)
                result = {
                    "-eq": x == y, "-ne": x != y, "-gt": x > y,
                    "-ge": x >= y, "-lt": x < y, "-le": x <= y,
                }[op]
                return S_ZERO if result else S_ONE
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
        if word.constant is not None:
            return vconst(word.constant)
        result = vconst("")
        for part in word.parts:
            piece = self._part_value(part, st, emit, stmt)
            result = self._concat(result, piece)
        return result if _inert(word) else TOP

    @staticmethod
    def _concat(left: AbsValue, right: AbsValue) -> AbsValue:
        if left.kind == "const" and right.kind == "const":
            return vconst(left.text + right.text)
        return TOP

    def _part_value(self, part, st: _State, emit: bool, stmt) -> AbsValue:
        if isinstance(part, Lit):
            return vconst(part.text)
        if isinstance(part, SingleQuoted):
            return vconst(part.text)
        if isinstance(part, Escaped):
            return vconst(part.char)
        if isinstance(part, DoubleQuoted):
            result = vconst("")
            for sub in part.parts:
                result = self._concat(result,
                                      self._part_value(sub, st, emit, stmt))
            return result
        if isinstance(part, Param):
            return self._param_value(part, st, emit, stmt)
        if isinstance(part, ArithSub):
            return self._arith_value(part, st, emit, stmt)
        if isinstance(part, CmdSub):
            self._visit(part.command, st.copy(), emit, True)  # subshell
            return TOP
        return TOP  # pragma: no cover

    def _use(self, name: str, st: _State, emit: bool, stmt) -> None:
        """Record a variable read; flag JS4004 under a constant `set -u`."""
        if name in _SPECIAL or not name.isidentifier():
            return
        if st.options.get("nounset") is not True:
            return
        value = st.vars.get(name)
        provably_unset = value is UNSET or (
            value is None and name in self.all_defs)
        if provably_unset:
            self._finding(
                "JS4004",
                f"`{name}` is provably unset here: under `set -u` the "
                "shell aborts", stmt, emit, context=name)

    def _param_value(self, part: Param, st: _State, emit: bool,
                     stmt) -> AbsValue:
        name = part.name
        if name in _SPECIAL or not name.isidentifier():
            return TOP
        base = st.vars.get(name)
        op = part.op
        opn = op.lstrip(":")
        colon = op.startswith(":")
        if op == "":
            self._use(name, st, emit, stmt)
            if base is None:
                return TOP
            if base is UNSET:
                return vconst("")  # without nounset, unset expands empty
            return base
        if op == "length":
            self._use(name, st, emit, stmt)
            if base is not None and base.kind == "const":
                return vconst(str(len(base.text)))
            return TOP
        default = (self._abs_word(part.word, st, emit, stmt)
                   if part.word is not None else vconst(""))
        if opn == "-":
            if base is UNSET:
                return default
            if base is not None and base.kind == "const":
                if colon and base.text == "":
                    return default
                return base
            return TOP
        if opn == "=":
            if base is UNSET or (colon and base is not None
                                 and base.kind == "const"
                                 and base.text == ""):
                st.vars[name] = default
                return default
            if base is None:
                st.vars[name] = TOP
                return TOP
            return base if base.kind == "const" else TOP
        if opn == "+":
            if base is UNSET:
                return vconst("")
            if base is not None and base.kind == "const":
                if colon and base.text == "":
                    return vconst("")
                return default
            return TOP
        if opn == "?":
            self._use(name, st, emit, stmt)
            if base is not None and base.kind == "const":
                return base
            return TOP
        if opn in ("#", "##", "%", "%%"):
            self._use(name, st, emit, stmt)
            if base is not None and base.kind == "const" and \
                    part.word is not None:
                # a constant pattern has no active character
                pat = self._abs_word(part.word, st, emit, stmt)
                if pat.kind == "const":
                    text = base.text
                    if opn in ("#", "##"):
                        return vconst(text[len(pat.text):]
                                      if text.startswith(pat.text) else text)
                    return vconst(text[:-len(pat.text)]
                                  if pat.text and text.endswith(pat.text)
                                  else text)
            if base is not None and base.kind == "const" and \
                    part.word is None:
                return base
            return TOP
        return TOP  # pragma: no cover - PARAM_OPS is exhaustive

    def _arith_value(self, part: ArithSub, st: _State, emit: bool,
                     stmt) -> AbsValue:
        pieces: list[str] = []
        resolvable = True
        for sub in part.parts:
            if isinstance(sub, Lit):
                pieces.append(sub.text)
            elif isinstance(sub, (SingleQuoted,)):
                pieces.append(sub.text)
            elif isinstance(sub, Escaped):
                pieces.append(sub.char)
            elif isinstance(sub, Param) and sub.op == "":
                self._use(sub.name, st, emit, stmt)
                value = st.vars.get(sub.name)
                if value is not None and value.kind == "const":
                    pieces.append(value.text)
                elif value is UNSET:
                    pieces.append("")
                else:
                    resolvable = False
            else:
                if isinstance(sub, CmdSub):
                    self._visit(sub.command, st.copy(), emit, True)
                resolvable = False
        expr = "".join(pieces)
        if not resolvable:
            self._invalidate_arith_names(expr, st)
            return TOP

        def get(name: str) -> str:
            value = st.vars.get(name)
            if value is UNSET or (value is None
                                  and name not in self.all_defs):
                return ""  # unset/environmentally-absent reads as 0
            if value is not None and value.kind == "const":
                return value.text
            raise _Unknown(name)

        def set_(name: str, value: str) -> None:
            st.vars[name] = vconst(value)

        try:
            n = arith.evaluate(expr, get, set_)
        except (_Unknown, arith.ArithError):
            self._invalidate_arith_names(expr, st)
            return TOP
        return vconst(str(n))

    def _invalidate_arith_names(self, expr: str, st: _State) -> None:
        """A failed/partial evaluation may still have assigned: drop every
        name the expression mentions to ⊤ when it could assign."""
        try:
            if not arith.has_side_effects(expr):
                return
            tokens = arith.tokenize(expr)
        except arith.ArithError:
            return
        for tok in tokens:
            if tok and (tok[0].isalpha() or tok[0] == "_") and \
                    tok.isidentifier():
                st.vars[tok] = TOP


def analyze_value_flow(program: Command) -> AbsintResult:
    """Run the S20 abstract interpreter over a parsed program."""
    return ValueFlow().run(program)
