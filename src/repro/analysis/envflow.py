"""Reaching definitions for shell variables over the structured CFG.

Walks the AST in execution order maintaining the *may-defined* variable
set, with the control-flow joins the shell's constructs induce:

* ``if``/``case`` — defs from any branch may reach the join (union);
* ``while``/``for``/``until`` — the loop body is visited twice so defs
  flowing around the back edge reach uses at the loop head (a two-pass
  fixpoint: the may-defined union is monotone and one extra pass
  saturates it);
* ``&&``/``||`` — left always runs; right's defs may reach onward;
* **pipelines** with ≥2 stages and ``$(...)``/``(...)``/``&`` bodies run
  in subshells: their defs are collected (for the defined-*somewhere*
  filter) but do not escape — which is exactly how the classic
  ``echo x | read v; echo $v`` gotcha becomes statically detectable;
* function bodies are inlined at call sites (defs escape, POSIX
  variables are global) with a recursion guard.

A *use-before-def* is reported for a variable that is read at a point
where no definition may reach it **and** is defined somewhere in the
script — variables never defined anywhere are assumed to come from the
parent environment and stay silent.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    Param,
    Pipeline,
    Redirect,
    SimpleCommand,
    Subshell,
    While,
    Word,
)

#: parameters that are never script-defined variables ($1, $?, $@, ...)
_SPECIAL = frozenset("0123456789*@#?-$!")


@dataclass(frozen=True)
class VarUse:
    """One variable read with no reaching definition."""

    name: str
    #: the innermost statement node containing the use (for positions)
    node: object
    context: str = ""


class EnvFlow:
    """One-shot analysis: ``EnvFlow().run(program)``."""

    def __init__(self) -> None:
        self.functions: dict[str, Command] = {}
        self._stack: list[str] = []
        self._pending: list[tuple[str, object]] = []  # unreached uses
        self.all_defs: set[str] = set()

    def run(self, program: Command) -> list[VarUse]:
        defined: set[str] = set()
        self._visit(program, defined, emit=True)
        seen: set[tuple[str, int]] = set()
        out: list[VarUse] = []
        for name, node in self._pending:
            if name not in self.all_defs:
                continue  # environment-provided: not our business
            key = (name, id(node))
            if key in seen:
                continue
            seen.add(key)
            out.append(VarUse(name, node))
        return out

    # -- definitions --------------------------------------------------------------

    def _define(self, name: str, defined: set[str]) -> None:
        defined.add(name)
        self.all_defs.add(name)

    # -- the walk -----------------------------------------------------------------

    def _visit(self, node: Command, defined: set[str], emit: bool) -> None:
        if isinstance(node, SimpleCommand):
            self._simple(node, defined, emit)
        elif isinstance(node, Pipeline):
            if len(node.commands) == 1:
                self._visit(node.commands[0], defined, emit)
            else:
                for cmd in node.commands:  # each stage: its own subshell
                    self._visit(cmd, set(defined), emit)
        elif isinstance(node, AndOr):
            self._visit(node.left, defined, emit)
            self._visit(node.right, defined, emit)
        elif isinstance(node, CommandList):
            for item in node.items:
                if item.is_async:  # background job: subshell
                    self._visit(item.command, set(defined), emit)
                else:
                    self._visit(item.command, defined, emit)
        elif isinstance(node, Subshell):
            self._redirect_uses(node.redirects, node, defined, emit)
            self._visit(node.body, set(defined), emit)
        elif isinstance(node, BraceGroup):
            self._redirect_uses(node.redirects, node, defined, emit)
            self._visit(node.body, defined, emit)
        elif isinstance(node, If):
            self._redirect_uses(node.redirects, node, defined, emit)
            self._visit(node.cond, defined, emit)
            branches = [node.then_body] + [b for _, b in node.elifs]
            merged = set(defined)
            for cond, _body in node.elifs:
                self._visit(cond, defined, emit)
            if node.else_body is not None:
                branches.append(node.else_body)
            for body in branches:
                branch_defs = set(defined)
                self._visit(body, branch_defs, emit)
                merged |= branch_defs
            defined |= merged
        elif isinstance(node, While):
            self._redirect_uses(node.redirects, node, defined, emit)
            # pass 1 (silent): saturate may-defs around the back edge
            self._visit(node.cond, defined, emit=False)
            self._visit(node.body, defined, emit=False)
            # pass 2: report with the saturated set
            self._visit(node.cond, defined, emit)
            self._visit(node.body, defined, emit)
        elif isinstance(node, For):
            self._redirect_uses(node.redirects, node, defined, emit)
            for word in node.words or ():
                self._word(word, node, defined, emit)
            self._define(node.var, defined)
            self._visit(node.body, defined, emit=False)
            self._visit(node.body, defined, emit)
        elif isinstance(node, Case):
            self._redirect_uses(node.redirects, node, defined, emit)
            self._word(node.word, node, defined, emit)
            merged = set(defined)
            for item in node.items:
                for pat in item.patterns:
                    self._word(pat, node, defined, emit)
                if item.body is not None:
                    branch_defs = set(defined)
                    self._visit(item.body, branch_defs, emit)
                    merged |= branch_defs
            defined |= merged
        elif isinstance(node, FuncDef):
            self.functions[node.name] = node.body

    def _simple(self, node: SimpleCommand, defined: set[str], emit: bool) -> None:
        for assign in node.assigns:
            self._word(assign.word, node, defined, emit)
            self._define(assign.name, defined)
        for word in node.words:
            self._word(word, node, defined, emit)
        self._redirect_uses(node.redirects, node, defined, emit)
        name = node.words[0].constant if node.words else None
        if name is None:
            return
        operands = [arg for arg in (w.constant for w in node.words[1:])
                    if arg is not None and not arg.startswith("-")]
        if name in ("read", "export", "readonly", "unset", "local", "getopts"):
            for op in operands:
                var = op.partition("=")[0]
                if var.isidentifier():
                    self._define(var, defined)
        elif name in self.functions and name not in self._stack:
            self._stack.append(name)
            try:
                self._visit(self.functions[name], defined, emit)
            finally:
                self._stack.pop()

    def _redirect_uses(self, redirects: tuple[Redirect, ...], stmt,
                       defined: set[str], emit: bool) -> None:
        for redirect in redirects:
            self._word(redirect.target, stmt, defined, emit)
            if redirect.heredoc is not None:
                self._word(redirect.heredoc, stmt, defined, emit)

    # -- words --------------------------------------------------------------------

    def _word(self, word: Word, stmt, defined: set[str], emit: bool) -> None:
        for part in word.parts:
            self._part(part, stmt, defined, emit)

    def _part(self, part, stmt, defined: set[str], emit: bool) -> None:
        if isinstance(part, Param):
            # ${x-d} / ${x:=d} / ${x+d} / ${x:?msg} explicitly handle the
            # unset case — that is the POSIX idiom for maybe-unset
            # variables, not a use-before-def bug
            if part.op.lstrip(":") not in ("-", "=", "+", "?"):
                self._use(part.name, stmt, defined, emit)
            if part.word is not None:
                self._word(part.word, stmt, defined, emit)
            if part.op.lstrip(":") == "=":
                self._define(part.name, defined)
        elif isinstance(part, DoubleQuoted):
            for sub in part.parts:
                self._part(sub, stmt, defined, emit)
        elif isinstance(part, ArithSub):
            for sub in part.parts:
                self._part(sub, stmt, defined, emit)
        elif isinstance(part, CmdSub):
            self._visit(part.command, set(defined), emit)  # subshell

    def _use(self, name: str, stmt, defined: set[str], emit: bool) -> None:
        if name in _SPECIAL or not name.isidentifier():
            return
        if emit and name not in defined:
            self._pending.append((name, stmt))


def use_before_def(program: Command) -> list[VarUse]:
    """All variable uses no definition may reach (see module docstring)."""
    return EnvFlow().run(program)
