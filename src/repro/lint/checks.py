"""Static analyses over shell ASTs (ShellCheck's role, §4 'Heuristic
support': "extending the syntactic checks of ShellCheck").

Each check walks the AST and yields diagnostics.  Codes follow a JSxxx
scheme; severities: "error" > "warning" > "info".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from ..annotations.library import DEFAULT_LIBRARY
from ..dfg.from_ast import literal_argv
from ..parser import parse
from ..parser.ast_nodes import (
    AndOr,
    Assign,
    CmdSub,
    Command,
    CommandList,
    DoubleQuoted,
    For,
    If,
    Lit,
    Param,
    Pipeline,
    Redirect,
    SimpleCommand,
    While,
    Word,
    walk,
)
from ..parser.unparse import unparse_word


@dataclass
class Diagnostic:
    code: str
    severity: str  # "error" | "warning" | "info"
    message: str
    context: str = ""
    #: the AST node the diagnostic is anchored to (position sorting)
    node: object = None
    #: 1-based source position, resolved by lint(); 0 when unanchorable
    line: int = 0
    col: int = 0

    def __str__(self) -> str:
        ctx = f" [{self.context}]" if self.context else ""
        where = f"{self.line}:{self.col}: " if self.line else ""
        return f"{where}{self.code} {self.severity}: {self.message}{ctx}"


def _word_has_unquoted_param(word: Word) -> Optional[str]:
    """Name of a parameter expanded unquoted in this word, if any."""
    for part in word.parts:
        if isinstance(part, Param):
            return part.name
        if isinstance(part, CmdSub):
            return "$(...)"
    return None


def _is_dangerous_command(argv0: str) -> bool:
    return argv0 in ("rm", "mv", "dd", "mkfs", "shred")


DIAGNOSTIC_CHECKS = []


def check(fn):
    DIAGNOSTIC_CHECKS.append(fn)
    return fn


@check
def check_unquoted_expansion(program: Command) -> Iterator[Diagnostic]:
    """JS2086: unquoted $var undergoes splitting and globbing."""
    for node in walk(program):
        if not isinstance(node, SimpleCommand):
            continue
        for word in node.words[1:]:
            name = _word_has_unquoted_param(word)
            if name is not None:
                yield Diagnostic(
                    "JS2086", "info",
                    f"unquoted expansion of {name!r} is subject to word "
                    f"splitting and globbing; double-quote it",
                    unparse_word(word), node=node,
                )


@check
def check_dangerous_unquoted(program: Command) -> Iterator[Diagnostic]:
    """JS2115: rm/mv with an unquoted variable can take out the wrong
    files entirely (U1: 'a single typo could erase entire hard drives')."""
    for node in walk(program):
        if not isinstance(node, SimpleCommand) or not node.words:
            continue
        argv0 = node.words[0].literal_value() if node.words[0].is_literal() else None
        if argv0 is None or not _is_dangerous_command(argv0):
            continue
        for word in node.words[1:]:
            name = _word_has_unquoted_param(word)
            if name is not None:
                yield Diagnostic(
                    "JS2115", "warning",
                    f"{argv0} with unquoted {name!r}: an empty or "
                    f"space-containing value changes which files are removed",
                    unparse_word(word), node=node,
                )


@check
def check_useless_cat(program: Command) -> Iterator[Diagnostic]:
    """JS2002: `cat f | cmd` spends a process to do `cmd < f`."""
    for node in walk(program):
        if not isinstance(node, Pipeline) or len(node.commands) < 2:
            continue
        first = node.commands[0]
        if not isinstance(first, SimpleCommand) or not first.words:
            continue
        if not first.words[0].is_literal():
            continue
        if (first.words[0].literal_value() == "cat" and len(first.words) == 2
                and first.words[1].is_literal()):
            # a dynamic operand ($FILES) may expand to several files, in
            # which case cat is doing real concatenation work
            yield Diagnostic(
                "JS2002", "info",
                "useless cat: consider `cmd < file` (saves one process; "
                "also lets the optimizer see the input file directly)",
                unparse_word(first.words[1]), node=node,
            )


@check
def check_read_without_r(program: Command) -> Iterator[Diagnostic]:
    """JS2162: read without -r mangles backslashes."""
    for node in walk(program):
        if not isinstance(node, SimpleCommand) or not node.words:
            continue
        if not node.words[0].is_literal():
            continue
        if node.words[0].literal_value() != "read":
            continue
        flags = [w.literal_value() for w in node.words[1:] if w.is_literal()]
        if "-r" not in flags:
            yield Diagnostic(
                "JS2162", "info",
                "read without -r will mangle backslashes",
                node=node,
            )


@check
def check_cd_no_guard(program: Command) -> Iterator[Diagnostic]:
    """JS2164: cd can fail; guard it or the script continues in the
    wrong directory."""
    def guarded(node: Command) -> Iterator[Diagnostic]:
        # AndOr left sides are guarded by definition
        if isinstance(node, AndOr):
            yield from ()  # both sides guarded enough for this heuristic
            return
        if isinstance(node, SimpleCommand) and node.words:
            if node.words[0].is_literal() and node.words[0].literal_value() == "cd":
                yield Diagnostic(
                    "JS2164", "info",
                    "cd without a guard: use `cd ... || exit` "
                    "(or set -e) so failures do not cascade",
                    node=node,
                )
            return
        if isinstance(node, CommandList):
            for item in node.items:
                yield from guarded(item.command)
        elif isinstance(node, Pipeline):
            for cmd in node.commands:
                yield from guarded(cmd)
        elif hasattr(node, "body"):
            yield from guarded(node.body)

    yield from guarded(program)


@check
def check_clobber_input(program: Command) -> Iterator[Diagnostic]:
    """JS2094 (the classic `sort f > f`): redirecting output onto a file
    read in the same pipeline truncates it before it is read."""
    for node in walk(program):
        if isinstance(node, Pipeline):
            commands = node.commands
        elif isinstance(node, SimpleCommand):
            commands = (node,)
        else:
            continue
        reads: set[str] = set()
        writes: set[str] = set()
        for cmd in commands:
            if not isinstance(cmd, SimpleCommand):
                continue
            for word in cmd.words[1:]:
                if word.is_literal():
                    reads.add(word.literal_value())
            for redirect in cmd.redirects:
                if not redirect.target.is_literal():
                    continue
                target = redirect.target.literal_value()
                if redirect.op == "<":
                    reads.add(target)
                elif redirect.op in (">", ">>", ">|"):
                    writes.add(target)
        for path in sorted(reads & writes):
            yield Diagnostic(
                "JS2094", "error",
                f"{path!r} is both read and truncated by this pipeline: "
                f"the input is destroyed before it is fully read",
                path, node=node,
            )


@check
def check_backticks(program: Command) -> Iterator[Diagnostic]:
    """JS2006: backticks nest badly; prefer $(...)."""
    for node in walk(program):
        if isinstance(node, CmdSub) and node.backtick:
            yield Diagnostic(
                "JS2006", "info",
                "backtick command substitution: prefer $(...) "
                "(nests and quotes sanely)",
                node=node,
            )


@check
def check_glob_in_for(program: Command) -> Iterator[Diagnostic]:
    """JS2045: iterating `for x in $(ls ...)` breaks on spaces; use
    globs directly."""
    for node in walk(program):
        if not isinstance(node, For) or node.words is None:
            continue
        for word in node.words:
            for part in word.parts:
                if isinstance(part, CmdSub):
                    inner = part.command
                    for sub in walk(inner):
                        if (isinstance(sub, SimpleCommand) and sub.words
                                and sub.words[0].is_literal()
                                and sub.words[0].literal_value() == "ls"):
                            yield Diagnostic(
                                "JS2045", "warning",
                                "for x in $(ls ...): filenames with spaces "
                                "break; iterate a glob instead",
                                node=node,
                            )


@check
def check_var_assigned_spaces(program: Command) -> Iterator[Diagnostic]:
    """JS1068: `x = 1` runs a command named x; assignments take no
    spaces."""
    for node in walk(program):
        if not isinstance(node, SimpleCommand) or len(node.words) < 3:
            continue
        w0, w1 = node.words[0], node.words[1]
        if (w0.is_literal() and w1.is_literal() and w1.literal_value() == "="
                and w0.literal_value().isidentifier()):
            yield Diagnostic(
                "JS1068", "error",
                f"`{w0.literal_value()} = ...` runs the command "
                f"{w0.literal_value()!r}; remove the spaces to assign",
                node=node,
            )


def _literal_argv(node: Command) -> Optional[list[str]]:
    return literal_argv(node) if isinstance(node, SimpleCommand) else None


def _sets_errexit_or_pipefail(program: Command) -> bool:
    """Does the script ever run ``set -e`` / ``set -o pipefail`` (in any
    combined-flag spelling)?"""
    for node in walk(program):
        argv = _literal_argv(node)
        if not argv or argv[0] != "set":
            continue
        for i, arg in enumerate(argv[1:], start=1):
            if arg.startswith("-") and arg != "-" and "e" in arg[1:]:
                return True
            if arg == "-o" and i + 1 < len(argv) and argv[i + 1] == "pipefail":
                return True
    return False


def _status_checked_pipelines(program: Command) -> set[int]:
    """ids of Pipeline nodes whose exit status the script observes:
    conditions of if/while/until, either side of && / ||, and ``!``."""
    checked: set[int] = set()

    def mark(sub: Command) -> None:
        for node in walk(sub):
            if isinstance(node, Pipeline):
                checked.add(id(node))

    for node in walk(program):
        if isinstance(node, If):
            mark(node.cond)
            for cond, _body in node.elifs:
                mark(cond)
        elif isinstance(node, While):
            mark(node.cond)
        elif isinstance(node, AndOr):
            mark(node.left)
        elif isinstance(node, Pipeline) and node.negated:
            checked.add(id(node))
    return checked


@check
def check_unchecked_failure(program: Command) -> Iterator[Diagnostic]:
    """JS2250: a producer stage's failure vanishes — the pipeline's
    status is the last stage's, and nothing observes the rest.  A cat
    hitting EIO mid-pipe then looks exactly like a short input (the
    silent-truncation failure mode the fault-injection layer exposes);
    ``set -o pipefail`` or ``set -e`` makes it loud."""
    if _sets_errexit_or_pipefail(program):
        return
    checked = _status_checked_pipelines(program)
    for node in walk(program):
        if not isinstance(node, Pipeline) or len(node.commands) < 2:
            continue
        if id(node) in checked:
            continue
        for cmd in node.commands[:-1]:
            argv = _literal_argv(cmd)
            if argv is None:
                continue
            spec = DEFAULT_LIBRARY.classify(argv[0], argv[1:])
            if spec is None or not spec.input_operands:
                continue  # stdin-fed stages fail with their feeder
            yield Diagnostic(
                "JS2250", "info",
                f"{argv[0]} reads files and can fail, but this pipeline "
                f"discards its exit status; set -o pipefail (or set -e) "
                f"so a producer failure is not mistaken for short input",
                " ".join(argv), node=node,
            )
            break  # one diagnostic per pipeline


def resolve_positions(program: Command,
                      positions: dict[int, tuple[int, int]]) -> dict:
    """Extend the parser's statement-level (line, col) table to every
    descendant: a node inherits its innermost recorded ancestor (walk
    order visits parents first, so inner entries overwrite outer)."""
    resolved: dict[int, tuple[int, int]] = {}
    for node in walk(program):
        where = positions.get(id(node))
        if where is None:
            continue
        for sub in walk(node):
            resolved[id(sub)] = where
        resolved[id(node)] = where
    return resolved


def lint(source: str) -> list[Diagnostic]:
    """Run every registered check over a script.

    The order is deterministic across runs and interpreter processes
    (hash randomization cannot reorder it): severity first, then the
    anchor node's source position (line, col — falling back to the AST
    walk index for unanchored nodes), then code and message.  Every
    diagnostic gets ``line``/``col`` filled in from the parser's
    position side-table."""
    from ..parser import parse_with_positions

    program, positions = parse_with_positions(source)
    resolved = resolve_positions(program, positions)
    diagnostics: list[Diagnostic] = []
    for fn in DIAGNOSTIC_CHECKS:
        diagnostics.extend(fn(program))
    for d in diagnostics:
        d.line, d.col = resolved.get(id(d.node), (0, 0))
    severity_rank = {"error": 0, "warning": 1, "info": 2}
    position = {id(node): i for i, node in enumerate(walk(program))}
    unanchored = len(position)
    diagnostics.sort(key=lambda d: (
        severity_rank[d.severity],
        position.get(id(d.node), unanchored),
        d.code, d.message, d.context,
    ))
    return diagnostics


def check_jobs_eligibility(program, analysis, jobs: int):
    """JS2260: ``--jobs N`` (N > 1) was requested but no statement both
    matches a poolable region shape and carries a ``safe_parallel``
    certificate — the S21 worker pool would stay idle for the whole run.
    Not a registered check: it needs the requested job count, so the
    CLI invokes it directly when ``--jobs`` is given."""
    if jobs <= 1:
        return None
    from ..parallel_host.regions import eligible_region_count

    matched, cleared = eligible_region_count(program, analysis)
    if cleared:
        return None
    detail = (f"{matched} shape-matched region(s) lack certificates"
              if matched else
              "no statement matches a poolable region shape")
    return Diagnostic(
        "JS2260", "warning",
        f"--jobs {jobs} requested but no region carries a safe_parallel "
        f"certificate; the worker pool will stay idle",
        detail,
    )
