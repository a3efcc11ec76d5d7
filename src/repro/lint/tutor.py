"""The shell tutor (§4 'Heuristic support').

"The tutor could use the library of specifications as a database to
either answer queries about particular commands or to guide users while
they develop a script."

:func:`tutor` reviews a whole script and produces structured guidance
per statement: what each stage does (from the spec library), whether
the optimizer could parallelize it (and what blocks it), lint findings,
and rewrite suggestions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..annotations.library import DEFAULT_LIBRARY
from ..annotations.model import ParClass, SpecLibrary
from ..dfg.from_ast import extract_region
from ..parser import parse, unparse
from ..parser.ast_nodes import (
    Command,
    CommandList,
    Pipeline,
    SimpleCommand,
    walk,
)
from ..semantics.purity import check_words
from .checks import Diagnostic, lint
from .explain import COMMAND_SUMMARIES


@dataclass
class StatementAdvice:
    text: str
    summary: list[str] = field(default_factory=list)
    optimization: str = ""
    suggestions: list[str] = field(default_factory=list)


@dataclass
class TutorReport:
    statements: list[StatementAdvice]
    diagnostics: list[Diagnostic]

    def render(self) -> str:
        lines: list[str] = []
        for i, stmt in enumerate(self.statements, 1):
            lines.append(f"statement {i}: {stmt.text}")
            for item in stmt.summary:
                lines.append(f"    {item}")
            if stmt.optimization:
                lines.append(f"  ⚙ {stmt.optimization}")
            for suggestion in stmt.suggestions:
                lines.append(f"  → {suggestion}")
        if self.diagnostics:
            lines.append("")
            lines.append("lint findings:")
            for diag in self.diagnostics:
                lines.append(f"  {diag}")
        return "\n".join(lines)


def _statement_nodes(program: CommandList):
    for item in program.items:
        yield item.command


def _pipeline_commands(node: Command) -> Optional[list[SimpleCommand]]:
    if isinstance(node, SimpleCommand):
        return [node]
    if isinstance(node, Pipeline) and all(
        isinstance(c, SimpleCommand) for c in node.commands
    ):
        return list(node.commands)
    return None


def _advise_statement(node: Command, library: SpecLibrary) -> StatementAdvice:
    advice = StatementAdvice(unparse(node))
    commands = _pipeline_commands(node)
    if commands is None:
        advice.summary.append("(compound statement: analyzed per inner command)")
        return advice

    dynamic_stage = False
    parallel_stages = 0
    blockers: list[str] = []
    for cmd in commands:
        if not cmd.words:
            continue
        if not cmd.words[0].is_literal():
            advice.summary.append("· (dynamic command name — resolved at run time)")
            dynamic_stage = True
            continue
        name = cmd.words[0].literal_value()
        summary = COMMAND_SUMMARIES.get(name, "external command")
        literal = all(w.is_literal() for w in cmd.words)
        argv = ([w.literal_value() for w in cmd.words[1:]] if literal else [])
        spec = library.classify(name, argv) if literal else library.classify(name, [])
        if not literal:
            dynamic_stage = True
        line = f"· {name}: {summary}"
        if spec is not None:
            if spec.parallelizable:
                parallel_stages += 1
            elif spec.par_class is ParClass.SIDE_EFFECTFUL:
                blockers.append(f"{name} writes outside the pipeline")
            else:
                blockers.append(f"{name} must see its whole input in order")
        else:
            blockers.append(f"{name} has no specification (unknown behaviour)")
        advice.summary.append(line)

    region = extract_region(node, library)
    purity = check_words(
        [w for cmd in commands for w in cmd.words]
    )
    clobbered = region and region.clobbered_input("/")  # no cwd known
    if clobbered:
        advice.optimization = (
            f"the output file {clobbered!r} is also an input: the shell "
            "truncates it before it is read, so no optimizer runs this")
    elif region is not None and region.parallelizable:
        advice.optimization = (
            f"{parallel_stages}/{len(commands)} stages parallelizable: "
            "an optimizer (PaSh ahead-of-time, or Jash at run time) can "
            "data-parallelize this pipeline"
        )
    elif dynamic_stage and purity.pure:
        advice.optimization = (
            "contains run-time expansions: an ahead-of-time optimizer "
            "must skip it, but Jash can expand safely (the words are "
            "side-effect free) and optimize just-in-time"
        )
    elif dynamic_stage:
        advice.optimization = (
            "expansions here have side effects "
            f"({'; '.join(purity.reasons[:2])}): even a JIT must "
            "interpret this statement"
        )
    elif blockers:
        advice.optimization = "not parallelizable: " + "; ".join(blockers[:2])

    # rewrite suggestions
    if commands and commands[0].words and commands[0].words[0].is_literal():
        first = commands[0]
        if (first.words[0].literal_value() == "cat"
                and len(first.words) == 2 and len(commands) > 1):
            nxt = commands[1]
            if nxt.words and nxt.words[0].is_literal():
                advice.suggestions.append(
                    f"`cat X | {nxt.words[0].literal_value()}` can be "
                    f"`{nxt.words[0].literal_value()} < X` — one fewer "
                    "process, and the optimizer sees the input file"
                )
    for cmd in commands:
        if not cmd.words or not cmd.words[0].is_literal():
            continue
        name = cmd.words[0].literal_value()
        argv = [w.literal_value() for w in cmd.words[1:] if w.is_literal()]
        if name == "sort" and "-u" not in argv:
            idx = commands.index(cmd)
            if idx + 1 < len(commands):
                nxt = commands[idx + 1]
                if (nxt.words and nxt.words[0].is_literal()
                        and nxt.words[0].literal_value() == "uniq"
                        and len(nxt.words) == 1):
                    advice.suggestions.append(
                        "`sort | uniq` is `sort -u` — fewer processes and "
                        "a cheaper parallel merge"
                    )
        if name == "grep" and argv and commands.index(cmd) + 1 < len(commands):
            nxt = commands[commands.index(cmd) + 1]
            if (nxt.words and nxt.words[0].is_literal()
                    and nxt.words[0].literal_value() == "wc"
                    and [w.literal_value() for w in nxt.words[1:]
                         if w.is_literal()] == ["-l"]):
                advice.suggestions.append(
                    "`grep PAT | wc -l` is `grep -c PAT` — and -c "
                    "aggregates with a cheap sum when parallelized"
                )
    return advice


def tutor(source: str, library: Optional[SpecLibrary] = None) -> TutorReport:
    """Review a script: per-statement guidance plus lint diagnostics."""
    library = library or DEFAULT_LIBRARY
    program = parse(source)
    statements = []
    for node in _statement_nodes(program):
        statements.append(_advise_statement(node, library))
    return TutorReport(statements, lint(source))
