"""Static race detection between concurrently-executing statements.

The shell's concurrency construct is the background job: ``cmd &`` keeps
running while the statements after it execute, until a ``wait`` seals
it.  For every command list the detector tracks the set of *active*
background jobs and reports abstract-path conflicts between a job's
effects and each statement that may overlap it:

* **write-write** — both write a file that may be the same (corrupted
  or order-dependent output; the classic ``sort a > out & sort b > out``);
* **read-before-seal** — a statement reads a file a still-running job
  writes: it may observe a partial region output (the job's output is
  consumed before the region is sealed by ``wait``);
* **write-under-read** — a statement rewrites a file a running job is
  still reading.

Overlaps through ⊤ (a path with no known prefix) are *not* reported —
the detector prefers silence to guessing.  An opaque command (one the
library cannot classify) may have effects the analyzer cannot see, so
races through them can be *missed*; its redirections are still precise,
so races through its ``> file`` targets are still caught.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..parser.ast_nodes import Command, CommandList, SimpleCommand, walk
from ..parser.unparse import unparse
from .effects import Conflict, EffectAnalyzer, conflicts

#: conflict kind -> race kind
_KINDS = {
    "write-write": "write-write",
    "write-read": "read-before-seal",
    "read-write": "write-under-read",
}


@dataclass(frozen=True)
class RaceFinding:
    kind: str        # "write-write" | "read-before-seal" | "write-under-read"
    path: str        # display form of the conflicting abstract path
    job_text: str    # the background job
    stmt_text: str   # the overlapping statement
    job_node: object
    stmt_node: object

    def display(self) -> str:
        return (f"{self.kind} on {self.path}: `{self.job_text} &` "
                f"overlaps `{self.stmt_text}`")

    def to_dict(self) -> dict:
        return {"kind": self.kind, "path": self.path,
                "job": self.job_text, "statement": self.stmt_text}


def _is_wait(node: Command) -> bool:
    return (isinstance(node, SimpleCommand) and node.words
            and node.words[0].constant == "wait")


def detect_races(program: Command,
                 effects: EffectAnalyzer | None = None) -> list[RaceFinding]:
    """All races between background jobs and overlapping statements, in
    every command list of the program (walk order)."""
    effects = effects or EffectAnalyzer()
    effects.register_functions(program)
    findings: list[RaceFinding] = []
    for node in walk(program):
        if isinstance(node, CommandList):
            _scan_list(node, effects, findings)
    return findings


def _scan_list(node: CommandList, effects: EffectAnalyzer,
               findings: list[RaceFinding]) -> None:
    # active background jobs: (node, summary); a `wait` seals them all
    # (pid operands cannot be resolved statically, so any wait seals)
    active: list[tuple[object, object]] = []
    for item in node.items:
        cmd = item.command
        if _is_wait(cmd):
            active.clear()
            continue
        summary = effects.compute(cmd)
        for job_node, job_summary in active:
            for c in conflicts(job_summary, summary):
                findings.append(_finding(c, job_node, cmd))
        if item.is_async:
            active.append((cmd, summary))


def _finding(conflict: Conflict, job_node, stmt_node) -> RaceFinding:
    return RaceFinding(
        _KINDS[conflict.kind],
        conflict.path.display(),
        unparse(job_node),
        unparse(stmt_node),
        job_node,
        stmt_node,
    )
