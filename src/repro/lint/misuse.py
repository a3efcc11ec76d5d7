"""Spec-driven command misuse detection (§4 'Heuristic support').

"Building on the JIT execution framework and the command specification
libraries, one could develop a sound JIT analysis that detects command
misuse at runtime (but still before it occurs)."

:class:`MisuseGuard` is an interpreter hook that *never executes
anything itself*: it inspects each expanded command just before it runs
(full runtime information, so no false alarms about unexpanded
variables) and records/report findings.  In ``enforce`` mode a finding
with severity "error" blocks the command (exit 125) instead of letting
it destroy data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..annotations.library import DEFAULT_LIBRARY
from ..annotations.model import SpecLibrary
from ..commands.base import REGISTRY, UsageError, parse_args
from ..dfg.from_ast import clobbered_sink, operands
from ..jit.frontend import expand_stage_words, pipeline_stages, purity_reason
from ..parser.ast_nodes import Command
from ..parser.unparse import unparse
from ..vos.fs import normalize

@dataclass
class Finding:
    code: str
    severity: str
    message: str
    command: str


@dataclass
class MisuseConfig:
    library: SpecLibrary = field(default_factory=lambda: DEFAULT_LIBRARY)
    #: block commands with error-severity findings
    enforce: bool = False


class MisuseGuard:
    """Interpreter optimizer-hook that checks, warns, and (optionally)
    blocks — then lets the interpreter run the command normally."""

    def __init__(self, config: Optional[MisuseConfig] = None):
        self.config = config or MisuseConfig()
        self.findings: list[Finding] = []

    def try_execute(self, interp, proc, node: Command):
        stages = pipeline_stages(node)
        if stages is None or purity_reason(stages) is not None:
            return None  # cannot expand soundly; stay out of the way
            yield  # pragma: no cover - generator shape
        words = yield from expand_stage_words(interp, proc, stages)
        text, cwd = unparse(node), interp.state.cwd
        specs = [self.config.library.classify(argv[0], argv[1:])
                 if argv else None for argv, _redirects in words]
        blocking = False
        for (argv, _redirects), spec in zip(words, specs):
            if argv:
                blocking |= self._check_argv(argv, spec, proc, cwd, text)
        # pipeline-level: an output redirection truncates an input that
        # is still unread — whether or not the pipeline is a region
        sink = clobbered_sink(words, specs, cwd)
        if sink is not None:
            self.findings.append(Finding(
                "JM001", "error",
                f"output redirection truncates input file "
                f"{sink!r} before it is read", text,
            ))
            blocking = True
        if blocking and self.config.enforce:
            yield from interp.write_err(
                proc, f"jash-guard: blocked: {self.findings[-1].message}"
            )
            return 125
        return None

    def _check_argv(self, argv: list[str], spec, proc, cwd: str,
                    text: str) -> bool:
        """Record findings for one expanded argv and its spec (or None);
        returns True when an error-severity finding should block."""
        name = argv[0]
        blocking = False
        if name not in REGISTRY and name not in ("cd", "read", "echo"):
            if self.config.library.get(name) is None:
                self.findings.append(Finding(
                    "JM404", "warning",
                    f"{name!r}: unknown command (no spec, not installed)",
                    text,
                ))
                return False
        # the command's own grammar: what it would refuse, in its words
        try:
            parse_args(name, argv[1:])
        except UsageError as err:
            self.findings.append(Finding("JM002", "warning",
                                         f"{name}: {err}", text))
        # missing input files (the operands the spec reads), before
        # the pipeline is spawned
        for path in operands(argv, spec) if spec is not None else ():
            if path != "-" and not proc.fs.exists(normalize(path, cwd)):
                self.findings.append(Finding(
                    "JM003", "warning",
                    f"{name}: input file {path!r} does not exist "
                    f"(detected before execution)", text,
                ))
        # rm with glob-expanded everything
        if name == "rm":
            targets = [a for a in argv[1:] if not a.startswith("-")]
            if any(t in ("/", "/*") for t in targets):
                self.findings.append(Finding(
                    "JM911", "error",
                    "rm of the filesystem root requested", text,
                ))
                blocking = True
        return blocking

    def report(self) -> str:
        return "\n".join(
            f"[{f.severity:>7}] {f.code}: {f.message}" for f in self.findings
        )
