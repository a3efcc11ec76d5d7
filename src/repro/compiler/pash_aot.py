"""The PaSh-style ahead-of-time compiler (S7, the paper's baseline E2).

Reproduces the three characteristics the paper ascribes to PaSh:

1. annotation-driven rewriting of pipelines into parallel dataflow
   graphs;
2. **ahead-of-time** operation — it sees the *unexpanded* AST, so any
   region containing ``$FILES``-style dynamic words is skipped ("an
   ahead-of-time compiler has no knowledge of the input files ...
   neither PaSh nor POSH optimize this script", §3.2);
3. **resource obliviousness** — a fixed parallelization width and a
   materializing split that "assumes a machine with high storage
   throughput and lots of available storage space for buffering".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..annotations.library import DEFAULT_LIBRARY
from ..annotations.model import SpecLibrary
from ..dfg.from_ast import Region, extract_region
from ..parser.ast_nodes import Command, Pipeline, SimpleCommand
from ..parser.unparse import unparse
from .decisions import DecisionLog
from .driver import fs_file_sizes
from .parallel import parallelize
from .transactional import UNREPLAYABLE, run_region


_NOT_EXTRACTABLE = ("region not extractable ahead-of-time (dynamic words, "
                    "unknown commands, or unsupported redirects)")


@dataclass
class PashConfig:
    width: int = 8
    #: split modes in preference order; materialize first (batch PaSh)
    modes: tuple[str, ...] = ("materialize", "rr")
    library: SpecLibrary = field(default_factory=lambda: DEFAULT_LIBRARY)


class PashOptimizer(DecisionLog):
    """AOT compiler pass + interpreter hook.

    ``compile_program`` runs before execution (the preprocessing step a
    real PaSh performs on the script text): it records which AST nodes
    are transformable.  At run time ``try_execute`` only fires for those
    pre-approved nodes — inner pipeline stages executing in subshells
    are *not* re-analyzed, because an AOT system never sees them as
    standalone commands."""

    engine = "pash"

    def __init__(self, config: Optional[PashConfig] = None):
        super().__init__()
        self.config = config or PashConfig()
        #: id -> (node, its region); holding the node keeps its id unique
        self._approved: dict[int, tuple[Command, Region]] = {}
        self._analysis = None

    def compile_program(self, program: Command, kernel=None) -> None:
        """The ahead-of-time pass: walk the static AST and mark the
        statement-level pipelines/commands whose regions extract.
        The S16 certificates are checked first: an ``unsafe`` one rejects
        a node before region extraction is even attempted (the verdicts
        coincide — an impure expansion always involves dynamic words,
        which AOT extraction rejects too — so the certificate just
        answers first and records why).  The S20
        dead-branch facts reject provably unreachable nodes — a dead
        node carries *no* certificate, so without the explicit
        check it would fall through to region extraction and could be
        approved.  The facts hold for any file system: the pass sees
        none ("an ahead-of-time compiler has no knowledge of the input
        files"), and no process runs it: its skips are recorded, not told."""
        from ..analysis import analyze_program
        from ..parser.ast_nodes import walk

        self.analysed = True
        self._analysis = analyze_program(program, self.config.library)
        certs = self._analysis.certificates
        dead = self._analysis.dead_nodes()
        if kernel is not None and kernel.observer is not None:
            kernel.observer.on_analysis(kernel.now, self.engine,
                                        self._analysis)
        inside_pipeline = {id(stage) for node in walk(program)
                           if isinstance(node, Pipeline)
                           for stage in node.commands}
        for node in walk(program):
            if isinstance(node, Pipeline) or (
                isinstance(node, SimpleCommand)
                and id(node) not in inside_pipeline
            ):
                if id(node) in dead:
                    self.decide(None, unparse(node), "skipped",
                                "provably unreachable (S20 dead-branch fact)")
                    continue
                if id(node) in certs:
                    self.cert_hits += 1
                    if certs[id(node)] is not None:
                        self.decide(None, unparse(node), "skipped",
                                    f"static certificate: {certs[id(node)]}")
                        continue
                region = extract_region(node, self.config.library)
                if region is None:
                    self.decide(None, unparse(node), "skipped",
                                _NOT_EXTRACTABLE)
                elif not region.parallelizable:
                    self.decide(None, unparse(node), "skipped",
                                "no parallelizable stage")
                else:
                    self._approved[id(node)] = (node, region)

    def try_execute(self, interp, proc, node: Command):
        region = self._approved.get(id(node), (node, None))[1]
        if region is None and not self.analysed:
            # no compile pass ran: read the node now
            region = extract_region(node, self.config.library)
            if region is None:
                self.decide(proc, unparse(node), "skipped", _NOT_EXTRACTABLE)
        if region is None or not region.parallelizable:
            return None
            yield  # pragma: no cover - keep generator shape
        text = unparse(node)
        if region.clobbered_input(interp.state.cwd) is not None:
            return self.decide(proc, text, "skipped",
                               "output sink is also an input")
        file_sizes = fs_file_sizes(proc.fs, interp.state.cwd)
        plan = None
        for mode in self.config.modes:
            plan = parallelize(region, self.config.width, mode,
                               file_sizes=file_sizes)
            if plan is not None:
                break
        if plan is None:
            return self.decide(proc, text, "skipped",
                               "no applicable split mode")
        # no width ladder: the resource-oblivious compiler goes straight
        # from its fixed width to the interpreter
        run = yield from run_region(plan, proc, interp.state.cwd, "aot", text)
        faulted = run.report.fault_failures
        if run.status is None:
            return self.decide(proc, text, "interpreted",
                               f"fault fallback to interpreter after "
                               f"{run.report.attempts} attempts",
                               plan_description=plan.description,
                               fault_failures=faulted)
        self.decide(proc, text, "degraded" if faulted else "optimized",
                    UNREPLAYABLE if run.report.unreplayable else
                    f"fixed width {self.config.width}"
                    + (f", {faulted} fault-suspected attempts "
                       "rolled back" if faulted else ""),
                    plan_description=plan.description, fault_failures=faulted)
        return run.status
