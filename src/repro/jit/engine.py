"""Jash — 'Just a shell' (S9/E3): the paper's proposal.

"Jash inspects each shell command as it comes in to identify candidates
for rewriting. Since Jash works dynamically, it can take into account
current system conditions to decide whether to even try to apply
optimizations."

The engine is an interpreter hook (see
:meth:`repro.semantics.interp.Interpreter.exec`): for each pipeline or
simple command it

1. checks that expanding the words is **side-effect free** (the purity
   analysis over the Smoosh-style semantics — soundness);
2. expands words early with full runtime state (B2 made tractable);
3. classifies the stages against the annotation library (E2) into a
   dataflow region;
4. probes the machine (file sizes, disk burst credits, load);
5. asks the resource-aware optimizer for a plan, with a no-regression
   objective; and
6. either executes the transformed dataflow graph or *returns to the
   interpreter* ("switching back and forth between interpretation and
   optimization").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..analysis.certificates import UNKNOWN, verdict
from ..annotations.library import DEFAULT_LIBRARY
from ..annotations.model import SpecLibrary
from ..compiler.decisions import DecisionLog
from ..compiler.driver import fs_file_sizes
from ..compiler.optimizer import Decision, OptimizerConfig, ResourceAwareOptimizer
from ..compiler.parallel import parallelize
from ..compiler.transactional import UNREPLAYABLE, run_region
from ..parser.ast_nodes import Command
from ..parser.unparse import unparse
from .runtime_info import measure_input, probe_machine, region_input_files


@dataclass
class JashConfig:
    library: SpecLibrary = field(default_factory=lambda: DEFAULT_LIBRARY)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    #: CPU seconds for the cheap pre-screen (purity walk + expansion +
    #: stat): charged on every candidate node
    probe_cost_s: float = 2e-5
    #: reduced pre-screen cost when the compile-once pass already
    #: answered the purity question (expansion + stat remain; the walk
    #: is gone) — the compile-once dividend
    cert_probe_cost_s: float = 4e-6
    #: CPU seconds for a full compilation (region lowering + cost-model
    #: search): charged only once the pre-screen says it may pay off —
    #: "Jash can determine in the moment whether it is even worth trying
    #: to optimize on small inputs" (§3.2)
    compile_cost_s: float = 0.0008


class JashOptimizer(DecisionLog):
    """The JIT engine installed as the interpreter's optimizer hook."""

    engine = "jash"

    def __init__(self, config: Optional[JashConfig] = None):
        super().__init__()
        self.config = config or JashConfig()
        self.optimizer = ResourceAwareOptimizer(self.config.optimizer)
        #: static analysis state (repro.analysis), filled by
        #: :meth:`compile_program`: every pass made (each keeps its AST
        #: alive) and their purity verdicts keyed by AST node identity
        self._analyses: list = []
        self._purity: dict[int, Optional[str]] = {}

    # -- the compile-once pass ------------------------------------------------

    def compile_program(self, program: Command, kernel=None) -> None:
        """Run the S16 whole-script analyzer, keep its purity verdicts and
        tell ``kernel``'s observer (called by :class:`repro.shell.Shell`
        before execution, as for the AOT compiler).  The engine's own
        lookups never read absint — a dead region never runs — and the
        analyzer is demand-driven: what no consumer asks for here is
        never computed."""
        from ..analysis import analyze_program

        result = analyze_program(program, self.config.library)
        self.analysed = True
        self._analyses.append(result)
        self._purity.update(result.purity)
        if kernel is not None and kernel.observer is not None:
            kernel.observer.on_analysis(kernel.now, self.engine, result)

    # -- the hook -------------------------------------------------------------

    def try_execute(self, interp, proc, node: Command):
        from .frontend import expand_region, pipeline_stages, purity_reason

        kernel = proc.kernel
        ob = kernel.observer
        # a record unparses its node when first read; a trace reads it now
        text = node if ob is None else unparse(node)
        stages_ast = pipeline_stages(node)
        if stages_ast is None:
            return self.decide(proc, text, "interpreted",
                               "not a flat pipeline of simple commands")
            yield  # pragma: no cover - generator shape

        # 1. soundness: early expansion must be side-effect free.  The
        # static certificate answers this without a runtime walk; only a
        # miss (a node the compile-once pass never saw, e.g. parsed at
        # run time by trap/eval) falls back to the purity analysis.
        probe_cost = self.config.probe_cost_s
        if id(node) in self._purity:
            impure_reason = self._purity[id(node)]
            self.cert_hits += 1
            if ob is not None:
                ob.on_cert_lookup(kernel.now, proc, text,
                                  lambda: self._verdict(node))
            if impure_reason is not None:
                return self.decide(proc, text, "interpreted",
                                   f"unsafe early expansion: {impure_reason} "
                                   "[static certificate]")
            probe_cost = self.config.cert_probe_cost_s
        else:
            if self.analysed:
                self.cert_misses += 1
                if ob is not None:
                    ob.on_cert_lookup(kernel.now, proc, text)
            impure_reason = purity_reason(stages_ast)
            if impure_reason is not None:
                return self.decide(proc, text, "interpreted",
                                   f"unsafe early expansion: {impure_reason}")

        compile_start = kernel.now
        # charge the cheap pre-screen (expansion + stat; the purity walk
        # only when no certificate covered it)
        yield from proc.cpu(probe_cost)

        # 2. early expansion with full runtime information
        region = yield from expand_region(interp, proc, stages_ast,
                                          self.config.library)
        # Jash's own rule: a plan's sink is opened for truncation
        if region is None or region.stages[-1].stdout_append:
            return self.decide(proc, text, "interpreted",
                               "stages not classifiable as a dataflow region")
        if region.clobbered_input(interp.state.cwd) is not None:
            return self.decide(proc, text, "interpreted",
                               "output sink is also an input")
        if not region.parallelizable:
            return self.decide(proc, text, "interpreted",
                               "no parallelizable stage")

        # 3./4. probe the system
        input_files = region_input_files(region, proc.fs, interp.state.cwd)
        if input_files is None:
            return self.decide(proc, text, "interpreted",
                               "input is not file-backed (size unknown)")
        input_bytes, avg_line, avg_token = measure_input(proc.fs, input_files)
        if input_bytes < self.config.optimizer.min_input_bytes:
            return self.decide(proc, text, "interpreted",
                               "input below optimization threshold")
        probe = probe_machine(proc, input_bytes, avg_line, avg_token)
        # the pre-screen passed: pay for a full compilation
        yield from proc.cpu(self.config.compile_cost_s)

        # 5. cost-based decision, no-regression objective
        file_sizes = fs_file_sizes(proc.fs, interp.state.cwd)
        decision: Decision = self.optimizer.choose(region, probe, file_sizes)
        if ob is not None:
            ob.on_compile(kernel.now, proc, compile_start, text, decision,
                          input_bytes)
        if not decision.transformed:
            return self.decide(proc, text, "interpreted", decision.reason,
                               baseline_s=decision.baseline.seconds)

        # 6. execute the dataflow plan; under faults, degrade gracefully:
        # retry, then rebuild at half the width, and at width < 2 return
        # to interpretation
        def narrower(plan):
            width = plan.width // 2
            while width >= 2:
                half = parallelize(region, width, plan.mode,
                                   file_sizes=file_sizes, eager=plan.eager)
                if half is not None:
                    return half
                width //= 2
            return None

        run = yield from run_region(
            decision.plan, proc, interp.state.cwd, "jit", unparse(node),
            narrower=narrower)
        faulted = run.report.fault_failures
        if run.status is None:
            return self.decide(proc, text, "interpreted",
                               f"degraded to interpreter after {faulted} "
                               f"fault-suspected attempts",
                               baseline_s=decision.baseline.seconds,
                               fault_failures=faulted, degraded=run.degraded)
        self.decide(proc, text, "degraded" if faulted else "optimized",
                    UNREPLAYABLE if run.report.unreplayable
                    else decision.reason,
                    plan_description=run.plan.description,
                    estimate_s=decision.estimate.seconds,
                    baseline_s=decision.baseline.seconds,
                    fault_failures=faulted, degraded=run.degraded)
        return run.status

    def _verdict(self, node: Command) -> str:
        """The certificate's verdict, for the trace: the one read that
        needs value flow of the analysis that saw ``node``."""
        for analysis in self._analyses:
            if id(node) in analysis.certificates:
                return verdict(analysis.certificates[id(node)])
        return UNKNOWN
