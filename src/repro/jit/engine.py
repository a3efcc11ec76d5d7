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
from ..compiler.driver import fs_file_sizes
from ..compiler.optimizer import Decision, OptimizerConfig, ResourceAwareOptimizer
from ..compiler.parallel import parallelize
from ..compiler.transactional import DEFAULT_REGION_POLICY, run_region
from ..distributed.retry import RetryPolicy
from ..parser.ast_nodes import Command
from ..parser.unparse import unparse
from .runtime_info import measure_input, probe_machine, region_input_files


@dataclass
class JitEvent:
    node_text: str
    decision: str  # "optimized" | "degraded" | "interpreted"
    reason: str
    plan_description: str = ""
    estimate_s: float = 0.0
    baseline_s: float = 0.0
    compile_overhead_s: float = 0.0
    #: fault-suspected attempts rolled back while executing this node
    fault_failures: int = 0
    #: the degradation trail under faults, e.g. "8 -> 4 -> interpreter"
    degraded: str = ""


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
    #: execute plans transactionally (staged output, rollback + retry on
    #: injected faults, width degradation).  A no-op unless a FaultPlan
    #: is installed on the kernel.
    transactional: bool = True
    #: per-width retry policy for transactional execution
    retry: RetryPolicy = DEFAULT_REGION_POLICY


class JashOptimizer:
    """The JIT engine installed as the interpreter's optimizer hook."""

    def __init__(self, config: Optional[JashConfig] = None):
        self.config = config or JashConfig()
        self.optimizer = ResourceAwareOptimizer(self.config.optimizer)
        self.events: list[JitEvent] = []
        #: static analysis state (repro.analysis), filled by
        #: :meth:`compile_program`: every pass made (each keeps its AST
        #: alive) and their purity verdicts keyed by AST node identity
        self._analyses: list = []
        self._purity: dict[int, Optional[str]] = {}
        self.cert_hits = 0
        self.cert_misses = 0

    # -- the compile-once pass ------------------------------------------------

    def compile_program(self, program: Command, tracer=None, now: float = 0.0,
                        metrics=None):
        """Run the S16 whole-script analyzer and keep its purity verdicts.

        Called by :class:`repro.shell.Shell` before execution (the same
        hook the AOT compiler uses).  A tracer receives the pass's stats
        and a metrics registry the ``analysis.absint.*`` counters of the
        S20 abstract interpreter.
        The engine's own lookups never read absint — a dead region never
        runs, so its verdict is never asked for — and the analyzer is
        demand-driven: what no tracer or registry asks for here is never
        computed.
        """
        from ..analysis import analyze_program

        result = analyze_program(program, self.config.library)
        self._analyses.append(result)
        self._purity.update(result.purity)
        if tracer is not None:
            tracer.instant("analysis", "analysis.run", now,
                           **result.stats())
            tracer.span("analysis", "analysis.absint", now, now,
                        **result.absint.stats())
        if metrics is not None:
            stats = result.absint.stats()
            metrics.counter("analysis.absint.nodes").inc(
                stats["absint_nodes"])
            metrics.counter("analysis.absint.widenings").inc(
                stats["absint_widenings"])
            metrics.counter("analysis.absint.dead_branches").inc(
                stats["dead_branches"])

    # -- the hook -------------------------------------------------------------

    def try_execute(self, interp, proc, node: Command):
        from .frontend import expand_region, pipeline_stages, purity_reason

        kernel = proc.kernel
        tracer = getattr(kernel, "tracer", None)
        metrics = getattr(kernel, "metrics", None)
        text = unparse(node)
        stages_ast = pipeline_stages(node)
        if stages_ast is None:
            self._skip(proc, text, "not a flat pipeline of simple commands")
            return None
            yield  # pragma: no cover - generator shape

        # 1. soundness: early expansion must be side-effect free.  The
        # static certificate answers this without a runtime walk; only a
        # miss (a node the compile-once pass never saw, e.g. parsed at
        # run time by trap/eval) falls back to the purity analysis.
        probe_cost = self.config.probe_cost_s
        if id(node) in self._purity:
            impure_reason = self._purity[id(node)]
            self.cert_hits += 1
            if metrics is not None:
                metrics.counter("jit.cert_hits").inc()
            if tracer is not None:
                tracer.instant("jit", "jit.cert_hit", kernel.now, proc,
                               command=text, verdict=self._verdict(node))
            if impure_reason is not None:
                self._skip(proc, text,
                           f"unsafe early expansion: {impure_reason} "
                           "[static certificate]")
                return None
            probe_cost = self.config.cert_probe_cost_s
        else:
            if self._analyses:
                self.cert_misses += 1
                if metrics is not None:
                    metrics.counter("jit.cert_misses").inc()
                if tracer is not None:
                    tracer.instant("jit", "jit.cert_miss", kernel.now, proc,
                                   command=text)
            impure_reason = purity_reason(stages_ast)
            if impure_reason is not None:
                self._skip(proc, text,
                           f"unsafe early expansion: {impure_reason}")
                return None

        compile_start = kernel.now
        # charge the cheap pre-screen (expansion + stat; the purity walk
        # only when no certificate covered it)
        yield from proc.cpu(probe_cost)

        # 2. early expansion with full runtime information
        region = yield from expand_region(interp, proc, stages_ast,
                                          self.config.library)
        # Jash's own rule: a plan's sink is opened for truncation
        if region is None or region.stages[-1].stdout_append:
            self._skip(proc, text,
                       "stages not classifiable as a dataflow region")
            return None
        if region.clobbered_input(interp.state.cwd) is not None:
            self._skip(proc, text, "output sink is also an input")
            return None
        if not region.parallelizable:
            self._skip(proc, text, "no parallelizable stage")
            return None

        # 3./4. probe the system
        input_files = region_input_files(region, proc.fs, interp.state.cwd)
        if input_files is None:
            self._skip(proc, text, "input is not file-backed (size unknown)")
            return None
        input_bytes, avg_line, avg_token = measure_input(proc.fs, input_files)
        if input_bytes < self.config.optimizer.min_input_bytes:
            self._skip(proc, text, "input below optimization threshold")
            return None
        probe = probe_machine(proc, input_bytes, avg_line, avg_token)
        # the pre-screen passed: pay for a full compilation
        yield from proc.cpu(self.config.compile_cost_s)

        # 5. cost-based decision, no-regression objective
        file_sizes = fs_file_sizes(proc.fs, interp.state.cwd)
        decision: Decision = self.optimizer.choose(region, probe, file_sizes)
        if metrics is not None:
            metrics.counter("jit.compiles").inc()
            metrics.counter(
                "jit.decisions",
                decision="optimized" if decision.transformed
                else "declined").inc()
        if tracer is not None:
            tracer.span("jit", "jit.compile", compile_start, kernel.now, proc,
                        command=text, transformed=decision.transformed,
                        width=decision.plan.width if decision.transformed else 1,
                        input_bytes=input_bytes, reason=decision.reason,
                        estimate_s=round(decision.estimate.seconds, 6),
                        baseline_s=round(decision.baseline.seconds, 6))
        if not decision.transformed:
            self._skip(proc, text, decision.reason,
                       baseline=decision.baseline.seconds)
            return None

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
            decision.plan, proc, interp.state.cwd, "jit", text,
            policy=self.config.retry if self.config.transactional else None,
            narrower=narrower)
        faulted = run.report.fault_failures
        if run.status is None:
            self.events.append(JitEvent(
                text, "interpreted",
                f"degraded to interpreter after {faulted} "
                f"fault-suspected attempts",
                baseline_s=decision.baseline.seconds,
                fault_failures=faulted, degraded=run.degraded,
            ))
            return None
        self.events.append(JitEvent(
            text,
            "degraded" if faulted else "optimized",
            decision.reason,
            run.plan.description,
            estimate_s=decision.estimate.seconds,
            baseline_s=decision.baseline.seconds,
            compile_overhead_s=self.config.compile_cost_s,
            fault_failures=faulted,
            degraded=run.degraded,
        ))
        return run.status

    # -- helpers ------------------------------------------------------------------

    def _verdict(self, node: Command) -> str:
        """The certificate's verdict, for the trace: the one read that
        needs value flow of the analysis that saw ``node``."""
        for analysis in self._analyses:
            if id(node) in analysis.certificates:
                return verdict(analysis.certificates[id(node)])
        return UNKNOWN

    def _skip(self, proc, text: str, reason: str,
              baseline: float = 0.0) -> None:
        self.events.append(JitEvent(text, "interpreted", reason,
                                    baseline_s=baseline))
        metrics = getattr(proc.kernel, "metrics", None)
        if metrics is not None:
            metrics.counter("jit.decisions", decision="interpreted").inc()
        tracer = getattr(proc.kernel, "tracer", None)
        if tracer is not None:
            tracer.instant("jit", "jit.skip", proc.kernel.now, proc,
                           command=text, reason=reason)

    # -- reporting --------------------------------------------------------------------

    @property
    def optimized_count(self) -> int:
        return sum(1 for e in self.events
                   if e.decision in ("optimized", "degraded"))

    @property
    def cert_hit_rate(self) -> float:
        """Fraction of candidate lookups answered by a static
        certificate (0.0 when the analyzer never ran)."""
        total = self.cert_hits + self.cert_misses
        return self.cert_hits / total if total else 0.0

    @property
    def degraded_count(self) -> int:
        return sum(1 for e in self.events if e.decision == "degraded"
                   or (e.decision == "interpreted" and e.degraded))

    def report(self) -> str:
        lines = []
        if self._analyses:
            lines.append(
                f"[static analysis] {self.cert_hits} certificate hits, "
                f"{self.cert_misses} misses "
                f"(hit rate {self.cert_hit_rate:.0%})")
        for event in self.events:
            lines.append(f"[{event.decision:>11}] {event.node_text}")
            lines.append(f"              {event.reason}")
            if event.plan_description:
                lines.append(f"              plan: {event.plan_description}")
            if event.degraded:
                lines.append(f"              degraded: {event.degraded} "
                             f"({event.fault_failures} faulted attempts)")
        return "\n".join(lines)
