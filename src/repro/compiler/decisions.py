"""One decision record per candidate (DESIGN.md §8, §13): Jash, PaSh-AOT
and the incremental engine each tell theirs once, to the kernel's
observer (``on_decision``); the tracer and the registry read their views
of it in ``repro.obs``, and ``jash run --report`` renders it here."""

from __future__ import annotations

from dataclasses import dataclass

from ..parser.unparse import unparse


@dataclass
class DecisionRecord:
    engine: str  # "jash" | "pash" | "inc"
    #: the candidate's text, or its AST node until :attr:`node_text` is
    #: first read (Jash decides thousands of candidates no report reads)
    node: object
    #: "optimized" | "degraded" | "interpreted"; PaSh also "skipped", the
    #: incremental engine "replayed" | "extended" | "computed"
    decision: str
    reason: str
    plan_description: str = ""
    estimate_s: float = 0.0  # the cost model's, for the plan and
    baseline_s: float = 0.0  # the interpreter (0.0: never costed)
    #: fault-suspected attempts rolled back while executing this node
    fault_failures: int = 0
    degraded: str = ""  # the trail under faults: "8 -> 4 -> interpreter"
    saved_bytes: int = 0  # input a replay or extension did not recompute

    @property
    def node_text(self) -> str:
        if not isinstance(self.node, str):
            self.node = unparse(self.node)
        return self.node


class DecisionLog:
    """An engine's records and certificate lookups."""

    engine = ""
    analysed = False  # did a compile-once pass run the analyzer

    def __init__(self) -> None:
        self.events: list[DecisionRecord] = []
        self.cert_hits = 0
        self.cert_misses = 0

    def decide(self, proc, text, decision: str, reason: str,
               **fields) -> None:
        """Record a decision about a candidate (its text or its node); tell
        it unless made at compile time."""
        record = DecisionRecord(self.engine, text, decision, reason, **fields)
        self.events.append(record)
        ob = proc.kernel.observer if proc is not None else None
        if ob is not None:
            ob.on_decision(proc.kernel.now, proc, record)

    @property
    def optimized_count(self) -> int:
        return sum(e.decision in ("optimized", "degraded")
                   for e in self.events)

    @property
    def degraded_count(self) -> int:
        return sum(e.decision == "degraded"
                   or (e.decision == "interpreted" and bool(e.degraded))
                   for e in self.events)

    @property
    def cert_hit_rate(self) -> float:
        """Share of lookups a static certificate answered (0.0: none)."""
        total = self.cert_hits + self.cert_misses
        return self.cert_hits / total if total else 0.0

    def report(self) -> str:
        return render_decisions(self)


def render_decisions(*logs: DecisionLog) -> str:
    """``jash run --report``: each engine's records, in decision order."""
    lines = []
    for log in logs:
        if len(logs) > 1:
            lines.append(f"[engine {log.engine}]")
        if log.analysed:
            lines.append(
                f"[static analysis] {log.cert_hits} certificate hits, "
                f"{log.cert_misses} misses "
                f"(hit rate {log.cert_hit_rate:.0%})")
        for event in log.events:
            lines.append(f"[{event.decision:>11}] {event.node_text}")
            lines.append(f"              {event.reason}")
            if event.plan_description:
                lines.append(f"              plan: {event.plan_description}")
            if event.degraded:
                lines.append(f"              degraded: {event.degraded} "
                             f"({event.fault_failures} faulted attempts)")
    return "\n".join(lines)
