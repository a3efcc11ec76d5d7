"""Transactional execution of optimized dataflow plans (§4 "fault
tolerant").

The purity gate already guarantees an optimized region is
*re-executable*: it reads files and stdin, writes stdout (or one
output file), and touches nothing else.  That makes recovery from an
injected fault a matter of making the region's single visible effect
atomic:

* **pipe/stdout sink** — the region writes into a staging
  :class:`~repro.vos.handles.Collector`; the collected bytes are
  forwarded to the real stdout only after every node finished without
  a fault.  A rolled-back attempt therefore emitted nothing.
* **file sink** (``... > out``) — the sink stream is redirected to
  ``out.staged`` and atomically renamed over ``out`` on commit; a
  rolled-back attempt leaves ``out`` untouched.

A failure is *fault-suspected* when the plan's status is 74
(``EX_IOERR``, an injected disk/pipe fault) or 137 (a crash), or when
the kernel's :class:`~repro.vos.faults.FaultPlan` recorded new firings
during a non-zero attempt.  Suspected attempts are rolled back (staged
output and temp chunk files unlinked, region stdin rewound) and
re-executed under :data:`DEFAULT_REGION_POLICY`, a
:class:`~repro.distributed.retry.RetryPolicy` — the same policy
vocabulary the distributed shell and the supervisor use.  A region fed
by a pipe cannot rewind its stdin: its failed attempt ends the region
with the fault status.

Both engines run every region through here.  Staging is only engaged
when a fault plan is installed on the kernel; without one the executor
is byte-for-byte the plain :func:`~repro.compiler.driver.execute_plan`
(so fault-free workloads pay nothing, and nested regions keep
streaming into their consumers).
stderr is never staged: diagnostics stream through even from attempts
that are later rolled back, like a real shell re-running a job.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..distributed.retry import RetryPolicy
from ..vos.faults import FAULT_STATUSES
from ..vos.fs import normalize
from ..vos.handles import Collector
from ..vos.process import Process
from .driver import execute_plan, run_phases, unlink_quiet
from .parallel import Plan

#: the one policy for region re-execution: two retries, no virtual-time
#: backoff (the vOS clock should not drift for fault-free comparisons)
DEFAULT_REGION_POLICY = RetryPolicy(max_retries=2)

STAGED_SUFFIX = ".staged"

#: the decision reason when a fault ends a region that read piped stdin
UNREPLAYABLE = ("fault in an attempt reading piped stdin: the bytes are "
                "gone, so the region fails with the fault status")


@dataclass
class RecoveryReport:
    """What happened while executing one plan transactionally."""

    attempts: int = 0
    fault_failures: int = 0
    gave_up: bool = False
    #: the failed attempt read piped stdin it cannot rewind: no retry,
    #: no narrower rung and no interpreter run can see those bytes again
    unreplayable: bool = False

    def merge(self, other: "RecoveryReport") -> None:
        self.attempts += other.attempts
        self.fault_failures += other.fault_failures
        self.gave_up = other.gave_up
        self.unreplayable = other.unreplayable


def plan_reads_stdin(plan: Plan) -> bool:
    """Does any phase consume the region's (non-file) stdin stream?"""
    for phase in plan.phases:
        sid = phase.source
        if sid is None:
            continue
        stream = phase.streams.get(sid)
        if stream is None or stream.is_file:
            continue
        if phase.producer_of(sid) is None and phase.consumers_of(sid):
            return True
    return False


def _sink_stream(plan: Plan):
    """The final phase's sink stream object (or None)."""
    final = plan.phases[-1]
    if final.sink is None:
        return None
    return final.streams.get(final.sink)


def _commit(proc: Process, staging: Optional[Collector],
            staged_path: Optional[str], sink_path: Optional[str], cwd: str):
    if staged_path is not None:
        resolved = normalize(staged_path, cwd)
        if proc.fs.is_file(resolved):
            proc.fs.rename(resolved, normalize(sink_path, cwd))
        return
    if staging is not None:
        data = staging.getvalue()
        if data:
            # a BrokenPipe here (downstream already gone) propagates and
            # kills the shell process with 141 — interpreter parity
            yield from proc.write(1, data)


def execute_plan_transactional(plan: Plan, proc: Process, cwd: str = "/",
                               report: Optional[RecoveryReport] = None):
    """Run ``plan`` with staged output and fault retry under
    :data:`DEFAULT_REGION_POLICY`.

    A vOS sub-generator (drive with ``yield from``).  Returns the exit
    status of the last attempt; ``report.gave_up`` tells the caller
    (Jash's degradation ladder, PaSh's fallback) that the retry budget
    is exhausted and the plan is still faulting, and
    ``report.unreplayable`` that the attempt drained piped stdin, so
    nothing may run the region again.
    """
    report = report if report is not None else RecoveryReport()
    kernel = proc.kernel
    ob = kernel.observer
    faults = getattr(kernel, "faults", None)
    if faults is None:
        status = yield from execute_plan(plan, proc, cwd=cwd)
        report.attempts += 1
        return status

    sink_stream = _sink_stream(plan)
    sink_path = sink_stream.path if sink_stream is not None and sink_stream.is_file else None
    staged_path = sink_path + STAGED_SUFFIX if sink_path is not None else None

    stdin_handle = proc.fds.get(0)
    uses_stdin = plan_reads_stdin(plan)
    stdin_offset = getattr(stdin_handle, "offset", None)
    # a pipe-fed region cannot be replayed: the bytes are gone
    retryable = (not uses_stdin) or (stdin_offset is not None)

    retry_no = 0
    first_attempt_start = kernel.now
    while True:
        report.attempts += 1
        mark = faults.fired
        attempt_start = kernel.now
        staging: Optional[Collector] = None
        if sink_path is not None:
            sink_stream.path = staged_path
        else:
            staging = Collector()
        try:
            status = yield from run_phases(plan, proc, cwd, staging)
        finally:
            if sink_path is not None:
                sink_stream.path = sink_path
        suspected = status in FAULT_STATUSES or (status != 0 and faults.fired > mark)
        if ob is not None:
            ob.on_tx(kernel.now, proc, "attempt", attempt_start,
                     attempt=report.attempts, status=status,
                     suspected=suspected, faults_fired=faults.fired - mark)
        if not suspected:
            yield from _commit(proc, staging, staged_path, sink_path, cwd)
            unlink_quiet(proc, plan.temp_files, cwd)
            if ob is not None:
                ob.on_tx(kernel.now, proc, "commit", attempt=report.attempts,
                         status=status, sink=sink_path)
            return status
        report.fault_failures += 1
        # roll back: the attempt's temp chunks and its staged sink
        unlink_quiet(proc, plan.temp_files if staged_path is None
                     else plan.temp_files + [staged_path], cwd)
        if uses_stdin and stdin_offset is not None:
            stdin_handle.offset = stdin_offset
        retry_no += 1
        # the unified retry decision point: counts AND the virtual
        # elapsed budget (max_elapsed_s) live in the policy, not here
        delay = DEFAULT_REGION_POLICY.next_delay(
            retry_no, elapsed_s=kernel.now - first_attempt_start)
        if ob is not None:
            ob.on_tx(kernel.now, proc, "rollback", attempt=report.attempts,
                     status=status, retrying=retryable and delay is not None)
        if not retryable or delay is None:
            report.gave_up = True
            report.unreplayable = not retryable
            return status
        if delay > 0:
            yield from proc.sleep(delay)


@dataclass
class RegionRun:
    """What :func:`run_region` did with one region's plan."""

    #: exit status of the plan that ran last; None when retries and the
    #: width ladder are exhausted and the caller must interpret the node
    status: Optional[int]
    #: the plan that ran last (a narrower one after degradation)
    plan: Plan
    #: recovery counters merged over every rung
    report: RecoveryReport
    #: the width trail under faults, e.g. ``"8 -> 4 -> interpreter"``
    degraded: str = ""


def run_region(plan: Plan, proc: Process, cwd: str, category: str, text: str,
               narrower=None):
    """The one "run ``plan`` for this region" routine behind both
    engines' ``try_execute`` (a vOS sub-generator; returns a
    :class:`RegionRun`).

    The plan runs transactionally and, each time that gives up,
    ``narrower(plan)`` supplies the next rung of the caller's width
    ladder (Jash halves until the width is below 2; PaSh passes None: no
    ladder).  With the ladder exhausted the caller interprets the node —
    sound, since the purity gate admitted the region and every failed
    attempt was rolled back.  An attempt that drained piped stdin cannot
    be rolled back that far: the region ends with that attempt's fault
    status, with no rung and no interpreter run over the emptied pipe.
    ``category`` (``"jit"``/``"aot"``) names the engine to the
    observer's region and degrade hooks."""
    kernel = proc.kernel
    ob = kernel.observer
    start = kernel.now
    if ob is not None:
        ob.on_region_begin(start, proc, category)
    report = RecoveryReport()
    widths: list = [plan.width]  # the trail, ending in "interpreter"

    while True:
        rung = RecoveryReport()
        status = yield from execute_plan_transactional(plan, proc, cwd=cwd,
                                                       report=rung)
        report.merge(rung)
        if not rung.gave_up or rung.unreplayable:
            break
        next_plan = narrower(plan) if narrower is not None else None
        if ob is not None and narrower is None:
            ob.on_degrade(kernel.now, proc, category, "fallback", command=text,
                          attempts=report.attempts,
                          fault_failures=report.fault_failures)
        elif ob is not None:
            last = next_plan is None
            ob.on_degrade(kernel.now, proc, category, "degrade", command=text,
                          from_width=plan.width,
                          to="interpreter" if last else next_plan.width,
                          fault_failures=(report if last
                                          else rung).fault_failures)
        if next_plan is None:
            widths.append("interpreter")
            status = None
            break
        plan = next_plan
        widths.append(plan.width)

    degraded = " -> ".join(map(str, widths)) if len(widths) > 1 else ""
    if ob is not None:
        args = ({"decision": "interpreted", "width": widths[0]}
                if status is None else
                {"decision": "degraded" if report.fault_failures
                 else "optimized", "width": plan.width, "mode": plan.mode,
                 "status": status})
        args["fault_failures"] = report.fault_failures
        if narrower is not None:
            args["degraded"] = degraded
        ob.on_region_end(kernel.now, proc, category, start, command=text,
                         **args)
    return RegionRun(status, plan, report, degraded)
