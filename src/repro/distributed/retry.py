"""Retry / backoff / timeout policies (§4 "fault tolerant").

One policy vocabulary shared by every recovery layer: the distributed
shell re-runs failed per-file branches under a :class:`RetryPolicy`,
the transactional region executor (:mod:`repro.compiler.transactional`)
re-runs rolled-back dataflow plans under the same object, and the
supervisor re-runs faulted rounds and backs off crash loops with it.

Delays are *virtual* seconds (slept on the vOS clock) and default to
zero so fault-free timings are unchanged; backoff doubles per retry up
to a cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class RetryPolicy:
    """How (and whether) to re-execute failed work.

    ``max_retries`` counts *re*-executions: 2 means up to three total
    attempts.  ``timeout_s`` arms a :func:`watchdog` over each attempt
    (dshell branches, supervised rounds); ``None`` disables it.
    """

    max_retries: int = 2
    base_delay_s: float = 0.0
    max_delay_s: float = 1.0
    timeout_s: Optional[float] = None
    #: total virtual seconds (attempt time + backoff) after which no
    #: further retry is started; None = unbounded
    max_elapsed_s: Optional[float] = None

    def delay(self, retry_index: int) -> float:
        """Virtual seconds to back off before re-execution ``retry_index``
        (1-based): ``base_delay_s`` doubled per retry, capped at
        ``max_delay_s``."""
        if self.base_delay_s <= 0.0 or retry_index < 1:
            return 0.0
        return min(self.max_delay_s,
                   self.base_delay_s * 2.0 ** (retry_index - 1))

    def next_delay(self, retry_index: int,
                   elapsed_s: float = 0.0) -> Optional[float]:
        """The single retry decision point: ``None`` means give up
        (count or elapsed budget exhausted), otherwise the virtual
        backoff before re-execution ``retry_index`` (1-based).
        ``elapsed_s`` is virtual time spent since the first attempt
        began.  Every recovery layer (transactional regions, dshell
        branches, the supervisor) routes its loop through here rather
        than hand-rolling sleep/attempt arithmetic."""
        if not 1 <= retry_index <= self.max_retries:
            return None
        if self.max_elapsed_s is None:
            return self.delay(retry_index)
        if elapsed_s >= self.max_elapsed_s:
            return None
        # never sleep past the elapsed budget
        return min(self.delay(retry_index), self.max_elapsed_s - elapsed_s)


def watchdog(timeout_s: float, pids=None):
    """The body of a virtual-time watchdog process: after ``timeout_s``
    virtual seconds it SIGKILLs (status 137) each still-running process
    in ``pids`` — or, when ``pids`` is None, every other live process.
    A stalled branch or run then surfaces as an ordinary fault-suspected
    failure, retried by whatever :class:`RetryPolicy` loop owns it.
    The caller spawns it (``proc.spawn`` from inside a vOS process,
    ``kernel.create_process`` from the host) and may disarm it with
    ``kernel.kill_process`` once the guarded work finished."""
    from ..vos.process import DONE

    pids = tuple(pids) if pids is not None else None

    def body(wproc):
        yield from wproc.sleep(timeout_s)
        kernel = wproc.kernel
        victims = ([kernel.processes.get(pid) for pid in pids]
                   if pids is not None else list(kernel.processes.values()))
        for victim in victims:
            if (victim is not None and victim is not wproc
                    and victim.state != DONE):
                kernel.kill_process(victim)
        return 0

    return body
