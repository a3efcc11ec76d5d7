"""Shared plan execution for the AOT (PaSh) and JIT (Jash) drivers."""

from __future__ import annotations

from typing import Optional

from ..vos.errors import VosError
from ..vos.faults import FAULT_STATUSES
from ..vos.fs import normalize
from ..vos.process import Process
from .parallel import Plan
from .runtime import execute_graph


def run_phases(plan: Plan, proc: Process, cwd: str, stdout_handle=None):
    """Run a plan's phases in order inside the shell process ``proc``,
    wiring the region's stdin/stdout/stderr to the shell's fds
    (``stdout_handle`` overrides fd 1: the transactional staging
    collector).  Returns the plan's exit status."""
    stdin_handle = proc.fds.get(0)
    if stdout_handle is None:
        stdout_handle = proc.fds.get(1)
    stderr_handle = proc.fds.get(2)
    status = 0
    for phase in plan.phases:
        status = yield from execute_graph(
            phase, proc,
            stdin_handle=stdin_handle,
            stdout_handle=stdout_handle,
            stderr_handle=stderr_handle,
            cwd=cwd,
        )
        if status in FAULT_STATUSES:
            # a faulted phase's chunk files are incomplete; running the
            # next phase over them would "succeed" with missing data
            break
    return status


def unlink_quiet(proc: Process, paths, cwd: str) -> None:
    for path in paths:
        try:
            proc.fs.unlink(normalize(path, cwd))
        except VosError:
            pass


def execute_plan(plan: Plan, proc: Process, cwd: str = "/"):
    """:func:`run_phases` against the shell's own stdout, then temp
    chunk file cleanup.  Returns the plan's exit status."""
    status = yield from run_phases(plan, proc, cwd)
    unlink_quiet(proc, plan.temp_files, cwd)
    return status


def fs_file_sizes(fs, cwd: str):
    """A file_sizes callback over a virtual filesystem."""
    def file_sizes(path: str) -> Optional[int]:
        resolved = normalize(path, cwd)
        if fs.is_file(resolved):
            return fs.size(resolved)
        return None

    return file_sizes
