"""Top-level convenience API: run shell scripts on a virtual machine.

::

    from repro import Shell
    sh = Shell()                       # laptop profile by default
    sh.fs.write_bytes("/data/x", b"b\\na\\n")
    result = sh.run("sort /data/x")
    result.stdout                      # b'a\\nb\\n'
    result.elapsed                     # virtual seconds

One :class:`Shell` owns one kernel; consecutive ``run`` calls share the
filesystem (like an interactive session) but each gets fresh shell state
unless ``persist_state=True``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .parser import parse
from .semantics.interp import Interpreter
from .semantics.state import ShellState
from .vos.faults import FaultPlan
from .vos.handles import Collector, StringSource
from .vos.kernel import Kernel
from .vos.machines import MachineSpec, laptop


@dataclass
class RunResult:
    status: int
    stdout: bytes
    stderr: bytes
    elapsed: float  # virtual seconds consumed by this run

    @property
    def out(self) -> str:
        return self.stdout.decode("utf-8", "replace")

    @property
    def err(self) -> str:
        return self.stderr.decode("utf-8", "replace")

    def __repr__(self) -> str:
        return (
            f"RunResult(status={self.status}, elapsed={self.elapsed:.6f}s, "
            f"stdout={self.stdout[:60]!r}{'...' if len(self.stdout) > 60 else ''})"
        )


class Shell:
    """A virtual machine plus a shell to run scripts on it."""

    def __init__(self, machine: Optional[MachineSpec] = None,
                 kernel: Optional[Kernel] = None,
                 optimizer=None,
                 persist_state: bool = False,
                 faults: Optional[FaultPlan] = None,
                 tracer=None,
                 metrics=None,
                 jobs: Optional[int] = None):
        self.machine = machine or laptop()
        self.kernel = kernel if kernel is not None else self.machine.make_kernel()
        self.optimizer = optimizer
        self.persist_state = persist_state
        if tracer is not None:
            self.kernel.install_tracer(tracer)
        if metrics is not None:
            self.kernel.install_metrics(metrics)
        if faults is not None:
            self.kernel.faults = faults
        self._state: Optional[ShellState] = None
        # S21 host pool: --jobs N / JASH_JOBS enables the multi-core
        # execution plane; 1 (the default) keeps it entirely out of the
        # way.  The coordinator is lazy — no workers fork until a
        # certificate- and volume-gated region actually ships.
        if jobs is None:
            import os

            try:
                jobs = int(os.environ.get("JASH_JOBS", "1") or "1")
            except ValueError:
                jobs = 1
        self.jobs = max(1, jobs)
        self.host_coord = None
        if self.jobs > 1:
            from .parallel_host import HostCoordinator

            self.host_coord = HostCoordinator(self.jobs)

    @property
    def tracer(self):
        return self.kernel.tracer

    @property
    def metrics(self):
        return self.kernel.metrics

    @property
    def faults(self) -> Optional[FaultPlan]:
        return self.kernel.faults

    @faults.setter
    def faults(self, plan: Optional[FaultPlan]) -> None:
        self.kernel.faults = plan

    @property
    def fs(self):
        return self.kernel.main_node.fs

    @property
    def node(self):
        return self.kernel.main_node

    def run(self, script: str, args: Optional[list[str]] = None,
            stdin: bytes = b"", env: Optional[dict[str, str]] = None) -> RunResult:
        """Parse and execute ``script``; returns captured output and the
        virtual time the run consumed."""
        program = parse(script)
        if self.optimizer is not None and hasattr(self.optimizer, "compile_program"):
            # compile-once engines (PaSh AOT, Jash static analysis)
            # preprocess the script before it runs
            self.optimizer.compile_program(program, self.kernel)
        if self.persist_state and self._state is not None:
            state = self._state
            if args is not None:
                state.positionals = list(args)
        else:
            state = ShellState(args)
            if self.persist_state:
                self._state = state
        for name, value in (env or {}).items():
            state.set(name, value, export=True)
        if self.host_coord is not None:
            self.host_coord.begin_run(program, self.fs, state.cwd)
        interp = Interpreter(state, optimizer=self.optimizer,
                             host_coord=self.host_coord)
        stdout, stderr = Collector(), Collector()
        body = interp.main_body(program)
        start = self.kernel.now
        root = self.kernel.create_process(
            body,
            name="jash",
            cwd=state.cwd,
            fds={0: StringSource(stdin), 1: stdout, 2: stderr},
        )
        status = self.kernel.run_until_process_done(root)
        if self.host_coord is not None:
            self.host_coord.end_run(self.kernel)
        return RunResult(
            status=status,
            stdout=stdout.getvalue(),
            stderr=stderr.getvalue(),
            elapsed=self.kernel.now - start,
        )


def run_script(script: str, machine: Optional[MachineSpec] = None,
               files: Optional[dict[str, bytes]] = None,
               args: Optional[list[str]] = None,
               env: Optional[dict[str, str]] = None,
               optimizer=None,
               faults: Optional[FaultPlan] = None,
               tracer=None, metrics=None) -> RunResult:
    """One-shot helper: build a machine, load ``files``, run ``script``."""
    shell = Shell(machine, optimizer=optimizer, faults=faults, tracer=tracer,
                  metrics=metrics)
    for path, data in (files or {}).items():
        shell.fs.write_bytes(path, data)
    return shell.run(script, args=args, env=env)
