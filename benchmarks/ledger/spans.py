"""Host-clock spans recorded from outside ``src/``.

The ledger's traced repetition times calls into public functions of
``repro`` by temporarily replacing them with timing wrappers, and times
every virtual process body by wrapping ``Kernel.create_process`` so the
process generator runs inside :class:`_BodyProxy`.  Nothing under
``src/`` is edited; :func:`tracing` restores every patched name on exit.

Span names are layer-qualified (``<src/repro module>.<what>``):

* a process named ``dfg:X``            -> ``compiler.runtime.X``
* a process named after a command in
  ``repro.commands.REGISTRY``          -> ``commands.<name>``
* any other process (``jash``,
  ``pipe[N]``, subshells, functions)   -> ``semantics.<name>``
* wrapped functions carry the name given in :data:`PATCHES`.

A span's *self time* is its duration minus the part covered by spans
opened inside it, so ``vos.run`` self time is the kernel's own dispatch
loop: the run span minus every body resumption.
"""

from __future__ import annotations

import json
import re
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

#: (module path, owner attribute or None for a module global, name, span)
PATCHES = (
    ("repro.shell", "Shell", "run", "shell.run"),
    ("repro.shell", None, "parse", "parser.parse"),
    ("repro.parser", None, "parse", "parser.parse"),  # eval, ".", traps
    ("repro.analysis", None, "analyze_program", "analysis.analyze_program"),
    ("repro.jit.engine", "JashOptimizer", "compile_program",
     "jit.compile_program"),
    ("repro.compiler.pash_aot", "PashOptimizer", "compile_program",
     "compiler.aot_compile"),
    ("repro.parallel_host.coordinator", "HostCoordinator", "begin_run",
     "parallel_host.begin_run"),
    ("repro.parallel_host.coordinator", "HostCoordinator", "end_run",
     "parallel_host.end_run"),
    ("repro.parallel_host.coordinator", "HostCoordinator", "require",
     "parallel_host.require"),
    ("repro.vos.machines", "MachineSpec", "make_kernel", "vos.make_kernel"),
    ("repro.vos.kernel", "Kernel", "run_until_process_done", "vos.run"),
    ("repro.vos.kernel", "Kernel", "run", "vos.run"),
    ("repro.distributed.dshell", "DistributedShell", "run",
     "distributed.run"),
    ("repro.parallel_host", None, "shutdown_global_pool",
     "parallel_host.shutdown"),
)

_INDEX = re.compile(r"\[\d+\]$")


class Recorder:
    """In-memory spans plus running self-time and call totals per name."""

    def __init__(self) -> None:
        #: (name, start_ns, end_ns, pid, parent pid); pid 0 = host call
        self.spans: list[tuple[str, int, int, int, int]] = []
        self.self_ns: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        #: every kernel that spawned a process, for exact dispatch counts
        self.kernels: dict[int, object] = {}
        self._open: list[int] = []  # child-covered ns of each open span

    def begin(self) -> int:
        self._open.append(0)
        return perf_counter_ns()

    def end(self, name: str, start: int, pid: int = 0, ppid: int = 0) -> None:
        end = perf_counter_ns()
        open_ = self._open
        covered = open_.pop()
        duration = end - start
        self.self_ns[name] += duration - covered
        self.total_ns[name] += duration
        self.calls[name] += 1
        if open_:
            open_[-1] += duration
        self.spans.append((name, start, end, pid, ppid))

    # -- totals ------------------------------------------------------------

    def self_s(self, prefix: str) -> float:
        """Self seconds of ``prefix`` and every span name beneath it."""
        return sum(ns for name, ns in self.self_ns.items()
                   if name == prefix or name.startswith(prefix + ".")) / 1e9

    def total_s(self, name: str) -> float:
        return self.total_ns.get(name, 0) / 1e9

    def count(self, prefix: str) -> int:
        return sum(n for name, n in self.calls.items()
                   if name == prefix or name.startswith(prefix + "."))

    def attributed_s(self) -> float:
        return sum(self.self_ns.values()) / 1e9

    def chrome_trace(self) -> dict:
        """Chrome ``trace_event`` JSON: one complete ("X") event per span,
        virtual pid as the thread id so each process is its own row."""
        if not self.spans:
            return {"traceEvents": []}
        origin = min(span[1] for span in self.spans)
        events = [{"name": name, "cat": name.split(".", 1)[0], "ph": "X",
                   "ts": (start - origin) / 1e3, "dur": (end - start) / 1e3,
                   "pid": 1, "tid": pid, "args": {"parent_pid": ppid}}
                  for name, start, end, pid, ppid in self.spans]
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.chrome_trace(), fh)


class _BodyProxy:
    """Stands in for a process generator: the kernel only ever calls
    ``send``/``throw`` (and the interpreter may ``close``); each
    resumption becomes one span."""

    __slots__ = ("gen", "name", "pid", "ppid", "rec")

    def __init__(self, gen, name: str, pid: int, ppid: int, rec: Recorder):
        self.gen, self.name, self.pid, self.ppid, self.rec = (
            gen, name, pid, ppid, rec)

    def send(self, value):
        start = self.rec.begin()
        try:
            return self.gen.send(value)
        finally:
            self.rec.end(self.name, start, self.pid, self.ppid)

    def throw(self, *exc):
        start = self.rec.begin()
        try:
            return self.gen.throw(*exc)
        finally:
            self.rec.end(self.name, start, self.pid, self.ppid)

    def close(self):
        return self.gen.close()


def body_span_name(process_name: str, registry) -> str:
    if process_name.startswith("dfg:"):
        return "compiler.runtime." + process_name[4:]
    if process_name in registry:
        return "commands." + process_name
    return "semantics." + _INDEX.sub("", process_name)


def _traced_create_process(original, rec: Recorder):
    from repro.commands import REGISTRY

    def create_process(kernel, target, name="proc", node=None, cwd="/",
                       fds=None, parent=None):
        rec.kernels[id(kernel)] = kernel
        span = body_span_name(name, REGISTRY)
        ppid = parent.pid if parent is not None else 0

        def traced_target(proc):
            return _BodyProxy(target(proc), span, proc.pid, ppid, rec)

        return original(kernel, traced_target, name=name, node=node,
                        cwd=cwd, fds=fds, parent=parent)

    return create_process


def _timed(original, span: str, rec: Recorder):
    def wrapper(*args, **kwargs):
        start = rec.begin()
        try:
            return original(*args, **kwargs)
        finally:
            rec.end(span, start)

    return wrapper


@contextmanager
def tracing(rec: Recorder):
    """Patch the layer boundaries for the duration of the block."""
    import importlib

    from repro.vos.kernel import Kernel

    saved = []
    try:
        for module_name, owner_name, attr, span in PATCHES:
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, _timed(original, span, rec))
        original = Kernel.create_process
        saved.append((Kernel, "create_process", original))
        Kernel.create_process = _traced_create_process(original, rec)
        yield rec
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
