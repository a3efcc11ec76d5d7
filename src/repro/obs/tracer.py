"""The structured tracer: typed span/event records on the virtual clock.

A :class:`Tracer` is installed on a kernel
(``Shell(tracer=Tracer())`` or ``kernel.install_tracer(tracer)``) and
receives callbacks from every layer of the stack:

* the kernel — syscall dispatch, process spawn/exit/wait, CPU bursts,
  disk I/O (with queue wait, IOPS mode and burst-credit balance), pipe
  reads/writes (with queue depth) and backpressure stalls, scheduler
  ticks, and network sends;
* :mod:`repro.vos.faults` — every injected fault, inline, with the
  plan's op counter;
* the engines, through the same observer — Jash JIT compile/decide/
  degrade, PaSh-AOT regions, transactional attempts/rollbacks/commits,
  supervision, distributed dispatch and the host pool's end of run.

Tracing is **zero-cost when disabled**: no tracer installed means every
call site is a single ``is not None`` guard and no record object is ever
constructed (:attr:`Tracer.total_records` is the witness the tests use).

Records are deterministic for a fixed workload + seed: they carry only
virtual timestamps, kernel pids, and canonicalized names — pipe ids and
``/tmp`` scratch paths (which embed process-global counters) are
renumbered in first-seen order so two identical runs export
byte-identical traces.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .accounting import RegionStats, ResourceAccounting
from .observer import CanonNames

#: Record phases, mirroring the Chrome trace_event vocabulary.
SPAN = "X"
INSTANT = "i"
COUNTER = "C"


@dataclass
class TraceRecord:
    """One typed trace record (span, instant, or counter)."""

    name: str
    cat: str      # "process" | "cpu" | "disk" | "pipe" | "splice" | "wait"
                  # | "sched" | "net" | "fault" | "syscall" | "jit" | "aot"
                  # | "tx" | "analysis" | "dshell" | "supervise"
    ph: str       # SPAN | INSTANT | COUNTER
    ts: float     # virtual seconds (span start)
    dur: float = 0.0
    pid: int = 0  # vOS pid (0 = kernel-level record)
    node: str = ""
    args: dict = field(default_factory=dict)


class Tracer(CanonNames):
    """Collects typed records and folds them into ResourceAccounting.

    ``record_events=False`` keeps the accounting but drops the event
    list (cheap metrics-only mode for benchmarks); ``syscall_events``
    additionally emits one instant per syscall dispatch (verbose).
    """

    #: class-wide count of records ever emitted — the "zero events when
    #: tracing is disabled" invariant is asserted against this.
    total_records = 0

    def __init__(self, record_events: bool = True,
                 syscall_events: bool = False):
        super().__init__()
        self.record_events = record_events
        if not syscall_events:
            self.on_dispatch = None  # unread: the observer binds no call
        self.records: list[TraceRecord] = []
        self.accounting = ResourceAccounting()
        # open-span state, keyed by pid
        self._cpu: dict[int, tuple[float, float]] = {}    # start, work
        self._stall: dict[int, tuple[float, str, int]] = {}  # start, kind, pipe
        self._wait: dict[int, tuple[float, int]] = {}     # start, child pid
        self._splice: dict[int, tuple[float, str, list]] = {}  # start, src, dsts
        self._credits_exhausted: set[str] = set()
        self._region: dict[int, dict[str, float]] = {}  # accounting totals

    # -- emission ------------------------------------------------------------------

    def _emit(self, record: TraceRecord) -> None:
        Tracer.total_records += 1
        if self.record_events:
            self.records.append(record)

    def attach(self, kernel) -> None:
        """Bind to the kernel being traced (called by install_tracer) so
        accounting can surface kernel-level counters like dispatches."""
        self.accounting.attach(kernel)

    # -- record constructors ------------------------------------------------------------

    def span(self, cat: str, name: str, start: float, end: float,
             proc=None, **args) -> None:
        self._emit(TraceRecord(
            name, cat, SPAN, start, max(0.0, end - start),
            pid=proc.pid if proc is not None else 0,
            node=proc.node.name if proc is not None else "", args=args,
        ))

    def instant(self, cat: str, name: str, now: float, proc=None, **args) -> None:
        self._emit(TraceRecord(
            name, cat, INSTANT, now,
            pid=proc.pid if proc is not None else 0,
            node=proc.node.name if proc is not None else "", args=args,
        ))

    def counter(self, cat: str, name: str, now: float, node: str = "",
                **values) -> None:
        self._emit(TraceRecord(name, cat, COUNTER, now, node=node, args=values))

    # -- kernel hooks: processes ---------------------------------------------------------

    def on_spawn(self, now: float, proc, parent=None) -> None:
        st = self.accounting.proc(proc)
        if parent is not None:
            st.parent = parent.pid
        self.instant("process", f"spawn:{proc.name}", now, proc,
                     parent=parent.pid if parent is not None else 0)

    def on_exit(self, now: float, proc) -> None:
        # close any span left open by a kill while blocked
        if proc.pid in self._cpu:
            start, work = self._cpu.pop(proc.pid)
            self.span("cpu", "cpu", start, now, proc, killed=True)
        if proc.pid in self._stall:
            self.on_pipe_stall_end(now, proc, 0, killed=True)
        if proc.pid in self._wait:
            self.on_wait_end(now, proc, None, killed=True)
        st = self.accounting.proc(proc)
        st.end = now
        st.exit_status = proc.exit_status
        args = {"status": proc.exit_status}
        if proc.error:
            args["error"] = proc.error
        self.span("process", proc.name, proc.start_time, now, proc, **args)

    def on_dispatch(self, now: float, proc, request) -> None:
        self.instant("syscall", type(request).__name__, now, proc)

    # -- kernel hooks: CPU ---------------------------------------------------------------

    def on_cpu_begin(self, now: float, proc, work: float) -> None:
        self._cpu[proc.pid] = (now, work)

    def on_cpu_end(self, now: float, proc) -> None:
        entry = self._cpu.pop(proc.pid, None)
        if entry is None:
            return
        start, work = entry
        self.accounting.proc(proc).cpu_s += work
        self.span("cpu", "cpu", start, now, proc,
                  core_s=round(work, 9))

    def on_cpu_killed(self, now: float, proc, remaining: float) -> None:
        entry = self._cpu.pop(proc.pid, None)
        if entry is None:
            return
        start, work = entry
        consumed = max(0.0, work - max(0.0, remaining))
        self.accounting.proc(proc).cpu_s += consumed
        self.span("cpu", "cpu", start, now, proc,
                  core_s=round(consumed, 9), killed=True)

    # -- kernel hooks: disk ---------------------------------------------------------------

    def on_disk_submit(self, now: float, disk, request) -> None:
        proc = request.process
        self.counter("disk", f"disk.queue:{proc.node.name}", now,
                     node=proc.node.name,
                     depth=len(disk.queue) + (1 if disk.current else 0))

    def on_disk_complete(self, now: float, disk, request) -> None:
        proc = request.process
        node = proc.node.name
        service = max(0.0, now - request.service_start)
        queued = max(0.0, request.service_start - request.start)
        st = self.accounting.proc(proc)
        st.disk_bytes += request.bytes
        st.disk_ops += request.ops
        st.disk_time_s += service
        st.disk_wait_s += queued
        mode = "burst" if disk.credits > 0 else "base"
        args = {
            "bytes": request.bytes,
            "ops": round(request.ops, 3),
            "queue_wait_s": round(queued, 9),
            "service_s": round(service, 9),
            "credits": round(disk.credits, 3),
            "iops_mode": mode,
        }
        if request.slow > 1.0:
            args["slow_factor"] = request.slow
        self.span("disk", f"disk.io:{disk.spec.name}", request.start, now,
                  proc, **args)
        self.counter("disk", f"disk.credits:{node}", now, node=node,
                     credits=round(disk.credits, 3))
        if disk.credits <= 0 and disk.spec.burst_credit_ops > 0 \
                and node not in self._credits_exhausted:
            self._credits_exhausted.add(node)
            self.instant("disk", f"disk.credits_exhausted:{node}", now, proc)

    # -- kernel hooks: pipes ---------------------------------------------------------------

    def on_pipe_read(self, now: float, proc, pipe, nbytes: int) -> None:
        key = self.pipe_key(pipe)
        ps = self.accounting.pipe(key)
        ps.readers.add(proc.pid)
        ps.bytes_read += nbytes
        self.accounting.proc(proc).pipes_read.add(key)
        self.counter("pipe", f"pipe.depth:{key}", now, node=proc.node.name,
                     depth=pipe.size)

    def on_pipe_write(self, now: float, proc, pipe, nbytes: int) -> None:
        key = self.pipe_key(pipe)
        ps = self.accounting.pipe(key)
        ps.writers.add(proc.pid)
        ps.bytes_written += nbytes
        self.counter("pipe", f"pipe.depth:{key}", now, node=proc.node.name,
                     depth=pipe.size)

    def on_pipe_stall_begin(self, now: float, proc, pipe, kind: str) -> None:
        self._stall[proc.pid] = (now, kind, self.pipe_key(pipe))

    def on_pipe_stall_end(self, now: float, proc, nbytes: int = 0,
                          broken: bool = False, killed: bool = False) -> None:
        entry = self._stall.pop(proc.pid, None)
        if entry is None:
            return
        start, kind, key = entry
        st = self.accounting.proc(proc)
        if kind == "read":
            st.stall_read_s += now - start
        else:
            st.stall_write_s += now - start
        args = {"pipe": key, "bytes": nbytes}
        if broken:
            args["broken"] = True
        if killed:
            args["killed"] = True
        self.span("pipe", f"stall.{kind}", start, now, proc, **args)

    # -- kernel hooks: splice fast path ------------------------------------------------------

    def _endpoint(self, handle) -> str:
        """Canonical name for a splice endpoint (pipe or file handle)."""
        pipe = getattr(handle, "pipe", None)
        if pipe is not None:
            return f"pipe:{self.pipe_key(pipe)}"
        path = getattr(handle, "path", None)
        if path is not None:
            return self.canon_path(path)
        return type(handle).__name__

    def on_splice_begin(self, now: float, proc, src, dsts) -> None:
        self._splice[proc.pid] = (
            now, self._endpoint(src), [self._endpoint(d) for d in dsts])

    def on_splice_end(self, now: float, proc, nbytes: int, chunks: int,
                      error: str = "") -> None:
        entry = self._splice.pop(proc.pid, None)
        if entry is None:
            return
        start, src, dsts = entry
        st = self.accounting.proc(proc)
        st.splice_bytes += nbytes
        st.splice_chunks += chunks
        args = {"bytes": nbytes, "chunks": chunks, "src": src, "dst": dsts}
        if error:
            args["error"] = error
        self.span("splice", "splice", start, now, proc, **args)

    # -- kernel hooks: wait / net / scheduler ------------------------------------------------

    def on_wait_edge(self, now: float, proc, child) -> None:
        self.accounting.proc(proc).waited_on.add(child.pid)

    def on_wait_begin(self, now: float, proc, child) -> None:
        self._wait[proc.pid] = (now, child.pid)

    def on_wait_end(self, now: float, proc, child,
                    killed: bool = False) -> None:
        entry = self._wait.pop(proc.pid, None)
        if entry is None:
            return
        start, child_pid = entry
        self.accounting.proc(proc).wait_s += now - start
        args = {"killed": True} if killed else {}
        self.span("wait", "wait", start, now, proc, child=child_pid, **args)

    def on_net(self, now: float, proc, dst: str, nbytes: int) -> None:
        self.accounting.proc(proc).net_bytes += nbytes
        self.instant("net", f"net.send:{dst}", now, proc, bytes=nbytes)

    def on_tick(self, now: float, ready: int, running: int) -> None:
        self.counter("sched", "sched", now, ready=ready, running=running)

    # -- fault hook (repro.vos.faults) ---------------------------------------------------------

    def on_fault(self, now: float, event, op: int) -> None:
        self.instant("fault", f"fault.{event.kind}", now,
                     target=self.canon_path(event.target),
                     source=event.source, op=op)

    # -- engine hooks ------------------------------------------------------------------------

    def _fact(self, cat, name, now, proc, start=None, **args) -> None:
        """An engine fact: a span when it has a ``start``, else an instant."""
        if start is None:
            self.instant(cat, name, now, proc, **args)
        else:
            self.span(cat, name, start, now, proc, **args)

    def on_decision(self, now: float, proc, record) -> None:
        # Jash's candidates that ran no plan; other records are not traced
        if record.engine == "jash" and record.decision == "interpreted" \
                and not record.degraded:
            self.instant("jit", "jit.skip", now, proc,
                         command=record.node_text, reason=record.reason)

    def on_analysis(self, now: float, engine: str, analysis) -> None:
        tag = {"engine": engine} if engine != "jash" else {}
        self.instant("analysis", "analysis.run", now, **tag,
                     **analysis.stats())
        self.span("analysis", "analysis.absint", now, now, **tag,
                  **analysis.absint.stats())

    def on_cert_lookup(self, now: float, proc, text, verdict=None) -> None:
        # a hit's verdict is a thunk: it needs value flow, read only here
        if verdict is None:
            self.instant("jit", "jit.cert_miss", now, proc, command=text)
        else:
            self.instant("jit", "jit.cert_hit", now, proc, command=text,
                         verdict=verdict())

    def on_compile(self, now: float, proc, start: float, text: str,
                   decision, input_bytes: int) -> None:
        self.span("jit", "jit.compile", start, now, proc, command=text,
                  transformed=decision.transformed,
                  width=decision.plan.width if decision.transformed else 1,
                  input_bytes=input_bytes, reason=decision.reason,
                  estimate_s=round(decision.estimate.seconds, 6),
                  baseline_s=round(decision.baseline.seconds, 6))

    def on_region_begin(self, now: float, proc, cat: str) -> None:
        self._region[proc.pid] = self.accounting.totals()

    def on_region_end(self, now: float, proc, cat, start, **args) -> None:
        """A span whose args carry the resource delta the region used."""
        before = self._region.pop(proc.pid)
        totals = self.accounting.totals()
        delta = {k: totals[k] - before.get(k, 0.0) for k in totals}
        self.accounting.regions.append(RegionStats(
            cat, f"{cat}.region", start, now, args=args, delta=delta))
        shown = {k: round(v, 9) for k, v in delta.items()
                 if k != "processes" and v}
        self.span(cat, f"{cat}.region", start, now, proc, **args,
                  delta=shown)

    def on_tx(self, now: float, proc, event, start=None, **args) -> None:
        if "sink" in args:  # a commit's; None is stdout
            sink = args["sink"]
            args["sink"] = "stdout" if sink is None else self.canon_path(sink)
        self._fact("tx", f"tx.{event}", now, proc, start, **args)

    def on_degrade(self, now: float, proc, cat, kind, **args) -> None:
        self.instant(cat, f"{cat}.{kind}", now, proc, **args)

    def on_cache_invalid(self, now: float, proc, key, reason) -> None:
        self.instant("inc", "inc.cache_invalid", now, proc, key=key[:16],
                     reason=reason)

    def on_supervise(self, now: float, event, start=None, **args) -> None:
        if event != "commit":  # a commit is counted, not traced
            self._fact("supervise", f"supervise.{event}", now, None, start,
                       **args)

    def on_dshell(self, now: float, proc, event, start=None, **args) -> None:
        self._fact("dshell", f"dshell.{event}", now, proc, start, **args)

    def on_pool_end(self, now: float, delta, detect_error, regions) -> None:
        # no host wall times here: the trace stream, like the metrics
        # snapshot, must be byte-identical across reruns
        if detect_error is not None:
            self.instant("pool", "pool.detect_error", now, error=detect_error)
        for no, status, nbytes, parts in regions:
            self.instant("pool", f"region{no}", now, status=status,
                         bytes=nbytes, parts=parts)


def format_record(record: TraceRecord) -> str:
    """Render a record as a one-line text string (debug printing)."""
    extra = ""
    if record.args:
        extra = " " + " ".join(f"{k}={v}" for k, v in sorted(record.args.items()))
    if record.ph == SPAN:
        return (f"[{record.ts:.6f}+{record.dur:.6f}] {record.cat} "
                f"{record.name} pid={record.pid}{extra}")
    return f"[{record.ts:.6f}] {record.cat} {record.name} pid={record.pid}{extra}"
