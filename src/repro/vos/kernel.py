"""The discrete-event kernel.

Processes are cooperative generators; the kernel advances a virtual clock
driven by three resource models:

* **CPU**: per-node processor sharing — ``k`` runnable bursts on an
  ``n``-core node each progress at rate ``min(1, n/k)``.
* **Disk**: per-node FIFO device with throughput + IOPS limits and a
  burst-credit bucket (:mod:`repro.vos.devices`).
* **Pipes**: bounded buffers; readers/writers block, ``BrokenPipe`` is
  thrown into writers whose reader vanished (SIGPIPE analogue).

``Kernel.run()`` executes until no process can make progress and returns
the virtual time consumed.
"""

from __future__ import annotations

import heapq
from collections import deque
from functools import partial
from typing import Callable, Optional

from .devices import Disk, DiskSpec, _DiskRequest
from .errors import (
    BrokenPipe,
    InjectedDiskError,
    InjectedFault,
    InjectedNetError,
    InjectedPartialWrite,
    InjectedPipeBreak,
    KernelStall,
    NoSuchProcess,
    VosError,
)
from .faults import (
    CRASH,
    DISK_ERROR,
    DISK_SLOW,
    EX_IOERR,
    NET_ERROR,
    NET_PARTITION,
    PARTIAL_WRITE,
    PIPE_BREAK,
)
from .fs import FileSystem, normalize
from .handles import (
    Collector,
    FileHandle,
    Handle,
    NullHandle,
    PipeReader,
    PipeWriter,
    StringSource,
)
from .pipes import Pipe
from .process import DONE, NEW, RUNNING, Process
from .syscalls import (
    CloseReq,
    CpuReq,
    CpuVReq,
    DupReq,
    KillReq,
    NetSendReq,
    OpenReq,
    ReadReq,
    ReadVReq,
    SleepReq,
    SpawnReq,
    SpliceReq,
    WaitReq,
    WriteReq,
    WriteVReq,
)

#: Exit status for a process killed by SIGPIPE.
SIGPIPE_STATUS = 141

_EPS = 1e-12

#: main-loop iterations in a row that may move neither the clock nor a
#: process before the loop is declared stalled (a live run has none)
_STALL_LIMIT = 1000


class _SpliceState:
    """Kernel-side pump state for one in-flight :class:`SpliceReq`."""

    __slots__ = ("src", "src_fd", "dsts", "dst_fds", "coeff", "chunk",
                 "parts", "total", "chunks", "dst_i", "phase")

    def __init__(self, src, src_fd, dsts, dst_fds, coeff, chunk):
        self.src = src
        self.src_fd = src_fd
        self.dsts = dsts
        self.dst_fds = dst_fds
        self.coeff = coeff
        self.chunk = chunk
        self.parts: list = []
        self.total = 0
        self.chunks = 0
        self.dst_i = 0
        self.phase = "read"


class _CpuVState:
    """Kernel-side replay state for one in-flight :class:`CpuVReq`:
    the bursts, the index of the next one to charge, and ``then``, called
    in place when the last has finished — it resumes the generator,
    dispatches the request the bursts were charged ahead of, or exits."""

    __slots__ = ("bursts", "i", "then")

    def __init__(self, bursts, then):
        self.bursts = bursts
        self.i = 0
        self.then = then


class Node:
    """One machine in the simulation: cores + filesystem + disk."""

    def __init__(self, name: str, cores: int, cpu_speed: float,
                 disk_spec: DiskSpec, fs: Optional[FileSystem] = None):
        self.name = name
        self.cores = cores
        self.cpu_speed = cpu_speed
        self.fs = fs if fs is not None else FileSystem()
        self.disk = Disk(disk_spec)
        # processor-sharing state
        self.cpu_active: dict[Process, float] = {}  # remaining core-seconds
        self.cpu_last_update = 0.0
        self.cpu_busy_time = 0.0

    def cpu_rate(self) -> float:
        k = len(self.cpu_active)
        if k == 0:
            return 1.0
        return min(1.0, self.cores / k)


class Kernel:
    def __init__(self, node: Optional[Node] = None):
        self.now = 0.0
        self.nodes: dict[str, Node] = {}
        if node is not None:
            self.add_node(node)
        self.processes: dict[int, Process] = {}
        self._next_pid = 1
        self._ready: deque = deque()  # (process, value, exception)
        self._timers: list = []  # heap of (time, seq, process, value)
        self._timer_seq = 0
        self.network = None  # installed by repro.distributed for clusters
        #: the installed repro.obs.Tracer and MetricsRegistry, or None
        self._tracer = self._metrics = None
        #: the one thing every emission site tells (repro.obs.observer):
        #: None when no consumer is installed, so an unobserved kernel
        #: pays one None-check per site
        self.observer = None
        self.steps = 0
        #: syscall dispatches (one per request crossing the process →
        #: kernel boundary; splice pumps move data without re-dispatching)
        self.dispatches = 0
        #: optional repro.vos.faults.FaultPlan consulted at dispatch
        self._faults = None

    # -- observability -----------------------------------------------------------

    @property
    def tracer(self):
        return self._tracer

    @property
    def metrics(self):
        return self._metrics

    def install_tracer(self, tracer) -> None:
        """Attach a repro.obs.Tracer (None detaches it)."""
        self._tracer = tracer
        if tracer is not None:
            tracer.attach(self)
        self._observe()

    def install_metrics(self, registry) -> None:
        """Attach a repro.obs.MetricsRegistry (None detaches it)."""
        self._metrics = registry
        self._observe()

    @property
    def faults(self):
        return self._faults

    @faults.setter
    def faults(self, plan) -> None:
        self._faults = plan
        self._observe()

    def _observe(self) -> None:
        """Re-derive the observer from the installed consumers, and hand
        it to the fault plan, whose firings are kernel events too."""
        from ..obs.observer import observer  # repro.obs imports the engines

        self.observer = observer(self._tracer, self._metrics)
        if self._faults is not None:
            self._faults.observer = self.observer

    # -- topology ----------------------------------------------------------------

    def add_node(self, node: Node) -> Node:
        node.cpu_last_update = self.now
        self.nodes[node.name] = node
        return node

    @property
    def main_node(self) -> Node:
        return next(iter(self.nodes.values()))

    # -- process lifecycle ---------------------------------------------------------

    def create_process(self, target: Callable, name: str = "proc",
                       node: Optional[Node] = None, cwd: str = "/",
                       fds: Optional[dict[int, Handle]] = None,
                       parent: Optional[Process] = None) -> Process:
        node = node or self.main_node
        proc = Process(self._next_pid, name, node, self)
        self._next_pid += 1
        proc.cwd = cwd
        for fd, handle in (fds or {}).items():
            proc.fds[fd] = handle.dup()
        proc.gen = target(proc)
        proc.state = RUNNING
        proc.start_time = self.now
        self.processes[proc.pid] = proc
        self._ready.append((proc, None, None))
        ob = self.observer
        if ob is not None:
            ob.on_spawn(self.now, proc, parent)
        return proc

    def kill_process(self, proc: Process, status: int = 137) -> None:
        """Forcibly terminate a process (SIGKILL analogue): close its fds
        (waking pipe peers), record the status, wake waiters."""
        if proc.state == DONE:
            return
        self._advance_cpu(proc.node)
        remaining = proc.node.cpu_active.pop(proc, None)
        ob = self.observer
        if ob is not None and remaining is not None:
            ob.on_cpu_killed(self.now, proc, remaining)
        self._exit(proc, status, error="killed")

    def processes_on(self, node: Node) -> list[Process]:
        return [p for p in self.processes.values()
                if p.node is node and p.state != DONE]

    def _exit(self, proc: Process, status: int, error: Optional[str] = None) -> None:
        proc.state = DONE
        if proc._splice is not None:
            st = proc._splice
            proc._splice = None
            ob = self.observer
            if ob is not None:
                ob.on_splice_end(self.now, proc, st.total, st.chunks,
                                 error=error or "killed")
        proc.exit_status = int(status) & 0xFF if status is not None else 0
        proc.error = error
        proc.end_time = self.now
        node = proc.node
        if proc in node.cpu_active:  # pragma: no cover - defensive
            self._advance_cpu(node)
            del node.cpu_active[proc]
        for fd in list(proc.fds):
            self._close_fd(proc, fd)
        ob = self.observer
        for waiter in proc.waiters:
            if ob is not None:
                ob.on_wait_end(self.now, waiter, proc)
            self._ready.append((waiter, proc.exit_status, None))
        proc.waiters.clear()
        if ob is not None:
            ob.on_exit(self.now, proc)

    def _close_fd(self, proc: Process, fd: int) -> None:
        handle = proc.fds.pop(fd, None)
        if handle is None:
            return
        fully = handle.release()
        if fully:
            self._handle_closed(handle)

    def _handle_closed(self, handle: Handle) -> None:
        if isinstance(handle, PipeWriter):
            pipe = handle.pipe
            if pipe.writers == 0:
                self._wake_pipe_readers(pipe)
        elif isinstance(handle, PipeReader):
            pipe = handle.pipe
            if pipe.readers == 0:
                self._break_pipe_writers(pipe)

    # -- main loop ----------------------------------------------------------------

    def run(self) -> float:
        """Run until quiescent; returns the final virtual time."""
        idle = 0
        while True:
            before = (self.now, self.steps)
            self._drain_ready()
            t = self._next_event_time()
            if t is None:
                break
            self._advance_to(t)
            idle = 0 if self._ready else self._idle_count(before, idle)
        return self.now

    def run_until_process_done(self, proc: Process) -> int:
        """Convenience: run until a given process exits."""
        idle = 0
        while proc.state != DONE:
            before = (self.now, self.steps)
            self._drain_ready()
            if proc.state == DONE:
                break
            t = self._next_event_time()
            if t is None:
                raise KernelStall(
                    f"deadlock: {proc} cannot make progress "
                    f"(blocked processes: {self._live()})"
                )
            self._advance_to(t)
            idle = 0 if self._ready else self._idle_count(before, idle)
        return proc.exit_status or 0

    def _live(self) -> list[Process]:
        return [p for p in self.processes.values() if p.state != DONE]

    def _idle_count(self, before: tuple, idle: int) -> int:
        """No-progress watchdog, asked when an iteration leaves nothing
        runnable: ``idle + 1`` if it also left ``(now, steps)`` at
        ``before``, else 0.  An event the clock cannot resolve any more is
        rescheduled at ``now`` for ever; the limit makes that a failure."""
        if (self.now, self.steps) != before:
            return 0
        if idle + 1 >= _STALL_LIMIT:
            raise KernelStall(
                f"kernel stalled at virtual time {self.now!r} "
                f"(blocked processes: {self._live()})")
        return idle + 1

    def _drain_ready(self) -> None:
        while self._ready:
            proc, value, exc = self._ready.popleft()
            if proc.state == DONE:
                continue
            self._step(proc, value, exc)

    def _step(self, proc: Process, value=None, exc: Optional[BaseException] = None) -> None:
        if proc._splice is not None:
            # the process generator is suspended at a SpliceReq; completions
            # feed the kernel-side pump instead of the generator
            self._splice_step(proc, value, exc)
            return
        if proc._cpuv is not None:
            # suspended at a CpuVReq: a finished burst starts the next
            self._cpuv_step(proc)
            return
        self.steps += 1
        try:
            if exc is not None:
                request = proc.gen.throw(exc)
            else:
                request = proc.gen.send(value)
        except StopIteration as stop:
            self._body_ended(proc, stop.value if stop.value is not None else 0)
        except BrokenPipe:
            self._body_ended(proc, SIGPIPE_STATUS)
        except InjectedFault as err:
            self._body_ended(proc, EX_IOERR, f"{type(err).__name__}: {err}")
        except VosError as err:
            self._body_ended(proc, 1, f"{type(err).__name__}: {err}")
        else:
            self._dispatch(proc, request)

    def _body_ended(self, proc: Process, status: int,
                    error: Optional[str] = None) -> None:
        """Exit — after the bursts the body charged since its last request,
        which a per-record ``proc.cpu`` would have run before this point."""
        if proc._charges is None:
            self._exit(proc, status, error)
        else:
            self._run_charges(proc, partial(self._exit, proc, status, error))

    def _run_charges(self, proc: Process, then: Callable) -> None:
        """Replay the bursts ``proc`` deferred with ``charge``, then ``then()``."""
        bursts, proc._charges = proc._charges, None
        self._dispatch(proc, CpuVReq(bursts), then)

    # -- syscall dispatch -------------------------------------------------------------

    def _dispatch(self, proc: Process, request,
                  then: Optional[Callable] = None) -> None:
        """Serve ``request``.  Bursts charged before it run first: the
        request is held and dispatched when the last of them has finished,
        which is when a body charging with ``proc.cpu`` would have yielded
        it.  ``then`` is what follows a CpuVReq (default: resume ``proc``)."""
        if proc._charges is not None:
            self._run_charges(proc, partial(self._dispatch, proc, request))
            return
        self.dispatches += 1
        ob = self.observer
        if ob is not None and ob.watches_dispatch:
            ob.on_dispatch(self.now, proc, request)
        if isinstance(request, CpuReq):
            self._sys_cpu(proc, request)
        elif isinstance(request, CpuVReq):
            proc._cpuv = _CpuVState(request.bursts,
                                    then or partial(self._step, proc))
            self._cpuv_step(proc)
        elif isinstance(request, (ReadReq, ReadVReq)):
            self._sys_read(proc, request)
        elif isinstance(request, WriteReq):
            self._sys_writev(proc, request.fd, [request.data], None)
        elif isinstance(request, WriteVReq):
            self._sys_writev(proc, request.fd, request.parts, "writev")
        elif isinstance(request, SpliceReq):
            self._sys_splice(proc, request)
        elif isinstance(request, OpenReq):
            self._sys_open(proc, request)
        elif isinstance(request, CloseReq):
            self._close_fd(proc, request.fd)
            self._ready.append((proc, None, None))
        elif isinstance(request, DupReq):
            self._sys_dup(proc, request)
        elif isinstance(request, SpawnReq):
            self._sys_spawn(proc, request)
        elif isinstance(request, WaitReq):
            self._sys_wait(proc, request)
        elif isinstance(request, KillReq):
            self._sys_kill(proc, request)
        elif isinstance(request, SleepReq):
            self._timer_seq += 1
            heapq.heappush(
                self._timers,
                (self.now + max(0.0, request.seconds), self._timer_seq, proc, None),
            )
        elif isinstance(request, NetSendReq):
            self._sys_net_send(proc, request)
        else:
            self._ready.append(
                (proc, None, VosError(f"unknown syscall {request!r}"))
            )

    # CPU ------------------------------------------------------------------------

    def _sys_cpu(self, proc: Process, request: CpuReq) -> None:
        self._charge_cpu(proc, request.seconds)

    def _charge_cpu(self, proc: Process, seconds: float) -> None:
        node = proc.node
        work = max(_EPS, seconds / node.cpu_speed)
        self._advance_cpu(node)
        node.cpu_active[proc] = work
        ob = self.observer
        if ob is not None:
            ob.on_cpu_begin(self.now, proc, work)

    def _cpuv_step(self, proc: Process) -> None:
        """Charge the next burst of ``proc``'s vector, or — in the step
        that would have resumed the generator after the last — go on to
        what follows.  Each burst is one ``_charge_cpu`` and one trip
        through ``_ready``, as a run of CpuReqs would be, minus the resume."""
        st = proc._cpuv
        if self._solo():
            self._cpuv_solo(proc, st)
        if st.i < len(st.bursts):
            seconds = st.bursts[st.i]
            st.i += 1
            self._charge_cpu(proc, seconds)
            return
        proc._cpuv = None
        st.then()

    def _solo(self) -> bool:
        """Can nothing but the stepping process's bursts happen until they end?
        Nobody else runnable or on a CPU, every disk idle, no timer,
        network or fault plan to fire, no observer to tell."""
        if (self._ready or self._timers or self.network is not None
                or self._faults is not None or self.observer is not None):
            return False
        for node in self.nodes.values():
            if node.cpu_active or node.disk.busy_until is not None:
                return False
        return True

    def _cpuv_solo(self, proc: Process, st: _CpuVState) -> None:
        """Run bursts of ``st`` back to back while alone (``_solo``):
        the float operations, in order, of ``_charge_cpu`` ->
        ``_next_event_time`` -> ``_advance_to`` -> ``_advance_cpu`` for a
        single active burst.  Stops before a burst whose arithmetic the
        general path would not finish in one advance (clock too large to
        resolve it), leaving that one to the general path."""
        node = proc.node
        speed = node.cpu_speed
        # Node.cpu_rate() and the busy-core count with this one burst active
        rate = min(1.0, node.cores / 1)
        busy_cores = min(1, node.cores)
        bursts, i, n = st.bursts, st.i, len(st.bursts)
        now = self.now
        busy = node.cpu_busy_time
        while i < n:
            work = bursts[i] / speed
            if not work > _EPS:  # max(_EPS, work)
                work = _EPS
            t = now + work / rate  # >= now, so max(now, t) is t
            elapsed = t - now
            if elapsed <= 0 or work - elapsed * rate > _EPS:
                break
            busy += elapsed * busy_cores
            now = t
            i += 1
        st.i = i
        self.now = now
        node.cpu_busy_time = busy
        for each in self.nodes.values():
            each.cpu_last_update = now

    def _advance_cpu(self, node: Node) -> None:
        """Account progress of active CPU bursts on `node` up to `self.now`."""
        elapsed = self.now - node.cpu_last_update
        node.cpu_last_update = self.now
        if elapsed <= 0 or not node.cpu_active:
            return
        rate = node.cpu_rate()
        node.cpu_busy_time += elapsed * min(len(node.cpu_active), node.cores)
        finished = []
        for p in node.cpu_active:
            node.cpu_active[p] -= elapsed * rate
            if node.cpu_active[p] <= _EPS:
                finished.append(p)
        ob = self.observer
        for p in finished:
            del node.cpu_active[p]
            if ob is not None:
                ob.on_cpu_end(self.now, p)
            self._ready.append((p, None, None))

    # IO -----------------------------------------------------------------------------

    def _sys_read(self, proc: Process, request) -> None:
        try:
            handle = proc.handle(request.fd)
        except VosError as err:
            self._ready.append((proc, None, err))
            return
        self._handle_read(proc, handle, request.fd, request.nbytes)

    def _handle_read(self, proc: Process, handle: Handle, fd: int,
                     nbytes: int, via: Optional[str] = None) -> None:
        """Read from a resolved handle; the completion value is a list of
        zero-copy chunks, empty at EOF (``Process.read`` joins them)."""
        if isinstance(handle, NullHandle):
            self._ready.append((proc, [], None))
        elif isinstance(handle, StringSource):
            data = handle.read_now(nbytes)
            self._ready.append((proc, [data] if data else [], None))
        elif isinstance(handle, FileHandle):
            self._file_read(proc, handle, nbytes, via)
        elif isinstance(handle, PipeReader):
            self._pipe_read(proc, handle.pipe, nbytes)
        else:
            self._ready.append(
                (proc, None, VosError(f"fd {fd} not readable"))
            )

    def _sys_writev(self, proc: Process, fd: int, parts: list,
                    via: Optional[str]) -> None:
        """``via`` is what the body asked for — None for a WriteReq,
        "writev" for a WriteVReq — and what ``FaultSpec(via=...)`` aims at."""
        try:
            handle = proc.handle(fd)
        except VosError as err:
            self._ready.append((proc, None, err))
            return
        self._handle_writev(proc, handle, fd, parts, via)

    def _handle_writev(self, proc: Process, handle: Handle, fd: int,
                       parts: list, via: Optional[str] = None) -> None:
        """Write a chunk vector as one logical write (one fault op, one
        disk request / pipe transfer of the summed length)."""
        if isinstance(handle, (NullHandle,)):
            self._ready.append((proc, sum(len(p) for p in parts), None))
        elif isinstance(handle, Collector):
            n = 0
            for part in parts:
                n += handle.write_now(part)
            self._ready.append((proc, n, None))
        elif isinstance(handle, FileHandle):
            self._file_writev(proc, handle, parts, via)
        elif isinstance(handle, PipeWriter):
            self._pipe_writev(proc, handle.pipe, parts, via)
        else:
            self._ready.append(
                (proc, None, VosError(f"fd {fd} not writable"))
            )

    # file IO through the disk ------------------------------------------------------

    def _disk_fault(self, proc: Process, handle: FileHandle,
                    write: bool = False,
                    via: Optional[str] = None) -> tuple[bool, float, Optional[float]]:
        """Consult the fault plan before a disk operation touches state.
        Returns (aborted, slow_factor, torn_fraction): ``torn_fraction``
        is non-None only for an injected partial write — the caller must
        commit that prefix of the payload and then fail the process."""
        if self.faults is None:
            return False, 1.0, None
        action = self.faults.on_disk_io(self.now, proc, handle.path,
                                        write=write, via=via)
        if action is None:
            return False, 1.0, None
        kind, factor = action
        if kind == DISK_ERROR:
            self._ready.append(
                (proc, None, InjectedDiskError(f"{handle.path}: injected EIO"))
            )
            return True, 1.0, None
        if kind == CRASH:
            self.kill_process(proc)
            return True, 1.0, None
        if kind == DISK_SLOW:
            return False, max(1.0, factor), None
        if kind == PARTIAL_WRITE:
            return False, 1.0, max(0.0, min(1.0, factor))
        return False, 1.0, None  # pragma: no cover - defensive

    def _file_read(self, proc: Process, handle: FileHandle, nbytes: int,
                   via: Optional[str] = None) -> None:
        if handle.eof():
            self._ready.append((proc, [], None))
            return
        aborted, slow, _torn = self._disk_fault(proc, handle, via=via)
        if aborted:
            return
        handle.note_io()
        data = handle.read_now(nbytes)
        disk = handle.disk
        if disk is None:
            self._ready.append((proc, [data], None))
            return
        self._disk_submit(
            disk,
            _DiskRequest(len(data), disk.ops_for(len(data)), proc, [data], slow=slow),
        )

    def _file_writev(self, proc: Process, handle: FileHandle, parts: list,
                     via: Optional[str] = None) -> None:
        aborted, slow, torn = self._disk_fault(proc, handle, write=True, via=via)
        if aborted:
            return
        if torn is not None:
            self._torn_file_write(proc, handle, parts, torn)
            return
        handle.note_io()
        n = 0
        try:
            for part in parts:
                n += handle.write_now(part, self.now)
        except VosError as err:
            self._ready.append((proc, None, err))
            return
        disk = handle.disk
        if disk is None:
            self._ready.append((proc, n, None))
            return
        self._disk_submit(disk, _DiskRequest(n, disk.ops_for(n), proc, n, slow=slow))

    @staticmethod
    def _torn_prefix(parts: list, fraction: float) -> tuple[int, list]:
        """An injected partial write keeps a deterministic prefix of its
        payload: (payload bytes, the kept prefix as zero-copy views)."""
        total = sum(len(part) for part in parts)
        keep = int(total * fraction)
        prefix = []
        for part in parts:
            if keep <= 0:
                break
            prefix.append(memoryview(part)[:keep])
            keep -= len(prefix[-1])
        return total, prefix

    def _torn_file_write(self, proc: Process, handle: FileHandle,
                         parts: list, fraction: float) -> None:
        """Injected partial write: commit the prefix to the file, then
        fail the writer.  The torn bytes stay on 'disk' — recovery layers
        must roll them back or overwrite."""
        total, prefix = self._torn_prefix(parts, fraction)
        handle.note_io()
        try:
            for view in prefix:
                handle.write_now(view, self.now)
        except VosError:  # pragma: no cover - torn target vanished
            pass
        self._ready.append(
            (proc, None,
             InjectedPartialWrite(
                 f"{handle.path}: injected torn write "
                 f"({int(total * fraction)}/{total} bytes)"))
        )

    def _disk_submit(self, disk: Disk, request: _DiskRequest) -> None:
        request.start = self.now
        ob = self.observer
        if ob is not None:
            ob.on_disk_submit(self.now, disk, request)
        if disk.current is None:
            self._disk_start(disk, request)
        else:
            disk.queue.append(request)

    def _disk_start(self, disk: Disk, request: _DiskRequest) -> None:
        disk.current = request
        request.service_start = self.now
        duration = disk.service_time(request, self.now)
        disk.busy_until = self.now + duration

    def _disk_complete(self, disk: Disk) -> None:
        request = disk.current
        disk.current = None
        disk.busy_until = None
        if request is not None:
            ob = self.observer
            if ob is not None:
                ob.on_disk_complete(self.now, disk, request)
            self._ready.append((request.process, request.result, None))
        if disk.queue:
            self._disk_start(disk, disk.queue.pop(0))

    # pipes --------------------------------------------------------------------------------

    def _pipe_read(self, proc: Process, pipe: Pipe, nbytes: int) -> None:
        ob = self.observer
        if pipe.size:
            data = pipe.pull_chunks(nbytes)
            n = sum(len(part) for part in data)
            if ob is not None:
                ob.on_pipe_read(self.now, proc, pipe, n)
            self._ready.append((proc, data, None))
            self._service_pipe_writers(pipe)
        elif pipe.writers == 0:
            self._ready.append((proc, [], None))
        else:
            if ob is not None:
                ob.on_pipe_stall_begin(self.now, proc, pipe, "read")
            pipe.read_waiters.append((proc, nbytes))

    def _pipe_fault(self, proc: Process, pipe: Pipe, via: Optional[str],
                    parts: list) -> bool:
        """Consult the fault plan before a pipe write; True = aborted.
        A ``partial-write`` pushes a torn prefix of ``parts`` into the
        pipe (visible to the reader!) before failing the writer."""
        if self.faults is None:
            return False
        action = self.faults.on_pipe_write(self.now, proc, pipe, via=via)
        if action is None:
            return False
        if isinstance(action, tuple):  # (partial-write, fraction)
            _kind, fraction = action
            self._torn_pipe_write(proc, pipe, parts, fraction)
            return True
        if action == PIPE_BREAK:
            self._ready.append(
                (proc, None, InjectedPipeBreak(f"pipe {pipe.id}: injected break"))
            )
            return True
        if action == CRASH:
            self.kill_process(proc)
            return True
        return False

    def _torn_pipe_write(self, proc: Process, pipe: Pipe, parts: list,
                         fraction: float) -> None:
        """Push the prefix of the payload, wake readers (the torn bytes
        ARE delivered downstream), then fail the writer."""
        total, prefix = self._torn_prefix(parts, fraction)
        pushed, _rest = pipe.push_vector(prefix)
        ob = self.observer
        if ob is not None and pushed:
            ob.on_pipe_write(self.now, proc, pipe, pushed)
        if pushed:
            self._wake_pipe_readers(pipe)
        self._ready.append(
            (proc, None,
             InjectedPartialWrite(
                 f"pipe {pipe.id}: injected torn write "
                 f"({pushed}/{total} bytes)"))
        )

    def _pipe_writev(self, proc: Process, pipe: Pipe, parts: list,
                     via: Optional[str] = None) -> None:
        if pipe.readers == 0:
            self._ready.append((proc, None, BrokenPipe(f"pipe {pipe.id}")))
            return
        if self._pipe_fault(proc, pipe, via, parts):
            return
        accepted, remaining = pipe.push_vector(parts)
        ob = self.observer
        if ob is not None:
            ob.on_pipe_write(self.now, proc, pipe, accepted)
        if remaining:
            # queued before the wake: a blocked reader that empties the
            # pipe (a write larger than it) comes back for the remainder
            if ob is not None:
                ob.on_pipe_stall_begin(self.now, proc, pipe, "write")
            pipe.write_waiters.append((proc, remaining, accepted))
        if accepted:
            self._wake_pipe_readers(pipe)
        if not remaining:
            self._ready.append((proc, accepted, None))

    def _wake_pipe_readers(self, pipe: Pipe) -> None:
        ob = self.observer
        while pipe.read_waiters and (pipe.size or pipe.writers == 0):
            proc, nbytes = pipe.read_waiters.pop(0)
            if proc.state == DONE:
                continue
            data = pipe.pull_chunks(nbytes)
            n = sum(len(part) for part in data)
            if ob is not None:
                ob.on_pipe_stall_end(self.now, proc, n)
                ob.on_pipe_read(self.now, proc, pipe, n)
            self._ready.append((proc, data, None))
        if pipe.read_waiters or not pipe.write_waiters:
            return
        self._service_pipe_writers(pipe)

    def _service_pipe_writers(self, pipe: Pipe) -> None:
        ob = self.observer
        progressed = False
        while pipe.write_waiters and pipe.space() > 0:
            proc, parts, done = pipe.write_waiters.pop(0)
            if proc.state == DONE:
                continue
            accepted, remaining = pipe.push_vector(parts)
            progressed = progressed or accepted > 0
            done += accepted
            if ob is not None and accepted:
                ob.on_pipe_write(self.now, proc, pipe, accepted)
            if not remaining:
                if ob is not None:
                    ob.on_pipe_stall_end(self.now, proc, done)
                self._ready.append((proc, done, None))
            else:
                pipe.write_waiters.insert(0, (proc, remaining, done))
                break
        if progressed:
            self._wake_pipe_readers(pipe)

    def _break_pipe_writers(self, pipe: Pipe) -> None:
        ob = self.observer
        waiters, pipe.write_waiters = pipe.write_waiters, []
        for proc, _remaining, done in waiters:
            if proc.state != DONE:
                if ob is not None:
                    ob.on_pipe_stall_end(self.now, proc, done, broken=True)
                self._ready.append((proc, None, BrokenPipe(f"pipe {pipe.id}")))

    # splice fast path -----------------------------------------------------------------

    def _sys_splice(self, proc: Process, request: SpliceReq) -> None:
        """Start a kernel-side pass-through pump: repeatedly read from
        ``src_fd``, charge ``cpu_coeff * len`` seconds, and write the
        chunks to every ``dst_fd`` in order — the exact read/cpu/write
        op sequence (same tracer records, same fault-plan op counts,
        same virtual time) a ``cat``-style generator loop would issue,
        minus one generator resume + request object + data copy per op.
        """
        try:
            src = proc.handle(request.src_fd)
            dsts = [proc.handle(fd) for fd in request.dst_fds]
        except VosError as err:
            self._ready.append((proc, None, err))
            return
        proc._splice = _SpliceState(src, request.src_fd, dsts,
                                    request.dst_fds, request.cpu_coeff,
                                    request.chunk)
        ob = self.observer
        if ob is not None:
            ob.on_splice_begin(self.now, proc, src, dsts)
        self._splice_read(proc, proc._splice)

    def _splice_read(self, proc: Process, st: "_SpliceState") -> None:
        st.phase = "read"
        self._handle_read(proc, st.src, st.src_fd, st.chunk, via="splice")

    def _splice_write(self, proc: Process, st: "_SpliceState") -> None:
        st.phase = "write"
        self._handle_writev(proc, st.dsts[st.dst_i], st.dst_fds[st.dst_i],
                            st.parts, via="splice")

    def _splice_step(self, proc: Process, value, exc) -> None:
        """Advance a pump with a completion ``value`` (or fault ``exc``,
        which unwinds into the generator exactly like a failed ReadReq /
        WriteReq would — BrokenPipe mid-splice exits with SIGPIPE)."""
        st = proc._splice
        if exc is not None:
            proc._splice = None
            ob = self.observer
            if ob is not None:
                ob.on_splice_end(self.now, proc, st.total, st.chunks,
                                 error=type(exc).__name__)
            self._step(proc, None, exc)
            return
        if st.phase == "read":
            parts = value
            if not parts:  # EOF: resume the generator with the byte total
                total = st.total
                proc._splice = None
                ob = self.observer
                if ob is not None:
                    ob.on_splice_end(self.now, proc, total, st.chunks)
                self._step(proc, total, None)
                return
            st.parts = parts
            nbytes = 0
            for part in parts:
                nbytes += len(part)
            st.total += nbytes
            st.chunks += 1
            ob = self.observer
            if ob is not None:
                ob.on_splice_chunk(self.now, proc, nbytes, len(parts))
            seconds = nbytes * st.coeff
            if seconds > 0:
                st.phase = "cpu"
                self._charge_cpu(proc, seconds)
            else:
                st.dst_i = 0
                self._splice_write(proc, st)
        elif st.phase == "cpu":
            st.dst_i = 0
            self._splice_write(proc, st)
        else:  # write to dsts[dst_i] completed
            st.dst_i += 1
            if st.dst_i < len(st.dsts):
                self._splice_write(proc, st)
            else:
                self._splice_read(proc, st)

    # open/dup -------------------------------------------------------------------------------

    def open_handle(self, node: Node, path: str, mode: str, cwd: str = "/") -> Handle:
        """Create (without installing) a handle for ``path`` on ``node``.
        Raises VosError on failure.  Used by _sys_open and by the shell
        interpreter when preparing child fd tables for redirections."""
        path = normalize(path, cwd)
        if path == "/dev/null":
            return NullHandle()
        if mode == "r":
            file_node = node.fs.open_node(path)
            return FileHandle(file_node, node.disk, path, True, False)
        if mode == "w":
            file_node = node.fs.open_node(path, create=True, truncate=True,
                                          mtime=self.now)
            return FileHandle(file_node, node.disk, path, False, True)
        if mode == "a":
            file_node = node.fs.open_node(path, create=True, mtime=self.now)
            return FileHandle(file_node, node.disk, path, False, True, append=True)
        if mode == "rw":
            file_node = node.fs.open_node(path, create=True, mtime=self.now)
            return FileHandle(file_node, node.disk, path, True, True)
        raise VosError(f"bad open mode {mode!r}")

    def _sys_open(self, proc: Process, request: OpenReq) -> None:
        try:
            handle = self.open_handle(proc.node, request.path, request.mode, proc.cwd)
        except VosError as err:
            self._ready.append((proc, None, err))
            return
        fd = proc.next_fd()
        proc.fds[fd] = handle.dup()
        self._ready.append((proc, fd, None))

    def _sys_dup(self, proc: Process, request: DupReq) -> None:
        try:
            handle = proc.handle(request.src_fd)
        except VosError as err:
            self._ready.append((proc, None, err))
            return
        if request.dst_fd in proc.fds:
            self._close_fd(proc, request.dst_fd)
        proc.fds[request.dst_fd] = handle.dup()
        self._ready.append((proc, None, None))

    # spawn/wait -----------------------------------------------------------------------------

    def _sys_spawn(self, proc: Process, request: SpawnReq) -> None:
        node = self.nodes.get(request.node) if request.node else proc.node
        if node is None:
            self._ready.append((proc, None, VosError(f"no node {request.node!r}")))
            return
        child = self.create_process(
            request.target,
            name=request.name,
            node=node,
            cwd=request.cwd if request.cwd is not None else proc.cwd,
            fds=request.fds,
            parent=proc,
        )
        self._ready.append((proc, child.pid, None))

    def _sys_wait(self, proc: Process, request: WaitReq) -> None:
        child = self.processes.get(request.pid)
        if child is None:
            self._ready.append((proc, None, NoSuchProcess(str(request.pid))))
            return
        ob = self.observer
        if ob is not None:
            ob.on_wait_edge(self.now, proc, child)
        if child.state == DONE:
            self._ready.append((proc, child.exit_status, None))
        else:
            if ob is not None:
                ob.on_wait_begin(self.now, proc, child)
            child.waiters.append(proc)

    def _sys_kill(self, proc: Process, request: KillReq) -> None:
        """Deliver a fatal signal: the victim exits with request.status
        (128+signum by convention).  status=None is the signal-0 probe.
        Resolves 0 = no such pid, 1 = delivered (victim was alive),
        2 = victim already DONE (the kernel keeps every process record,
        so the *caller* decides whether that is an unreaped zombie — a
        successful no-op on a host — or a reaped pid, which is ESRCH)."""
        victim = self.processes.get(request.pid)
        if victim is None:
            self._ready.append((proc, 0, None))
            return
        if victim.state == DONE:
            self._ready.append((proc, 2, None))
            return
        if request.status is not None:
            self.kill_process(victim, request.status)
        self._ready.append((proc, 1, None))

    # network ----------------------------------------------------------------------------------

    def _sys_net_send(self, proc: Process, request: NetSendReq) -> None:
        ob = self.observer
        if ob is not None:
            ob.on_net(self.now, proc, request.dst_node, request.nbytes)
        if self.faults is not None:
            kind = self.faults.on_net_send(self.now, proc, request.dst_node)
            if kind == NET_ERROR:
                self._ready.append(
                    (proc, None,
                     InjectedNetError(
                         f"net {proc.node.name}->{request.dst_node}: "
                         f"injected message loss")))
                return
            if kind == NET_PARTITION:
                self._ready.append(
                    (proc, None,
                     InjectedNetError(
                         f"net {proc.node.name}->{request.dst_node}: "
                         f"partitioned")))
                return
        if self.network is None:
            self._ready.append((proc, None, None))
            return
        self.network.submit(self, proc, request)

    # time ------------------------------------------------------------------------------------------

    def _next_event_time(self) -> Optional[float]:
        candidates: list[float] = []
        for node in self.nodes.values():
            if node.disk.busy_until is not None:
                candidates.append(node.disk.busy_until)
            if node.cpu_active:
                rate = node.cpu_rate()
                min_remaining = min(node.cpu_active.values())
                candidates.append(self.now + min_remaining / rate)
        if self._timers:
            candidates.append(self._timers[0][0])
        if self.network is not None:
            t = self.network.next_event_time()
            if t is not None:
                candidates.append(t)
        if self.faults is not None:
            t = self.faults.next_timed_crash()
            if t is not None:
                candidates.append(max(t, self.now))
        if not candidates:
            return None
        return min(candidates)

    def _advance_to(self, t: float) -> None:
        self.now = max(self.now, t)
        for node in self.nodes.values():
            self._advance_cpu(node)
            disk = node.disk
            while disk.busy_until is not None and disk.busy_until <= self.now + _EPS:
                self._disk_complete(disk)
        while self._timers and self._timers[0][0] <= self.now + _EPS:
            _t, _seq, proc, value = heapq.heappop(self._timers)
            if proc.state != DONE:
                self._ready.append((proc, value, None))
        if self.faults is not None:
            for spec in self.faults.due_timed_crashes(self.now + _EPS):
                victims = [
                    p for p in self.processes.values()
                    if p.state != DONE and self.faults.crash_matches(spec, p)
                ]
                for victim in victims:
                    self.faults.record_crash(self.now, victim.name)
                    self.kill_process(victim)
        if self.network is not None:
            self.network.advance_to(self, self.now)
        ob = self.observer
        if ob is not None:
            ob.on_tick(self.now, len(self._ready),
                       sum(len(n.cpu_active) for n in self.nodes.values()))
