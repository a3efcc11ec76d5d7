"""Process objects and the cooperative process API.

A process body is a generator function ``body(proc)`` that yields syscall
requests.  The :class:`Process` helper methods are sub-generators used via
``yield from`` so command implementations read naturally::

    def body(proc):
        data = yield from proc.read_all(0)
        yield from proc.cpu(len(data) * 1e-9)
        yield from proc.write(1, transform(data))
        return 0

Per-record CPU costs are *deferred*: ``proc.charge(seconds)`` only appends
to a list on the process.  The kernel replays that list burst by burst,
as one :class:`CpuVReq`, ahead of the next request the body yields (or of
its exit), so a body's burst / read / write order is what a ``proc.cpu``
per record would have produced, at one dispatch per drain instead of one
per record.
"""

from __future__ import annotations

import heapq
from typing import Callable, Iterator, Optional

from .errors import BadFileDescriptor
from .handles import Handle
from .syscalls import (
    CloseReq,
    CpuReq,
    DupReq,
    KillReq,
    NetSendReq,
    OpenReq,
    ReadReq,
    ReadVReq,
    SleepReq,
    SpawnReq,
    WaitReq,
    WriteReq,
    WriteVReq,
)

#: Default chunk size processes use for streaming IO.
CHUNK = 64 * 1024

NEW, RUNNING, DONE = "new", "running", "done"


class FdTable(dict):
    """fd → Handle mapping with O(log n) lowest-free-fd allocation.

    The old ``next_fd`` scanned from 0 on every open — O(n²) across a
    script that opens many fds.  This subclass keeps a min-heap of
    candidate free fds below a high-water mark; entries are validated
    lazily on allocation so arbitrary dict mutation (the interpreter
    swaps whole tables during redirections) stays correct.
    """

    def __init__(self, mapping: Optional[dict] = None):
        super().__init__()
        self._free: list[int] = []  # candidate free fds, all < _top
        self._top = 0  # every fd >= _top is free
        if mapping:
            for fd, handle in mapping.items():
                self[fd] = handle

    def __setitem__(self, fd: int, handle: Handle) -> None:
        if fd >= self._top:
            for i in range(self._top, fd):
                heapq.heappush(self._free, i)
            self._top = fd + 1
        super().__setitem__(fd, handle)

    def __delitem__(self, fd: int) -> None:
        super().__delitem__(fd)
        heapq.heappush(self._free, fd)

    def pop(self, fd, *default):
        if fd in self:
            heapq.heappush(self._free, fd)
        return super().pop(fd, *default)

    def next_free(self) -> int:
        """Lowest fd not currently mapped (does not reserve it)."""
        free = self._free
        while free:
            fd = free[0]
            if fd in self:  # stale: was re-assigned directly
                heapq.heappop(free)
                continue
            return fd
        return self._top


class Process:
    def __init__(self, pid: int, name: str, node, kernel):
        self.pid = pid
        self.name = name
        self.node = node
        self.kernel = kernel
        self.gen: Optional[Iterator] = None
        self._fds = FdTable()
        self.cwd = "/"
        self.state = NEW
        self.exit_status: Optional[int] = None
        self.error: Optional[str] = None
        self.waiters: list["Process"] = []
        self.start_time = 0.0
        self.end_time = 0.0
        self._splice = None  # kernel-side pump state (repro.vos.kernel)
        self._cpuv = None  # kernel-side replay state of a CpuVReq
        #: bursts deferred by charge(), taken by the kernel at the next
        #: dispatch or exit; None when empty
        self._charges: Optional[list] = None

    def __repr__(self) -> str:
        return f"<Process {self.pid} {self.name} {self.state}>"

    @property
    def fds(self) -> FdTable:
        return self._fds

    @fds.setter
    def fds(self, mapping) -> None:
        # the interpreter replaces whole fd tables during redirections;
        # plain dicts are upgraded so free-fd tracking keeps working
        self._fds = mapping if isinstance(mapping, FdTable) else FdTable(mapping)

    def handle(self, fd: int) -> Handle:
        try:
            return self._fds[fd]
        except KeyError:
            raise BadFileDescriptor(f"{self.name}: fd {fd}") from None

    def next_fd(self) -> int:
        return self._fds.next_free()

    # -- syscall helper sub-generators ------------------------------------------

    def charge(self, seconds: float) -> None:
        """Defer one CPU burst: it runs, in order, before the next
        request this process yields (or before it exits)."""
        if seconds > 0:
            if self._charges is None:
                self._charges = [seconds]
            else:
                self._charges.append(seconds)

    def cpu(self, seconds: float):
        if seconds > 0:
            yield CpuReq(seconds)

    def read(self, fd: int, nbytes: int = CHUNK):
        parts = yield ReadReq(fd, nbytes)
        if len(parts) == 1 and type(parts[0]) is bytes:
            return parts[0]  # one whole producer chunk: no copy
        return b"".join(parts)

    def write(self, fd: int, data: bytes):
        size = len(data)
        if not size:
            return 0
        if size <= CHUNK:
            n = yield WriteReq(fd, data)
            return n
        # zero-copy chunking: each dispatch carries a memoryview slice
        # (the old code materialized bytes(view[...]) per 64 KB chunk)
        total = 0
        view = memoryview(data)
        while total < size:
            n = yield WriteReq(fd, view[total : total + CHUNK])
            total += n
        return total

    def writev(self, fd: int, parts: list):
        """Vectored write: one dispatch (no join copy) when the vector
        fits in CHUNK; otherwise falls back to the chunked ``write``
        path so blocking granularity is unchanged."""
        total = 0
        for part in parts:
            total += len(part)
        if total == 0:
            return 0
        if total <= CHUNK:
            n = yield WriteVReq(fd, list(parts))
            return n
        result = yield from self.write(fd, b"".join(parts))
        return result

    def read_all(self, fd: int):
        chunks: list = []
        while True:
            parts = yield ReadVReq(fd, CHUNK)
            if not parts:
                return b"".join(chunks)
            chunks.extend(parts)

    def open(self, path: str, mode: str = "r"):
        fd = yield OpenReq(path, mode)
        return fd

    def close(self, fd: int):
        yield CloseReq(fd)

    def dup2(self, src_fd: int, dst_fd: int):
        yield DupReq(src_fd, dst_fd)

    def spawn(self, target: Callable, name: str = "proc", fds: Optional[dict] = None,
              cwd: Optional[str] = None, node: Optional[str] = None):
        pid = yield SpawnReq(target, name, fds or {}, cwd, node)
        return pid

    def wait(self, pid: int):
        status = yield WaitReq(pid)
        return status

    def kill(self, pid: int, status: Optional[int] = None):
        """Deliver a fatal signal (victim exits with ``status``); None is
        the signal-0 probe.  Returns 0 (no such pid), 1 (delivered to a
        live victim), or 2 (victim already exited)."""
        outcome = yield KillReq(pid, status)
        return outcome

    def sleep(self, seconds: float):
        yield SleepReq(seconds)

    def net_send(self, dst_node: str, nbytes: int):
        yield NetSendReq(dst_node, nbytes)

    # -- zero-cost metadata access (stat-like calls are effectively free) -----

    @property
    def fs(self):
        return self.node.fs

    def resolve(self, path: str) -> str:
        from .fs import normalize

        return normalize(path, self.cwd)
