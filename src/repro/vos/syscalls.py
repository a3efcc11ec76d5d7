"""Syscall request objects yielded by process generators to the kernel."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass
class CpuReq:
    """Consume ``seconds`` of reference-CPU time (processor-shared)."""

    seconds: float


@dataclass
class CpuVReq:
    """Vectored CPU: ``bursts`` is a list of reference-CPU seconds the
    kernel replays as that many individual :class:`CpuReq` bursts, in
    order (same processor sharing, tracer spans and metrics per burst),
    without resuming the generator in between.  The kernel issues one
    itself for the charges a body deferred with ``proc.charge``, ahead
    of the body's next request or its exit."""

    bursts: list


@dataclass
class ReadReq:
    fd: int
    nbytes: int


@dataclass
class WriteReq:
    fd: int
    data: bytes


@dataclass
class ReadVReq:
    """Vectored read: like :class:`ReadReq` but the kernel answers with a
    *list* of zero-copy buffer chunks (possibly ``memoryview``s) whose
    total length is what a ``ReadReq`` of the same size would have
    returned.  An empty list means EOF."""

    fd: int
    nbytes: int


@dataclass
class WriteVReq:
    """Vectored write: ``parts`` is a list of bytes-like chunks written
    as **one logical write** (one dispatch, one fault-plan op, one disk
    request / pipe transfer of ``sum(len(p))`` bytes).  Callers keep each
    request at or below ``process.CHUNK`` total so blocking granularity
    matches :class:`WriteReq`."""

    fd: int
    parts: list


@dataclass
class SpliceReq:
    """Kernel-side pass-through pump: move bytes from ``src_fd`` to every
    fd in ``dst_fds`` until EOF, charging ``cpu_coeff`` virtual seconds
    per byte — replaying exactly the read/cpu/write op sequence a
    ``cat``-style loop would have issued, in a single dispatch.  Resolves
    to the total byte count moved."""

    src_fd: int
    dst_fds: tuple
    cpu_coeff: float = 0.0
    chunk: int = 64 * 1024


@dataclass
class OpenReq:
    path: str
    mode: str  # "r" | "w" | "a" | "rw"


@dataclass
class CloseReq:
    fd: int


@dataclass
class SpawnReq:
    """Start a child process running ``target(proc)``.

    ``fds`` maps child fd numbers to Handle objects (duplicated on
    install); omitted fds are not inherited.  ``node`` selects the cluster
    node (None = parent's node).
    """

    target: Callable
    name: str = "proc"
    fds: dict = field(default_factory=dict)
    cwd: Optional[str] = None
    node: Optional[str] = None


@dataclass
class WaitReq:
    pid: int


@dataclass
class KillReq:
    """Deliver a fatal signal to ``pid``: the victim exits immediately
    with ``status`` (conventionally 128+signum).  ``status=None`` is the
    signal-0 existence probe — nothing is delivered.  Resolves 0 when the
    pid was never spawned, 1 when the signal was delivered to a live
    victim, and 2 when the victim had already exited (delivery is a
    no-op; the caller maps that to zombie-success or reaped-ESRCH)."""

    pid: int
    status: Optional[int] = None


@dataclass
class SleepReq:
    seconds: float


@dataclass
class NetSendReq:
    """Transfer ``nbytes`` from this process's node to ``dst_node``."""

    dst_node: str
    nbytes: int


Syscall = (
    CpuReq, CpuVReq, ReadReq, WriteReq, ReadVReq, WriteVReq, SpliceReq,
    OpenReq, CloseReq, SpawnReq, WaitReq, KillReq, SleepReq,
    NetSendReq,
)
