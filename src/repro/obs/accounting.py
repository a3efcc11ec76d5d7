"""Resource accounting aggregated from the trace stream.

Every tracer hook folds its measurement into a :class:`ResourceAccounting`
as it fires, so profiles can answer "where did the time go" without
post-processing the event list: per-process virtual CPU seconds, disk
bytes/IOPS/service time, pipe backpressure stalls, child-wait time, and
network bytes.  The engines' plan regions additionally record deltas
of the same totals (the tracer's ``on_region_begin``/``on_region_end``
hooks).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

#: The resource components a process's wall time decomposes into.
COMPONENTS = ("cpu", "disk", "backpressure", "input-wait", "child-wait")
#: The ProcStats fields ResourceAccounting.totals() sums over processes.
_SUMMED = ("cpu_s", "disk_bytes", "disk_ops", "disk_time_s", "disk_wait_s",
           "stall_read_s", "stall_write_s", "wait_s", "net_bytes")


@dataclass
class ProcStats:
    """Accumulated resource use of one virtual process."""

    pid: int
    name: str
    node: str
    start: float = 0.0
    end: Optional[float] = None
    exit_status: Optional[int] = None
    parent: Optional[int] = None
    cpu_s: float = 0.0          # core-seconds actually consumed
    disk_bytes: int = 0
    disk_ops: float = 0.0
    disk_time_s: float = 0.0    # device service time
    disk_wait_s: float = 0.0    # time queued behind other requests
    stall_read_s: float = 0.0   # blocked on an empty pipe (input wait)
    stall_write_s: float = 0.0  # blocked on a full pipe (backpressure)
    wait_s: float = 0.0         # blocked in wait() on children
    net_bytes: int = 0
    splice_bytes: int = 0       # moved by kernel-side splice pumps
    splice_chunks: int = 0
    pipes_read: set = field(default_factory=set)     # canonical pipe keys
    waited_on: set = field(default_factory=set)      # child pids

    @property
    def wall_s(self) -> float:
        if self.end is None:
            return 0.0
        return max(0.0, self.end - self.start)

    def breakdown(self) -> dict[str, float]:
        """Wall-time decomposition by bounding resource (+ 'other')."""
        parts = {
            "cpu": self.cpu_s,
            "disk": self.disk_time_s + self.disk_wait_s,
            "backpressure": self.stall_write_s,
            "input-wait": self.stall_read_s,
            "child-wait": self.wait_s,
        }
        parts["other"] = max(0.0, self.wall_s - sum(parts.values()))
        return parts

    def bound(self) -> str:
        """The resource this process spent the most wall time on."""
        parts = self.breakdown()
        return max(COMPONENTS, key=lambda k: parts[k]) if self.wall_s else "cpu"


@dataclass
class PipeStats:
    """Who touched a pipe, and how much flowed through it."""

    key: int  # tracer-canonical id (stable across runs for a fixed seed)
    writers: set = field(default_factory=set)
    readers: set = field(default_factory=set)
    bytes_written: int = 0
    bytes_read: int = 0


@dataclass
class RegionStats:
    """Resource delta attributed to one engine region (JIT/AOT/tx)."""

    cat: str
    name: str
    start: float
    end: float
    args: dict = field(default_factory=dict)
    delta: dict = field(default_factory=dict)


class ResourceAccounting:
    """Aggregate view over everything the tracer observed."""

    def __init__(self) -> None:
        self.per_process: dict[int, ProcStats] = {}
        self.pipes: dict[int, PipeStats] = {}
        self.regions: list[RegionStats] = []
        #: kernel this accounting observes (set by Tracer.attach) — lets
        #: totals() surface the syscall-dispatch counter; ``dispatch_base``
        #: carries counts over from earlier kernels of a resumed run
        self.kernel = None
        self.dispatch_base = 0

    def attach(self, kernel) -> None:
        old = self.kernel
        if old is not None and old is not kernel:
            self.dispatch_base += old.dispatches
        self.kernel = kernel

    # -- record access ---------------------------------------------------------

    def proc(self, process) -> ProcStats:
        st = self.per_process.get(process.pid)
        if st is None:
            st = ProcStats(process.pid, process.name, process.node.name,
                           start=process.start_time)
            self.per_process[process.pid] = st
        return st

    def pipe(self, key: int) -> PipeStats:
        ps = self.pipes.get(key)
        if ps is None:
            ps = PipeStats(key)
            self.pipes[key] = ps
        return ps

    # -- aggregation -----------------------------------------------------------

    def totals(self) -> dict[str, float]:
        t = {"processes": float(len(self.per_process)),
             **dict.fromkeys(_SUMMED, 0.0)}
        for st in self.per_process.values():
            for k in _SUMMED:
                t[k] += getattr(st, k)
        t["dispatches"] = float(self.dispatch_base) + (
            float(self.kernel.dispatches) if self.kernel is not None else 0.0)
        return t

    def to_dict(self) -> dict:
        """Machine-readable metrics (benchmarks/results/*.json)."""
        totals = {k: round(v, 9) for k, v in self.totals().items()}
        return {
            "totals": totals,
            "pipes": len(self.pipes),
            "regions": [
                {
                    "cat": r.cat,
                    "name": r.name,
                    "wall_s": round(r.end - r.start, 9),
                    "delta": {k: round(v, 9) for k, v in r.delta.items()},
                    "args": r.args,
                }
                for r in self.regions
            ],
        }

    def table(self, top: int = 10) -> str:
        """Plain-text per-process resource table (largest wall first)."""
        from ..bench.report import format_table

        procs = sorted(self.per_process.values(),
                       key=lambda s: (-s.wall_s, s.pid))
        rows = []
        for st in procs[:top]:
            rows.append([
                st.pid, st.name, st.node, st.wall_s, st.bound(), st.cpu_s,
                st.disk_time_s + st.disk_wait_s, st.stall_write_s,
                st.stall_read_s, st.wait_s,
            ])
        out = format_table(
            ["pid", "process", "node", "wall_s", "bound", "cpu_s",
             "disk_s", "backpr_s", "inwait_s", "childwait_s"],
            rows,
        )
        totals = self.totals()
        if totals["dispatches"]:
            out += f"\nsyscall dispatches: {int(totals['dispatches'])}"
        spliced = sum(s.splice_bytes for s in self.per_process.values())
        if spliced:
            out += f"  (spliced bytes: {spliced})"
        return out
