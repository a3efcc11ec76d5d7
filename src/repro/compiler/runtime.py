"""Dataflow runtime: internal node implementations + the graph executor.

Internal nodes are the small helper processes a PaSh-style runtime ships
(range readers, round-robin splitters, order-preserving merges, eager
buffers).  The executor wires a :class:`DataflowGraph`'s streams to vOS
pipes/files, spawns one process per node, and waits for completion.
"""

from __future__ import annotations

import itertools
from typing import Optional

from ..commands.base import PROC_STARTUP, LineStream, lookup
from ..commands.sorting import merge_fds
from ..dfg.graph import (
    CMD,
    CONCAT_MERGE,
    EAGER,
    FILE_READ,
    RANGE_READ,
    RR_SPLIT,
    SORT_KWAY,
    SUM_MERGE,
    DataflowGraph,
)
from ..vos.errors import VosError
from ..vos.faults import FAULT_STATUSES
from ..vos.handles import Handle, NullHandle, make_pipe
from ..vos.process import CHUNK, Process
from ..vos.syscalls import SpliceReq

#: CPU cost per byte moved by runtime helper nodes (they are thin).
RUNTIME_COEFF = 0.8e-9

_tmp_counter = itertools.count(1)


def fresh_tmp_path(prefix: str = "/tmp/jash") -> str:
    return f"{prefix}.{next(_tmp_counter)}"


# ---------------------------------------------------------------------------
# internal node bodies
# ---------------------------------------------------------------------------


def range_read_body(segments: list[tuple[str, int, int]]):
    """Read byte ranges of files, emitting only whole lines.

    Protocol: a reader owns the lines *containing* bytes [start, end).
    Readers with start > 0 begin one byte early and discard through the
    first newline; every reader past its end keeps reading until it
    completes the line containing byte end-1.  Adjacent readers therefore
    partition the file into exact lines.
    """

    def body(proc: Process):
        yield from proc.cpu(PROC_STARTUP * 0.25)
        for path, start, end in segments:
            fd = yield from proc.open(path, "r")
            handle = proc.fds[fd]
            pos = start
            if start > 0:
                handle.offset = start - 1
                pos = start - 1
                # discard through the first newline
                discarded_done = False
                while not discarded_done:
                    data = yield from proc.read(fd, min(CHUNK, 4096))
                    if not data:
                        discarded_done = True
                        pos = None  # nothing to emit
                        break
                    nl = data.find(b"\n")
                    if nl >= 0:
                        rest = data[nl + 1 :]
                        pos = pos + nl + 1
                        handle.offset = pos
                        discarded_done = True
                    else:
                        pos += len(data)
                if pos is None or pos >= end:
                    yield from proc.close(fd)
                    continue
            # emit until the line containing byte end-1 is complete
            data = b""
            while pos < end:
                data = yield from proc.read(fd, min(CHUNK, end - pos))
                if not data:
                    pos = end
                    break
                yield from proc.cpu(len(data) * RUNTIME_COEFF)
                yield from proc.write(1, data)
                pos += len(data)
            # overhang: finish the current line
            if pos >= end and data and not data.endswith(b"\n"):
                while True:
                    data = yield from proc.read(fd, 4096)
                    if not data:
                        break
                    nl = data.find(b"\n")
                    if nl >= 0:
                        yield from proc.write(1, data[: nl + 1])
                        break
                    yield from proc.write(1, data)
            yield from proc.close(fd)
        return 0

    return body


def relay(proc: Process, src_fd: int, dst_fd: int,
          coeff: float = RUNTIME_COEFF):
    """Copy ``src_fd`` to ``dst_fd`` until EOF — an identity node on a
    stream edge, which is one kernel pump: per ``CHUNK``, one read, one
    charge of ``coeff`` per byte and one write."""
    yield SpliceReq(src_fd, (dst_fd,), coeff, CHUNK)


def file_read_body(paths: list[str]):
    """cat-like source reading files sequentially (charged disk IO)."""

    def body(proc: Process):
        yield from proc.cpu(PROC_STARTUP * 0.25)
        for path in paths:
            try:
                fd = yield from proc.open(path, "r")
            except VosError:
                yield from proc.write(2, f"jash-runtime: {path}: no such file\n".encode())
                return 1
            yield from relay(proc, fd, 1)
            yield from proc.close(fd)
        return 0

    return body


def rr_split_body(out_fds: list[int], block_lines: int = 2000):
    """Round-robin splitter: blocks of lines dealt cyclically to outputs.
    Only valid upstream of order-insensitive aggregation (e.g. sort)."""

    def body(proc: Process):
        yield from proc.cpu(PROC_STARTUP * 0.25)
        stream = LineStream(proc, 0)
        targets = itertools.cycle(out_fds)
        block: list[bytes] = []  # lines not yet dealt: under one block

        def deal(lines):
            data = b"".join(lines)
            yield from proc.cpu(len(data) * RUNTIME_COEFF)
            yield from proc.write(next(targets), data)

        while True:
            batch = yield from stream.next_batch()
            if batch is None:
                break
            block += batch
            full = len(block) - len(block) % block_lines
            for start in range(0, full, block_lines):
                yield from deal(block[start:start + block_lines])
            block = block[full:]
        if block:
            yield from deal(block)
        return 0

    return body


def concat_merge_body(in_fds: list[int]):
    """Order-preserving merge: drain each input fully, in order."""

    def body(proc: Process):
        yield from proc.cpu(PROC_STARTUP * 0.25)
        for fd in in_fds:
            yield from relay(proc, fd, 1)
        return 0

    return body


def sum_merge_body(in_fds: list[int]):
    """Numeric merge: column-wise sum of one-line numeric outputs
    (wc, grep -c)."""

    def body(proc: Process):
        yield from proc.cpu(PROC_STARTUP * 0.25)
        totals: list[int] = []
        for fd in in_fds:
            data = yield from proc.read_all(fd)
            yield from proc.cpu(len(data) * RUNTIME_COEFF)
            for line in data.splitlines():
                fields = line.split()
                for i, field in enumerate(fields):
                    try:
                        value = int(field)
                    except ValueError:
                        continue
                    while len(totals) <= i:
                        totals.append(0)
                    totals[i] += value
        out = " ".join(str(t) for t in totals) + "\n"
        yield from proc.write(1, out.encode())
        return 0

    return body


def sort_kway_body(in_fds: list[int], argv: list[str]):
    """Streaming k-way sorted merge (the SORT_MERGE aggregator)."""

    def body(proc: Process):
        yield from proc.cpu(PROC_STARTUP * 0.25)
        return (yield from merge_fds(proc, in_fds, argv[1:]))

    return body


def eager_body(mode: str, tmp_path: str):
    """Decoupling buffer: absorb input at full speed so the producer never
    blocks, then emit.  ``disk``, the only mode, spools through a temp
    file (PaSh's 'lots of available storage space for buffering')."""
    assert mode == "disk", mode

    def body(proc: Process):
        yield from proc.cpu(PROC_STARTUP * 0.25)
        out_fd = yield from proc.open(tmp_path, "w")
        yield from relay(proc, 0, out_fd)
        yield from proc.close(out_fd)
        in_fd = yield from proc.open(tmp_path, "r")
        yield from relay(proc, in_fd, 1, coeff=0.0)
        yield from proc.close(in_fd)
        proc.fs.unlink(proc.resolve(tmp_path))
        return 0

    return body


# ---------------------------------------------------------------------------
# graph executor
# ---------------------------------------------------------------------------


class GraphExecutionError(Exception):
    pass


def execute_graph(dfg: DataflowGraph, proc: Process,
                  stdin_handle: Optional[Handle] = None,
                  stdout_handle: Optional[Handle] = None,
                  stderr_handle: Optional[Handle] = None,
                  cwd: str = "/"):
    """Run one dataflow graph to completion inside process ``proc``.

    Yields vOS syscalls (call with ``yield from``); returns the status
    of the last stage, as a pipeline does — the node feeding the sink
    stream and, when that stage runs as parallel copies behind a merge,
    the copies — unless some node died of a fault.
    """
    # build endpoint handles for every stream
    read_end: dict[int, Handle] = {}
    write_end: dict[int, Handle] = {}
    kernel = proc.kernel
    for sid, stream in dfg.streams.items():
        producer = dfg.producer_of(sid)
        consumers = dfg.consumers_of(sid)
        if stream.is_file:
            if producer is not None and consumers:
                raise GraphExecutionError(
                    f"stream s{sid} is file-backed with producer and consumer "
                    "in one phase; split into phases"
                )
            if producer is not None:
                write_end[sid] = kernel.open_handle(proc.node, stream.path, "w", cwd)
            if consumers:
                read_end[sid] = kernel.open_handle(proc.node, stream.path, "r", cwd)
        else:
            if sid == dfg.source and producer is None:
                read_end[sid] = stdin_handle if stdin_handle is not None else NullHandle()
                continue
            if sid == dfg.sink and not consumers:
                write_end[sid] = stdout_handle if stdout_handle is not None else NullHandle()
                continue
            reader, writer = make_pipe()
            read_end[sid] = reader
            write_end[sid] = writer

    stderr = stderr_handle if stderr_handle is not None else NullHandle()

    pids: list[int] = []
    sink_pid: Optional[int] = None
    branch_group_of: dict[int, str] = {}
    for node in dfg.topological_order():
        fds: dict[int, Handle] = {2: stderr}
        # inputs: first at fd 0, rest at fds 3,4,...
        in_fds: list[int] = []
        next_fd = 3
        for i, sid in enumerate(node.inputs):
            fd = 0 if i == 0 else next_fd
            if i > 0:
                next_fd += 1
            fds[fd] = read_end[sid]
            in_fds.append(fd)
        # outputs: first at fd 1, rest following
        out_fds: list[int] = []
        for i, sid in enumerate(node.outputs):
            fd = 1 if i == 0 else next_fd
            if i > 0:
                next_fd += 1
            fds[fd] = write_end[sid]
            out_fds.append(fd)
        if 0 not in fds:
            fds[0] = NullHandle()
        if 1 not in fds:
            fds[1] = NullHandle()

        body = _node_body(node, in_fds, out_fds)
        pid = yield from proc.spawn(body, name=f"dfg:{node.name}", fds=fds, cwd=cwd)
        pids.append(pid)
        group = node.params.get("branch_group")
        if group is not None:
            branch_group_of[pid] = group
        if dfg.sink in node.outputs:
            sink_pid = pid

    status = 0
    sink_status = 0
    group_statuses: dict[str, list[int]] = {}
    for pid in pids:
        st = yield from proc.wait(pid)
        if pid == sink_pid:
            sink_status = st
        group = branch_group_of.get(pid)
        if group is not None:
            group_statuses.setdefault(group, []).append(st)
            continue
        # an earlier stage's own failure is not the pipeline's; a fault is
        if st in FAULT_STATUSES:
            status = st
    last_group = _last_stage_group(dfg)
    for group, sts in group_statuses.items():
        st = copies_status(sts)
        if st in FAULT_STATUSES or (st != 0 and group == last_group):
            status = st
    return sink_status if sink_status != 0 else status


def copies_status(statuses: list[int]) -> int:
    """Exit status of one stage that ran as several copies, each over
    its own share of the input.  The copies succeed if any copy
    succeeded — a share with no grep matches exits 1 without the whole
    stage having failed (SIGPIPE deaths, 141, are benign in pipelines).
    A killed/faulted copy (137/74) is different: that copy's share of
    the data is simply missing, so the stage must fail even if siblings
    ran."""
    faulted = [s for s in statuses if s in FAULT_STATUSES]
    if faulted:
        return faulted[-1]
    return 0 if any(s in (0, 141) for s in statuses) else max(statuses)


def _last_stage_group(dfg: DataflowGraph) -> Optional[str]:
    """The ``branch_group`` of the commands that feed the sink through
    merge plumbing only: the parallel copies of the region's last stage.
    None when the sink's command runs once (it is the sink node then)."""
    frontier = [dfg.sink]
    while frontier:
        node = dfg.producer_of(frontier.pop())
        if node is None:
            continue
        if node.kind == CMD:
            return node.params.get("branch_group")
        frontier.extend(node.inputs)
    return None


def _node_body(node, in_fds: list[int], out_fds: list[int]):
    if node.kind == CMD:
        fn = lookup(node.argv[0])
        if fn is None:
            raise GraphExecutionError(f"unknown command {node.argv[0]!r}")
        args = list(node.argv[1:])

        def body(proc: Process, fn=fn, args=args):
            yield from proc.cpu(PROC_STARTUP)
            status = yield from fn(proc, args)
            return status if status is not None else 0

        return body
    if node.kind == RANGE_READ:
        return range_read_body(node.params["segments"])
    if node.kind == FILE_READ:
        return file_read_body(node.params["paths"])
    if node.kind == RR_SPLIT:
        return rr_split_body(out_fds, node.params.get("block_lines", 2000))
    if node.kind == CONCAT_MERGE:
        return concat_merge_body(in_fds)
    if node.kind == SUM_MERGE:
        return sum_merge_body(in_fds)
    if node.kind == SORT_KWAY:
        return sort_kway_body(in_fds, node.params["argv"])
    if node.kind == EAGER:
        return eager_body(node.params.get("mode", "disk"),
                          node.params.get("tmp_path", fresh_tmp_path()))
    raise GraphExecutionError(f"unknown node kind {node.kind!r}")
