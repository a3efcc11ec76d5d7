"""Worker-side kernels: the pool's one task.

Everything here runs in a forked worker against spill files; nothing
touches the virtual OS.  Each kernel is the *exact* byte-level semantics
of the corresponding command body in ``repro.commands`` — not an
approximation — because the coordinator's oracles emit these streams
verbatim into the simulation: ``tr`` is ``tr_block`` block by block,
the same code on every host, and line counting is the in-process
sort's own ``LineCounter``.

Grid tables: a tr stage's oracle needs "output offset at input offset
a" for arbitrary a (pipe reads land on arbitrary boundaries).  Workers
return the kept-byte prefix count at every GRID_STEP boundary; the
oracle resolves the sub-block remainder by transforming at most
GRID_STEP input bytes with ``tr_block`` itself, so the mapping is exact
everywhere.
"""

from __future__ import annotations

import os
from array import array

from ..commands.filters import TrPlan, tr_block
from ..commands.sorting import LineCounter
from ..vos.process import CHUNK

#: grid granularity for tr input->output offset tables
GRID_STEP = 4096
#: how much of a sorting region's input the coordinator tries in-process
#: before anything ships (four reads: room for the counter to give up)
PROBE = 4 * CHUNK


def tr_part(data: bytes, spec: TrPlan) -> tuple[bytes, array]:
    """Transform one input part (no incoming carry: the coordinator
    resolves squeeze seams between parts) with ``tr_block`` one
    GRID_STEP block at a time.  Returns the output stream and the
    input-offset -> output-offset grid table: the kept-byte prefix count
    at every GRID_STEP boundary and at the end."""
    out_blocks: list[bytes] = []
    grid = array("q", [0])
    carry = -1
    for i in range(0, len(data), GRID_STEP):
        block, carry = tr_block(data[i : i + GRID_STEP], spec, carry)
        out_blocks.append(block)
        grid.append(grid[-1] + len(block))
    return b"".join(out_blocks), grid


def count_part(data: bytes):
    """One part of the pre-sort stream as ``(count table of its complete
    interior lines, head, tail)``: ``head`` runs through the part's first
    newline and ``tail`` follows its last, for the coordinator to stitch
    the lines that straddle a cut.  A part with no newline is all head
    (``tail`` None: it carries through).  None when the counter gives up
    — the in-process sort's own rule (``LineCounter``), reached within a
    few read-sized slices of high-cardinality input."""
    first = data.find(b"\n")
    if first < 0:
        return {}, data, None
    last = data.rfind(b"\n")
    interior = data[first + 1 : last + 1]
    counter = LineCounter()
    for a in range(0, len(interior), CHUNK):
        counter.feed(interior[a : a + CHUNK])
        if counter.counts is None:
            return None
    return dict(counter.counts), data[: first + 1], data[last + 1 :]


def uncountable(data: bytes, chain: list) -> bool:
    """Whether the line counter gives up on what ``chain`` makes of
    ``data`` before it has seen twice the lines giving up takes."""
    for spec in chain:
        data = tr_part(data, spec)[0]
    counter = LineCounter()
    for a in range(0, len(data), CHUNK):
        counter.feed(data[a : a + CHUNK])
        if counter.counts is None or counter.lines > 2 * counter.SMALL:
            break
    return counter.counts is None


def run_task(task: dict):
    """The pool's one task: the region's ``tr`` chain over the
    ``GRID_STEP``-aligned byte range ``[a, b)`` of the input spill and,
    when the region sorts, the count of this part's own final-stage
    output.  Stage streams travel as spill files in the pool's scratch
    directory.  None — before anything is spilled — when the count gave
    up: the region then runs in-process."""
    if task.get("chaos") == "crash":
        os._exit(137)
    with open(task["in_path"], "rb") as fh:
        fh.seek(task["a"])
        data = fh.read(task["b"] - task["a"])
    outs: list[bytes] = []
    grids: list[bytes] = []
    for spec in task["chain"]:
        data, grid = tr_part(data, spec)
        outs.append(data)
        grids.append(grid.tobytes())
    count = count_part(data) if task["sort"] else ()
    if count is None:
        return None
    streams: list[str] = []
    for i, out in enumerate(outs):
        streams.append(f"{task['out_prefix']}.s{i}")
        with open(streams[-1], "wb") as fh:
            fh.write(out)
    return {"streams": streams, "grids": grids,
            "lens": [len(out) for out in outs], "count": count}
