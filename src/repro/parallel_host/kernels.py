"""Worker-side kernels: the pool's one task.

Everything here runs in a forked worker against spill files; nothing
touches the virtual OS.  Each kernel is the *exact* byte-level semantics
of the corresponding command body in ``repro.commands`` — not an
approximation — because the coordinator's oracles emit these streams
verbatim into the simulation: ``tr`` is ``tr_block`` block by block
(its squeeze a numpy reformulation as boolean run masks when numpy is
there), and line counting is the in-process sort's own ``LineCounter``.

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

try:  # the container bakes numpy in; everything degrades without it
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on numpy-less hosts
    _np = None

#: grid granularity for tr input->output offset tables
GRID_STEP = 4096
#: how much of a sorting region's input the coordinator tries in-process
#: before anything ships (four reads: room for the counter to give up)
PROBE = 4 * CHUNK


def _tr_part_python(data: bytes, spec: TrPlan) -> tuple[bytes, array]:
    out_blocks: list[bytes] = []
    grid = array("q", [0])
    carry = -1
    for i in range(0, len(data), GRID_STEP):
        block, carry = tr_block(data[i : i + GRID_STEP], spec, carry)
        out_blocks.append(block)
        grid.append(grid[-1] + len(block))
    return b"".join(out_blocks), grid


def tr_part(data: bytes, spec: TrPlan) -> tuple[bytes, array]:
    """Transform one input part (no incoming carry: the coordinator
    resolves squeeze seams between parts).  Returns the output stream
    and the input-offset -> output-offset grid table: the kept-byte
    prefix count at every GRID_STEP boundary and at the end."""
    delete, table, squeeze, _ = spec
    if _np is None or not squeeze or not data:
        # translate/delete run at C speed block by block already; only
        # the squeeze regex is worth vectorizing (~2x on the spell stage)
        return _tr_part_python(data, spec)
    kept = None  # which input bytes survive; None = all so far
    if delete is not None:
        kept = _np.ones(256, dtype=bool)
        kept[_np.frombuffer(delete, dtype=_np.uint8)] = False
        kept = kept[_np.frombuffer(data, dtype=_np.uint8)]
        comp = data.translate(None, delete)
    else:
        comp = data.translate(table) if table is not None else data
    comp = _np.frombuffer(comp, dtype=_np.uint8)
    insq = _np.zeros(256, dtype=bool)
    insq[_np.frombuffer(squeeze, dtype=_np.uint8)] = True
    keep = _np.ones(len(comp), dtype=bool)
    keep[1:] = ~(insq[comp[1:]] & (comp[1:] == comp[:-1]))
    if kept is None:
        kept = keep
    else:
        kept[_np.flatnonzero(kept)] = keep
    # prefix kept-byte counts sampled at GRID_STEP boundaries
    pad = (-len(data)) % GRID_STEP
    if pad:
        kept = _np.concatenate([kept, _np.zeros(pad, dtype=bool)])
    per_block = kept.reshape(-1, GRID_STEP).sum(axis=1, dtype=_np.int64)
    grid = array("q", [0])
    grid.extend(_np.cumsum(per_block).tolist())
    return comp[keep].tobytes(), grid


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
