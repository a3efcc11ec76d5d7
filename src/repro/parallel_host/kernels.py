"""Worker-side columnar kernels.

Everything here runs in a forked worker against memory-mapped spill
files; nothing touches the virtual OS.  Each kernel is the *exact*
byte-level semantics of the corresponding command body in
``repro.commands`` — not an approximation — because the coordinator's
oracles emit these streams verbatim into the simulation.  The numpy
paths are a columnar reformulation (translation tables, boolean run
masks) of the same function; when numpy is absent or a precondition
fails the pure-Python fallback computes the identical stream.  Line
counting is the in-process sort's own ``bytes.split`` + ``Counter``
kernel (``repro.commands.sorting``) — measured ~4x faster than a
vectorized packed-key gather on variable-length records.

Grid tables: a tr stage's oracle needs "output offset at input offset
a" for arbitrary a (pipe reads land on arbitrary boundaries).  Workers
return the kept-byte prefix count at every GRID_STEP boundary; the
oracle resolves the sub-block remainder by transforming at most
GRID_STEP input bytes with ``repro.commands.filters.tr_block`` — the
``tr`` command's own 1-state transducer — so the mapping is exact
everywhere.
"""

from __future__ import annotations

import os
from array import array
from collections import Counter
from itertools import accumulate

from ..commands.filters import TrPlan, tr_block
from ..commands.sorting import LineCounter, sorted_runs, split_bodies
from ..vos.process import CHUNK

try:  # the container bakes numpy in; everything degrades without it
    import numpy as _np
except Exception:  # pragma: no cover - exercised on numpy-less hosts
    _np = None

HAVE_NUMPY = _np is not None

#: grid granularity for tr input->output offset tables
GRID_STEP = 4096
#: sort parts switch to the generic sorted-spill path above this many
#: distinct lines (the counting kernel's payoff is low cardinality)
CARD_LIMIT = 4096

def _identity_grid(n: int) -> array:
    grid = array("q", range(0, n + 1, GRID_STEP))
    if not grid or grid[-1] != n:
        grid.append(n)
    return grid


def _tr_part_python(data: bytes, spec: TrPlan) -> tuple[bytes, array]:
    out_blocks: list[bytes] = []
    grid = array("q", [0])
    carry = -1
    total = 0
    for i in range(0, len(data), GRID_STEP):
        block, carry = tr_block(data[i : i + GRID_STEP], spec, carry)
        out_blocks.append(block)
        total += len(block)
        grid.append(total)
    return b"".join(out_blocks), grid


def _grid_from_kept(kept, n: int) -> array:
    """Prefix kept-byte counts sampled at GRID_STEP boundaries."""
    pad = (-n) % GRID_STEP
    if pad:
        kept = _np.concatenate([kept, _np.zeros(pad, dtype=bool)])
    per_block = kept.reshape(-1, GRID_STEP).sum(axis=1, dtype=_np.int64)
    grid = array("q", [0])
    grid.extend(_np.cumsum(per_block).tolist())
    return grid


def tr_part(data: bytes, spec: TrPlan) -> tuple[bytes, array]:
    """Transform one input part (no incoming carry: the coordinator
    resolves squeeze seams between parts).  Returns the output stream
    and the input-offset -> output-offset grid table."""
    n = len(data)
    if n == 0:
        return b"", array("q", [0])
    delete, table, squeeze, _ = spec
    if _np is None:
        return _tr_part_python(data, spec)
    if delete is None and table is not None and not squeeze:
        return data.translate(table), _identity_grid(n)
    if delete is not None and not squeeze:
        out = data.translate(None, delete)
        lut = _np.ones(256, dtype=bool)
        lut[_np.frombuffer(delete, dtype=_np.uint8)] = False
        kept = lut[_np.frombuffer(data, dtype=_np.uint8)]
        return out, _grid_from_kept(kept, n)
    arr = _np.frombuffer(data, dtype=_np.uint8)
    if delete is not None:
        lut = _np.ones(256, dtype=bool)
        lut[_np.frombuffer(delete, dtype=_np.uint8)] = False
        kept0 = lut[arr]
        comp = arr[kept0]
    elif table is not None:
        comp = _np.frombuffer(data.translate(table), dtype=_np.uint8)
        kept0 = None
    else:
        comp = arr
        kept0 = None
    if squeeze and len(comp):
        insq = _np.zeros(256, dtype=bool)
        insq[_np.frombuffer(squeeze, dtype=_np.uint8)] = True
        drop = _np.empty(len(comp), dtype=bool)
        drop[0] = False
        drop[1:] = insq[comp[1:]] & (comp[1:] == comp[:-1])
        keep2 = ~drop
        out = comp[keep2].tobytes()
        if kept0 is None:
            kept = keep2
        else:
            kept = _np.zeros(n, dtype=bool)
            kept[_np.flatnonzero(kept0)[keep2]] = True
    else:
        out = comp.tobytes()
        kept = kept0 if kept0 is not None else _np.ones(n, dtype=bool)
    return out, _grid_from_kept(kept, n)


# ---------------------------------------------------------------------------
# sort: C-speed line counting + generic sorted-part fallback
# ---------------------------------------------------------------------------


def sort_part(data: bytes, card_limit: int = CARD_LIMIT):
    """Count one line-aligned part of the pre-sort stream.

    Returns ``("counts", {body: n}, n_lines)`` when the part's
    cardinality fits the counting path, else
    ``("lines", sorted_bodies, n_lines)`` for the k-way merge path.

    The count is the in-process sort's own kernel
    (:class:`repro.commands.sorting.LineCounter`), fed in read-sized
    slices so that it gives up early on a high-cardinality part; a count
    it completes must still fit ``card_limit`` (counts travel pickled).
    """
    counter = LineCounter()
    for a in range(0, len(data), CHUNK):
        counter.feed(data[a : a + CHUNK])
    if data and not data.endswith(b"\n"):
        counter.feed(b"\n")
    if counter.counts is None or len(counter.counts) > card_limit:
        bodies = split_bodies(data)
        bodies.sort()
        return ("lines", bodies, len(bodies))
    return ("counts", dict(counter.counts), counter.lines)


def merge_sorted_parts(parts: list, reverse: bool, unique: bool):
    """Merge part results into (stream, run_ends, n_lines) at run level:
    a count table adds to the running table and a ``lines`` part is
    counted into it, so the stream is assembled from one table with the
    in-process sort's own kernel (bytes-multiplied runs at memcpy
    speed), whatever the mix of parts."""
    counts: Counter = Counter()
    for _, payload, _ in parts:
        counts.update(payload)
    runs = sorted_runs(counts, reverse, unique)
    return (b"".join(runs), array("q", accumulate(map(len, runs))),
            sum(m for _, _, m in parts))


# ---------------------------------------------------------------------------
# task protocol (runs inside the worker process)
# ---------------------------------------------------------------------------


def _read_span(path: str, a: int, b: int) -> bytes:
    with open(path, "rb") as fh:
        fh.seek(a)
        return fh.read(b - a)


def _sort_part_shipped(data: bytes, task: dict) -> tuple:
    """``sort_part`` as it travels back: count tables pickled, sorted
    lines as a ``("spill", path, n_lines)`` file."""
    kind, payload, m = sort_part(data, task.get("card_limit", CARD_LIMIT))
    if kind == "lines":
        spill = f"{task['out_prefix']}.lines"
        with open(spill, "wb") as fh:
            fh.write(b"".join(body + b"\n" for body in payload))
        return "spill", spill, m
    return kind, payload, m


def run_task(task: dict) -> dict:
    """Execute one pool task; all large payloads travel as spill files
    under the pool's scratch directory (the host-level write set)."""
    kind = task["kind"]
    if task.get("chaos") == "crash":
        os._exit(137)
    if kind in ("tr_part", "tr_sort_part"):
        data = _read_span(task["in_path"], task["a"], task["b"])
        streams: list[str] = []
        grids: list[bytes] = []
        lens: list[int] = []
        for i, spec in enumerate(task["chain"]):
            out, grid = tr_part(data, spec)
            spill = f"{task['out_prefix']}.s{i}"
            with open(spill, "wb") as fh:
                fh.write(out)
            streams.append(spill)
            grids.append(grid.tobytes())
            lens.append(len(out))
            data = out
        result = {"streams": streams, "grids": grids, "lens": lens,
                  "a": task["a"], "b": task["b"],
                  "bytes_in": task["b"] - task["a"], "bytes_out": sum(lens)}
        if kind == "tr_sort_part":
            # single-part fusion: the sort wave's input is exactly this
            # part's final stage output, already in memory — counting it
            # here saves a task round trip and a spill re-read
            result["part"] = _sort_part_shipped(data, task)
        return result
    if kind == "sort_part":
        chunks = [_read_span(path, a, b) for path, a, b in task["segments"]]
        data = chunks[0] if len(chunks) == 1 else b"".join(chunks)
        return {"part": _sort_part_shipped(data, task),
                "bytes_in": len(data), "bytes_out": 0}
    if kind == "sort_merge":
        parts = []
        for entry in task["parts"]:
            if entry[0] == "spill":
                data = _read_span(entry[1], 0, os.path.getsize(entry[1]))
                parts.append(("lines", split_bodies(data), entry[2]))
            else:
                parts.append(("counts", entry[1], entry[2]))
        stream, runs, n_lines = merge_sorted_parts(
            parts, task["reverse"], task["unique"])
        spill = f"{task['out_prefix']}.sorted"
        with open(spill, "wb") as fh:
            fh.write(stream)
        return {"stream": spill, "runs": runs.tobytes(), "n_lines": n_lines,
                "bytes_in": 0, "bytes_out": len(stream)}
    raise ValueError(f"unknown pool task kind {kind!r}")
