"""Dispatch, deterministic merge, and the per-stage oracles.

The coordinator owns the virtual side of the pool protocol.  Per run it
analyzes the program (S16/S20), detects gated regions, snapshots their
input files, and ships each region as **one wave** of part tasks: a part
runs the region's whole ``tr`` chain over its byte range and, when the
region sorts, counts its own final-stage output in the same call
(``kernels.run_task``).  Results are keyed by future and merge by part
*index*, so completion order does not exist to matter.  Two seam rules
make the parts one stream again: a squeeze seam is repaired the way the
serial tr's cross-chunk ``last_byte`` carry would have — a leading run
of the previous part's final kept byte collapses into it — and a line
that straddles a cut is stitched from the earlier part's tail fragment
and the later part's head fragment before it enters the count table.

Oracles are the only objects the simulation ever sees (the package
docstring has the contract): a fresh one per stage per execution, which
validates every chunk the stage actually reads against the precomputed
stream and hands back precomputed output.  Any failure here — input
changed since the snapshot, worker crash, watchdog expiry, a part too
high-cardinality to count — kills the oracle and the stage's own code
resumes; workers run no virtual op, so there is no virtual-time or
fault-op delta to merge at any ``--jobs``.
"""

from __future__ import annotations

import os
from array import array
from bisect import bisect_right
from collections import Counter
from pathlib import Path
from typing import Optional

from ..commands.filters import TrPlan, tr_block
from ..commands.sorting import sorted_runs
from ..vos.errors import VosError
from . import kernels
from .pool import DEFAULT_MIN_SHIP, WorkerPool, _env_int, get_global_pool
from .regions import RegionPlan, detect_regions

PENDING, DISPATCHED, READY, FAILED = (
    "pending", "dispatched", "ready", "failed")
#: cumulative counters (``jash stat``); each run's delta of all but the
#: first also goes through the metrics registry
STATS = ("regions_detected", "regions_dispatched", "regions_validated",
         "regions_failed", "oracle_hits", "oracle_fallbacks", "tasks",
         "bytes_shipped", "bytes_returned")


def merge_stage(spec: TrPlan, in_lens: list[int], outs: list[bytes],
                grids: list[array]):
    """Seam-merge one tr stage's per-part outputs, in part order, into
    ``(stream, (in_offs, out_offs), trims)``: the stage's output stream,
    its global input-offset -> output-offset table, and how many leading
    bytes each part lost to the squeeze seam before it.

    Workers computed stage k+1 from *pre-trim* stage-k parts, so only a
    final stage may squeeze when there are several parts (detection's
    ``single_part``): every non-final trim is then zero, and a part's
    stage-k input base is the sum of earlier parts' stage-(k-1) lengths."""
    squeeze = spec.squeeze
    step = kernels.GRID_STEP
    merged: list[bytes] = []
    trims: list[int] = []
    in_offs = array("q", [0])
    out_offs = array("q", [0])
    in_total = out_total = 0
    prev_last = -1
    for in_len, part, grid in zip(in_lens, outs, grids):
        trim = 0
        if squeeze and prev_last >= 0 and prev_last in squeeze:
            while trim < len(part) and part[trim] == prev_last:
                trim += 1
        # entry j sits at local input offset min(j*step, in_len); entry 0
        # duplicates the previous part's closing boundary
        for j in range(1, len(grid)):
            in_offs.append(min(j * step, in_len) + in_total)
            out_offs.append(max(grid[j] - trim, 0) + out_total)
        part = part[trim:]
        merged.append(part)
        trims.append(trim)
        in_total += in_len
        out_total += len(part)
        if part:
            prev_last = part[-1]
    return b"".join(merged), (in_offs, out_offs), trims


def merge_counts(counts: list, trims: list[int]) -> Counter:
    """One count table of the merged pre-sort stream from the parts'
    ``kernels.count_part`` results: interior tables add up, and the line
    across each seam is the pending tail plus the next part's head (less
    its squeeze trim).  A part with no newline extends the pending
    fragment; what is pending at the end is the unterminated last line."""
    table: Counter = Counter()
    pending = b""
    for (interior, head, tail), trim in zip(counts, trims):
        head = head[trim:]
        if tail is None:
            pending += head
            continue
        table.update(interior)
        if head:  # else the seam trimmed a squeezed newline: no line ends
            table[(pending + head)[:-1]] += 1
        pending = tail
    if pending:
        table[pending] += 1
    return table


def sorted_table(table: Counter, reverse: bool, unique: bool):
    """``(sorted stream, total line count)`` of a count table — the
    in-process sort's own kernel."""
    return (b"".join(sorted_runs(table, reverse, unique)),
            sum(table.values()))


class RegionState:
    def __init__(self, plan: RegionPlan, region_no: int):
        self.plan = plan
        self.no = region_no
        self.status = PENDING
        self.snapshot: bytes = b""
        #: byte range per part, and the pool's [task, future] slots
        self.ranges: list[tuple[int, int]] = []
        self.wave: list[list] = []
        #: seam-merged output stream + global grid per tr stage
        self.streams: list[bytes] = []
        self.grids: list[tuple[array, array]] = []
        self.sorted_stream: bytes = b""
        self.n_lines: int = 0


class HostCoordinator:
    """One per Shell; shares the process-global worker pool."""

    def __init__(self, jobs: int):
        self.jobs = jobs
        #: volume gate floor (difftest campaigns set 0 so tiny corpora
        #: still exercise the machinery)
        self.min_ship_bytes = _env_int("JASH_POOL_MIN_BYTES",
                                       DEFAULT_MIN_SHIP)
        #: how often a wave is resubmitted after a worker died under it
        self.retries = 1
        self.pool: Optional[WorkerPool] = None
        #: test hook: "crash" kills the worker that takes a region's
        #: first part task
        self.chaos: Optional[str] = None
        self._regions: dict[int, RegionState] = {}
        self._region_no = 0
        self._fs = None
        #: exception type begin_run's detection guard swallowed, if any
        self._detect_error: Optional[str] = None
        self.stats = dict.fromkeys(STATS, 0)
        self._mark = dict(self.stats)

    # -- per-run lifecycle -------------------------------------------------

    def begin_run(self, program, fs, cwd: str) -> None:
        self._fs = fs
        self._regions = {}
        self._detect_error = None
        # marks make end_run apply per-run deltas to the metrics plane
        # while self.stats stays cumulative for ``jash stat``
        self._mark = dict(self.stats)
        from ..analysis import analyze_program

        try:
            plans = detect_regions(program, analyze_program(program), fs, cwd,
                                   self.min_ship_bytes)
        except Exception as exc:
            # a pool that cannot analyse must never take the run down;
            # end_run reports what was swallowed
            self._detect_error = type(exc).__name__
            plans = []
        for plan in plans:
            state = RegionState(plan, self._region_no)
            self._region_no += 1
            self._regions[id(plan.node)] = state
            self.stats["regions_detected"] += 1
            if not plan.deferred:
                self._dispatch(state)

    def end_run(self, kernel) -> None:
        """Tell the observer the run's pool counters and region outcomes."""
        ob = kernel.observer
        if ob is not None:
            delta = {k: self.stats[k] - self._mark[k] for k in STATS[1:]}
            ob.on_pool_end(kernel.now, delta, self._detect_error, [
                (s.no, s.status, len(s.snapshot), len(s.ranges))
                for s in self._regions.values() if s.status != PENDING])
        self._regions = {}

    # -- dispatch ----------------------------------------------------------

    def _n_parts(self) -> int:
        """How many parts a wave splits into: capped at the host's core
        count, not just ``--jobs`` — N workers on one core only thrash
        each other's caches (measured ~2x slower than one worker over
        the same bytes).  ``JASH_POOL_PARTS`` overrides the cap: tests
        and CI force multi-part merges with it on any machine."""
        parts = (_env_int("JASH_POOL_PARTS", 0)
                 or min(self.jobs, os.cpu_count() or 1))
        return max(1, min(parts, 8))

    def _parts(self, total: int, single: bool) -> list[tuple[int, int]]:
        """Byte ranges for part tasks; cuts land on GRID_STEP boundaries
        so per-part grids concatenate into one global table."""
        jobs = self._n_parts()
        step = kernels.GRID_STEP
        if single or jobs == 1 or total < 4 * step:
            return [(0, total)]
        cuts = sorted({i * (total // jobs) // step * step
                       for i in range(jobs)} | {total})
        return list(zip(cuts, cuts[1:]))

    def _fail(self, state: RegionState) -> None:
        state.status = FAILED
        self.stats["regions_failed"] += 1

    def _dispatch(self, state: RegionState) -> None:
        plan = state.plan
        try:
            state.snapshot = self._fs.read_bytes(plan.input_path)
        except (VosError, OSError):
            self._fail(state)
            return
        if (plan.has_sort and self.min_ship_bytes and kernels.uncountable(
                state.snapshot[:kernels.PROBE], plan.tr_chain)):
            # the ship gate's other half, "is it even worth trying"
            # (paper §3.2): the in-process sort will not count this input
            # either, and a wave that only finds that out costs a fork
            # and a spill for nothing.  A floor of 0 always ships.
            self._fail(state)
            return
        pool = self.pool = get_global_pool()
        in_spill = pool.spill_path(f"r{state.no}-in.bin")
        Path(in_spill).write_bytes(state.snapshot)
        state.ranges = self._parts(len(state.snapshot), plan.single_part)
        tasks = [{"in_path": in_spill, "a": a, "b": b,
                  "chain": plan.tr_chain, "sort": plan.has_sort,
                  "out_prefix": pool.spill_path(f"r{state.no}-p{k}")}
                 for k, (a, b) in enumerate(state.ranges)]
        if self.chaos:
            tasks[0]["chaos"] = self.chaos
        state.wave = pool.submit(tasks)
        state.status = DISPATCHED
        self.stats["regions_dispatched"] += 1
        self.stats["bytes_shipped"] += len(state.snapshot)
        self.stats["tasks"] += len(tasks)

    # -- merge -------------------------------------------------------------

    def _merge(self, state: RegionState, results: list) -> bool:
        """Parts -> the region's stage streams, offset tables and sorted
        stream.  False when a part gave up counting (None), returned a
        path outside the scratch root, or a spill is not the length its
        worker reported."""
        plan = state.plan
        if None in results or not all(
                self.pool.owns(p) for r in results for p in r["streams"]):
            return False
        in_lens = [b - a for a, b in state.ranges]
        trims = [0] * len(results)
        for i, spec in enumerate(plan.tr_chain):
            outs = [Path(r["streams"][i]).read_bytes() for r in results]
            out_lens = [result["lens"][i] for result in results]
            if out_lens != [len(out) for out in outs]:
                return False
            grids = [array("q", result["grids"][i]) for result in results]
            stream, table, trims = merge_stage(spec, in_lens, outs, grids)
            state.streams.append(stream)
            state.grids.append(table)
            self.stats["bytes_returned"] += sum(out_lens)
            in_lens = out_lens
        if plan.has_sort:
            state.sorted_stream, state.n_lines = sorted_table(
                merge_counts([r["count"] for r in results], trims),
                plan.sort_reverse, plan.sort_unique)
            self.stats["bytes_returned"] += len(state.sorted_stream)
        return True

    def require(self, state: RegionState) -> bool:
        """Block (host wall only — virtual time does not advance) until
        the region's wave is in and merged.  False means it failed — a
        task raised or gave up, the watchdog expired, workers kept dying
        — and the caller must fall back in-process."""
        if state.status == PENDING:
            self._dispatch(state)
        if state.status == DISPATCHED:
            results = self.pool.collect(state.wave, self.retries)
            if results is not None and self._merge(state, results):
                state.status = READY
                self.stats["regions_validated"] += 1
            else:
                self._fail(state)
        return state.status == READY

    # -- oracle hand-out ---------------------------------------------------

    def oracles_for(self, pipeline_node) -> Optional[list]:
        """Fresh per-execution oracles aligned to the pipeline's stages,
        or None when the statement carries no dispatched region."""
        state = self._regions.get(id(pipeline_node))
        if state is None:
            return None
        if state.status == PENDING:
            self._dispatch(state)
        if state.status == FAILED:
            return None
        make = {"tr": TrOracle, "sort": SortOracle}
        return [make[stage.kind](self, state, stage.tr_index)
                if stage.kind in make else None
                for stage in state.plan.stages]

    def oracle_for_simple(self, node):
        """The single-stage (bare ``sort FILE``) variant."""
        oracles = self.oracles_for(node)
        return oracles[0] if oracles else None


# ---------------------------------------------------------------------------
# stage oracles
# ---------------------------------------------------------------------------


class _Oracle:
    """One stage's view of its region: the stage's expected input is a
    stream the region precomputed, and every chunk the stage really
    reads must be the next bytes of it."""

    def __init__(self, coord: HostCoordinator, state: RegionState,
                 tr_index: int = -1):
        self.coord = coord
        self.state = state
        self.tr_index = tr_index
        self.dead = False
        self.armed = False
        self.in_pos = 0

    def _kill(self) -> None:
        self.dead = True
        self.coord.stats["oracle_fallbacks"] += 1

    def _accept(self, data: bytes) -> bool:
        """Validate ``data`` as the next input bytes (the first call
        waits for the region); a mismatch kills the oracle for good."""
        if self.dead:
            return False
        if self.armed or self.coord.require(self.state):
            self.armed = True
            view = self._expected()
            end = self.in_pos + len(data)
            if end <= len(view) and view[self.in_pos : end] == data:
                self.in_pos = end
                return True
        self._kill()
        return False

    def finish(self) -> None:
        if not self.dead and self.armed:
            self.coord.stats["oracle_hits"] += 1


class TrOracle(_Oracle):
    """Validates a tr stage's input chunks and emits precomputed output
    slices.  Prefix-stable: a kill after N chunks leaves the stage in
    exactly the serial state (``last_emitted_byte`` is the carry)."""

    kind = "tr"
    out_pos = 0

    def _expected(self) -> bytes:
        if self.tr_index == 0:
            return self.state.snapshot
        return self.state.streams[self.tr_index - 1]

    def _outoff(self, b: int) -> int:
        """Output offset for input offset ``b``: nearest table boundary
        at or below ``b``, plus a <= GRID_STEP remainder transformed
        with the carry byte the merged stream holds at that boundary."""
        in_view = self._expected()
        out_view = self.state.streams[self.tr_index]
        if b >= len(in_view):
            return len(out_view)
        in_offs, out_offs = self.state.grids[self.tr_index]
        j = bisect_right(in_offs, b) - 1
        base_out = out_offs[j]
        carry = out_view[base_out - 1] if base_out > 0 else -1
        block, _ = tr_block(in_view[in_offs[j] : b],
                            self.state.plan.tr_chain[self.tr_index], carry)
        return base_out + len(block)

    def try_chunk(self, data: bytes) -> Optional[bytes]:
        """The precomputed output for this input chunk, or None — after
        which the caller must transform this chunk (and the rest of the
        stream) itself, seeded by :meth:`last_emitted_byte`."""
        if not self._accept(data):
            return None
        start, self.out_pos = self.out_pos, self._outoff(self.in_pos)
        return self.state.streams[self.tr_index][start : self.out_pos]

    def last_emitted_byte(self) -> int:
        return (self.state.streams[self.tr_index][self.out_pos - 1]
                if self.out_pos else -1)


class SortOracle(_Oracle):
    """Validates the pre-sort stream chunk by chunk; at EOF hands back
    the precomputed sorted stream and line count.  Killing it costs
    nothing: the serial path already retains the raw chunks."""

    kind = "sort"

    def _expected(self) -> bytes:
        state = self.state
        return state.streams[-1] if state.streams else state.snapshot

    feed = _Oracle._accept

    def finish(self) -> Optional[tuple[bytes, int]]:
        """(sorted stream, total line count) — None means fall back."""
        # accepting nothing still arms: an empty input never fed a chunk
        if not self._accept(b""):
            return None
        if self.in_pos != len(self._expected()):
            self._kill()
            return None
        super().finish()
        return self.state.sorted_stream, self.state.n_lines


def render_pool_stats(stats: dict, crashes: int) -> str:
    """The ``jash stat`` pool section."""
    return (
        "\nhost pool\n"
        f"  regions: {stats['regions_dispatched']} dispatched, "
        f"{stats['regions_validated']} validated, "
        f"{stats['regions_failed']} failed; "
        f"oracle hits {stats['oracle_hits']}, "
        f"fallbacks {stats['oracle_fallbacks']}\n"
        f"  bytes: {stats['bytes_shipped']} shipped, "
        f"{stats['bytes_returned']} returned; "
        f"tasks {stats['tasks']}, worker crashes {crashes}\n")
