"""Zero-copy data plane tests (DESIGN.md §11).

Three layers of guarantees:

1. The chunk-deque pipe buffer preserves the byte granularity of a flat
   buffer exactly (``pull_chunks`` removes ``min(nbytes, size)`` bytes),
   while moving whole producer chunks by reference.
2. The kernel pump and the vectorized coreutils kernels are *observably
   identical* to per-chunk/per-line loops (``conftest.copy_loop`` is the
   pump's reference, ``conftest.uniq_line_loop`` the run-based uniq's):
   same bytes, same exit status, and — because they
   replay the same virtual syscall sequence — the same virtual elapsed
   time.  One handler per direction: ``write(join(parts))`` and
   ``writev(parts)``, ``read`` and ``read_all`` are the same virtual ops.
3. FdTable keeps POSIX lowest-free-fd semantics under its O(log n)
   free-list.
4. Vectored CPU (``CpuVReq``): per-record charges deferred on the process
   and replayed in the kernel equal one ``CpuReq`` per record — the loops
   ``sed``, ``awk`` and ``seq`` had, kept here as the references — on
   stdout, virtual time, busy time, fault ops and trace.
5. Record kernels: ``awk``, ``sed`` and ``cut`` compile their program once
   and run ``LineStream`` batches through it; the same references (plus
   the loops ``cut`` and sed's address commands had) must see no
   difference, ``LineStream`` hands out ``bytes`` lines split on ``\n``
   only, and ``OutBuf``'s bulk entry points write what ``put`` writes.
"""

from __future__ import annotations

import itertools
import math
import random
import re
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from repro import FaultPlan, Tracer
from repro.obs import MetricsRegistry
from repro.obs.export import chrome_events
from repro.obs.stat import render_stat
from repro.shell import Shell
from repro.vos import (SIGPIPE_STATUS, BrokenPipe, CpuReq, CpuVReq, DiskSpec,
                       Kernel, Node, SleepReq, make_pipe)
from repro.vos.machines import MachineSpec, laptop
from repro.vos.pipes import Pipe
from repro.vos.process import CHUNK, FdTable

from .conftest import reference_copy, reference_uniq

import repro.commands.awk_lite as awk_lite
import repro.commands.base as base
import repro.commands.filters as filters
import repro.commands.sorting as sorting


# ---------------------------------------------------------------------------
# 1. Pipe chunk buffer
# ---------------------------------------------------------------------------


def _pull(pipe: Pipe, nbytes: int) -> bytes:
    return b"".join(pipe.pull_chunks(nbytes))


def _push(pipe: Pipe, data) -> int:
    return pipe.push_vector([data])[0]


class TestPipeChunkBuffer:
    def test_pull_exact_granularity(self):
        pipe = Pipe(capacity=1 << 20)
        pipe.readers = pipe.writers = 1
        for chunk in (b"aaaa", b"bb", b"cccccc"):
            assert _push(pipe, chunk) == len(chunk)
        assert pipe.size == 12
        # a pull may span chunk boundaries but returns exactly min(n, size)
        assert _pull(pipe, 5) == b"aaaab"
        assert _pull(pipe, 100) == b"bcccccc"
        assert _pull(pipe, 10) == b""
        assert pipe.size == 0

    def test_push_splits_at_capacity_with_memoryview(self):
        pipe = Pipe(capacity=10)
        pipe.readers = pipe.writers = 1
        assert _push(pipe, b"0123456789abcdef") == 10  # only space() accepted
        assert pipe.size == 10
        assert _push(pipe, b"x") == 0  # full
        assert _pull(pipe, 16) == b"0123456789"

    def test_pull_chunks_returns_whole_chunks_by_reference(self):
        pipe = Pipe(capacity=1 << 20)
        pipe.readers = pipe.writers = 1
        first, second = b"hello", b"world!"
        _push(pipe, first)
        _push(pipe, second)
        out = pipe.pull_chunks(5)
        assert len(out) == 1 and out[0] is first  # zero-copy: same object
        # straddling pull: whole chunk impossible, final chunk is a view
        out = pipe.pull_chunks(3)
        assert bytes(out[0]) == b"wor" and isinstance(out[0], memoryview)
        assert _pull(pipe, 10) == b"ld!"

    def test_push_vector_remainder_is_not_copied(self):
        pipe = Pipe(capacity=8)
        pipe.readers = pipe.writers = 1
        accepted, rest = pipe.push_vector([b"abcd", b"efgh", b"ijkl"])
        assert accepted == 8
        assert [bytes(r) for r in rest] == [b"ijkl"]
        assert _pull(pipe, 8) == b"abcdefgh"

    def test_eof_short_final_chunk(self):
        pipe = Pipe(capacity=1 << 20)
        pipe.readers = pipe.writers = 1
        _push(pipe, b"tail")
        pipe.writers = 0
        assert pipe.at_eof is False  # data still buffered
        assert _pull(pipe, CHUNK) == b"tail"  # short read, not an error
        assert pipe.at_eof is True

    def test_accounting_peak_and_total(self):
        pipe = Pipe(capacity=1 << 20)
        pipe.readers = pipe.writers = 1
        _push(pipe, b"x" * 100)
        _pull(pipe, 60)
        _push(pipe, b"y" * 30)
        assert pipe.total_bytes == 130  # every byte ever pushed
        assert pipe.peak_bytes == 100  # high-water mark, not current size
        assert pipe.size == 70

    def test_push_to_readerless_pipe_raises(self):
        pipe = Pipe(capacity=64)
        pipe.writers = 1
        with pytest.raises(BrokenPipe):
            pipe.push_vector([b"data"])

    def test_empty_part_never_waits_for_space(self):
        pipe = Pipe(capacity=4)
        pipe.readers = pipe.writers = 1
        # the pipe is full after the first part; the empty ones have
        # nothing left to deliver, so nothing remains to block on
        assert pipe.push_vector([b"abcd", b"", b""]) == (4, [])
        assert pipe.push_vector([b"", b"e"]) == (0, [b"e"])


# ---------------------------------------------------------------------------
# 2. FdTable free-list
# ---------------------------------------------------------------------------


class TestFdTable:
    def test_lowest_free_fd(self):
        fds = FdTable({0: "in", 1: "out", 2: "err"})
        assert fds.next_free() == 3
        del fds[1]
        assert fds.next_free() == 1
        fds[1] = "out2"
        assert fds.next_free() == 3

    def test_gap_below_high_fd(self):
        fds = FdTable()
        fds[5] = "h"
        assert fds.next_free() == 0
        fds[0] = fds[1] = fds[2] = fds[3] = fds[4] = "x"
        assert fds.next_free() == 6

    def test_pop_releases_fd(self):
        fds = FdTable({0: "a", 1: "b"})
        assert fds.pop(0) == "a"
        assert fds.pop(9, None) is None  # absent fd: no phantom free entry
        assert fds.next_free() == 0

    def test_direct_reassignment_not_confused_by_stale_heap(self):
        fds = FdTable({0: "a", 1: "b"})
        del fds[0]
        fds[0] = "c"  # reassigned without going through next_free
        assert fds.next_free() == 2

    def test_plain_dict_upgraded_by_fds_setter(self):
        kernel = Kernel(Node("n0", 2, 1.0, DiskSpec()))

        def body(proc):
            proc.fds = dict(proc.fds)  # interpreter-style table swap
            assert isinstance(proc.fds, FdTable)
            assert proc.next_fd() == 0 if not proc.fds else True
            return 0
            yield  # pragma: no cover - make it a generator

        root = kernel.create_process(body)
        assert kernel.run_until_process_done(root) == 0


# ---------------------------------------------------------------------------
# 3. Splice fast path: identical bytes AND identical virtual time
# ---------------------------------------------------------------------------

SPLICE_SCRIPTS = (
    "cat /data/in.bin > /data/out.bin",
    "cat /data/in.bin | wc -c",
    "cat /data/in.bin | head -c 100000 | wc -c",  # BrokenPipe mid-splice
    "cat /data/in.bin | tee /data/copy.bin | wc -c",
    "cat /data/in.bin /data/in.bin | wc -c",
)


def _run_copy(script: str):
    data = bytes(random.Random(5).randbytes(300_000))
    shell = Shell(laptop())
    shell.fs.write_bytes("/data/in.bin", data)
    result = shell.run(script)
    files = {}
    for path in ("/data/out.bin", "/data/copy.bin"):
        try:
            files[path] = shell.fs.read_bytes(path)
        except Exception:
            files[path] = None
    return (result.status, result.stdout, result.stderr,
            shell.kernel.now, files)


class TestSpliceEquivalence:
    @pytest.mark.parametrize("script", SPLICE_SCRIPTS)
    def test_identical_bytes_and_virtual_time(self, script):
        fast = _run_copy(script)
        with reference_copy():
            slow = _run_copy(script)
        assert fast == slow  # status, stdout, stderr, kernel.now, files

    def test_sigpipe_terminates_splice_cleanly(self):
        shell = Shell(laptop())
        shell.fs.write_bytes("/data/in.bin", b"z" * 500_000)
        # head exits early; the mid-splice writer must die on SIGPIPE and
        # the pipeline still completes with head's status
        result = shell.run("cat /data/in.bin | head -c 10 | wc -c")
        assert result.status == 0
        assert result.stdout.strip() == b"10"


# ---------------------------------------------------------------------------
# 3b. One handler per direction: scalar and vectored requests are the
#     same virtual ops
# ---------------------------------------------------------------------------


def _pipe_run(writer, make_reader, capacity):
    """``writer`` -> pipe of ``capacity`` bytes -> reader, traced and
    metered; returns all that two equivalent bodies must agree on: the
    writer's status, the bytes delivered, the final clock, (write, read)
    stall counts, dispatches, and every pipe trace record (each carries
    the virtual instant of one transfer or stall)."""
    kernel = Kernel(Node("n0", 2, 1.0, DiskSpec()))
    tracer, reg = Tracer(), MetricsRegistry()
    kernel.install_tracer(tracer)
    kernel.install_metrics(reg)
    rd, wr = make_pipe(capacity=capacity)
    got: list[bytes] = []

    def main(proc):
        w = yield from proc.spawn(writer, name="w", fds={1: wr})
        r = yield from proc.spawn(make_reader(got), name="r", fds={0: rd})
        status = yield from proc.wait(w)
        yield from proc.wait(r)
        return status

    root = kernel.create_process(main)
    status = kernel.run_until_process_done(root)
    stalls = tuple(reg.value("pipe.stalls", pipe=1, kind=kind)
                   for kind in ("write", "read"))
    pipe_records = [(r.name, r.ts, r.dur, r.pid, r.args)
                    for r in tracer.records if r.cat == "pipe"]
    return (status, b"".join(got), repr(kernel.now), stalls,
            kernel.dispatches, pipe_records)


def _slow_reader(limit=None):
    """1000-byte reads with a burst after each; exits after ``limit``."""
    def make(got):
        def body(proc):
            while limit is None or len(got) < limit:
                data = yield from proc.read(0, 1000)
                if not data:
                    break
                got.append(data)
                yield from proc.cpu(len(data) * 20e-9)
            return 0
        return body
    return make


def _write_joined(parts):
    def body(proc):
        yield from proc.write(1, b"".join(parts))
        return 0
    return body


def _write_vector(parts):
    def body(proc):
        yield from proc.writev(1, parts)
        return 0
    return body


@st.composite
def _cut_parts(draw):
    """Random bytes cut into 1-8 parts (coinciding cuts: empty parts)."""
    size = draw(st.integers(0, CHUNK + 4096))
    data = random.Random(draw(st.integers(0, 1 << 16))).randbytes(size)
    cuts = sorted(draw(st.lists(st.integers(0, size), max_size=7)))
    return [data[a:b] for a, b in zip([0] + cuts, cuts + [size])]


_CAPACITIES = st.sampled_from([64, 4096, 65536])


class TestOneHandlerPerDirection:
    @given(parts=_cut_parts(), capacity=_CAPACITIES)
    @example(parts=[b"a" * 40, b"b" * 40], capacity=64)  # straddles the limit
    @example(parts=[b"a" * 64, b""], capacity=64)  # nothing left to wait for
    @example(parts=[b"", b"a" * 64, b"", b"b"], capacity=64)
    @example(parts=[memoryview(b"abc" * 50), b"tail"], capacity=64)
    @settings(deadline=None, max_examples=60)
    def test_write_of_join_equals_writev(self, parts, capacity):
        joined = _pipe_run(_write_joined(parts), _slow_reader(), capacity)
        vector = _pipe_run(_write_vector(parts), _slow_reader(), capacity)
        assert joined[:2] == (0, b"".join(parts))
        assert joined == vector

    @given(parts=_cut_parts(), capacity=_CAPACITIES)
    # a write larger than the pipe, its reader already blocked: the woken
    # reader empties the pipe before the writer's remainder is queued
    @example(parts=[b"z" * 65], capacity=64)
    @settings(deadline=None, max_examples=40)
    def test_read_loop_equals_read_all(self, parts, capacity):
        def paced_writer(proc):
            for part in parts:
                yield from proc.write(1, part)
                yield from proc.cpu(2e-6)
            return 0

        def read_loop(got):
            def body(proc):
                while True:
                    data = yield from proc.read(0, CHUNK)
                    if not data:
                        return 0
                    got.append(data)
            return body

        def read_all(got):
            def body(proc):
                got.append((yield from proc.read_all(0)))
                return 0
            return body

        scalar = _pipe_run(paced_writer, read_loop, capacity)
        vector = _pipe_run(paced_writer, read_all, capacity)
        assert scalar[:2] == (0, b"".join(parts))
        assert scalar == vector

    def test_reader_exit_mid_write_is_sigpipe_on_both(self):
        parts = [b"x" * 3000, b"y" * 3000]
        joined = _pipe_run(_write_joined(parts), _slow_reader(limit=1), 4096)
        vector = _pipe_run(_write_vector(parts), _slow_reader(limit=1), 4096)
        assert joined[:2] == (SIGPIPE_STATUS, b"x" * 1000)
        assert joined == vector


# ---------------------------------------------------------------------------
# 4. Scheduling determinism: two writers, one reader
# ---------------------------------------------------------------------------


def _two_writer_run():
    disk = DiskSpec(throughput_bps=100e6, base_iops=1000, burst_iops=1000)
    kernel = Kernel(Node("n0", 4, 1.0, disk))
    reader, writer = make_pipe(capacity=4096)
    collected = []

    def producer(tag: bytes):
        def body(proc):
            for _ in range(64):
                yield from proc.write(1, tag * 512)
            return 0
        return body

    def consumer(proc):
        data = yield from proc.read_all(0)
        collected.append(data)
        return 0

    def main(proc):
        p1 = yield from proc.spawn(producer(b"A"), fds={1: writer})
        p2 = yield from proc.spawn(producer(b"B"), fds={1: writer})
        p3 = yield from proc.spawn(consumer, fds={0: reader})
        yield from proc.wait(p1)
        yield from proc.wait(p2)
        yield from proc.wait(p3)
        return 0

    root = kernel.create_process(main)
    assert kernel.run_until_process_done(root) == 0
    return collected[0], kernel.now


class TestFairnessDeterminism:
    def test_two_writers_interleaving_is_deterministic(self):
        data1, now1 = _two_writer_run()
        data2, now2 = _two_writer_run()
        assert data1 == data2
        assert now1 == now2
        assert len(data1) == 2 * 64 * 512
        assert data1.count(b"A") == data1.count(b"B")


# ---------------------------------------------------------------------------
# 5. Vectorized kernels vs legacy line loops
# ---------------------------------------------------------------------------


def _run_script(script: str, files: dict[str, bytes]):
    shell = Shell(laptop())
    for path, data in files.items():
        shell.fs.write_bytes(path, data)
    result = shell.run(script)
    return result.status, result.stdout, result.stderr, shell.kernel.now


def _boundary_text() -> bytes:
    """Text engineered so words, squeeze runs, and lines straddle the
    64 KiB read boundary."""
    rng = random.Random(11)
    parts = [b"lead in  words\n"]
    size = sum(map(len, parts))
    while size < CHUNK - 4:
        w = rng.choice([b"alpha", b"beta beta", b"  ", b"gamma\n", b"zz"])
        parts.append(w)
        size += len(w)
    parts.append(b"straddle straddle straddle\n")  # crosses the boundary
    parts.append(b"ssssssss")  # squeeze run across the edge
    parts.append(b"ssssssss tail words no final newline")
    return b"".join(parts)


class TestVectorizedEquivalence:
    def test_wc_counts_words_across_chunk_boundary(self):
        data = _boundary_text()
        status, out, _, _ = _run_script("wc /in.txt", {"/in.txt": data})
        assert status == 0
        lines, words, chars = out.split()[:3]
        assert int(lines) == data.count(b"\n")
        assert int(words) == len(data.split())
        assert int(chars) == len(data)

    def test_tr_squeeze_run_across_chunk_boundary(self):
        data = b"x" * (CHUNK - 3) + b"s" * 7 + b"y" + b"s" * 5
        status, out, _, _ = _run_script("tr -s s < /in.txt",
                                        {"/in.txt": data})
        assert status == 0
        assert out == b"x" * (CHUNK - 3) + b"sys"

    @given(data=st.binary(max_size=300), squeeze=st.sampled_from(
        [b"\n", b"s", b"\n s"]), carry=st.sampled_from([-1, 10, 32, 120]),
        cuts=st.lists(st.integers(0, 300), max_size=4))
    @example(data=b"\n\n\n\n\n", squeeze=b"\n", carry=10, cuts=[2])
    @settings(deadline=None, max_examples=200)
    def test_tr_squeeze_matches_regex(self, data, squeeze, carry, cuts):
        """``tr_block``'s squeeze is the regex's, carry in or out of the
        set included, and blocks cut anywhere compose through it."""
        plan = filters._tr_plan(("A-Za-z", squeeze.decode()), True, True,
                                False)
        runs = re.compile(b"([" + re.escape(squeeze) + b"])\\1+")
        text = data.translate(plan.table)
        lead = bytes([carry]) if carry >= 0 else b""
        want = runs.sub(b"\\1", lead + text)[len(lead):]
        out, last = filters.tr_block(data, plan, carry)
        assert out == want
        assert last == (want[-1] if want else carry)
        pieces = []
        for a, b in itertools.pairwise([0, *sorted(cuts), len(data)]):
            piece, carry = filters.tr_block(data[a:b], plan, carry)
            pieces.append(piece)
        assert b"".join(pieces) == want

    def test_sort_plain_matches_python_sorted(self):
        rng = random.Random(3)
        lines = [bytes([rng.randrange(33, 127)]) * rng.randrange(1, 9)
                 for _ in range(500)]
        data = b"\n".join(lines)  # no final newline on purpose
        status, out, _, _ = _run_script("sort /in.txt", {"/in.txt": data})
        assert status == 0
        assert out == b"\n".join(sorted(lines)) + b"\n"
        status, out, _, _ = _run_script("sort -u -r /in.txt",
                                        {"/in.txt": data})
        assert status == 0
        assert out == b"\n".join(sorted(set(lines), reverse=True)) + b"\n"

    @pytest.mark.parametrize("flags", ["", "-c", "-d", "-u", "-cd", "-cu"])
    def test_uniq_fast_path_matches_line_loop(self, flags):
        rng = random.Random(7)
        mixed = b"".join(b"w%d\n" % i * rng.choice([1, 1, 2, 3, 9, 40])
                         for i in range(20_000))
        cases = [
            b"a\na\nb\nb\nb\nc\n",
            b"q" * (CHUNK - 1) + b"\n" + b"q" * (CHUNK - 1) + b"\n",  # run
            b"\n\n\nx\n\n",  # empty-line groups
            b"last no newline",
            b"x\n" * (CHUNK // 2 - 5) + b"run\n" * 40 + b"y\n",  # at CHUNK
            b"".join(b"%07d\n" % i for i in range(30_000)),  # all distinct
            b"a\r\na\r\nb\r\nb\nb\n" * 3000 + b"b\r",  # \r\n lines
            mixed,  # galloped runs, then short ones split in one blob
        ]
        for data in cases:
            for script in (f"uniq {flags} /in.txt",
                           f"cat /in.txt | uniq {flags}"):
                fast = _observe(script, {"/in.txt": data})
                with reference_uniq():
                    slow = _observe(script, {"/in.txt": data})
                # status, bytes, virtual time and dispatches
                assert fast[:4] == slow[:4], (script, data[:40])

    def test_grep_blob_scan_matches_line_loop(self, monkeypatch):
        rng = random.Random(9)
        lines = []
        for i in range(4000):
            lines.append(rng.choice([
                b"GET /index.html 200", b"POST /api 500 failure",
                b"needle haystack needle", b"nothing to see",
            ]))
        data = b"\n".join(lines) + b"\n"
        for script in ('grep failure /in.txt', 'grep -c needle /in.txt',
                       'grep -m 3 haystack /in.txt'):
            fast = _run_script(script, {"/in.txt": data})
            monkeypatch.setattr(filters, "_literal_needle",
                                lambda *a, **k: None)
            slow = _run_script(script, {"/in.txt": data})
            monkeypatch.undo()
            assert fast[:3] == slow[:3]  # bytes identical
            assert fast[3] == slow[3]  # virtual time identical

    def test_head_lines_across_batches(self):
        lines = b"".join(b"line %d\n" % i for i in range(50_000))
        status, out, _, _ = _run_script("head -n 30000 /in.txt",
                                        {"/in.txt": lines})
        assert status == 0
        assert out == b"".join(b"line %d\n" % i for i in range(30_000))


# ---------------------------------------------------------------------------
# 4. Run-aware sorting: counting sort, run-batched k-way merge
# ---------------------------------------------------------------------------


def _observe(script: str, files: dict[str, bytes], faults=None):
    """(status, stdout, elapsed, dispatches, fault ops, fault trace).
    ``jobs=1``: these tests are about the in-process kernels, also when
    CI reruns the suite under ``JASH_JOBS=2``."""
    shell = Shell(laptop(), faults=faults, jobs=1)
    for path, data in files.items():
        shell.fs.write_bytes(path, data)
    result = shell.run(script)
    return (result.status, result.stdout, result.elapsed,
            shell.kernel.dispatches,
            faults.ops if faults else 0, faults.trace() if faults else [])


def _py_sort(data: bytes, flags: str = "") -> bytes:
    bodies = data.split(b"\n")
    if bodies[-1] == b"":
        bodies.pop()
    if "-u" in flags:
        bodies = set(bodies)
    return b"".join(body + b"\n"
                    for body in sorted(bodies, reverse="-r" in flags))


class _GaveUp(sorting.LineCounter):
    """A counter that has given up before the first chunk: sort's
    split + ``list.sort`` path, the reference for the counting path."""

    def __init__(self):
        super().__init__()
        self.counts = None


def _sort_inputs() -> dict[str, bytes]:
    rng = random.Random(5)
    vocab = [b"w%03d" % i * rng.randrange(1, 4) for i in range(100)]
    distinct = [b"%06x" % i for i in range(30_000)]
    rng.shuffle(distinct)
    few = [rng.choice(vocab[:50]) for _ in range(20_000)]
    return {
        "one": b"same\n" * 30_000,
        "hundred": b"".join(rng.choice(vocab) + b"\n"
                            for _ in range(40_000)),
        "distinct": b"\n".join(distinct[:12_000]) + b"\n",
        "crossing": b"\n".join(few + distinct) + b"\n",
        "odd-bytes": b"b\n\n\x00\n\x01a\n\n\x00\nb\n\x01\n\n" * 300
        + b"\x00\x01 no final newline",
    }


SORT_INPUTS = _sort_inputs()
SORT_FLAGS = ["", "-r", "-u", "-u -r"]


class TestCountingSort:
    @pytest.mark.parametrize("flags", SORT_FLAGS)
    @pytest.mark.parametrize("name", sorted(SORT_INPUTS))
    def test_matches_sorted_and_the_list_sort_path(self, name, flags,
                                                   monkeypatch):
        data = SORT_INPUTS[name]
        made: list[sorting.LineCounter] = []

        class Spy(sorting.LineCounter):
            def __init__(self):
                super().__init__()
                made.append(self)

        monkeypatch.setattr(sorting, "LineCounter", Spy)
        counted = _observe(f"sort {flags} /in.txt", {"/in.txt": data})
        monkeypatch.setattr(sorting, "LineCounter", _GaveUp)
        listed = _observe(f"sort {flags} /in.txt", {"/in.txt": data})
        assert counted[0] == 0
        assert counted[1] == _py_sort(data, flags)
        assert counted == listed  # bytes, virtual time, dispatches
        (counter,) = made
        if name in ("distinct", "crossing"):
            # abandoned mid-stream, from what the count itself saw
            assert counter.counts is None
            assert 0 < counter.lines < data.count(b"\n")
        else:
            assert counter.lines == len(_py_sort(data).splitlines())

    def test_output_file_and_several_operands(self, monkeypatch):
        files = {"/a": SORT_INPUTS["hundred"][:-1],  # no final newline
                 "/b": SORT_INPUTS["odd-bytes"],
                 "/c": b"", "/d": b"\n\nzz\n"}
        script = "sort -r -o /out.txt /a /b /c /d; cat /out.txt"
        want = _py_sort(b"\n".join(files[p].removesuffix(b"\n")
                                   for p in ("/a", "/b", "/d")), "-r")
        counted = _observe(script, files)
        monkeypatch.setattr(sorting, "LineCounter", _GaveUp)
        assert counted == _observe(script, files)
        assert counted[:2] == (0, want)

    @settings(deadline=None, max_examples=60)
    @given(lines=st.lists(st.binary(max_size=6).map(
               lambda b: b.replace(b"\n", b"\x00")), max_size=40),
           repeat=st.integers(min_value=1, max_value=400),
           final_newline=st.booleans(),
           flags=st.sampled_from(SORT_FLAGS))
    def test_property_counting_equals_sorted(self, lines, repeat,
                                             final_newline, flags):
        data = b"\n".join(lines * repeat)
        if final_newline and data:
            data += b"\n"
        status, out, *_ = _observe(f"sort {flags} /in.txt",
                                   {"/in.txt": data})
        assert status == 0
        assert out == _py_sort(data, flags)


def _kway_merge_per_line(proc, in_fds, key, reverse, unique, coeff,
                         eq_key=None):
    """The merge loop as it was before run batching — one heap round
    trip per line — kept here as the reference for ``kway_merge``."""
    import heapq
    import math

    streams = [base.LineStream(proc, fd) for fd in in_fds]
    heap: list = []

    class _Rev:
        __slots__ = ("k",)

        def __init__(self, k):
            self.k = k

        def __lt__(self, other):
            return other.k < self.k

        def __eq__(self, other):
            return self.k == other.k

    def wrap(k):
        return _Rev(k) if reverse else k

    if eq_key is None:
        eq_key = key
    for i, stream in enumerate(streams):
        line = yield from stream.next_line()
        if line is not None:
            heapq.heappush(heap, (wrap(key(line)), i, line))
    out = base.OutBuf(proc, 1)
    cmp_cost = base.SORT_CMP_COST * math.log2(max(2, len(streams)))
    prev_key = object()
    pending_cpu = 0.0
    while heap:
        wrapped, i, line = heapq.heappop(heap)
        pending_cpu += len(line) * coeff + cmp_cost
        if pending_cpu > 1e-4:
            yield from proc.cpu(pending_cpu)
            pending_cpu = 0.0
        k = eq_key(line) if unique else None
        if not (unique and k == prev_key):
            yield from out.put(line if line.endswith(b"\n") else line + b"\n")
        prev_key = k
        nxt = yield from streams[i].next_line()
        if nxt is not None:
            heapq.heappush(heap, (wrap(key(nxt)), i, nxt))
    if pending_cpu:
        yield from proc.cpu(pending_cpu)
    yield from out.flush()
    return 0


def _sorted_parts(k: int, flags: str) -> dict[str, bytes]:
    """k pre-sorted files of duplicate runs.  /p0 opens with a run that
    ends exactly at the first 64 KiB buffer's end, /p1 (if any) with one
    that runs on into the second buffer; the last file's last line has
    no newline."""
    rng = random.Random(k)
    reverse = "-r" in flags
    if "-k2" in flags:
        # equal numeric keys on different bytes, and identical lines too
        vocab = [b"%s %d" % (w, n) for w in (b"x", b"yy", b"x")
                 for n in (3, 3, 10, 200)]
        order = lambda l: (float(l.split()[1]), l)  # noqa: E731
        edge = b"edge  0" if not reverse else b"edge 99"
    else:
        vocab = [b"w%02d" % i * rng.randrange(1, 3) for i in range(30)]
        order = lambda l: l  # noqa: E731
        edge = b"aaaaaaa" if not reverse else b"zzzzzzz"
    assert len(edge) + 1 == 8
    files = {}
    for p in range(k):
        lines = sorted((rng.choice(vocab) for _ in range(6000)),
                       key=order, reverse=reverse)
        if p < 2:
            lines[:0] = [edge] * (CHUNK // 8 + 100 * p)
        files[f"/p{p}"] = b"\n".join(lines) + (b"\n" if p < k - 1 else b"")
    return files


MERGE_CASES = [(k, flags) for k in (1, 2, 8)
               for flags in ("", "-u", "-r", "-k2 -n", "-u -k2 -n")]


class TestRunBatchedMerge:
    @pytest.mark.parametrize("k,flags", MERGE_CASES)
    def test_equals_per_line_loop(self, k, flags, monkeypatch):
        files = _sorted_parts(k, flags)
        script = f"sort -m {flags} {' '.join(sorted(files))}"
        batched = _observe(script, files)
        monkeypatch.setattr(sorting, "kway_merge", _kway_merge_per_line)
        per_line = _observe(script, files)
        assert batched[0] == 0
        assert batched == per_line  # stdout, elapsed (==), dispatches
        # and both are the serial sort of the concatenation
        check = _observe(f"sort {flags} {' '.join(sorted(files))}", files)
        assert batched[1] == check[1]

    def test_seeded_faults_fire_on_the_same_op(self, monkeypatch):
        from repro import FaultPlan

        files = _sorted_parts(8, "")
        script = f"sort -m {' '.join(sorted(files))} | cat"

        def plan():
            return FaultPlan(seed=21, rate=0.02,
                             kinds=("disk-error", "pipe-break"))

        batched = _observe(script, files, faults=plan())
        monkeypatch.setattr(sorting, "kway_merge", _kway_merge_per_line)
        per_line = _observe(script, files, faults=plan())
        assert batched[5], "the schedule must fire at least once"
        assert batched == per_line  # incl. FaultPlan op count and trace


MERGE_FLAGS = ("", "-u", "-r", "-ru", "-k2 -n", "-u -k2 -n", "-f")


@st.composite
def _threshold_straddling_parts(draw):
    """(flags, files): k pre-sorted inputs made of duplicate runs whose
    lengths sit on, one short of and one past the merge's two
    thresholds (the ``1e-4`` s charge trip and the ``CHUNK`` flush),
    fill a whole read, or are split by one."""
    flags = draw(st.sampled_from(MERGE_FLAGS))
    k = draw(st.integers(min_value=1, max_value=8))
    keyed = "-k2" in flags
    widths = st.one_of(st.sampled_from([0, 7, 15, 63, 127, 199]),
                       st.integers(min_value=0, max_value=199))
    if keyed:
        bodies = draw(st.lists(
            st.tuples(st.sampled_from([b"x", b"X", b"yy"]),
                      st.sampled_from([3, 3.0, 10, 200])).map(
                          lambda t: b"%s %s" % (t[0], str(t[1]).encode())),
            min_size=1, max_size=5, unique=True))
    else:
        bodies = draw(st.lists(
            st.tuples(st.sampled_from([b"a", b"A", b"b"]), widths).map(
                lambda t: (t[0] * t[1])[:199]),
            min_size=1, max_size=5, unique=True))
    primary = sorting.make_sort_key("-n" in flags, 2 if keyed else None, None,
                                    "-f" in flags)
    order = primary if "u" in flags else sorting.make_cmp_key(primary)
    bodies.sort(key=order, reverse="r" in flags)
    cmp_cost = base.SORT_CMP_COST * math.log2(max(2, k))
    files = {}
    empty = draw(st.integers(min_value=0, max_value=k)) if k > 1 else k
    for p in range(k):
        lines: list[bytes] = []
        for body in bodies if p != empty else ():
            width = len(body) + 1
            trip = int(1e-4 / (width * base.cpu_coeff("sort") + cmp_cost))
            flush = -(-CHUNK // width)
            n = draw(st.sampled_from(
                [0, 1, 2, trip - 1, trip, trip + 1, trip + 2,
                 flush - 1, flush, flush + 1, CHUNK // width,
                 2 * (CHUNK // width) + 3]))
            lines += [body] * n
        files[f"/p{p}"] = b"".join(line + b"\n" for line in lines)
    files[f"/p{k - 1}"] = files[f"/p{k - 1}"][:-1]  # last one unterminated
    return flags, files


class TestMergeAgainstReference:
    @settings(deadline=None, max_examples=40)
    @given(case=_threshold_straddling_parts())
    def test_same_ops_as_the_per_line_loop(self, case):
        flags, files = case
        script = f"sort -m {flags} {' '.join(sorted(files))} | cat"

        def plan():
            return FaultPlan(seed=7, rate=0.0, kinds=("pipe-break",))

        batched = _observe(script, files, faults=plan())
        with mock.patch.object(sorting, "kway_merge", _kway_merge_per_line):
            per_line = _observe(script, files, faults=plan())
        assert batched[0] == 0
        # status, stdout, elapsed (==), dispatches, fault-plan op count
        assert batched == per_line

    @pytest.mark.parametrize("k,width", [(1, 71), (4, 132), (8, 57)])
    def test_charge_and_flush_falling_on_one_line(self, k, width):
        """Widths at which the flush line (every ``ceil(CHUNK / width)``
        lines) is also a charge line: the charge is issued first."""
        cost = width * base.cpu_coeff("sort") + (
            base.SORT_CMP_COST * math.log2(max(2, k)))
        trip = len(list(itertools.takewhile(
            lambda s: s <= 1e-4, itertools.accumulate(
                itertools.repeat(cost), initial=0.0))))
        assert -(-CHUNK // width) % trip == 0
        files = {f"/p{p}": b"" for p in range(k)}
        files["/p0"] = (b"a" * (width - 1) + b"\n") * (3 * CHUNK // width)
        events = []
        for merge in (sorting.kway_merge, _kway_merge_per_line):
            tracer = Tracer(syscall_events=True)
            shell = Shell(laptop(), tracer=tracer, jobs=1)
            for path, data in files.items():
                shell.fs.write_bytes(path, data)
            with mock.patch.object(sorting, "kway_merge", merge):
                result = shell.run(f"sort -m {' '.join(sorted(files))} | cat")
            assert result.status == 0
            events.append(chrome_events(tracer))
        # every syscall instant and cpu span: same order, start and width
        assert events[0] == events[1]


class _ScriptedReads:
    """Stands in for a Process: ``read`` hands out ``data`` in pieces."""

    def __init__(self, data: bytes):
        self.data = data
        self.reads = 0

    def read(self, fd, nbytes):
        self.reads += 1
        piece, self.data = self.data[:nbytes], self.data[nbytes:]
        return piece
        yield  # a sub-generator, like Process.read


class _PopFrontLineStream:
    """LineStream before the cursor (``list.pop(0)`` per line): the
    reference for what ``next_line``/``next_batch`` deliver and when
    they read."""

    def __init__(self, proc, fd, chunk):
        self.proc, self.fd, self.chunk = proc, fd, chunk
        self._buf = bytearray()
        self._eof = False
        self._lines: list[bytes] = []

    def _read(self):
        data = yield from self.proc.read(self.fd, self.chunk)
        if not data:
            self._eof = True
            if self._buf:
                self._lines.append(bytes(self._buf))
                self._buf.clear()
        else:
            self._buf.extend(data)
            if b"\n" in self._buf:
                *complete, rest = self._buf.split(b"\n")
                self._lines.extend(line + b"\n" for line in complete)
                self._buf = bytearray(rest)

    def next_line(self):
        while not self._lines and not self._eof:
            yield from self._read()
        return self._lines.pop(0) if self._lines else None

    def next_batch(self):
        if not self._lines and not self._eof:
            yield from self._read()
        if self._lines:
            batch, self._lines = self._lines, []
            return batch
        return None if self._eof else []


def _drive(gen):
    try:
        next(gen)
    except StopIteration as stop:
        return stop.value
    raise AssertionError("scripted reads never block")


class TestLineStreamCursor:
    @settings(deadline=None, max_examples=200)
    @given(data=st.text(alphabet="ab\n", max_size=60).map(str.encode),
           chunk=st.integers(min_value=1, max_value=9),
           calls=st.lists(st.sampled_from(["next_line", "next_batch"]),
                          min_size=1, max_size=40))
    def test_mixed_calls_deliver_and_read_as_before(self, data, chunk,
                                                    calls):
        new_proc, old_proc = _ScriptedReads(data), _ScriptedReads(data)
        new = base.LineStream(new_proc, 0, chunk)
        old = _PopFrontLineStream(old_proc, 0, chunk)
        for call in calls:
            assert (_drive(getattr(new, call)())
                    == _drive(getattr(old, call)()))
            assert new_proc.reads == old_proc.reads

    def test_run_reader_never_extends_a_run_across_a_read(self, monkeypatch):
        monkeypatch.setattr(sorting, "CHUNK", 9)  # "a\na\na\nb\nb" + "\na"
        proc = _ScriptedReads(b"a\na\na\nb\nb\na")
        reader = sorting._RunReader(proc, 0)
        assert _drive(reader.next_run()) == (b"a\n", 3)
        assert _drive(reader.next_run()) == (b"b\n", 1)  # 2nd b incomplete
        assert proc.reads == 1
        assert _drive(reader.next_run()) == (b"b\n", 1)
        assert _drive(reader.next_run()) == (b"a", 1)  # unterminated tail
        assert _drive(reader.next_run()) is None

    @settings(deadline=None, max_examples=200)
    @given(data=st.text(alphabet="ab\r\n", max_size=80).map(str.encode),
           chunk=st.integers(min_value=1, max_value=12))
    def test_run_reader_is_next_line_run_length_encoded(self, data, chunk):
        """Same lines, and a read exactly where ``next_line`` reads: only
        ahead of a run's first line."""
        run_proc, line_proc = _ScriptedReads(data), _ScriptedReads(data)
        lines = base.LineStream(line_proc, 0, chunk)
        with mock.patch.object(sorting, "CHUNK", chunk):
            reader = sorting._RunReader(run_proc, 0)
            while True:
                run = _drive(reader.next_run())
                first = _drive(lines.next_line())
                assert run_proc.reads == line_proc.reads
                if run is None:
                    assert first is None
                    break
                line, count = run
                assert count >= 1 and first == line
                for _ in range(count - 1):
                    assert _drive(lines.next_line()) == line
                assert run_proc.reads == line_proc.reads

    @settings(deadline=None, max_examples=100)
    @given(lines=st.lists(st.sampled_from([b"", b"a", b"ab", b"a\ra"]),
                          max_size=12),
           repeats=st.lists(st.integers(min_value=1, max_value=70),
                            min_size=12, max_size=12),
           tail=st.sampled_from([b"", b"a", b"zz"]))
    def test_runs_of_is_groupby(self, lines, repeats, tail):
        from itertools import groupby

        bodies = [body for body, n in zip(lines, repeats) for _ in range(n)]
        buf = b"".join(body + b"\n" for body in bodies) + tail
        assert list(sorting._runs_of(buf)) == [
            (body + b"\n", len(list(group))) for body, group in groupby(bodies)]


# ---------------------------------------------------------------------------
# 7. Vectored CPU: deferred per-record charges vs one CpuReq per record
# ---------------------------------------------------------------------------


def _sed_per_line(proc, argv):
    """``sed`` as it charged before CpuVReq: one ``proc.cpu`` per line
    (argv here: ``[-n] SCRIPT [FILE]``)."""
    auto_print = argv[0] != "-n"
    script, *files = argv[0 if auto_print else 1:]
    cmds = filters.parse_sed_script(script)
    coeff = base.cpu_coeff("sed")
    fd, _ = yield from base.open_input(proc, files[0] if files else "-")
    stream = base.LineStream(proc, fd)
    out = base.OutBuf(proc, 1)
    lineno = 0
    quit_now = False
    while not quit_now:
        line = yield from stream.next_line()
        if line is None:
            break
        yield from proc.cpu(len(line) * coeff)
        lineno += 1
        body = line.rstrip(b"\n")
        printed = []
        for cmd in cmds:
            if cmd.kind == "q" and lineno == cmd.nth:
                quit_now = True
                break
            if cmd.kind == "s":
                body, n = cmd.substitute(body)
                if n and cmd.print_:
                    printed.append(body + b"\n")
        if auto_print:
            yield from out.put(body + b"\n")
        for extra in printed:
            yield from out.put(extra)
    yield from out.flush()
    return 0


def _awk_per_line(proc, argv):
    """``awk`` as it charged before CpuVReq (argv: ``[-v NAME=VALUE]...
    PROGRAM [FILE | NAME=VALUE]...``, main items and END only): one
    ``proc.cpu`` and one ``put`` per line, each line run as a batch of its
    own."""
    assigns = {}
    while argv[0] == "-v":
        name, _, value = argv[1].partition("=")
        assigns[name], argv = value, argv[2:]
    runtime = awk_lite.AwkRuntime(argv[0], assigns=assigns)
    coeff = base.cpu_coeff("default") * 6
    out = base.OutBuf(proc, 1)
    status = 0
    try:
        for path in argv[1:] or ["-"]:
            if "=" in path:
                name, _, value = path.partition("=")
                runtime.vars[name] = value
                continue
            fd, _ = yield from base.open_input(proc, path)
            stream = base.LineStream(proc, fd)
            while True:
                line = yield from stream.next_line()
                if line is None:
                    break
                yield from proc.cpu(len(line) * coeff)
                held = base.OutBuf(proc, 1, threshold=1 << 62)  # never flushes
                yield from runtime.records([line], held, lambda bursts: None,
                                           coeff)
                yield from out.put(b"".join(held._chunks))
    except awk_lite._Exit as stop:
        status = stop.status or 0
    runtime.end()
    yield from out.put(b"".join(runtime.out))
    yield from out.flush()
    return status


def _seq_per_line(proc, argv):
    out = base.OutBuf(proc, 1)
    coeff = base.cpu_coeff("seq")
    for value in range(1, int(argv[0]) + 1):
        line = b"%d\n" % value
        yield from proc.cpu(len(line) * coeff)
        yield from out.put(line)
    yield from out.flush()
    return 0


PER_LINE = {"sed": _sed_per_line, "awk": _awk_per_line, "seq": _seq_per_line}


def _log(lines: int = 3000) -> bytes:
    from repro.bench import access_log

    return access_log(lines, seed=3)


def _charged(script: str, per_line: bool, monkeypatch, cores: int = 4,
             faults=None, tracer=None, metrics=None):
    """Run ``script`` over a 3000-line access log with the vectored
    commands or their per-line references; everything the two must
    agree on, plus the shell for what they must not."""
    with monkeypatch.context() as patch:
        if per_line:
            for name, fn in PER_LINE.items():
                patch.setitem(base.REGISTRY, name, fn)
        shell = Shell(MachineSpec(name="m", cores=cores), faults=faults,
                      tracer=tracer, metrics=metrics, jobs=1)
        shell.fs.write_bytes("/access.log", _log())
        result = shell.run(script)
    same = (result.status, result.stdout, result.elapsed,
            shell.node.cpu_busy_time, shell.kernel.now,
            faults.ops if faults else 0, faults.trace() if faults else [])
    return same, shell


CHARGED_SCRIPTS = [
    "awk '{s+=$NF} END{print s}' access.log",
    "awk '{print $1, $NF}' access.log | wc -c",
    "sed -n 's/.*resource\\/\\([0-9]*\\) HTTP.*/\\1/p' access.log"
    " | sort -u | wc -l",
    "sed 's/GET/PUT/' access.log | head -n 3",  # SIGPIPE mid-vector
    "sed 5q access.log",
    "awk 'NR==1700{print; exit 3} /POST/{print $7}' access.log; echo $?",
    "awk 'NR==1700{exit 3}' access.log; echo $?",  # exits with charges pending
    "awk '{print $7}' access.log > a.txt & awk '{n+=$NF} END{print n}'"
    " access.log > b.txt & wait; cat a.txt b.txt | wc -c",
    "seq 30000 | sed -n 's/7$/x/p' | awk '{n++} END{print n}'",
    # the compiled record kernels (PR 18): a cut -f and a cut -c stage,
    # a two-command script, Nq and awk output across the 64 KiB flush
    "cut -d' ' -f6 access.log | sed 's/resource/r/' | sort | uniq -c",
    "awk '{print $6}' access.log | cut -c1-12 | sort -u | wc -l",
    "sed 's/GET/PUT/;s/HTTP/http/g' access.log | wc -c",
    "sed 1700q access.log | wc -l",
    "awk '$9 == 500 {print $1, $NF}' access.log",
    "awk '{print}' access.log | wc -c",  # the flush falls mid-batch
    # compiled to one function per program: FS assigned in a main rule,
    # and variables written back between two files
    "awk 'NR == 1500 {FS = \"/\"} {n += NF} END{print n, FS}' access.log",
    "awk -v x=1 '{s += x} END{print s, x}' access.log x=2 access.log",
]


class TestVectoredCpu:
    @pytest.mark.parametrize("cores", (1, 8))
    @pytest.mark.parametrize("script", CHARGED_SCRIPTS)
    def test_equals_per_line_charging(self, script, cores, monkeypatch):
        vectored, shell = _charged(script, False, monkeypatch, cores)
        per_line, ref = _charged(script, True, monkeypatch, cores)
        assert vectored == per_line  # ==, not approx: same float ops
        assert shell.kernel.dispatches < ref.kernel.dispatches

    def test_seeded_pipe_break_fires_on_the_same_op(self, monkeypatch):
        script = "sed 's/GET/PUT/' access.log | awk '{print $6}' | sort | uniq -c"

        def plan():
            return FaultPlan(seed=5, rate=0.08, kinds=("pipe-break",))

        vectored, _ = _charged(script, False, monkeypatch, faults=plan())
        per_line, _ = _charged(script, True, monkeypatch, faults=plan())
        assert vectored[6], "the schedule must fire at least once"
        assert vectored == per_line  # incl. FaultPlan op count and trace

    def test_timed_crash_lands_mid_vector(self, monkeypatch):
        from repro.vos import FaultSpec

        script = "awk '{s+=$NF} END{print s}' access.log; echo $?"

        def plan():
            return FaultPlan(specs=[FaultSpec("crash", at=0.004, proc="awk")])

        vectored, _ = _charged(script, False, monkeypatch, faults=plan())
        per_line, _ = _charged(script, True, monkeypatch, faults=plan())
        assert vectored[1] == b"137\n" and vectored[6]
        assert vectored == per_line

    def test_trace_equal_except_syscall_instants(self, monkeypatch):
        script = "awk '/POST/{print $7}' access.log | sed 's/resource/r/' | wc -l"
        events = []
        for per_line in (False, True):
            tracer = Tracer(syscall_events=True)
            _charged(script, per_line, monkeypatch, cores=1, tracer=tracer)
            events.append(chrome_events(tracer))
        calls = [[e["name"] for e in run if e.get("cat") == "syscall"]
                 for run in events]
        assert "CpuVReq" in calls[0] and "CpuVReq" not in calls[1]
        assert calls[0].count("CpuReq") < calls[1].count("CpuReq")
        rest = [[e for e in run if e.get("cat") != "syscall"]
                for run in events]
        assert rest[0] == rest[1]  # every cpu span: same start, same width

    def test_metrics_truthful(self, monkeypatch):
        script = "sed 's/GET/PUT/' access.log | awk '{n+=$NF} END{print n}'"
        regs = []
        for per_line in (False, True):
            reg = MetricsRegistry()
            _, shell = _charged(script, per_line, monkeypatch, metrics=reg)
            assert reg.sum_by_name("kernel.dispatches") == \
                shell.kernel.dispatches
            regs.append(reg)
        new, old = regs
        assert new.value("kernel.dispatches", req="CpuVReq") > 0
        assert old.value("kernel.dispatches", req="CpuVReq") == 0
        for name in ("sed", "awk"):
            assert new.value("proc.cpu_s", proc=name) == \
                old.value("proc.cpu_s", proc=name)
        bursts = [reg.histogram("cpu.burst_s") for reg in regs]
        assert bursts[0].buckets == bursts[1].buckets
        assert bursts[0].sum == bursts[1].sum
        # jash stat's dispatch column is the per-process split of the total
        column = sum(inst.sample() for name, _l, inst in new.series
                     if name == "proc.dispatches")
        assert column == new.sum_by_name("kernel.dispatches")
        assert "dispatch" in render_stat(new)

    def test_no_records_when_tracing_is_off(self, monkeypatch):
        before = Tracer.total_records
        _charged(CHARGED_SCRIPTS[0], False, monkeypatch)
        assert Tracer.total_records == before

    def test_per_record_chargers_cost_few_dispatches(self):
        shell = Shell(laptop(), jobs=1)
        result = shell.run("seq 200000 | wc -l")
        assert result.stdout == b"200000\n"
        assert shell.kernel.dispatches < 150  # was one CpuReq per number
        shell = Shell(laptop(), jobs=1)
        result = shell.run(
            "seq 20000 | sort > a; seq 10000 30000 | sort > b;"
            " comm -12 a b | wc -l; join a b | wc -l; sort -c a; echo $?")
        assert result.stdout == b"10001\n10001\n0\n"
        assert shell.kernel.dispatches < 400


def _kernel(cores: int = 2, cpu_speed: float = 1.5) -> Kernel:
    return MachineSpec(name="n", cores=cores,
                       cpu_speed=cpu_speed).make_kernel()


#: consumers a general-path run installs; each alone must make ``_solo``
#: refuse, since the solo loop tells no observer about its bursts
OBSERVED = ("tracer", "metrics", "tracer+metrics")


def _install(kernel: Kernel, observed: str) -> None:
    if "tracer" in observed:
        kernel.install_tracer(Tracer(record_events=False))
    if "metrics" in observed:
        kernel.install_metrics(MetricsRegistry())
    if observed:
        kernel._cpuv_solo = mock.Mock(
            side_effect=AssertionError("solo loop ran under an observer"))


def _replay(bursts, observed: str = "", start: float = 0.0):
    """kernel.now / busy time after one process ran ``bursts`` as a
    CpuVReq from clock ``start``: alone with nothing attached (the solo
    loop), or with the ``observed`` consumers attached (the general path)."""
    kernel = _kernel()
    kernel.now = kernel.main_node.cpu_last_update = start
    _install(kernel, observed)

    def body(proc):
        yield CpuVReq(list(bursts))
        return 0

    kernel.create_process(body)
    kernel.run()
    return kernel.now, kernel.main_node.cpu_busy_time, kernel.dispatches


def _one_by_one(bursts, start: float = 0.0):
    kernel = _kernel()
    kernel.now = kernel.main_node.cpu_last_update = start

    def body(proc):
        for seconds in bursts:
            yield CpuReq(seconds)
        return 0

    kernel.create_process(body)
    kernel.run()
    return kernel.now, kernel.main_node.cpu_busy_time


class TestCpuVReqKernel:
    @pytest.mark.parametrize("observed", OBSERVED)
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(min_value=1e-13, max_value=1e-2,
                              allow_nan=False), max_size=200),
           st.sampled_from([0.0, 0.4238, 977.5, 8000.0]))
    def test_solo_loop_equals_general_path(self, observed, bursts, start):
        # (past ~1e4 s the clock cannot resolve a 1e-12 s remainder and a
        # run of CpuReqs never ends either; the starts stay below that)
        solo = _replay(bursts, start=start)
        general = _replay(bursts, observed, start=start)
        assert solo == general
        assert solo[:2] == _one_by_one(bursts, start)
        assert solo[2] == 1

    def test_one_summed_burst_is_not_the_same_clock(self):
        # the mutation the identity tests must catch: float addition is
        # not associative, so a vector is not its sum
        bursts = [7.0e-9 * n for n in range(60, 160)] * 30
        assert _replay(bursts)[0] != _replay([sum(bursts)])[0]

    def test_transfer_landing_mid_vector_contends(self):
        from repro.distributed.cluster import Network

        ends = []
        for vectored in (True, False):
            kernel = _kernel(cores=1, cpu_speed=1.0)
            kernel.network = Network(bandwidth_bps=1e6, latency_s=0.0)

            def sender(proc):
                yield from proc.net_send("n", 3000)  # lands at 3 ms
                yield from proc.cpu(0.004)

            def worker(proc):
                if vectored:
                    yield CpuVReq([0.002] * 5)
                else:
                    for _ in range(5):
                        yield CpuReq(0.002)

            procs = [kernel.create_process(sender), kernel.create_process(worker)]
            kernel.run()
            ends.append([p.end_time for p in procs])
        assert ends[0] == ends[1]
        assert ends[0][1] > 0.0101  # shared the core from 3 ms on

    @pytest.mark.parametrize("observed", ("",) + OBSERVED,
                             ids=("alone",) + OBSERVED)
    def test_kill_mid_vector(self, observed):
        kernel = _kernel()
        _install(kernel, observed)

        def victim(proc):
            yield CpuVReq([0.1] * 10)
            return 0

        def killer(proc):
            pid = yield from proc.spawn(victim, "victim")
            yield from proc.sleep(0.35)
            yield from proc.kill(pid, 143)
            status = yield from proc.wait(pid)
            return status

        main = kernel.create_process(killer)
        assert kernel.run_until_process_done(main) == 143
        assert kernel.now == 0.35
        # 1.5x CPU: the fifth burst was 0.35 - 4 * (0.1 / 1.5) in
        assert kernel.main_node.cpu_busy_time == pytest.approx(0.35)
        assert not kernel.main_node.cpu_active

    def test_exit_with_pending_charges_runs_them_first(self):
        ends = []
        for deferred in (True, False):
            kernel = _kernel()

            def child(proc):
                for _ in range(3):
                    if deferred:
                        proc.charge(0.3)
                    else:
                        yield from proc.cpu(0.3)
                return 7
                yield  # pragma: no cover - makes the deferred form a generator

            def parent(proc):
                pid = yield from proc.spawn(child, "child")
                status = yield from proc.wait(pid)
                return status

            main = kernel.create_process(parent)
            assert kernel.run_until_process_done(main) == 7
            ends.append((kernel.now, kernel.main_node.cpu_busy_time))
        assert ends[0] == ends[1]
        assert ends[0][0] == pytest.approx(0.6)

    def test_charges_run_ahead_of_the_next_request_helper_or_raw(self):
        kernel = _kernel()
        seen = []

        def body(proc):
            proc.charge(0.3)
            proc.charge(0.0)  # like proc.cpu: nothing to charge
            yield from proc.sleep(1.0)
            seen.append(kernel.now)
            proc.charge(0.3)
            yield from proc.cpu(0.3)  # after the charge
            seen.append(kernel.now)
            proc.charge(0.3)
            yield SleepReq(1.0)  # no helper: the kernel holds it all the same
            seen.append(kernel.now)
            return 0

        proc = kernel.create_process(body)
        kernel.run()
        assert seen == [pytest.approx(1.2), pytest.approx(1.6),
                        pytest.approx(2.8)]
        assert proc.exit_status == 0 and proc.error is None
        assert kernel.dispatches == 6  # three requests, three vectors

    @pytest.mark.parametrize("b_sleeps", (False, True))
    def test_vector_end_coincident_with_another_wakeup(self, b_sleeps):
        """A's last burst and B's burst (or timer) end in the same advance,
        A's listed first; both then write the same disk.  A must reach it
        first however it charged: the held write is dispatched in the step
        that ends the vector, not one trip through the ready queue later."""
        tick = 1.0 / 1024  # exact in binary: the two ends coincide exactly
        ends = []
        for deferred in (True, False):
            kernel = _kernel(cores=2, cpu_speed=1.0)

            def a(proc):
                fd = yield from proc.open("/a", "w")
                for ticks in (1, 1, 2):  # the last one runs 2..4
                    if deferred:
                        proc.charge(ticks * tick)
                    else:
                        yield from proc.cpu(ticks * tick)
                yield from proc.write(fd, b"a" * 300_000)
                yield from proc.close(fd)
                return 0

            def b(proc):
                fd = yield from proc.open("/b", "w")
                if b_sleeps:
                    yield from proc.sleep(4 * tick)
                else:
                    yield from proc.cpu(3 * tick)
                    yield from proc.cpu(1 * tick)  # 3..4, listed after A's
                yield from proc.write(fd, b"b" * 200_000)
                yield from proc.close(fd)
                return 0

            procs = [kernel.create_process(a, "a"),
                     kernel.create_process(b, "b")]
            kernel.run()
            assert kernel.now > 4 * tick
            ends.append([p.end_time for p in procs] + [kernel.now])
        assert ends[0] == ends[1]
        assert ends[0][0] != ends[0][1]


# ---------------------------------------------------------------------------
# 8. Record kernels: compiled awk / sed / cut vs the loops they replaced
# ---------------------------------------------------------------------------


def _sed_address_per_line(proc, argv):
    """``sed`` with ``/re/d``, ``/re/p`` and ``Nq`` as its per-line
    ``cmds`` loop ran them, one ``proc.cpu`` per line (``_sed_per_line``
    above, kept unmodified, only knows ``s`` and ``q``)."""
    auto_print = argv[0] != "-n"
    script, *files = argv[0 if auto_print else 1:]
    cmds = filters.parse_sed_script(script)
    coeff = base.cpu_coeff("sed")
    fd, _ = yield from base.open_input(proc, files[0] if files else "-")
    stream = base.LineStream(proc, fd)
    out = base.OutBuf(proc, 1)
    lineno = 0
    quit_now = False
    while not quit_now:
        line = yield from stream.next_line()
        if line is None:
            break
        yield from proc.cpu(len(line) * coeff)
        lineno += 1
        body = line.rstrip(b"\n")
        deleted = False
        for cmd in cmds:
            if cmd.kind == "q" and lineno == cmd.nth:
                quit_now = True
                break
            if cmd.kind == "d" and cmd.regex.search(body):
                deleted = True
                break
            if cmd.kind == "p" and cmd.regex.search(body):
                yield from out.put(body + b"\n")
            if cmd.kind == "s":
                body, n = cmd.substitute(body)
                if n and cmd.print_:
                    yield from out.put(body + b"\n")
        if auto_print and not deleted:
            yield from out.put(body + b"\n")
    yield from out.flush()
    return 0


def _cut_per_batch(proc, argv):
    """``cut`` as it ran before LIST was compiled: range, extend and join
    rebuilt for every line (argv: ``-c LIST`` or ``-d D -f LIST``, then
    ``[FILE]``; cut always charged per batch)."""
    args = base.parse_args("cut", argv)
    opts, operands = args.opts, args.operands
    ranges = filters.parse_cut_list(opts.get("c") or opts.get("f"))
    delim = opts.get("d", "\t").encode()
    coeff = base.cpu_coeff("cut")
    fd, _ = yield from base.open_input(proc, operands[0] if operands else "-")
    stream = base.LineStream(proc, fd)
    out = base.OutBuf(proc, 1)
    while True:
        batch = yield from stream.next_batch()
        if batch is None:
            break
        if not batch:
            continue
        yield from proc.cpu(sum(len(line) for line in batch) * coeff)
        results = []
        for line in batch:
            body = line.rstrip(b"\n")
            if "c" in opts:
                picked = b"".join(body[lo - 1 : hi] for lo, hi in ranges)
            elif delim not in body:
                picked = body
            else:
                fields = body.split(delim)
                picked_fields = []
                for lo, hi in ranges:
                    picked_fields.extend(fields[lo - 1 : hi])
                picked = delim.join(picked_fields)
            results.append(picked + b"\n")
        for line in results:  # put_lines: one flush test per batch
            out._chunks.append(line)
            out._size += len(line)
        if out._size >= out.threshold:
            yield from out.flush()
    yield from out.flush()
    return 0


RECORD_KERNEL_SCRIPTS = [
    "sed -n '/ 500 /p' access.log | wc -l",
    "sed '/ 404 /d' access.log | head -n 3",  # SIGPIPE mid-batch
    "sed '/ 404 /d;s/GET/PUT/p;2500q' access.log | wc -c",
    "sed -n '/POST/p;/ 500 /p' access.log | sort | uniq -c | wc -l",
    "cut -d' ' -f6 access.log | sort | uniq -c | sort -rn | head -n 3",
    "cut -d' ' -f1,6-7 access.log | wc -c",
    "cut -c1-20 access.log | sort -u | wc -l",
    "cut -c1-3,9- access.log | sed 's/GET/PUT/' | head -n 700 | wc -c",
    "grep ' 500 ' access.log | cut -d' ' -f1 | sort | uniq -c | wc -l",
]


class TestRecordKernels:
    @pytest.mark.parametrize("cores", (1, 8))
    @pytest.mark.parametrize("script", RECORD_KERNEL_SCRIPTS)
    def test_equals_the_loops_they_replaced(self, script, cores, monkeypatch):
        monkeypatch.setitem(PER_LINE, "sed", _sed_address_per_line)
        monkeypatch.setitem(PER_LINE, "cut", _cut_per_batch)
        compiled, _ = _charged(script, False, monkeypatch, cores)
        looped, _ = _charged(script, True, monkeypatch, cores)
        assert compiled[1]
        assert compiled == looped  # ==: same charges, same write sizes

    def test_seeded_pipe_break_fires_on_the_same_op(self, monkeypatch):
        monkeypatch.setitem(PER_LINE, "sed", _sed_address_per_line)
        monkeypatch.setitem(PER_LINE, "cut", _cut_per_batch)
        script = ("sed '/ 404 /d' access.log | cut -d' ' -f1,6 |"
                  " awk '{print $2}' | sort | uniq -c")

        def plan():
            return FaultPlan(seed=5, rate=0.08, kinds=("pipe-break",))

        compiled, _ = _charged(script, False, monkeypatch, faults=plan())
        looped, _ = _charged(script, True, monkeypatch, faults=plan())
        assert compiled[6], "the schedule must fire at least once"
        assert compiled == looped

    def test_the_flush_stays_on_the_line_that_trips_it(self, monkeypatch):
        """Every write of ``sed`` and ``awk`` lands when, and with the
        size, the per-line ``put`` gave it (the pipe-depth counter moves
        by the threshold line's buffer, not by the batch's)."""
        depths = []
        for per_line in (False, True):
            tracer = Tracer(syscall_events=True)
            _charged("sed 's/GET/PUT/' access.log | awk '{print}' | wc -c",
                     per_line, monkeypatch, cores=1, tracer=tracer)
            depths.append([(e["name"], e["ts"], e["args"])
                           for e in chrome_events(tracer)
                           if e.get("cat") == "pipe" and "args" in e])
        assert depths[0] == depths[1] and len(depths[0]) > 16

    def test_sed_compiles_its_script_once(self):
        first = filters.parse_sed_script("s/a/b/;/x/d;3q")
        assert filters.parse_sed_script("s/a/b/;/x/d;3q") is first
        assert [cmd.kind for cmd in first] == ["s", "d", "q"]
        assert first[0].substitute(b"banana") == (b"bbnana", 1)


class TestLineStreamBytes:
    @settings(deadline=None, max_examples=300)
    @given(data=st.lists(st.sampled_from([b"a", b"bc", b"\r", b"\r\n", b"\n",
                                          b"\n\n", b"\x0b", b"\x0c",
                                          b"\x1c", b"\x85", b"\xff"]),
                         max_size=40).map(b"".join),
           cuts=st.lists(st.integers(min_value=1, max_value=17), min_size=1,
                         max_size=8),
           call=st.sampled_from(["next_line", "next_batch"]))
    def test_lines_are_bytes_split_on_newline_only(self, data, cuts, call):
        """Any byte string, cut into arbitrary reads, comes out as
        ``data.split(b"\\n")`` re-terminated; every line is ``bytes``."""
        *complete, tail = data.split(b"\n")
        expected = [line + b"\n" for line in complete] + ([tail] if tail else [])

        class Reads(_ScriptedReads):
            def read(self, fd, nbytes):
                size = cuts[self.reads % len(cuts)]
                return super().read(fd, size)

        stream = base.LineStream(Reads(data), 0)
        got = []
        while True:
            item = _drive(getattr(stream, call)())
            if item is None:
                break
            got.extend(item if call == "next_batch" else [item])
        assert got == expected
        assert all(type(line) is bytes for line in got)

    def test_the_carried_tail_is_not_reparsed_per_read(self):
        # a long newline-free stream: the carry is extended, not rebuilt
        stream = base.LineStream(_ScriptedReads(b"x" * 4000 + b"\nend"), 0, 7)
        assert _drive(stream.next_line()) == b"x" * 4000 + b"\n"
        assert _drive(stream.next_line()) == b"end"
        assert _drive(stream.next_line()) is None


class _RecordedWrites:
    """Stands in for a Process under an OutBuf: records (fd, bytes)."""

    def __init__(self):
        self.writes = []

    def writev(self, fd, parts):
        self.writes.append((fd, b"".join(parts)))
        return len(self.writes[-1][1])
        yield  # a sub-generator, like Process.writev


class TestOutBufEntryPoints:
    @settings(deadline=None, max_examples=200)
    @given(ops=st.lists(st.tuples(
               st.sampled_from(["add", "put", "put_lines", "put_run"]),
               st.sampled_from([b"a", b"bcd", b"0123456789", b"x" * 37]),
               st.integers(min_value=1, max_value=9)), max_size=60),
           threshold=st.integers(min_value=1, max_value=64))
    def test_same_writes_as_put_alone(self, ops, threshold):
        """``add`` / ``put`` / ``put_lines`` / ``put_run`` interleaved
        write what the equivalent ``put`` calls write: the same
        ``(fd, total bytes)`` sequence, flush for flush — given that
        ``put_lines`` tests the threshold once, after its last line."""
        mixed, plain = _RecordedWrites(), _RecordedWrites()
        out = base.OutBuf(mixed, 1, threshold)
        ref = base.OutBuf(plain, 1, threshold)
        for op, data, count in ops:
            if op == "add":
                if out.add(data):
                    _drive_all(out.flush())
                _drive_all(ref.put(data))
            elif op == "put":
                _drive_all(out.put(data))
                _drive_all(ref.put(data))
            elif op == "put_run":
                _drive_all(out.put_run(data, count))
                for _ in range(count):
                    _drive_all(ref.put(data))
            else:
                _drive_all(out.put_lines([data] * count))
                ref._chunks.extend([data] * (count - 1))  # no flush test
                ref._size += len(data) * (count - 1)
                _drive_all(ref.put(data))
        _drive_all(out.flush())
        _drive_all(ref.flush())
        assert mixed.writes == plain.writes

    def test_flush_joins_many_small_parts_only(self):
        proc = mock.Mock()
        proc.writev = mock.Mock(return_value=iter(()))
        out = base.OutBuf(proc, 1)
        big = [b"x" * 30000, b"y" * 30000]
        _drive_all(out.put_lines(list(big)))
        _drive_all(out.flush())
        assert proc.writev.call_args[0][1] == big  # zero-copy: as given
        _drive_all(out.put_lines([b"line\n"] * 500))
        _drive_all(out.flush())
        assert proc.writev.call_args[0][1] == [b"line\n" * 500]  # one memcpy


def _drive_all(gen):
    for _ in gen:
        raise AssertionError("recorded writes never block")
