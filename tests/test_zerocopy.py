"""Zero-copy data plane tests (DESIGN.md §11).

Three layers of guarantees:

1. The chunk-deque pipe buffer preserves the byte granularity of the old
   flat-bytearray API exactly (``pull`` returns ``min(nbytes, size)``),
   while moving whole producer chunks by reference.
2. The kernel splice fast path and the vectorized coreutils kernels are
   *observably identical* to the legacy per-chunk/per-line loops: same
   bytes, same exit status, and — because they replay the same virtual
   syscall sequence — the same virtual elapsed time.
3. FdTable keeps POSIX lowest-free-fd semantics under its O(log n)
   free-list.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.shell import Shell
from repro.vos import BrokenPipe, DiskSpec, Kernel, Node, make_pipe
from repro.vos.machines import laptop
from repro.vos.pipes import Pipe
from repro.vos.process import CHUNK, FdTable

import repro.commands.base as base
import repro.commands.filters as filters
import repro.commands.sorting as sorting


# ---------------------------------------------------------------------------
# 1. Pipe chunk buffer
# ---------------------------------------------------------------------------


class TestPipeChunkBuffer:
    def test_pull_exact_granularity(self):
        pipe = Pipe(capacity=1 << 20)
        pipe.readers = pipe.writers = 1
        for chunk in (b"aaaa", b"bb", b"cccccc"):
            assert pipe.push(chunk) == len(chunk)
        assert pipe.size == 12
        # a pull may span chunk boundaries but returns exactly min(n, size)
        assert pipe.pull(5) == b"aaaab"
        assert pipe.pull(100) == b"bcccccc"
        assert pipe.pull(10) == b""
        assert pipe.size == 0

    def test_push_splits_at_capacity_with_memoryview(self):
        pipe = Pipe(capacity=10)
        pipe.readers = pipe.writers = 1
        assert pipe.push(b"0123456789abcdef") == 10  # only space() accepted
        assert pipe.size == 10
        assert pipe.push(b"x") == 0  # full
        assert pipe.pull(16) == b"0123456789"

    def test_pull_chunks_returns_whole_chunks_by_reference(self):
        pipe = Pipe(capacity=1 << 20)
        pipe.readers = pipe.writers = 1
        first, second = b"hello", b"world!"
        pipe.push(first)
        pipe.push(second)
        out = pipe.pull_chunks(5)
        assert len(out) == 1 and out[0] is first  # zero-copy: same object
        # straddling pull: whole chunk impossible, final chunk is a view
        out = pipe.pull_chunks(3)
        assert bytes(out[0]) == b"wor" and isinstance(out[0], memoryview)
        assert pipe.pull(10) == b"ld!"

    def test_push_vector_remainder_is_not_copied(self):
        pipe = Pipe(capacity=8)
        pipe.readers = pipe.writers = 1
        accepted, rest = pipe.push_vector([b"abcd", b"efgh", b"ijkl"])
        assert accepted == 8
        assert [bytes(r) for r in rest] == [b"ijkl"]
        assert pipe.pull(8) == b"abcdefgh"

    def test_eof_short_final_chunk(self):
        pipe = Pipe(capacity=1 << 20)
        pipe.readers = pipe.writers = 1
        pipe.push(b"tail")
        pipe.writers = 0
        assert pipe.at_eof is False  # data still buffered
        assert pipe.pull(CHUNK) == b"tail"  # short read, not an error
        assert pipe.at_eof is True

    def test_accounting_peak_and_total(self):
        pipe = Pipe(capacity=1 << 20)
        pipe.readers = pipe.writers = 1
        pipe.push(b"x" * 100)
        pipe.pull(60)
        pipe.push(b"y" * 30)
        assert pipe.total_bytes == 130  # every byte ever pushed
        assert pipe.peak_bytes == 100  # high-water mark, not current size
        assert pipe.size == 70

    def test_push_to_readerless_pipe_raises(self):
        pipe = Pipe(capacity=64)
        pipe.writers = 1
        with pytest.raises(BrokenPipe):
            pipe.push(b"data")
        with pytest.raises(BrokenPipe):
            pipe.push_vector([b"data"])


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


def _run_with_splice(script: str, enabled: bool):
    data = bytes(random.Random(5).randbytes(300_000))
    prev = base.splice_enabled()
    base.set_splice_enabled(enabled)
    try:
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
    finally:
        base.set_splice_enabled(prev)


class TestSpliceEquivalence:
    @pytest.mark.parametrize("script", SPLICE_SCRIPTS)
    def test_identical_bytes_and_virtual_time(self, script):
        fast = _run_with_splice(script, True)
        slow = _run_with_splice(script, False)
        assert fast == slow  # status, stdout, stderr, kernel.now, files

    def test_toggle_roundtrip(self):
        prev = base.splice_enabled()
        try:
            base.set_splice_enabled(False)
            assert not base.splice_enabled()
            base.set_splice_enabled(True)
            assert base.splice_enabled()
        finally:
            base.set_splice_enabled(prev)

    def test_sigpipe_terminates_splice_cleanly(self):
        shell = Shell(laptop())
        shell.fs.write_bytes("/data/in.bin", b"z" * 500_000)
        # head exits early; the mid-splice writer must die on SIGPIPE and
        # the pipeline still completes with head's status
        result = shell.run("cat /data/in.bin | head -c 10 | wc -c")
        assert result.status == 0
        assert result.stdout.strip() == b"10"


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

    def test_uniq_fast_path_matches_line_loop(self, monkeypatch):
        cases = [
            b"a\na\nb\nb\nb\nc\n",
            b"q" * (CHUNK - 1) + b"\n" + b"q" * (CHUNK - 1) + b"\n",  # run
            b"\n\n\nx\n\n",  # empty-line groups
            b"last no newline",
        ]
        for data in cases:
            fast = _run_script("uniq /in.txt", {"/in.txt": data})

            def forced(proc, fd, coeff):
                return (yield from sorting._uniq_lines(
                    proc, fd, False, False, False, coeff))

            monkeypatch.setattr(sorting, "_uniq_plain", forced)
            slow = _run_script("uniq /in.txt", {"/in.txt": data})
            monkeypatch.undo()
            assert fast == slow  # bytes AND virtual time

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

    def test_skip_run_takes_only_identical_buffered_lines(self):
        proc = _ScriptedReads(b"a\na\na\nb\nb\na")
        stream = base.LineStream(proc, 0, 9)  # "a\na\na\nb\nb" + "\na"
        assert _drive(stream.next_line()) == b"a\n"
        assert stream.skip_run(b"a\n") == 2
        assert stream.skip_run(b"a\n") == 0  # next buffered line is b
        assert _drive(stream.next_line()) == b"b\n"
        assert stream.skip_run(b"b\n") == 0  # second b not complete yet
        assert proc.reads == 1  # skip_run never reads
        assert _drive(stream.next_line()) == b"b\n"
        assert _drive(stream.next_batch()) == [b"a"]
        assert _drive(stream.next_batch()) is None
