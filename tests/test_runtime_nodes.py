"""Internal dataflow-node tests: the range-reader partition protocol,
round-robin split, merges, eager buffers — with hypothesis properties
over arbitrary byte-offset splits."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.compiler.runtime import (
    concat_merge_body,
    eager_body,
    file_read_body,
    range_read_body,
    rr_split_body,
    sort_kway_body,
    sum_merge_body,
)
from repro import FaultPlan, Tracer
from repro.vos.devices import DiskSpec
from repro.vos.handles import Collector, StringSource, make_pipe
from repro.vos.kernel import Kernel, Node

from .conftest import with_copy_loop


def fast_kernel():
    return Kernel(Node("t", 8, 1e6,
                       DiskSpec(throughput_bps=1e12, base_iops=1e9,
                                burst_iops=1e9)))


def run_source_node(body_fn, files=None, extra_fds=None):
    """Run a node body with a Collector on fd 1; returns its bytes."""
    kernel = fast_kernel()
    for path, data in (files or {}).items():
        kernel.main_node.fs.write_bytes(path, data)
    out = Collector()
    fds = {1: out}
    fds.update(extra_fds or {})
    proc = kernel.create_process(body_fn, fds=fds)
    status = kernel.run_until_process_done(proc)
    assert status == 0
    return out.getvalue()


class TestRangeReader:
    DATA = b"alpha\nbeta\ngamma\ndelta\nepsilon\n"

    def test_full_range(self):
        out = run_source_node(
            range_read_body([("/f", 0, len(self.DATA))]),
            files={"/f": self.DATA},
        )
        assert out == self.DATA

    def test_two_way_split_partitions(self):
        mid = 13  # mid-line split
        a = run_source_node(range_read_body([("/f", 0, mid)]),
                            files={"/f": self.DATA})
        b = run_source_node(range_read_body([("/f", mid, len(self.DATA))]),
                            files={"/f": self.DATA})
        assert a + b == self.DATA

    def test_boundary_exactly_after_newline(self):
        # byte 6 is the start of "beta\n"
        a = run_source_node(range_read_body([("/f", 0, 6)]),
                            files={"/f": self.DATA})
        b = run_source_node(range_read_body([("/f", 6, len(self.DATA))]),
                            files={"/f": self.DATA})
        assert a == b"alpha\n"
        assert a + b == self.DATA

    def test_empty_range_at_eof(self):
        n = len(self.DATA)
        out = run_source_node(range_read_body([("/f", n, n)]),
                              files={"/f": self.DATA})
        assert out == b""

    def test_multiple_segments(self):
        out = run_source_node(
            range_read_body([("/a", 0, 2), ("/b", 0, 2)]),
            files={"/a": b"a\n", "/b": b"b\n"},
        )
        assert out == b"a\nb\n"


@given(
    st.lists(st.integers(0, 60), min_size=0, max_size=3),
    st.lists(st.text(alphabet="xyz", min_size=0, max_size=7),
             min_size=1, max_size=12),
)
@settings(max_examples=120, deadline=None)
def test_range_reader_partition_property(cuts, lines):
    """Any set of byte offsets partitions the file into exact lines:
    concatenating the readers' outputs reproduces the input, with no
    line duplicated or lost."""
    data = ("".join(line + "\n" for line in lines)).encode()
    offsets = sorted({0, len(data)} | {min(c, len(data)) for c in cuts})
    pieces = []
    for start, end in zip(offsets, offsets[1:]):
        pieces.append(run_source_node(
            range_read_body([("/f", start, end)]), files={"/f": data}
        ))
    assert b"".join(pieces) == data


class _RecordingProc:
    """Stands in for a Process under a node body: ``read`` hands out
    ``data`` in ``piece``-byte reads; reads, cpu charges and writes are
    logged (a full block is written before the next read)."""

    def __init__(self, data: bytes, piece: int):
        self.data, self.piece = data, piece
        self.ops: list[tuple] = []

    def read(self, fd, nbytes):
        out, self.data = self.data[:self.piece], self.data[self.piece:]
        self.ops.append(("read", len(out)))
        return out
        yield  # a sub-generator, like Process.read

    def cpu(self, seconds):
        self.ops.append(("cpu", seconds))
        yield from ()

    def write(self, fd, data):
        self.ops.append((fd, bytes(data)))
        yield from ()


def _rr_split_per_line(out_fds, block_lines):
    """rr_split_body as it was: one append and one test per line."""
    from repro.commands.base import LineStream
    from repro.compiler.runtime import RUNTIME_COEFF

    def body(proc):
        yield from proc.cpu(0.0005)
        stream = LineStream(proc, 0)
        target = 0
        block = []
        while True:
            batch = yield from stream.next_batch()
            if batch is None:
                break
            for line in batch:
                block.append(line)
                if len(block) >= block_lines:
                    data = b"".join(block)
                    yield from proc.cpu(len(data) * RUNTIME_COEFF)
                    yield from proc.write(out_fds[target], data)
                    target = (target + 1) % len(out_fds)
                    block = []
        if block:
            data = b"".join(block)
            yield from proc.cpu(len(data) * RUNTIME_COEFF)
            yield from proc.write(out_fds[target], data)
        return 0

    return body


class TestRrSplitDealsBySlicing:
    DATA = b"".join(b"w%d\n" % (i * i) for i in range(4500)) + b"tail"

    @pytest.mark.parametrize("block_lines", [1, 7, 2000])
    @pytest.mark.parametrize("piece", [5, 64, 4096, 1 << 16])
    @pytest.mark.parametrize("k", [1, 3])
    def test_same_cpu_and_write_sequence_as_per_line(self, block_lines,
                                                     piece, k):
        """Reads of ``piece`` bytes end batches mid-block (and mid-line);
        the blocks, their targets and their charges must not move."""
        logs = []
        for make in (rr_split_body, _rr_split_per_line):
            proc = _RecordingProc(self.DATA, piece)
            body = make(list(range(3, 3 + k)), block_lines)(proc)
            with pytest.raises(StopIteration) as done:
                next(body)  # recorded ops never block
            assert done.value.value == 0
            logs.append(proc.ops)
        assert logs[0] == logs[1]
        writes = [op for op in logs[0] if op[0] not in ("cpu", "read")]
        assert b"".join(data for _, data in writes) == self.DATA
        assert [fd for fd, _ in writes] == [3 + i % k
                                            for i in range(len(writes))]


class TestSplitsAndMerges:
    def run_split_merge(self, data, k, block_lines=2):
        """rr_split into k pipes, then sort_kway after per-branch sort —
        exercised via raw bodies."""
        kernel = fast_kernel()
        out = Collector()
        pipes = [make_pipe() for _ in range(k)]

        def main(proc):
            split_fds = {0: StringSource(data)}
            for i, (_r, w) in enumerate(pipes):
                split_fds[3 + i] = w
            split_pid = yield from proc.spawn(
                rr_split_body(list(range(3, 3 + k)), block_lines),
                fds=split_fds,
            )
            merge_fds = {1: out}
            for i, (r, _w) in enumerate(pipes):
                merge_fds[3 + i] = r
            merge_pid = yield from proc.spawn(
                concat_merge_body(list(range(3, 3 + k))), fds=merge_fds
            )
            yield from proc.wait(split_pid)
            yield from proc.wait(merge_pid)
            return 0

        root = kernel.create_process(main)
        assert kernel.run_until_process_done(root) == 0
        return out.getvalue()

    def test_rr_split_concat_preserves_multiset(self):
        data = b"".join(b"line%d\n" % i for i in range(20))
        merged = self.run_split_merge(data, 3)
        assert sorted(merged.splitlines()) == sorted(data.splitlines())

    def test_single_output_passthrough(self):
        data = b"a\nb\nc\n"
        assert self.run_split_merge(data, 1) == data

    def test_sum_merge(self):
        out = run_source_node(
            sum_merge_body([3, 4]),
            extra_fds={3: StringSource(b"3 10\n"), 4: StringSource(b"4 20\n")},
        )
        assert out == b"7 30\n"

    def test_sum_merge_ignores_non_numeric(self):
        out = run_source_node(
            sum_merge_body([3]),
            extra_fds={3: StringSource(b"5 total\n")},
        )
        assert out.split()[0] == b"5"

    def test_sort_kway_flags(self):
        out = run_source_node(
            sort_kway_body([3, 4], ["sort", "-m", "-rn"]),
            extra_fds={3: StringSource(b"9\n5\n1\n"),
                       4: StringSource(b"8\n2\n")},
        )
        assert out == b"9\n8\n5\n2\n1\n"

    def test_eager_disk_round_trip(self):
        data = b"payload\n" * 100
        out = run_source_node(
            eager_body("disk", "/tmp/eg.1"),
            extra_fds={0: StringSource(data)},
        )
        assert out == data

    def test_eager_disk_cleans_temp(self):
        kernel = fast_kernel()
        out = Collector()
        proc = kernel.create_process(
            eager_body("disk", "/tmp/eg.3"),
            fds={0: StringSource(b"x\n"), 1: out},
        )
        kernel.run_until_process_done(proc)
        assert not kernel.main_node.fs.exists("/tmp/eg.3")

    def test_file_read_missing(self):
        kernel = fast_kernel()
        err = Collector()
        proc = kernel.create_process(
            file_read_body(["/gone"]), fds={1: Collector(), 2: err}
        )
        status = kernel.run_until_process_done(proc)
        assert status == 1
        assert b"no such file" in err.getvalue()


def run_copy_node(body, files=None, sources=None):
    """A relay-built node writing through a 4 KiB pipe to a slow reader,
    on a machine whose CPU and disk cost time, under a tracer and an
    (empty) fault plan; returns all that the kernel pump behind ``relay``
    and the reference copy loop must agree on."""
    kernel = Kernel(Node("t", 2, 1.0, DiskSpec(
        throughput_bps=100e6, base_iops=1000, burst_iops=1000)))
    tracer, plan = Tracer(), FaultPlan()
    kernel.install_tracer(tracer)
    kernel.faults = plan
    for path, data in (files or {}).items():
        kernel.main_node.fs.write_bytes(path, data)
    reader, writer = make_pipe(capacity=4096)
    got = []

    def sink(proc):
        while True:
            data = yield from proc.read(0, 1000)
            if not data:
                return 0
            yield from proc.cpu(len(data) * 5e-9)
            got.append(data)

    def main(proc):
        fds = {fd: StringSource(data) for fd, data in (sources or {}).items()}
        node = yield from proc.spawn(body, name="node",
                                     fds={1: writer, **fds})
        yield from proc.spawn(sink, name="sink", fds={0: reader})
        return (yield from proc.wait(node))

    root = kernel.create_process(main)
    status = kernel.run_until_process_done(root)
    kernel.run()  # let the sink drain
    records = [(r.cat, r.name, r.ph, r.ts, r.dur, r.pid, r.args)
               for r in tracer.records if r.cat in ("pipe", "disk", "cpu")]
    return status, b"".join(got), repr(kernel.now), plan.ops, records


BIG, SMALL = bytes(range(256)) * 600, b"tail without newline"  # 150 KB, 20 B


class TestRelayIsOnePump:
    """``relay`` is one SpliceReq; the nodes built on it must be what they
    were when it was a Python loop: same bytes, same virtual time, same
    fault-plan op count, same pipe, disk and CPU trace records."""

    CASES = {
        "file_read": (lambda: file_read_body(["/a", "/b", "/a"]),
                      dict(files={"/a": BIG, "/b": SMALL})),
        "concat_merge": (lambda: concat_merge_body([3, 4, 5]),
                         dict(sources={3: BIG, 4: b"", 5: SMALL})),
        "eager_disk": (lambda: eager_body("disk", "/tmp/eg.4"),
                       dict(sources={0: BIG + SMALL})),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_node_equals_reference_loop(self, case):
        make_body, inputs = self.CASES[case]
        pump = run_copy_node(make_body(), **inputs)
        loop = run_copy_node(with_copy_loop(make_body()), **inputs)
        status, out, _now, ops, records = pump
        assert status == 0
        assert out == {"file_read": BIG + SMALL + BIG,
                       "concat_merge": BIG + SMALL,
                       "eager_disk": BIG + SMALL}[case]
        assert ops > 0 and records
        assert pump == loop


@given(st.lists(st.sampled_from(["aa", "bb", "cc", "dd"]),
                min_size=0, max_size=40),
       st.integers(2, 5))
@settings(max_examples=60, deadline=None)
def test_rr_split_sorted_merge_equals_sort(lines, k):
    """Property: rr-split + per-branch identity + k-way merge of sorted
    branches == sorting everything (the compiler's core soundness law,
    checked at the node level)."""
    data = ("".join(line + "\n" for line in lines)).encode()
    kernel = fast_kernel()
    out = Collector()
    pipes = [make_pipe() for _ in range(k)]
    sorted_pipes = [make_pipe() for _ in range(k)]

    from repro.commands.base import lookup

    def main(proc):
        split_fds = {0: StringSource(data)}
        for i, (_r, w) in enumerate(pipes):
            split_fds[3 + i] = w
        pids = [(yield from proc.spawn(
            rr_split_body(list(range(3, 3 + k)), block_lines=2),
            fds=split_fds))]
        sort_fn = lookup("sort")
        for i in range(k):
            def sort_body(child, i=i, fn=sort_fn):
                return (yield from fn(child, []))
            pids.append((yield from proc.spawn(
                sort_body,
                fds={0: pipes[i][0], 1: sorted_pipes[i][1]},
            )))
        merge_fds = {1: out}
        for i, (r, _w) in enumerate(sorted_pipes):
            merge_fds[3 + i] = r
        pids.append((yield from proc.spawn(
            sort_kway_body(list(range(3, 3 + k)), ["sort", "-m"]),
            fds=merge_fds)))
        for pid in pids:
            yield from proc.wait(pid)
        return 0

    root = kernel.create_process(main)
    assert kernel.run_until_process_done(root) == 0
    expected = b"".join(sorted(line.encode() + b"\n" for line in lines))
    assert out.getvalue() == expected
