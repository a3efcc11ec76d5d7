"""Virtual OS tests: filesystem, kernel scheduling, device timing,
pipes/backpressure, burst credits — the resource model that makes
Figure 1 reproducible."""

import pytest

from repro.vos import (
    BrokenPipe,
    Collector,
    DiskSpec,
    FileNotFound,
    FileSystem,
    Kernel,
    KernelStall,
    Node,
    NullHandle,
    SIGPIPE_STATUS,
    StringSource,
    VosError,
    gp2_spec,
    gp3_spec,
    make_pipe,
    normalize,
)
from repro.vos.machines import (
    aws_c5_2xlarge_gp2,
    aws_c5_2xlarge_gp3,
    laptop,
    profile,
)


class TestNormalize:
    @pytest.mark.parametrize("path,cwd,expected", [
        ("/a/b", "/", "/a/b"),
        ("b", "/a", "/a/b"),
        ("../x", "/a/b", "/a/x"),
        ("./x", "/a", "/a/x"),
        ("a//b///c", "/", "/a/b/c"),
        ("..", "/", "/"),
        ("/", "/", "/"),
        ("a/./b/../c", "/", "/a/c"),
    ])
    def test_cases(self, path, cwd, expected):
        assert normalize(path, cwd) == expected


class TestFileSystem:
    def test_create_read(self):
        fs = FileSystem()
        fs.write_bytes("/x/y", b"data")
        assert fs.read_bytes("/x/y") == b"data"
        assert fs.is_dir("/x")

    def test_missing_raises(self):
        with pytest.raises(FileNotFound):
            FileSystem().read_bytes("/nope")

    def test_listdir(self):
        fs = FileSystem()
        fs.write_bytes("/d/a", b"")
        fs.write_bytes("/d/b", b"")
        fs.write_bytes("/d/sub/c", b"")
        assert fs.listdir("/d") == ["a", "b", "sub"]

    def test_unlink(self):
        fs = FileSystem()
        fs.write_bytes("/f", b"x")
        fs.unlink("/f")
        assert not fs.exists("/f")

    def test_rename(self):
        fs = FileSystem()
        fs.write_bytes("/old", b"v")
        fs.rename("/old", "/new")
        assert fs.read_bytes("/new") == b"v"
        assert not fs.exists("/old")

    def test_truncate_on_open_w(self):
        fs = FileSystem()
        fs.write_bytes("/f", b"long content")
        fs.open_node("/f", create=True, truncate=True)
        assert fs.size("/f") == 0


def _kernel(spec=None, cores=4):
    disk = spec or DiskSpec(throughput_bps=100e6, base_iops=1000,
                            burst_iops=1000)
    return Kernel(Node("n0", cores, 1.0, disk))


class TestCpuScheduling:
    def test_single_burst_duration(self):
        kernel = _kernel()

        def body(proc):
            yield from proc.cpu(2.0)
            return 0

        root = kernel.create_process(body)
        kernel.run_until_process_done(root)
        assert kernel.now == pytest.approx(2.0)

    def test_parallel_within_cores(self):
        kernel = _kernel(cores=4)

        def worker(proc):
            yield from proc.cpu(1.0)
            return 0

        def main(proc):
            pids = []
            for _ in range(4):
                pids.append((yield from proc.spawn(worker)))
            for pid in pids:
                yield from proc.wait(pid)
            return 0

        root = kernel.create_process(main)
        kernel.run_until_process_done(root)
        assert kernel.now == pytest.approx(1.0)

    def test_oversubscription_time_shares(self):
        kernel = _kernel(cores=2)

        def worker(proc):
            yield from proc.cpu(1.0)
            return 0

        def main(proc):
            pids = []
            for _ in range(4):
                pids.append((yield from proc.spawn(worker)))
            for pid in pids:
                yield from proc.wait(pid)
            return 0

        root = kernel.create_process(main)
        kernel.run_until_process_done(root)
        # 4 seconds of work on 2 cores
        assert kernel.now == pytest.approx(2.0)

    def test_cpu_speed_scaling(self):
        fast = Kernel(Node("n", 1, 2.0, DiskSpec()))

        def body(proc):
            yield from proc.cpu(1.0)
            return 0

        root = fast.create_process(body)
        fast.run_until_process_done(root)
        assert fast.now == pytest.approx(0.5)


class TestDiskTiming:
    def test_throughput_bound(self):
        kernel = _kernel(DiskSpec(throughput_bps=10e6, base_iops=1e9,
                                  burst_iops=1e9))
        kernel.main_node.fs.write_bytes("/f", b"x" * 10_000_000)

        def body(proc):
            fd = yield from proc.open("/f", "r")
            yield from proc.read_all(fd)
            return 0

        root = kernel.create_process(body)
        kernel.run_until_process_done(root)
        assert kernel.now == pytest.approx(1.0, rel=0.05)

    def test_iops_bound(self):
        # read_all issues 64 KiB requests: 1 MiB -> 16 requests, each at
        # least one op (a syscall is at least one IO), at 4 ops/s -> 4 s
        kernel = _kernel(DiskSpec(throughput_bps=1e12, base_iops=4,
                                  burst_iops=4))
        kernel.main_node.fs.write_bytes("/f", b"x" * (1 << 20))

        def body(proc):
            fd = yield from proc.open("/f", "r")
            yield from proc.read_all(fd)
            return 0

        root = kernel.create_process(body)
        kernel.run_until_process_done(root)
        assert kernel.now == pytest.approx(4.0, rel=0.1)

    def test_burst_credits_deplete(self):
        # gp2-style: 10 burst ops then base 1 op/s
        spec = DiskSpec(throughput_bps=1e12, base_iops=1.0, burst_iops=100.0,
                        burst_credit_ops=10.0, refill_ops_per_s=1.0)
        kernel = _kernel(spec)
        kernel.main_node.fs.write_bytes("/f", b"x" * (30 * 128 * 1024))

        def body(proc):
            fd = yield from proc.open("/f", "r")
            yield from proc.read_all(fd)
            return 0

        root = kernel.create_process(body)
        kernel.run_until_process_done(root)
        # 30 ops: ~10 at burst (fast) + ~20 at ~base rate (slow)
        assert kernel.now > 5.0

    def test_parallel_streams_shrink_requests(self):
        spec = DiskSpec(throughput_bps=1e12, base_iops=1000, burst_iops=1000,
                        request_bytes=128 * 1024, min_request_bytes=4096)
        kernel = _kernel(spec)
        data = b"x" * (1 << 20)
        for i in range(4):
            kernel.main_node.fs.write_bytes(f"/f{i}", data)

        def reader(proc, path):
            fd = yield from proc.open(path, "r")
            yield from proc.read_all(fd)
            return 0

        def main(proc):
            pids = []
            for i in range(4):
                def body(p, i=i):
                    return (yield from reader(p, f"/f{i}"))
                pids.append((yield from proc.spawn(body)))
            for pid in pids:
                yield from proc.wait(pid)
            return 0

        root = kernel.create_process(main)
        kernel.run_until_process_done(root)
        disk = kernel.main_node.disk
        # 4 MB sequential would be 32 ops; interleaved streams cost more
        assert disk.total_ops > 48


class TestPipes:
    def test_backpressure_blocks_writer(self):
        kernel = _kernel()
        reader, writer = make_pipe(capacity=1024)
        progress = []

        def producer(proc):
            for i in range(8):
                yield from proc.write(1, b"x" * 1024)
                progress.append(i)
            return 0

        def consumer(proc):
            yield from proc.sleep(1.0)
            data = yield from proc.read_all(0)
            progress.append(("consumed", len(data)))
            return 0

        def main(proc):
            p1 = yield from proc.spawn(producer, fds={1: writer})
            p2 = yield from proc.spawn(consumer, fds={0: reader})
            yield from proc.wait(p1)
            yield from proc.wait(p2)
            return 0

        root = kernel.create_process(main)
        kernel.run_until_process_done(root)
        assert ("consumed", 8192) in progress

    def test_eof_on_writer_close(self):
        kernel = _kernel()
        reader, writer = make_pipe()

        def producer(proc):
            yield from proc.write(1, b"last")
            return 0

        def consumer(proc):
            data = yield from proc.read_all(0)
            assert data == b"last"
            return 0

        def main(proc):
            p1 = yield from proc.spawn(producer, fds={1: writer})
            p2 = yield from proc.spawn(consumer, fds={0: reader})
            assert (yield from proc.wait(p2)) == 0
            yield from proc.wait(p1)
            return 0

        root = kernel.create_process(main)
        assert kernel.run_until_process_done(root) == 0

    def test_sigpipe_kills_writer(self):
        kernel = _kernel()
        reader, writer = make_pipe(capacity=64)

        def producer(proc):
            while True:
                yield from proc.write(1, b"spam" * 64)

        def consumer(proc):
            yield from proc.read(0, 16)
            return 0  # exits; reader handle closes

        def main(proc):
            p1 = yield from proc.spawn(producer, fds={1: writer})
            p2 = yield from proc.spawn(consumer, fds={0: reader})
            yield from proc.wait(p2)
            status = yield from proc.wait(p1)
            assert status == SIGPIPE_STATUS
            return 0

        root = kernel.create_process(main)
        assert kernel.run_until_process_done(root) == 0


class TestProcessLifecycle:
    def test_exit_status_propagates(self):
        kernel = _kernel()

        def child(proc):
            return 42
            yield

        def main(proc):
            pid = yield from proc.spawn(child)
            status = yield from proc.wait(pid)
            return status

        root = kernel.create_process(main)
        assert kernel.run_until_process_done(root) == 42

    def test_kill_process(self):
        kernel = _kernel()

        def victim(proc):
            yield from proc.sleep(100)
            return 0

        def main(proc):
            pid = yield from proc.spawn(victim)
            kernel.kill_process(kernel.processes[pid])
            status = yield from proc.wait(pid)
            return status

        root = kernel.create_process(main)
        assert kernel.run_until_process_done(root) == 137
        assert kernel.now < 1.0

    def test_kill_syscall_outcomes(self):
        # 0 = never spawned, 1 = delivered to a live victim, 2 = already
        # DONE (caller decides zombie-no-op vs reaped-ESRCH)
        kernel = _kernel()

        def victim(proc):
            yield from proc.sleep(100)
            return 0

        seen = []

        def main(proc):
            pid = yield from proc.spawn(victim)
            seen.append(("live", (yield from proc.kill(pid, 143))))
            seen.append(("wait", (yield from proc.wait(pid))))
            seen.append(("done", (yield from proc.kill(pid, 143))))
            seen.append(("ghost", (yield from proc.kill(999999, 143))))
            return 0

        root = kernel.create_process(main)
        kernel.run_until_process_done(root)
        assert seen == [("live", 1), ("wait", 143), ("done", 2), ("ghost", 0)]

    def test_kill_signal_zero_probe_is_harmless(self):
        kernel = _kernel()

        def victim(proc):
            yield from proc.sleep(0.5)
            return 7

        seen = []

        def main(proc):
            pid = yield from proc.spawn(victim)
            seen.append(("probe", (yield from proc.kill(pid, None))))
            seen.append(("wait", (yield from proc.wait(pid))))
            return 0

        root = kernel.create_process(main)
        kernel.run_until_process_done(root)
        assert seen == [("probe", 1), ("wait", 7)]

    def test_deadlock_detected(self):
        kernel = _kernel()
        reader, writer = make_pipe()

        def stuck(proc):
            # keeps its own writer open; read never sees EOF
            data = yield from proc.read(0, 10)
            return 0

        root = kernel.create_process(stuck, fds={0: reader, 1: writer})
        with pytest.raises(KernelStall, match="^deadlock:"):
            kernel.run_until_process_done(root)

    @pytest.mark.parametrize("loop", ["run", "run_until_process_done"])
    def test_unresolvable_burst_is_a_typed_stall(self, loop):
        """At 20000 s the float clock's ulp is 3.6e-12 s: a 1e-12 s burst
        leaves ``now`` where it was and is rescheduled for ever.  Both
        main loops must notice and raise, naming the time and who is
        blocked (ROADMAP: 'a virtual clock that cannot stall')."""
        kernel = _kernel()

        def body(proc):
            yield from proc.sleep(20000.0)
            yield from proc.cpu(1e-13)
            return 0

        root = kernel.create_process(body, name="late")
        with pytest.raises(KernelStall, match=r"20000\.0 .*late") as info:
            kernel.run() if loop == "run" else \
                kernel.run_until_process_done(root)
        assert isinstance(info.value, VosError)
        assert kernel.now == 20000.0


class TestMachineProfiles:
    def test_profiles_exist(self):
        for name in ("standard", "io-opt", "laptop", "raspberry-pi", "hpc"):
            spec = profile(name)
            assert spec.cores >= 1

    def test_unknown_profile(self):
        with pytest.raises(KeyError):
            profile("mainframe")

    def test_gp2_vs_gp3(self):
        gp2 = aws_c5_2xlarge_gp2().disk
        gp3 = aws_c5_2xlarge_gp3().disk
        assert gp2.base_iops < gp3.base_iops
        assert gp2.burst_credit_ops > 0
        assert gp3.burst_credit_ops == 0
