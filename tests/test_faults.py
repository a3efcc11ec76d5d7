"""Fault-injection layer tests: FaultSpec/FaultPlan matching, kernel
dispatch of each fault kind, determinism of seeded schedules, and the
retry policy and watchdog shared by the recovery layers."""

from __future__ import annotations

from contextlib import nullcontext

import pytest

from repro import FaultPlan, FaultSpec, RetryPolicy, Shell, run_script
from repro.distributed.retry import watchdog
from repro.vos.errors import BrokenPipe, InjectedDiskError, InjectedFault, VosError
from repro.vos.faults import (
    CRASH_STATUS,
    EX_IOERR,
    FAULT_STATUSES,
    FaultEvent,
)
from repro.vos.machines import laptop

from .conftest import fast_machine, reference_copy


class _Node:
    name = "main"


class _Proc:
    """Just enough of a Process for FaultPlan matching."""

    def __init__(self, name: str = "cat", node_name: str = "main"):
        self.name = name
        self.node = _Node()
        self.node.name = node_name


class TestValidation:
    def test_unknown_kind_in_spec(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec("meteor-strike", op=1)

    def test_unknown_kind_in_plan(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultPlan(kinds=("disk-error", "gamma-ray"))

    def test_rate_range(self):
        with pytest.raises(ValueError, match="rate"):
            FaultPlan(rate=1.5)

    def test_statuses(self):
        assert FAULT_STATUSES == {EX_IOERR, CRASH_STATUS}

    def test_injected_fault_is_not_broken_pipe(self):
        # a fault must never be mistaken for a benign SIGPIPE
        assert not issubclass(InjectedFault, BrokenPipe)
        assert issubclass(InjectedDiskError, VosError)


class TestMatching:
    def test_op_is_one_based_first_op(self):
        plan = FaultPlan(specs=(FaultSpec("disk-error", op=1),))
        assert plan.on_disk_io(0.0, _Proc(), "/f") == ("disk-error", 8.0)
        assert plan.fired == 1

    def test_op_targets_nth_operation(self):
        plan = FaultPlan(specs=(FaultSpec("disk-error", op=3),))
        proc = _Proc()
        assert plan.on_disk_io(0.0, proc, "/f") is None
        assert plan.on_disk_io(0.0, proc, "/f") is None
        assert plan.on_disk_io(0.0, proc, "/f") == ("disk-error", 8.0)

    def test_at_fires_from_that_time_on(self):
        plan = FaultPlan(specs=(FaultSpec("disk-error", at=1.0),))
        assert plan.on_disk_io(0.5, _Proc(), "/f") is None
        assert plan.on_disk_io(1.5, _Proc(), "/f") == ("disk-error", 8.0)

    def test_path_prefix_filter(self):
        plan = FaultPlan(specs=(FaultSpec("disk-error", at=0.0, path="/data/"),))
        assert plan.on_disk_io(0.0, _Proc(), "/tmp/x") is None
        assert plan.on_disk_io(0.0, _Proc(), "/data/x") is not None

    def test_proc_prefix_filter(self):
        plan = FaultPlan(specs=(FaultSpec("disk-error", at=0.0, proc="sort"),))
        assert plan.on_disk_io(0.0, _Proc("cat"), "/f") is None
        assert plan.on_disk_io(0.0, _Proc("sort"), "/f") is not None

    def test_node_filter(self):
        plan = FaultPlan(specs=(FaultSpec("disk-error", at=0.0, node="node2"),))
        assert plan.on_disk_io(0.0, _Proc(node_name="main"), "/f") is None
        assert plan.on_disk_io(0.0, _Proc(node_name="node2"), "/f") is not None

    def test_times_bounds_firings(self):
        plan = FaultPlan(specs=(FaultSpec("disk-error", at=0.0, times=2),))
        assert plan.on_disk_io(0.0, _Proc(), "/f") is not None
        assert plan.on_disk_io(0.0, _Proc(), "/f") is not None
        assert plan.on_disk_io(0.0, _Proc(), "/f") is None
        assert plan.fired == 2

    def test_max_faults_budget_spans_sources(self):
        plan = FaultPlan(rate=1.0, kinds=("disk-error",), max_faults=2)
        assert plan.on_disk_io(0.0, _Proc(), "/f") is not None
        assert plan.on_disk_io(0.0, _Proc(), "/f") is not None
        # budget exhausted: the storm is over
        for _ in range(10):
            assert plan.on_disk_io(0.0, _Proc(), "/f") is None
        assert plan.fired == 2

    def test_pipe_kinds_do_not_fire_on_disk(self):
        plan = FaultPlan(specs=(FaultSpec("pipe-break", at=0.0),))
        assert plan.on_disk_io(0.0, _Proc(), "/f") is None
        assert plan.on_pipe_write(0.0, _Proc(), object()) == "pipe-break"

    def test_rate_draws_are_schedule_independent(self):
        # the RNG is consumed once per eligible op whether or not a
        # fault fires, so inserting extra non-faulting ops does not
        # shift later draws
        a = FaultPlan(seed=9, rate=0.5, kinds=("disk-error",))
        b = FaultPlan(seed=9, rate=0.5, kinds=("disk-error",))
        outcomes_a = [a.on_disk_io(0.0, _Proc(), "/f") for _ in range(20)]
        outcomes_b = [b.on_disk_io(0.0, _Proc(), "/f") for _ in range(20)]
        assert outcomes_a == outcomes_b

    def test_reset_and_fork_rewind(self):
        plan = FaultPlan(seed=3, rate=1.0, kinds=("disk-error",), max_faults=1)
        assert plan.on_disk_io(0.0, _Proc(), "/f") is not None
        assert plan.fired == 1
        clone = plan.fork()
        assert clone.fired == 0
        plan.reset()
        assert plan.fired == 0 and plan.ops == 0
        assert plan.on_disk_io(0.0, _Proc(), "/f") is not None

    def test_trace_format(self):
        plan = FaultPlan(specs=(FaultSpec("disk-error", op=1),))
        plan.on_disk_io(0.25, _Proc("cat"), "/f")
        assert plan.trace() == ["0.250000 disk-error cat:/f [spec]"]
        assert isinstance(plan.log[0], FaultEvent)


class TestKernelInjection:
    """Each fault kind dispatched through a real kernel run."""

    def run(self, script, plan, files=None, machine=None):
        return run_script(script, machine=machine or fast_machine(),
                          files=files or {"/f": b"hello\n"}, faults=plan)

    def test_disk_error_kills_reader_with_eio(self):
        plan = FaultPlan(specs=(FaultSpec("disk-error", at=0.0, proc="cat"),))
        result = self.run("cat /f", plan)
        assert result.status == EX_IOERR
        assert plan.fired == 1

    def test_disk_error_on_write_leaves_file_unmodified(self):
        plan = FaultPlan(specs=(FaultSpec("disk-error", at=0.0, path="/out"),))
        shell = Shell(fast_machine(), faults=plan)
        shell.fs.write_bytes("/f", b"hello\n")
        result = shell.run("cat /f > /out")
        assert result.status == EX_IOERR
        # the faulted write must not have mutated the target
        assert shell.fs.read_bytes("/out") == b""

    def test_disk_slow_stretches_elapsed(self):
        files = {"/f": b"x" * 500_000}
        base = self.run("cat /f", None, files, laptop())
        slow = self.run(
            "cat /f",
            FaultPlan(specs=(FaultSpec("disk-slow", at=0.0, times=10**9,
                                       slow_factor=8.0),)),
            files, laptop())
        assert base.status == slow.status == 0
        assert slow.stdout == base.stdout
        # only the disk service time scales, so the ratio is well below
        # the slow factor but clearly above noise
        assert slow.elapsed > base.elapsed * 1.5

    def test_pipe_break_distinct_from_sigpipe(self):
        plan = FaultPlan(specs=(FaultSpec("pipe-break", at=0.0, proc="cat"),))
        result = self.run("set -o pipefail\ncat /f | wc -c", plan)
        assert result.status == EX_IOERR  # 74, not the benign 141

    def test_crash_on_io_kills_process(self):
        plan = FaultPlan(specs=(FaultSpec("crash", at=0.0, proc="cat"),))
        result = self.run("cat /f", plan)
        assert result.status == CRASH_STATUS

    def test_timed_crash_fires_without_io(self):
        # the victim does no eligible IO at the crash instant: only the
        # kernel's event-time sweep can fire this spec
        files = {"/f": b"y" * 400_000}
        plan = FaultPlan(specs=(FaultSpec("crash", at=1e-4, proc="sort"),))
        result = self.run("sort /f", plan, files, laptop())
        assert result.status == CRASH_STATUS
        assert plan.fired == 1
        assert "crash" in plan.trace()[0]

    def test_timed_crash_spares_other_procs(self):
        plan = FaultPlan(specs=(FaultSpec("crash", at=1e-4, proc="nonesuch"),))
        files = {"/f": b"y" * 400_000}
        result = self.run("sort /f", plan, files, laptop())
        assert result.status == 0
        assert plan.fired == 0

    def test_rate_faults_are_deterministic(self):
        files = {"/f": bytes(range(256)) * 2000}
        probes = []
        for _ in range(2):
            plan = FaultPlan(seed=11, rate=0.05,
                             kinds=("disk-error", "disk-slow", "pipe-break",
                                    "crash"))
            result = self.run("cat /f | wc -c", plan, files, laptop())
            probes.append((result.status, result.stdout, result.elapsed,
                           plan.trace()))
        assert probes[0] == probes[1]

    def test_budget_lets_a_retry_succeed(self):
        plan = FaultPlan(rate=1.0, kinds=("disk-error",), max_faults=1)
        shell = Shell(fast_machine(), faults=plan)
        shell.fs.write_bytes("/f", b"hello\n")
        assert shell.run("cat /f").status == EX_IOERR
        # the storm (budget 1) has passed: the same command now succeeds
        again = shell.run("cat /f")
        assert again.status == 0 and again.stdout == b"hello\n"

    def test_shell_faults_property(self):
        shell = Shell(fast_machine())
        assert shell.faults is None
        plan = FaultPlan(rate=0.0)
        shell.faults = plan
        assert shell.kernel.faults is plan
        shell.faults = None
        assert shell.faults is None


class TestRetryPolicy:
    def test_next_delay_is_one_based(self):
        policy = RetryPolicy(max_retries=2)
        assert policy.next_delay(0) is None
        assert policy.next_delay(1) == 0.0
        assert policy.next_delay(2) == 0.0
        assert policy.next_delay(3) is None

    def test_exponential_backoff_with_cap(self):
        policy = RetryPolicy(max_retries=5, base_delay_s=0.1,
                             max_delay_s=0.35)
        assert policy.delay(1) == pytest.approx(0.1)
        assert policy.delay(2) == pytest.approx(0.2)
        assert policy.delay(3) == pytest.approx(0.35)  # capped
        assert policy.delay(4) == pytest.approx(0.35)

    def test_zero_base_delay_stays_zero(self):
        assert RetryPolicy().delay(1) == 0.0

    def test_max_elapsed_caps_the_budget(self):
        policy = RetryPolicy(max_retries=10, max_elapsed_s=5.0)
        assert policy.next_delay(1, elapsed_s=0.0) == 0.0
        assert policy.next_delay(1, elapsed_s=5.0) is None
        assert policy.next_delay(1, elapsed_s=6.0) is None

    def test_next_delay_is_the_single_decision_point(self):
        policy = RetryPolicy(max_retries=2, base_delay_s=0.1)
        assert policy.next_delay(1) == pytest.approx(0.1)
        assert policy.next_delay(2) == pytest.approx(0.2)
        assert policy.next_delay(3) is None  # count exhausted

    def test_next_delay_never_sleeps_past_the_elapsed_budget(self):
        policy = RetryPolicy(max_retries=5, base_delay_s=1.0,
                             max_delay_s=10.0, max_elapsed_s=1.5)
        # 1.2s elapsed of a 1.5s budget: the 2s backoff is clamped to 0.3
        assert policy.next_delay(2, elapsed_s=1.2) == pytest.approx(0.3)


class TestWatchdog:
    """One timer, two victim rules: the given pids (dshell branches) or
    every other live process (a supervised run)."""

    @staticmethod
    def sleepers(kernel, *seconds):
        def body(proc, s):
            yield from proc.sleep(s)
            return 0
        return [kernel.create_process(lambda proc, s=s: body(proc, s))
                for s in seconds]

    def test_kills_only_the_given_pids(self):
        kernel = Shell(laptop()).kernel
        stalled, healthy = self.sleepers(kernel, 10.0, 10.0)
        kernel.create_process(watchdog(1.0, [stalled.pid]))
        assert kernel.run_until_process_done(healthy) == 0
        assert stalled.exit_status == CRASH_STATUS
        assert kernel.now == pytest.approx(10.0)

    def test_no_pids_kills_every_other_live_process(self):
        kernel = Shell(laptop()).kernel
        done, a, b = self.sleepers(kernel, 0.5, 10.0, 10.0)
        dog = kernel.create_process(watchdog(1.0))
        assert kernel.run_until_process_done(dog) == 0
        assert done.exit_status == 0
        assert a.exit_status == b.exit_status == CRASH_STATUS
        assert kernel.now == pytest.approx(1.0)


class TestPartialWrite:
    """The torn-write fault: a prefix reaches the target, then EIO."""

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="fraction"):
            FaultSpec("partial-write", op=1, fraction=1.5)

    def test_matching_returns_fraction(self):
        plan = FaultPlan(specs=(FaultSpec("partial-write", op=1,
                                          fraction=0.25),))
        kind, fraction = plan.on_disk_io(0.0, _Proc(), "/f", write=True)
        assert kind == "partial-write" and fraction == 0.25

    def test_write_kind_never_fires_on_reads(self):
        plan = FaultPlan(specs=(FaultSpec("partial-write", at=0.0),))
        assert plan.on_disk_io(0.0, _Proc(), "/f") is None
        assert plan.on_disk_io(0.0, _Proc(), "/f", write=True) is not None

    def test_torn_file_write_commits_a_prefix(self):
        plan = FaultPlan(specs=(FaultSpec("partial-write", at=0.0,
                                          path="/out", fraction=0.5),))
        shell = Shell(fast_machine(), faults=plan)
        shell.fs.write_bytes("/f", b"0123456789abcdef" * 64)
        result = shell.run("cat /f > /out")
        assert result.status == EX_IOERR
        torn = shell.fs.read_bytes("/out")
        full = shell.fs.read_bytes("/f")
        # the hazard partial-write exists to model: a *proper, non-empty*
        # prefix became durable before the failure
        assert 0 < len(torn) < len(full)
        assert full.startswith(torn)

    def test_torn_pipe_write_delivers_prefix_downstream(self):
        plan = FaultPlan(specs=(FaultSpec("partial-write", at=0.0,
                                          proc="cat", fraction=0.5),))
        shell = Shell(fast_machine(), faults=plan)
        shell.fs.write_bytes("/f", b"z" * 4096)
        result = shell.run("set -o pipefail\ncat /f | wc -c")
        assert result.status == EX_IOERR
        # wc counted the torn prefix, not the full stream
        assert 0 < int(result.stdout.split()[0]) < 4096


class TestNetFaults:
    """Message loss + partition windows on the dshell network plane."""

    def test_net_error_kills_sender(self):
        plan = FaultPlan(specs=(FaultSpec("net-error", op=1),))
        assert plan.on_net_send(0.0, _Proc(), "node1") == "net-error"
        assert plan.fired == 1

    def test_partition_window(self):
        plan = FaultPlan(specs=(FaultSpec("net-partition", at=1.0,
                                          duration=2.0, node="node2"),))
        proc = _Proc(node_name="node0")
        assert plan.on_net_send(0.5, proc, "node2") is None
        assert plan.on_net_send(1.5, proc, "node2") == "net-partition"
        assert plan.on_net_send(2.9, proc, "node2") == "net-partition"
        assert plan.on_net_send(3.0, proc, "node2") is None
        # traffic not touching the partitioned node is unaffected
        assert plan.on_net_send(1.5, proc, "node3") is None

    def test_partition_matches_source_side_too(self):
        plan = FaultPlan(specs=(FaultSpec("net-partition", at=0.0,
                                          duration=10.0, node="node0"),))
        assert plan.on_net_send(1.0, _Proc(node_name="node0"),
                                "node3") == "net-partition"

    def test_partition_requires_at(self):
        with pytest.raises(ValueError, match="at"):
            FaultSpec("net-partition", duration=1.0)

    def test_partition_does_not_consume_the_storm_budget(self):
        plan = FaultPlan(
            rate=1.0, kinds=("disk-error",), max_faults=1,
            specs=(FaultSpec("net-partition", at=0.0, duration=100.0),))
        proc = _Proc()
        assert plan.on_net_send(1.0, proc, "node1") == "net-partition"
        assert plan.on_net_send(2.0, proc, "node1") == "net-partition"
        # the disk storm budget is still intact
        assert plan.on_disk_io(0.0, proc, "/f") is not None

    def test_net_rng_does_not_perturb_disk_schedule(self):
        a = FaultPlan(seed=21, rate=0.3, kinds=("disk-error", "net-error"))
        b = FaultPlan(seed=21, rate=0.3, kinds=("disk-error", "net-error"))
        proc = _Proc()
        outcomes_a = [a.on_disk_io(0.0, proc, "/f") for _ in range(30)]
        outcomes_b = []
        for _ in range(30):
            b.on_net_send(0.0, proc, "node1")  # interleaved net traffic
            outcomes_b.append(b.on_disk_io(0.0, proc, "/f"))
        assert outcomes_a == outcomes_b

    def test_dshell_recovers_from_message_loss(self):
        from .test_distributed import make_cluster
        from repro.distributed import DistributedShell

        cluster, sizes, contents = make_cluster(lines_per_file=20000)
        expected = sum(d.count(b"ERROR") for d in contents.values())
        cluster.kernel.faults = FaultPlan(
            specs=(FaultSpec("net-error", op=1),))
        dsh = DistributedShell(cluster)
        result = dsh.run("grep ERROR | wc -l", sorted(sizes),
                         strategy="data-aware")
        assert result.status == 0
        assert int(result.out.split()[0]) == expected
        assert result.retries > 0
        assert cluster.kernel.faults.fired == 1


class TestViaTargeting:
    """FaultSpec(via=...) aims at the zero-copy fast paths, and the
    Bernoulli schedule is identical with the kernel pump or the
    reference copy loop (``conftest.reference_copy``) doing the copying."""

    def _run(self, plan, pump):
        with nullcontext() if pump else reference_copy():
            shell = Shell(fast_machine(), faults=plan)
            shell.fs.write_bytes("/f", b"q" * 200_000)
            return shell.run("set -o pipefail\ncat /f | tr a-z A-Z | wc -c")

    def test_via_validation(self):
        with pytest.raises(ValueError, match="via"):
            FaultSpec("disk-error", op=1, via="teleport")

    def test_via_splice_fires_only_on_the_splice_path(self):
        plan_on = FaultPlan(specs=(FaultSpec("disk-error", at=0.0,
                                             proc="cat", via="splice"),))
        assert self._run(plan_on, pump=True).status == EX_IOERR
        assert plan_on.fired == 1
        plan_off = FaultPlan(specs=(FaultSpec("disk-error", at=0.0,
                                              proc="cat", via="splice"),))
        result = self._run(plan_off, pump=False)
        assert result.status == 0 and plan_off.fired == 0

    def test_mid_splice_partial_write_is_torn(self):
        plan = FaultPlan(specs=(FaultSpec("partial-write", at=0.0,
                                          proc="cat", via="splice",
                                          fraction=0.5),))
        result = self._run(plan, pump=True)
        assert result.status == EX_IOERR
        assert 0 < int(result.stdout.split()[0]) < 200_000

    def test_writev_spec_fires_on_vectored_pipe_write(self):
        # grep emits through a ChunkWriter (vectored writes), so a
        # writev-only torn write lands on its output
        plan = FaultPlan(specs=(FaultSpec("partial-write", at=0.0,
                                          proc="grep", via="writev",
                                          fraction=0.5),))
        with reference_copy():
            shell = Shell(fast_machine(), faults=plan)
            shell.fs.write_bytes("/f", b"hello world\n" * 5000)
            result = shell.run("set -o pipefail\ncat /f | grep hello | wc -c")
        assert result.status == EX_IOERR and plan.fired == 1
        assert 0 < int(result.stdout.split()[0]) < 60_000

    def test_writev_spec_ignores_plain_writes(self):
        plan = FaultPlan(specs=(FaultSpec("partial-write", at=0.0,
                                          proc="cat", via="writev",
                                          fraction=0.5),))
        with reference_copy():
            shell = Shell(fast_machine(), faults=plan)
            shell.fs.write_bytes("/f", b"hello\n" * 100)
            # the loop copies with plain writes, which the one write
            # handler serves too: a writev-only spec still never fires
            result = shell.run("cat /f > /out")
        assert result.status == 0 and plan.fired == 0
        assert shell.fs.read_bytes("/out") == b"hello\n" * 100

    @pytest.mark.parametrize("seed", [3, 17, 99])
    def test_rate_schedule_parity_splice_vs_no_splice(self, seed):
        """Regression: for the same seed, the kernel pump and the
        chunk-copy reference loop observe the *same* fault schedule."""
        traces = []
        for pump in (True, False):
            plan = FaultPlan(seed=seed, rate=0.02,
                             kinds=("disk-error", "pipe-break", "crash"),
                             max_faults=2)
            result = self._run(plan, pump)
            traces.append((plan.trace(), result.status, result.stdout))
        assert traces[0] == traces[1]
