"""Transactional recovery tests: staged region execution, Jash's
degradation ladder, PaSh's interpreter fallback, pipe-fed regions that
cannot be replayed, the branch-group fault fix, and dshell's
policy-driven retry/backoff/watchdog."""

from __future__ import annotations

import pytest

from repro import FaultPlan, FaultSpec, RetryPolicy, Shell
from repro.annotations import DEFAULT_LIBRARY
from repro.bench.workloads import access_log, words_text
from repro.compiler import OptimizerConfig, PashConfig, PashOptimizer
from repro.compiler.driver import execute_plan
from repro.compiler.parallel import parallelize
from repro.compiler.transactional import (
    STAGED_SUFFIX,
    UNREPLAYABLE,
    RecoveryReport,
    execute_plan_transactional,
)
from repro.dfg.from_ast import extract_region
from repro.distributed import Cluster, DistributedShell
from repro.jit import JashConfig, JashOptimizer
from repro.obs import Tracer
from repro.parser import parse_one
from repro.vos.faults import FAULT_STATUSES
from repro.vos.handles import Collector, make_pipe
from repro.vos.machines import laptop

WORDS = words_text(1_000_000, seed=3)
PIPE_SCRIPT = "cat /w.txt | tr a-z A-Z | sort"
FILE_SCRIPT = "cat /w.txt | tr a-z A-Z | sort > /out.txt"

#: targets only dataflow-node processes (all named "dfg:...") so the
#: interpreter fallback path stays clean
DFG_DISK_SPEC = FaultSpec("disk-error", at=0.0, proc="dfg:", times=10**9)


def jash():
    return JashOptimizer(JashConfig(
        optimizer=OptimizerConfig(min_input_bytes=4096)))


def pash():
    return PashOptimizer(PashConfig(width=4))


def run_with(optimizer, plan=None, script=PIPE_SCRIPT):
    shell = Shell(laptop(), optimizer=optimizer, faults=plan)
    shell.fs.write_bytes("/w.txt", WORDS)
    result = shell.run(script)
    return shell, result


@pytest.fixture(scope="module")
def reference():
    """Fault-free interpreter output for the shared workload."""
    _, result = run_with(None)
    assert result.status == 0
    return result


class TestFastPath:
    def test_no_plan_means_no_staging_overhead(self):
        # no FaultPlan installed: the transactional executor is the
        # plain one, to the virtual nanosecond
        plan = parallelize(extract_region(parse_one(PIPE_SCRIPT),
                                          DEFAULT_LIBRARY), 4, "materialize",
                           file_sizes={"/w.txt": len(WORDS)}.get)
        runs = []
        for executor in (execute_plan, execute_plan_transactional):
            kernel = Shell(laptop()).kernel
            kernel.main_node.fs.write_bytes("/w.txt", WORDS)
            out = Collector()

            def main(proc, executor=executor):
                return (yield from executor(plan, proc))

            root = kernel.create_process(main, fds={1: out})
            status = kernel.run_until_process_done(root)
            runs.append((status, out.getvalue(), kernel.now))
        assert runs[0] == runs[1]
        assert runs[0][0] == 0 and len(runs[0][1]) == len(WORDS)

    def test_zero_rate_plan_still_commits(self, reference):
        opt = jash()
        _, result = run_with(opt, FaultPlan(rate=0.0))
        assert result.status == 0
        assert result.stdout == reference.stdout
        assert opt.events[0].decision == "optimized"
        assert opt.events[0].fault_failures == 0


class TestJashRecovery:
    def test_single_fault_rolled_back_and_retried(self, reference):
        opt = jash()
        plan = FaultPlan(specs=(
            FaultSpec("disk-error", at=0.0, proc="dfg:", times=1),))
        _, result = run_with(opt, plan)
        assert result.status == 0
        assert result.stdout == reference.stdout
        event = opt.events[0]
        assert event.decision == "degraded"
        assert event.fault_failures >= 1
        assert plan.fired == 1

    def test_persistent_fault_degrades_to_interpreter(self, reference):
        opt = jash()
        plan = FaultPlan(specs=(DFG_DISK_SPEC,))
        _, result = run_with(opt, plan)
        assert result.status == 0
        assert result.stdout == reference.stdout  # byte-identical
        event = opt.events[0]
        assert event.decision == "interpreted"
        assert "degraded to interpreter" in event.reason
        # the whole ladder was walked: laptop width 4, then 2, then out
        assert event.degraded == "4 -> 2 -> interpreter"
        assert event.fault_failures >= 3
        assert opt.degraded_count == 1  # counted as a degradation

    def test_budgeted_storm_recovers_byte_identical(self, reference):
        opt = jash()
        plan = FaultPlan(seed=7, rate=0.05,
                         kinds=("disk-error", "disk-slow", "pipe-break",
                                "crash"),
                         max_faults=3)
        _, result = run_with(opt, plan)
        assert result.status == 0
        assert result.stdout == reference.stdout
        assert plan.fired > 0
        assert opt.events[0].fault_failures > 0
        assert opt.events[0].decision in ("degraded", "interpreted")

    def test_crash_kind_also_recovered(self, reference):
        # a timed crash sweeps away every dataflow-node process while
        # the region is mid-flight (it fires once, so the retry is clean)
        opt = jash()
        plan = FaultPlan(specs=(FaultSpec("crash", at=0.01, proc="dfg:"),))
        _, result = run_with(opt, plan)
        assert result.status == 0
        assert result.stdout == reference.stdout
        assert opt.events[0].fault_failures >= 1


class TestFileSinkStaging:
    def expected(self):
        shell, result = run_with(None, script=FILE_SCRIPT)
        assert result.status == 0
        return shell.fs.read_bytes("/out.txt")

    def test_staged_file_committed_atomically(self):
        expected = self.expected()
        opt = jash()
        plan = FaultPlan(specs=(
            FaultSpec("disk-error", at=0.0, proc="dfg:", times=1),))
        shell, result = run_with(opt, plan, script=FILE_SCRIPT)
        assert result.status == 0
        assert shell.fs.read_bytes("/out.txt") == expected
        # no staging residue after commit
        assert not shell.fs.is_file("/out.txt" + STAGED_SUFFIX)
        assert opt.events[0].fault_failures >= 1

    def test_interpreter_fallback_still_writes_sink(self):
        expected = self.expected()
        opt = jash()
        shell, result = run_with(opt, FaultPlan(specs=(DFG_DISK_SPEC,)),
                                 script=FILE_SCRIPT)
        assert result.status == 0
        assert shell.fs.read_bytes("/out.txt") == expected
        assert not shell.fs.is_file("/out.txt" + STAGED_SUFFIX)

    def test_no_temp_chunk_leaks(self):
        opt = jash()
        plan = FaultPlan(specs=(
            FaultSpec("disk-error", at=0.0, proc="dfg:", times=2),))
        shell, result = run_with(opt, plan, script=FILE_SCRIPT)
        assert result.status == 0
        leftovers = [p for p in shell.fs.walk()
                     if "tmp" in p and p not in ("/w.txt", "/out.txt")]
        assert leftovers == []


class TestDownstreamClose:
    """A consumer that stops reading (head) is graceful termination,
    not a fault — with and without staging engaged."""

    SCRIPT = "cat /w.txt | tr a-z A-Z | head -n 5"

    def test_head_with_staging_matches_interpreter(self):
        _, expected = run_with(None, script=self.SCRIPT)
        assert expected.status == 0
        opt = jash()
        plan = FaultPlan(rate=0.0)
        _, result = run_with(opt, plan, script=self.SCRIPT)
        assert result.status == 0
        assert result.stdout == expected.stdout
        # early close must not be mistaken for a fault
        assert all(ev.fault_failures == 0 for ev in opt.events)

    def test_head_without_plan_matches_interpreter(self):
        _, expected = run_with(None, script=self.SCRIPT)
        _, result = run_with(jash(), script=self.SCRIPT)
        assert result.status == 0
        assert result.stdout == expected.stdout


class TestPashFallback:
    def test_fallback_to_interpreter(self, reference):
        opt = pash()
        _, result = run_with(opt, FaultPlan(specs=(DFG_DISK_SPEC,)))
        assert result.status == 0
        assert result.stdout == reference.stdout
        fallback = [e for e in opt.events if e.decision == "interpreted"
                    and "fault fallback" in e.reason]
        assert fallback and fallback[0].fault_failures >= 1

    def test_recovers_within_retry_budget(self, reference):
        opt = pash()
        plan = FaultPlan(specs=(
            FaultSpec("disk-error", at=0.0, proc="dfg:", times=1),))
        _, result = run_with(opt, plan)
        assert result.status == 0
        assert result.stdout == reference.stdout
        assert any(e.decision == "degraded" for e in opt.events)


class TestPipeFedRegion:
    """A region reading piped stdin cannot rewind it: a faulted attempt
    must fail the region, not hand an emptied pipe to a retry or to the
    interpreter (which used to exit 0 with no output)."""

    SCRIPT = "cat /w.txt | { tr a-z A-Z | sort; }"
    DATA = words_text(400_000, seed=3)

    def run(self, optimizer, plan=None):
        shell = Shell(laptop(), optimizer=optimizer, faults=plan)
        shell.fs.write_bytes("/w.txt", self.DATA)
        return shell.run(self.SCRIPT)

    @pytest.mark.parametrize("kind", ["pipe-break", "disk-error"])
    def test_fault_fails_loudly_or_matches(self, kind):
        reference = self.run(None)
        assert reference.status == 0 and len(reference.stdout) == 400_001
        opt = pash()
        result = self.run(opt, FaultPlan(specs=(
            FaultSpec(kind, at=0.005, times=1),)))
        assert result.status != 0 or result.stdout == reference.stdout
        assert [e.reason for e in opt.events
                if e.fault_failures] == [UNREPLAYABLE]

    def test_executor_reports_unreplayable(self):
        plan = parallelize(extract_region(parse_one("tr a-z A-Z | sort"),
                                          DEFAULT_LIBRARY), 4, "rr")
        kernel = Shell(laptop(), faults=FaultPlan(specs=(
            FaultSpec("crash", at=0.0, proc="dfg:", times=1),))).kernel
        reader, writer = make_pipe()
        out, report = Collector(), RecoveryReport()

        def feed(proc):
            yield from proc.write(1, self.DATA)
            return 0

        def main(proc):
            return (yield from execute_plan_transactional(plan, proc,
                                                          report=report))

        kernel.create_process(feed, fds={1: writer})
        root = kernel.create_process(main, fds={0: reader, 1: out})
        writer.release()  # the feeder holds the only write end
        assert kernel.run_until_process_done(root) in FAULT_STATUSES
        assert out.getvalue() == b""  # the rolled-back attempt emitted nothing
        assert (report.attempts, report.gave_up, report.unreplayable) == (
            1, True, True)


class TestBranchGroupFault:
    def test_faulted_copy_fails_plan_loudly(self):
        """Regression: a killed parallel copy must fail the plan (it
        produced no data) even when sibling copies exited 0 — silent
        truncation is the bug the chaos layer exists to catch."""
        tracer = Tracer()
        shell = Shell(laptop(), optimizer=pash(), tracer=tracer,
                      faults=FaultPlan(specs=(
                          FaultSpec("crash", at=0.0, proc="dfg:", times=1),)))
        shell.fs.write_bytes("/w.txt", WORDS)
        assert shell.run(PIPE_SCRIPT).status == 0  # the retry recovered
        first = next(r for r in tracer.records if r.name == "tx.attempt")
        assert first.args["status"] in FAULT_STATUSES


class TestDshellPolicies:
    N_FILES = 4

    def build(self):
        cluster = Cluster(n_nodes=3)
        contents = {}
        for i in range(self.N_FILES):
            data = access_log(600, seed=50 + i)
            path = f"/logs/part{i}.log"
            nodes = [f"node{i % 3}", f"node{(i + 1) % 3}"]
            cluster.write_file(path, data, nodes)
            contents[path] = data
        return cluster, contents

    def expected_count(self, contents):
        return sum(d.count(b" 500 ") for d in contents.values())

    def run(self, cluster, contents, **kwargs):
        dsh = DistributedShell(cluster)
        return dsh.run("grep ' 500 ' | wc -l", sorted(contents), **kwargs)

    def test_retry_on_injected_disk_error(self):
        cluster, contents = self.build()
        cluster.kernel.faults = FaultPlan(
            specs=(FaultSpec("disk-error", at=0.0, path="/logs/part0.log",
                             times=1),))
        run = self.run(cluster, contents, retry=RetryPolicy(max_retries=2))
        assert run.status == 0
        assert run.retries >= 1
        assert int(run.out.split()[0]) == self.expected_count(contents)

    def test_budget_exhaustion_fails(self):
        cluster, contents = self.build()
        cluster.kernel.faults = FaultPlan(
            specs=(FaultSpec("disk-error", at=0.0, path="/logs/",
                             times=10**9),))
        run = self.run(cluster, contents, retry=RetryPolicy(max_retries=1))
        assert run.status != 0

    def test_backoff_delays_show_up_in_virtual_time(self):
        elapsed = {}
        for label, delay in (("fast", 0.0), ("slow", 0.05)):
            cluster, contents = self.build()
            cluster.kernel.faults = FaultPlan(
                specs=(FaultSpec("disk-error", at=0.0,
                                 path="/logs/part0.log", times=1),))
            run = self.run(cluster, contents,
                           retry=RetryPolicy(max_retries=2,
                                             base_delay_s=delay))
            assert run.status == 0
            elapsed[label] = run.elapsed
        assert elapsed["slow"] >= elapsed["fast"] + 0.04

    def test_watchdog_recovers_stalled_branch(self):
        # node0's disk browns out indefinitely: only the watchdog can
        # turn the stall into a retryable failure
        cluster, contents = self.build()
        cluster.kernel.faults = FaultPlan(
            specs=(FaultSpec("disk-slow", at=0.0, node="node0",
                             times=10**9, slow_factor=1e6),))
        run = self.run(cluster, contents,
                       retry=RetryPolicy(max_retries=3, timeout_s=0.5))
        assert run.status == 0
        assert run.retries >= 1
        assert int(run.out.split()[0]) == self.expected_count(contents)
        assert run.elapsed < 10.0
