"""One observer per kernel event: the hook vocabulary, the fan-out to the
tracer and the metrics registry, and the fault plan wired through it."""

from __future__ import annotations

import pytest

from repro import FaultPlan, FaultSpec, Shell
from repro.obs import MetricsRegistry, Tracer, dumps_chrome, dumps_snapshot
from repro.obs.observer import HOOKS
from repro.vos.machines import laptop

#: a fault, splices, pipe stalls on both sides, and a kill
SCRIPT = ("cat /in.txt | tr a-z A-Z | sort | head -n 3; "
          "cat /in.txt > /copy.txt; "
          "cat /in.txt | tr a-z A-Z > /big.txt & kill $!; wait")


def observed_run(tracer, metrics):
    """SCRIPT under a seeded fault plan with the given consumers; returns
    each installed consumer's export and the two class-wide witnesses."""
    records, updates = Tracer.total_records, MetricsRegistry.total_updates
    plan = FaultPlan(specs=(FaultSpec("disk-error", at=0.0, path="/copy"),))
    shell = Shell(laptop(), tracer=tracer, metrics=metrics, faults=plan)
    shell.fs.write_bytes("/in.txt", b"".join(
        b"line %d of the observed input\n" % (i % 97) for i in range(20000)))
    result = shell.run(SCRIPT)
    assert plan.fired == 1
    if metrics is not None:
        metrics.finish(shell.kernel.now)
    return {
        "chrome": dumps_chrome(tracer) if tracer is not None else None,
        "snapshot": dumps_snapshot(metrics) if metrics is not None else None,
        "records": Tracer.total_records - records,
        "updates": MetricsRegistry.total_updates - updates,
        "run": (result.status, result.stdout, repr(result.elapsed)),
    }


class TestFanOut:
    def test_consumers_do_not_see_each_other(self):
        tracer_only = observed_run(Tracer(), None)
        metrics_only = observed_run(None, MetricsRegistry())
        tracer = Tracer()
        both = observed_run(tracer, MetricsRegistry())
        assert tracer_only["chrome"] == both["chrome"]
        assert metrics_only["snapshot"] == both["snapshot"]
        assert both["records"] == tracer_only["records"] > 0
        assert both["updates"] == metrics_only["updates"] > 0
        assert tracer_only["run"] == metrics_only["run"] == both["run"]
        # the script reached every event kind it was written for
        names = {(r.cat, r.name) for r in tracer.records}
        assert ("fault", "fault.disk-error") in names
        assert ("splice", "splice") in names
        assert {("pipe", "stall.read"), ("pipe", "stall.write")} <= names
        assert any(r.args.get("error") == "killed" for r in tracer.records)

    def test_every_hook_is_in_the_vocabulary(self):
        # a misspelt hook would never be bound, so never called
        for consumer in (Tracer, MetricsRegistry):
            hooks = {n for n in dir(consumer) if n.startswith("on_")}
            assert hooks <= set(HOOKS), (consumer, hooks - set(HOOKS))
        read = {n for n in HOOKS
                if hasattr(Tracer, n) or hasattr(MetricsRegistry, n)}
        assert read == set(HOOKS)

    def test_uninstalling_consumers_detaches_the_fault_plan(self):
        tracer, metrics = Tracer(), MetricsRegistry()
        plan = FaultPlan(seed=1, rate=1.0, kinds=("disk-error",))
        shell = Shell(laptop(), tracer=tracer, metrics=metrics, faults=plan)
        shell.fs.write_bytes("/in.txt", b"x\n")
        shell.kernel.install_tracer(None)
        shell.kernel.install_metrics(None)
        records, updates = Tracer.total_records, MetricsRegistry.total_updates
        assert shell.run("cat /in.txt > /out.txt").status != 0
        assert plan.fired == 1
        assert Tracer.total_records == records
        assert MetricsRegistry.total_updates == updates
        assert not any(r.cat == "fault" for r in tracer.records)

    @pytest.mark.parametrize("syscall_events", (False, True))
    def test_dispatch_hook_only_when_read(self, syscall_events):
        shell = Shell(laptop(), tracer=Tracer(syscall_events=syscall_events))
        assert shell.kernel.observer.watches_dispatch is syscall_events
        shell.kernel.install_metrics(MetricsRegistry())
        assert shell.kernel.observer.watches_dispatch
