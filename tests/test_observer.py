"""One observer per kernel event: the hook vocabulary, the fan-out to the
tracer and the metrics registry, and the fault plan wired through it."""

from __future__ import annotations

import pytest

from repro import FaultPlan, FaultSpec, Shell
from repro.bench.workloads import words_text
from repro.compiler import OptimizerConfig, PashConfig, PashOptimizer
from repro.incremental import IncrementalConfig, IncrementalOptimizer
from repro.jit import JashConfig, JashOptimizer
from repro.jit.composite import CompositeOptimizer
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


WORDS = words_text(1_000_000, seed=3)
#: a fault on every dataflow node's disk (Jash walks its whole width
#: ladder, PaSh falls back), and one that fires once (a rollback, then a
#: commit)
ALWAYS = FaultSpec("disk-error", at=0.0, proc="dfg:", times=10**9)
ONCE = FaultSpec("disk-error", at=0.0, proc="dfg:", times=1)
ENGINE_SCRIPT = ("cat /w.txt | tr a-z A-Z | sort > /out.txt; "
                 "eval 'cat /w.txt | wc -l'; echo done")
#: every trace record and counter an engine emits in ENGINE_SCRIPT's runs
ENGINE_RECORDS = {
    ("analysis", "analysis.run"), ("analysis", "analysis.absint"),
    ("jit", "jit.cert_hit"), ("jit", "jit.cert_miss"), ("jit", "jit.skip"),
    ("jit", "jit.compile"), ("jit", "jit.degrade"), ("jit", "jit.region"),
    ("aot", "aot.region"), ("aot", "aot.fallback"), ("tx", "tx.attempt"),
    ("tx", "tx.rollback"), ("tx", "tx.commit"), ("inc", "inc.cache_invalid"),
}
ENGINE_COUNTERS = {
    "analysis.absint.nodes", "analysis.absint.widenings",
    "analysis.absint.dead_branches", "jit.cert_hits", "jit.cert_misses",
    "jit.compiles", "jit.decisions", "jit.degrade_steps", "aot.regions",
    "aot.fallbacks", "tx.attempts", "tx.rollbacks", "tx.commits",
    "inc.decisions", "inc.saved_bytes", "inc.cache_invalid",
}


def jash():
    return JashOptimizer(JashConfig(
        optimizer=OptimizerConfig(min_input_bytes=4096)))


def engine_runs(tracer, metrics):
    """Jash and PaSh under fault plans, then the incremental engine
    computing, replaying, extending and dropping a corrupted entry;
    returns each installed consumer's export, the two witnesses' deltas
    and every run's result and decisions."""
    records, updates = Tracer.total_records, MetricsRegistry.total_updates
    runs = []

    def run(shell, script=ENGINE_SCRIPT):
        result = shell.run(script)
        runs.append((result.status, result.stdout, repr(result.elapsed)))

    for optimizer, spec in ((jash(), ALWAYS),
                            (PashOptimizer(PashConfig(width=4)), ONCE),
                            (PashOptimizer(PashConfig(width=4)), ALWAYS)):
        shell = Shell(laptop(), optimizer=optimizer, tracer=tracer,
                      metrics=metrics, faults=FaultPlan(specs=(spec,)))
        shell.fs.write_bytes("/w.txt", WORDS)
        run(shell)
        runs.append([(e.decision, e.reason) for e in optimizer.events])
    inc = IncrementalOptimizer(IncrementalConfig(min_input_bytes=1024))
    shell = Shell(laptop(), optimizer=CompositeOptimizer(inc, jash()),
                  tracer=tracer, metrics=metrics)
    cut = WORDS.index(b"\n", 200000) + 1
    shell.fs.write_bytes("/in.txt", WORDS[:cut])
    script = "cat /in.txt | tr a-z A-Z | grep E"
    run(shell, script)
    run(shell, script)
    shell.fs.write_bytes("/in.txt", WORDS[:cut * 2], mtime=shell.kernel.now)
    run(shell, script)
    for entry in inc.cache.entries.values():
        entry.output += b"torn"
    run(shell, script)
    runs.append([(e.decision, e.reason) for e in inc.events])
    if metrics is not None:
        metrics.finish(shell.kernel.now)
    return {
        "chrome": dumps_chrome(tracer) if tracer is not None else None,
        "snapshot": dumps_snapshot(metrics) if metrics is not None else None,
        "records": Tracer.total_records - records,
        "updates": MetricsRegistry.total_updates - updates,
        "runs": runs,
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

    def test_engine_consumers_do_not_see_each_other(self):
        tracer_only = engine_runs(Tracer(), None)
        metrics_only = engine_runs(None, MetricsRegistry())
        tracer, metrics = Tracer(), MetricsRegistry()
        both = engine_runs(tracer, metrics)
        nothing = engine_runs(None, None)
        assert tracer_only["chrome"] == both["chrome"]
        assert metrics_only["snapshot"] == both["snapshot"]
        assert both["records"] == tracer_only["records"] > 0
        assert both["updates"] == metrics_only["updates"] > 0
        assert nothing["records"] == nothing["updates"] == 0
        assert (tracer_only["runs"] == metrics_only["runs"] == both["runs"]
                == nothing["runs"])
        assert ENGINE_RECORDS <= {(r.cat, r.name) for r in tracer.records}
        assert ENGINE_COUNTERS <= {name for name, _l, _i in metrics.series}
        decisions = {d for run in both["runs"] if isinstance(run, list)
                     for d, _reason in run}
        assert {"degraded", "interpreted", "computed", "replayed",
                "extended"} <= decisions

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
