"""Fast guard for the headline result: Figure 1's orderings must hold
at small scale too (the gp2 burst bucket scales with the workload, so
the shape is size-stable).  The full-size run lives in
benchmarks/bench_figure1.py."""

import pytest

from repro.bench import run_engine, words_text
from repro.vos.devices import gp2_spec, gp3_spec
from repro.vos.machines import MachineSpec

SCRIPT = "cat /data/words.txt | tr -cs A-Za-z '\\n' | sort > /data/out.txt"


@pytest.fixture(scope="module")
def small_figure1():
    data = words_text(1_500_000, seed=42)
    seq_ops = len(data) / (128 * 1024)
    machines = {
        "standard": MachineSpec("gp2", cores=8,
                                disk=gp2_spec(burst_credit_ops=3.0 * seq_ops)),
        "io-opt": MachineSpec("gp3", cores=8, disk=gp3_spec()),
    }
    results = {}
    for mname, machine in machines.items():
        for engine in ("bash", "pash", "jash"):
            run = run_engine(engine, SCRIPT, machine,
                             files={"/data/words.txt": data})
            assert run.result.status == 0
            results[(engine, mname)] = run
    return results


def test_standard_ordering(small_figure1):
    t = {k: run.result.elapsed for k, run in small_figure1.items()}
    assert t[("pash", "standard")] > t[("bash", "standard")]
    assert t[("jash", "standard")] < t[("bash", "standard")]


def test_io_opt_ordering(small_figure1):
    t = {k: run.result.elapsed for k, run in small_figure1.items()}
    assert t[("pash", "io-opt")] < t[("bash", "io-opt")]
    assert t[("jash", "io-opt")] <= t[("pash", "io-opt")] * 1.15


def test_all_outputs_identical(small_figure1):
    outputs = {k: run.shell.fs.read_bytes("/data/out.txt")
               for k, run in small_figure1.items()}
    assert len(set(outputs.values())) == 1


def test_jash_chose_streaming_on_standard(small_figure1):
    """The resource-aware choice itself: no materializing split on the
    credit-constrained volume."""
    jash = small_figure1[("jash", "standard")].optimizer
    optimized = [e for e in jash.events if e.decision == "optimized"]
    assert optimized
    assert "materialize" not in optimized[0].plan_description


def test_pash_used_materialize(small_figure1):
    pash = small_figure1[("pash", "standard")].optimizer
    optimized = [e for e in pash.events if e.decision == "optimized"]
    assert optimized
    assert "materialize" in optimized[0].plan_description


# the ledger's engine_matrix script and machines (benchmarks/ledger/
# workloads.py) at its --quick size; times and process counts taken at
# commit 318c0c3, dispatches when every relay became one SpliceReq
# (12 fewer per plan: a pump copies without re-dispatching)
PLAN_CELLS = {
    ("pash", "gp2"): ("0.11186549871266392", 334, 20),
    ("jash", "gp2"): ("0.0544762327858239", 244, 12),
    ("pash", "gp3"): ("0.05950006585798544", 334, 20),
    ("jash", "gp3"): ("0.04964966575798548", 244, 12),
}


@pytest.mark.parametrize("engine,mname", sorted(PLAN_CELLS))
def test_plan_cells_issue_exactly_the_pinned_virtual_ops(engine, mname):
    """A plan's merge, split and relay nodes replay line-at-a-time costs
    in bulk; moving one virtual op moves these, here rather than in the
    ledger.  Jash's size gate is lowered so that its cell runs a plan."""
    from repro import JashConfig, JashOptimizer, PashOptimizer, Shell
    from repro.compiler.optimizer import OptimizerConfig

    words = words_text(250_000, seed=1)
    disk = (gp2_spec(burst_credit_ops=3.0 * len(words) / (128 * 1024))
            if mname == "gp2" else gp3_spec())
    optimizer = (PashOptimizer() if engine == "pash" else JashOptimizer(
        JashConfig(optimizer=OptimizerConfig(min_input_bytes=0))))
    shell = Shell(MachineSpec(f"c5.2xlarge-{mname}", cores=8, disk=disk),
                  optimizer=optimizer)
    shell.fs.write_bytes("/words.txt", words)
    result = shell.run("cat words.txt | tr -cs A-Za-z '\\n' | sort > out.txt")
    assert result.status == 0
    assert [e.decision for e in optimizer.events] == ["optimized"]
    assert (repr(result.elapsed), shell.kernel.dispatches,
            len(shell.kernel.processes)) == PLAN_CELLS[engine, mname]
