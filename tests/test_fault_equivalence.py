"""Property-based fault-recovery equivalence (Hypothesis).

For random seeded fault plans with a bounded storm budget, the
transactional engines (PaSh-AOT-with-fallback, Jash with the
degradation ladder) must always recover: exit status 0 and stdout
byte-identical to the fault-free reference.  The plain interpreter has
no recovery, but whenever no fault fired its run must also be
byte-identical — and every engine must be fully deterministic given
the plan seed."""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import FaultPlan, Shell
from repro.bench.workloads import words_text
from repro.compiler import OptimizerConfig, PashConfig, PashOptimizer
from repro.jit import JashConfig, JashOptimizer
from repro.vos.machines import laptop

WORDS = words_text(1_000_000, seed=3)
SCRIPT = "cat /w.txt | tr a-z A-Z | sort"
ALL_KINDS = ("disk-error", "disk-slow", "pipe-break", "crash",
             "partial-write")
#: small enough that PaSh's 3 staged attempts absorb every fatal fault
#: before its interpreter fallback runs (see bench_faults.py)
BUDGET = 3

SLOW = settings(deadline=None, max_examples=12,
                suppress_health_check=[HealthCheck.too_slow])


def make_optimizer(engine: str):
    if engine == "interp":
        return None
    if engine == "pash-tx":
        return PashOptimizer(PashConfig(width=4))
    return JashOptimizer(JashConfig(
        optimizer=OptimizerConfig(min_input_bytes=4096)))


def run_engine(engine: str, plan):
    shell = Shell(laptop(), optimizer=make_optimizer(engine), faults=plan)
    shell.fs.write_bytes("/w.txt", WORDS)
    return shell.run(SCRIPT)


REFERENCE = run_engine("interp", None)
assert REFERENCE.status == 0

plans = st.builds(
    lambda seed, rate, kinds: FaultPlan(seed=seed, rate=rate,
                                        kinds=tuple(kinds),
                                        max_faults=BUDGET),
    seed=st.integers(min_value=0, max_value=10**6),
    rate=st.floats(min_value=0.0, max_value=0.10),
    kinds=st.lists(st.sampled_from(ALL_KINDS), min_size=1, max_size=4,
                   unique=True),
)


@SLOW
@given(engine=st.sampled_from(["pash-tx", "jash-tx"]), plan=plans)
def test_transactional_engines_always_recover(engine, plan):
    result = run_engine(engine, plan)
    assert result.status == 0, (engine, plan.trace())
    assert result.stdout == REFERENCE.stdout, (engine, plan.trace())


@SLOW
@given(plan=plans)
def test_interpreter_identical_when_no_fault_fired(plan):
    result = run_engine("interp", plan)
    if plan.fired == 0:
        assert result.status == 0
        assert result.stdout == REFERENCE.stdout


@SLOW
@given(engine=st.sampled_from(["interp", "pash-tx", "jash-tx"]),
       seed=st.integers(min_value=0, max_value=10**6))
def test_same_seed_same_everything(engine, seed):
    probes = []
    for _ in range(2):
        plan = FaultPlan(seed=seed, rate=0.08, kinds=ALL_KINDS,
                         max_faults=BUDGET)
        result = run_engine(engine, plan)
        probes.append((result.status, result.stdout, result.elapsed,
                       plan.trace()))
    assert probes[0] == probes[1]


# -- supervised crash/resume (S18) -------------------------------------------------

import tempfile

from repro import (
    CrashPoint,
    RetryPolicy,
    SimulatedCrash,
    SuperviseConfig,
    Supervisor,
    SyntheticSource,
    run_script,
)

from .conftest import fast_machine

SUP_SCRIPTS = (
    "cat /stream.log | tr a-z A-Z | grep -v ERROR",
    "grep INFO /stream.log | tr a-z A-Z",
    "cat /stream.log | grep req | wc -l",
    "cat /stream.log | sort",
)
WHERES = ("pre-commit", "post-payload", "torn-record", "post-commit")
_SUP_REFS: dict = {}


def _sup_reference(script: str, data: bytes) -> bytes:
    key = (script, hash(data))
    if key not in _SUP_REFS:
        _SUP_REFS[key] = run_script(
            script, machine=fast_machine(),
            files={"/stream.log": data}).stdout
    return _SUP_REFS[key]


def _make_supervisor(root: str, script: str, seed: int, rate: float):
    plan = FaultPlan(seed=seed, rate=rate, kinds=ALL_KINDS,
                     max_faults=BUDGET)
    config = SuperviseConfig(
        script=script, checkpoint_dir=root, machine=fast_machine(),
        min_input_bytes=16, faults=plan,
        policy=RetryPolicy(max_retries=6, timeout_s=120.0))
    return Supervisor(config, SyntheticSource(seed=seed))


@SLOW
@given(script=st.sampled_from(SUP_SCRIPTS),
       seed=st.integers(min_value=0, max_value=10**6),
       crash_round=st.integers(min_value=0, max_value=3),
       where=st.sampled_from(WHERES),
       rate=st.floats(min_value=0.0, max_value=0.10))
def test_supervised_resume_byte_identical(script, seed, crash_round,
                                          where, rate):
    """Random script x random crash point x random fault rate: after a
    crash anywhere in the commit protocol (with vOS faults also firing
    mid-run), a resumed supervisor's committed output is byte-identical
    to a crash-free run over the same input."""
    rounds, grow = 4, 2048
    with tempfile.TemporaryDirectory() as root:
        sup = _make_supervisor(root, script, seed, rate)
        with pytest.raises(SimulatedCrash):
            sup.run_rounds(rounds, grow,
                           crashes=[CrashPoint(crash_round, where)])
        # the crash killed the process: recover in a fresh supervisor
        sup2 = _make_supervisor(root, script, seed, rate)
        sup2.resume()
        sup2.run_rounds(rounds - sup2.round, grow)
        full = sup2.source.read(0, sup2.source.available())
        assert len(full) >= rounds * grow
        assert sup2.committed_output() == _sup_reference(script, full), (
            script, seed, crash_round, where)
