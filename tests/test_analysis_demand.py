"""The whole-script analyzer is demand-driven (PR 15): ``analyze_program``
walks once for the purity verdicts and every other section of the
``AnalysisResult`` is computed when first read.  These tests pin the two
halves of that contract — nothing the JIT does not read is computed, and
what is read has the value the eager pass gave."""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

import repro.analysis
from repro import JashOptimizer, PashOptimizer, Shell, Tracer
from repro.analysis import EffectAnalyzer, analyze_program
from repro.difftest import generate_cases, load_sessions, profiles
from repro.obs import MetricsRegistry
from repro.parser import parse

from .conftest import fast_machine

ROOT = Path(__file__).resolve().parent.parent

#: dead branch, loop, unsafe expansion, background race: every section
#: of the report has something to say about it
SCRIPT = """x=1
if [ $x -eq 2 ]; then cat /w.txt | sort > /out.txt; fi
for f in /w.txt /d.txt; do cat $f | sort | uniq > /out.txt; done
head -n ${n:=3} /w.txt | sort
sort /a > /o &
sort /b > /o
echo $undefined
"""
FILES = {"/w.txt": b"b\na\nb\n" * 100, "/d.txt": b"z\n",
         "/a": b"2\n1\n", "/b": b"4\n3\n"}
#: what the eager pass (the parent commit) reported for SCRIPT over FILES
ABSINT_STATS = {"absint_nodes": 22, "absint_widenings": 0,
                "dead_branches": 1}
RUN_STATS = {"statements": 10, "certificates": 11, "safe_parallel": 9,
             "unsafe": 2, "races": 1, "use_before_def": 0, **ABSINT_STATS}
VERDICTS = ["safe_parallel", "safe_parallel", "safe_parallel",
            "safe_parallel", "safe_parallel", "safe_parallel",
            "safe_parallel", "safe_parallel", "safe_parallel", "unsafe",
            "unsafe", "safe_parallel", "safe_parallel", "safe_parallel",
            "safe_parallel"]


def run_jash(script=SCRIPT, files=FILES, optimizer=None, **planes):
    optimizer = optimizer or JashOptimizer()
    # jobs=1: what the JIT alone reads, also when CI reruns the suite
    # under JASH_JOBS=2 (the pool's region detection reads certificates)
    shell = Shell(fast_machine(), optimizer=optimizer, jobs=1, **planes)
    for path, data in files.items():
        shell.fs.write_bytes(path, data)
    return shell.run(script), optimizer


@pytest.fixture
def section_calls(monkeypatch):
    """Call counts of the four routines behind the lazy sections."""
    import repro.analysis.absint as absint
    import repro.analysis.certificates as certificates

    calls = dict.fromkeys(("analyze_value_flow", "detect_races",
                           "use_before_def", "EffectAnalyzer.compute"), 0)

    def counting(name, fn):
        def spy(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return spy

    monkeypatch.setattr(absint, "analyze_value_flow", counting(
        "analyze_value_flow", absint.analyze_value_flow))
    monkeypatch.setattr(certificates, "detect_races", counting(
        "detect_races", certificates.detect_races))
    monkeypatch.setattr(certificates, "use_before_def", counting(
        "use_before_def", certificates.use_before_def))
    monkeypatch.setattr(EffectAnalyzer, "compute", counting(
        "EffectAnalyzer.compute", EffectAnalyzer.compute))
    return calls


class TestJitPaysForWhatItReads:
    def test_unread_sections_cost_nothing(self, section_calls):
        result, optimizer = run_jash()
        assert result.status == 0
        assert optimizer.cert_hits == len(VERDICTS)
        assert optimizer.cert_misses == 0
        assert not any(section_calls.values()), section_calls

    def test_spies_see_the_sections_when_read(self, section_calls):
        analyze_program(parse(SCRIPT)).stats()
        assert all(section_calls.values()), section_calls

    def test_tracer_gets_the_eager_records(self):
        tracer = Tracer()
        run_jash(tracer=tracer)
        records = {r.name: r.args for r in tracer.records
                   if r.cat == "analysis"}
        assert records == {"analysis.run": RUN_STATS,
                           "analysis.absint": ABSINT_STATS}
        assert [r.args["verdict"] for r in tracer.records
                if r.name == "jit.cert_hit"] == VERDICTS

    def test_metrics_get_the_eager_counters(self, section_calls):
        metrics = MetricsRegistry()
        run_jash(metrics=metrics)
        assert {name: metrics.value("analysis.absint." + name)
                for name in ("nodes", "widenings", "dead_branches")} == \
            {"nodes": 22, "widenings": 0, "dead_branches": 1}
        # a registry reads absint's counters and nothing else
        assert section_calls == {"analyze_value_flow": 1, "detect_races": 0,
                                 "use_before_def": 0,
                                 "EffectAnalyzer.compute": 0}


class TestPashPaysForWhatItReads:
    def test_aot_pass_makes_no_effect_summaries(self, section_calls):
        # PaSh reads the certificate table and the dead set: value flow,
        # and nothing of the effect pass, races or use-before-def
        shell = Shell(fast_machine(), optimizer=PashOptimizer(), jobs=1)
        for path, data in FILES.items():
            shell.fs.write_bytes(path, data)
        assert shell.run(SCRIPT).status == 0
        assert section_calls == {"analyze_value_flow": 1, "detect_races": 0,
                                 "use_before_def": 0,
                                 "EffectAnalyzer.compute": 0}


# -- lazy == eager over the conformance grammar -------------------------------

def force(result):
    """Read every section, last-computed first."""
    result.use_before_def, result.races, result.statements, result.effects
    result.certificates, result.absint
    return result


def eager_analyze(*args, **kwargs):
    return force(analyze_program(*args, **kwargs))


class AskedNodes(JashOptimizer):
    """Records which nodes the interpreter offered to the JIT."""

    def __init__(self):
        super().__init__()
        self.asked: set[int] = set()

    def try_execute(self, interp, proc, node):
        self.asked.add(id(node))
        return super().try_execute(interp, proc, node)


def observed(result, optimizer):
    return (result.status, result.stdout, result.elapsed,
            [dataclasses.astuple(e) for e in optimizer.events],
            optimizer.cert_hits, optimizer.cert_misses)


@pytest.mark.parametrize("profile", profiles())
def test_lazy_equals_eager_reference(profile, monkeypatch):
    cases = generate_cases(5, 25, profile)  # 225 scripts over nine profiles
    files = [{"/" + name: data for name, data in case.files.items()}
             for case in cases]
    lazy = [observed(*run_jash(case.script, fs))
            for case, fs in zip(cases, files)]
    # the engine looks analyze_program up in the package at call time
    monkeypatch.setattr(repro.analysis, "analyze_program", eager_analyze)
    for case, fs, want in zip(cases, files, lazy):
        result, optimizer = run_jash(case.script, fs, AskedNodes())
        assert observed(result, optimizer) == want, case.ident
        # why the verdict table need not drop dead regions: a node value
        # flow proves dead is never offered to the JIT
        dead = frozenset().union(*(analysis.dead_nodes()
                                   for analysis in optimizer._analyses))
        assert not (optimizer.asked & dead), case.ident


# -- the report is the parent's, byte for byte --------------------------------

GOLDEN = json.loads((ROOT / "tests" / "corpus"
                     / "analysis_golden.json").read_text())


def golden_script(name: str) -> str:
    if name.startswith("session-"):
        return next(t.script for t in load_sessions()
                    if t.name == name[len("session-"):])
    return (ROOT / "examples" / name).read_text()


def test_golden_covers_every_example_and_session():
    names = {p.name for p in (ROOT / "examples").glob("*.sh")}
    names |= {f"session-{t.name}" for t in load_sessions()}
    assert set(GOLDEN) == names


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_to_dict_matches_golden(name):
    report = analyze_program(parse(golden_script(name))).to_dict()
    assert json.dumps(report, sort_keys=True) == \
        json.dumps(GOLDEN[name], sort_keys=True)


# -- sections are values of the call, not of the moment they are read ---------

class TestSections:
    def test_read_order_does_not_matter(self):
        program = parse(SCRIPT)
        forwards = analyze_program(program)
        forwards.absint, forwards.certificates
        # the host pool asks for top-level summaries before any report
        for item in program.items:
            forwards.effects.compute(item.command)
        forwards.races
        assert force(analyze_program(program)).to_dict() == \
            forwards.to_dict()

    def test_sections_are_computed_once(self):
        result = analyze_program(parse(SCRIPT))
        assert result.absint is result.absint
        assert result.certificates is result.certificates
        assert result.effects is result.effects
        assert result.statements is result.statements
        assert result.races is result.races
        assert result.use_before_def is result.use_before_def

    def test_purity_table_keeps_dead_regions(self):
        result = analyze_program(parse(SCRIPT))
        dead = result.dead_nodes() & set(result.purity)
        assert dead, "the dead branch holds a candidate region"
        assert not dead & set(result.certificates)
        assert set(result.certificates) == set(result.purity) - dead
