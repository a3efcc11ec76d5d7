"""S16 — static-analysis dividend: certificate hit rate and the JIT
compile-time delta with the analyzer on vs off.

The whole-script analyzer (``repro.analysis``) runs once per program
and hands the JIT signed SafetyCertificates; at run time a certificate
hit replaces the per-node purity walk with a cheaper pre-screen
(``cert_probe_cost_s`` vs ``probe_cost_s``).  This benchmark runs a
workload family under ``JashOptimizer`` twice — ``static_analysis=True``
and ``False`` — and records:

* the certificate **hit rate** (hits / (hits + misses));
* the **virtual-time delta** (analysis on vs off): the compile-once
  dividend, visible because certificate hits charge less probe CPU;
* the analyzer's own **wall-clock cost** per script (host seconds):
  the pass the JIT pays for (purity verdicts only) and the whole report
  (every section read, what ``jash check`` pays);
* the witness that the JIT pays for nothing else: a ``JashOptimizer``
  run with no tracer or metrics makes **zero calls** into value flow,
  race detection, use-before-def and effect summaries;
* the invariant that stdout and produced files are **byte-identical**
  in both configurations — certificates precompute the runtime purity
  verdict, they never change a decision.

Run standalone: ``PYTHONPATH=src python benchmarks/bench_analysis.py
[--smoke]``; or under pytest-benchmark:
``pytest benchmarks/bench_analysis.py``.
"""

from __future__ import annotations

import argparse
import sys
import time
from collections import Counter
from contextlib import ExitStack, contextmanager
from pathlib import Path
from unittest import mock

try:  # script mode without an installed package
    import repro  # noqa: F401
except ImportError:  # pragma: no cover
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro import JashConfig, JashOptimizer, Shell
from repro.analysis import analyze_program
from repro.bench import format_table, words_text
from repro.compiler import OptimizerConfig
from repro.parser import parse
from repro.vos.machines import laptop

from common import bench_mb, once, record

#: the workload family: literal pipelines (all certified), dynamic
#: words (certified — plain reads are pure), a multi-statement script,
#: and an impure expansion (unsafe certificate, JIT must not expand)
SCRIPTS = {
    "wordfreq": (
        "cat /w.txt | tr -cs A-Za-z '\\n' | tr A-Z a-z | sort | uniq -c"
        " | sort -rn | head -n 5 > /out.txt"
    ),
    "spell-dynamic": (
        "DICT=/dict\nFILES=/w.txt\n"
        "cat $FILES | tr A-Z a-z | tr -cs a-z '\\n' | sort -u"
        " | comm -13 $DICT - > /out.txt"
    ),
    "multi-statement": (
        "grep -c the /w.txt > /c1\n"
        "wc -l /w.txt > /c2\n"
        "cat /c1 /c2 > /out.txt"
    ),
    "impure-expansion": (
        "head -n ${n:=3} /w.txt | sort > /out.txt"
    ),
}


def make_files(n_bytes: int) -> dict[str, bytes]:
    words = words_text(n_bytes, seed=7)
    dictionary = b"\n".join(sorted(set(words.lower().split()))) + b"\n"
    return {"/w.txt": words, "/dict": dictionary}


@contextmanager
def section_spies():
    """Count calls into the routines behind ``AnalysisResult``'s lazy
    sections (the spies of tests/test_analysis_demand.py)."""
    import repro.analysis.absint as absint
    import repro.analysis.certificates as certificates
    from repro.analysis import EffectAnalyzer

    calls: Counter = Counter()

    def counting(name, fn):
        def spy(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return spy

    with ExitStack() as stack:
        for owner, name in ((absint, "analyze_value_flow"),
                            (certificates, "detect_races"),
                            (certificates, "use_before_def"),
                            (EffectAnalyzer, "compute")):
            stack.enter_context(mock.patch.object(
                owner, name, counting(name, getattr(owner, name))))
        yield calls


def run_one(script: str, files: dict[str, bytes], static_analysis: bool):
    """One run; returns (virtual_s, stdout, /out.txt bytes, optimizer)."""
    optimizer = JashOptimizer(JashConfig(
        static_analysis=static_analysis,
        optimizer=OptimizerConfig(min_input_bytes=4096),
    ))
    shell = Shell(laptop(), optimizer=optimizer)
    for path, data in files.items():
        shell.fs.write_bytes(path, data)
    result = shell.run(script)
    assert result.status == 0, (script, result.err)
    out = shell.fs.read_bytes("/out.txt")
    return result.elapsed, result.stdout, out, optimizer


def collect(n_bytes: int) -> dict:
    files = make_files(n_bytes)
    rows = {}
    for name, script in SCRIPTS.items():
        t0 = time.perf_counter()
        analysis = analyze_program(parse(script))
        jit_wall = time.perf_counter() - t0
        stats = analysis.stats()  # reads every section
        analyze_wall = time.perf_counter() - t0
        with section_spies() as unread:
            on_vt, on_stdout, on_file, on_opt = run_one(script, files, True)
        off_vt, off_stdout, off_file, off_opt = run_one(script, files, False)
        rows[name] = {
            "jit_wall_s": jit_wall,
            "analyze_wall_s": analyze_wall,
            "unread_section_calls": dict(unread),
            "stats": stats,
            "virtual_on_s": on_vt,
            "virtual_off_s": off_vt,
            "delta_s": off_vt - on_vt,
            "cert_hits": on_opt.cert_hits,
            "cert_misses": on_opt.cert_misses,
            "hit_rate": on_opt.cert_hit_rate,
            "identical": (on_stdout == off_stdout and on_file == off_file),
            "off_used_certs": off_opt.cert_hits,
        }
    return {"scripts": rows, "n_bytes": n_bytes}


def check(results: dict) -> None:
    """The acceptance assertions (shared by pytest and --smoke)."""
    for name, row in results["scripts"].items():
        # certificates precompute, never change, the engine's decisions
        assert row["identical"], f"{name}: output differs analyzer on/off"
        # the ablation config really is the pure JIT
        assert row["off_used_certs"] == 0, name
        # every candidate the compile-once pass saw produces a hit
        assert row["cert_hits"] > 0, f"{name}: no certificate consulted"
        assert row["hit_rate"] == 1.0, (name, row["hit_rate"])
        # the cheaper pre-screen is visible on the virtual clock
        assert row["virtual_on_s"] <= row["virtual_off_s"], name
        # the JIT paid for its purity verdicts and for nothing else
        assert not row["unread_section_calls"], \
            (name, row["unread_section_calls"])
    stats = results["scripts"]["impure-expansion"]["stats"]
    assert stats["unsafe"] >= 1, "impure expansion not certified unsafe"


def analysis_table(results: dict) -> tuple[str, dict]:
    rows = []
    for name, row in results["scripts"].items():
        rows.append([
            name,
            f"{row['cert_hits']}/{row['cert_hits'] + row['cert_misses']}",
            f"{row['hit_rate']:.0%}",
            f"{row['virtual_on_s']:.6f}",
            f"{row['virtual_off_s']:.6f}",
            f"{row['delta_s'] * 1e6:+.1f}us",
            f"{row['jit_wall_s'] * 1e3:.2f}ms",
            f"{row['analyze_wall_s'] * 1e3:.2f}ms",
            "yes" if row["identical"] else "NO",
        ])
    table = format_table(
        ["script", "cert hit/total", "hit rate", "virtual on",
         "virtual off", "delta", "jit pass", "full report", "identical"],
        rows, title="S16: certificate hit rate and JIT delta "
                    f"({results['n_bytes'] / 1e6:.1f} MB input)",
    )
    return table, results["scripts"]


# -- S20: abstract-interpretation section -------------------------------------

#: a constant-bound workload with a provably-dead branch: the S20 pass
#: must prune the dead region while leaving the live decisions (and all
#: output bytes) untouched with value_flow on or off
DEAD_SCRIPT = (
    "x=1\n"
    "if [ $x -eq 2 ]; then cat /w.txt | sort > /out.txt; fi\n"
    "cat /w.txt | sort | uniq > /out.txt"
)

#: commands that stop reading before end-of-input: their static volume
#: is a sound upper bound but not a tight estimate
PREFIX_READERS = frozenset(("head",))


def collect_absint(n_bytes: int) -> dict:
    """Per-script absint wall time, dead branches, and the static-vs-
    observed volume comparison (cost-model error)."""
    from repro.compiler.cost import StaticCosts
    from repro.obs import MetricsRegistry
    from repro.obs.metrics import ObservedCosts

    files = make_files(n_bytes)
    scripts = dict(SCRIPTS)
    scripts["const-dead"] = DEAD_SCRIPT
    rows = {}
    for name, script in scripts.items():
        metrics = MetricsRegistry()
        optimizer = JashOptimizer(JashConfig(
            optimizer=OptimizerConfig(min_input_bytes=4096)))
        shell = Shell(laptop(), optimizer=optimizer, metrics=metrics)
        for path, data in files.items():
            shell.fs.write_bytes(path, data)
        program = parse(script)
        t0 = time.perf_counter()
        analysis = analyze_program(program, fs=shell.fs)
        analysis.absint  # computed on this first read
        absint_wall = time.perf_counter() - t0
        result = shell.run(script)
        assert result.status == 0, (name, result.err)
        metrics.finish(shell.kernel.now)
        observed = ObservedCosts.from_registry(metrics)
        static = StaticCosts.from_analysis(analysis)
        # cost-model error: the certificate's first-stage volume bound
        # vs the bytes the metrics plane actually saw that command read.
        # Prefix readers (head) stop early, so for them the static
        # volume is an upper *bound*, not an estimate — recorded but
        # excluded from the 2x accuracy gate.
        comparisons = []
        for cert in analysis.absint.cost_list:
            if cert.kind != "region" or not cert.stage_bytes:
                continue
            cmd, static_bytes = cert.stage_bytes[0]
            observed_bytes = (observed.bytes_seen.get(cmd, 0.0)
                              if observed is not None else 0.0)
            if observed_bytes > 0 and static_bytes > 0:
                comparisons.append({
                    "command": cmd, "static": static_bytes,
                    "observed": observed_bytes,
                    "ratio": static_bytes / observed_bytes,
                    "bound_only": cmd in PREFIX_READERS,
                })
        stats = analysis.absint.stats()
        rows[name] = {
            "absint_wall_s": absint_wall,
            "nodes": stats["absint_nodes"],
            "widenings": stats["absint_widenings"],
            "dead_branches": stats["dead_branches"],
            "cost_certs": stats["cost_certs"],
            "static_costs": len(static),
            "comparisons": comparisons,
        }
    # the on/off bit-identity run for the dead-branch workload
    on = _run_value_flow(DEAD_SCRIPT, files, True)
    off = _run_value_flow(DEAD_SCRIPT, files, False)
    rows["const-dead"]["identical_on_off"] = (on == off)
    return {"scripts": rows, "n_bytes": n_bytes}


def _run_value_flow(script: str, files: dict[str, bytes],
                    value_flow: bool) -> tuple[bytes, bytes]:
    optimizer = JashOptimizer(JashConfig(
        value_flow=value_flow,
        optimizer=OptimizerConfig(min_input_bytes=4096)))
    shell = Shell(laptop(), optimizer=optimizer)
    for path, data in files.items():
        shell.fs.write_bytes(path, data)
    result = shell.run(script)
    assert result.status == 0, result.err
    return result.stdout, shell.fs.read_bytes("/out.txt")


def check_absint(results: dict) -> None:
    """S20 acceptance: dead branches found, volume bounds within 2x of
    the metrics plane, pruning changes no output byte."""
    rows = results["scripts"]
    assert rows["const-dead"]["dead_branches"] >= 1, \
        "dead branch not found in the constant-guard workload"
    assert rows["const-dead"]["identical_on_off"], \
        "value-flow pruning changed output bytes"
    all_comparisons = [c for row in rows.values()
                       for c in row["comparisons"]]
    gated = [c for c in all_comparisons if not c["bound_only"]]
    assert gated, "no static-vs-observed volume comparison ran"
    for c in gated:
        assert 0.5 <= c["ratio"] <= 2.0, \
            f"static volume {c['static']} vs observed {c['observed']} " \
            f"for {c['command']}: off by more than 2x"
    # the bound is still a bound, even for prefix readers
    for c in all_comparisons:
        assert c["ratio"] >= 0.5, \
            f"static volume bound below observed bytes for {c['command']}"
    for name, row in rows.items():
        assert row["nodes"] > 0, name


def absint_table(results: dict) -> tuple[str, dict]:
    rows = []
    for name, row in results["scripts"].items():
        worst = max((abs(c["ratio"] - 1.0) for c in row["comparisons"]
                     if not c["bound_only"]), default=None)
        rows.append([
            name,
            f"{row['absint_wall_s'] * 1e3:.2f}ms",
            row["nodes"],
            row["widenings"],
            row["dead_branches"],
            row["cost_certs"],
            f"{worst:+.1%}" if worst is not None else "-",
        ])
    table = format_table(
        ["script", "absint wall", "nodes", "widenings", "dead",
         "cost certs", "worst vol err"],
        rows, title="S20: abstract interpretation "
                    f"({results['n_bytes'] / 1e6:.1f} MB input)",
    )
    return table, results["scripts"]


# -- pytest-benchmark entry points --------------------------------------------

import pytest


@pytest.fixture(scope="module")
def analysis_results():
    return collect(max(256_000, int(bench_mb() * 1e6 / 16)))


@pytest.fixture(scope="module")
def absint_results():
    return collect_absint(max(256_000, int(bench_mb() * 1e6 / 16)))


def test_analysis_table(analysis_results, benchmark):
    once(benchmark, lambda: None)
    table, metrics = analysis_table(analysis_results)
    record("analysis", table, metrics=metrics)


def test_analysis_acceptance(analysis_results, benchmark):
    once(benchmark, lambda: None)
    check(analysis_results)


def test_absint_table(absint_results, benchmark):
    once(benchmark, lambda: None)
    table, metrics = absint_table(absint_results)
    record("analysis_absint", table, metrics=metrics)


def test_absint_acceptance(absint_results, benchmark):
    once(benchmark, lambda: None)
    check_absint(absint_results)


# -- standalone / CI smoke ----------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small workload for CI (~256 KB)")
    parser.add_argument("--mb", type=float, default=None,
                        help="workload size in MB (overrides --smoke)")
    args = parser.parse_args(argv)
    if args.mb is not None:
        n_bytes = int(args.mb * 1e6)
    elif args.smoke:
        n_bytes = 256_000
    else:
        n_bytes = max(256_000, int(bench_mb() * 1e6 / 16))
    results = collect(n_bytes)
    table, metrics = analysis_table(results)
    absint_res = collect_absint(n_bytes)
    abs_table, abs_metrics = absint_table(absint_res)
    if args.smoke:
        print(table)
        print(abs_table)
    else:
        record("analysis", table, metrics=metrics)
        record("analysis_absint", abs_table, metrics=abs_metrics)
    check(results)
    check_absint(absint_res)
    print("S16/S20: all acceptance checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
