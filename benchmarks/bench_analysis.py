"""S16 — static-analysis dividend: certificate hit rate and the
analyzer's own cost.

The whole-script analyzer (``repro.analysis``) runs once per program
and hands the JIT its verdict table; at run time a certificate hit
replaces the per-node purity walk with a cheaper pre-screen
(``cert_probe_cost_s`` vs ``probe_cost_s``, a constant ratio).  This
benchmark runs a workload family under ``JashOptimizer`` and records:

* the certificate **hit rate** (hits / (hits + misses));
* the analyzer's own **wall-clock cost** per script (host seconds):
  the pass the JIT pays for (purity verdicts only) and the whole report
  (every section read, what ``jash check`` pays);
* the witness that the JIT pays for nothing else: a ``JashOptimizer``
  run with no tracer or metrics makes **zero calls** into value flow,
  race detection, use-before-def and effect summaries;
* the invariant that stdout and produced files are **byte-identical**
  to the plain interpreter's — certificates precompute the runtime
  purity verdict, they never change a result.

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


def run_one(script: str, files: dict[str, bytes], optimizer=None):
    """One run (the plain interpreter when ``optimizer`` is None);
    returns (virtual_s, stdout, /out.txt bytes)."""
    shell = Shell(laptop(), optimizer=optimizer, jobs=1)
    for path, data in files.items():
        shell.fs.write_bytes(path, data)
    result = shell.run(script)
    assert result.status == 0, (script, result.err)
    return result.elapsed, result.stdout, shell.fs.read_bytes("/out.txt")


def collect(n_bytes: int) -> dict:
    files = make_files(n_bytes)
    rows = {}
    for name, script in SCRIPTS.items():
        t0 = time.perf_counter()
        analysis = analyze_program(parse(script))
        jit_wall = time.perf_counter() - t0
        stats = analysis.stats()  # reads every section
        analyze_wall = time.perf_counter() - t0
        optimizer = JashOptimizer(JashConfig(
            optimizer=OptimizerConfig(min_input_bytes=4096)))
        with section_spies() as unread:
            virtual_s, *jash = run_one(script, files, optimizer)
        _, *interpreted = run_one(script, files)
        rows[name] = {
            "jit_wall_s": jit_wall,
            "analyze_wall_s": analyze_wall,
            "unread_section_calls": dict(unread),
            "stats": stats,
            "virtual_s": virtual_s,
            "cert_hits": optimizer.cert_hits,
            "cert_misses": optimizer.cert_misses,
            "hit_rate": optimizer.cert_hit_rate,
            "identical": jash == interpreted,
        }
    return {"scripts": rows, "n_bytes": n_bytes}


def check(results: dict) -> None:
    """The acceptance assertions (shared by pytest and --smoke)."""
    for name, row in results["scripts"].items():
        # certificates precompute the runtime verdict, never a result
        assert row["identical"], f"{name}: output differs from sh"
        # every candidate the compile-once pass saw produces a hit
        assert row["cert_hits"] > 0, f"{name}: no certificate consulted"
        assert row["hit_rate"] == 1.0, (name, row["hit_rate"])
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
            f"{row['virtual_s']:.6f}",
            f"{row['jit_wall_s'] * 1e3:.2f}ms",
            f"{row['analyze_wall_s'] * 1e3:.2f}ms",
            "yes" if row["identical"] else "NO",
        ])
    table = format_table(
        ["script", "cert hit/total", "hit rate", "virtual s", "jit pass",
         "full report", "identical"],
        rows, title="S16: certificate hit rate and analyzer cost "
                    f"({results['n_bytes'] / 1e6:.1f} MB input)",
    )
    return table, results["scripts"]


# -- S20: abstract-interpretation section -------------------------------------

#: a workload with a provably-dead branch: the S20 pass must find it
DEAD_SCRIPT = (
    "x=1\n"
    "if [ $x -eq 2 ]; then cat /w.txt | sort > /out.txt; fi\n"
    "cat /w.txt | sort | uniq > /out.txt"
)


def collect_absint() -> dict:
    """Per-script absint wall time, nodes, widenings and dead branches."""
    scripts = dict(SCRIPTS)
    scripts["const-dead"] = DEAD_SCRIPT
    rows = {}
    for name, script in scripts.items():
        program = parse(script)
        t0 = time.perf_counter()
        stats = analyze_program(program).absint.stats()  # computed here
        rows[name] = {
            "absint_wall_s": time.perf_counter() - t0,
            "nodes": stats["absint_nodes"],
            "widenings": stats["absint_widenings"],
            "dead_branches": stats["dead_branches"],
        }
    return {"scripts": rows}


def check_absint(results: dict) -> None:
    """S20 acceptance: the dead branch is found, every script is walked."""
    rows = results["scripts"]
    assert rows["const-dead"]["dead_branches"] >= 1, \
        "dead branch not found in the constant-guard workload"
    for name, row in rows.items():
        assert row["nodes"] > 0, name


def absint_table(results: dict) -> tuple[str, dict]:
    rows = [[name, f"{row['absint_wall_s'] * 1e3:.2f}ms", row["nodes"],
             row["widenings"], row["dead_branches"]]
            for name, row in results["scripts"].items()]
    table = format_table(
        ["script", "absint wall", "nodes", "widenings", "dead"],
        rows, title="S20: abstract interpretation",
    )
    return table, results["scripts"]


# -- pytest-benchmark entry points --------------------------------------------

import pytest


@pytest.fixture(scope="module")
def analysis_results():
    return collect(max(256_000, int(bench_mb() * 1e6 / 16)))


@pytest.fixture(scope="module")
def absint_results():
    return collect_absint()


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
    absint_res = collect_absint()
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
