"""One region reader, every engine: each redirect shape a region may
carry, and each argv a command reads differently from a flag-letter
scan, gives the interpreter's stdout, stderr, status and files.

Jash, the incremental engine and the misuse guard read expanded words,
PaSh and the host pool literal ones; all meet the one rule set in
``repro.dfg.from_ast.region_from_words``.  Each row names the engines
that must run the shape as a plan (or a cache hit), so the table cannot
pass by interpreting everything.
"""

from __future__ import annotations

import pytest

from repro import Shell
from repro.bench.workloads import words_text
from repro.compiler.optimizer import OptimizerConfig
from repro.compiler.pash_aot import PashConfig, PashOptimizer
from repro.incremental.engine import IncrementalConfig, IncrementalOptimizer
from repro.jit.engine import JashConfig, JashOptimizer
from repro.parallel_host import shutdown_global_pool
from repro.vos.machines import laptop

#: large enough that Jash's cost model takes a plan at width > 1
DATA = words_text(600_000, seed=3)
OTHER = words_text(600_000, seed=4)
EDITED = words_text(500_000, seed=5)
ALL = frozenset({"jash", "pash", "inc", "jobs2"})

#: (id, script, engines that must run it as a plan)
SHAPES = [
    (">", "sort /in.txt > /o", ALL),
    (">|", "sort /in.txt >| /o", ALL),
    # Jash, PaSh and the incremental engine open a sink for truncation
    (">>", "sort /in.txt >> /o", {"jobs2"}),
    ("1>", "sort /in.txt 1> /o", ALL),
    # the pool's own rule: no `< file` source
    ("<", "sort < /in.txt > /o", {"jash", "pash", "inc"}),
    ("< plus operand", "sort /in.txt < /other.txt > /o", set()),
    ("< missing < file", "sort < /missing < /in.txt > /o", set()),
    ("> a > b", "sort /in.txt > /a > /b", set()),
    ("2> e", "sort /in.txt 2> /e", set()),
    ("sink = input", "sort /in.txt > /in.txt", set()),
    ("sink = input via cat", "cat /in.txt | tr a-z A-Z > /in.txt", set()),
    # argvs read by the command's own grammar: `-ec` is `-e c`, not
    # `-e -c`; a usage error is the body's, once; `-tc` is `-t c`
    # (Jash's cost model keeps a stateless grep interpreted here)
    ("grep -ec", "grep -ec /in.txt | wc -l", {"pash", "inc"}),
    ("cat | grep -ec", "cat /in.txt | grep -ec | wc -l", {"pash", "inc"}),
    ("sort --unique", "sort --unique /in.txt", set()),
    ("uniq -s 2", "uniq -s 2 /in.txt", set()),
    ("sort -tc -k2", "sort -tc -k2 /in.txt", {"jash", "pash", "inc"}),
    # output files, not stdout: uniq's second operand, sort -o
    ("uniq IN OUT", "uniq /in.txt /out.txt", set()),
    ("sort -o", "sort -o /out.txt /in.txt", set()),
]
ENGINES = ("jash", "pash", "inc", "jobs2")


@pytest.fixture(autouse=True)
def pool_env(monkeypatch):
    """The pool ships every matched region (a floor of 0) in several
    parts; the global pool is torn down around each test."""
    monkeypatch.setenv("JASH_POOL_MIN_BYTES", "0")
    monkeypatch.setenv("JASH_POOL_PARTS", "4")
    monkeypatch.delenv("JASH_JOBS", raising=False)
    shutdown_global_pool()
    yield
    shutdown_global_pool()


def make_shell(engine: str) -> Shell:
    if engine == "jobs2":
        return Shell(laptop(), jobs=2)
    optimizer = {
        "sh": lambda: None,
        "jash": lambda: JashOptimizer(JashConfig(
            optimizer=OptimizerConfig(min_input_bytes=0))),
        "pash": lambda: PashOptimizer(PashConfig(width=4)),
        "inc": lambda: IncrementalOptimizer(
            IncrementalConfig(min_input_bytes=16)),
    }[engine]()
    return Shell(laptop(), optimizer=optimizer)


def planned(shell: Shell) -> bool:
    """Did the statement run as a plan or a cache hit?"""
    if shell.host_coord is not None:
        return shell.host_coord.stats["oracle_hits"] > 0
    # the statement's own event comes first: inner stages follow it
    return shell.optimizer.events[0].decision in (
        "optimized", "computed", "replayed", "extended")


def run_rows(engine: str, script: str, edit: bool = False):
    """The observable result of ``script`` (run twice, with the operand
    file edited in between, when ``edit``) and the shell it ran in."""
    shell = make_shell(engine)
    for path, data in (("/in.txt", DATA), ("/other.txt", OTHER),
                       ("/o", b"old\n")):
        shell.fs.write_bytes(path, data)
    results = [shell.run(script)]
    if edit:
        shell.fs.write_bytes("/in.txt", EDITED)
        results.append(shell.run(script))
    files = {path: shell.fs.read_bytes(path) for path in shell.fs.walk()}
    return [(r.stdout, r.stderr, r.status) for r in results], files, shell


def interpreted(script: str, edit: bool = False):
    rows, files, _shell = run_rows("sh", script, edit)
    return rows, files


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("script,plans", [s[1:] for s in SHAPES],
                         ids=[s[0] for s in SHAPES])
def test_engine_agrees_with_interpreter(script, plans, engine):
    rows, files, shell = run_rows(engine, script)
    want_rows, want_files = interpreted(script)
    assert rows == want_rows
    assert sorted(files) == sorted(want_files)
    assert files == want_files
    assert planned(shell) == (engine in plans)


@pytest.mark.parametrize("engine", ENGINES)
def test_edited_operand_between_runs(engine):
    # the incremental key must be the operand sort reads, not `< file`
    script = "sort /in.txt < /other.txt > /o"
    rows, files, _shell = run_rows(engine, script, edit=True)
    want_rows, want_files = interpreted(script, edit=True)
    assert rows == want_rows
    assert files == want_files
