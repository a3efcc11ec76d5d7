"""S20 — the abstract-interpretation value-flow analyzer: domains,
dead-branch facts, JS4xxx diagnostics, and how both optimizers consume
the dead set."""

import json
from pathlib import Path

import pytest

from repro import Shell
from repro.analysis.absint import (
    ABSINT_VERSION,
    AbsStatus,
    S_ONE,
    S_TOP,
    S_ZERO,
    TOP,
    UNSET,
    analyze_value_flow,
    join_value,
    sjoin,
    snot,
    vconst,
)
from repro.compiler import PashOptimizer
from repro.difftest import generate_cases, profiles
from repro.parser import parse


def flow(src: str):
    return analyze_value_flow(parse(src))


def codes(src: str) -> list:
    return [f.code for f in flow(src).findings]


def dead_texts(src: str) -> set:
    from repro.parser.unparse import unparse

    return {unparse(d.node) for d in flow(src).dead_list}


# ---------------------------------------------------------------------------
# Domains
# ---------------------------------------------------------------------------


class TestValueDomain:
    def test_join_equal_consts(self):
        assert join_value(vconst("a"), vconst("a")) == vconst("a")

    def test_join_disjoint_consts_top(self):
        assert join_value(vconst("abc"), vconst("xyz")) == TOP

    def test_join_unequal_consts_common_prefix(self):
        # no prefix is kept: a shared head is still ⊤
        assert join_value(vconst("file1"), vconst("file2")) == TOP

    def test_join_unset_is_top(self):
        # maybe-unset must not masquerade as a known value
        assert join_value(UNSET, vconst("x")) == TOP

    def guard_after(self, init: str, head: str, body: str,
                    guard: str) -> list:
        src = f"{init}\n{head} {body}; done\nif {guard}; then echo y; fi"
        return [f.message for f in flow(src).findings]

    def test_widen_stable_value_unchanged(self):
        assert self.guard_after("x=a", "while read l; do", "x=a",
                                '[ "$x" = a ]') == ["guard is always true"]

    def test_widen_incomparable_is_top(self):
        assert self.guard_after("x=a", "while read l; do", "x=b",
                                '[ "$x" = a ]') == []

    def test_widen_drops_unstable_bounds(self):
        # a counter changes every trip: it widens to ⊤, no bound is kept
        result = flow("n=0\nwhile [ $n -lt 3 ]; do n=$((n + 1)); done\n"
                      "if [ $n -ge 0 ]; then echo y; fi")
        assert result.widenings >= 1
        assert not result.findings and not result.dead


class TestStatusDomain:
    def test_singletons(self):
        assert S_ZERO.is_zero and not S_ZERO.is_nonzero
        assert S_ONE.is_nonzero
        assert not S_TOP.is_zero and not S_TOP.is_nonzero

    def test_join_and_negate(self):
        assert sjoin(S_ZERO, S_ONE) == AbsStatus(0, 1)
        assert snot(S_ZERO) == S_ONE
        assert snot(S_ONE) == S_ZERO
        assert snot(S_TOP) == S_TOP


# ---------------------------------------------------------------------------
# Dead-branch facts and diagnostics
# ---------------------------------------------------------------------------


class TestDeadBranches:
    def test_code_after_exit(self):
        result = flow("echo a\nexit 0\necho b\necho c")
        assert "JS4001" in [f.code for f in result.findings]
        assert dead_texts("echo a\nexit 0\necho b\necho c") == \
            {"echo b", "echo c"}

    def test_const_guard_if_true(self):
        assert "JS4002" in codes("if true; then echo a; else echo b; fi")
        assert "echo b" in dead_texts(
            "if true; then echo a; else echo b; fi")

    def test_const_folding_through_arith(self):
        src = "x=3\ny=$((x * 2))\nif [ $y -eq 6 ]; then echo a; else echo b; fi"
        assert "JS4002" in codes(src)
        assert "echo b" in dead_texts(src)

    def test_errexit_const_failure_kills_rest(self):
        src = "set -e\nfalse\necho after"
        assert "echo after" in dead_texts(src)

    def test_guarded_failure_survives_errexit(self):
        src = "set -e\nif false; then echo a; fi\necho after"
        assert "echo after" not in dead_texts(src)

    def test_case_const_subject_prunes_arms(self):
        src = ("x=b\ncase $x in\n  a) echo one;;\n  b) echo two;;\n"
               "  c) echo three;;\nesac")
        dead = dead_texts(src)
        assert "echo one" in dead and "echo three" in dead
        assert "echo two" not in dead

    def test_unmatched_glob_is_never_a_dead_fact(self):
        # POSIX keeps an unmatched pattern literally: the body runs once;
        # and the analysis sees no file system, so a glob is never empty
        result = flow("for f in /nosuch/*.txt; do echo $f; done")
        assert not result.dead
        assert "JS4006" not in [f.code for f in result.findings]

    # a word reads as the expander reads it: a quoted `*` pattern is no
    # catch-all, `~` and a glob beside a parameter are not their text
    @pytest.mark.parametrize("src,live", [
        ("case a in '*') exit 1;; esac; echo after", "echo after"),
        ('x=~/a; if [ "$x" = "~/a" ]; then echo same; else echo home; fi',
         "echo home"),
        ('e=; for f in /d/*.txt$e; do if [ "$f" = /d/b.txt ]; '
         'then echo hit; fi; done', "echo hit"),
    ])
    def test_expanded_word_is_no_dead_fact(self, src, live):
        shell = Shell()
        shell.fs.write_bytes("/d/a.txt", b"")
        shell.fs.write_bytes("/d/b.txt", b"")
        out = live.removeprefix("echo ").encode() + b"\n"
        assert shell.run(src).stdout == out
        assert live not in dead_texts(src)
        assert not {"JS4001", "JS4002"} & set(codes(src))

    # argv words split into fields as the interpreter splits them: the
    # expander's own splitter, under the state's IFS
    @pytest.mark.parametrize("src,stdin,out,guard", [
        ('x="a = b"; if [ $x ]; then echo yes; else echo no; fi', b"",
         b"no\n", "guard is always false"),
        ('IFS=:; x="a:=:b"; if [ $x ]; then echo yes; else echo no; fi', b"",
         b"no\n", "guard is always false"),
        ('x=" a "; if [ $x = a ]; then echo yes; else echo no; fi', b"",
         b"yes\n", "guard is always true"),
        # an unknown IFS gives unknown fields
        ('read IFS; x="a=b"; if [ $x ]; then echo yes; else echo no; fi',
         b"=\n", b"no\n", None),
    ])
    def test_argv_fields_split_by_ifs(self, src, stdin, out, guard):
        assert Shell().run(src, stdin=stdin).stdout == out
        guards = [f.message for f in flow(src).findings if f.code == "JS4002"]
        assert guards == ([guard] if guard else [])
        live = out.decode().strip()
        assert f"echo {live}" not in dead_texts(src)

    def test_dead_set_covers_descendants(self):
        result = flow("exit 0\nif true; then echo a; fi")
        # every node inside the dead `if` is in the id-set
        from repro.parser.ast_nodes import walk

        program = result.program
        dead_root = program.items[1].command
        for sub in walk(dead_root):
            assert id(sub) in result.dead


class TestDiagnostics:
    def test_all_six_codes_fire(self):
        src = (
            "set -u\n"
            "echo $late\n"                        # JS4004
            "late=1\n"
            "if true; then echo a; fi\n"          # JS4002
            "false && echo never\n"               # JS4005
            "for i in $(seq 5 1); do echo $i; done\n"  # JS4006
            "while :; do echo spin; done\n"       # JS4003
            "echo unreachable\n"                  # JS4001
        )
        found = set(codes(src))
        assert {"JS4001", "JS4002", "JS4003", "JS4004", "JS4005",
                "JS4006"} <= found

    def test_counted_loop_not_infinite(self):
        src = "n=0\nwhile [ $n -lt 3 ]; do n=$((n + 1)); done\necho done"
        assert "JS4003" not in codes(src)
        assert dead_texts(src) == set()

    def test_loop_with_break_not_infinite(self):
        assert "JS4003" not in codes("while :; do break; done")

    def test_loop_with_kill_gets_benefit_of_doubt(self):
        assert "JS4003" not in codes("while :; do kill -0 $$; done")

    def test_until_false_is_infinite(self):
        assert "JS4003" in codes("until false; do echo spin; done")

    def test_js4004_needs_nounset(self):
        assert "JS4004" not in codes("echo $late\nlate=1")

    def test_js4004_env_vars_silent(self):
        # never assigned anywhere => assumed from the environment
        assert "JS4004" not in codes("set -u\necho $HOME")

    def test_js4004_explicit_unset(self):
        assert "JS4004" in codes("set -u\nx=1\nunset x\necho $x")

    def test_widening_counted(self):
        result = flow("n=0\nwhile [ $n -lt 3 ]; do n=$((n + 1)); done")
        assert result.widenings >= 1
        assert result.stats()["absint_widenings"] == result.widenings

    def test_function_exit_inlined(self):
        src = "die() { exit 1; }\ndie\necho after"
        assert "echo after" in dead_texts(src)

    def test_pipeline_stage_exit_does_not_escape(self):
        src = "true | exit 1\necho after"
        assert "echo after" not in dead_texts(src)

    def test_pipefail_status_is_any_stage(self):
        src = ("set -o pipefail\n"
               "if false | true; then echo y; else echo n; fi")
        assert Shell().run(src).stdout == b"n\n"
        assert dead_texts(src) == set()


# ---------------------------------------------------------------------------
# One semantics: each row runs in the interpreter and in value flow
# ---------------------------------------------------------------------------


#: (script, interpreter status and stdout, dead roots, JS4002 verdicts,
#: other codes).  Value flow runs the interpreter's own expander, `test`,
#: case matcher and `set` parse, so a constant input gets the
#: interpreter's answer and anything else is ⊤.
AGREEMENT = [
    ("if [ -n ]; then echo yes; else echo no; fi",
     (0, b"yes\n"), {"echo no"}, ["guard is always true"], set()),
    ("case abc in x*) echo x;; a*) echo a;; *) echo other;; esac",
     (0, b"a\n"), {"echo x", "echo other"}, [], set()),
    ('x=\n: ${x:=a}\nif [ "$x" = a ]; then echo set; else echo unset; fi',
     (0, b"set\n"), {"echo unset"}, ["guard is always true"], set()),
    # a name never assigned may come from the environment: ⊤, not 0
    ("if [ $((i+1)) -eq 1 ]; then echo one; else echo other; fi",
     (0, b"one\n"), set(), [], set()),
    # ... under `set -u` too: the environment may supply the default
    ('set -u\nX=${X:-d}\nif [ "$X" = d ]; then echo d; else echo env; fi',
     (0, b"d\n"), set(), [], set()),
    ('set -u\n: "${X:=d}"\nif [ "$X" = d ]; then echo d; else echo env; fi',
     (0, b"d\n"), set(), [], set()),
    ("set -f; x=*\nfor f in $x; do echo \"[$f]\"; done\n"
     'if [ $x = "*" ]; then echo star; else echo files; fi',
     (0, b"[*]\nstar\n"), {"echo files"}, ["guard is always true"], set()),
    ("set -u\nunset x\necho ${#x}\necho after", (2, b""), set(), [],
     {"JS4004"}),
    # the options end at `--`: the dynamic positionals toggle none
    ('set -e; set -- "$@"; false; echo dead', (1, b""), {"echo dead"}, [],
     {"JS4001"}),
    # text the analysis does not read may assign anything
    ('x=1; eval "x=2"\nif [ $x = 1 ]; then echo one; else echo two; fi',
     (0, b"two\n"), set(), [], set()),
    # `local x` sets x to ""; `unset -f` leaves variables be
    ('x=1\nf() { local x; if [ "$x" = 1 ]; then echo one; '
     'else echo empty; fi; }\nf', (0, b"empty\n"), {"echo one"},
     ["guard is always false"], set()),
    ('f=1; f() { :; }; unset -f f\n'
     'if [ "$f" = 1 ]; then echo one; else echo gone; fi',
     (0, b"one\n"), {"echo gone"}, ["guard is always true"], set()),
    # outside a function `local` fails and assigns nothing
    ('local x=1\nif [ "$x" = 1 ]; then echo one; else echo none; fi',
     (0, b"none\n"), set(), [], set()),
    # an unknown part still has the substitution after it visited
    ('echo "$1$(exit 0; echo gone)"', (0, b"\n"), {"echo gone"}, [],
     {"JS4001"}),
]


@pytest.mark.parametrize("src,run,dead,guards,others", AGREEMENT)
def test_value_flow_agrees_with_the_interpreter(src, run, dead, guards,
                                                others):
    shell = Shell()
    shell.fs.write_bytes("/a.txt", b"")  # a glob would match it
    result = shell.run(src)
    assert (result.status, result.stdout) == run
    out = result.stdout.decode().split()
    for text in dead_texts(src):  # what is dead never prints
        assert text.removeprefix("echo ") not in out
    assert dead_texts(src) == dead
    found = flow(src).findings
    assert [f.message for f in found if f.code == "JS4002"] == guards
    assert {f.code for f in found} - {"JS4002"} == others


class TestLintPositions:
    def test_js_codes_carry_line_and_col(self):
        from repro.lint import lint

        diags = [d for d in lint("x=1\nexit 0\necho dead")
                 if d.code == "JS4001"]
        assert diags and (diags[0].line, diags[0].col) == (3, 1)

    def test_nested_position(self):
        from repro.lint import lint

        diags = [d for d in lint("if true; then\n    false && echo x\nfi")
                 if d.code == "JS4005"]
        assert diags and diags[0].line == 2 and diags[0].col == 5


# ---------------------------------------------------------------------------
# Trip counts
# ---------------------------------------------------------------------------


class TestCardinality:
    """A loop that provably runs at least once keeps its body's values:
    a guard after it reads the constant the body assigned."""

    def after_loop(self, head: str) -> list:
        src = (f'x=a\n{head} x=b; done\n'
               'if [ "$x" = b ]; then echo y; fi')
        return [f.message for f in flow(src).findings]

    def test_seq_trip_count(self):
        assert "guard is always true" in self.after_loop(
            "for i in $(seq 1 5); do")
        assert "JS4006" in codes("for i in $(seq 1 0); do echo $i; done")

    def test_seq_with_increment(self):
        assert "guard is always true" in self.after_loop(
            "for i in $(seq 1 2 10); do")
        assert "JS4006" in codes("for i in $(seq 10 2 1); do echo $i; done")

    def test_literal_words(self):
        assert "guard is always true" in self.after_loop(
            "for f in a b c; do")

    def test_const_var_split(self):
        assert "guard is always true" in self.after_loop(
            'v="a b c d"\nfor f in $v; do')
        assert "JS4006" in codes('v=""\nfor f in $v; do echo $f; done')

    def test_split_by_ifs(self):
        assert "guard is always true" in self.after_loop(
            'IFS=:\nv="a:b"\nfor f in $v; do')
        # quoted text never splits: one field, not two
        assert "guard is always true" in self.after_loop(
            'e=\nfor f in "a b"$e; do')
        assert "JS4006" in codes('IFS=" "\nv=" "\nfor f in $v; do echo; done')

    def test_unbounded_loop(self):
        # may run zero times: the value before the loop joins in
        assert self.after_loop("while read line; do") == []
        assert self.after_loop("for f in $FILES; do") == []
        # an unmatched glob stays literal: at least one trip
        assert "guard is always true" in self.after_loop(
            "for f in /d/*.txt; do")


# ---------------------------------------------------------------------------
# What value flow decides is pinned, byte for byte
# ---------------------------------------------------------------------------


ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "tests" / "corpus"
#: written by ``tools/regen_analysis_golden.py --absint``
ABSINT_GOLDEN = json.loads((CORPUS / "absint_golden.json").read_text())
GOLDEN_GROUPS = [*profiles(), "examples", "corpus"]


def golden_group(group: str) -> dict[str, str]:
    """name -> script text of one group of the golden file."""
    if group == "examples":
        return {f"examples/{p.name}": p.read_text()
                for p in sorted((ROOT / "examples").glob("*.sh"))}
    if group == "corpus":
        return {str(p.relative_to(CORPUS)): p.read_text()
                for p in sorted(CORPUS.rglob("*.sh"))}
    return {f"grammar-{case.ident}": case.script
            for case in generate_cases(0, 40, group)}


def test_absint_golden_covers_every_script():
    names = set()
    for group in GOLDEN_GROUPS:
        names |= set(golden_group(group))
    assert set(ABSINT_GOLDEN) == names


@pytest.mark.parametrize("group", GOLDEN_GROUPS)
def test_value_flow_matches_golden(group):
    from repro.parser.unparse import unparse

    for name, text in golden_group(group).items():
        result = flow(text)
        outcome = {
            "dead": [[unparse(d.node), d.reason] for d in result.dead_list],
            "findings": [[f.code, f.message, unparse(f.node), f.context]
                         for f in result.findings],
            "nodes": result.nodes,
            "widenings": result.widenings,
        }
        assert json.loads(json.dumps(outcome)) == ABSINT_GOLDEN[name], name


# ---------------------------------------------------------------------------
# Optimizer consumption: the bit-identity discipline
# ---------------------------------------------------------------------------


LIVE_SCRIPT = "cat /w.txt | tr -cs A-Za-z '\\n' | sort > /out.txt"
DEAD_SCRIPT = (
    "x=1\n"
    "if [ $x -eq 2 ]; then cat /w.txt | sort > /dead.txt; fi\n"
    "cat /w.txt | sort > /out.txt"
)
FILES = {"/w.txt": b"the quick brown fox jumps\n" * 200}


def run_jash(script, min_input_bytes=1024, files=FILES, metrics=None, tracer=None):
    from repro.compiler import OptimizerConfig
    from repro.jit import JashConfig, JashOptimizer
    from repro.shell import Shell

    from .conftest import fast_machine

    optimizer = JashOptimizer(JashConfig(
        optimizer=OptimizerConfig(min_input_bytes=min_input_bytes),
    ))
    shell = Shell(fast_machine(), optimizer=optimizer, metrics=metrics,
                  tracer=tracer)
    for path, data in files.items():
        shell.fs.write_bytes(path, data)
    result = shell.run(script)
    return shell, result, optimizer


def run_pash(script, files=FILES, machine=None, optimizer=None):
    from repro.shell import Shell

    from .conftest import fast_machine

    optimizer = optimizer or PashOptimizer()
    shell = Shell(machine or fast_machine(), optimizer=optimizer)
    for path, data in files.items():
        shell.fs.write_bytes(path, data)
    result = shell.run(script)
    return shell, result, optimizer


class TestJashBitIdentity:
    def test_dead_region_has_no_safety_certificate(self):
        from repro.analysis import analyze_program

        result = analyze_program(parse(DEAD_SCRIPT))
        dead = result.dead_nodes()
        assert dead
        assert not (dead & set(result.certificates)), \
            "a provably-dead node was certified"


#: the guard is true only for a file the script itself creates: a pass
#: that globbed the files as they were before the run would see one
#: match, a constant ``f`` and an "always false" guard
GLOB_PROBE = (
    "touch /d/b.txt\n"
    "for f in /d/*.txt; do\n"
    '  if [ "$f" = /d/b.txt ]; then cat /w.txt | sort > /out.txt; fi\n'
    "done\n"
)
GLOB_FILES = {"/d/a.txt": b"a\n", "/w.txt": b"b\na\n" * 50_000}


class OfferedNodes(PashOptimizer):
    """Records every node the interpreter offered to the AOT hook."""

    def __init__(self):
        super().__init__()
        self.offered: set[int] = set()

    def try_execute(self, interp, proc, node):
        self.offered.add(id(node))
        return super().try_execute(interp, proc, node)


def offered_dead(script, files, machine=None) -> set:
    """Nodes PaSh rejected as unreachable that the script then ran."""
    _, _, pash = run_pash(script, files, machine, OfferedNodes())
    return pash.offered & pash._analysis.dead_nodes()


class TestPashConsumption:
    def test_dead_region_rejected_from_approval(self):
        from repro.shell import Shell

        from .conftest import fast_machine

        shell, result, pash = run_pash(DEAD_SCRIPT)
        assert [e.node_text for e in pash.events
                if e.reason == "provably unreachable (S20 dead-branch fact)"
                ] == ["cat /w.txt | sort >/dead.txt"]
        # it never runs: the output bytes are the interpreter's
        plain = Shell(fast_machine())
        for path, data in FILES.items():
            plain.fs.write_bytes(path, data)
        assert plain.run(DEAD_SCRIPT).stdout == result.stdout
        assert plain.fs.read_bytes("/out.txt") == \
            shell.fs.read_bytes("/out.txt")

    def test_live_region_behind_a_glob_runs_as_a_plan(self):
        from repro import laptop

        shell, result, pash = run_pash(GLOB_PROBE, GLOB_FILES, laptop())
        assert (pash.events[-1].node_text, pash.events[-1].decision) == \
            ("cat /w.txt | sort >/out.txt", "optimized")
        assert repr(result.elapsed) == "0.0842032565022958"
        assert shell.fs.size("/out.txt") == 200_000

    def test_probe_runs_no_node_called_dead(self):
        from repro import laptop

        assert not offered_dead(GLOB_PROBE, GLOB_FILES, laptop())

    @pytest.mark.parametrize("profile", profiles())
    def test_grammar_runs_no_node_called_dead(self, profile):
        # the PaSh twin of test_analysis_demand's JIT witness: a node the
        # AOT pass rejects as unreachable is never offered at run time
        for seed in (0, 1):
            for case in generate_cases(seed, 40, profile):
                files = {"/" + name: data
                         for name, data in case.files.items()}
                assert not offered_dead(case.script, files), case.ident


class TestObservability:
    def test_metrics_counters(self):
        from repro.obs import MetricsRegistry

        metrics = MetricsRegistry()
        run_jash(LIVE_SCRIPT, metrics=metrics)
        assert metrics.sum_by_name("analysis.absint.nodes") > 0

    def test_tracer_span(self):
        from repro.obs import Tracer

        tracer = Tracer()
        run_jash(LIVE_SCRIPT, tracer=tracer)
        spans = [r for r in tracer.records if r.name == "analysis.absint"]
        assert spans
        assert spans[0].args["absint_nodes"] > 0

    def test_zero_updates_with_nothing_installed(self):
        from repro.obs import MetricsRegistry, Tracer

        before_r = Tracer.total_records
        before_u = MetricsRegistry.total_updates
        run_jash(LIVE_SCRIPT)
        assert Tracer.total_records == before_r
        assert MetricsRegistry.total_updates == before_u


# ---------------------------------------------------------------------------
# jash check integration
# ---------------------------------------------------------------------------


class TestCheckJson:
    def run_check(self, src):
        import json

        from repro.cli import main

        import io
        import contextlib

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            main(["check", "-c", src, "--format", "json"])
        return json.loads(buf.getvalue())

    def test_diagnostics_sorted_and_positioned(self):
        payload = self.run_check(
            "exit 0\necho dead\n")
        diags = payload["diagnostics"]
        keys = [(d["line"], d["col"], d["code"]) for d in diags]
        assert keys == sorted(keys)
        assert any(d["code"] == "JS4001" and d["line"] == 2
                   for d in diags)

    def test_value_flow_section_present(self):
        payload = self.run_check("exit 0\necho dead")
        vf = payload["value_flow"]
        assert vf["analyzer"] == ABSINT_VERSION
        assert vf["summary"]["dead_branches"] >= 1
        assert vf["dead"]
