"""S20 — the abstract-interpretation value-flow analyzer: domains,
dead-branch facts, JS4xxx diagnostics, signed CostCertificates, and
the bit-identity discipline of their consumption by both optimizers."""

import pytest

from repro.analysis.absint import (
    ABSINT_VERSION,
    AbsStatus,
    AbsValue,
    CostCertificate,
    S_ONE,
    S_TOP,
    S_ZERO,
    TOP,
    UNSET,
    analyze_value_flow,
    as_interval,
    join_value,
    make_cost_certificate,
    sjoin,
    snot,
    vconst,
    vint,
    widen_value,
)
from repro.parser import parse


def flow(src: str, **kw):
    return analyze_value_flow(parse(src), **kw)


def codes(src: str, **kw) -> list:
    return [f.code for f in flow(src, **kw).findings]


def dead_texts(src: str, **kw) -> set:
    from repro.parser.unparse import unparse

    return {unparse(d.node) for d in flow(src, **kw).dead_list}


# ---------------------------------------------------------------------------
# Domains
# ---------------------------------------------------------------------------


class TestValueDomain:
    def test_join_equal_consts(self):
        assert join_value(vconst("a"), vconst("a")) == vconst("a")

    def test_join_unequal_consts_common_prefix(self):
        v = join_value(vconst("file1"), vconst("file2"))
        assert v.kind == "prefix" and v.text == "file"

    def test_join_disjoint_consts_top(self):
        assert join_value(vconst("abc"), vconst("xyz")) == TOP

    def test_join_int_hull(self):
        assert as_interval(join_value(vint(1, 3), vint(5, 9))) == (1, 9)

    def test_join_const_int_mixes_as_interval(self):
        assert as_interval(join_value(vconst("4"), vint(1, 2))) == (1, 4)

    def test_join_unset_is_top(self):
        # maybe-unset must not masquerade as a known value
        assert join_value(UNSET, vconst("x")) == TOP

    def test_widen_drops_unstable_bounds(self):
        # lower bound stable, upper grew: only the upper goes to +inf
        w = widen_value(vint(0, 0), vint(0, 1))
        assert as_interval(w) == (0, None)

    def test_widen_stable_value_unchanged(self):
        assert widen_value(vconst("a"), vconst("a")) == vconst("a")

    def test_widen_incomparable_is_top(self):
        assert widen_value(vconst("a"), vconst("b")) == TOP


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


class TestCostCertificates:
    def test_signature_roundtrip(self):
        cert = make_cost_certificate("while :; do :; done", "loop", 0, 3)
        assert cert.verify()

    def test_tampered_certificate_fails(self):
        cert = make_cost_certificate("cat /f | sort", "region", 1, 1,
                                     100, 100)
        forged = CostCertificate(cert.node_text, cert.kind, 1, 999,
                                 cert.bytes_lo, cert.bytes_hi,
                                 cert.stage_bytes, cert.digest)
        assert not forged.verify()

    def test_to_dict_carries_version(self):
        cert = make_cost_certificate("seq 1 3", "region", 1, 1)
        d = cert.to_dict()
        assert d["analyzer"] == ABSINT_VERSION
        assert d["digest"] == cert.digest


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
        # POSIX keeps an unmatched pattern literally: the body runs once
        from repro.vos.fs import FileSystem

        fs = FileSystem()
        result = flow("for f in /nosuch/*.txt; do echo $f; done", fs=fs)
        assert not result.dead
        assert "JS4006" in [f.code for f in result.findings]

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
# Cardinality / volume
# ---------------------------------------------------------------------------


class TestCardinality:
    def loop_cert(self, src, **kw):
        result = flow(src, **kw)
        assert result.cost_list, "no certificate issued"
        return result.cost_list[0]

    def test_seq_trip_count(self):
        cert = self.loop_cert("for i in $(seq 1 5); do echo $i; done")
        assert (cert.trip_lo, cert.trip_hi) == (5, 5)

    def test_seq_with_increment(self):
        cert = self.loop_cert("for i in $(seq 1 2 10); do echo $i; done")
        assert (cert.trip_lo, cert.trip_hi) == (5, 5)

    def test_literal_words(self):
        cert = self.loop_cert("for f in a b c; do echo $f; done")
        assert (cert.trip_lo, cert.trip_hi) == (3, 3)

    def test_const_var_split(self):
        cert = self.loop_cert('v="a b c d"\nfor f in $v; do echo $f; done')
        assert (cert.trip_lo, cert.trip_hi) == (4, 4)

    def test_unbounded_loop(self):
        cert = self.loop_cert("while read line; do echo $line; done")
        assert cert.trip_hi is None

    def test_region_volume_from_fs(self):
        from repro.vos.fs import FileSystem

        fs = FileSystem()
        fs.write_bytes("/w.txt", b"x" * 1000)
        result = flow("cat /w.txt | sort | uniq", fs=fs)
        regions = [c for c in result.cost_list if c.kind == "region"]
        assert regions and regions[0].bytes_hi == 1000
        assert regions[0].stage_bytes[0] == ("cat", 1000)

    def test_no_fs_no_region_cert(self):
        result = flow("cat /w.txt | sort")
        assert not [c for c in result.cost_list if c.kind == "region"]


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


def run_jash(script, value_flow=True, min_input_bytes=1024, files=FILES, metrics=None, tracer=None):
    from repro.compiler import OptimizerConfig
    from repro.jit import JashConfig, JashOptimizer
    from repro.shell import Shell

    from .conftest import fast_machine

    optimizer = JashOptimizer(JashConfig(
        value_flow=value_flow,
        optimizer=OptimizerConfig(min_input_bytes=min_input_bytes),
    ))
    shell = Shell(fast_machine(), optimizer=optimizer, metrics=metrics,
                  tracer=tracer)
    for path, data in files.items():
        shell.fs.write_bytes(path, data)
    result = shell.run(script)
    return shell, result, optimizer


def run_pash(script, value_flow=True, files=FILES):
    from repro.compiler import PashConfig, PashOptimizer
    from repro.shell import Shell

    from .conftest import fast_machine

    optimizer = PashOptimizer(PashConfig(value_flow=value_flow))
    shell = Shell(fast_machine(), optimizer=optimizer)
    for path, data in files.items():
        shell.fs.write_bytes(path, data)
    result = shell.run(script)
    return shell, result, optimizer


def jit_decisions(optimizer):
    return [(e.node_text, e.decision, e.reason) for e in optimizer.events]


class TestJashBitIdentity:
    def test_no_dead_code_decisions_identical(self):
        shell_on, r_on, opt_on = run_jash(LIVE_SCRIPT, value_flow=True)
        shell_off, r_off, opt_off = run_jash(LIVE_SCRIPT, value_flow=False)
        assert jit_decisions(opt_on) == jit_decisions(opt_off)
        assert r_on.stdout == r_off.stdout
        assert shell_on.fs.read_bytes("/out.txt") == \
            shell_off.fs.read_bytes("/out.txt")
        assert r_on.elapsed == r_off.elapsed

    def test_dead_code_output_bytes_unchanged(self):
        shell_on, r_on, opt_on = run_jash(DEAD_SCRIPT, value_flow=True)
        shell_off, r_off, opt_off = run_jash(DEAD_SCRIPT, value_flow=False)
        # the dead region never executes, so runtime decisions coincide
        assert jit_decisions(opt_on) == jit_decisions(opt_off)
        assert r_on.stdout == r_off.stdout
        assert shell_on.fs.read_bytes("/out.txt") == \
            shell_off.fs.read_bytes("/out.txt")
        # but the pass did find the dead region
        from repro.analysis import analyze_program

        program = parse(DEAD_SCRIPT)
        assert analyze_program(program, value_flow=True).dead_nodes()
        assert not analyze_program(program, value_flow=False).dead_nodes()

    def test_dead_region_has_no_safety_certificate(self):
        from repro.analysis import analyze_program

        result = analyze_program(parse(DEAD_SCRIPT))
        dead = result.dead_nodes()
        assert dead
        assert not (dead & set(result.certificates)), \
            "a provably-dead node was certified"


class TestPashConsumption:
    def test_no_dead_code_decisions_identical(self):
        _, r_on, opt_on = run_pash(LIVE_SCRIPT, value_flow=True)
        _, r_off, opt_off = run_pash(LIVE_SCRIPT, value_flow=False)
        assert [(e.node_text, e.decision) for e in opt_on.events] == \
            [(e.node_text, e.decision) for e in opt_off.events]
        assert r_on.stdout == r_off.stdout

    def test_dead_region_rejected_from_approval(self):
        shell_on, r_on, opt_on = run_pash(DEAD_SCRIPT, value_flow=True)
        shell_off, r_off, opt_off = run_pash(DEAD_SCRIPT, value_flow=False)
        assert any("provably unreachable" in e.reason
                   for e in opt_on.events if e.decision == "skipped")
        assert not any("provably unreachable" in e.reason
                       for e in opt_off.events)
        # the AOT ablation approves the dead region; value_flow prunes it
        assert len(opt_off._approved) == len(opt_on._approved) + 1
        # either way it never runs: output bytes unchanged
        assert r_on.stdout == r_off.stdout
        assert shell_on.fs.read_bytes("/out.txt") == \
            shell_off.fs.read_bytes("/out.txt")


class TestObservability:
    def test_metrics_counters(self):
        from repro.obs import MetricsRegistry

        metrics = MetricsRegistry()
        run_jash(LIVE_SCRIPT, metrics=metrics)
        assert metrics.sum_by_name("analysis.absint.nodes") > 0
        assert metrics.sum_by_name("analysis.absint.certs") > 0

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


class TestStaticCosts:
    def test_from_analysis_and_lookups(self):
        from repro.analysis import analyze_program
        from repro.compiler.cost import StaticCosts
        from repro.vos.fs import FileSystem

        fs = FileSystem()
        fs.write_bytes("/w.txt", b"x" * 500)
        result = analyze_program(parse("cat /w.txt | sort"), fs=fs)
        static = StaticCosts.from_analysis(result)
        assert len(static) >= 1
        assert static.input_bytes("cat /w.txt | sort") == 500
        assert static.input_bytes("no such region") is None

    def test_tampered_certs_dropped(self):
        from repro.compiler.cost import StaticCosts

        bad = CostCertificate("cat /f", "region", 1, 1, 5, 5, (),
                              "0" * 16)
        static = StaticCosts.from_analysis(
            type("R", (), {"cost_list": [bad]})())
        assert len(static) == 0


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
