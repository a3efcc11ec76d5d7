"""S16 — whole-script effect analysis: the abstract-path lattice,
effect summaries, env flow, race detection, safety certificates, and
their consumption by the Jash JIT and the PaSh AOT pass."""

import pytest

from repro.analysis import (
    SAFE_PARALLEL,
    TOP,
    UNSAFE,
    EffectAnalyzer,
    analyze_program,
    detect_races,
    may_alias,
    use_before_def,
    word_to_path,
)
from repro.analysis.paths import glob_prefix, literal, prefix
from repro.lint import lint
from repro.parser import parse, parse_one


def summary_of(src: str, **kw):
    analyzer = EffectAnalyzer(**kw)
    program = parse(src)
    analyzer.register_functions(program)
    return analyzer.compute(program)


def paths(ps) -> set:
    return {p.display() for p in ps}


class TestPathLattice:
    def test_literal_vs_literal(self):
        assert may_alias(literal("/a"), literal("/a"))
        assert not may_alias(literal("/a"), literal("/b"))

    def test_literal_normalized(self):
        assert may_alias(literal("./f"), literal("f"))

    def test_literal_vs_glob(self):
        assert may_alias(literal("/logs/a.log"), glob_prefix("/logs/"))
        assert not may_alias(literal("/data/x"), glob_prefix("/logs/"))

    def test_prefix_vs_prefix(self):
        assert may_alias(prefix("/tmp/out"), prefix("/tmp/"))
        assert not may_alias(prefix("/tmp/"), prefix("/var/"))

    def test_top_aliases_everything(self):
        assert TOP.is_top
        assert may_alias(TOP, literal("/anything"))
        assert may_alias(TOP, TOP)

    def test_word_to_path_literal(self):
        word = parse_one("x /data/f").words[1]
        assert word_to_path(word) == literal("/data/f")

    def test_word_to_path_glob(self):
        word = parse_one("x /logs/*.log").words[1]
        path = word_to_path(word)
        assert path.kind == "glob" and path.text == "/logs/"

    def test_word_to_path_dynamic(self):
        word = parse_one("x /out/$name").words[1]
        path = word_to_path(word)
        assert path.kind == "prefix" and path.text == "/out/"

    def test_word_to_path_constant_and_tilde(self):
        assert word_to_path(parse_one('x "/da"ta/f').words[1]) == \
            literal("/data/f")
        assert word_to_path(parse_one("x ~/o").words[1]) == prefix("/")
        assert word_to_path(parse_one("x a[b").words[1]) == literal("a[b")

    def test_word_to_path_fully_dynamic_is_top(self):
        word = parse_one("x $f").words[1]
        assert word_to_path(word).is_top


class TestEffectSummaries:
    def test_redirects(self):
        s = summary_of("sort < /in > /out")
        assert paths(s.reads) == {"/in"}
        assert paths(s.writes) == {"/out"}

    def test_spec_operands(self):
        s = summary_of("grep -c pat /log")
        assert "/log" in paths(s.reads)

    def test_rm_writes_operands(self):
        s = summary_of("rm -f /a /b")
        assert paths(s.writes) == {"/a", "/b"}

    def test_mv_reads_and_writes(self):
        s = summary_of("mv /src /dst")
        assert "/src" in paths(s.reads)
        assert paths(s.writes) == {"/src", "/dst"}

    def test_cp_last_operand_written(self):
        s = summary_of("cp /a /b /dest")
        assert paths(s.writes) == {"/dest"}
        assert paths(s.reads) == {"/a", "/b"}

    def test_cmdsub_effects_surface(self):
        s = summary_of("echo $(grep -c x /log)")
        assert "/log" in paths(s.reads)

    def test_unknown_command_opaque(self):
        s = summary_of("mytool --do-things")
        assert s.opaque

    def test_opaque_redirects_still_precise(self):
        s = summary_of("mytool > /out")
        assert s.opaque
        assert paths(s.writes) == {"/out"}

    def test_assignments_touch_no_files(self):
        s = summary_of("x=$y\nexport z=1")
        assert not (s.reads or s.writes or s.opaque)

    def test_function_inlined_at_call_site(self):
        s = summary_of("f() { sort /data > /sorted; }\nf")
        assert paths(s.writes) == {"/sorted"}

    def test_recursive_function_opaque(self):
        s = summary_of("f() { f; }\nf")
        assert s.opaque

    def test_background_job_effects_surface(self):
        s = summary_of("sort /a > /out &")
        assert paths(s.reads) == {"/a"}
        assert paths(s.writes) == {"/out"}


class TestEnvFlow:
    def names(self, src):
        return {u.name for u in use_before_def(parse(src))}

    def test_loop_backedge_reaches_head(self):
        # `n` is defined in the body; the back edge carries it to the
        # condition on iteration 2+ — not a use-before-def
        assert self.names("while test $n; do n=1; done") == set()

    def test_branch_defs_union(self):
        src = "if true; then v=1; else v=2; fi\necho $v"
        assert self.names(src) == set()

    def test_for_variable_defined(self):
        assert self.names("for f in a b; do echo $f; done") == set()

    def test_cmdsub_defs_do_not_escape(self):
        assert self.names("echo $(v=1)\necho $v") == {"v"}

    def test_brace_group_defs_escape(self):
        assert self.names("{ v=1; }\necho $v") == set()

    def test_unset_handling_params_not_flagged(self):
        assert self.names("echo ${v:-d} ${w:=5} ${u:+x}\nv=1\nw=1\nu=1") \
            == set()

    def test_nested_loop_break_still_carries_defs(self):
        # the break leaves the inner loop but the definition of `hit`
        # made before it must still reach the read after both loops
        src = ("for i in a b; do\n"
               "  while true; do hit=$i; break; done\n"
               "done\n"
               "echo $hit")
        assert self.names(src) == set()

    def test_nested_loop_continue_backedge(self):
        # `continue` re-enters the loop head: the body definition must
        # flow around the back edge to the guard on the next iteration
        src = ("for i in a b c; do\n"
               "  test $i = b && continue\n"
               "  while test $seen; do seen=; done\n"
               "  seen=$i\n"
               "done")
        assert self.names(src) == set()

    def test_subshell_redefinition_does_not_escape_loop(self):
        # the only assignment to `v` happens inside a subshell body —
        # even when the subshell sits in a loop, the definition dies
        # with the subshell and the read after the loop is unreached
        src = ("for i in a b; do (v=$i); done\n"
               "echo $v")
        assert self.names(src) == {"v"}

    def test_for_over_empty_word_list_zero_trips(self):
        # a `for` with no words runs zero times: the loop-variable
        # definition must not be treated as reaching the read (but the
        # fixpoint must also not crash on the empty word list)
        src = "for f in; do echo $f; done\necho done"
        assert self.names(src) == set()  # f never read outside the body

    def test_for_over_empty_expansion_body_def_not_guaranteed(self):
        # definitions made only inside a possibly-zero-trip loop still
        # count as *may*-reaching (JS3001 is a may-analysis: it only
        # fires when NO definition can reach)
        src = "for f in $EMPTY; do v=1; done\necho $v"
        assert self.names(src) == set()


class TestRaceDetection:
    def kinds(self, src):
        return {(r.kind, r.path) for r in detect_races(parse(src))}

    def test_write_write(self):
        assert ("write-write", "/out") in self.kinds(
            "sort /a > /out &\nsort /b > /out")

    def test_read_before_seal(self):
        assert ("read-before-seal", "/out") in self.kinds(
            "sort /a > /out &\nwc -l /out")

    def test_write_under_read(self):
        assert ("write-under-read", "/in") in self.kinds(
            "sort /in > /x &\necho new > /in")

    def test_wait_seals(self):
        assert self.kinds("sort /a > /out &\nwait\nsort /b > /out") == set()

    def test_distinct_files_clean(self):
        assert self.kinds("sort /a > /o1 &\nsort /b > /o2") == set()

    def test_abstract_prefix_overlap_reported(self):
        # the job writes prefix(/logs/) (dynamic suffix); rm writes a
        # literal under that prefix — conservatively a conflict
        kinds = self.kinds("tee /logs/$name &\nrm /logs/old")
        assert any(kind == "write-write" for kind, _path in kinds), kinds

    def test_tilde_target_is_not_a_file_named_tilde(self):
        # `~/o` is $HOME/o: it may be the file the next statement reads
        src = "HOME=/h; echo hi > ~/o & cat /h/o; wait"
        kinds = self.kinds(src)
        assert any(kind == "read-before-seal" for kind, _path in kinds), kinds
        assert "JS3003" in [d.code for d in lint(src)]

    def test_opaque_job_redirect_still_caught(self):
        assert ("write-write", "/out") in self.kinds(
            "mytool > /out &\nsort /b > /out")


class TestCertificates:
    def test_pure_pipeline_safe_parallel(self):
        result = analyze_program(parse("cat /f | sort > /g"))
        assert result.cert_list[0]["verdict"] == SAFE_PARALLEL

    def test_impure_expansion_unsafe_matches_runtime_verdict(self):
        from repro.analysis import pipeline_stages, purity_reason

        program = parse("head -n ${n:=3} /f | sort")
        result = analyze_program(program)
        unsafe = [c for c in result.cert_list if c["verdict"] == UNSAFE]
        assert unsafe
        # the certificate's reason is exactly the runtime purity verdict
        from repro.parser.ast_nodes import walk

        for n in walk(program):
            stages = pipeline_stages(n)
            if stages is None:
                continue
            assert result.certificates[id(n)] == purity_reason(stages)

    def test_stats_and_to_dict(self):
        result = analyze_program(parse("sort /a > /out &\nwc -l /out"))
        stats = result.stats()
        assert stats["races"] == 1
        d = result.to_dict()
        assert d["certificates"] and d["races"]


SORT_SCRIPT = "cat /w.txt | tr -cs A-Za-z '\\n' | sort > /out.txt"


def run_jit(script, files, tracer=None):
    from repro.compiler import OptimizerConfig
    from repro.jit import JashConfig, JashOptimizer
    from repro.shell import Shell

    from .conftest import fast_machine

    optimizer = JashOptimizer(JashConfig(
        optimizer=OptimizerConfig(min_input_bytes=1024),
    ))
    shell = Shell(fast_machine(), optimizer=optimizer, tracer=tracer)
    for path, data in files.items():
        shell.fs.write_bytes(path, data)
    result = shell.run(script)
    return shell, result, optimizer


class TestJitIntegration:
    FILES = {"/w.txt": b"the quick brown fox\n" * 500}

    def test_cert_hits_observed_in_trace(self):
        from repro.obs import Tracer

        tracer = Tracer()
        _, result, optimizer = run_jit(SORT_SCRIPT, self.FILES,
                                       tracer=tracer)
        assert result.status == 0
        hits = [r for r in tracer.records if r.name == "jit.cert_hit"]
        assert hits, "no jit.cert_hit instants recorded"
        assert optimizer.cert_hits == len(hits)
        runs = [r for r in tracer.records if r.name == "analysis.run"]
        assert len(runs) == 1

    def test_eval_region_misses_and_decides_alike(self):
        # a node parsed at run time has no verdict in the table: the
        # runtime purity walk must reach the direct run's decision
        shell_direct, direct, hit = run_jit(SORT_SCRIPT, self.FILES)
        shell_eval, via_eval, miss = run_jit(f'eval "{SORT_SCRIPT}"',
                                             self.FILES)
        assert (hit.cert_misses, miss.cert_misses) == (0, hit.cert_hits)

        def decisions(events):
            return [(e.node_text, e.decision, e.reason, e.plan_description)
                    for e in events]

        # the eval builtin itself is the one extra (certified) candidate
        assert decisions(miss.events[1:]) == decisions(hit.events)
        assert (via_eval.status, via_eval.stdout) == \
            (direct.status, direct.stdout)
        assert shell_eval.fs.read_bytes("/out.txt") == \
            shell_direct.fs.read_bytes("/out.txt")

    def test_unsafe_cert_skip_names_certificate(self):
        _, result, optimizer = run_jit(
            "head -n ${n:=3} /w.txt | sort > /out.txt", self.FILES)
        assert result.status == 0
        reasons = [e.reason for e in optimizer.events]
        assert any("static certificate" in r for r in reasons), reasons

    def test_report_mentions_certificates(self):
        _, _, optimizer = run_jit(SORT_SCRIPT, self.FILES)
        assert "certificate" in optimizer.report()

    def test_cert_hit_rate_property(self):
        _, _, optimizer = run_jit(SORT_SCRIPT, self.FILES)
        assert optimizer.cert_hit_rate == 1.0


class TestAotIntegration:
    FILES = {"/w.txt": b"b\na\nc\n" * 200}

    def run_aot(self, script):
        from repro.compiler import PashOptimizer
        from repro.shell import Shell

        from .conftest import fast_machine

        optimizer = PashOptimizer()
        shell = Shell(fast_machine(), optimizer=optimizer)
        for path, data in self.FILES.items():
            shell.fs.write_bytes(path, data)
        result = shell.run(script)
        return shell, result, optimizer

    def test_unsafe_node_skipped_by_certificate(self):
        _, result, optimizer = self.run_aot(
            "head -n ${n:=2} /w.txt | sort > /out.txt")
        assert result.status == 0
        assert optimizer.cert_hits > 0
        assert any("static certificate" in e.reason
                   for e in optimizer.events if e.decision == "skipped")


class TestExamplesSweep:
    def test_analyzer_covers_every_example(self):
        from pathlib import Path

        examples = sorted(
            (Path(__file__).parent.parent / "examples").glob("*.sh"))
        assert examples, "no examples/*.sh scripts"
        for script in examples:
            result = analyze_program(parse(script.read_text()))
            assert result.statements, script.name
            assert result.cert_list, script.name

    def test_racy_example_is_the_negative_case(self):
        from pathlib import Path

        text = (Path(__file__).parent.parent / "examples"
                / "racy.sh").read_text()
        result = analyze_program(parse(text))
        kinds = {r.kind for r in result.races}
        assert "write-write" in kinds
        assert result.use_before_def


class TestCheckCLI:
    def test_text_format_exit_codes(self, capsys):
        from repro.cli import main

        assert main(["check", "-c", "sort /f > /g"]) == 0
        assert main(["check", "-c", "sort /a > /o &\nsort /b > /o"]) == 1
        out = capsys.readouterr().out
        assert "certificates:" in out and "races:" in out

    def test_json_format_parses(self, capsys):
        import json

        from repro.cli import main

        assert main(["check", "--format", "json", "-c",
                     "cat /f | sort > /g"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["unsafe"] == 0
        assert payload["certificates"]
        assert isinstance(payload["diagnostics"], list)
