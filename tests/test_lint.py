"""Lint / misuse-guard / explain tests (S13)."""

import pytest

from repro.lint import Diagnostic, explain, explain_command, lint
from repro.lint.misuse import MisuseConfig, MisuseGuard
from repro.shell import Shell

from .conftest import fast_machine


def codes(source: str) -> set[str]:
    return {d.code for d in lint(source)}


class TestStaticChecks:
    def test_unquoted_expansion(self):
        assert "JS2086" in codes("grep $pat file")

    def test_quoted_expansion_clean(self):
        assert "JS2086" not in codes('grep "$pat" file')

    def test_dangerous_rm(self):
        diagnostics = lint("rm -rf $dir")
        assert any(d.code == "JS2115" and d.severity == "warning"
                   for d in diagnostics)

    def test_useless_cat(self):
        assert "JS2002" in codes("cat file | wc -l")
        assert "JS2002" not in codes("cat a b | wc -l")  # real concatenation

    def test_read_without_r(self):
        assert "JS2162" in codes("while read line; do echo $line; done")
        assert "JS2162" not in codes("while read -r line; do :; done")

    def test_cd_unguarded(self):
        assert "JS2164" in codes("cd /tmp\nls")
        assert "JS2164" not in codes("cd /tmp || exit 1")

    def test_clobbered_input(self):
        diagnostics = lint("sort data.txt > data.txt")
        assert any(d.code == "JS2094" and d.severity == "error"
                   for d in diagnostics)

    def test_clobber_via_pipeline(self):
        assert "JS2094" in codes("grep x log | sort > log")

    def test_backticks(self):
        assert "JS2006" in codes("echo `date`")
        assert "JS2006" not in codes("echo $(date)")

    def test_for_over_ls(self):
        assert "JS2045" in codes("for f in `ls *.txt`; do echo $f; done")

    def test_assignment_with_spaces(self):
        diagnostics = lint("x = 1")
        assert any(d.code == "JS1068" and d.severity == "error"
                   for d in diagnostics)

    def test_clean_script(self):
        clean = 'set -e\ncd /data || exit 1\nsort -u "$1" > /tmp/out\n'
        assert {d.severity for d in lint(clean)} <= {"info"}

    def test_severity_ordering(self):
        diagnostics = lint("x = 1\necho $unquoted")
        severities = [d.severity for d in diagnostics]
        assert severities == sorted(
            severities, key=lambda s: {"error": 0, "warning": 1, "info": 2}[s]
        )


class TestMisuseGuard:
    def make_shell(self, enforce=True):
        guard = MisuseGuard(MisuseConfig(enforce=enforce))
        shell = Shell(fast_machine(), optimizer=guard)
        return shell, guard

    # the check does not need the pipeline to be a region: a second
    # `>`, `<` beside an operand, a `2>` or an unknown stage is still a
    # truncated input
    @pytest.mark.parametrize("script", [
        "sort /data/f > /data/f",
        "sort /data/f > /a > /data/f",
        "sort /data/f < /g > /data/f",
        "sort /data/f 2> /data/f",
        "cat /data/f | no_such_tool > /data/f",
    ])
    def test_blocks_self_clobber(self, script):
        shell, guard = self.make_shell()
        shell.fs.write_bytes("/data/f", b"b\na\n")
        shell.fs.write_bytes("/g", b"g\n")
        result = shell.run(script)
        assert result.status == 125
        assert shell.fs.read_bytes("/data/f") == b"b\na\n"  # preserved!
        assert any(f.code == "JM001" for f in guard.findings)

    def test_reports_without_enforce(self):
        shell, guard = self.make_shell(enforce=False)
        shell.fs.write_bytes("/data/f", b"b\na\n")
        result = shell.run("sort /data/f > /data/f")
        assert any(f.code == "JM001" for f in guard.findings)
        # not blocked: the file is now clobbered (the classic accident)
        assert shell.fs.read_bytes("/data/f") in (b"", b"a\nb\n")

    def test_append_to_an_input_is_no_clobber(self):
        # `>>` truncates nothing: sort reads /data/f whole, then appends
        shell, guard = self.make_shell()
        shell.fs.write_bytes("/data/f", b"b\na\n")
        result = shell.run("sort /data/f >> /data/f")
        assert result.status == 0
        assert shell.fs.read_bytes("/data/f") == b"b\na\na\nb\n"
        assert not any(f.code == "JM001" for f in guard.findings)

    def test_missing_input_detected_before_execution(self):
        shell, guard = self.make_shell(enforce=False)
        shell.run("grep pat /not/there | wc -l")
        assert any(f.code == "JM003" for f in guard.findings)

    # JM002 is the command's own grammar refusing the argv, in the
    # body's words; JM003 reads only the operands the spec reads
    @pytest.mark.parametrize("script,message", [
        ("sort -Z /f", "sort: unknown option -Z"),
        ("uniq -s 2 /f", "uniq: unknown option -s"),
    ])
    def test_unknown_flag(self, script, message):
        shell, guard = self.make_shell(enforce=False)
        shell.fs.write_bytes("/f", b"x\n")
        result = shell.run(script)
        assert [(f.code, f.message) for f in guard.findings] == [
            ("JM002", message)]
        assert result.stderr == message.encode() + b"\n"

    @pytest.mark.parametrize("script", [
        "sort -t: -k2 /f",
        "grep -E a /f",
        "sort -f /f",
    ])
    def test_accepted_options_no_false_positive(self, script):
        shell, guard = self.make_shell(enforce=False)
        shell.fs.write_bytes("/f", b"a:1\nb:2\n")
        assert shell.run(script).status == 0
        assert guard.findings == []

    def test_unknown_command(self):
        shell, guard = self.make_shell(enforce=False)
        shell.run("no_such_tool --flag")
        assert any(f.code == "JM404" for f in guard.findings)

    def test_runtime_knowledge_no_false_positive(self):
        """The guard sees *expanded* values (the JIT advantage): $f
        resolves to an existing file, so no missing-file warning."""
        shell, guard = self.make_shell(enforce=False)
        shell.fs.write_bytes("/real", b"data\n")
        shell.run("f=/real; grep data $f")
        assert not any(f.code == "JM003" for f in guard.findings)

    def test_clean_commands_pass_through(self):
        shell, guard = self.make_shell()
        shell.fs.write_bytes("/f", b"b\na\n")
        result = shell.run("sort /f > /out")
        assert result.status == 0
        assert shell.fs.read_bytes("/out") == b"a\nb\n"


class TestExplain:
    def test_command_summary(self):
        text = explain_command(["sort", "-rn"])
        assert "sort" in text
        assert "-r" in text and "-n" in text
        assert "aggregator" in text

    def test_pipeline(self):
        text = explain("cut -c 89-92 | grep -v 999 | sort -rn | head -n1")
        assert "3/4 stages are parallelizable" in text

    def test_dynamic_stage_notes_jit(self):
        text = explain("cat $FILES | sort")
        assert "JIT" in text

    # options as the command reads them: each once, with its value; an
    # argv the body refuses gets no parallelizability verdict
    @pytest.mark.parametrize("argv,shown,absent", [
        (["grep", "-x", "a"], ["  -x: (undocumented flag)"], []),
        (["grep", "-Z", "x"], ["rejected: grep: unknown option -Z"],
         ["undocumented", "⇒ stateless"]),
        (["sort", "-t:", "-k2", "/f"],
         ["  -t: field delimiter (':')", "  -k: sort by field KEY ('2')",
          "aggregator: sort -m -t : -k 2"], ["-::"]),
    ])
    def test_flags_marked(self, argv, shown, absent):
        text = explain_command(argv)
        assert all(line in text for line in shown), text
        assert not any(line in text for line in absent), text

    def test_stdin_dash(self):
        text = explain_command(["comm", "-13", "dict", "-"])
        assert "standard input" in text


class TestUncheckedFailure:
    def test_flags_fallible_producer(self):
        diagnostics = lint("cat /big | sort | wc -l")
        hits = [d for d in diagnostics if d.code == "JS2250"]
        assert len(hits) == 1  # one diagnostic per pipeline
        assert "pipefail" in hits[0].message

    def test_pipefail_silences(self):
        assert "JS2250" not in codes("set -o pipefail\ncat /big | sort")

    def test_errexit_silences(self):
        assert "JS2250" not in codes("set -e\ncat /big | sort")

    def test_combined_flag_spelling_silences(self):
        assert "JS2250" not in codes("set -eu\ncat /big | sort")

    def test_stdin_only_producer_not_flagged(self):
        # tr reads stdin: its failure arrives with its feeder's EOF
        assert "JS2250" not in codes("tr a-z A-Z | sort")

    def test_last_stage_not_a_producer(self):
        assert "JS2250" not in codes("echo hi | grep h")

    def test_condition_position_exempt(self):
        assert "JS2250" not in codes(
            "if cat /big | grep -q x; then echo y; fi")
        assert "JS2250" not in codes(
            "while cat /q | grep -q go; do echo tick; done")

    def test_andor_left_exempt_right_flagged(self):
        assert "JS2250" not in codes("cat /big | grep -q x && echo found")

    def test_negation_exempt(self):
        assert "JS2250" not in codes("! cat /big | grep -q x")

    def test_single_stage_never_flagged(self):
        assert "JS2250" not in codes("cat /big")


class TestExplainCheck:
    def test_new_code_has_rich_entry(self):
        from repro.lint import explain_check

        text = explain_check("JS2250")
        assert "pipefail" in text
        assert "last" in text

    def test_docstring_fallback(self):
        from repro.lint import explain_check

        text = explain_check("JS2086")
        assert "splitting" in text

    def test_unknown_code(self):
        from repro.lint import explain_check

        assert "no explanation" in explain_check("JS9999")

    def test_code_matched_anywhere_in_first_line(self):
        """Regression: docstrings that lead with prose ("Reaching
        definitions (JS3001): ...") must still resolve — the old lookup
        only matched docstrings *starting* with the code."""
        from repro.lint import CHECK_EXPLANATIONS, explain_check
        from repro.lint.checks import DIAGNOSTIC_CHECKS

        def check_midline_code(program):
            """A demo check (JS9901): the code sits mid-line."""
            return iter(())

        assert "JS9901" not in CHECK_EXPLANATIONS
        DIAGNOSTIC_CHECKS.append(check_midline_code)
        try:
            assert "demo check" in explain_check("JS9901")
        finally:
            DIAGNOSTIC_CHECKS.remove(check_midline_code)

    def test_semantic_codes_have_entries(self):
        from repro.lint import explain_check

        assert "reaching definitions" in explain_check("JS3001").lower()
        assert "write-write" in explain_check("JS3002")
        assert "wait" in explain_check("JS3003")


class TestSemanticLints:
    def test_use_before_def(self):
        diagnostics = lint("echo $greeting\ngreeting=hi")
        hits = [d for d in diagnostics if d.code == "JS3001"]
        assert len(hits) == 1
        assert "greeting" in hits[0].message

    def test_environment_variables_silent(self):
        # HOME is never assigned: assumed to come from the environment
        assert "JS3001" not in codes("echo $HOME")

    def test_pipeline_read_gotcha(self):
        assert "JS3001" in codes("echo x | read v\necho $v")

    def test_defined_before_use_clean(self):
        assert "JS3001" not in codes("v=1\necho $v")

    def test_write_write_race_is_error(self):
        diagnostics = lint("sort /a > /out &\nsort /b > /out")
        hits = [d for d in diagnostics if d.code == "JS3002"]
        assert hits and hits[0].severity == "error"

    def test_wait_seals(self):
        assert "JS3002" not in codes("sort /a > /out &\nwait\nsort /b > /out")

    def test_read_before_seal(self):
        assert "JS3003" in codes("sort /a > /out &\nwc -l /out")

    def test_syntactic_checks_miss_the_race(self):
        """The acceptance case: each statement is individually clean
        (JS2094 sees nothing) but the pair races."""
        script = "grep x /log > /hits &\ngrep y /log2 > /hits\n"
        found = codes(script)
        assert "JS2094" not in found
        assert "JS3002" in found


class TestDeterministicOrder:
    #: several same-severity diagnostics on distinct nodes, including a
    #: multi-path clobber (set-iteration order inside the check)
    SCRIPT = (
        "sort /a /b > /a\n"
        "sort /b /a > /b\n"
        "echo $one $two $three\n"
        "one=1; two=2; three=3\n"
    )

    def test_two_runs_byte_identical(self):
        first = "\n".join(str(d) for d in lint(self.SCRIPT))
        second = "\n".join(str(d) for d in lint(self.SCRIPT))
        assert first.encode() == second.encode()

    def test_order_survives_hash_randomization(self):
        """Render the report under different PYTHONHASHSEEDs: set/dict
        iteration order changes, the report must not."""
        import os
        import subprocess
        import sys

        prog = (
            "from repro.lint import lint\n"
            f"print('\\n'.join(str(d) for d in lint({self.SCRIPT!r})))\n"
        )
        outs = []
        for seed in ("1", "42"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH="src")
            outs.append(subprocess.run(
                [sys.executable, "-c", prog], env=env, cwd=os.path.dirname(
                    os.path.dirname(os.path.abspath(__file__))),
                capture_output=True, check=True).stdout)
        assert outs[0] == outs[1]

    def test_same_severity_sorted_by_position(self):
        diagnostics = [d for d in lint("echo $b\necho $a\na=1; b=2")
                       if d.code == "JS3001"]
        assert [d.message.split()[0] for d in diagnostics] == ["$b", "$a"]
