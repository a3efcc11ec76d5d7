"""Shell tutor tests (§4: spec library as a guidance database)."""

import pytest

from repro.lint import tutor


def advice_for(script: str):
    return tutor(script).statements


class TestTutorGuidance:
    def test_summarizes_stages(self):
        (stmt,) = advice_for("cat f | sort")
        assert any("concatenate" in s for s in stmt.summary)
        assert any("sort lines" in s for s in stmt.summary)

    def test_parallelizable_pipeline_flagged(self):
        (stmt,) = advice_for("cat f | grep x | sort")
        assert "parallelizable" in stmt.optimization
        assert "data-parallelize" in stmt.optimization

    @pytest.mark.parametrize("script", ["sort f > f",
                                        "cat f | tr a-z A-Z >| ./f"])
    def test_clobbered_sink_promises_no_optimization(self, script):
        (stmt,) = advice_for(script)
        assert "truncates it before it is read" in stmt.optimization
        assert "data-parallelize" not in stmt.optimization

    def test_dynamic_but_pure_mentions_jit(self):
        (stmt,) = advice_for("cat $FILES | sort")
        assert "ahead-of-time optimizer must skip" in stmt.optimization
        assert "Jash" in stmt.optimization

    def test_impure_expansion_blocks_even_jit(self):
        (stmt,) = advice_for("cat ${f:=/x} | sort")
        assert "side effects" in stmt.optimization
        assert "interpret" in stmt.optimization

    def test_order_dependent_blocker_named(self):
        (stmt,) = advice_for("tac f")
        assert "whole input in order" in stmt.optimization

    def test_unknown_command_named(self):
        (stmt,) = advice_for("cat f | mystery-tool")
        assert "no specification" in stmt.optimization

    def test_suggests_sort_u(self):
        (stmt,) = advice_for("cat f | sort | uniq")
        assert any("sort -u" in s for s in stmt.suggestions)

    def test_suggests_grep_c(self):
        (stmt,) = advice_for("grep ERR f | wc -l")
        assert any("grep -c" in s for s in stmt.suggestions)

    def test_suggests_input_redirect(self):
        (stmt,) = advice_for("cat single.txt | sort")
        assert any("sort < X" in s for s in stmt.suggestions)

    def test_no_useless_cat_advice_for_dynamic_operand(self):
        report = tutor("cat $FILES | sort")
        assert not any(d.code == "JS2002" for d in report.diagnostics)

    def test_multi_statement(self):
        statements = advice_for("echo a\ncat f | sort\n")
        assert len(statements) == 2

    def test_lint_included(self):
        report = tutor("sort f > f")
        assert any(d.code == "JS2094" for d in report.diagnostics)

    def test_render_is_text(self):
        text = tutor("cat f | sort | uniq").render()
        assert "statement 1" in text
        assert "sort -u" in text


class TestTutorCli:
    def test_cli(self, capsys):
        from repro.cli import main

        assert main(["tutor", "-c", "cat f | sort | uniq"]) == 0
        out = capsys.readouterr().out
        assert "parallelizable" in out
