"""Purity analysis tests — the soundness oracle for Jash's early
expansion (the Smoosh-backed reasoning of §3.2)."""

import pytest

from repro.parser import parse_one
from repro.semantics.purity import check_word, check_words


def words_of(src: str):
    return parse_one(src).words


def first_arg(src: str):
    return words_of(src)[1]


class TestPureWords:
    @pytest.mark.parametrize("src", [
        "x literal",
        "x 'single quoted'",
        'x "double $var quoted"',
        "x $var",
        "x ${var}",
        "x ${var:-default}",
        "x ${var-default}",
        "x ${var:+alt}",
        "x ${#var}",
        "x ${var%.txt}",
        "x ${var##*/}",
        "x $((1+2*3))",
        "x $((y*2))",
        "x pre${var}post",
        "x ~/file",
        "x *.glob",
    ])
    def test_pure(self, src):
        report = check_word(first_arg(src))
        assert report.pure, report.reasons


class TestImpureWords:
    @pytest.mark.parametrize("src,reason_fragment", [
        ("x ${var:=assign}", "assigns"),
        ("x ${var=assign}", "assigns"),
        ("x ${var:?boom}", "abort"),
        ("x ${var?boom}", "abort"),
        ("x $(echo hi)", "command substitution"),
        ("x `date`", "command substitution"),
        ("x $((y=1))", "assign"),
        ("x $((y+=1))", "assign"),
        ('x "quoted $(cmd)"', "command substitution"),
        ("x ${var:-$(cmd)}", "command substitution"),
    ])
    def test_impure(self, src, reason_fragment):
        report = check_word(first_arg(src))
        assert not report.pure
        assert any(reason_fragment in r for r in report.reasons), report.reasons


class TestNesting:
    def test_impurity_in_operand_detected(self):
        report = check_word(first_arg("x ${a:-${b:=oops}}"))
        assert not report.pure

    def test_check_words_aggregates(self):
        report = check_words(words_of("cmd pure ${bad:=1}"))
        assert not report.pure
        assert len(report.reasons) == 1


class TestEdgeCases:
    """Corners where a shallow walk would get the verdict wrong."""

    def test_augmented_assignment_in_arith(self):
        report = check_word(first_arg("x $(( x += 1 ))"))
        assert not report.pure
        assert any("assign" in r for r in report.reasons), report.reasons

    @pytest.mark.parametrize("op", ["-=", "*=", "/=", "%="])
    def test_other_augmented_assignments(self, op):
        assert not check_word(first_arg(f"x $(( x {op} 1 ))")).pure

    def test_abort_param_inside_double_quotes(self):
        # quoting does not neutralize ${x:?msg}: the expansion itself
        # may abort the shell regardless of quoting context
        report = check_word(first_arg('x "${x:?msg}"'))
        assert not report.pure
        assert any("abort" in r for r in report.reasons), report.reasons

    def test_assign_param_inside_double_quotes(self):
        assert not check_word(first_arg('x "pre ${v:=1} post"')).pure
