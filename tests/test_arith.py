"""POSIX shell arithmetic: operator semantics, precedence, assignment,
and a differential property test against Python's evaluator."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.semantics.arith import ArithError, evaluate, has_side_effects, tokenize


def ev(expr, env=None):
    env = dict(env or {})
    return evaluate(expr, get=lambda n: env.get(n),
                    set_=lambda n, v: env.__setitem__(n, v)), env


class TestBasics:
    @pytest.mark.parametrize("expr,value", [
        ("1+2", 3), ("2*3+4", 10), ("2+3*4", 14), ("(2+3)*4", 20),
        ("10-3-2", 5), ("7/2", 3), ("-7/2", -3), ("7%3", 1), ("-7%3", -1),
        ("1<<4", 16), ("256>>4", 16), ("5&3", 1), ("5|3", 7), ("5^3", 6),
        ("~0", -1), ("!0", 1), ("!5", 0), ("-5", -5), ("+5", 5), ("- -5", 5),
        ("1<2", 1), ("2<=2", 1), ("3>4", 0), ("4>=4", 1),
        ("1==1", 1), ("1!=1", 0),
        ("1&&2", 1), ("0&&2", 0), ("0||0", 0), ("0||3", 1),
        ("1?10:20", 10), ("0?10:20", 20), ("1,2,3", 3),
        ("0x10", 16), ("010", 8), ("0", 0), ("", 0),
    ])
    def test_value(self, expr, value):
        assert ev(expr)[0] == value

    def test_whitespace(self):
        assert ev("  1 +\t2  ")[0] == 3

    def test_nested_ternary(self):
        assert ev("1 ? 0 ? 5 : 6 : 7")[0] == 6


class TestInt64:
    """dash's intmax_t: results wrap, shift counts are taken mod 64, and
    / and % are exact (the first five rows printed 9223372036854775808,
    18446744073709551616, a ValueError traceback, 9007199254740992 and
    -513 before)."""

    @pytest.mark.parametrize("expr,value", [
        ("9223372036854775807+1", -9223372036854775808),
        ("1<<64", 1),
        ("1<<99999999", -9223372036854775808),
        ("9007199254740993/1", 9007199254740993),
        ("9223372036854775807%10", 7),
        ("-(-9223372036854775807-1)", -9223372036854775808),
        ("0x7fffffffffffffff*2", -2),
        ("1<<-1", -9223372036854775808),
        ("-8>>1", -4),
        ("-7%2", -1),
        ("7%-2", 1),
    ])
    def test_value(self, expr, value):
        assert ev(expr)[0] == value

    def test_constants_saturate_as_strtoimax(self):
        assert ev("9223372036854775808")[0] == 9223372036854775807
        assert ev("0xffffffffffffffff")[0] == 9223372036854775807

    def test_through_the_shell(self, out_of):
        assert out_of("echo $((9223372036854775807+1)) $((1<<99999999))"
                      ) == "-9223372036854775808 -9223372036854775808\n"


class TestVariables:
    def test_read(self):
        assert ev("x+1", {"x": "41"})[0] == 42

    def test_unset_is_zero(self):
        assert ev("x+1")[0] == 1

    def test_empty_is_zero(self):
        assert ev("x", {"x": ""})[0] == 0

    def test_hex_var(self):
        assert ev("x", {"x": "0xff"})[0] == 255

    def test_non_numeric_raises(self):
        with pytest.raises(ArithError):
            ev("x", {"x": "hello"})


class TestAssignment:
    def test_simple(self):
        value, env = ev("x=5")
        assert value == 5
        assert env["x"] == "5"

    def test_compound_ops(self):
        for op, expected in [("+=", 12), ("-=", 8), ("*=", 20), ("/=", 5),
                             ("%=", 0), ("<<=", 40), (">>=", 2),
                             ("&=", 2), ("|=", 10), ("^=", 8)]:
            value, env = ev(f"x{op}2", {"x": "10"})
            assert value == expected, op
            assert env["x"] == str(expected)

    def test_assignment_value_usable(self):
        value, env = ev("(x=3)*2")
        assert value == 6
        assert env["x"] == "3"

    def test_assignment_forbidden_without_setter(self):
        with pytest.raises(ArithError):
            evaluate("x=1", get=lambda n: None, set_=None)


class TestErrors:
    @pytest.mark.parametrize("expr", [
        "1/0", "1%0", "1+", "(1", "1)", "@", "1 2", "?:",
    ])
    def test_raises(self, expr):
        with pytest.raises(ArithError):
            ev(expr)


class TestSideEffectCheck:
    def test_pure(self):
        assert not has_side_effects("1+2*x")
        assert not has_side_effects("x==1 && y<2")
        assert not has_side_effects("x<=y")

    def test_assigning(self):
        assert has_side_effects("x=1")
        assert has_side_effects("x+=1")
        assert has_side_effects("a + (b=2)")

    def test_garbage_is_conservative(self):
        assert has_side_effects("@@@")


# ---------------------------------------------------------------------------
# differential property test vs Python
# ---------------------------------------------------------------------------

_num = st.integers(min_value=0, max_value=1000)
_binop = st.sampled_from(["+", "-", "*", "<", "<=", ">", ">=", "==", "!=",
                          "&", "|", "^"])


@st.composite
def _exprs(draw, depth=0):
    if depth > 3 or draw(st.booleans()):
        return str(draw(_num))
    left = draw(_exprs(depth=depth + 1))
    right = draw(_exprs(depth=depth + 1))
    op = draw(_binop)
    return f"({left} {op} {right})"


@given(_exprs())
@settings(max_examples=300, deadline=None)
def test_matches_python(expr):
    py_expr = (expr.replace("&&", " and ").replace("||", " or "))
    expected = eval(py_expr)  # noqa: S307 - generated from a safe grammar
    if isinstance(expected, bool):
        expected = int(expected)
    assert ev(expr)[0] == expected


@given(st.integers(-10**6, 10**6), st.integers(1, 10**4))
@settings(max_examples=200, deadline=None)
def test_division_truncates_toward_zero(a, b):
    """C semantics (not Python floor division)."""
    value = ev(f"{a}/{b}" if a >= 0 else f"0-{-a}/{b}")[0]
    assert value == int(a / b)


@given(st.integers(-10**6, 10**6), st.integers(1, 10**4))
@settings(max_examples=200, deadline=None)
def test_mod_sign_matches_c(a, b):
    got = evaluate(f"({a}) % {b}", get=lambda n: None)
    assert got == a - int(a / b) * b
