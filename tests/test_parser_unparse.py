"""Unparser round-trip: parse(unparse(ast)) == ast — the libdash
contract PaSh-style tools rely on.  Includes property-based word and
script generation via hypothesis."""

import string

import pytest
from hypothesis import given, settings, strategies as st

from repro.parser import parse, parse_one, unparse, unparse_word
from repro.parser.ast_nodes import (
    DoubleQuoted,
    Escaped,
    Lit,
    Param,
    SingleQuoted,
    Word,
)

ROUND_TRIP_SCRIPTS = [
    "echo hello",
    "cat f | sort | head -n1",
    "cut -c 89-92 | grep -v 999 | sort -rn | head -n1",
    "FILES=\"$@\"; cat $FILES | tr A-Z a-z | sort -u | comm -13 $DICT -",
    "if [ -f x ]; then echo yes; else echo no; fi",
    "if a; then b; elif c; then d; else e; fi",
    "for f in a b c; do echo $f; done",
    "for f do echo $f; done",
    "while read line; do echo $line; done < input",
    "until false; do break; done",
    "case $x in (a|b) echo ab;; (*) echo other;; esac",
    "case $x in a) ;; esac",
    "x=$(echo hi); echo ${x:-default} $((1+2*3))",
    "f() { echo $1; }; f world > out.txt 2>&1",
    "g() (echo subshell)",
    "! true && false || echo done",
    "(cd /tmp && ls) > files 2> /dev/null",
    "{ echo a; echo b; } | tee copy",
    "slowjob & echo started",
    "echo ${#x} ${x%.txt} ${y##*/} ${z:=def} ${w+alt}",
    "echo \"quoted $var and $(cmd) and $((1+1))\"",
    "echo 'single $x' \\$escaped",
    "cmd < in > out 2>> log",
    "cmd <&4 >&2",
    "X=1 Y=2 cmd a b",
    "echo `date`",
    "cat <<EOF\nbody $x\nEOF",
    "cat <<'EOF'\nliteral $x\nEOF",
    "cat <<EOF | wc -l\nline\nEOF",
    "echo $(cat <<EOF\ninner\nEOF\n)",
]


@pytest.mark.parametrize("src", ROUND_TRIP_SCRIPTS)
def test_round_trip(src):
    ast = parse(src)
    rendered = unparse(ast)
    assert parse(rendered) == ast, rendered


@pytest.mark.parametrize("src", ROUND_TRIP_SCRIPTS)
def test_double_round_trip_fixpoint(src):
    """unparse is a fixpoint after one round: unparse(parse(unparse(t)))
    == unparse(t)."""
    once = unparse(parse(src))
    twice = unparse(parse(once))
    assert once == twice


# ---------------------------------------------------------------------------
# property-based word round-trips
# ---------------------------------------------------------------------------

_litchars = st.text(alphabet=string.ascii_letters + string.digits + "._-/+,:",
                    min_size=1, max_size=8)
# a single quote inside SingleQuoted re-parses as several parts (the
# '\'' idiom) so it is AST-round-trippable only semantically; see
# test_single_quote_inside_single_quotes
_anychars = st.text(
    alphabet=string.ascii_letters + string.digits + " \t$`\"\\*?[]{}()|&;<>#~",
    min_size=0, max_size=10,
)
_names = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=5)


def _words():
    simple_parts = st.one_of(
        _litchars.map(Lit),
        _anychars.map(SingleQuoted),
        st.sampled_from(list("$`\"\\ *?[]")).map(Escaped),
        _names.map(Param),
        st.builds(Param, _names, st.sampled_from([":-", "-", "+", ":+"]),
                  st.just(Word((Lit("d"),)))),
    )
    dq = st.lists(
        st.one_of(
            st.text(alphabet=string.ascii_letters + " .", min_size=1,
                    max_size=6).map(Lit),
            _names.map(Param),
            st.sampled_from(list('$`"\\')).map(Escaped),
        ),
        min_size=0, max_size=3,
    ).map(lambda parts: DoubleQuoted(tuple(parts)))
    parts = st.lists(st.one_of(simple_parts, dq), min_size=1, max_size=4)
    return parts.map(lambda ps: Word(tuple(ps)))


@given(_words())
@settings(max_examples=300, deadline=None)
def test_word_round_trip(word):
    rendered = unparse_word(word)
    reparsed = parse_one("x " + rendered)
    assert len(reparsed.words) == 2, rendered
    assert reparsed.words[1] == _normalize(word), rendered


def _normalize(word: Word) -> Word:
    """Adjacent Lit parts merge during re-parsing; normalize for
    comparison."""
    out = []
    for part in word.parts:
        if isinstance(part, DoubleQuoted):
            inner = []
            for q in part.parts:
                if (inner and isinstance(q, Lit) and isinstance(inner[-1], Lit)):
                    inner[-1] = Lit(inner[-1].text + q.text)
                else:
                    inner.append(q)
            part = DoubleQuoted(tuple(inner))
        if out and isinstance(part, Lit) and isinstance(out[-1], Lit):
            out[-1] = Lit(out[-1].text + part.text)
        else:
            out.append(part)
    return Word(tuple(out))


def test_single_quote_inside_single_quotes():
    """SingleQuoted("a'b") renders with the '\\'' idiom and expands to
    the same string (semantic, not structural, round-trip)."""
    word = Word((SingleQuoted("a'b"),))
    rendered = unparse_word(word)
    assert rendered == "'a'\\''b'"
    reparsed = parse_one("x " + rendered).words[1]
    assert reparsed.constant == "a'b"


# random small scripts assembled from known-good fragments
_fragments = st.sampled_from([
    "echo a", "true", "false", "x=1", "cat f", "sort -u f",
    "grep -v x f", "test -f y",
])


@st.composite
def _scripts(draw):
    n = draw(st.integers(1, 4))
    parts = [draw(_fragments) for _ in range(n)]
    shape = draw(st.sampled_from(["seq", "pipe", "and", "if", "for", "while"]))
    if shape == "seq":
        return "; ".join(parts)
    if shape == "pipe":
        return " | ".join(parts)
    if shape == "and":
        return " && ".join(parts)
    if shape == "if":
        return f"if {parts[0]}; then {'; '.join(parts[1:]) or ':'}; fi"
    if shape == "for":
        return f"for v in a b; do {'; '.join(parts)}; done"
    return f"while {parts[0]}; do {'; '.join(parts[1:]) or 'break'}; done"


@given(_scripts())
@settings(max_examples=200, deadline=None)
def test_script_round_trip(src):
    ast = parse(src)
    assert parse(unparse(ast)) == ast
