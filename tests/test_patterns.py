"""Shell pattern matching: case/glob semantics and affix removal, with a
differential property test against fnmatch for the shared fragment."""

import fnmatch as _fnmatch
import string

import pytest
from hypothesis import given, settings, strategies as st

from repro.semantics.patterns import (
    glob_match_names,
    has_glob_chars,
    match,
    remove_affix,
    text_of,
)


def _p(text):
    """An unquoted pattern."""
    return ((text, False),)


def _q(text):
    """A quoted pattern."""
    return ((text, True),)


class TestMatch:
    @pytest.mark.parametrize("pat,value,expected", [
        ("abc", "abc", True),
        ("abc", "abd", False),
        ("a*c", "abbbc", True),
        ("a*c", "ac", True),
        ("a?c", "abc", True),
        ("a?c", "ac", False),
        ("*", "", True),
        ("*", "anything", True),
        ("[abc]x", "bx", True),
        ("[abc]x", "dx", False),
        ("[!abc]x", "dx", True),
        ("[!abc]x", "ax", False),
        ("[a-f]1", "d1", True),
        ("[a-f]1", "g1", False),
        ("[[:digit:]]*", "42x", True),
        ("[[:alpha:]]", "Q", True),
        ("[[:alpha:]]", "4", False),
        ("*.txt", "notes.txt", True),
        ("*.txt", "notes.txtx", False),
        ("a\\*b", "a*b", True),
        ("a\\*b", "axb", False),
    ])
    def test_cases(self, pat, value, expected):
        assert match(_p(pat), value) is expected

    def test_quoted_star_is_literal(self):
        assert match(_q("*"), "*")
        assert not match(_q("*"), "anything")

    def test_quoted_pieces_inside_a_bracket(self):
        # `["]"]`: a quoted `]` closes nothing
        pat = (("[", False), ("]", True), ("]", False))
        assert match(pat, "]")
        assert not match(pat, "x")
        assert match((("[", False), ("!", True), ("a]", False)), "!")

    def test_bracket_special_first_position(self):
        assert match(_p("[]]"), "]")
        assert match(_p("[!]]"), "x")

    def test_unterminated_bracket_is_literal(self):
        assert match(_p("a[b"), "a[b")

    def test_newline_matched_by_star(self):
        assert match(_p("a*b"), "a\nb")

    def test_control_bytes_are_data(self):
        assert match(_p("a\x00*"), "a\x00b")
        assert match(_q("\x02"), "\x02")
        assert not match(_q("\x02"), "")
        assert match(_p("\x03?"), "\x03x")


class TestHasGlobChars:
    def test_positive(self):
        assert has_glob_chars(_p("*.txt"))
        assert has_glob_chars(_p("a?c"))
        assert has_glob_chars(_p("[ab]"))
        assert has_glob_chars((("*", True), ("?", False)))

    def test_negative(self):
        assert not has_glob_chars(_p("plain.txt"))
        assert not has_glob_chars(_q("*.txt"))
        assert not has_glob_chars(_p("a\\*b"))
        assert not has_glob_chars(())

    def test_bracket_that_opens_nothing_is_plain(self):
        # `[` with no closing `]` matches only itself: no pathname
        # expansion, so `[/` stays `[/` even beside a file named `[`
        assert not has_glob_chars(_p("["))
        assert not has_glob_chars(_p("a[b/"))
        assert not has_glob_chars((("[", False), ("]", True)))
        assert has_glob_chars(_p("a[b]"))


class TestQuoteRemoval:
    def test_quoted(self):
        assert text_of(_q("a*b")) == "a*b"

    def test_mixed(self):
        assert text_of((("x", False), ("*", True), ("y", False))) == "x*y"


class TestAffixRemoval:
    @pytest.mark.parametrize("value,pat,op,expected", [
        ("filename.tar.gz", "*.", "#", "tar.gz"),       # shortest prefix
        ("filename.tar.gz", "*.", "##", "gz"),          # longest prefix
        ("filename.tar.gz", ".*", "%", "filename.tar"), # shortest suffix
        ("filename.tar.gz", ".*", "%%", "filename"),    # longest suffix
        ("hello", "h", "#", "ello"),
        ("hello", "x", "#", "hello"),                   # no match: unchanged
        ("hello", "lo", "%", "hel"),
        ("path/to/file", "*/", "##", "file"),
        ("path/to/file", "/*", "%%", "path"),
        ("aaa", "a", "#", "aa"),
        ("aaa", "a*", "##", ""),
        ("", "*", "#", ""),
    ])
    def test_cases(self, value, pat, op, expected):
        assert remove_affix(value, _p(pat), op) == expected

    def test_quoted_pattern(self):
        assert remove_affix("a*b*c", _q("*"), "#") == "a*b*c"
        assert remove_affix("*b*c", _q("*"), "#") == "b*c"

    def test_bad_op(self):
        with pytest.raises(ValueError):
            remove_affix("x", _p("x"), "!")


class TestGlobNames:
    def test_basic(self):
        names = ["a.txt", "b.txt", "c.log", ".hidden"]
        assert glob_match_names(_p("*.txt"), names) == ["a.txt", "b.txt"]

    def test_hidden_requires_explicit_dot(self):
        names = [".hidden", "visible"]
        assert glob_match_names(_p("*"), names) == ["visible"]
        assert glob_match_names(_p(".*"), names) == [".hidden"]
        assert glob_match_names(((".", True), ("*", False)), names) == [".hidden"]

    def test_sorted_output(self):
        assert glob_match_names(_p("*"), ["b", "a", "c"]) == ["a", "b", "c"]


# ---------------------------------------------------------------------------
# differential vs fnmatch on the shared fragment (no classes, no escapes)
# ---------------------------------------------------------------------------

_plain = string.ascii_letters + string.digits + "._-"
_pat_chars = st.sampled_from(list(_plain + "*?"))
_patterns = st.lists(_pat_chars, min_size=0, max_size=8).map("".join)
_values = st.text(alphabet=_plain, min_size=0, max_size=10)


@given(_patterns, _values)
@settings(max_examples=500, deadline=None)
def test_matches_fnmatch(pat, value):
    assert match(_p(pat), value) == _fnmatch.fnmatchcase(value, pat)


@given(_values)
@settings(max_examples=200, deadline=None)
def test_quoted_pattern_matches_only_itself(value):
    pat = _q(value)
    assert match(pat, value)
    if value:
        assert not match(pat, value + "x")


@given(_values, _patterns)
@settings(max_examples=300, deadline=None)
def test_affix_removal_returns_substring(value, pat):
    for op in ("#", "##", "%", "%%"):
        result = remove_affix(value, _p(pat), op)
        if op in ("#", "##"):
            assert value.endswith(result)
        else:
            assert value.startswith(result)


@given(_values, _patterns)
@settings(max_examples=300, deadline=None)
def test_affix_shortest_longest_consistent(value, pat):
    pat = _p(pat)
    assert len(remove_affix(value, pat, "##")) <= len(remove_affix(value, pat, "#"))
    assert len(remove_affix(value, pat, "%%")) <= len(remove_affix(value, pat, "%"))
