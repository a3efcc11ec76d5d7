"""Shell pattern matching: case/glob semantics and affix removal, with a
differential property test against fnmatch for the shared fragment."""

import fnmatch as _fnmatch
import string

import pytest
from hypothesis import given, settings, strategies as st

from repro.semantics.patterns import (
    QUOTE_MARK,
    glob_match_names,
    has_glob_chars,
    match,
    quote_literal,
    remove_affix,
    strip_quote_marks,
    translate,
)


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
        assert match(pat, value) is expected

    def test_quoted_star_is_literal(self):
        pat = QUOTE_MARK + "*"
        assert match(pat, "*")
        assert not match(pat, "anything")

    def test_bracket_special_first_position(self):
        assert match("[]]", "]")
        assert match("[!]]", "x")

    def test_unterminated_bracket_is_literal(self):
        assert match("a[b", "a[b")

    def test_newline_matched_by_star(self):
        assert match("a*b", "a\nb")


class TestHasGlobChars:
    def test_positive(self):
        assert has_glob_chars("*.txt")
        assert has_glob_chars("a?c")
        assert has_glob_chars("[ab]")

    def test_negative(self):
        assert not has_glob_chars("plain.txt")
        assert not has_glob_chars(quote_literal("*.txt"))
        assert not has_glob_chars("a\\*b")

    def test_bracket_that_opens_nothing_is_plain(self):
        # `[` with no closing `]` matches only itself: no pathname
        # expansion, so `[/` stays `[/` even beside a file named `[`
        assert not has_glob_chars("[")
        assert not has_glob_chars("a[b/")
        assert not has_glob_chars("[" + quote_literal("]"))
        assert has_glob_chars("a[b]")


class TestQuoteMarks:
    def test_strip(self):
        assert strip_quote_marks(quote_literal("a*b")) == "a*b"

    def test_mixed(self):
        marked = "x" + QUOTE_MARK + "*" + "y"
        assert strip_quote_marks(marked) == "x*y"


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
        assert remove_affix(value, pat, op) == expected

    def test_bad_op(self):
        with pytest.raises(ValueError):
            remove_affix("x", "x", "!")


class TestGlobNames:
    def test_basic(self):
        names = ["a.txt", "b.txt", "c.log", ".hidden"]
        assert glob_match_names("*.txt", names) == ["a.txt", "b.txt"]

    def test_hidden_requires_explicit_dot(self):
        names = [".hidden", "visible"]
        assert glob_match_names("*", names) == ["visible"]
        assert glob_match_names(".*", names) == [".hidden"]

    def test_sorted_output(self):
        assert glob_match_names("*", ["b", "a", "c"]) == ["a", "b", "c"]


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
    assert match(pat, value) == _fnmatch.fnmatchcase(value, pat)


@given(_values)
@settings(max_examples=200, deadline=None)
def test_quoted_pattern_matches_only_itself(value):
    pat = quote_literal(value)
    assert match(pat, value)
    if value:
        assert not match(pat, value + "x")


@given(_values, _patterns)
@settings(max_examples=300, deadline=None)
def test_affix_removal_returns_substring(value, pat):
    for op in ("#", "##", "%", "%%"):
        result = remove_affix(value, pat, op)
        if op in ("#", "##"):
            assert value.endswith(result)
        else:
            assert value.startswith(result)


@given(_values, _patterns)
@settings(max_examples=300, deadline=None)
def test_affix_shortest_longest_consistent(value, pat):
    assert len(remove_affix(value, pat, "##")) <= len(remove_affix(value, pat, "#"))
    assert len(remove_affix(value, pat, "%%")) <= len(remove_affix(value, pat, "%"))
