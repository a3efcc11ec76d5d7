"""Word expansion semantics: parameter ops, field splitting, quoting,
$@/$*, IFS, pathname expansion, tilde — via end-to-end script runs."""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from .conftest import tree_expand_word_single, tree_expand_words
from repro.difftest import run_host, run_virtual
from repro.difftest.runner import HOST_SH
from repro.parser import parse_one
from repro.semantics.expansion import (
    BREAK,
    EMPTY,
    EXPANDED,
    LITERAL,
    QUOTED,
    expand_word_single,
    expand_words,
    split_fields,
)
from repro.semantics.interp import Interpreter
from repro.semantics.patterns import text_of
from repro.semantics.state import ShellState
from repro.vos.fs import FileSystem


class TestParameterOps:
    def test_default_unset(self, out_of):
        assert out_of("echo ${x:-fallback}") == "fallback\n"
        assert out_of("echo ${x-fallback}") == "fallback\n"

    def test_default_null_colon_only(self, out_of):
        assert out_of('x=""; echo ${x:-fb}') == "fb\n"
        assert out_of('x=""; echo [${x-fb}]') == "[]\n"

    def test_default_set(self, out_of):
        assert out_of("x=v; echo ${x:-fb}") == "v\n"

    def test_assign_default(self, out_of):
        assert out_of("echo ${x:=new}; echo $x") == "new\nnew\n"

    def test_alternate(self, out_of):
        assert out_of("x=v; echo ${x:+alt}") == "alt\n"
        assert out_of("echo [${x:+alt}]") == "[]\n"

    def test_error_op(self, sh_run):
        result = sh_run("echo ${x:?custom message}")
        assert result.status != 0
        assert "custom message" in result.err

    def test_length(self, out_of):
        assert out_of("x=hello; echo ${#x}") == "5\n"
        assert out_of("echo ${#unset}") == "0\n"

    def test_suffix_removal(self, out_of):
        assert out_of("x=file.tar.gz; echo ${x%.gz}") == "file.tar\n"
        assert out_of("x=file.tar.gz; echo ${x%%.*}") == "file\n"

    def test_prefix_removal(self, out_of):
        assert out_of("x=/a/b/c; echo ${x#*/}") == "a/b/c\n"
        assert out_of("x=/a/b/c; echo ${x##*/}") == "c\n"

    def test_pattern_from_variable(self, out_of):
        assert out_of("x=aXb; p=X; echo ${x%${p}b}") == "a\n"

    def test_nounset(self, sh_run):
        result = sh_run("set -u; echo $missing")
        assert result.status != 0


class TestSpecialParams:
    def test_positional(self, sh_run):
        result = sh_run("echo $1:$2:${3}", args=["a", "b", "c"])
        assert result.stdout == b"a:b:c\n"

    def test_count(self, sh_run):
        assert sh_run("echo $#", args=["x", "y"]).stdout == b"2\n"

    def test_status(self, out_of):
        assert out_of("false; echo $?; true; echo $?") == "1\n0\n"

    def test_at_expands_to_fields(self, sh_run):
        result = sh_run('for a in "$@"; do echo [$a]; done',
                        args=["one", "two words", "three"])
        assert result.stdout == b"[one]\n[two words]\n[three]\n"

    def test_star_joins(self, sh_run):
        result = sh_run('echo "$*"', args=["a", "b"])
        assert result.stdout == b"a b\n"

    def test_star_joins_with_ifs(self, sh_run):
        result = sh_run('IFS=,; echo "$*"', args=["a", "b"])
        assert result.stdout == b"a,b\n"

    def test_unquoted_at_splits(self, sh_run):
        result = sh_run("set -- 'a b' c; echo $#; set -- $@; echo $#")
        assert result.stdout == b"2\n3\n"


class TestQuoting:
    def test_quotes_preserve_spaces(self, out_of):
        assert out_of('x="a  b"; echo "$x"') == "a  b\n"

    def test_unquoted_splits(self, out_of):
        assert out_of('x="a  b"; echo $x') == "a b\n"

    def test_empty_quoted_field_survives(self, sh_run):
        result = sh_run('set -- "" b; echo $#')
        assert result.stdout == b"2\n"

    def test_empty_unquoted_vanishes(self, sh_run):
        result = sh_run("x=; set -- $x b; echo $#")
        assert result.stdout == b"1\n"

    def test_single_quotes_block_all(self, out_of):
        assert out_of("echo '$x `cmd` \\'") == "$x `cmd` \\\n"

    def test_backslash_dollar(self, out_of):
        assert out_of("echo \\$x") == "$x\n"


class TestCmdSub:
    def test_basic(self, out_of):
        assert out_of("echo [$(echo inner)]") == "[inner]\n"

    def test_trailing_newlines_stripped(self, out_of):
        assert out_of('x=$(printf "a\\n\\n\\n"); echo "[$x]"') == "[a]\n"

    def test_inner_newlines_kept_when_quoted(self, out_of):
        assert out_of('x=$(printf "a\\nb"); echo "$x"') == "a\nb\n"

    def test_splitting_unquoted(self, out_of):
        assert out_of("set -- $(echo a b c); echo $#") == "3\n"

    def test_nested(self, out_of):
        assert out_of("echo $(echo $(echo deep))") == "deep\n"

    def test_exit_status_visible(self, out_of):
        assert out_of("x=$(false); echo $?") == "1\n"


class TestArithSub:
    def test_basic(self, out_of):
        assert out_of("echo $((2+3))") == "5\n"

    def test_vars_without_dollar(self, out_of):
        assert out_of("x=6; echo $((x*7))") == "42\n"

    def test_vars_with_dollar(self, out_of):
        assert out_of("x=6; echo $(($x*7))") == "42\n"

    def test_assignment_side_effect(self, out_of):
        assert out_of("echo $((y=3)); echo $y") == "3\n3\n"

    def test_no_field_splitting_needed(self, out_of):
        assert out_of('echo "$((1+1))"') == "2\n"


class TestIFS:
    def test_custom_ifs(self, out_of):
        assert out_of('IFS=:; x="a:b:c"; set -- $x; echo $#') == "3\n"

    def test_empty_ifs_no_split(self, out_of):
        assert out_of('IFS=; x="a b"; set -- $x; echo $#') == "1\n"

    def test_hard_delimiter_empty_fields(self, out_of):
        assert out_of('IFS=:; x="a::c"; set -- $x; echo $2-') == "-\n"


class TestPathnameExpansion:
    FILES = {"/w/a.txt": b"", "/w/b.txt": b"", "/w/c.log": b"", "/w/.h": b""}

    def test_glob(self, sh_run):
        result = sh_run("cd /w; echo *.txt", files=self.FILES)
        assert result.stdout == b"a.txt b.txt\n"

    def test_no_match_is_literal(self, sh_run):
        result = sh_run("cd /w; echo *.nope", files=self.FILES)
        assert result.stdout == b"*.nope\n"

    def test_quoted_glob_is_literal(self, sh_run):
        result = sh_run('cd /w; echo "*.txt"', files=self.FILES)
        assert result.stdout == b"*.txt\n"

    def test_noglob_option(self, sh_run):
        result = sh_run("set -f; cd /w; echo *.txt", files=self.FILES)
        assert result.stdout == b"*.txt\n"

    def test_absolute_glob(self, sh_run):
        result = sh_run("echo /w/*.log", files=self.FILES)
        assert result.stdout == b"/w/c.log\n"

    def test_hidden_excluded(self, sh_run):
        result = sh_run("cd /w; echo *", files=self.FILES)
        assert b".h" not in result.stdout

    def test_question_mark(self, sh_run):
        result = sh_run("cd /w; echo ?.txt", files=self.FILES)
        assert result.stdout == b"a.txt b.txt\n"

    def test_glob_from_variable(self, sh_run):
        result = sh_run("cd /w; p='*.txt'; echo $p", files=self.FILES)
        assert result.stdout == b"a.txt b.txt\n"

    def test_unmatched_components_keep_their_text(self, sh_run):
        # `/` holds the dirs d, dev and tmp and the file e: a trailing
        # `/` keeps only directories, and `//` stays as written
        result = sh_run("echo */; echo /d//*.txt; echo /./d/../d/*.txt",
                        files={"/d/a.txt": b"", "/e": b""})
        assert result.stdout == b"d/ dev/ tmp/\n/d//a.txt\n/./d/../d/a.txt\n"


class TestTilde:
    def test_home(self, out_of):
        assert out_of("echo ~") == "/root\n"

    def test_home_slash(self, out_of):
        assert out_of("echo ~/x") == "/root/x\n"

    def test_quoted_tilde_literal(self, out_of):
        assert out_of('echo "~"') == "~\n"

    def test_named_user(self, out_of):
        assert out_of("echo ~alice/f") == "/home/alice/f\n"

    def test_custom_home(self, out_of):
        assert out_of("HOME=/custom; echo ~") == "/custom\n"


# ---------------------------------------------------------------------------
# split_fields unit properties
# ---------------------------------------------------------------------------


def _split(ifs, *segments):
    return [text_of(field) for field in split_fields(list(segments), ifs)]


class TestSplitFields:
    """split_fields splits only expansion-output segments; the word's own
    text and quoted text pass through unsplit."""

    def test_default_whitespace(self):
        assert _split(" \t\n", ("a b  c", EXPANDED)) == ["a", "b", "c"]

    def test_leading_trailing(self):
        assert _split(" \t\n", ("  a  ", EXPANDED)) == ["a"]

    def test_hard_delimiters(self):
        assert _split(":", ("a::b", EXPANDED)) == ["a", "", "b"]

    def test_trailing_hard_delimiter_no_empty(self):
        assert _split(":", ("a:", EXPANDED)) == ["a"]

    def test_leading_hard_delimiter_empty_field(self):
        assert _split(":", (":b", EXPANDED)) == ["", "b"]

    def test_ws_around_hard_merges(self):
        assert _split(": ", ("a : b", EXPANDED)) == ["a", "b"]

    def test_delimiter_run_spans_adjacent_expansions(self):
        # `$a$b` with a="x " and b=": y" holds one run, " : "
        assert _split(": ", ("x ", EXPANDED), (": y", EXPANDED)) == ["x", "y"]

    def test_quoted_chars_never_split(self):
        assert split_fields([("a b", QUOTED)], " \t\n") == [(("a b", True),)]

    def test_literal_text_never_splits(self):
        # XCU 2.6.5: only expansion results are subject to field splitting
        assert _split(" \t\n", ("a b  c", LITERAL)) == ["a b  c"]
        assert _split(":", ("a:b", LITERAL)) == ["a:b"]

    def test_empty_quote_keeps_a_field(self):
        assert split_fields([("", EMPTY)], " ") == [()]
        assert _split(" ", ("a ", EXPANDED), ("", EMPTY)) == ["a", ""]

    def test_positional_breaks(self):
        assert _split(" ", ("a", EXPANDED), (" ", BREAK), ("b c", EXPANDED)) \
            == ["a", "b", "c"]
        assert _split(" ", (" ", BREAK), ("b", EXPANDED)) == ["b"]

    def test_control_bytes_are_data(self):
        assert _split(" ", ("a\x01b\x02\x00 \x03", EXPANDED)) \
            == ["a\x01b\x02\x00", "\x03"]
        assert _split("\x03", ("a\x03b", EXPANDED)) == ["a", "b"]


@given(st.lists(st.text(alphabet="abc", min_size=1, max_size=4),
                min_size=0, max_size=6))
@settings(max_examples=200, deadline=None)
def test_split_roundtrip_on_space_join(fields):
    """Joining non-empty IFS-free fields with single spaces and
    re-splitting the expansion output recovers the fields."""
    assert _split(" \t\n", (" ".join(fields), EXPANDED)) == fields


# -- constant words (fixed at parse time) against the tree expander ---------

#: pieces of one word: plain text, IFS characters that are literal or
#: quoted, glob and tilde characters (bare and quoted; a bracket may open
#: in one piece and close in another), empty quotes, control bytes
#: ``\x00``–``\x03`` (data like any other) and a parameter now and then
#: (a non-constant word keeps the tree path)
_PIECES = ["a", "b", "x.y", "/", "-", ":", "=", "*", "?", "[ab]", "[", "]",
           "~", "~/a", "'a b'", "''", '""', '"x:y"', '"*"', "'~'", "\\*",
           "\\ ", "\\~", '"a\\$"', "$v", '"$v"', "${v:-d}",
           "\x00", "a\x01b", "'\x02'", '"\x03*"', "\\\x01", "$w", '"$w"']


def _drive(gen):
    """Run an expansion generator that must not touch the kernel."""
    try:
        next(gen)
    except StopIteration as stop:
        return stop.value
    raise AssertionError("expansion yielded to the kernel")


@given(words=st.lists(st.lists(st.sampled_from(_PIECES), min_size=1,
                               max_size=4).map("".join),
                      min_size=1, max_size=4),
       ifs=st.sampled_from([" \t\n", ":", "", " :", "a", "\x03", "\x01 "]),
       noglob=st.booleans(),
       names=st.sets(st.sampled_from(["a", "ab", "b", "x.y", ".h", "a b",
                                      "*", "[ab]", "~", "[", "]", "a\x01b"]),
                     max_size=5),
       cwd=st.sampled_from(["/w", "/"]))
@settings(max_examples=300, deadline=None)
def test_constant_words_expand_as_the_tree_expander(words, ifs, noglob,
                                                    names, cwd):
    """A word the lexer marks constant expands, with no pass over its
    parts, to exactly the fields the tree expander gives it, under any
    IFS, ``set -f`` and directory contents."""
    command = parse_one("echo " + " ".join(words))
    state = ShellState()
    state.set("IFS", ifs)
    state.set("v", "p q:r")
    state.set("w", "\x01 \x03:\x00")
    state.set("HOME", "/home/u")
    state.options["noglob"] = noglob
    state.cwd = cwd
    fs = FileSystem()
    for name in names:
        fs.write_bytes(f"{cwd.rstrip('/')}/{name}", b"")
    interp, proc = Interpreter(state), SimpleNamespace(fs=fs)
    argv = command.words[1:]
    assert (_drive(expand_words(interp, proc, argv))
            == _drive(tree_expand_words(interp, proc, argv)))
    for word in argv:
        assert (_drive(expand_word_single(interp, proc, word))
                == _drive(tree_expand_word_single(interp, proc, word)))
        if word.constant is not None:
            assert _drive(tree_expand_words(interp, proc, [word])) == [
                word.constant]


# -- expansion against /bin/sh, with any byte in the data --------------------

#: any byte 0x00-0x7f, IFS characters and the expander's old marks often
_BYTES = st.text(alphabet=st.one_of(st.sampled_from(" \t\n:\x00\x01\x02\x03a*"),
                                    st.characters(max_codepoint=0x7f)),
                 max_size=6)


def _printf(text: str) -> str:
    """A printf call writing ``text`` (every byte an octal escape)."""
    return "printf '" + "".join(f"\\{ord(c):03o}" for c in text) + "'"


@pytest.mark.skipif(HOST_SH is None, reason="no host /bin/sh available")
@given(value=_BYTES, output=_BYTES, ifs=_BYTES)
@settings(max_examples=100, derandomize=True, deadline=None)
def test_fields_agree_with_sh(value, output, ifs):
    """Variable values, command-substitution output and IFS drawn from
    bytes 0x00-0x7f split into the fields /bin/sh gives them (sh drops a
    NUL from substitution output; so does the virtual shell), and so do
    the operands of ``${u:-word}`` and ``${x:+word}``, quoted or not.
    ``set -f``: the two shells run in different directories."""
    script = (f"set -f; x=$({_printf(value)}; echo .); x=${{x%.}}\n"
              f"IFS=$({_printf(ifs)}; echo .); IFS=${{IFS%.}}\n"
              f"printf '%s|' $x \"$x\" $({_printf(output)}) a$x\n"
              "unset u; printf '%s|' ${u:-a:b c$x} ${x:+$x d} ${u:-\"$x\"e}\n"
              "echo; set -- $x; echo $#")
    want = run_host(script, {})
    got = run_virtual(script, {})
    assert (got.stdout, got.status) == (want.stdout, want.status)
