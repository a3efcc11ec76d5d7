"""Filter command tests: tr, grep, cut, sed, wc, rev, paste, nl, tac —
including differential property tests against Python references."""

import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.annotations.inference import run_filter
from repro.commands.filters import parse_cut_list, parse_tr_set
from repro.commands.base import UsageError


class TestTrSets:
    def test_literal(self):
        assert parse_tr_set("abc") == b"abc"

    def test_range(self):
        assert parse_tr_set("a-e") == b"abcde"

    def test_classes(self):
        assert parse_tr_set("[:digit:]") == b"0123456789"

    def test_escapes(self):
        assert parse_tr_set(r"\n\t") == b"\n\t"

    def test_mixed(self):
        assert parse_tr_set(r"A-C1-3") == b"ABC123"

    def test_bad_range(self):
        with pytest.raises(UsageError):
            parse_tr_set("z-a")


class TestTr:
    def test_translate(self, out_of):
        assert out_of("echo hello | tr a-z A-Z") == "HELLO\n"

    def test_delete(self, out_of):
        assert out_of("echo h3ll0 | tr -d 0-9") == "hll\n"

    def test_squeeze(self, out_of):
        assert out_of("echo aaabbbccc | tr -s a-z") == "abc\n"

    def test_complement_tokenize(self, out_of):
        out = out_of("printf 'one two,three\\n' | tr -cs A-Za-z '\\n'")
        assert out == "one\ntwo\nthree\n"

    def test_complement_no_trailing_separator(self, out_of):
        # without a trailing separator there is nothing to translate at
        # the end, exactly like GNU tr
        out = out_of("printf 'one two' | tr -cs A-Za-z '\\n'")
        assert out == "one\ntwo"

    def test_padded_set2(self, out_of):
        # set2 padded with its last char
        assert out_of("echo abcd | tr abc x") == "xxxd\n"

    def test_paper_spell_stages(self, out_of):
        out = out_of("printf 'The QUICK fox' | tr A-Z a-z")
        assert out == "the quick fox"


class TestGrep:
    FILES = {"/log": b"INFO start\nERROR one\nWARN mid\nERROR two\nINFO end\n"}

    def test_match(self, out_of):
        assert out_of("grep ERROR /log", files=self.FILES) == "ERROR one\nERROR two\n"

    def test_invert(self, out_of):
        assert "ERROR" not in out_of("grep -v ERROR /log", files=self.FILES)

    def test_count(self, out_of):
        assert out_of("grep -c ERROR /log", files=self.FILES) == "2\n"

    def test_ignore_case(self, out_of):
        assert out_of("grep -i error /log", files=self.FILES).count("\n") == 2

    def test_line_numbers(self, out_of):
        assert out_of("grep -n one /log", files=self.FILES) == "2:ERROR one\n"

    def test_max_count(self, out_of):
        assert out_of("grep -m 1 ERROR /log", files=self.FILES) == "ERROR one\n"

    def test_fixed_string(self, out_of):
        files = {"/f": b"a.b\naxb\n"}
        assert out_of("grep -F a.b /f", files=files) == "a.b\n"

    def test_quiet(self, sh_run):
        assert sh_run("grep -q ERROR /log", files=self.FILES).status == 0
        assert sh_run("grep -q ABSENT /log", files=self.FILES).status == 1

    def test_no_match_status(self, sh_run):
        assert sh_run("grep ABSENT /log", files=self.FILES).status == 1

    def test_whole_line(self, out_of):
        files = {"/f": b"exact\nexactly\n"}
        assert out_of("grep -x exact /f", files=files) == "exact\n"

    def test_stdin(self, out_of):
        assert out_of("printf 'a\\nb\\n' | grep b") == "b\n"

    def test_regex(self, out_of):
        # alternation/grouping are ERE operators; in a BRE they are literal
        assert out_of("grep -E 'ERROR (one|two)' /log", files=self.FILES).count("\n") == 2

    def test_multiple_files_prefixed(self, out_of):
        files = {"/1": b"hit\n", "/2": b"hit\n"}
        out = out_of("grep hit /1 /2", files=files)
        assert out == "/1:hit\n/2:hit\n"


class TestGrepBre:
    """POSIX BRE semantics (the difftest-caught bug class): + ? | and
    unescaped { are LITERALS in a BRE; \\( \\) \\{ \\} are the operators."""

    FILES = {"/f": b"a+b\naab\nx|y\nxy\nq?\nq\nab\n"}

    def test_plus_is_literal(self, out_of):
        assert out_of("grep 'a+b' /f", files=self.FILES) == "a+b\n"

    def test_pipe_is_literal(self, out_of):
        assert out_of("grep 'x|y' /f", files=self.FILES) == "x|y\n"

    def test_question_is_literal(self, out_of):
        assert out_of("grep 'q?' /f", files=self.FILES) == "q?\n"

    def test_unescaped_brace_is_literal(self, out_of):
        files = {"/b": b"a{2}\naa\n"}
        assert out_of("grep 'a{2}' /b", files=files) == "a{2}\n"

    def test_escaped_interval_is_operator(self, out_of):
        files = {"/b": b"a\naa\naaa\n"}
        assert out_of("grep -x 'a\\{2\\}' /b", files=files) == "aa\n"

    def test_escaped_group_backref(self, out_of):
        files = {"/b": b"abab\nabcd\n"}
        assert out_of("grep '\\(ab\\)\\1' /b", files=files) == "abab\n"

    def test_leading_star_is_literal(self, out_of):
        files = {"/b": b"*x\nxx\n"}
        assert out_of("grep '*x' /b", files=files) == "*x\n"

    def test_star_after_atom_repeats(self, out_of):
        files = {"/b": b"ab\naab\nb\n"}
        assert out_of("grep -x 'a*b' /b", files=files) == "ab\naab\nb\n"

    def test_midline_dollar_is_literal(self, out_of):
        files = {"/b": b"a$b\nab\n"}
        assert out_of("grep 'a$b' /b", files=files) == "a$b\n"

    def test_bracket_class(self, out_of):
        files = {"/b": b"a1\nab\n"}
        assert out_of("grep '[[:digit:]]' /b", files=files) == "a1\n"

    def test_bracket_leading_rbracket(self, out_of):
        files = {"/b": b"a]b\nab\n"}
        assert out_of("grep '[]x]' /b", files=files) == "a]b\n"

    def test_invalid_regex_exits_2(self, sh_run):
        assert sh_run("printf 'a\\n' | grep '\\(a'").status == 2

    # -E switches the same pattern text to ERE semantics
    def test_ere_plus_is_operator(self, out_of):
        assert out_of("grep -E 'a+b' /f", files=self.FILES) == "aab\nab\n"

    def test_ere_alternation(self, out_of):
        assert out_of("grep -xE 'xy|ab' /f", files=self.FILES) == "xy\nab\n"

    def test_ere_question_is_operator(self, out_of):
        files = {"/b": b"color\ncolour\n"}
        assert out_of("grep -E 'colou?r' /b", files=files) == "color\ncolour\n"

    def test_ere_interval(self, out_of):
        files = {"/b": b"a\naa\naaa\n"}
        assert out_of("grep -xE 'a{2,3}' /b", files=files) == "aa\naaa\n"

    def test_ere_group(self, out_of):
        files = {"/b": b"abab\nab\n"}
        assert out_of("grep -xE '(ab){2}' /b", files=files) == "abab\n"


class TestCut:
    def test_parse_list(self):
        assert parse_cut_list("1,3-5") == [(1, 1), (3, 5)]
        assert parse_cut_list("-3") == [(1, 3)]
        assert parse_cut_list("5-")[0][0] == 5
        with pytest.raises((UsageError, ValueError)):
            parse_cut_list("0")

    def test_chars(self, out_of):
        assert out_of("printf 'abcdef\\n' | cut -c 2-4") == "bcd\n"

    def test_paper_temperature_columns(self, out_of):
        line = ("x" * 88 + "0123" + "y" * 10) + "\n"
        out = out_of(f"printf '{line}' | cut -c 89-92")
        assert out == "0123\n"

    def test_fields(self, out_of):
        assert out_of("printf 'a:b:c\\n' | cut -d : -f 2") == "b\n"

    def test_fields_multi(self, out_of):
        assert out_of("printf 'a:b:c:d\\n' | cut -d : -f 1,3-4") == "a:c:d\n"

    def test_no_delimiter_passthrough(self, out_of):
        assert out_of("printf 'plain\\n' | cut -d : -f 2") == "plain\n"

    def test_only_delimited(self, out_of):
        assert out_of("printf 'a:b\\nplain\\n' | cut -s -d : -f 1") == "a\n"


class TestSed:
    def test_substitute(self, out_of):
        assert out_of("printf 'aaa\\n' | sed s/a/b/") == "baa\n"

    def test_substitute_global(self, out_of):
        assert out_of("printf 'aaa\\n' | sed s/a/b/g") == "bbb\n"

    def test_delete(self, out_of):
        assert out_of("printf 'keep\\ndrop\\n' | sed /drop/d") == "keep\n"

    def test_print_with_n(self, out_of):
        assert out_of("printf 'a\\nb\\n' | sed -n /b/p") == "b\n"

    def test_ampersand(self, out_of):
        assert out_of("printf 'x\\n' | sed 's/x/[&]/'") == "[x]\n"

    def test_alternate_separator(self, out_of):
        assert out_of("printf '/a/b\\n' | sed 's|/a|/z|'") == "/z/b\n"

    def test_multiple_commands(self, out_of):
        assert out_of("printf 'ab\\n' | sed 's/a/1/;s/b/2/'") == "12\n"

    def test_every_e_script_runs_in_order(self, out_of):
        assert out_of("printf 'ab\\n' | sed -e s/a/b/ -e s/b/c/g") == "cc\n"
        assert out_of("printf 'ab\\n' | sed -n -es/a/b/p -e s/b/c/p") == \
            "bb\ncb\n"

    def test_numeric_occurrence_flag(self, out_of):
        assert out_of("printf 'aaaa\\n' | sed s/a/b/3") == "aaba\n"
        assert out_of("printf 'aaaa\\n' | sed s/a/b/3g") == "aabb\n"
        assert out_of("printf 'a-a\\nb\\n' | sed -n 's/a/[&]/2p'") == "a-[a]\n"

    @pytest.mark.parametrize("flags", ["x", "w out", "0", "2g3", "I"])
    def test_unknown_s_flags_are_refused(self, sh_run, flags):
        result = sh_run(f"printf 'aaa\\n' | sed 's/a/b/{flags}'")
        assert result.status == 2 and result.out == ""
        assert result.err.startswith("sed: ")

    def test_quit_at_line(self, out_of):
        assert out_of("printf '1\\n2\\n3\\n' | sed 2q") == "1\n2\n"
        assert out_of("printf '1\\n2\\n' | sed 'q;s/1/x/'") == "1\n"


class TestWc:
    def test_lines_words_bytes(self, out_of):
        out = out_of("printf 'one two\\nthree\\n' | wc")
        assert out.split() == ["2", "3", "14"]

    def test_l(self, out_of):
        assert out_of("printf 'a\\nb\\nc\\n' | wc -l").strip() == "3"

    def test_w_across_chunks(self, out_of):
        assert out_of("printf 'a b  c\\n' | wc -w").strip() == "3"

    def test_c(self, out_of):
        assert out_of("printf '12345' | wc -c").strip() == "5"

    def test_file_label(self, out_of):
        out = out_of("wc -l /f", files={"/f": b"x\n"})
        assert out == "1 /f\n"

    def test_total_line(self, out_of):
        files = {"/a": b"1\n", "/b": b"2\n3\n"}
        out = out_of("wc -l /a /b", files=files)
        assert "total" in out
        assert out.splitlines()[-1].split()[0] == "3"


class TestMisc:
    def test_rev(self, out_of):
        assert out_of("printf 'abc\\ndef\\n' | rev") == "cba\nfed\n"

    def test_tac(self, out_of):
        assert out_of("printf '1\\n2\\n3\\n' | tac") == "3\n2\n1\n"

    def test_paste(self, out_of):
        files = {"/a": b"1\n2\n", "/b": b"x\ny\n"}
        assert out_of("paste /a /b", files=files) == "1\tx\n2\ty\n"

    def test_paste_delim(self, out_of):
        files = {"/a": b"1\n", "/b": b"x\n"}
        assert out_of("paste -d , /a /b", files=files) == "1,x\n"

    def test_paste_delim_list_cycles(self, out_of):
        # GNU: the delimiter list cycles per column, resetting each row
        files = {"/a": b"1\n", "/b": b"2\n", "/c": b"3\n", "/d": b"4\n"}
        out = out_of("paste -d ':;' /a /b /c /d", files=files)
        assert out == "1:2;3:4\n"

    def test_paste_delim_escapes(self, out_of):
        files = {"/a": b"1\n", "/b": b"2\n", "/c": b"3\n"}
        # \\0 is the EMPTY delimiter, not NUL
        out = out_of("paste -d '\\0' /a /b /c", files=files)
        assert out == "123\n"

    def test_paste_serial(self, out_of):
        files = {"/a": b"1\n2\n3\n"}
        assert out_of("paste -s /a", files=files) == "1\t2\t3\n"

    def test_paste_serial_delim(self, out_of):
        files = {"/a": b"a\nb\nc\n"}
        assert out_of("paste -s -d, /a", files=files) == "a,b,c\n"

    def test_paste_serial_multiple_files(self, out_of):
        # serial mode emits one line PER FILE
        files = {"/a": b"1\n2\n", "/b": b"x\ny\n"}
        assert out_of("paste -s /a /b", files=files) == "1\t2\nx\ty\n"

    def test_paste_serial_stdin(self, out_of):
        assert out_of("seq 3 | paste -s -d-") == "1-2-3\n"

    def test_paste_uneven_files(self, out_of):
        files = {"/a": b"1\n2\n3\n", "/b": b"x\n"}
        assert out_of("paste /a /b", files=files) == "1\tx\n2\t\n3\t\n"

    def test_nl(self, out_of):
        out = out_of("printf 'a\\nb\\n' | nl")
        assert re.match(r"\s+1\ta\n\s+2\tb\n", out)


# ---------------------------------------------------------------------------
# differential property tests vs Python references
# ---------------------------------------------------------------------------

_lines = st.lists(
    st.text(alphabet="abcxyz019 .", min_size=0, max_size=12),
    min_size=0, max_size=20,
).map(lambda ls: ("".join(line + "\n" for line in ls)).encode())


@given(_lines)
@settings(max_examples=100, deadline=None)
def test_grep_matches_python(data):
    status, out = run_filter(["grep", "a"], data)
    expected = b"".join(
        line for line in data.splitlines(keepends=True) if b"a" in line
    )
    assert out == expected


@given(_lines)
@settings(max_examples=100, deadline=None)
def test_tr_upper_matches_python(data):
    _status, out = run_filter(["tr", "a-z", "A-Z"], data)
    assert out == data.upper()


@given(_lines, st.integers(1, 5))
@settings(max_examples=100, deadline=None)
def test_head_matches_python(data, n):
    _status, out = run_filter(["head", "-n", str(n)], data)
    assert out == b"".join(data.splitlines(keepends=True)[:n])


@given(_lines, st.integers(1, 4), st.integers(1, 6))
@settings(max_examples=100, deadline=None)
def test_cut_chars_matches_python(data, lo, width):
    _status, out = run_filter(["cut", "-c", f"{lo}-{lo + width - 1}"], data)
    expected = b"".join(
        line.rstrip(b"\n")[lo - 1 : lo + width - 1] + b"\n"
        for line in data.splitlines(keepends=True)
    )
    assert out == expected


@given(_lines)
@settings(max_examples=100, deadline=None)
def test_wc_l_matches_python(data):
    _status, out = run_filter(["wc", "-l"], data)
    assert int(out.split()[0]) == data.count(b"\n")


# ---------------------------------------------------------------------------
# Compile-once record kernels: sed's template and script parsers, cut's LIST
# ---------------------------------------------------------------------------


def run_sed(script, data, *flags):
    return run_filter(["sed", *flags, script], data)


class TestSedCompiled:
    def test_global_skips_the_empty_match_after_a_match(self):
        assert run_sed("s/b*/X/g", b"abc\n") == (0, b"XaXcX\n")
        assert run_sed("s/[^ ]*/X/g", b"a b\n") == (0, b"X X\n")
        assert run_sed("s/b*/X/2", b"abc\n") == (0, b"aXc\n")
        assert run_sed("s/x*/-/g", b"ab\n") == (0, b"-a-b-\n")

    def test_template_escapes(self):
        assert run_sed("s/h/\\&/", b"hello\n") == (0, b"&ello\n")
        assert run_sed("s/h/\\\\/", b"hello\n") == (0, b"\\ello\n")
        assert run_sed("s/l/[&&]/", b"hello\n") == (0, b"he[ll]lo\n")
        assert run_sed("s/h/a\\nb/", b"hello\n") == (0, b"a\nbello\n")
        assert run_sed("s|l|\\||g", b"hello\n") == (0, b"he||o\n")
        assert run_sed("s/\\(h\\)\\(z\\)*/[\\2\\1]/", b"hello\n") \
            == (0, b"[h]ello\n")  # an unmatched group is empty

    def test_script_is_read_left_to_right(self):
        assert run_sed("s/;/x/", b"a;b\n") == (0, b"axb\n")
        assert run_sed("s/a/;/;s/b/;/", b"ab\n") == (0, b";;\n")
        assert run_sed(" s/a/b/ ;\n /c/ d ; 3q", b"a\nc\nd\ne\n") \
            == (0, b"b\nd\n")

    @pytest.mark.parametrize("script", ["s/a/b", "s/a", "s", "s/a/\\2/",
                                        "s/a/b/x", "/a/x", "/a", "3", "p"])
    def test_what_sed_refuses(self, sh_run, script):
        result = sh_run(f"echo abc | sed '{script}'")
        assert (result.status, result.stdout) == (2, b"")
        assert result.err.startswith("sed: ")

    def test_prints_happen_at_the_command(self):
        assert run_sed("s/a/b/p;s/b/c/", b"a\n") == (0, b"b\nc\n")
        assert run_sed("/a/p;/a/d", b"a\nx\n") == (0, b"a\nx\n")
        assert run_sed("s/a/b/p;/b/d", b"a\n", "-n") == (0, b"b\n")

    def test_q_stops_the_script_on_its_line(self):
        assert run_sed("2q;s/b/X/", b"a\nb\nc\n") == (0, b"a\nb\n")
        assert run_sed("s/b/X/;2q", b"a\nb\nc\n") == (0, b"a\nX\n")
        assert run_sed("/a/d;1q", b"a\nb\n") == (0, b"b\n")  # d ends the cycle
        assert run_sed("", b"a\nb") == (0, b"a\nb\n")

    @settings(max_examples=200, deadline=None)
    @given(pattern=st.text(alphabet="ab.", min_size=1, max_size=3),
           repl=st.lists(st.sampled_from(["x", "b", "&", "\\&", "\\\\", "\\/"]),
                         max_size=3).map("".join),
           line=st.text(alphabet="abc", max_size=12),
           flags=st.sampled_from(["", "g", "2", "2g", "p", "gp"]))
    def test_substitute_matches_a_match_by_match_model(self, pattern, repl,
                                                       line, flags):
        """Every ``s`` path (search + splice, ``re.subn`` of a literal,
        ``posix_sub``) against sed's rule applied match by match."""
        status, out = run_sed(f"s/{pattern}/{repl}/{flags}", line.encode() + b"\n",
                              "-n" if "p" in flags else "--")
        nth = 2 if "2" in flags else 1
        matches = [m for m in re.finditer(pattern, line)][nth - 1:]
        if "g" not in flags:
            matches = matches[:1]
        text = re.sub(r"\\(.)|&", lambda m: m[1] or "\0", repl)
        expected, pos = [], 0
        for m in matches:
            expected += [line[pos:m.start()], text.replace("\0", m[0])]
            pos = m.end()
        expected = "".join(expected) + line[pos:] + "\n"
        if "p" in flags:
            expected = expected if matches else ""
        assert (status, out) == (0, expected.encode())

    def test_missing_operand(self, sh_run):
        result = sh_run("sed s/a/b/ /nosuch /f; echo $?", files={"/f": b"a\n"})
        assert result.stdout == b"b\n2\n"
        assert result.err == "sed: /nosuch: No such file or directory\n"


class TestCutCompiled:
    def test_list_is_a_set(self):
        assert parse_cut_list("3,1") == [(1, 1), (3, 3)]
        assert parse_cut_list("1,1,2") == [(1, 2)]
        assert parse_cut_list("5,2-3,3-4") == [(2, 5)]
        assert parse_cut_list("4-,2") == [(2, 2), (4, 10**9)]
        data = b"a:b:c:d:e\n"
        assert run_filter(["cut", "-d:", "-f3,1"], data) == (0, b"a:c\n")
        assert run_filter(["cut", "-d:", "-f1,1,2"], data) == (0, b"a:b\n")
        assert run_filter(["cut", "-c5,2-3"], b"abcdef\n") == (0, b"bce\n")

    def test_every_picker_shape(self):
        data = b"a:b:c:d\nplain\n:x\nq:r"
        assert run_filter(["cut", "-d:", "-f2"], data) \
            == (0, b"b\nplain\nx\nr\n")
        assert run_filter(["cut", "-d:", "-f2-"], data) \
            == (0, b"b:c:d\nplain\nx\nr\n")
        assert run_filter(["cut", "-d:", "-f1,3-"], data) \
            == (0, b"a:c:d\nplain\n\nq\n")
        assert run_filter(["cut", "-s", "-d:", "-f1,3"], data) \
            == (0, b"a:c\n\nq\n")
        assert run_filter(["cut", "-s", "-d:", "-f9"], data) == (0, b"\n\n\n")
        assert run_filter(["cut", "-c2-3"], data) == (0, b":b\nla\nx\n:r\n")
        assert run_filter(["cut", "-c1,3-"], data) \
            == (0, b"ab:c:d\npain\n:\nqr\n")

    @pytest.mark.parametrize("argv", [["-d::", "-f1"], ["-d", "", "-f1"],
                                      ["-f0"], ["-c3-1"], ["-f", ","]])
    def test_what_cut_refuses(self, sh_run, argv):
        flags = " ".join(f"'{arg}'" for arg in argv)
        result = sh_run(f"echo a:b | cut {flags}")
        assert (result.status, result.stdout) == (2, b"")
        assert result.err.startswith("cut: ")

    def test_missing_operand(self, sh_run):
        for name, flags in (("cut", "-c1"), ("rev", "")):
            result = sh_run(f"{name} {flags} /nosuch /f; echo $?",
                            files={"/f": b"ab\n"})
            assert result.stdout.endswith(b"\n2\n") and len(result.stdout) > 3
            assert result.err == f"{name}: /nosuch: No such file or directory\n"

    def test_rev_reverses_each_line(self):
        assert run_filter(["rev"], b"abc\n\nxy") == (0, b"cba\n\nyx\n")
