"""awk subset tests: language features, runtime semantics, the
statelessness analysis, annotation integration, and differential
conformance against the host's real awk when present."""

import json
import shutil
import subprocess
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.annotations import DEFAULT_LIBRARY, ParClass
from repro.annotations.inference import run_filter
from repro.commands.awk_lite import (
    AwkSyntaxError,
    parse_awk,
    program_is_stateless,
    to_num,
    to_str,
)

REAL_AWK = shutil.which("awk")


def run_awk(args, stdin=b""):
    return run_filter(["awk"] + args, stdin)


class TestBasics:
    def test_print_whole_record(self):
        assert run_awk(["{print}"], b"a\nb\n") == (0, b"a\nb\n")

    def test_fields(self):
        assert run_awk(["{print $2, $1}"], b"a b\n") == (0, b"b a\n")

    def test_field_out_of_range_empty(self):
        assert run_awk(["{print $9}"], b"a b\n") == (0, b"\n")

    def test_nf_nr(self):
        status, out = run_awk(["{print NR, NF}"], b"a b\nc d e\n")
        assert out == b"1 2\n2 3\n"

    def test_field_separator_flag(self):
        assert run_awk(["-F", ":", "{print $2}"], b"a:b:c\n") == (0, b"b\n")

    def test_fs_variable(self):
        status, out = run_awk(['BEGIN {FS=","} {print $2}'], b"x,y\n")
        assert out == b"y\n"

    def test_computed_field(self):
        assert run_awk(["{print $(NF-1)}"], b"a b c\n") == (0, b"b\n")

    def test_v_assignment(self):
        assert run_awk(["-v", "x=7", "BEGIN{print x+1}"]) == (0, b"8\n")

    def test_empty_input_no_main_output(self):
        assert run_awk(["{print}"], b"") == (0, b"")

    def test_begin_only_reads_no_input(self):
        assert run_awk(['BEGIN {print "hi"}']) == (0, b"hi\n")


class TestPatterns:
    def test_regex_pattern(self):
        assert run_awk(["/err/"], b"ok\nerror\n") == (0, b"error\n")

    def test_expression_pattern(self):
        assert run_awk(["$1 >= 3"], b"1\n5\n3\n") == (0, b"5\n3\n")

    def test_nr_pattern(self):
        assert run_awk(["NR==1"], b"first\nsecond\n") == (0, b"first\n")

    def test_match_operator(self):
        assert run_awk(['$1 ~ /^a/ {print "m"}'], b"abc\nbcd\n") == (0, b"m\n")

    def test_nomatch_operator(self):
        assert run_awk(['$1 !~ /a/'], b"abc\nxyz\n") == (0, b"xyz\n")

    def test_begin_end_order(self):
        status, out = run_awk(
            ['END {print "E"} BEGIN {print "B"} {print "M"}'], b"x\n"
        )
        assert out == b"B\nM\nE\n"

    def test_next_skips_rest(self):
        status, out = run_awk(
            ['/skip/ {next} {print "kept:" $0}'], b"a\nskip me\nb\n"
        )
        assert out == b"kept:a\nkept:b\n"

    def test_exit_ends_input_and_runs_end(self):
        assert run_awk(['NR==2{exit} {print} END{print "E"}'],
                       b"a\nb\nc\n") == (0, b"a\nE\n")
        assert run_awk(['{print; exit 1+2}'], b"a\nb\n") == (3, b"a\n")
        assert run_awk(['BEGIN{exit 4} {print} END{print "E"}'],
                       b"a\n") == (4, b"E\n")

    def test_exit_in_end_stops_end_and_keeps_the_status(self):
        assert run_awk(['{exit 2} END{print "E"; exit; print "no"}'],
                       b"a\n") == (2, b"E\n")
        assert run_awk(['END{exit 5} END{print "no"}'], b"a\n") == (5, b"")

    def test_exit_is_not_a_variable(self):
        assert run_awk(["{exit = 1}"], b"a\n")[0] == 2  # syntax error


class TestState:
    def test_sum(self):
        assert run_awk(["{s+=$1} END{print s}"], b"1\n2\n3.5\n") == (0, b"6.5\n")

    def test_count_array(self):
        status, out = run_awk(
            ["{c[$1]++} END{for (k in c) print k, c[k]}"], b"b\na\nb\n"
        )
        assert sorted(out.splitlines()) == [b"a 1", b"b 2"]

    def test_max_tracking(self):
        status, out = run_awk(
            ['{if (m=="" || $1>m) m=$1} END{print m}'], b"5\n12\n9\n"
        )
        assert out == b"12\n"

    def test_while_loop(self):
        status, out = run_awk(
            ["BEGIN{i=0; while (i<3) {print i; i++}}"]
        )
        assert out == b"0\n1\n2\n"

    def test_pre_post_increment(self):
        status, out = run_awk(["BEGIN{x=5; print x++, x, ++x, x}"])
        assert out == b"5 6 7 7\n"

    def test_field_assignment_rebuilds_record(self):
        assert run_awk(['{$2="Z"; print}'], b"a b c\n") == (0, b"a Z c\n")

    def test_ofs_in_rebuild(self):
        status, out = run_awk(['BEGIN{OFS="-"} {$1=$1; print}'], b"a b c\n")
        assert out == b"a-b-c\n"


class TestFunctionsAndExprs:
    def test_length(self):
        assert run_awk(["{print length($1)}"], b"hello x\n") == (0, b"5\n")

    def test_substr(self):
        assert run_awk(['BEGIN{print substr("abcdef", 3, 2)}']) == (0, b"cd\n")

    def test_index(self):
        assert run_awk(['BEGIN{print index("hello", "ll")}']) == (0, b"3\n")

    def test_upper_lower(self):
        status, out = run_awk(['BEGIN{print toupper("aB"), tolower("Cd")}'])
        assert out == b"AB cd\n"

    def test_int(self):
        assert run_awk(["BEGIN{print int(3.9), int(-2.5)}"]) == (0, b"3 -2\n")

    def test_split(self):
        status, out = run_awk(
            ['BEGIN{n=split("a:b:c", p, ":"); print n, p[2]}']
        )
        assert out == b"3 b\n"

    def test_sprintf(self):
        status, out = run_awk(['BEGIN{print sprintf("%05.1f", 3.14)}'])
        assert out == b"003.1\n"

    def test_printf_formats(self):
        status, out = run_awk(
            ['BEGIN{printf "%d|%s|%x|%c|%.2f\\n", 10, "s", 255, "zap", 1.5}']
        )
        assert out == b"10|s|ff|z|1.50\n"

    def test_concat(self):
        assert run_awk(['{print $1 "-" $2 NR}'], b"a b\n") == (0, b"a-b1\n")

    def test_ternary(self):
        assert run_awk(['{print $1 > 5 ? "big" : "small"}'], b"7\n3\n") \
            == (0, b"big\nsmall\n")

    def test_numeric_string_comparison(self):
        # "10" > "9" numerically when both look numeric
        assert run_awk(["$1 > $2"], b"10 9\n2 10\n") == (0, b"10 9\n")

    def test_string_comparison(self):
        assert run_awk(['$1 == "abc"'], b"abc\nabd\n") == (0, b"abc\n")

    def test_arithmetic(self):
        status, out = run_awk(["BEGIN{print 7/2, 7%3, 2*3+1, -(4-6)}"])
        assert out == b"3.5 1 7 2\n"

    def test_division_by_zero(self):
        status, out = run_awk(["BEGIN{print 1/0}"])
        assert status == 2


class TestErrors:
    def test_missing_program(self):
        assert run_awk([])[0] == 2

    def test_syntax_error(self):
        assert run_awk(["{print"])[0] == 2

    def test_parse_errors(self):
        with pytest.raises(AwkSyntaxError):
            parse_awk("{print $}")
        with pytest.raises(AwkSyntaxError):
            parse_awk("/unterminated")


class TestStatelessAnalysis:
    @pytest.mark.parametrize("program,expected", [
        ("{print $1}", True),
        ("{print toupper($0)}", True),
        ("$1 > 2", True),
        ("/pat/ {print $2, $1}", True),
        ('{$2="X"; print}', True),          # field writes are per-record
        ("{s+=$1} END {print s}", False),   # accumulator
        ("NR % 2 == 0", False),             # position dependent
        ("BEGIN {x=1} {print x}", False),
        ("{c[$1]++}", False),
        ("END {print NR}", False),
        ("/stop/ {exit} {print}", False),   # drops every later record
        ("not a ( valid program", False),
    ])
    def test_classification(self, program, expected):
        assert program_is_stateless(program) is expected

    def test_library_integration(self):
        spec = DEFAULT_LIBRARY.classify("awk", ["{print $1}"])
        assert spec.par_class is ParClass.STATELESS
        spec = DEFAULT_LIBRARY.classify("awk", ["{s+=$1} END {print s}"])
        assert spec.par_class is ParClass.NON_PARALLELIZABLE

    def test_parallelized_end_to_end(self):
        """A stateless awk map parallelizes and stays correct."""
        from repro.compiler.parallel import parallelize
        from repro.dfg import region_from_argvs
        from .test_dfg_compiler import run_plan

        data = b"".join(b"%d val%d\n" % (i, i) for i in range(400))
        region = region_from_argvs(
            [["cat", "/in"], ["awk", "{print $2}"]], DEFAULT_LIBRARY
        )
        assert region is not None and region.parallelizable
        plan = parallelize(region, 4, "range", file_sizes=lambda p: len(data))
        status, out = run_plan(plan, {"/in": data})
        assert status == 0
        assert out == b"".join(b"val%d\n" % i for i in range(400))


class TestCoercions:
    def test_to_num(self):
        assert to_num("42") == 42.0
        assert to_num("3.5x") == 3.5
        assert to_num("abc") == 0.0
        assert to_num("") == 0.0
        assert to_num("-7") == -7.0

    def test_to_str(self):
        assert to_str(42.0) == "42"
        assert to_str(3.5) == "3.5"
        assert to_str("s") == "s"


@pytest.mark.skipif(REAL_AWK is None, reason="no system awk")
class TestDifferentialAwk:
    PROGRAMS = [
        ("{print $2}", b"a b c\nd e f\n"),
        ("{print NR, NF}", b"one\ntwo words\n"),
        ("{s+=$1} END {print s}", b"1\n2\n3\n"),
        ("$1 > 2 {print $1*2}", b"1\n3\n5\n"),
        ("/b/ {print toupper($0)}", b"abc\nxyz\n"),
        ('{printf "%s:%d\\n", $1, NR}', b"p\nq\n"),
        ('{print length($0)}', b"hello\nhi\n"),
        ('{print substr($1, 2)}', b"abcd\n"),
        ('BEGIN {print 7/2, 10%3}', b""),
        ('{c[$1]++} END {for (k in c) print c[k]}', b"x\nx\ny\n"),
        ('{print $1 "-" $2}', b"a b\n"),
        ('$2 == "hit"', b"a hit\nb miss\n"),
        ('{$1 = "Z"; print}', b"a b\n"),
        ('NR == 2 {print "second"}', b"x\ny\nz\n"),
    ]

    @pytest.mark.parametrize("program,data", PROGRAMS)
    def test_matches_system_awk(self, program, data):
        expected = subprocess.run(
            [REAL_AWK, program], input=data, capture_output=True, timeout=10
        )
        status, out = run_awk([program], data)
        assert out == expected.stdout, (program, out, expected.stdout)
        assert status == expected.returncode


@pytest.mark.skipif(REAL_AWK is None, reason="no system awk")
@given(
    col=st.integers(1, 4),
    rows=st.lists(
        st.lists(st.integers(0, 99), min_size=1, max_size=4),
        min_size=0, max_size=8,
    ),
)
@settings(max_examples=50, deadline=None)
def test_column_select_matches_system_awk(col, rows):
    data = "".join(" ".join(map(str, row)) + "\n" for row in rows).encode()
    program = f"{{print ${col}}}"
    expected = subprocess.run([REAL_AWK, program], input=data,
                              capture_output=True, timeout=10)
    status, out = run_awk([program], data)
    assert out == expected.stdout


class TestSubGsub:
    def test_sub_replaces_first(self):
        assert run_awk(['{sub(/a/, "X"); print}'], b"banana\n") == (0, b"bXnana\n")

    def test_gsub_replaces_all(self):
        assert run_awk(['{gsub(/a/, "X"); print}'], b"banana\n") == (0, b"bXnXnX\n")

    def test_gsub_returns_count(self):
        assert run_awk(['{print gsub(/a/, "X")}'], b"banana\n") == (0, b"3\n")

    def test_sub_on_field(self):
        assert run_awk(['{sub(/x/, "Y", $2); print}'], b"a xx b\n") == (0, b"a Yx b\n")

    def test_gsub_ampersand(self):
        assert run_awk(['{gsub(/a/, "[&]"); print}'], b"aba\n") == (0, b"[a]b[a]\n")

    def test_sub_string_pattern(self):
        status, out = run_awk(['{sub("b.n", "Z"); print}'], b"banana\n")
        assert out == b"Zana\n"

    def test_match_sets_rstart_rlength(self):
        status, out = run_awk(['{print match($0, /na/), RSTART, RLENGTH}'],
                              b"banana\n")
        assert out == b"3 3 2\n"

    def test_match_no_hit(self):
        status, out = run_awk(['{print match($0, /zz/), RLENGTH}'], b"ab\n")
        assert out == b"0 -1\n"

    def test_gsub_var_target_stateful(self):
        assert not program_is_stateless('{gsub(/a/, "b", acc)}')
        assert program_is_stateless('{gsub(/a/, "b"); print}')

    def test_split_stateful(self):
        assert not program_is_stateless('{split($0, parts, ":")}')


# ---------------------------------------------------------------------------
# The compiled closures against the tree walker they replaced
# ---------------------------------------------------------------------------

GOLDEN = json.loads((Path(__file__).parent / "corpus"
                     / "awk_golden.json").read_text())


class TestGoldenTable:
    """``tests/corpus/awk_golden.json`` holds ``(status, stdout)`` of the
    tree-walking evaluator, recorded by ``tools/regen_awk_golden.py`` the
    commit before it was replaced by closures."""

    def test_table_covers_the_language(self):
        assert len(GOLDEN) >= 300
        programs = " ".join(" ".join(row["args"]) for row in GOLDEN)
        for needle in ("BEGIN", "END", "next", "exit", "while", "for (k in",
                       "printf", "sprintf", "substr", "index(", "toupper",
                       "tolower", "int(", "split(", "length(", "match(",
                       "sub(", "gsub(", "$0 =", "$(i++)", "x = y = 3", "&&",
                       "||", "?", "!~", "-F", "-v", "ORS", "OFS", "%5.2f"):
            assert needle in programs, needle
        assert any(not row["stdin"].endswith("\n") and row["stdin"]
                   for row in GOLDEN)  # an unterminated last record

    @pytest.mark.parametrize("row", GOLDEN,
                             ids=lambda row: " ".join(row["args"])[:40])
    def test_closures_reproduce_the_walker(self, row):
        got = run_awk(row["args"], row["stdin"].encode("latin-1"))
        assert got == (row["status"], row["stdout"].encode("latin-1"))

    def test_a_subscript_is_evaluated_once_per_assignment(self):
        # the walker evaluated it for the read and again for the write
        assert run_awk(["BEGIN{a[i++]++; a[j++] += 2; print i, j, a[0]}"]) \
            == (0, b"1 1 3\n")

    def test_one_compile_per_node(self):
        from repro.commands.awk_lite import AwkRuntime

        items = parse_awk("$1 > 1 {n += $1} END{print n}")
        runtime = AwkRuntime()
        pattern, action = items[0]
        assert runtime.compile(action) is runtime.compile(action)
        for line in ("1", "2", "3"):
            runtime.set_record(line)
            if runtime.eval(pattern.a):
                runtime.exec_block(action)
        runtime.exec_block(items[1][1])
        assert runtime.out == [b"5\n"]


class TestRefusals:
    """What the subset does not implement is refused at parse time —
    ``awk: unsupported: ...`` on fd 2, status 2, nothing on stdout — not
    answered wrongly with status 0.  (Host awk supports all of these, so
    they cannot be corpus entries.)"""

    @pytest.mark.parametrize("program", [
        "function f(x){return x+1} {print f(1)}",
        "{ getline x; print x }",
        '{ print "x" > "out" }',
        '{ print "x" >> "out" }',
        '{ print > "out" }',
        '{ printf "%s\\n", $1 > "out" }',
        '{ print "x" | "sort" }',
        "{ for (i = 0; i < 3; i++) print i }",
        "{ do print; while (0) }",
        "BEGIN { print 2 ^ 3 }",
        "BEGIN { print 2 ** 3 }",
        "{ if ((1, 2) in a) print }",
        "{ if ($1 in a) print }",
        "{ delete a[1] }",
    ])
    def test_unsupported_is_a_parse_time_error(self, sh_run, program):
        result = sh_run(f"printf 'a\\nb\\n' | awk '{program}'")
        assert (result.status, result.stdout) == (2, b"")
        assert result.err.startswith("awk: unsupported: ")
        assert not sh_run.shell.fs.exists("/out")

    def test_comparisons_in_print_still_work(self):
        assert run_awk(["{print ($1 > 1), $1 > 1 ? \"y\" : \"n\"}"],
                       b"2\n") == (0, b"1 y\n")

    @pytest.mark.parametrize("program", ["{print substr($0)}", "{print int()}",
                                         "{split($0)}", "/[/", '$1 ~ "("'])
    def test_bad_arity_and_bad_regex_are_typed_failures(self, sh_run, program):
        result = sh_run(f"echo a | awk '{program}'")
        assert (result.status, result.stdout) == (2, b"")
        assert result.err.startswith("awk: ")


class TestSmallFixes:
    def test_length_without_parentheses(self):
        assert run_awk(["{print length}"], b"abc\n") == (0, b"3\n")
        assert run_awk(["length > 2"], b"ab\nabc\n") == (0, b"abc\n")

    def test_string_constants_compare_as_strings(self):
        assert run_awk(['BEGIN{print ("2" < "10"), (2 < 10), ("a" "1" < 5)}']) \
            == (0, b"0 1 0\n")
        # fields stay strnum, a constant on one side makes it a string test
        assert run_awk(['{print ($1 < $2), ($1 < "10")}'], b"2 10\n") \
            == (0, b"1 0\n")

    def test_assigning_nf_rebuilds_the_record(self):
        assert run_awk(["{NF = 2; print; print NF}"], b"a b c\n") \
            == (0, b"a b\n2\n")
        assert run_awk(["{NF = 4; $1 = $1; print; print $NF \"|\"}"],
                       b"a b\n", ) == (0, b"a b  \n|\n")
        assert run_awk(["{NF++; print NF; NF -= 2; print}"], b"a b c\n") \
            == (0, b"4\na b\n")

    def test_assignment_operands(self, sh_run):
        files = {"/f": b"a b\n"}
        assert sh_run("awk '{$1 = $1; print}' OFS=: /f OFS=- /f",
                      files=files).stdout == b"a:b\na-b\n"
        assert sh_run("echo a b | awk '{$1 = $1; print}' OFS=-").stdout \
            == b"a-b\n"

    def test_modulo_is_fmod(self):
        assert run_awk(["BEGIN{print 7.9 % 3, 7 % -3, -7 % 3, 5 % 0.5}"]) \
            == (0, b"1.9 1 -1 0\n")

    def test_printf_i_and_padded_percent(self):
        assert run_awk(['BEGIN{printf "%i|%5%|%d%%\\n", 42.9, 7}']) \
            == (0, b"42|%|7%\n")

    def test_gsub_skips_the_empty_match_after_a_match(self):
        assert run_awk(['{gsub(/b*/, "X"); print}'], b"abc\n") \
            == (0, b"XaXcX\n")

    def test_backslashes_in_a_sub_replacement_are_text(self):
        assert run_awk(['{sub(/b/, "\\\\1[&]\\\\&"); print}'], b"abc\n") \
            == (0, b"a\\1[b]&c\n")

    def test_missing_operand(self, sh_run):
        result = sh_run("awk '{print}' /nosuch /f; echo $?",
                        files={"/f": b"x\n"})
        assert result.stdout == b"x\n2\n"
        assert result.err == "awk: /nosuch: No such file or directory\n"

    def test_huge_and_nan_values_print(self):
        assert run_awk(["BEGIN{x = 1e308 * 10; print x, -x}"]) \
            == (0, b"inf -inf\n")
