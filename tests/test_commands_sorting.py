"""Ordering command tests: sort (all modes), uniq, comm, join, seq,
shuf — with differential property tests against Python's sorted()."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.annotations.inference import run_filter


class TestSort:
    def test_basic(self, out_of):
        assert out_of("printf 'b\\na\\nc\\n' | sort") == "a\nb\nc\n"

    def test_reverse(self, out_of):
        assert out_of("printf 'b\\na\\nc\\n' | sort -r") == "c\nb\na\n"

    def test_numeric(self, out_of):
        assert out_of("printf '10\\n9\\n100\\n' | sort -n") == "9\n10\n100\n"

    def test_numeric_vs_lexical(self, out_of):
        assert out_of("printf '10\\n9\\n' | sort") == "10\n9\n"

    def test_rn_combined(self, out_of):
        assert out_of("printf '1\\n3\\n2\\n' | sort -rn") == "3\n2\n1\n"

    def test_unique(self, out_of):
        assert out_of("printf 'b\\na\\nb\\n' | sort -u") == "a\nb\n"

    def test_key_field(self, out_of):
        data = "bob 3\\nal 1\\ncy 2\\n"
        assert out_of(f"printf '{data}' | sort -n -k 2") == "al 1\ncy 2\nbob 3\n"

    def test_delimiter_key(self, out_of):
        data = "x:9\\ny:1\\n"
        assert out_of(f"printf '{data}' | sort -t : -n -k 2") == "y:1\nx:9\n"

    def test_output_file(self, sh_run):
        sh_run("printf 'b\\na\\n' | sort -o /tmp/sorted")
        assert sh_run.shell.fs.read_bytes("/tmp/sorted") == b"a\nb\n"

    def test_files_as_operands(self, out_of):
        files = {"/1": b"c\n", "/2": b"a\nb\n"}
        assert out_of("sort /1 /2", files=files) == "a\nb\nc\n"

    def test_check_sorted(self, sh_run):
        assert sh_run("printf 'a\\nb\\n' | sort -c").status == 0
        assert sh_run("printf 'b\\na\\n' | sort -c").status == 1

    @pytest.mark.parametrize("flags", ["", "-m", "-k1", "-c", "-u -n"])
    def test_unreadable_operand_is_a_typed_failure(self, sh_run, flags):
        """Diagnostic on fd 2, status 2, nothing on stdout, no -o FILE."""
        for operand, why in (("/nosuch", "No such file or directory"),
                             ("/tmp", "Is a directory")):
            result = sh_run(f"sort {flags} -o /out {operand}",
                            files={"/1": b"b\na\n"})
            assert (result.status, result.stdout) == (2, b"")
            assert result.err == f"sort: cannot read: {operand}: {why}\n"
            assert not sh_run.shell.fs.exists("/out")
        if "-c" not in flags:  # a later operand fails after /1 was read
            result = sh_run(f"sort {flags} /1 /nosuch")
            assert (result.status, result.stdout) == (2, b"")

    def test_check_closes_its_input_on_disorder(self):
        from repro import Shell, Tracer
        from repro.obs.export import chrome_events
        from repro.vos.machines import laptop

        tracer = Tracer(syscall_events=True)
        shell = Shell(laptop(), tracer=tracer)
        shell.fs.write_bytes("/1", b"b\nb\na\nz\n")
        result = shell.run("sort -c /1")
        assert (result.status, result.err) == (1, "sort: /1:3: disorder: a\n")
        calls = [e["name"] for e in chrome_events(tracer)
                 if e.get("cat") == "syscall"]
        assert calls[-2:] == ["WriteReq", "CloseReq"]

    def test_merge_mode(self, out_of):
        files = {"/1": b"a\nc\ne\n", "/2": b"b\nd\n"}
        assert out_of("sort -m /1 /2", files=files) == "a\nb\nc\nd\ne\n"

    def test_merge_unique(self, out_of):
        files = {"/1": b"a\nb\n", "/2": b"b\nc\n"}
        assert out_of("sort -m -u /1 /2", files=files) == "a\nb\nc\n"

    def test_merge_reverse(self, out_of):
        files = {"/1": b"c\na\n", "/2": b"b\n"}
        assert out_of("sort -m -r /1 /2", files=files) == "c\nb\na\n"

    def test_missing_trailing_newline(self, out_of):
        assert out_of("printf 'b\\na' | sort") == "a\nb\n"


class TestSortFoldAndKeys:
    """Regressions for the GNU-conformance bugs the difftest harness
    caught: -f produced empty output, -k was parsed but ignored.
    Expected strings are GNU sort's outputs under LC_ALL=C."""

    MIXED = {"/m": b"Banana\napple\nCherry\nbanana\nApple\n"}

    def test_fold_orders_case_insensitively(self, out_of):
        # GNU: fold for comparison, whole-line bytewise as last resort
        out = out_of("sort -f /m", files=self.MIXED)
        assert out == "Apple\napple\nBanana\nbanana\nCherry\n"

    def test_fold_not_empty(self, out_of):
        # the original bug: `sort -f` returned nothing at all
        assert out_of("printf 'b\\nA\\n' | sort -f") == "A\nb\n"

    def test_fold_unique_keeps_first_occurrence(self, out_of):
        # GNU -fu: dedup on the folded key, keep the FIRST input line of
        # each group (stable; last-resort comparison is disabled by -u)
        out = out_of("sort -fu /m", files=self.MIXED)
        assert out == "apple\nBanana\nCherry\n"

    def test_numeric_unique_dedups_by_value(self, out_of):
        assert out_of("printf '01\\n1\\n2\\n' | sort -nu") == "01\n2\n"

    def test_key_single_field_to_end_of_line(self, out_of):
        # -k2 keys from field 2 (including its leading blanks) to EOL
        files = {"/f": b"c 3 x\na 30 y\nb 9 z\n"}
        assert out_of("sort -k2 /f", files=files) == "c 3 x\na 30 y\nb 9 z\n"

    def test_key_field_range(self, out_of):
        # -k2,2 stops at the end of field 2, so '3' < '30' < '9'
        files = {"/f": b"c 3 x\na 30 y\nb 9 z\n"}
        assert out_of("sort -k2,2 /f", files=files) == "c 3 x\na 30 y\nb 9 z\n"

    def test_key_ties_fall_back_to_whole_line(self, out_of):
        files = {"/f": b"b same\na same\n"}
        assert out_of("sort -k2 /f", files=files) == "a same\nb same\n"

    def test_key_numeric(self, out_of):
        files = {"/f": b"c 3\na 30\nb 9\n"}
        assert out_of("sort -n -k2 /f", files=files) == "c 3\nb 9\na 30\n"

    def test_key_with_delimiter(self, out_of):
        files = {"/f": b"x:bb\ny:aa\n"}
        assert out_of("sort -t : -k2 /f", files=files) == "y:aa\nx:bb\n"

    def test_key_reverse(self, out_of):
        files = {"/f": b"a 1\nb 2\n"}
        assert out_of("sort -r -k2 /f", files=files) == "b 2\na 1\n"

    # unsupported key syntax must fail loudly, never sort wrongly
    def test_char_offset_rejected(self, sh_run):
        res = sh_run("printf 'a\\n' | sort -k2.3")
        assert res.status == 2
        assert b"unsupported key spec" in res.stderr

    def test_per_key_modifier_rejected(self, sh_run):
        res = sh_run("printf 'a\\n' | sort -k2n")
        assert res.status == 2
        assert b"unsupported key spec" in res.stderr

    def test_zero_field_rejected(self, sh_run):
        assert sh_run("printf 'a\\n' | sort -k0").status == 2

    def test_backwards_range_rejected(self, sh_run):
        assert sh_run("printf 'a\\n' | sort -k3,2").status == 2


class TestUniq:
    def test_adjacent_only(self, out_of):
        assert out_of("printf 'a\\na\\nb\\na\\n' | uniq") == "a\nb\na\n"

    def test_count(self, out_of):
        out = out_of("printf 'x\\nx\\ny\\n' | uniq -c")
        lines = out.splitlines()
        assert lines[0].split() == ["2", "x"]
        assert lines[1].split() == ["1", "y"]

    def test_duplicates_only(self, out_of):
        assert out_of("printf 'a\\na\\nb\\n' | uniq -d") == "a\n"

    def test_unique_only(self, out_of):
        assert out_of("printf 'a\\na\\nb\\n' | uniq -u") == "b\n"


class TestComm:
    FILES = {"/1": b"a\nb\nc\n", "/2": b"b\nc\nd\n"}

    def test_three_columns(self, out_of):
        # column layout: unique-to-1, unique-to-2 (1 tab), common (2 tabs)
        out = out_of("comm /1 /2", files=self.FILES)
        assert out == "a\n\t\tb\n\t\tc\n\td\n"

    def test_minus13(self, out_of):
        # the spell pipeline's final stage: lines unique to file2
        assert out_of("comm -13 /1 /2", files=self.FILES) == "d\n"

    def test_minus23(self, out_of):
        assert out_of("comm -23 /1 /2", files=self.FILES) == "a\n"

    def test_minus12(self, out_of):
        assert out_of("comm -12 /1 /2", files=self.FILES) == "b\nc\n"

    def test_stdin_dash(self, out_of):
        out = out_of("printf 'b\\nd\\n' | comm -13 /1 -", files=self.FILES)
        assert out == "d\n"

    def test_wrong_arity(self, sh_run):
        assert sh_run("comm /1", files=self.FILES).status == 2


class TestJoin:
    def test_basic(self, out_of):
        files = {"/l": b"1 alice\n2 bob\n", "/r": b"1 math\n2 art\n"}
        out = out_of("join /l /r", files=files)
        assert out == "1 alice math\n2 bob art\n"

    def test_missing_keys_skipped(self, out_of):
        files = {"/l": b"1 a\n3 c\n", "/r": b"1 x\n2 y\n"}
        assert out_of("join /l /r", files=files) == "1 a x\n"

    def test_delimiter(self, out_of):
        files = {"/l": b"1:a\n", "/r": b"1:x\n"}
        assert out_of("join -t : /l /r", files=files) == "1:a:x\n"


class TestSeqShuf:
    def test_seq_n(self, out_of):
        assert out_of("seq 3") == "1\n2\n3\n"

    def test_seq_range(self, out_of):
        assert out_of("seq 2 4") == "2\n3\n4\n"

    def test_seq_step(self, out_of):
        assert out_of("seq 1 2 7") == "1\n3\n5\n7\n"

    def test_seq_descending(self, out_of):
        assert out_of("seq 3 -1 1") == "3\n2\n1\n"

    def test_shuf_is_permutation(self, out_of):
        out = out_of("seq 10 | shuf")
        assert sorted(out.split()) == sorted(str(i) for i in range(1, 11))

    def test_shuf_seeded_deterministic(self, out_of):
        a = out_of("seq 10 | shuf --seed 5")
        b = out_of("seq 10 | shuf --seed 5")
        assert a == b

    @pytest.mark.parametrize("script", ["shuf --seed", "shuf --seed x /f"])
    def test_shuf_bad_seed_is_a_usage_error(self, sh_run, script):
        result = sh_run(script)
        assert (result.status, result.err) == (
            2, "shuf: option --seed requires an integer\n")


# ---------------------------------------------------------------------------
# differential properties
# ---------------------------------------------------------------------------

_line_texts = st.lists(
    st.text(alphabet="abcz019", min_size=0, max_size=6),
    min_size=0, max_size=25,
)


@given(_line_texts)
@settings(max_examples=150, deadline=None)
def test_sort_matches_python(lines):
    data = "".join(line + "\n" for line in lines).encode()
    _status, out = run_filter(["sort"], data)
    expected = "".join(line + "\n" for line in sorted(lines)).encode()
    assert out == expected


@given(_line_texts)
@settings(max_examples=150, deadline=None)
def test_sort_u_matches_python(lines):
    data = "".join(line + "\n" for line in lines).encode()
    _status, out = run_filter(["sort", "-u"], data)
    expected = "".join(line + "\n" for line in sorted(set(lines))).encode()
    assert out == expected


@given(st.lists(st.integers(-999, 999), min_size=0, max_size=25))
@settings(max_examples=150, deadline=None)
def test_sort_rn_matches_python(values):
    data = "".join(f"{v}\n" for v in values).encode()
    _status, out = run_filter(["sort", "-rn"], data)
    got = [int(x) for x in out.split()]
    assert got == sorted(values, reverse=True)


@given(_line_texts)
@settings(max_examples=150, deadline=None)
def test_uniq_matches_groupby(lines):
    import itertools

    data = "".join(line + "\n" for line in lines).encode()
    _status, out = run_filter(["uniq"], data)
    expected = "".join(k + "\n" for k, _g in itertools.groupby(lines)).encode()
    assert out == expected


@given(st.lists(st.sampled_from("abcdef"), min_size=0, max_size=15),
       st.lists(st.sampled_from("abcdef"), min_size=0, max_size=15))
@settings(max_examples=100, deadline=None)
def test_comm_13_matches_set_difference(left, right):
    left_sorted = sorted(set(left))
    right_sorted = sorted(set(right))
    files = {
        "/l": "".join(x + "\n" for x in left_sorted).encode(),
        "/r": "".join(x + "\n" for x in right_sorted).encode(),
    }
    _status, out = run_filter(["comm", "-13", "/l", "/r"], b"", files)
    expected = "".join(
        x + "\n" for x in right_sorted if x not in set(left_sorted)
    ).encode()
    assert out == expected


@given(st.lists(st.lists(st.sampled_from("pqr"), min_size=1, max_size=5)
                .map(lambda cs: "".join(cs)),
                min_size=1, max_size=4))
@settings(max_examples=80, deadline=None)
def test_sort_merge_equals_full_sort(chunk_groups):
    """sort -m over pre-sorted chunks == sort of the concatenation —
    the aggregator law the parallel compiler relies on."""
    files = {}
    everything = []
    for i, chunk in enumerate(chunk_groups):
        ordered = sorted(chunk)
        everything.extend(ordered)
        files[f"/c{i}"] = "".join(x + "\n" for x in ordered).encode()
    _status, merged = run_filter(["sort", "-m"] + sorted(files), b"", files)
    expected = "".join(x + "\n" for x in sorted(everything)).encode()
    assert merged == expected
