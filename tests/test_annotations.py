"""Annotation framework tests: the spec library's classifications, the
spec model, and black-box inference/validation."""

import pytest

from repro.annotations import (
    AggKind,
    Aggregator,
    CommandSpec,
    DEFAULT_LIBRARY,
    InstanceSpec,
    ParClass,
    SpecLibrary,
)
from repro.annotations.inference import infer, run_filter, validate_spec


def classify(name, *args):
    return DEFAULT_LIBRARY.classify(name, list(args))


class TestLibraryClassification:
    def test_stateless_commands(self):
        for name, args in [
            ("cat", []), ("tr", ["a-z", "A-Z"]), ("grep", ["pat"]),
            ("cut", ["-c", "1-3"]), ("sed", ["s/a/b/"]), ("rev", []),
        ]:
            spec = classify(name, *args)
            assert spec.par_class is ParClass.STATELESS, name

    def test_sort_parallelizable_pure(self):
        spec = classify("sort")
        assert spec.par_class is ParClass.PARALLELIZABLE_PURE
        assert spec.aggregator.kind is AggKind.SORT_MERGE
        assert spec.aggregator.argv[:2] == ("sort", "-m")

    def test_sort_flags_carried_to_aggregator(self):
        spec = classify("sort", "-rn")
        assert "-r" in spec.aggregator.argv
        assert "-n" in spec.aggregator.argv

    def test_sort_u_merge_unique(self):
        spec = classify("sort", "-u")
        assert "-u" in spec.aggregator.argv

    def test_sort_merge_mode_not_parallelized(self):
        assert classify("sort", "-m", "/a", "/b").par_class is ParClass.NON_PARALLELIZABLE

    def test_grep_flag_sensitivity(self):
        assert classify("grep", "x").par_class is ParClass.STATELESS
        assert classify("grep", "-c", "x").par_class is ParClass.PARALLELIZABLE_PURE
        assert classify("grep", "-c", "x").aggregator.kind is AggKind.SUM
        assert classify("grep", "-n", "x").par_class is ParClass.NON_PARALLELIZABLE
        assert classify("grep", "-m", "5", "x").par_class is ParClass.NON_PARALLELIZABLE

    def test_wc_stdin_vs_files(self):
        assert classify("wc", "-l").par_class is ParClass.PARALLELIZABLE_PURE
        assert classify("wc", "-l", "/f").par_class is ParClass.NON_PARALLELIZABLE

    def test_uniq(self):
        assert classify("uniq").par_class is ParClass.PARALLELIZABLE_PURE
        assert classify("uniq").aggregator.kind is AggKind.RERUN
        assert classify("uniq", "-c").par_class is ParClass.NON_PARALLELIZABLE

    def test_order_dependent(self):
        for name in ("head", "tail", "tac", "nl", "shuf"):
            spec = classify(name)
            assert spec.par_class is ParClass.NON_PARALLELIZABLE, name

    def test_side_effectful(self):
        for name in ("tee", "rm", "mv", "split", "xargs"):
            spec = DEFAULT_LIBRARY.classify(name, ["arg"])
            assert spec.par_class is ParClass.SIDE_EFFECTFUL, name
            assert not spec.pure

    def test_unknown_command_is_none(self):
        assert DEFAULT_LIBRARY.classify("frobnicate", []) is None

    def test_input_operands_cat(self):
        spec = classify("cat", "/a", "/b")
        assert spec.input_operands == (0, 1)
        assert not spec.reads_stdin

    def test_input_operands_grep(self):
        spec = classify("grep", "pat", "/f")
        assert spec.input_operands == (1,)
        spec2 = classify("grep", "pat")
        assert spec2.reads_stdin

    def test_sed_reads_its_script_as_sed_does(self):
        assert classify("sed", "s/a/b/").par_class is ParClass.STATELESS
        for quitting in (["q"], ["5q"], ["-e", "s/a/b/", "-e", "3q"]):
            assert classify("sed", *quitting).par_class is \
                ParClass.NON_PARALLELIZABLE, quitting
        assert classify("sed", "s/a/b/", "/f", "/g").input_operands == (1, 2)
        spec = classify("sed", "-n", "-e", "s/a/b/p", "-e", "s/b/c/", "/f")
        assert spec.input_operands == (5,) and not spec.reads_stdin
        # a script sed refuses is not classified: the interpreter runs
        # it and sed reports the error
        assert classify("sed", "s/a/b/w out") is None

    def test_tr_tokenizing_detection(self):
        assert classify("tr", "-cs", "A-Za-z", "\\n").tokenizing
        assert classify("tr", "-cs", "A-Za-z", "\n").tokenizing
        assert not classify("tr", "a-z", "A-Z").tokenizing


class TestSpecModel:
    def test_custom_library(self):
        lib = SpecLibrary()
        lib.register(CommandSpec("mytool", [
            lambda argv: InstanceSpec("mytool", ParClass.STATELESS,
                                      Aggregator.concat()),
        ]))
        assert "mytool" in lib
        assert lib.classify("mytool", []).parallelizable

    def test_rule_order(self):
        lib = SpecLibrary()

        def special_rule(args):
            if "-z" in args.argv:
                return InstanceSpec("t", ParClass.NON_PARALLELIZABLE)
            return None

        def default_rule(argv):
            return InstanceSpec("t", ParClass.STATELESS, Aggregator.concat())

        lib.register(CommandSpec("t", [special_rule, default_rule]))
        assert lib.classify("t", ["-z"]).par_class is ParClass.NON_PARALLELIZABLE
        assert lib.classify("t", []).par_class is ParClass.STATELESS

    def test_parallelizable_property(self):
        assert InstanceSpec("x", ParClass.STATELESS).parallelizable
        assert InstanceSpec("x", ParClass.PARALLELIZABLE_PURE).parallelizable
        assert not InstanceSpec("x", ParClass.NON_PARALLELIZABLE).parallelizable


class TestInference:
    @pytest.mark.parametrize("argv,expected", [
        (["tr", "a-z", "A-Z"], ParClass.STATELESS),
        (["grep", "a"], ParClass.STATELESS),
        (["cut", "-c", "1-2"], ParClass.STATELESS),
        (["sed", "s/a/b/"], ParClass.STATELESS),
        (["rev"], ParClass.STATELESS),
        (["sort"], ParClass.PARALLELIZABLE_PURE),
        (["sort", "-rn"], ParClass.PARALLELIZABLE_PURE),
        (["wc", "-l"], ParClass.PARALLELIZABLE_PURE),
        (["grep", "-c", "a"], ParClass.PARALLELIZABLE_PURE),
        (["uniq"], ParClass.PARALLELIZABLE_PURE),
        (["tac"], ParClass.NON_PARALLELIZABLE),
        (["uniq", "-c"], ParClass.NON_PARALLELIZABLE),
    ])
    def test_inferred_class(self, argv, expected):
        assert infer(argv).par_class is expected

    def test_sort_aggregator_inferred(self):
        result = infer(["sort"])
        assert result.aggregator.kind is AggKind.SORT_MERGE

    def test_validation_agrees_with_library(self):
        for argv in (["tr", "a-z", "A-Z"], ["sort"], ["grep", "x"],
                     ["wc", "-l"], ["uniq"], ["cut", "-c", "1"]):
            spec = DEFAULT_LIBRARY.classify(argv[0], argv[1:])
            ok, msg = validate_spec(argv, spec)
            assert ok, (argv, msg)

    def test_validation_flags_unsound_spec(self):
        from repro.annotations.model import InstanceSpec

        bogus = InstanceSpec("tac", ParClass.STATELESS, Aggregator.concat())
        ok, msg = validate_spec(["tac"], bogus)
        assert not ok
        assert "UNSOUND" in msg

    def test_run_filter_helper(self):
        status, out = run_filter(["tr", "a-z", "A-Z"], b"hi\n")
        assert (status, out) == (0, b"HI\n")
