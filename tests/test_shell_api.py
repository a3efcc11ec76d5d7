"""Public API tests: Shell, run_script, RunResult, state persistence,
the bench runners, and the CLI."""

import pytest

from repro import (
    JashOptimizer,
    PROFILES,
    Shell,
    aws_c5_2xlarge_gp2,
    laptop,
    run_script,
)
from repro.bench import (
    ENGINES,
    access_log,
    format_table,
    make_engine,
    ncdc_records,
    run_engine,
    run_matrix,
    run_record_loop,
    speedup,
    spell_documents,
    words_text,
)
from repro.bench.workloads import java_temperature_program
from repro.cli import main as cli_main

from .conftest import fast_machine


class TestShell:
    def test_run_captures_streams(self):
        shell = Shell(fast_machine())
        result = shell.run("echo out; no_such 2>&1 >/dev/null")
        assert b"out" in result.stdout

    def test_fs_shared_across_runs(self):
        shell = Shell(fast_machine())
        shell.run("echo persisted > /f")
        assert shell.run("cat /f").stdout == b"persisted\n"

    def test_state_fresh_per_run_by_default(self):
        shell = Shell(fast_machine())
        shell.run("x=1")
        assert shell.run("echo [${x-unset}]").stdout == b"[unset]\n"

    def test_persist_state(self):
        shell = Shell(fast_machine(), persist_state=True)
        shell.run("x=1; cd /tmp")
        result = shell.run("echo $x $PWD")
        assert result.stdout == b"1 /tmp\n"

    def test_stdin(self):
        shell = Shell(fast_machine())
        assert shell.run("wc -l", stdin=b"a\nb\n").stdout.strip() == b"2"

    def test_env_injection(self):
        shell = Shell(fast_machine())
        result = shell.run("echo $GREETING", env={"GREETING": "hey"})
        assert result.stdout == b"hey\n"

    def test_elapsed_monotone(self):
        shell = Shell(fast_machine())
        r1 = shell.run("sleep 1")
        assert r1.elapsed >= 1.0

    def test_run_result_repr(self):
        shell = Shell(fast_machine())
        assert "status=0" in repr(shell.run("true"))

    def test_run_script_helper(self):
        result = run_script("cat /in", files={"/in": b"hello\n"})
        assert result.out == "hello\n"


class TestWorkloads:
    def test_words_text_size(self):
        data = words_text(10_000, seed=1)
        assert 9_000 < len(data) < 12_000
        assert data.endswith(b"\n")
        assert b"\n" in data[:200]  # multi-line

    def test_words_deterministic(self):
        assert words_text(5000, seed=2) == words_text(5000, seed=2)
        assert words_text(5000, seed=2) != words_text(5000, seed=3)

    def test_ncdc_layout(self):
        data = ncdc_records(50, seed=1)
        for line in data.splitlines():
            assert len(line) >= 93
            temp = line[88:92]
            assert temp.isdigit()

    def test_ncdc_has_missing_markers(self):
        data = ncdc_records(500, seed=1)
        assert b"9999" in data

    def test_access_log(self):
        data = access_log(100, seed=1, error_rate=0.5)
        assert data.count(b" 500 ") > 10

    def test_spell_documents(self):
        docs, dictionary = spell_documents(2, 5000, seed=1)
        assert len(docs) == 2
        assert dictionary.splitlines() == sorted(dictionary.splitlines())
        for data in docs.values():
            assert not any(line.startswith(b" ")
                           for line in data.splitlines())


class TestRunners:
    def test_engines(self):
        assert make_engine("bash") is None
        assert make_engine("pash") is not None
        assert make_engine("jash") is not None
        with pytest.raises(ValueError):
            make_engine("zsh")

    def test_run_engine(self):
        run = run_engine("bash", "sort /f", fast_machine(),
                         files={"/f": b"b\na\n"})
        assert run.result.stdout == b"a\nb\n"

    def test_run_matrix(self):
        grid = run_matrix("wc -l /f", {"m1": fast_machine()},
                          engines=("bash", "jash"), files={"/f": b"x\n"})
        assert set(grid) == {("bash", "m1"), ("jash", "m1")}

    def test_record_loop(self):
        data = ncdc_records(200, seed=3)
        answer, seconds = run_record_loop(java_temperature_program(), data,
                                          laptop())
        assert isinstance(answer, int)
        assert seconds > 0
        # cross-check against the pipeline
        result = run_script("cut -c 89-92 /in | grep -v 9999 | sort -rn | head -n1",
                            machine=laptop(), files={"/in": data})
        assert int(result.out.strip()) == answer


class TestReport:
    def test_format_table(self):
        table = format_table(["a", "bb"], [[1, 2.5], ["xx", 3]])
        lines = table.splitlines()
        assert "a" in lines[0] and "bb" in lines[0]
        assert "2.500" in table

    def test_speedup(self):
        assert speedup(10.0, 5.0) == "2.00x"


class TestCli:
    def test_run_inline(self, capsys):
        status = cli_main(["run", "-c", "echo cli-works"])
        assert status == 0
        assert "cli-works" in capsys.readouterr().out

    def test_run_engine_flag(self, capsys):
        status = cli_main(["run", "-c", "seq 3 | wc -l", "--engine", "jash"])
        assert status == 0
        assert "3" in capsys.readouterr().out

    def test_exit_status_propagates(self):
        assert cli_main(["run", "-c", "false"]) == 1

    def test_lint(self, capsys):
        status = cli_main(["lint", "-c", "sort f > f"])
        assert status == 1
        assert "JS2094" in capsys.readouterr().out

    def test_explain(self, capsys):
        assert cli_main(["explain", "sort -rn | head -n1"]) == 0
        assert "sort" in capsys.readouterr().out

    def test_parse(self, capsys):
        assert cli_main(["parse", "-c", "echo hi"]) == 0
        assert "SimpleCommand" in capsys.readouterr().out

    def test_infer(self, capsys):
        assert cli_main(["infer", "tr", "a-z", "A-Z"]) == 0
        assert "stateless" in capsys.readouterr().out

    def test_machine_profiles_all_run(self):
        for name in PROFILES:
            assert cli_main(["run", "-c", "true", "--machine", name]) == 0


#: ``jash run --report`` for a 200 000-line input: the decisions each
#: engine made, one renderer over the decision record for all three
REPORT_SCRIPT = "cat /in.txt | grep 1 | wc -l; cat /in.txt | sort -n > /o.txt"
REPORTS = {
    "jash": """\
[static analysis] 5 certificate hits, 0 misses (hit rate 100%)
[interpreted] cat /in.txt | grep 1 | wc -l
              no candidate beat the baseline margin
[interpreted] grep 1
              input is not file-backed (size unknown)
[interpreted] wc -l
              input is not file-backed (size unknown)
[interpreted] cat /in.txt
              no candidate beat the baseline margin
[  optimized] cat /in.txt | sort -n >/o.txt
              estimated 0.19s vs baseline 0.51s
              plan: width=4 mode=rr run=[0:2] agg=sort_merge
""",
    "pash": """\
[static analysis] 2 certificate hits, 0 misses (hit rate 100%)
[  optimized] cat /in.txt | grep 1 | wc -l
              fixed width 8
              plan: width=8 mode=materialize run=[0:3] agg=sum
[  optimized] cat /in.txt | sort -n >/o.txt
              fixed width 8
              plan: width=8 mode=materialize run=[0:2] agg=sort_merge
""",
}


class TestRunReport:
    @pytest.fixture
    def numbers(self, tmp_path):
        path = tmp_path / "in.txt"
        path.write_bytes(b"".join(b"%d\n" % i for i in range(200000)))
        return path

    @pytest.mark.parametrize("engine", sorted(REPORTS))
    def test_every_engine_reports(self, engine, numbers, capsys):
        assert cli_main(["run", "--engine", engine, "--report", "--file",
                         f"{numbers}:/in.txt", "-c", REPORT_SCRIPT]) == 0
        err = capsys.readouterr().err
        assert err[err.index("[static analysis]"):] == REPORTS[engine]

    def test_supervised_rounds_report(self, tmp_path, capsys):
        assert cli_main(["run", "--supervise", "--checkpoint",
                         str(tmp_path / "ck"), "--rounds", "2", "--report",
                         "-c", "cat /stream.log | tr a-z A-Z"]) == 0
        err = capsys.readouterr().err.splitlines()
        assert err[err.index("[engine inc]"):] == [
            "[engine inc]",
            "[   computed] cat /stream.log | tr a-z A-Z",
            "              cache miss; result stored",
            "[   extended] cat /stream.log | tr a-z A-Z",
            "              append-only delta: reused 65555 bytes",
            "[engine jash]",
            "[static analysis] 0 certificate hits, 0 misses (hit rate 0%)",
        ]


class TestCliTypedFailures:
    """`jash run/stat/profile` end in a one-line `jash:` diagnostic and a
    documented status, never a traceback."""

    # Past ~1e4 virtual seconds the float clock cannot resolve a 1e-12 s
    # burst and the kernel reschedules it at `now` for ever (ROADMAP,
    # "A virtual clock that cannot stall").  Until the clock is fixed the
    # watchdog makes that status 70 within the host-time bound; when it
    # is, these two flip to what sh prints ("x\n2\n3\n4\n5\n", "2000\n").
    @pytest.mark.parametrize("script", [
        "sleep 20000; seq 1 5 | sed s/1/x/",
        "sleep 20000; seq 1 2000 | sort | wc -l",
    ])
    def test_stall_is_a_failure_not_a_hang(self, script, capsys):
        import time

        start = time.perf_counter()
        assert cli_main(["run", "-c", script]) == 70
        assert time.perf_counter() - start < 5.0
        err = capsys.readouterr().err
        assert "Traceback" not in err
        # one line; under $JASH_JOBS a JS2260 lint warning precedes it
        (line,) = [ln for ln in err.splitlines() if ln.startswith("jash:")]
        assert line.startswith("jash: kernel stalled at virtual time 20000.")
        assert err.endswith(line + "\n")

    def test_deadlock_is_a_failure_not_a_traceback(self, capsys,
                                                   monkeypatch):
        """A SUM merge drains its inputs one after another, so branches
        that each write more than a pipe buffer block it for ever.  A
        grep annotated by hand as SUM-merged builds that graph."""
        from repro.annotations import (DEFAULT_LIBRARY, AggKind, Aggregator,
                                       CommandSpec, InstanceSpec, ParClass)

        def sum_rule(args):
            return InstanceSpec(
                "grep", ParClass.PARALLELIZABLE_PURE, Aggregator(AggKind.SUM),
                input_operands=args.at[1:], reads_stdin=False,
                selectivity=0.001, blocking=True)

        monkeypatch.setitem(DEFAULT_LIBRARY._specs, "grep",
                            CommandSpec("grep", [sum_rule]))
        script = "seq 1 300000 > /f; grep 1 /f | wc -l"
        assert cli_main(["run", "--engine", "jash", "-c", script]) == 70
        err = capsys.readouterr().err
        assert "Traceback" not in err
        (line,) = [ln for ln in err.splitlines() if ln.startswith("jash:")]
        assert line.startswith("jash: deadlock: ")
        assert "dfg:sum_merge" in line

    @pytest.mark.parametrize("cmd", ["run", "stat", "profile"])
    def test_syntax_error_is_status_2(self, cmd, capsys):
        assert cli_main([cmd, "-c", 'echo "unterminated']) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "jash: unterminated double quote\n"
