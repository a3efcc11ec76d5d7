"""Interpreter semantics: control flow, functions, redirection, status
propagation, options — the Smoosh-role conformance suite."""

import pytest


class TestExitStatus:
    def test_true_false(self, sh_run):
        assert sh_run("true").status == 0
        assert sh_run("false").status == 1

    def test_last_command_wins(self, sh_run):
        assert sh_run("false; true").status == 0
        assert sh_run("true; false").status == 1

    def test_command_not_found(self, sh_run):
        result = sh_run("no_such_cmd_xyz")
        assert result.status == 127
        assert "not found" in result.err

    def test_pipeline_status_is_last(self, sh_run):
        assert sh_run("false | true").status == 0
        assert sh_run("true | false").status == 1

    def test_pipefail(self, sh_run):
        assert sh_run("set -o pipefail; false | true").status == 1

    def test_negation(self, sh_run):
        assert sh_run("! false").status == 0
        assert sh_run("! true").status == 1


class TestAndOr:
    def test_and_short_circuit(self, out_of):
        assert out_of("false && echo no; echo after") == "after\n"

    def test_or_short_circuit(self, out_of):
        assert out_of("true || echo no; echo after") == "after\n"

    def test_chain(self, out_of):
        assert out_of("true && false || echo rescued") == "rescued\n"


class TestControlFlow:
    def test_if_branches(self, out_of):
        assert out_of("if true; then echo t; else echo f; fi") == "t\n"
        assert out_of("if false; then echo t; else echo f; fi") == "f\n"

    def test_elif(self, out_of):
        script = "if false; then echo a; elif true; then echo b; else echo c; fi"
        assert out_of(script) == "b\n"

    def test_if_status_no_branch(self, sh_run):
        # failing cond with no else: status 0
        assert sh_run("false; if false; then echo x; fi").status == 0

    def test_while_loop(self, out_of):
        assert out_of(
            "i=0; while [ $i -lt 3 ]; do echo $i; i=$((i+1)); done"
        ) == "0\n1\n2\n"

    def test_until_loop(self, out_of):
        assert out_of(
            "i=0; until [ $i -ge 2 ]; do echo $i; i=$((i+1)); done"
        ) == "0\n1\n"

    def test_break(self, out_of):
        assert out_of(
            "for i in 1 2 3; do if [ $i = 2 ]; then break; fi; echo $i; done"
        ) == "1\n"

    def test_continue(self, out_of):
        assert out_of(
            "for i in 1 2 3; do if [ $i = 2 ]; then continue; fi; echo $i; done"
        ) == "1\n3\n"

    def test_break_levels(self, out_of):
        script = (
            "for i in 1 2; do for j in a b; do break 2; done; echo inner; done; "
            "echo done"
        )
        assert out_of(script) == "done\n"

    def test_case_first_match_wins(self, out_of):
        assert out_of("case ab in a*) echo first;; *b) echo second;; esac") == "first\n"

    def test_case_no_match_status_zero(self, sh_run):
        assert sh_run("case x in y) echo y;; esac").status == 0

    def test_case_quoted_pattern(self, out_of):
        assert out_of('x="*"; case $x in "*") echo literal;; *) echo any;; esac') == "literal\n"

    def test_for_over_glob(self, sh_run):
        result = sh_run("cd /d; for f in *.c; do echo $f; done",
                        files={"/d/x.c": b"", "/d/y.c": b""})
        assert result.stdout == b"x.c\ny.c\n"


class TestFunctions:
    def test_args(self, out_of):
        assert out_of("f() { echo $1-$2; }; f a b") == "a-b\n"

    def test_positionals_restored(self, sh_run):
        result = sh_run("f() { echo in=$1; }; f inner; echo out=$1",
                        args=["outer"])
        assert result.stdout == b"in=inner\nout=outer\n"

    def test_return_status(self, sh_run):
        assert sh_run("f() { return 7; }; f").status == 7

    def test_return_stops_function(self, out_of):
        assert out_of("f() { echo a; return; echo b; }; f") == "a\n"

    def test_recursion(self, out_of):
        script = (
            "fact() { if [ $1 -le 1 ]; then echo 1; "
            "else prev=$(fact $(($1-1))); echo $(($1 * prev)); fi; }; fact 5"
        )
        assert out_of(script) == "120\n"

    def test_local(self, out_of):
        script = "x=global; f() { local x=local; echo $x; }; f; echo $x"
        assert out_of(script) == "local\nglobal\n"

    def test_function_shadows_command(self, out_of):
        assert out_of("echo() { printf 'shadowed\\n'; }; echo anything") == "shadowed\n"

    def test_command_builtin_skips_function(self, out_of):
        assert out_of("true() { false; }; command true; echo $?") == "0\n"

    def test_command_and_exec_run_their_fields_unexpanded(self, out_of):
        # the fields were expanded once, as `command`'s and `exec`'s own
        # words: a glob, a ~ or a space among them is plain text
        script = ('touch /a1 /a2; command echo "/a*" "~" "x  y"; '
                  'exec echo "/a*"')
        assert out_of(script) == "/a* ~ x  y\n/a*\n"

    def test_function_redirect(self, sh_run):
        result = sh_run("f() { echo data; } > /tmp/fout; f; cat /tmp/fout")
        assert result.stdout == b"data\n"


class TestRedirection:
    def test_output_file(self, sh_run):
        sh_run("echo content > /tmp/o")
        assert sh_run.shell.fs.read_bytes("/tmp/o") == b"content\n"

    def test_append(self, sh_run):
        sh_run("echo a > /tmp/o; echo b >> /tmp/o")
        assert sh_run.shell.fs.read_bytes("/tmp/o") == b"a\nb\n"

    def test_input_file(self, sh_run):
        result = sh_run("wc -l < /data/f", files={"/data/f": b"1\n2\n3\n"})
        assert result.stdout.strip() == b"3"

    def test_stderr_redirect(self, sh_run):
        result = sh_run("no_such_cmd 2> /tmp/err")
        assert result.err == ""
        assert b"not found" in sh_run.shell.fs.read_bytes("/tmp/err")

    def test_fd_dup(self, sh_run):
        result = sh_run("no_such_cmd 2>&1 | wc -l")
        assert result.stdout.strip() == b"1"

    def test_close_fd(self, sh_run):
        # closing stdout makes writes fail; echo should not crash the shell
        result = sh_run("echo x >&-; echo after")
        assert b"after" in result.stdout

    def test_dev_null(self, sh_run):
        result = sh_run("echo discarded > /dev/null")
        assert result.stdout == b""

    def test_missing_input_file(self, sh_run):
        result = sh_run("cat < /nope")
        assert result.status != 0

    def test_redirect_on_compound(self, sh_run):
        sh_run("{ echo a; echo b; } > /tmp/pair")
        assert sh_run.shell.fs.read_bytes("/tmp/pair") == b"a\nb\n"

    def test_redirect_on_loop(self, sh_run):
        result = sh_run(
            "while read x; do echo got:$x; done < /in",
            files={"/in": b"1\n2\n"},
        )
        assert result.stdout == b"got:1\ngot:2\n"

    def test_heredoc(self, out_of):
        assert out_of("cat <<EOF\nline1\nline2\nEOF") == "line1\nline2\n"

    def test_heredoc_expansion(self, out_of):
        assert out_of("x=v; cat <<EOF\ngot $x\nEOF") == "got v\n"

    def test_heredoc_quoted_literal(self, out_of):
        assert out_of("x=v; cat <<'EOF'\ngot $x\nEOF") == "got $x\n"


class TestSubshellsAndState:
    def test_subshell_isolated(self, out_of):
        assert out_of("x=1; (x=2; echo in=$x); echo out=$x") == "in=2\nout=1\n"

    def test_subshell_cwd_isolated(self, sh_run):
        sh_run.shell.fs.mkdir("/sub")
        assert sh_run("cd /; (cd /sub); pwd").stdout == b"/\n"

    def test_brace_group_shares_state(self, out_of):
        assert out_of("x=1; { x=2; }; echo $x") == "2\n"

    def test_pipeline_stage_isolated(self, out_of):
        # each pipeline stage runs in a subshell
        assert out_of("x=1; echo ignored | x=2; echo $x") == "1\n"

    def test_cmdsub_isolated(self, out_of):
        assert out_of("x=1; y=$(x=2; echo $x); echo $x$y") == "12\n"


class TestBuiltins:
    def test_cd_pwd(self, sh_run):
        sh_run.shell.fs.mkdir("/deep/dir")
        assert sh_run("cd /deep/dir; pwd").stdout == b"/deep/dir\n"

    def test_cd_updates_pwd_var(self, sh_run):
        sh_run.shell.fs.mkdir("/deep")
        assert sh_run("cd /deep; echo $PWD").stdout == b"/deep\n"

    def test_cd_dash(self, sh_run):
        sh_run.shell.fs.mkdir("/a")
        sh_run.shell.fs.mkdir("/b")
        assert sh_run("cd /a; cd /b; cd -; pwd").stdout == b"/a\n"

    def test_cd_missing(self, sh_run):
        assert sh_run("cd /missing").status == 1

    def test_export_and_env(self, out_of):
        assert out_of("export X=exported; echo $X") == "exported\n"

    def test_unset(self, out_of):
        assert out_of("x=1; unset x; echo [${x-gone}]") == "[gone]\n"

    def test_readonly(self, sh_run):
        result = sh_run("readonly R=1; R=2")
        assert result.status != 0

    def test_shift(self, sh_run):
        result = sh_run("shift; echo $1", args=["a", "b"])
        assert result.stdout == b"b\n"

    def test_shift_n(self, sh_run):
        result = sh_run("shift 2; echo $1", args=["a", "b", "c"])
        assert result.stdout == b"c\n"

    def test_set_positionals(self, out_of):
        assert out_of("set -- x y z; echo $2") == "y\n"

    def test_eval(self, out_of):
        assert out_of("cmd='echo built'; eval $cmd") == "built\n"

    def test_dot_source(self, sh_run):
        result = sh_run(". /lib.sh; greet",
                        files={"/lib.sh": b"greet() { echo hi; }\n"})
        assert result.stdout == b"hi\n"

    def test_exit(self, sh_run):
        result = sh_run("echo before; exit 3; echo after")
        assert result.status == 3
        assert result.stdout == b"before\n"

    def test_colon(self, sh_run):
        assert sh_run(": ignored args").status == 0

    def test_read_splits(self, out_of):
        assert out_of('printf "a b c\\n" | (read x y; echo $y)') == "b c\n"

    def test_read_eof_fails(self, sh_run):
        assert sh_run("printf '' | (read x)").status == 1

    def test_type(self, out_of):
        out = out_of("type cd sort")
        assert "builtin" in out
        assert "sort" in out

    def test_trap_exit(self, out_of):
        assert out_of("trap 'echo cleanup' EXIT; echo body") == "body\ncleanup\n"

    def test_wait_collects_jobs(self, sh_run):
        result = sh_run("sleep 0.2 & sleep 0.1 & wait; echo all-done")
        assert result.stdout == b"all-done\n"
        assert result.elapsed >= 0.2


class TestOptions:
    def test_errexit(self, sh_run):
        result = sh_run("set -e; false; echo unreachable")
        assert result.status == 1
        assert result.stdout == b""

    def test_errexit_condition_exempt(self, out_of):
        assert out_of("set -e; if false; then :; fi; echo alive") == "alive\n"

    def test_errexit_andor_exempt(self, out_of):
        assert out_of("set -e; false && true; echo alive") == "alive\n"

    def test_errexit_or_rescue(self, out_of):
        assert out_of("set -e; false || true; echo alive") == "alive\n"

    def test_xtrace(self, sh_run):
        result = sh_run("set -x; echo traced")
        assert "+ echo traced" in result.err

    def test_set_turn_off(self, out_of):
        assert out_of("set -e; set +e; false; echo alive") == "alive\n"

    def test_noexec(self, sh_run):
        assert sh_run("set -n; echo nope").stdout == b""


class TestAsync:
    def test_background_runs(self, sh_run):
        result = sh_run("echo bg > /tmp/bg & wait; cat /tmp/bg")
        assert result.stdout == b"bg\n"

    def test_async_overlaps(self, sh_run):
        result = sh_run("sleep 0.5 & sleep 0.5 & wait")
        # two parallel sleeps take ~0.5 virtual seconds, not 1.0
        assert 0.4 < result.elapsed < 0.7

    def test_dollar_bang(self, sh_run):
        result = sh_run("true & echo $!")
        assert result.stdout.strip().isdigit()


class TestJobControlStatus:
    # host-verified POSIX semantics pinned by the S17 session-replay work

    def test_bare_wait_is_zero(self, out_of):
        # XCU: `wait` with no operands always exits 0, regardless of the
        # jobs' statuses
        assert out_of("(exit 7) & wait; echo $?") == "0\n"

    def test_wait_pid_reports_job_status(self, out_of):
        assert out_of("(exit 7) & wait $!; echo $?") == "7\n"

    def test_wait_unknown_pid_is_127(self, out_of):
        assert out_of("wait 424242; echo $?") == "127\n"

    def test_kill_then_wait_is_143(self, out_of):
        assert out_of("sleep 1 & kill $!; wait $!; echo $?") == "143\n"

    def test_kill_9_then_wait_is_137(self, out_of):
        assert out_of("sleep 1 & kill -9 $!; wait $!; echo $?") == "137\n"

    def test_kill_s_term(self, out_of):
        assert out_of("sleep 1 & kill -s TERM $!; wait $!; echo $?") == "143\n"

    def test_kill_zombie_is_noop_success(self, out_of):
        # the job exited already but was not waited: kill succeeds and the
        # recorded status stays visible to wait (host zombie semantics)
        assert out_of("(exit 7) & kill $!; echo k=$?; wait $!; echo w=$?") \
            == "k=0\nw=7\n"

    def test_kill_reaped_pid_is_esrch(self, sh_run):
        # after wait the pid is reaped: signal-0 probe must fail
        result = sh_run("sleep 5 & pid=$!\nkill $pid\nwait $pid\n"
                        "kill -0 $pid 2>/dev/null || echo reaped")
        assert result.stdout == b"reaped\n"

    def test_kill_0_probe_alive(self, out_of):
        assert out_of("sleep 1 & kill -0 $! && echo alive; kill $!; wait") \
            == "alive\n"

    def test_kill_unknown_pid_fails(self, sh_run):
        result = sh_run("kill 999999")
        assert result.status == 1
        assert "No such process" in result.err


class TestGetopts:
    def test_basic_flags(self, out_of):
        script = ('set -- -a -b v rest\n'
                  'while getopts ab: o; do echo "$o:$OPTARG"; done\n'
                  'echo "end:$o:$OPTIND"')
        assert out_of(script) == "a:\nb:v\nend:?:4\n"

    def test_clustered(self, out_of):
        script = ('set -- -ab v x\n'
                  'while getopts ab: o; do echo "$o:$OPTARG"; done')
        assert out_of(script) == "a:\nb:v\n"

    def test_optarg_attached(self, out_of):
        script = ('set -- -bvalue\n'
                  'while getopts b: o; do echo "$o:$OPTARG"; done')
        assert out_of(script) == "b:value\n"

    def test_illegal_option_silent(self, out_of):
        script = ('set -- -x\n'
                  'while getopts :ab o; do echo "$o:$OPTARG"; done')
        assert out_of(script) == "?:x\n"

    def test_missing_arg_silent(self, out_of):
        script = ('set -- -b\n'
                  'while getopts :b: o; do echo "$o:$OPTARG"; done')
        assert out_of(script) == "::b\n"

    def test_optind_reset_between_calls(self, out_of):
        script = ('p() { OPTIND=1\n'
                  '  while getopts v o; do echo "got:$o"; done\n'
                  '  shift $((OPTIND - 1)); echo "rest:$*"; }\n'
                  'p -v a\n'
                  'p -v b')
        assert out_of(script) == "got:v\nrest:a\ngot:v\nrest:b\n"

    def test_no_options_returns_false(self, out_of):
        script = ('set -- plain\n'
                  'while getopts ab: o; do echo "$o"; done\n'
                  'echo "optind:$OPTIND"')
        assert out_of(script) == "optind:1\n"


class TestCustomIFSSplitting:
    # XCU 2.6.5: field splitting applies to *expansion-produced* text;
    # literal characters in the script never split

    def test_colon_ifs_splits_expansion(self, out_of):
        script = ('v=a:b:c\nIFS=:\n'
                  'for x in $v; do printf "%s\\n" "$x"; done')
        assert out_of(script) == "a\nb\nc\n"

    def test_set_dashdash_with_ifs(self, out_of):
        script = ('line="root:x:0"\nIFS=:\nset -- $line\n'
                  'IFS=" "\necho "$# $1 $3"')
        assert out_of(script) == "3 root 0\n"

    def test_literal_colon_does_not_split(self, out_of):
        assert out_of('IFS=:\nfor x in a:b; do echo "$x"; done') == "a:b\n"

    def test_empty_interior_field_kept(self, out_of):
        script = ('v=a::b\nIFS=:\nset -- $v\necho $#')
        assert out_of(script) == "3\n"

    def test_cmdsub_splits_on_custom_ifs(self, out_of):
        script = ('IFS=:\nset -- $(echo x:y)\necho $#')
        assert out_of(script) == "2\n"


class TestMiscSemantics:
    def test_assignment_visible_to_expansion(self, out_of):
        assert out_of("x=1 ; echo $x") == "1\n"

    def test_temp_assignment_restored(self, out_of):
        assert out_of("x=old; x=new true; echo $x") == "old\n"

    def test_temp_assignment_for_special_builtin_persists(self, out_of):
        # POSIX: assignments on special built-ins persist
        assert out_of("x=old; x=new :; echo $x") == "new\n"

    def test_exec_redirect_persists(self, sh_run):
        result = sh_run("exec > /tmp/all; echo captured")
        assert result.stdout == b""
        assert sh_run.shell.fs.read_bytes("/tmp/all") == b"captured\n"

    def test_sigpipe_early_exit(self, sh_run):
        # yes is infinite; head -n1 closes the pipe and yes dies via SIGPIPE
        result = sh_run("yes | head -n 1")
        assert result.status == 0
        assert result.stdout == b"y\n"
