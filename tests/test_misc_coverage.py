"""Coverage for less-traveled paths: builtins, kernel public API,
placement corner cases, CLI options, split -b."""

import pytest

from repro.vos.devices import DiskSpec
from repro.vos.handles import Collector, StringSource
from repro.vos.kernel import Kernel, Node


class TestBuiltinsMisc:
    def test_times(self, out_of):
        assert "0m0.00s" in out_of("times")

    def test_trap_records_non_exit(self, sh_run):
        assert sh_run("trap 'echo int' INT TERM").status == 0

    def test_trap_exit_runs_once(self, out_of):
        out = out_of("trap 'echo bye' EXIT; echo a; echo b")
        assert out == "a\nb\nbye\n"

    def test_umask_prints(self, out_of):
        assert out_of("umask") == "0022\n"

    def test_alias_accepted_noop(self, sh_run):
        assert sh_run("alias ll='ls -l'").status == 0

    def test_dot_missing_file(self, sh_run):
        assert sh_run(". /no/such/lib.sh").status == 1

    def test_dot_requires_argument(self, sh_run):
        assert sh_run(".").status == 2

    def test_eval_empty(self, sh_run):
        assert sh_run("eval").status == 0

    def test_eval_nested_quoting(self, out_of):
        assert out_of("x=inner; eval 'echo $x'") == "inner\n"

    def test_exec_with_command_runs_and_exits(self, sh_run):
        result = sh_run("exec echo replaced; echo never")
        assert result.stdout == b"replaced\n"

    def test_unset_function(self, sh_run):
        result = sh_run("f() { echo hi; }; unset -f f; f")
        assert result.status == 127

    def test_shift_too_far(self, sh_run):
        assert sh_run("shift 5", args=["a"]).status == 1

    def test_readonly_without_value(self, sh_run):
        result = sh_run("x=1; readonly x; x=2; echo never")
        assert result.status != 0

    def test_wait_specific_pid(self, sh_run):
        result = sh_run("sleep 0.1 & pid=$!; wait $pid; echo waited")
        assert result.stdout == b"waited\n"
        assert result.elapsed >= 0.1

    def test_set_o_option(self, sh_run):
        assert sh_run("set -o pipefail; false | true").status == 1
        assert sh_run("set -o pipefail; set +o pipefail; false | true").status == 0

    def test_type_not_found(self, sh_run):
        assert sh_run("type nothere_xyz").status == 1


class TestKernelPublicApi:
    def test_run_returns_final_time(self):
        kernel = Kernel(Node("n", 2, 1.0, DiskSpec()))

        def body(proc):
            yield from proc.sleep(1.5)
            return 0

        kernel.create_process(body)
        final = kernel.run()
        assert final == pytest.approx(1.5)

    def test_net_send_without_network_is_noop(self):
        kernel = Kernel(Node("n", 2, 1.0, DiskSpec()))

        def body(proc):
            yield from proc.net_send("nowhere", 1000)
            return 0

        proc = kernel.create_process(body)
        assert kernel.run_until_process_done(proc) == 0

    def test_spawn_on_unknown_node_fails(self):
        kernel = Kernel(Node("n", 2, 1.0, DiskSpec()))

        def child(proc):
            return 0
            yield

        def body(proc):
            yield from proc.spawn(child, node="ghost")
            return 0

        proc = kernel.create_process(body)
        assert kernel.run_until_process_done(proc) == 1

    def test_wait_unknown_pid_fails(self):
        kernel = Kernel(Node("n", 2, 1.0, DiskSpec()))

        def body(proc):
            yield from proc.wait(9999)
            return 0

        proc = kernel.create_process(body)
        assert kernel.run_until_process_done(proc) == 1


class TestSplitBytes:
    def test_split_b(self, sh_run):
        sh_run("cd /tmp; split -b 4 /f p_", files={"/f": b"abcdefghij"})
        fs = sh_run.shell.fs
        assert fs.read_bytes("/tmp/p_aa") == b"abcd"
        assert fs.read_bytes("/tmp/p_ab") == b"efgh"
        assert fs.read_bytes("/tmp/p_ac") == b"ij"

    def test_split_b_kilobytes(self, sh_run):
        sh_run("cd /tmp; split -b 1k /f q_", files={"/f": b"x" * 2500})
        fs = sh_run.shell.fs
        assert fs.size("/tmp/q_aa") == 1024
        assert fs.size("/tmp/q_ac") == 2500 - 2048


class TestPlacementCorners:
    def test_expanding_chain_prefers_head_replica(self):
        from repro.distributed import Cluster, data_aware

        cluster = Cluster(n_nodes=3)
        cluster.write_file("/d/f", b"x" * 100, ["node0", "node1"])
        placement = data_aware(cluster, ["/d/f"], "node0", selectivity=3.0)
        # output 3x input: better to ship input (or run at head directly)
        assert placement.assignments["/d/f"] == "node0"

    def test_placement_error_without_replicas(self):
        from repro.distributed import Cluster, PlacementError, data_aware

        cluster = Cluster(n_nodes=2)
        with pytest.raises(PlacementError):
            data_aware(cluster, ["/missing"], "node0")


class TestCliOptions:
    def test_file_loading(self, tmp_path, capsys):
        from repro.cli import main

        host_file = tmp_path / "input.txt"
        host_file.write_bytes(b"z\na\n")
        status = main(["run", "-c", "sort /data/in",
                       "--file", f"{host_file}:/data/in"])
        assert status == 0
        assert capsys.readouterr().out == "a\nz\n"

    def test_report_flag(self, capsys):
        from repro.cli import main

        status = main(["run", "-c", "seq 3 | sort -rn", "--engine", "jash",
                       "--report"])
        assert status == 0
        captured = capsys.readouterr()
        assert "interpreted" in captured.err or "optimized" in captured.err


class TestHandles:
    def test_collector_accumulates(self):
        collector = Collector()
        collector.write_now(b"a")
        collector.write_now(b"b")
        assert collector.getvalue() == b"ab"

    def test_string_source_reads_out(self):
        source = StringSource(b"abcdef")
        assert source.read_now(4) == b"abcd"
        assert source.read_now(4) == b"ef"
        assert source.read_now(4) == b""

    def test_dup_release_refcount(self):
        source = StringSource(b"")
        source.dup()
        source.dup()
        assert not source.release()
        assert source.release()
        assert source.closed
