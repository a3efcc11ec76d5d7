"""Distributed shell tests: cluster substrate, network charging, POSH
placement vs central, aggregators, fault injection + recovery."""

import pytest

from repro.distributed import (
    Cluster,
    DistributedError,
    DistributedShell,
    bytes_moved,
    central,
    data_aware,
)


def make_cluster(n_nodes=4, n_files=6, lines_per_file=5000, error_every=7):
    cluster = Cluster(n_nodes=n_nodes)
    sizes = {}
    contents = {}
    for i in range(n_files):
        data = ("".join(
            f"host{j % 5} {'ERROR' if j % error_every == 0 else 'INFO'} e{j}\n"
            for j in range(lines_per_file)
        )).encode()
        nodes = [f"node{1 + i % (n_nodes - 1)}",
                 f"node{1 + (i + 1) % (n_nodes - 1)}"]
        path = f"/logs/part{i}.log"
        cluster.write_file(path, data, nodes)
        sizes[path] = len(data)
        contents[path] = data
    return cluster, sizes, contents


class TestCluster:
    def test_locate(self):
        cluster, sizes, _ = make_cluster()
        for path in sizes:
            assert len(cluster.locate(path)) == 2

    def test_fail_node_removes_replicas(self):
        cluster, sizes, _ = make_cluster()
        path = next(iter(sizes))
        before = cluster.locate(path)
        cluster.fail_node(before[0])
        assert before[0] not in cluster.locate(path)

    def test_alive_nodes(self):
        cluster, _, _ = make_cluster()
        cluster.fail_node("node3")
        assert "node3" not in cluster.alive_nodes()
        assert len(cluster.alive_nodes()) == 3


class TestPlacement:
    def test_data_aware_uses_replicas(self):
        cluster, sizes, _ = make_cluster()
        placement = data_aware(cluster, sorted(sizes), "node0")
        for path, node in placement.assignments.items():
            assert node in cluster.locate(path)

    def test_central_everything_on_head(self):
        cluster, sizes, _ = make_cluster()
        placement = central(cluster, sorted(sizes), "node0")
        assert set(placement.assignments.values()) == {"node0"}

    def test_bytes_moved_prediction(self):
        cluster, sizes, _ = make_cluster()
        paths = sorted(sizes)
        aware = data_aware(cluster, paths, "node0", selectivity=0.1)
        naive = central(cluster, paths, "node0")
        assert bytes_moved(cluster, aware, sizes, 0.1) < bytes_moved(
            cluster, naive, sizes, 0.1
        )

    def test_load_balanced(self):
        cluster, sizes, _ = make_cluster(n_files=9)
        placement = data_aware(cluster, sorted(sizes), "node0")
        from collections import Counter

        counts = Counter(placement.assignments.values())
        assert max(counts.values()) - min(counts.values()) <= 2


class TestExecution:
    def test_grep_wc_sum(self):
        cluster, sizes, contents = make_cluster()
        dsh = DistributedShell(cluster)
        result = dsh.run("grep ERROR | wc -l", sorted(sizes))
        expected = sum(d.count(b"ERROR") for d in contents.values())
        assert result.status == 0
        assert int(result.out.split()[0]) == expected

    def test_central_equals_data_aware_output(self):
        cluster, sizes, _ = make_cluster()
        dsh = DistributedShell(cluster)
        r1 = dsh.run("grep ERROR | wc -l", sorted(sizes), strategy="central")
        cluster2, sizes2, _ = make_cluster()
        dsh2 = DistributedShell(cluster2)
        r2 = dsh2.run("grep ERROR | wc -l", sorted(sizes2),
                      strategy="data-aware")
        assert r1.output == r2.output

    def test_data_aware_moves_fewer_bytes(self):
        cluster, sizes, _ = make_cluster()
        dsh = DistributedShell(cluster)
        r_central = dsh.run("grep ERROR | wc -l", sorted(sizes),
                            strategy="central")
        r_aware = dsh.run("grep ERROR | wc -l", sorted(sizes),
                          strategy="data-aware", selectivity=0.1)
        assert r_aware.network_bytes < r_central.network_bytes / 5

    def test_data_aware_faster(self):
        cluster, sizes, _ = make_cluster(lines_per_file=20000)
        dsh = DistributedShell(cluster)
        r_central = dsh.run("grep ERROR | wc -l", sorted(sizes),
                            strategy="central")
        r_aware = dsh.run("grep ERROR | wc -l", sorted(sizes),
                          strategy="data-aware", selectivity=0.1)
        assert r_aware.elapsed < r_central.elapsed

    def test_sort_merge_chain(self):
        cluster, sizes, contents = make_cluster(n_files=3,
                                                lines_per_file=2000)
        dsh = DistributedShell(cluster)
        result = dsh.run("grep ERROR | sort", sorted(sizes))
        expected = b"".join(sorted(
            line for data in contents.values()
            for line in data.splitlines(keepends=True) if b"ERROR" in line
        ))
        assert result.output == expected

    def test_concat_chain(self):
        cluster, sizes, contents = make_cluster(n_files=3,
                                                lines_per_file=1000)
        dsh = DistributedShell(cluster)
        result = dsh.run("grep ERROR", sorted(sizes))
        # concat order = path order
        expected = b"".join(
            b"".join(line for line in contents[p].splitlines(keepends=True)
                     if b"ERROR" in line)
            for p in sorted(sizes)
        )
        assert result.output == expected

    def test_rerun_chain_uniq(self):
        cluster = Cluster(n_nodes=3)
        contents = {}
        for i, data in enumerate((b"a\na\nb\n", b"b\nc\nc\n")):
            path = f"/d/f{i}"
            cluster.write_file(path, data, [f"node{1 + i}"])
            contents[path] = data
        dsh = DistributedShell(cluster)
        result = dsh.run("uniq", sorted(contents))
        # per-file uniq gives a,b / b,c; the RERUN aggregator re-applies
        # uniq over the concatenation, collapsing the boundary b,b pair
        assert result.output == b"a\nb\nc\n"

    def test_non_distributable_chain_rejected(self):
        cluster, sizes, _ = make_cluster()
        dsh = DistributedShell(cluster)
        with pytest.raises(DistributedError):
            dsh.parse_chain("sort | head -n1")

    def test_dynamic_chain_rejected(self):
        cluster, sizes, _ = make_cluster()
        dsh = DistributedShell(cluster)
        with pytest.raises(DistributedError):
            dsh.parse_chain("grep $PAT")

    @pytest.mark.parametrize("chain,message", [
        ("! grep ERROR | wc -l",
         "chain must be a flat pipeline of plain commands"),
        ("X=1 grep ERROR", "chain must be a flat pipeline of plain commands"),
        ("grep ERROR > /out", "chain stages must be plain commands"),
        ("grep ERROR < /in | wc -l", "chain stages must be plain commands"),
        ("grep ERROR 2> /err", "chain stages must be plain commands"),
        ("grep $X", "chain must be static (no expansions)"),
        ("frobnicate | wc -l", "unknown/side-effectful command: frobnicate"),
        ("sort | head -n1", "stage sort is not distributable"),
    ])
    def test_rejection_messages(self, chain, message):
        cluster, sizes, _ = make_cluster()
        with pytest.raises(DistributedError) as err:
            DistributedShell(cluster).parse_chain(chain)
        assert str(err.value) == message


class TestFaultTolerance:
    def test_recovery_from_node_failure(self):
        cluster, sizes, contents = make_cluster(lines_per_file=20000)
        dsh = DistributedShell(cluster)
        expected = sum(d.count(b"ERROR") for d in contents.values())
        result = dsh.run("grep ERROR | wc -l", sorted(sizes),
                         strategy="data-aware", fail={"node1": 0.001})
        assert result.status == 0
        assert int(result.out.split()[0]) == expected
        assert result.retries > 0

    def test_unrecoverable_when_all_replicas_dead(self):
        cluster = Cluster(n_nodes=3)
        cluster.write_file("/only", b"data\n" * 100, ["node2"])
        dsh = DistributedShell(cluster)
        result = dsh.run("grep data | wc -l", ["/only"],
                         fail={"node2": 0.0001})
        assert result.status != 0

    def test_retry_does_not_duplicate_output(self):
        cluster, sizes, contents = make_cluster(lines_per_file=20000)
        dsh = DistributedShell(cluster)
        result = dsh.run("grep ERROR", sorted(sizes),
                         strategy="data-aware", fail={"node1": 0.0005})
        expected_total = sum(d.count(b"ERROR") for d in contents.values())
        assert result.output.count(b"ERROR") == expected_total
