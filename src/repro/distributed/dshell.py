"""A distributed, fault-tolerant shell for dataflow regions (§4
Distribution).

"combining programs in this fragment with the JIT compilation of Jash
... could enable the development of a well-behaved distributed and
fault tolerant shell, where users can easily configure and efficiently
execute tasks on a cluster of nodes."

``DistributedShell.run`` takes a per-file *chain* (a pipeline of
annotated commands, e.g. ``grep ERROR | wc -l``) and a set of input
files resident on cluster nodes.  The chain runs next to each file
(POSH placement) or centrally (baseline); partial results are staged on
the merge node (network-charged), aggregated with the chain's
aggregator, and failed branches are retried on surviving replicas.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..annotations.library import DEFAULT_LIBRARY
from ..annotations.model import AggKind, ParClass, SpecLibrary
from ..commands.base import PROC_STARTUP, lookup
from ..compiler.parallel import whole_region_run
from ..dfg.from_ast import RegionRefusal, read_region
from ..parser import parse_one
from ..vos.faults import FAULT_STATUSES
from ..vos.handles import Collector, NullHandle, StringSource, make_pipe
from ..vos.process import CHUNK, Process
from .cluster import Cluster
from .placement import Placement, central, data_aware
from .retry import RetryPolicy, watchdog


@dataclass
class DistributedResult:
    status: int
    output: bytes
    elapsed: float
    network_bytes: int
    retries: int
    placement: Optional[Placement] = None

    @property
    def out(self) -> str:
        return self.output.decode("utf-8", "replace")


class DistributedError(Exception):
    pass


#: parse_chain's message per :class:`~repro.dfg.from_ast.RegionRefusal` kind
_REFUSALS = {
    "shape": "chain must be a flat pipeline of plain commands",
    "redirect": "chain stages must be plain commands",
    "dynamic": "chain must be static (no expansions)",
    "command": "unknown/side-effectful command: {}",
}


class DistributedShell:
    def __init__(self, cluster: Cluster, head: str = "node0",
                 library: Optional[SpecLibrary] = None):
        self.cluster = cluster
        self.head = head
        self.library = library or DEFAULT_LIBRARY

    # -- public API ---------------------------------------------------------------

    def parse_chain(self, pipeline_text: str):
        """Parse and classify a per-file chain; returns (stages, agg)."""
        try:
            region = read_region(parse_one(pipeline_text), self.library)
        except RegionRefusal as refusal:
            raise DistributedError(
                _REFUSALS[refusal.kind].format(refusal.name)) from None
        stages = region.stages
        if (stages[0].stdin_file is not None
                or stages[-1].stdout_file is not None):
            raise DistributedError(_REFUSALS["redirect"])
        # aggregation: stateless prefix + optional parallelizable-pure cap
        run = whole_region_run(region)
        if run is None:
            bad = next(s for s in stages
                       if s.spec.par_class is not ParClass.STATELESS)
            raise DistributedError(
                f"stage {' '.join(bad.argv)} is not distributable")
        return stages, (run.agg_kind, run.agg_argv)

    def run(self, pipeline_text: str, paths: list[str],
            strategy: str = "data-aware",
            selectivity: float = 1.0,
            retry: RetryPolicy = RetryPolicy(max_retries=1),
            fail: Optional[dict[str, float]] = None) -> DistributedResult:
        """Execute the chain over ``paths`` across the cluster.

        ``retry`` is the :class:`RetryPolicy` governing failed branches
        (backoff delays, retry budget, optional per-attempt timeout
        watchdog).  ``fail`` maps node names to virtual times at which
        they crash (fault injection for the recovery experiments);
        injected vOS faults (a ``FaultPlan`` on the cluster kernel) are
        detected the same way, via the branch exit statuses 137 (crash)
        and 74 (injected I/O error).
        """
        stages, (agg_kind, agg_argv) = self.parse_chain(pipeline_text)
        cluster = self.cluster
        kernel = cluster.kernel
        if strategy == "central":
            placement = central(cluster, paths, self.head)
        else:
            placement = data_aware(cluster, paths, self.head, selectivity)
        start = kernel.now
        net_before = cluster.network.total_bytes
        out = Collector()
        retries_box = {"count": 0}

        shell = self
        ob = kernel.observer

        def main(proc: Process):
            # fault injection reapers
            for node_name, at in (fail or {}).items():
                def reaper(rproc, node_name=node_name, at=at):
                    yield from rproc.sleep(max(0.0, at))
                    cluster.fail_node(node_name)
                    return 0
                yield from proc.spawn(reaper, name=f"reaper:{node_name}")
            staged: dict[str, Collector] = {}
            pending: list[tuple[str, str, list[int], Collector]] = []

            def dispatch(path, node_name, attempt=0, **failed):
                """Place a branch; a retry names the node it ``failed_on``."""
                branch = yield from shell._spawn_branch(
                    proc, stages, path, node_name
                )
                if retry.timeout_s is not None:
                    # a stalled branch (e.g. a disk brown-out) surfaces
                    # as status 137 and is retried like any other failure
                    yield from proc.spawn(watchdog(retry.timeout_s, branch[0]),
                                          name="watchdog")
                if ob is not None:
                    ob.on_dshell(kernel.now, proc,
                                 "retry" if failed else "dispatch", path=path,
                                 node=node_name, attempt=attempt, **failed)
                pending.append((path, node_name) + branch)

            for path in paths:
                yield from dispatch(path, placement.assignments[path])
            attempt = 0
            while pending:
                failed: list[tuple[str, str]] = []
                for path, node_name, pids, collector in pending:
                    ok = True
                    for pid in pids:
                        st = yield from proc.wait(pid)
                        if st in FAULT_STATUSES:
                            ok = False
                    if ok:
                        staged[path] = collector
                    else:
                        failed.append((path, node_name))
                pending = []
                if failed:
                    attempt += 1
                    delay = retry.next_delay(attempt,
                                             elapsed_s=kernel.now - start)
                    if delay is None:
                        return 1
                    if delay > 0:
                        yield from proc.sleep(delay)
                    retries_box["count"] += len(failed)
                    for path, bad_node in failed:
                        replicas = cluster.locate(path)
                        if not replicas:
                            return 1
                        # prefer a replica that is not the node the branch
                        # just failed on (it may still be faulting)
                        others = [r for r in replicas if r != bad_node]
                        pool = others or replicas
                        node_name = self.head if self.head in pool else pool[0]
                        yield from dispatch(path, node_name, attempt,
                                            failed_on=bad_node)
            merge_start = kernel.now
            status = yield from shell._merge(proc, staged, paths,
                                             agg_kind, agg_argv, out)
            if ob is not None:
                ob.on_dshell(kernel.now, proc, "merge", merge_start,
                             node=shell.head, branches=len(paths),
                             agg=agg_kind.name.lower(), status=status)
            return status

        root = kernel.create_process(main, "dshell",
                                     node=kernel.nodes[self.head])
        status = kernel.run_until_process_done(root)
        return DistributedResult(
            status=status,
            output=out.getvalue(),
            elapsed=kernel.now - start,
            network_bytes=cluster.network.total_bytes - net_before,
            retries=retries_box["count"],
            placement=placement,
        )

    # -- branch construction -------------------------------------------------------

    def _spawn_branch(self, proc: Process, stages, path: str, node_name: str):
        """Spawn one file's chain on ``node_name`` with its output staged
        into a Collector on the merge node.  Returns (pids, collector)."""
        cluster = self.cluster
        collector = Collector()
        pids: list[int] = []
        exec_has_file = node_name in cluster.locate(path)

        # stdin source feeding the chain
        if exec_has_file:
            source_node = node_name
        else:
            replicas = cluster.locate(path)
            if not replicas:
                raise DistributedError(f"no replica of {path}")
            source_node = replicas[0]

        reader, writer = make_pipe()

        def source_body(sproc: Process, path=path, dst=node_name,
                        remote=not exec_has_file):
            yield from sproc.cpu(PROC_STARTUP * 0.25)
            fd = yield from sproc.open(path, "r")
            while True:
                data = yield from sproc.read(fd, CHUNK)
                if not data:
                    break
                if remote:
                    yield from sproc.net_send(dst, len(data))
                yield from sproc.write(1, data)
            return 0

        pid = yield from proc.spawn(source_body, name=f"src:{path}",
                                    fds={1: writer}, node=source_node)
        pids.append(pid)

        prev_reader = reader
        for i, stage in enumerate(stages):
            fn = lookup(stage.argv[0])
            argv = list(stage.argv[1:])
            if i < len(stages) - 1:
                nxt_reader, nxt_writer = make_pipe()
                out_handle = nxt_writer
            else:
                nxt_reader = None
                relay_reader, relay_writer = make_pipe()
                out_handle = relay_writer

            def stage_body(cproc: Process, fn=fn, argv=argv):
                yield from cproc.cpu(PROC_STARTUP)
                st = yield from fn(cproc, argv)
                return st if st is not None else 0

            pid = yield from proc.spawn(
                stage_body, name=f"{stage.argv[0]}:{path}",
                fds={0: prev_reader, 1: out_handle, 2: NullHandle()},
                node=node_name,
            )
            pids.append(pid)
            prev_reader = nxt_reader

        # relay: chain output -> (network) -> staging collector at merge node
        merge_node = self.head

        def relay_body(rproc: Process, dst=merge_node,
                       remote=node_name != merge_node):
            while True:
                data = yield from rproc.read(0, CHUNK)
                if not data:
                    break
                if remote:
                    yield from rproc.net_send(dst, len(data))
                yield from rproc.write(1, data)
            return 0

        pid = yield from proc.spawn(relay_body, name=f"relay:{path}",
                                    fds={0: relay_reader, 1: collector},
                                    node=node_name)
        pids.append(pid)
        return pids, collector

    # -- aggregation ----------------------------------------------------------------

    def _merge(self, proc: Process, staged: dict, paths: list[str],
               agg_kind: AggKind, agg_argv, out: Collector):
        from ..commands.sorting import merge_fds
        from ..compiler.runtime import relay, sum_merge_body

        sources = [StringSource(staged[p].getvalue()) for p in paths]
        fds = {i + 3: src for i, src in enumerate(sources)}
        fds[1] = out
        in_fds = [fd for fd in fds if fd != 1]

        if agg_kind is AggKind.CONCAT:
            def body(mproc: Process):
                for fd in in_fds:
                    yield from relay(mproc, fd, 1, coeff=0.0)
                return 0
        elif agg_kind is AggKind.SUM:
            body = sum_merge_body(in_fds)
        elif agg_kind is AggKind.SORT_MERGE:
            def body(mproc: Process):
                return (yield from merge_fds(mproc, in_fds, agg_argv[1:]))
        elif agg_kind is AggKind.RERUN:
            rerun_argv = list(agg_argv)
            fn = lookup(rerun_argv[0])
            if fn is None:
                raise DistributedError(f"unknown aggregator {rerun_argv[0]}")

            def body(mproc: Process, fn=fn, rerun_argv=rerun_argv):
                chunks = []
                for fd in in_fds:
                    data = yield from mproc.read_all(fd)
                    chunks.append(data)
                source = StringSource(b"".join(chunks))
                mproc.fds[0] = source.dup()
                st = yield from fn(mproc, rerun_argv[1:])
                return st if st is not None else 0
        else:
            raise DistributedError(f"unsupported aggregator {agg_kind}")
        pid = yield from proc.spawn(body, name="merge", fds=fds,
                                    node=self.head)
        status = yield from proc.wait(pid)
        return status
