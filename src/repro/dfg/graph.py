"""The order-aware dataflow model (Handa et al. [26]; the IR of PaSh and
POSH).

A :class:`DataflowGraph` is a DAG of nodes connected by byte streams.
Nodes are either external commands (kind ``cmd``) or internal runtime
primitives the compiler introduces (range readers, round-robin splitters,
order-preserving merges, eager buffers).  Streams are anonymous pipes
unless bound to a file path.

"PaSh and POSH identify a fragment of the shell with simpler semantics
than the complete shell, i.e., dataflow programs that take a set of
inputs and produce a set of output files."
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Optional

from ..annotations.model import InstanceSpec

# node kinds
CMD = "cmd"
RANGE_READ = "range_read"    # params: path, start, end
FILE_READ = "file_read"      # params: paths (cat-like source, charged IO)
RR_SPLIT = "rr_split"        # params: block_lines; one input, k outputs
CONCAT_MERGE = "concat_merge"  # k inputs read to EOF in order
SUM_MERGE = "sum_merge"      # numeric column-wise sum of k inputs
SORT_KWAY = "sort_kway"      # params: argv of the original sort; k inputs
EAGER = "eager"              # params: mode ("disk"), tmp_path
INTERNAL_KINDS = (RANGE_READ, FILE_READ, RR_SPLIT, CONCAT_MERGE, SUM_MERGE,
                  SORT_KWAY, EAGER)


@dataclass
class Stream:
    sid: int
    #: when set, the stream is a file on disk rather than a pipe
    path: Optional[str] = None

    @property
    def is_file(self) -> bool:
        return self.path is not None


@dataclass
class DFNode:
    nid: int
    kind: str
    argv: tuple[str, ...] = ()  # for kind == CMD: full argv incl. name
    params: dict = field(default_factory=dict)
    inputs: tuple[int, ...] = ()   # stream ids (stdin first for cmds)
    outputs: tuple[int, ...] = ()  # stream ids (stdout first)
    spec: Optional[InstanceSpec] = None

    @property
    def name(self) -> str:
        if self.kind == CMD:
            return self.argv[0] if self.argv else "?"
        return self.kind

    def describe(self) -> str:
        if self.kind == CMD:
            return " ".join(self.argv)
        if self.kind == RANGE_READ:
            return f"range_read({self.params['path']}[{self.params['start']}:{self.params['end']}])"
        if self.kind == FILE_READ:
            return f"file_read({','.join(self.params['paths'])})"
        return self.kind


class DataflowGraph:
    """A mutable DFG with stream/node id allocation."""

    def __init__(self) -> None:
        self.streams: dict[int, Stream] = {}
        self.nodes: dict[int, DFNode] = {}
        self._sid = itertools.count(1)
        self._nid = itertools.count(1)
        #: the stream whose contents are the region's stdout
        self.sink: Optional[int] = None
        #: the stream fed by the region's stdin (None when unused)
        self.source: Optional[int] = None

    # -- construction ------------------------------------------------------------

    def new_stream(self, path: Optional[str] = None) -> int:
        sid = next(self._sid)
        self.streams[sid] = Stream(sid, path)
        return sid

    def add_node(self, kind: str, argv: tuple[str, ...] = (),
                 params: Optional[dict] = None,
                 inputs: tuple[int, ...] = (),
                 outputs: tuple[int, ...] = (),
                 spec: Optional[InstanceSpec] = None) -> DFNode:
        nid = next(self._nid)
        node = DFNode(nid, kind, tuple(argv), params or {}, tuple(inputs),
                      tuple(outputs), spec)
        self.nodes[nid] = node
        return node

    # -- queries -------------------------------------------------------------------

    def producer_of(self, sid: int) -> Optional[DFNode]:
        for node in self.nodes.values():
            if sid in node.outputs:
                return node
        return None

    def consumers_of(self, sid: int) -> list[DFNode]:
        return [n for n in self.nodes.values() if sid in n.inputs]

    def topological_order(self) -> list[DFNode]:
        """Nodes in dependency order (inputs' producers first)."""
        order: list[DFNode] = []
        visited: set[int] = set()

        def visit(node: DFNode) -> None:
            if node.nid in visited:
                return
            visited.add(node.nid)
            for sid in node.inputs:
                producer = self.producer_of(sid)
                if producer is not None:
                    visit(producer)
            order.append(node)

        for node in list(self.nodes.values()):
            visit(node)
        return order

    def linear_stages(self) -> Optional[list[DFNode]]:
        """If the graph is a simple chain, return its stages in order."""
        order = self.topological_order()
        for node in order:
            if len(node.outputs) > 1:
                return None
            pipe_inputs = [s for s in node.inputs if not self.streams[s].is_file]
            if len(pipe_inputs) > 1:
                return None
        return order

    def input_files(self) -> list[str]:
        out = []
        for stream in self.streams.values():
            if stream.is_file and self.producer_of(stream.sid) is None:
                out.append(stream.path)
        # plus file operands of cmd nodes
        for node in self.nodes.values():
            if node.kind == CMD and node.spec is not None:
                for idx in node.spec.input_operands:
                    args = node.argv[1:]
                    if idx < len(args) and args[idx] != "-":
                        out.append(args[idx])
            elif node.kind in (RANGE_READ,):
                out.append(node.params["path"])
            elif node.kind == FILE_READ:
                out.extend(node.params["paths"])
        seen = set()
        unique = []
        for path in out:
            if path not in seen:
                seen.add(path)
                unique.append(path)
        return unique

    def copy(self) -> "DataflowGraph":
        dup = DataflowGraph()
        dup.streams = {sid: Stream(sid, s.path) for sid, s in self.streams.items()}
        dup.nodes = {
            nid: replace(n, params=dict(n.params)) for nid, n in self.nodes.items()
        }
        dup._sid = itertools.count(max(self.streams, default=0) + 1)
        dup._nid = itertools.count(max(self.nodes, default=0) + 1)
        dup.sink = self.sink
        dup.source = self.source
        return dup

    def describe(self) -> str:
        lines = []
        for node in self.topological_order():
            ins = ",".join(self._stream_label(s) for s in node.inputs) or "-"
            outs = ",".join(self._stream_label(s) for s in node.outputs) or "-"
            lines.append(f"[{node.nid:>2}] {node.describe():<45} {ins} -> {outs}")
        return "\n".join(lines)

    def _stream_label(self, sid: int) -> str:
        stream = self.streams[sid]
        return f"s{sid}({stream.path})" if stream.is_file else f"s{sid}"

    def to_dot(self) -> str:
        """Graphviz rendering of the dataflow graph (for papers/debugging)."""
        lines = ["digraph dataflow {", "  rankdir=LR;",
                 '  node [shape=box, fontname="monospace"];']
        for node in self.nodes.values():
            shape = "box" if node.kind == CMD else "ellipse"
            label = node.describe().replace('"', r"\"")
            lines.append(f'  n{node.nid} [label="{label}", shape={shape}];')
        for sid, stream in self.streams.items():
            producer = self.producer_of(sid)
            consumers = self.consumers_of(sid)
            label = stream.path or ""
            for consumer in consumers:
                if producer is not None:
                    lines.append(
                        f'  n{producer.nid} -> n{consumer.nid} '
                        f'[label="{label}"];'
                    )
                elif stream.is_file:
                    lines.append(
                        f'  f{sid} [label="{stream.path}", shape=note];'
                    )
                    lines.append(f"  f{sid} -> n{consumer.nid};")
            if producer is not None and not consumers and stream.is_file:
                lines.append(f'  o{sid} [label="{stream.path}", shape=note];')
                lines.append(f"  n{producer.nid} -> o{sid};")
        lines.append("}")
        return "\n".join(lines)
