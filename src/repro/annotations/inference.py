"""Black-box specification inference (§4 'Heuristic support').

"Formal methods techniques such as fuzz testing ... could (i) test that
a command conforms to its specification or even (ii) learn important
aspects of a command's specification by inspecting its behavior."

The inference engine runs a command on random inputs, re-runs it on
line-aligned chunks of the same input, and checks which aggregation of
the chunk outputs reproduces the whole-input output:

* ordered concatenation        -> STATELESS
* a known aggregator (sort -m, sum, rerun) -> PARALLELIZABLE_PURE
* none                          -> NON_PARALLELIZABLE
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from ..commands.base import UsageError, lookup, parse_args
from ..vos.handles import Collector, StringSource
from ..vos.kernel import Kernel, Node
from ..vos.devices import DiskSpec
from .model import AggKind, Aggregator, InstanceSpec, ParClass

_WORDS = (
    "alpha beta gamma delta epsilon zeta eta theta IOTA Kappa lambda mu "
    "nu xi omicron pi rho sigma tau upsilon phi chi psi omega 0 1 42 999 "
    "3.14 -7 foo bar baz qux"
).split()


def _fast_kernel() -> Kernel:
    """A kernel with effectively free IO: inference cares about outputs,
    not timing."""
    disk = DiskSpec(name="ram", throughput_bps=1e12, base_iops=1e9,
                    burst_iops=1e9)
    return Kernel(Node("infer", cores=8, cpu_speed=1e6, disk_spec=disk))


def run_filter(argv: list[str], stdin: bytes,
               files: Optional[dict[str, bytes]] = None) -> tuple[int, bytes]:
    """Run one registered command as a stdin->stdout filter on a private
    throwaway machine; returns (status, stdout)."""
    fn = lookup(argv[0])
    if fn is None:
        raise KeyError(f"unknown command {argv[0]!r}")
    kernel = _fast_kernel()
    for path, data in (files or {}).items():
        kernel.main_node.fs.write_bytes(path, data)
    out = Collector()
    err = Collector()

    def body(proc):
        status = yield from fn(proc, list(argv[1:]))
        return status if status is not None else 0

    proc = kernel.create_process(
        body, name=argv[0],
        fds={0: StringSource(stdin), 1: out, 2: err},
    )
    status = kernel.run_until_process_done(proc)
    return status, out.getvalue()


def random_input(rng: random.Random, lines: int = 60) -> bytes:
    """Adversarial random text: includes runs of duplicate lines (so
    boundary-sensitive commands like uniq are caught at chunk seams) and
    numeric-looking lines (so -n orderings are exercised)."""
    rows: list[str] = []
    while len(rows) < lines:
        n = rng.randint(1, 6)
        row = " ".join(rng.choice(_WORDS) for _ in range(n))
        rows.append(row)
        # duplicate runs: the classic chunk-boundary hazard
        while rng.random() < 0.35 and len(rows) < lines:
            rows.append(row)
    return ("\n".join(rows) + "\n").encode()


def split_lines(data: bytes, k: int) -> list[bytes]:
    lines = data.splitlines(keepends=True)
    chunk = max(1, len(lines) // k)
    out = []
    for i in range(0, len(lines), chunk):
        out.append(b"".join(lines[i : i + chunk]))
    return out[:k - 1] + [b"".join(out[k - 1 :])] if len(out) > k else out


@dataclass
class InferenceResult:
    name: str
    argv: list[str]
    par_class: ParClass
    aggregator: Optional[Aggregator] = None
    trials: int = 0
    evidence: list[str] = field(default_factory=list)


#: candidate aggregators tried, most-specific first
def _candidate_aggregators(argv: list[str]) -> list[Aggregator]:
    name = argv[0]
    try:  # the invocation's options, as sort itself reads them
        merge_flags = parse_args("sort", argv[1:]).words
    except UsageError:
        merge_flags = ()
    candidates = [
        Aggregator(AggKind.SORT_MERGE, ("sort", "-m", *merge_flags)),
        Aggregator(AggKind.SUM),
        Aggregator(AggKind.RERUN, (name, *argv[1:])),
    ]
    return candidates


def _apply_aggregator(agg: Aggregator, chunk_outputs: list[bytes]) -> Optional[bytes]:
    if agg.kind is AggKind.CONCAT:
        return b"".join(chunk_outputs)
    if agg.kind is AggKind.SORT_MERGE:
        files = {f"/part{i}": data for i, data in enumerate(chunk_outputs)}
        status, out = run_filter(list(agg.argv) + sorted(files), b"", files)
        return out if status == 0 else None
    if agg.kind is AggKind.SUM:
        totals: list[int] = []
        for data in chunk_outputs:
            for line in data.splitlines():
                for i, fieldv in enumerate(line.split()):
                    try:
                        value = int(fieldv)
                    except ValueError:
                        return None
                    while len(totals) <= i:
                        totals.append(0)
                    totals[i] += value
        return (" ".join(str(t) for t in totals) + "\n").encode()
    if agg.kind is AggKind.RERUN:
        status, out = run_filter(list(agg.argv), b"".join(chunk_outputs))
        return out if status == 0 else None
    return None


def _outputs_equal(kind: AggKind, merged: bytes, whole: bytes) -> bool:
    if kind is AggKind.SUM:
        # whitespace-insensitive numeric comparison
        return merged.split() == whole.split()
    return merged == whole


def infer(argv: list[str], trials: int = 4, chunks: int = 3,
          seed: int = 1234) -> InferenceResult:
    """Infer the parallelizability class of a stdin->stdout invocation."""
    rng = random.Random(seed)
    name = argv[0]
    result = InferenceResult(name, list(argv), ParClass.STATELESS)
    stateless_ok = True
    agg_ok: dict[int, bool] = {}
    candidates = _candidate_aggregators(argv)
    for trial in range(trials):
        data = random_input(rng, lines=40 + 20 * trial)
        status, whole = run_filter(argv, data)
        if status not in (0, 1):
            result.par_class = ParClass.NON_PARALLELIZABLE
            result.evidence.append(f"trial {trial}: status {status}")
            result.trials = trial + 1
            return result
        chunk_outputs = []
        for chunk in split_lines(data, chunks):
            _st, out = run_filter(argv, chunk)
            chunk_outputs.append(out)
        if stateless_ok and b"".join(chunk_outputs) != whole:
            stateless_ok = False
            result.evidence.append(f"trial {trial}: concat mismatch")
        for i, agg in enumerate(candidates):
            if agg_ok.get(i, True):
                merged = _apply_aggregator(agg, chunk_outputs)
                ok = merged is not None and _outputs_equal(agg.kind, merged, whole)
                agg_ok[i] = agg_ok.get(i, True) and ok
    result.trials = trials
    if stateless_ok:
        result.par_class = ParClass.STATELESS
        result.aggregator = Aggregator.concat()
        result.evidence.append("concat reproduced whole-input output")
        return result
    for i, agg in enumerate(candidates):
        if agg_ok.get(i):
            result.par_class = ParClass.PARALLELIZABLE_PURE
            result.aggregator = agg
            result.evidence.append(f"aggregator {agg.kind.value} works")
            return result
    result.par_class = ParClass.NON_PARALLELIZABLE
    result.evidence.append("no candidate aggregator reproduced the output")
    return result


def validate_spec(argv: list[str], spec: InstanceSpec, trials: int = 4,
                  seed: int = 99) -> tuple[bool, str]:
    """Test that a command conforms to its hand-written specification
    (direction (i) of §4 Heuristic support): the spec's class must be
    *reproduced* by black-box testing."""
    inferred = infer(argv, trials=trials, seed=seed)
    if inferred.par_class is spec.par_class:
        return True, "inferred class matches spec"
    # a spec may be deliberately conservative: claiming less parallelism
    # than the command has is sound, the reverse is not
    order = {
        ParClass.STATELESS: 2,
        ParClass.PARALLELIZABLE_PURE: 1,
        ParClass.NON_PARALLELIZABLE: 0,
        ParClass.SIDE_EFFECTFUL: 0,
    }
    if order[spec.par_class] <= order[inferred.par_class]:
        return True, (f"spec is conservative: spec={spec.par_class.value}, "
                      f"inferred={inferred.par_class.value}")
    return False, (f"UNSOUND spec: claims {spec.par_class.value} but "
                   f"inference found {inferred.par_class.value}: "
                   f"{'; '.join(inferred.evidence)}")
