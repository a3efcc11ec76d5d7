"""One workload, measured inside its own fresh subprocess.

Phase A (end to end): set-up, one discarded warm-up repetition, then
untraced timed repetitions.  Phase B (per layer): one repetition under
:func:`spans.tracing`, one under the virtual-clock ``repro.obs.Tracer``
for the ``obs.*`` split, and direct timed calls into the parser,
analysis, lint, JIT, AOT compiler and dfg layers over the workload's
script texts.  End-to-end numbers never come from phase B.
"""

from __future__ import annotations

import gc
import os
import resource
import statistics
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass

from spans import Recorder, tracing
from workloads import Workload

#: command bodies that get their own ``commands.<name>.busy_s`` row
COMMANDS = ("sort", "tr", "uniq", "grep", "cut", "awk", "sed", "wc", "cat",
            "head")
RUNTIME_NODES = ("sort_kway", "sort", "tr", "rr_split")
#: set-ups timed per run; ``setup_s`` is import + their median
SETUP_REPS = 3


@dataclass
class Rep:
    wall_s: float
    cpu_user_s: float  # user CPU of this process plus reaped children
    self_cpu_s: float  # user + system, this process
    child_cpu_s: float  # user + system, reaped children
    result: object  # workloads.OpResult
    failures: dict[int, str]


def repetition(workload: Workload, rec: Recorder | None = None,
               obs: bool = False) -> Rep:
    """prepare (untimed) -> gc (untimed) -> operate (timed) -> verify."""
    ctx = workload.prepare(obs)
    gc.collect()
    with tracing(rec) if rec is not None else nullcontext():
        own0, kids0, start = _rusage(), _rusage(True), time.perf_counter()
        result = workload.operate(ctx)
        wall = time.perf_counter() - start
        own1, kids1 = _rusage(), _rusage(True)
    return Rep(
        wall_s=wall,
        cpu_user_s=(own1.ru_utime - own0.ru_utime
                    + kids1.ru_utime - kids0.ru_utime),
        self_cpu_s=(own1.ru_utime - own0.ru_utime
                    + own1.ru_stime - own0.ru_stime),
        child_cpu_s=(kids1.ru_utime - kids0.ru_utime
                     + kids1.ru_stime - kids0.ru_stime),
        result=result,
        failures=workload.verify(result),
    )


def _rusage(children: bool = False):
    # microsecond resolution; os.times() counts in 10 ms clock ticks
    return resource.getrusage(resource.RUSAGE_CHILDREN if children
                              else resource.RUSAGE_SELF)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(values: list[float], share: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


class Tally:
    """Operations attempted and failed, with the first few reasons."""

    def __init__(self, workload: Workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def add(self, rep: Rep, tag: str) -> None:
        self.attempted += len(self.workload.labels)
        self.failed += len(rep.failures)
        for index, reason in list(rep.failures.items())[:5]:
            if len(self.reasons) < 20:
                self.reasons.append(
                    f"{tag} {self.workload.labels[index]}: {reason}")

    def abandon(self, reps: int, reason: str) -> None:
        ops = reps * len(self.workload.labels)
        self.attempted += ops
        self.failed += ops
        self.reasons.append(f"{ops} operations not run: {reason}")


def end_to_end(workload: Workload, tally: Tally, imported_s: float,
               reps: int | None, seconds: float | None,
               deadline: float) -> dict:
    """Phase A.  ``reps`` fixes the repetition count; otherwise the loop
    runs until ``seconds`` of repetitions have elapsed (at least two)."""
    setups = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - start)
    setup_s = imported_s + statistics.median(setups)

    repetition(workload)  # warm-up: discarded
    timed: list[Rep] = []
    loop_start = time.perf_counter()
    while True:
        if time.perf_counter() > deadline:
            tally.abandon(max(1, (reps or 2) - len(timed)),
                          "wall-clock budget exhausted")
            break
        rep = repetition(workload)
        if timed and rep.result.virtual_s != timed[0].result.virtual_s:
            rep.failures.setdefault(0, "virtual_s differs between repetitions")
        tally.add(rep, f"rep{len(timed)}")
        # keep the numbers, drop the machines: a held filesystem per
        # repetition would grow peak_rss_mb with the repetition count
        rep.result.shells = rep.result.optimizers = rep.result.tracers = ()
        rep.result.outcomes = ()
        timed.append(rep)
        if reps is not None:
            if len(timed) >= reps:
                break
        elif (len(timed) >= 2
              and time.perf_counter() - loop_start >= seconds):
            break
    if not timed:
        return {}

    # the children term counts only when the repetitions reaped children:
    # the host-sh reference processes of set-up are not the system under
    # test.  (ru_maxrss is a high-water mark; a 16 MB pool worker is 3x
    # the largest reference process.)
    own, children = _rusage(), _rusage(True)
    reaped = any(rep.child_cpu_s > 0 for rep in timed)
    child_rss = children.ru_maxrss if reaped else 0

    # after the high-water marks are read: the serial path's is higher
    twin = workload.serial_twin()
    if twin is not None:
        serial = repetition(twin)
        if serial.result.virtual_s != timed[0].result.virtual_s:
            serial.failures.setdefault(
                0, "pool and serial runs differ in virtual_s")
        tally.add(serial, "serial")

    walls = [rep.wall_s for rep in timed]
    users = [rep.cpu_user_s for rep in timed]
    q1, wall_s, q3 = quartiles(walls)
    latencies = [ms for rep in timed for ms in rep.result.latencies_ms]
    cells: dict[str, dict[str, float]] = {}
    for label in timed[0].result.cells:
        cells[label] = {
            "wall_s": statistics.median(
                rep.result.cells[label][0] for rep in timed
                if label in rep.result.cells),
            "virtual_s": timed[0].result.cells[label][1],
        }
    return {
        "end_to_end": {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "cpu_user_s": statistics.median(users),
            "work_per_s": workload.work / wall_s,
            "virtual_s": timed[0].result.virtual_s,
            "peak_rss_mb": (own.ru_maxrss + child_rss) / 1024,
        },
        "samples": {"setup_s": [imported_s + s for s in setups],
                    "wall_s": walls, "cpu_user_s": users},
        "wall": {"q1": q1, "q3": q3, "min": min(walls), "max": max(walls),
                 "reps": len(walls)},
        "work": {"amount": workload.work, "unit": workload.work_unit},
        "latency_ms": {"p50": percentile(latencies, 0.50),
                       "p99": percentile(latencies, 0.99),
                       "samples": len(latencies)},
        "cells": cells,
    }


# -- phase B ---------------------------------------------------------------


def direct_layers(sources: list[str]) -> dict[str, float]:
    """Timed calls straight into the layers that process script text."""
    from repro import JashOptimizer, PashOptimizer
    from repro.analysis import analyze_program, analyze_value_flow
    from repro.annotations import DEFAULT_LIBRARY
    from repro.dfg import build_dfg, extract_region
    from repro.lint import lint
    from repro.parser import Pipeline, SimpleCommand, parse, walk

    def timed(fn, items):
        start = time.perf_counter()
        out = [fn(item) for item in items]
        return time.perf_counter() - start, out

    parse_s, programs = timed(parse, sources)
    analyze_s, analyses = timed(analyze_program, programs)
    absint_s, _ = timed(analyze_value_flow, programs)
    lint_s, diagnostics = timed(lint, sources)
    # compile_program keys certificates by node identity: fresh ASTs each
    jit_s, _ = timed(lambda p: JashOptimizer().compile_program(p),
                     [parse(s) for s in sources])
    aot_s, _ = timed(lambda p: PashOptimizer().compile_program(p),
                     [parse(s) for s in sources])

    def lower(program):
        graphs = []
        for node in walk(program):
            if isinstance(node, (Pipeline, SimpleCommand)):
                region = extract_region(node, DEFAULT_LIBRARY)
                if region is not None:
                    graphs.append(build_dfg(region))
        return graphs

    dfg_s, lowered = timed(lower, programs)
    stats = [analysis.stats() for analysis in analyses]
    kb = sum(len(s.encode()) for s in sources) / 1e3
    return {
        "parser.parse_s": parse_s,
        "parser.nodes": sum(sum(1 for _ in walk(p)) for p in programs),
        "parser.kb_per_s": kb / parse_s,
        "analysis.analyze_s": analyze_s,
        "analysis.absint_s": absint_s,
        "analysis.certificates": sum(s["certificates"] for s in stats),
        "analysis.safe_parallel": sum(s["safe_parallel"] for s in stats),
        "lint.lint_s": lint_s,
        "lint.diagnostics": sum(map(len, diagnostics)),
        "jit.compile_s": jit_s,
        "compiler.aot_compile_s": aot_s,
        "dfg.build_s": dfg_s,
        "dfg.regions": sum(map(len, lowered)),
        "dfg.nodes": sum(len(g.nodes) for graphs in lowered for g in graphs),
    }


def per_layer(workload: Workload, tally: Tally, phase_a: dict,
              import_s: float, trace_out: str | None) -> dict[str, float]:
    """Phase B: every per-layer metric, zero where a layer is idle."""
    untraced_wall = phase_a["end_to_end"]["wall_s"]
    untraced_virtual = phase_a["end_to_end"]["virtual_s"]

    rec = Recorder()
    traced = repetition(workload, rec)
    result = traced.result
    if result.virtual_s != untraced_virtual:
        traced.failures.setdefault(0, "tracing changed virtual_s")
    tally.add(traced, "traced")
    if trace_out:
        rec.write_chrome_trace(trace_out)

    observed = repetition(workload, obs=True)
    if observed.result.virtual_s != untraced_virtual:
        observed.failures.setdefault(0, "obs tracer changed virtual_s")
    tally.add(observed, "obs")
    totals: dict[str, float] = {}
    for tracer in observed.result.tracers:
        for key, value in tracer.accounting.to_dict()["totals"].items():
            totals[key] = totals.get(key, 0.0) + value

    m: dict[str, float] = {"cli.import_s": import_s}
    m.update(direct_layers(workload.sources()))

    m["semantics.busy_s"] = rec.self_s("semantics")
    m["semantics.resumes"] = rec.count("semantics")
    m["shell.script_ms_p50"] = phase_a["latency_ms"]["p50"]
    m["shell.script_ms_p99"] = phase_a["latency_ms"]["p99"]
    m["commands.busy_s"] = rec.self_s("commands")
    m["commands.resumes"] = rec.count("commands")
    for name in COMMANDS:
        m[f"commands.{name}.busy_s"] = rec.self_s(f"commands.{name}")

    kernels = rec.kernels.values()
    dispatches = sum(k.dispatches for k in kernels)
    m["vos.kernel_self_s"] = rec.self_s("vos")
    m["vos.dispatches"] = dispatches
    m["vos.steps"] = sum(k.steps for k in kernels)
    m["vos.dispatches_per_mb"] = dispatches / workload.input_mb
    m["vos.processes"] = sum(len(k.processes) for k in kernels)

    jash = [opt for engine, _, opt in result.optimizers if engine == "jash"]
    events = [event for opt in jash for event in opt.events]
    m["jit.events_optimized"] = sum(e.decision == "optimized" for e in events)
    m["jit.events_skipped"] = len(events) - m["jit.events_optimized"]
    m["jit.cert_hits"] = sum(opt.cert_hits for opt in jash)
    m["jit.cert_misses"] = sum(opt.cert_misses for opt in jash)

    cells = phase_a["cells"]

    def cell(label: str, key: str) -> float:
        return cells.get(label, {}).get(key, 0.0)

    m["jit.mix_overhead_ratio"] = (
        cell("jash", "wall_s") / cell("bash", "wall_s")
        if "bash" in cells else 0.0)
    ratios = []
    for machine in ("gp2", "gp3"):
        estimate = next((e.estimate_s for engine, label, opt
                         in result.optimizers
                         if (engine, label) == ("jash", machine)
                         for e in opt.events if e.decision == "optimized"),
                        0.0)
        measured = cell(f"jash.{machine}", "virtual_s")
        m[f"jit.estimate_ratio.{machine}"] = (
            estimate / measured if measured else 0.0)
        if measured:
            ratios.append(measured / min(cell(f"bash.{machine}", "virtual_s"),
                                         cell(f"pash.{machine}", "virtual_s")))
        for engine in ("bash", "pash", "jash"):
            for key in ("virtual_s", "wall_s"):
                m[f"engine_matrix.{engine}.{machine}.{key}"] = cell(
                    f"{engine}.{machine}", key)
    m["jit.noregression_ratio"] = max(ratios, default=0.0)

    m["compiler.runtime_busy_s"] = rec.self_s("compiler.runtime")
    for node in RUNTIME_NODES:
        m[f"compiler.runtime.{node}.busy_s"] = rec.self_s(
            f"compiler.runtime.{node}")
    divergences, regions = workload.pash_pass()
    m["compiler.mix_divergences"] = divergences
    m["compiler.regions"] = regions + sum(
        e.decision == "optimized" for engine, _, opt in result.optimizers
        if engine == "pash" for e in opt.events)

    coord = result.shells[0].host_coord if result.shells else None
    stats = coord.stats if coord is not None else {}
    for key in ("regions_dispatched", "tasks", "oracle_hits",
                "oracle_fallbacks", "bytes_shipped", "bytes_returned"):
        m[f"parallel_host.{key}"] = stats.get(key, 0)
    pooled = coord is not None
    m["parallel_host.worker_cpu_s"] = traced.child_cpu_s if pooled else 0.0
    m["parallel_host.parent_cpu_s"] = traced.self_cpu_s if pooled else 0.0
    m["parallel_host.speedup_vs_serial"] = 0.0
    twin = workload.serial_twin()
    if twin is not None:
        # its own warm-up: without one just before it, the serial
        # repetition reads 1.6x slower (phase A's is three repetitions ago)
        repetition(twin)
        serial = repetition(twin)
        tally.add(serial, "serial")
        m["parallel_host.speedup_vs_serial"] = serial.wall_s / untraced_wall

    runs = result.distributed
    for key, strategy in (("central", "central"),
                          ("data_aware", "data-aware")):
        run = runs.get(strategy)
        m[f"distributed.{key}_virtual_s"] = run.elapsed if run else 0.0
        m[f"distributed.net_bytes_{key}"] = run.network_bytes if run else 0
    m["distributed.retries"] = sum(run.retries for run in runs.values())
    m["distributed.run_s"] = rec.total_s("distributed.run")

    m["obs.virtual_cpu_s"] = totals.get("cpu_s", 0.0)
    m["obs.virtual_disk_time_s"] = totals.get("disk_time_s", 0.0)
    m["obs.virtual_disk_wait_s"] = totals.get("disk_wait_s", 0.0)
    m["obs.virtual_stall_s"] = (totals.get("stall_read_s", 0.0)
                                + totals.get("stall_write_s", 0.0))

    # host calls that are neither a process body nor the kernel loop: the
    # rest of what the traced repetition attributes to a layer
    for layer in ("shell", "parser", "analysis", "jit", "parallel_host",
                  "distributed"):
        m[f"{layer}.traced_self_s"] = rec.self_s(layer)
    m["compiler.aot_traced_self_s"] = rec.self_s("compiler.aot_compile")
    m["trace.wall_s"] = traced.wall_s
    m["trace.overhead_ratio"] = traced.wall_s / untraced_wall
    m["trace.unattributed_s"] = traced.wall_s - rec.attributed_s()
    return m


def measure(name: str, seed: int, quick: bool, reps: int | None,
            seconds: float | None, trace: bool, deadline: float,
            trace_out: str | None, started: float, import_s: float) -> dict:
    """Everything one workload subprocess does; returns its JSON.
    ``started`` and ``deadline`` are ``perf_counter`` readings: when the
    process began and when it must stop repeating."""
    from workloads import WORKLOADS

    imported_s = time.perf_counter() - started
    workload = WORKLOADS[name](seed, quick)
    tally = Tally(workload)
    doc = {"workload": name, "seed": seed, "quick": quick}
    try:
        phase_a = end_to_end(workload, tally, imported_s, reps, seconds,
                             deadline)
        doc.update(phase_a)
        if trace and phase_a:
            doc["per_layer"] = per_layer(workload, tally, phase_a, import_s,
                                         trace_out)
    except Exception:  # noqa: BLE001 - the subprocess boundary: report it
        doc["error"] = traceback.format_exc()
    doc.update(reference=workload.reference, attempted=tally.attempted,
               failed=tally.failed, failures=tally.reasons)
    return doc
