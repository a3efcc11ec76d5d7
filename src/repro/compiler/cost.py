"""The cost-aware dataflow model (S10).

"The procedure is built on top of a cost-aware dataflow model, allowing
for an extensible graph rewriting system that applies transformations
with certain performance objectives within a specified cost budget."

The estimator ranks candidate plans for a region given a *probe* of the
current machine: cores, disk parameters **including the current burst
credit level**, input size, and load.  Absolute accuracy is not the goal
— correct *ranking* of width/mode choices is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from ..annotations.model import AggKind, ParClass
from ..commands.base import CPU_PER_BYTE, PROC_STARTUP, SORT_CMP_COST, cpu_coeff
from ..dfg.from_ast import Region
from .parallel import RunChoice, find_parallel_run


@dataclass
class DiskProbe:
    """Snapshot of a disk's state (taken just-in-time)."""

    throughput_bps: float
    base_iops: float
    burst_iops: float
    credits: float  # burst credits available *right now*
    request_bytes: int
    min_request_bytes: int

    @staticmethod
    def from_disk(disk, now: float) -> "DiskProbe":
        disk._refill(now)
        spec = disk.spec
        return DiskProbe(
            throughput_bps=spec.throughput_bps,
            base_iops=spec.base_iops,
            burst_iops=spec.burst_iops,
            credits=disk.credits,
            request_bytes=spec.request_bytes,
            min_request_bytes=spec.min_request_bytes,
        )


@dataclass
class Probe:
    """Everything the JIT knows at optimization time (B2 made tractable:
    'by running just-in-time, the optimization subsystem has access to
    crucial information ... file sizes, mappings from filesystems to
    physical media, and system load')."""

    cores: int
    cpu_speed: float
    disk: DiskProbe
    input_bytes: int
    avg_line_bytes: float = 30.0
    #: average token (word) size — the line size downstream of a
    #: tokenizing stage such as ``tr -cs A-Za-z '\n'``
    avg_token_bytes: float = 8.0
    runnable_load: int = 0


def disk_time(nbytes: float, streams: int, disk: DiskProbe,
              credits_used_before: float = 0.0) -> tuple[float, float]:
    """(seconds, ops) to move ``nbytes`` with ``streams`` concurrent
    access streams, starting with the probe's credits minus any already
    consumed by earlier phases of the same plan."""
    if nbytes <= 0:
        return 0.0, 0.0
    eff_request = max(disk.min_request_bytes, disk.request_bytes // max(1, streams))
    ops = nbytes / eff_request
    credits = max(0.0, disk.credits - credits_used_before)
    if disk.burst_iops > disk.base_iops:
        burst_ops = min(ops, credits)
        iops_time = burst_ops / disk.burst_iops + (ops - burst_ops) / disk.base_iops
    else:
        iops_time = ops / disk.base_iops
    return max(nbytes / disk.throughput_bps, iops_time), ops


@dataclass
class CostEstimate:
    seconds: float
    breakdown: dict = field(default_factory=dict)

    def __repr__(self) -> str:
        return f"CostEstimate({self.seconds:.3f}s, {self.breakdown})"


def _stage_flows(region: Region, probe: Probe) -> list[tuple[float, float]]:
    """(bytes entering, avg line size entering) for each stage; applies
    selectivities and tracks tokenizing stages that shrink lines."""
    flows = []
    current = float(probe.input_bytes)
    avg_line = max(1.0, probe.avg_line_bytes)
    for stage in region.stages:
        flows.append((current, avg_line))
        current = current * max(0.0, stage.spec.selectivity)
        if stage.spec.tokenizing:
            avg_line = max(1.0, probe.avg_token_bytes)
        elif stage.spec.shrinks_lines:
            # column selection: lines survive but get shorter
            avg_line = max(1.0, avg_line * max(0.01, stage.spec.selectivity))
    return flows


def _stage_cpu(stage, nbytes: float, avg_line: float) -> float:
    cpu = cpu_coeff(stage.argv[0]) * nbytes
    if stage.argv[0] == "sort":
        lines = max(1.0, nbytes / avg_line)
        cpu += lines * math.log2(max(2.0, lines)) * SORT_CMP_COST
    return cpu


def estimate_baseline(region: Region, probe: Probe) -> CostEstimate:
    """Sequential pipeline: streaming stages overlap (each on its own
    core); blocking stages serialize their compute."""
    flows = _stage_flows(region, probe)
    io_time, _ops = disk_time(probe.input_bytes, 1, probe.disk)
    stream_peak = 0.0
    blocking_cpu = 0.0
    for stage, (nbytes, avg_line) in zip(region.stages, flows):
        cpu = _stage_cpu(stage, nbytes, avg_line) / probe.cpu_speed
        if stage.spec.blocking:
            blocking_cpu += cpu
        else:
            stream_peak = max(stream_peak, cpu)
    total = max(io_time, stream_peak) + blocking_cpu
    total += PROC_STARTUP * len(region.stages)
    return CostEstimate(total, {
        "io": io_time, "stream_peak": stream_peak, "blocking": blocking_cpu,
    })


def estimate_parallel(region: Region, probe: Probe, width: int, mode: str,
                      eager: bool = False) -> Optional[CostEstimate]:
    """Cost of a width-``width`` plan in the given split mode."""
    run = find_parallel_run(region)
    if run is None:
        return None
    flows = _stage_flows(region, probe)
    disk = probe.disk
    run_stages = region.stages[run.start : run.end]
    in_bytes = flows[run.start][0]
    credits_used = 0.0

    total = 0.0
    breakdown: dict = {"mode": mode, "width": width}

    # ---- input IO ----------------------------------------------------------------
    if mode == "range":
        io_time, ops = disk_time(in_bytes, width, disk)
        credits_used += ops
    elif mode == "materialize":
        # read input (1 stream) + write chunks (w streams) as phase 1,
        # then read chunks back (w streams) in phase 2
        t_read, ops1 = disk_time(in_bytes, 1, disk)
        t_write, ops2 = disk_time(in_bytes, width, disk, ops1)
        t_reread, ops3 = disk_time(in_bytes, width, disk, ops1 + ops2)
        io_time = max(t_read, t_write) + t_reread
        credits_used += ops1 + ops2 + ops3
        total += max(t_read, t_write)  # phase-1 barrier
        io_time = t_reread
        breakdown["materialize_phase1"] = max(t_read, t_write)
    else:  # rr: single reader feeding the splitter
        io_time, ops = disk_time(in_bytes, 1, disk)
        credits_used += ops

    # ---- CPU: parallel run --------------------------------------------------------
    effective_cores = max(1, probe.cores - probe.runnable_load)
    par = min(width, effective_cores)
    run_cpu = 0.0
    for stage, (nbytes, avg_line) in zip(run_stages, flows[run.start : run.end]):
        run_cpu += _stage_cpu(stage, nbytes / width, avg_line)
    # branches beyond core count time-share
    run_cpu = run_cpu / probe.cpu_speed * (width / par)

    # ---- merge + downstream --------------------------------------------------------
    if run.end < len(flows):
        merged_bytes, merged_avg_line = flows[run.end]
    else:
        last_bytes, merged_avg_line = flows[-1]
        merged_bytes = last_bytes * region.stages[-1].spec.selectivity
        if region.stages[-1].spec.tokenizing:
            merged_avg_line = max(1.0, probe.avg_token_bytes)
    merge_cpu = 0.0
    if run.agg_kind is AggKind.SORT_MERGE:
        merge_cpu = (merged_bytes / max(1.0, merged_avg_line)
                     * math.log2(max(2, width)) * SORT_CMP_COST
                     + merged_bytes * CPU_PER_BYTE["sort"]) / probe.cpu_speed
    elif run.agg_kind is AggKind.RERUN:
        merge_cpu = merged_bytes * cpu_coeff(
            run.agg_argv[0] if run.agg_argv else "default") / probe.cpu_speed
    else:
        merge_cpu = merged_bytes * 1e-9 / probe.cpu_speed

    down_cpu = 0.0
    for stage, (nbytes, avg_line) in zip(region.stages[run.end :],
                                         flows[run.end :]):
        down_cpu += _stage_cpu(stage, nbytes, avg_line) / probe.cpu_speed

    blocking = any(s.spec.blocking for s in run_stages)
    if blocking:
        # branches must finish before the merge emits
        total += max(io_time, run_cpu * 0.3) + run_cpu * 0.7 + merge_cpu + down_cpu
    else:
        total += max(io_time, run_cpu, merge_cpu + down_cpu)
    if eager:
        t_eager, ops_e = disk_time(2 * in_bytes, width, disk, credits_used)
        credits_used += ops_e
        total += t_eager * 0.5  # partially overlapped spooling
        breakdown["eager_io"] = t_eager

    nodes = width * max(1, len(run_stages)) + 2 + (len(region.stages) - (run.end - run.start))
    total += PROC_STARTUP * nodes * 0.5
    breakdown.update({"io": io_time, "run_cpu": run_cpu, "merge": merge_cpu,
                      "down": down_cpu})
    return CostEstimate(total, breakdown)
