"""S7/S8/S10 — the transformation stack: PaSh-style parallelizing
rewrites, the cost-aware dataflow model, the resource-aware optimizer,
and the AOT baseline driver."""

from .cost import (
    CostEstimate,
    DiskProbe,
    Probe,
    estimate_baseline,
    estimate_parallel,
)
from .driver import execute_plan, fs_file_sizes
from .optimizer import Decision, OptimizerConfig, ResourceAwareOptimizer
from .parallel import Plan, baseline_plan, find_parallel_run, parallelize
from .pash_aot import PashConfig, PashOptimizer
from .runtime import execute_graph
from .transactional import (
    DEFAULT_REGION_POLICY,
    RecoveryReport,
    execute_plan_transactional,
)

__all__ = [
    "CostEstimate", "DiskProbe", "Probe", "estimate_baseline",
    "estimate_parallel", "execute_plan", "fs_file_sizes", "Decision",
    "OptimizerConfig", "ResourceAwareOptimizer", "Plan", "baseline_plan",
    "find_parallel_run", "parallelize", "PashConfig",
    "PashOptimizer", "execute_graph", "DEFAULT_REGION_POLICY",
    "RecoveryReport", "execute_plan_transactional",
]
