"""S9/E3 — Jash: JIT-triggered, resource-aware shell optimization."""

from .engine import JashConfig, JashOptimizer
from .runtime_info import measure_input, probe_machine, region_input_files

__all__ = ["JashConfig", "JashOptimizer",
           "measure_input", "probe_machine", "region_input_files"]
