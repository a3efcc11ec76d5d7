"""S6 — the order-aware dataflow model."""

from .from_ast import (
    Region,
    RegionRefusal,
    RegionStage,
    build_dfg,
    extract_region,
    literal_argv,
    read_region,
    region_from_argvs,
    region_from_words,
    to_shell,
)
from .graph import (
    CMD,
    CONCAT_MERGE,
    EAGER,
    FILE_READ,
    INTERNAL_KINDS,
    RANGE_READ,
    RR_SPLIT,
    SORT_KWAY,
    SUM_MERGE,
    DataflowGraph,
    DFNode,
    Stream,
)

__all__ = [
    "Region", "RegionRefusal", "RegionStage", "build_dfg", "extract_region",
    "literal_argv", "read_region", "region_from_argvs", "region_from_words",
    "to_shell",
    "CMD", "CONCAT_MERGE", "EAGER", "FILE_READ", "INTERNAL_KINDS",
    "RANGE_READ", "RR_SPLIT", "SORT_KWAY", "SUM_MERGE",
    "DataflowGraph", "DFNode", "Stream",
]
