"""S12/S8 — the distributed, fault-tolerant shell and POSH-style
data-aware placement over a simulated cluster."""

from .cluster import Cluster, Network
from .dshell import DistributedError, DistributedResult, DistributedShell
from .placement import Placement, PlacementError, bytes_moved, central, data_aware
from .retry import RetryPolicy

__all__ = [
    "Cluster", "Network", "DistributedError", "DistributedResult",
    "DistributedShell", "Placement", "PlacementError", "bytes_moved",
    "central", "data_aware", "RetryPolicy",
]
