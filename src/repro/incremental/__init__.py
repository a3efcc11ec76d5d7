"""S11 — the incremental computation framework built on command
specifications + JIT runtime information (paper §4)."""

from .cache import CacheEntry, IncrementalCache
from .engine import IncrementalConfig, IncrementalOptimizer
from .fingerprint import PrefixHasher, digest, file_fingerprint, region_key

__all__ = [
    "CacheEntry", "IncrementalCache", "IncrementalConfig",
    "IncrementalOptimizer", "PrefixHasher", "digest", "file_fingerprint",
    "region_key",
]
