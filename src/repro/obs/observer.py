"""One observer per event (DESIGN.md §13).

The kernel, the fault plan and the engines tell each event once, to
``kernel.observer``: None when no consumer is installed, else an
:class:`Observer` over the tracer and the metrics registry.
"""

from __future__ import annotations

#: Every kernel, fault-plan and engine event.  Each hook takes the
#: virtual time first; a consumer defines only the hooks it reads.
HOOKS = (
    "on_dispatch", "on_spawn", "on_exit", "on_cpu_begin", "on_cpu_end",
    "on_cpu_killed", "on_disk_submit", "on_disk_complete", "on_pipe_read",
    "on_pipe_write", "on_pipe_stall_begin", "on_pipe_stall_end",
    "on_splice_begin", "on_splice_chunk", "on_splice_end", "on_wait_edge",
    "on_wait_begin", "on_wait_end", "on_net", "on_tick", "on_fault",
    "on_decision", "on_analysis", "on_cert_lookup", "on_compile",
    "on_region_begin", "on_region_end", "on_tx", "on_degrade",
    "on_cache_invalid", "on_supervise", "on_dshell", "on_pool_end",
)


def _noop(*_args, **_kw) -> None:
    pass


def _both(first, second):
    def forward(*args, **kw) -> None:
        first(*args, **kw)
        second(*args, **kw)
    return forward


class Observer:
    """Each hook bound once: to the one consumer's own method that reads
    it, to a forwarder when both read it, else to a no-op.  The kernel's
    per-syscall site checks ``watches_dispatch`` instead of calling a no-op."""

    def __init__(self, *consumers):
        for name in HOOKS:
            bound = [hook for hook in (getattr(c, name, None)
                                       for c in consumers) if hook is not None]
            setattr(self, name, _both(*bound) if len(bound) == 2
                    else bound[0] if bound else _noop)
        self.watches_dispatch = self.on_dispatch is not _noop


def observer(tracer, metrics) -> "Observer | None":
    consumers = [c for c in (tracer, metrics) if c is not None]
    return Observer(*consumers) if consumers else None


class CanonNames:
    """Run-stable labels for values that embed process-global counters:
    pipes numbered, and ``/tmp`` scratch paths renamed, in first-seen
    order.  Each consumer numbers with its own instance."""

    def __init__(self) -> None:
        self._pipe_keys: dict[int, int] = {}
        self._tmp_names: dict[str, str] = {}

    def pipe_key(self, pipe) -> int:
        return self._pipe_keys.setdefault(pipe.id, len(self._pipe_keys) + 1)

    def canon_path(self, path: str) -> str:
        if not path.startswith("/tmp/"):
            return path
        return self._tmp_names.setdefault(
            path, f"/tmp/scratch.{len(self._tmp_names) + 1}")
