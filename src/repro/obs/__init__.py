"""repro.obs — stack-wide tracing, metrics, and critical-path profiling.

The observability layer the Jash proposal presumes: a typed
:class:`Tracer` threaded through the kernel, the JIT/AOT engines, the
transactional executor, and the distributed shell; per-process and
per-region :class:`ResourceAccounting`; Chrome ``trace_event`` export
(Perfetto-viewable); and a plain-text critical-path report.

::

    from repro import Shell, JashOptimizer
    from repro.obs import Tracer, dump_chrome, render_report

    tracer = Tracer()
    sh = Shell(optimizer=JashOptimizer(), tracer=tracer)
    sh.fs.write_bytes("/in.txt", b"b\\na\\n")
    sh.run("sort /in.txt > /out.txt")
    print(render_report(tracer))       # critical path + attribution
    dump_chrome(tracer, "trace.json")  # open in ui.perfetto.dev
"""

from .accounting import PipeStats, ProcStats, RegionStats, ResourceAccounting
from .critical_path import Hop, critical_path, render_report
from .export import (
    chrome_events,
    chrome_trace,
    dump_chrome,
    dumps_chrome,
    validate_chrome_trace,
)
from .metrics import (
    MetricsRegistry,
    dump_snapshot,
    dumps_snapshot,
    render_prometheus,
)
from .stat import render_stat
from .tracer import TraceRecord, Tracer, format_record

__all__ = [
    "Tracer", "TraceRecord", "format_record", "ResourceAccounting",
    "ProcStats", "PipeStats", "RegionStats", "Hop", "critical_path",
    "render_report", "chrome_events", "chrome_trace", "dump_chrome",
    "dumps_chrome", "validate_chrome_trace", "MetricsRegistry",
    "dump_snapshot", "dumps_snapshot", "render_prometheus", "render_stat",
]
