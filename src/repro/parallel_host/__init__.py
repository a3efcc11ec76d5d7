"""S21 — the multi-core execution plane.

The virtual OS is a single-process discrete-event simulation: every
virtual op (reads, CPU charges, writes, faults) executes in the
coordinator process, which is what makes ``--jobs N`` trivially
byte-identical in *virtual* time.  What a worker pool can buy is the
*host* cost of the data plane: the byte crunching command kernels do
(tr translation and squeeze, sort's line counts) over real buffers.

``repro.parallel_host`` ships certificate-gated dataflow regions to a
persistent pool of forked workers, one wave of part tasks per region.
Workers compute the byte streams a region's stages *will* produce from
a snapshot of the input file; back in the simulation, per-stage oracles
validate every chunk the stage actually sees against the precomputed
stream (an incremental memcmp) and emit precomputed output slices
instead of recomputing them.  A mismatch at any point — the file changed
between snapshot and use, a fault corrupted a buffer, a worker crashed
or timed out — disarms the oracle mid-stream and the stage falls back to
its ordinary in-process code with reconstructed carry state.  Because
the stream mapping is prefix-stable, every byte emitted before the
mismatch is exactly what the serial path would have emitted, so the
fallback is seamless and ``--jobs`` can never change observable
behaviour.

Layering:

* :mod:`.kernels`     — the one part task: ``tr_block`` per grid
                        block and the sort's own line counter
* :mod:`.pool`        — a ``ProcessPoolExecutor`` on the fork context,
                        the scratch directory, watchdog, crash retry
* :mod:`.regions`     — static region detection + S16/S20 gating
* :mod:`.coordinator` — dispatch, merge by part index, stage oracles
"""

from .coordinator import HostCoordinator, render_pool_stats
from .pool import shutdown_global_pool
from .regions import detect_regions, eligible_region_count

__all__ = ["HostCoordinator", "detect_regions", "eligible_region_count",
           "render_pool_stats", "shutdown_global_pool"]
