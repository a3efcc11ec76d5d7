"""The incremental computation engine (§4 'Incremental Computation').

"PaSh and POSH's command specifications are the missing link, exposing
the necessary information for an incremental computation framework. ...
The JIT framework can then be used to provide up-to-date information on
the latest state of script inputs. Combined, we have the critical
building blocks for a runtime that incrementally reinterprets a script
given changes of its input."

The engine is an interpreter hook (same protocol as Jash).  For each
pure dataflow region over file-backed inputs it:

* **replays** the cached output when the inputs are unchanged
  (make-style stat fingerprints: size + mtime, with a sampled content
  spot-check);
* **extends** the cached output when the region is fully stateless and
  an input grew append-only — only the appended suffix is processed
  (the per-line independence exposed by the STATELESS annotation:
  "a command that processes each of its input lines independently need
  not be reapplied to the input lines that were unchanged");
* otherwise recomputes and refreshes the cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..annotations.library import DEFAULT_LIBRARY
from ..annotations.model import AggKind, SpecLibrary
from ..compiler.decisions import DecisionLog
from ..compiler.driver import run_phases, unlink_quiet
from ..compiler.parallel import (
    Plan,
    RunChoice,
    baseline_plan,
    merge_plan,
    range_plan,
    whole_region_run,
)
from ..compiler.runtime import copies_status
from ..dfg.from_ast import Region
from ..jit.frontend import expand_region, pipeline_stages, purity_reason
from ..jit.runtime_info import region_input_files
from ..parser.ast_nodes import Command
from ..parser.unparse import unparse
from ..vos.faults import FAULT_STATUSES
from ..vos.handles import Collector
from .cache import CacheEntry, IncrementalCache
from .fingerprint import PrefixHasher, digest, region_key


@dataclass
class IncrementalConfig:
    library: SpecLibrary = field(default_factory=lambda: DEFAULT_LIBRARY)
    #: sampled spot-check size when trusting stat fingerprints
    spot_check_bytes: int = 1024
    #: minimum input size worth caching at all
    min_input_bytes: int = 4096
    #: how to validate an append-only delta before reusing the prefix:
    #: "full" re-hashes the whole old prefix (exact; the default);
    #: "sampled" checks the head and the bytes at the append boundary
    #: plus the chained prefix digest — O(delta) per round, for
    #: continuous-ingestion supervision where inputs only ever grow
    delta_verify: str = "full"

    def __post_init__(self) -> None:
        if self.delta_verify not in ("full", "sampled"):
            raise ValueError(
                f"delta_verify must be 'full' or 'sampled', "
                f"got {self.delta_verify!r}")


class IncrementalOptimizer(DecisionLog):
    """Interpreter hook giving scripts make-style, line-level reuse."""

    engine = "inc"

    def __init__(self, config: Optional[IncrementalConfig] = None,
                 cache: Optional[IncrementalCache] = None):
        super().__init__()
        self.config = config or IncrementalConfig()
        self.cache = cache if cache is not None else IncrementalCache()
        #: numbers the temp files of aggregator merges
        self._merge_seq = 0

    # -- the hook ---------------------------------------------------------------

    def try_execute(self, interp, proc, node: Command):
        text, cwd = unparse(node), interp.state.cwd
        stages = pipeline_stages(node)
        if stages is None:
            return None
            yield  # pragma: no cover - generator shape
        if purity_reason(stages) is not None:
            return self.decide(proc, text, "interpreted",
                               "unsafe early expansion")
        region = yield from expand_region(interp, proc, stages,
                                          self.config.library)
        # the engine's own rule: a replay opens its sink for truncation
        if region is None or region.stages[-1].stdout_append:
            return self.decide(proc, text, "interpreted",
                               "not a dataflow region")
        if region.clobbered_input(cwd) is not None:
            return self.decide(proc, text, "interpreted",
                               "output sink is also an input")
        # a replay writes only the region's stdout
        if not all(s.spec.pure and not s.spec.output_files
                   for s in region.stages):
            return self.decide(proc, text, "interpreted", "region not pure")
        input_files = region_input_files(region, proc.fs, cwd)
        if input_files is None:
            return self.decide(proc, text, "interpreted",
                               "input not file-backed")
        fs = proc.fs
        total = sum(fs.size(p) for p in input_files)
        if total < self.config.min_input_bytes:
            return self.decide(proc, text, "interpreted",
                               "input too small to cache")

        argvs = [s.argv for s in region.stages]
        fps = [f"{p}:{fs.size(p)}:{fs.mtime(p):.9f}" for p in input_files]
        argv_sig = region_key(argvs, [])
        key = region_key(argvs, fps)

        entry = self.cache.get(key)
        if entry is not None and entry.status in FAULT_STATUSES:
            # a fault-killed result (from an old snapshot): not a value
            self._invalid(proc, key, "cached fault status")
            entry = None
        if entry is not None and not entry.verify_output():
            # torn/corrupted entry (e.g. a mangled durable snapshot):
            # never replay stale bytes — drop it and recompute
            self._invalid(proc, key, "output digest mismatch")
            entry = None
        if entry is not None:
            yield from self._replay(region, proc, entry.output, cwd)
            self.decide(proc, text, "replayed", "inputs unchanged",
                        saved_bytes=total)
            return entry.status

        prev = self.cache.latest(argv_sig, input_files)
        if prev is not None and (prev.status in FAULT_STATUSES
                                 or not prev.verify_output()):
            self._invalid(proc, prev.key, "unusable delta base")
            prev = None

        # content-identical replay: the exact key embeds mtimes, so a
        # fresh kernel (supervised restart) misses it even when the
        # bytes are unchanged — fall back to content digests
        if (
            prev is not None
            and [fs.size(p) for p in input_files] == prev.input_sizes
            and all(digest(fs.read_bytes(p)) == fp
                    for p, fp in zip(input_files, prev.input_prefix_fps))
        ):
            yield from self._replay(region, proc, prev.output, cwd)
            self._store(key, argv_sig, prev.output, prev.status,
                        input_files, fs)
            self.decide(proc, text, "replayed", "content unchanged (digest)",
                        saved_bytes=total)
            return prev.status

        # Snapshot the fault counter: POSIX pipeline status can mask an
        # upstream fault death (a torn write in a stage whose consumers
        # survive still exits the *pipeline* 0), so results computed
        # while any fault fired are never cached — a poisoned entry
        # would be digest-replayed on the very retry meant to fix it.
        fired_before = self._fired(proc)

        # append-only delta: the region is one stateless chain, optionally
        # capped by a parallelizable-pure stage (sort, wc, uniq), and its
        # one input grew at the end.  The region runs over only the
        # appended suffix; a stateless region's output is the cached
        # output plus that, and a capped one's is the two folded together
        # by the final stage's PaSh aggregator — sort never re-sorts the
        # committed prefix, wc never re-counts it.  This is what keeps
        # continuous ingestion cheap.
        run = whole_region_run(region) if prev is not None else None
        if (
            run is not None
            and len(input_files) == 1
            and (run.agg_kind is AggKind.CONCAT or prev.status == 0)
            and self._grew_append_only(fs, input_files[0], prev)
        ):
            old_size = prev.input_sizes[0]
            suffix = range_plan(
                region, [(input_files[0], old_size, fs.size(input_files[0]))])
            delta_out, status = yield from self._capture(suffix, proc, cwd)
            if run.agg_kind is AggKind.CONCAT:
                # prefix and suffix are two copies of the last stage
                output = prev.output + delta_out
                status = copies_status([prev.status, status])
                reason = "append-only delta"
            elif status == 0:
                output = yield from self._merge_outputs(
                    run, prev.output, delta_out, proc, cwd)
                reason = f"aggregator merge ({run.agg_kind.value})"
            else:
                output = None
            if output is not None:
                yield from self._replay(region, proc, output, cwd)
                self.cache.delta_hits += 1
                if self._fired(proc) == fired_before:
                    self._store(key, argv_sig, output, status, input_files,
                                fs, appended_from=old_size)
                self.decide(proc, text, "extended",
                            f"{reason}: reused {old_size} bytes",
                            saved_bytes=old_size)
                return status
            # a fault killed the suffix run or the merge: recompute

        # full compute with capture
        output, status = yield from self._capture(baseline_plan(region),
                                                  proc, cwd)
        yield from self._replay(region, proc, output, cwd)
        if self._fired(proc) == fired_before:
            self._store(key, argv_sig, output, status, input_files, fs)
            self.decide(proc, text, "computed", "cache miss; result stored")
        else:
            self.decide(proc, text, "computed",
                        "fault fired mid-region; result not cached")
        return status

    # -- helpers -------------------------------------------------------------------

    def _fired(self, proc) -> int:
        """Total faults the kernel's plan has injected so far (0 when
        no plan is installed)."""
        plan = getattr(proc.kernel, "faults", None)
        return plan.fired if plan is not None else 0

    def _invalid(self, proc, key: str, reason: str) -> None:
        """Drop a failed-integrity entry and tell the observer."""
        self.cache.invalidate(key)
        ob = proc.kernel.observer
        if ob is not None:
            ob.on_cache_invalid(proc.kernel.now, proc, key, reason)

    def _store(self, key: str, argv_sig: str, output: bytes, status: int,
               input_files, fs, appended_from: Optional[int] = None) -> None:
        """Record a region result with full integrity provenance: output
        digest, full-content fingerprints (chained — O(delta) when the
        input grew append-only), and boundary spot fingerprints."""
        if status in FAULT_STATUSES:
            # a fault-killed region produced garbage, not a result:
            # caching it would replay the failure forever
            return
        k = self.config.spot_check_bytes
        sizes, prefix_fps, head_fps, tail_fps = [], [], [], []
        for path in input_files:
            data = fs.read_bytes(path)
            size = len(data)
            if appended_from is not None and len(input_files) == 1:
                fp = self._chained_digest(path, data, appended_from)
            else:
                hasher = PrefixHasher.seeded(data)
                self.cache.hashers[path] = hasher
                fp = hasher.hexdigest()
            sizes.append(size)
            prefix_fps.append(fp)
            head_fps.append(digest(data[:min(k, size)]))
            tail_fps.append(digest(data[max(0, size - k):]))
        self.cache.put(
            CacheEntry(key, output, status, list(input_files), sizes,
                       prefix_fps, output_sha=digest(output),
                       input_head_fps=head_fps, input_tail_fps=tail_fps),
            argv_sig,
        )

    def _chained_digest(self, path: str, data: bytes, old_size: int) -> str:
        """Full-content digest after an append, advancing the cached
        chained hasher with only the delta when its state lines up."""
        hasher = self.cache.hashers.get(path)
        if isinstance(hasher, PrefixHasher) and hasher.length == old_size:
            hasher = hasher.copy().advance(data[old_size:])
        else:
            hasher = PrefixHasher.seeded(data)
        self.cache.hashers[path] = hasher
        return hasher.hexdigest()

    def _capture(self, plan: Plan, proc, cwd: str):
        """Run ``plan`` with its output captured rather than delivered
        (a file sink is detached: :meth:`_replay` writes it, from the
        bytes the cache keeps).  Returns ``(output, status)``."""
        dfg = plan.phases[-1]
        dfg.streams[dfg.sink].path = None
        collector = Collector()
        status = yield from run_phases(plan, proc, cwd,
                                       stdout_handle=collector)
        unlink_quiet(proc, plan.temp_files, cwd)
        return collector.getvalue(), status

    def _merge_outputs(self, run: RunChoice, old: bytes, delta: bytes,
                       proc, cwd: str):
        """Merge two partial region outputs with the run's aggregator —
        the node the parallel compiler plants behind its branches, so
        the merged bytes match a from-scratch run exactly.  Returns None
        if a fault kills the merge."""
        self._merge_seq += 1
        parts = []
        for tag, blob in zip("ab", (old, delta)):
            path = f"/.inc-merge-{self._merge_seq}{tag}"
            proc.fs.write_bytes(path, blob)
            parts.append((path, len(blob)))
        output, status = yield from self._capture(merge_plan(run, parts),
                                                  proc, cwd)
        return output if status == 0 else None

    def _grew_append_only(self, fs, path: str, prev: CacheEntry) -> bool:
        """Did ``path`` grow by appending whole lines to whole lines?
        "full" mode re-hashes the whole old prefix; "sampled" mode
        checks only the head and the bytes at the append boundary
        (O(delta) per round — in-place edits far from both are traded
        away for throughput, which is why "full" stays the default)."""
        old_size = prev.input_sizes[0]
        new_size = fs.size(path)
        if new_size <= old_size:
            return False
        data = fs.read_bytes(path)
        if old_size > 0 and data[old_size - 1] != 0x0A:
            # the cached run saw a torn last line; the append completes
            # it, so the prefix's output is no prefix of the new output
            return False
        if (self.config.delta_verify == "sampled"
                and prev.input_head_fps and prev.input_tail_fps):
            k = self.config.spot_check_bytes
            head_ok = (digest(data[:min(k, old_size)])
                       == prev.input_head_fps[0])
            tail_ok = (digest(data[max(0, old_size - k):old_size])
                       == prev.input_tail_fps[0])
            return head_ok and tail_ok
        return digest(data[:old_size]) == prev.input_prefix_fps[0]

    def _replay(self, region: Region, proc, output: bytes, cwd: str):
        """Deliver (cached) output to the region's sink, charging the
        write honestly."""
        last = region.stages[-1]
        if last.stdout_file is not None:
            fd = yield from proc.open(last.stdout_file, "w")
            yield from proc.write(fd, output)
            yield from proc.close(fd)
        else:
            yield from proc.write(1, output)
