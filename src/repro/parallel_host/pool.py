"""The worker pool: a stdlib process executor plus a scratch directory.

One pool serves every Shell in the process.  Its workers are a
``concurrent.futures.ProcessPoolExecutor`` on the fork context, built by
the first wave that ships (``--jobs N`` costs nothing until a region
does) and as wide as the widest wave seen.  Large payloads travel as
spill files under the pool's private scratch directory, which doubles as
the host-level write set: the coordinator checks every returned path
against the scratch root (:meth:`WorkerPool.owns`) before touching it.

Failure model: a task that raises, or outlives the watchdog deadline,
fails its wave.  A worker that dies (crash, chaos injection, kill)
breaks the executor, which fails every unfinished future; the pool then
builds a new executor and resubmits the wave's uncollected tasks, as
often as the caller's retry budget allows.  A failed wave fails its
region, which the coordinator degrades to in-process execution — the
same ladder supervision uses for crashed rounds.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import shutil
import tempfile
import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as WatchdogExpired
from concurrent.futures.process import BrokenProcessPool
from typing import Optional

from .kernels import run_task

DEFAULT_MIN_SHIP = 4 << 20  # bytes: below this a region never ships
#: host-wall seconds the simulation may block on a wave before the
#: region runs in-process instead
WATCHDOG_S = 60.0


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name, "")
    try:
        return int(raw) if raw else default
    except ValueError:
        return default


class WorkerPool:
    """Forked workers with crash retry; results are keyed by future, so
    there is no arrival order to merge by."""

    def __init__(self):
        self.scratch = tempfile.mkdtemp(prefix="jash-pool-")
        self._executor: Optional[ProcessPoolExecutor] = None
        self._width = 0
        #: executors a dead worker broke (surfaced in ``jash stat``)
        self.crashes = 0

    def close(self) -> None:
        self._stop()
        shutil.rmtree(self.scratch, ignore_errors=True)

    def _stop(self) -> None:
        if self._executor is not None:
            # waits for tasks in flight: their futures keep the results
            self._executor.shutdown(wait=True)
            self._executor = None

    def spill_path(self, stem: str) -> str:
        return os.path.join(self.scratch, stem)

    def owns(self, path: str) -> bool:
        """Scratch-root containment check for returned spill paths."""
        return os.path.realpath(path).startswith(
            os.path.realpath(self.scratch) + os.sep)

    def submit(self, tasks: list[dict]) -> list[list]:
        """Start one wave; its ``[task, future]`` slots, in task order."""
        if self._executor is not None and len(tasks) > self._width:
            self._stop()
        if self._executor is None:
            # fork starts every worker at the first submit, so idle
            # workers beyond the wave's width would be pure start-up cost
            self._width = len(tasks)
            self._executor = ProcessPoolExecutor(
                self._width, mp_context=multiprocessing.get_context("fork"))
        return [[task, self._start(task)] for task in tasks]

    def _start(self, task: dict) -> Future:
        try:
            return self._executor.submit(run_task, task)
        except BrokenProcessPool as exc:
            # a worker already died (an earlier task of this very wave,
            # or while the pool sat idle): collect() sees it and retries
            failed: Future = Future()
            failed.set_exception(exc)
            return failed

    def collect(self, wave: list[list], retries: int) -> Optional[list]:
        """Every task's result, in task order, or None: a task raised,
        the wait outlasted ``WATCHDOG_S``, or workers died more than
        ``retries`` times."""
        deadline = time.monotonic() + WATCHDOG_S
        results = []
        while len(results) < len(wave):
            future = wave[len(results)][1]
            try:
                error = future.exception(
                    timeout=max(0.0, deadline - time.monotonic()))
            except WatchdogExpired:
                return None
            if error is None:
                results.append(future.result())
            elif not isinstance(error, BrokenProcessPool):
                return None
            else:
                self.crashes += 1
                self._stop()
                if retries <= 0:
                    return None
                retries -= 1
                for slot in wave[len(results):]:
                    slot[0].pop("chaos", None)  # a chaos crash fires once
                wave[len(results):] = self.submit(
                    [task for task, _ in wave[len(results):]])
        return results


_GLOBAL_POOL: Optional[WorkerPool] = None


def get_global_pool() -> WorkerPool:
    global _GLOBAL_POOL
    _GLOBAL_POOL = _GLOBAL_POOL or WorkerPool()
    return _GLOBAL_POOL


def shutdown_global_pool() -> None:
    global _GLOBAL_POOL
    if _GLOBAL_POOL is not None:
        _GLOBAL_POOL.close()
        _GLOBAL_POOL = None


atexit.register(shutdown_global_pool)
