"""The supervisor: crash-consistent, self-healing streaming pipelines.

A :class:`Supervisor` owns one script over one growing input source and
drives it in *rounds*: each round feeds newly-available input bytes into
the virtual filesystem, re-runs the script (the S11 incremental engine
turns the re-run into an append-only delta for stateless regions), and
durably commits the result to the :class:`~repro.supervise.Journal`
before acknowledging the new input offset.

Failure handling layers, innermost first:

* vOS faults inside a run are retried under the shared
  :class:`~repro.distributed.retry.RetryPolicy` (the same object dshell
  branches and transactional regions use), with partially-staged
  ``*.staged`` sinks re-sealed between attempts;
* the shared watchdog (``repro.distributed.retry.watchdog``) SIGKILLs
  a stalled run after the policy's ``timeout_s`` virtual seconds,
  turning a hang into an ordinary retryable failure;
* when a round exhausts its retry budget the engine is *degraded* one
  rung down the ladder (parallel jash → narrow jash → incremental-only
  → plain interpreter) and the round is retried with a fresh budget —
  the PR 1 degradation ladder, now driven from outside the run;
* a host crash (:class:`SimulatedCrash` at any :class:`CrashPoint`, or
  a real process death) is recovered by building a fresh supervisor
  over the same checkpoint directory and calling :meth:`Supervisor.resume`:
  the journal is repaired, the input prefix is replayed, the cache
  snapshot re-seeds the incremental engine, and the next round continues
  from the last *committed* offset — final output is byte-identical to
  a crash-free run;
* repeated crashes without progress (crash looping) are detected via the
  manifest's restart counter and penalised before the first resumed
  round with the backoff of :data:`CRASH_LOOP`.

Everything the supervisor does is told to the shell's observer, and
is visible as ``supervise.*`` tracer spans and instants and metrics.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

from ..compiler.optimizer import OptimizerConfig
from ..distributed.retry import RetryPolicy, watchdog
from ..incremental import IncrementalConfig, IncrementalOptimizer
from ..jit.composite import CompositeOptimizer
from ..jit.engine import JashConfig, JashOptimizer
from ..obs.observer import observer
from ..shell import Shell
from .checkpoint import load_cache, load_manifest, save_cache, save_manifest
from .journal import Journal, JournalRecord

#: the engine degradation ladder, strongest first
LADDER = ("jash", "jash-narrow", "inc", "interp")

#: restarts without a new committed round before declaring a crash loop
CRASH_LOOP_THRESHOLD = 3
#: the crash-loop backoff: 1 s at the threshold, doubling per further
#: restart, capped at 60 s (only :meth:`RetryPolicy.delay` is read)
CRASH_LOOP = RetryPolicy(base_delay_s=1.0, max_delay_s=60.0)
#: delta validation of resumed/streaming rounds: the O(delta)
#: continuous-ingestion mode of the incremental engine
DELTA_VERIFY = "sampled"


class SimulatedCrash(RuntimeError):
    """A simulated host crash: the supervisor process dies *here*.

    Raised by the commit protocol's crash hooks (and by tests) to model
    losing the whole process — in-memory state is gone, only fsynced
    checkpoint state survives.  Recovery = fresh supervisor + resume().
    """


class SuperviseError(Exception):
    """The supervisor gave up (every engine rung exhausted its budget)."""


@dataclass(frozen=True)
class CrashPoint:
    """Where to kill the supervisor during a round's commit.

    ``where`` is one of:

    * ``"pre-commit"``   — before anything durable: the round vanishes;
    * ``"post-payload"`` — after the payload segment fsync, before the
      record: recovery must delete the orphan segment;
    * ``"torn-record"``  — mid-append of the record line: recovery must
      truncate the torn tail (and delete the orphan segment);
    * ``"post-commit"``  — after the record and cache snapshot are
      durable: recovery must be a no-op (idempotent resume).
    """

    round: int
    where: str

    def __post_init__(self) -> None:
        if self.where not in ("pre-commit", "post-payload",
                              "torn-record", "post-commit"):
            raise ValueError(f"unknown crash point {self.where!r}")


@dataclass
class SuperviseConfig:
    script: str
    checkpoint_dir: str
    input_path: str = "/stream.log"
    #: per-round retries; ``timeout_s`` SIGKILLs a run after that many
    #: virtual seconds (None = no watchdog)
    policy: RetryPolicy = RetryPolicy(max_retries=3, base_delay_s=0.01,
                                      timeout_s=120.0, max_elapsed_s=300.0)
    #: forwarded to the incremental engine (tests use small inputs)
    min_input_bytes: int = 4096
    machine: Optional[object] = None  # MachineSpec
    faults: Optional[object] = None  # FaultPlan, installed on every shell
    tracer: Optional[object] = None  # obs.Tracer, installed on every shell
    #: obs.MetricsRegistry, installed on every shell; the supervisor
    #: additionally folds rounds/attempts/retries/journal bytes and
    #: checkpoint age/lag into it
    metrics: Optional[object] = None


@dataclass
class RoundReport:
    round: int
    engine: str
    attempts: int
    status: int
    input_len: int
    output_len: int
    mode: str  # "delta" | "full"
    saved_bytes: int = 0
    resealed: int = 0
    committed: bool = False


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Supervisor:
    """Run one script over one growing source, crash-consistently."""

    def __init__(self, config: SuperviseConfig, source):
        self.config = config
        self.source = source
        self.journal = Journal(config.checkpoint_dir)
        self._inc = IncrementalOptimizer(IncrementalConfig(
            min_input_bytes=config.min_input_bytes,
            delta_verify=DELTA_VERIFY))
        self.shell: Optional[Shell] = None
        self.reports: list[RoundReport] = []
        #: every engine that decided for a round, for ``run --report``
        self.logs: list = [self._inc]
        self.ladder_level = 0
        self.round = 0
        self.resume_backoff_s = 0.0
        self._fed = 0        # input bytes present in the vfs
        self._committed = b""  # output as of the last journal record
        # checkpoint age/lag tracking for the metrics plane
        self._last_commit_t = 0.0
        self._last_commit_offset = 0

    # -- plumbing -------------------------------------------------------------------

    @property
    def engine(self) -> str:
        return LADDER[self.ladder_level]

    def _make_optimizer(self, level: str):
        if level == "interp":
            return None
        if level == "inc":
            return self._inc
        width = 2 if level == "jash-narrow" else None
        jash = JashOptimizer(JashConfig(optimizer=OptimizerConfig(
            min_input_bytes=self.config.min_input_bytes, max_width=width)))
        self.logs.append(jash)
        return CompositeOptimizer(self._inc, jash)

    def _ensure_shell(self) -> Shell:
        if self.shell is None:
            self.shell = Shell(machine=self.config.machine,
                               optimizer=self._make_optimizer(self.engine),
                               faults=self.config.faults,
                               tracer=self.config.tracer,
                               metrics=self.config.metrics)
            data = self.source.replay(self._fed) if self._fed else b""
            self.shell.fs.write_bytes(self.config.input_path, data,
                                      mtime=self.shell.kernel.now)
        return self.shell

    def _tell(self, event: str, start=None, **args) -> None:
        """Tell the shell's observer (no shell yet: the registry alone)."""
        shell = self.shell
        ob = (shell.kernel.observer if shell is not None
              else observer(None, self.config.metrics))
        if ob is not None:
            now = shell.kernel.now if shell is not None else 0.0
            ob.on_supervise(now, event, start, **args)

    def _sleep(self, delay: float) -> None:
        """Advance virtual time (backoff lives on the vOS clock)."""
        if delay <= 0.0:
            return
        kernel = self._ensure_shell().kernel

        def sleeper(proc, delay=delay):
            yield from proc.sleep(delay)
            return 0

        kernel.run_until_process_done(
            kernel.create_process(sleeper, name="backoff"))

    def _feed(self) -> int:
        """Pull newly-available source bytes into the vfs input file."""
        shell = self._ensure_shell()
        total = self.source.available()
        if total > self._fed:
            delta = self.source.read(self._fed, total - self._fed)
            node = shell.fs.open_node(self.config.input_path, create=True)
            node.data.extend(delta)
            node.mtime = shell.kernel.now
            self._fed = total
        return self._fed

    def _reseal(self) -> int:
        """Roll back partially-staged sinks left by a failed attempt."""
        shell = self._ensure_shell()
        staged = [p for p in shell.fs.walk() if p.endswith(".staged")]
        for path in staged:
            shell.fs.unlink(path)
        if staged:
            self._tell("reseal", count=len(staged))
        return len(staged)

    # -- one round ------------------------------------------------------------------

    def run_round(self, crash: Optional[CrashPoint] = None) -> RoundReport:
        """Feed, execute (with retries/degradation), durably commit."""
        shell = self._ensure_shell()
        self._feed()
        report = RoundReport(round=self.round, engine=self.engine,
                             attempts=0, status=-1, input_len=self._fed,
                             output_len=0, mode="full")
        start = shell.kernel.now
        result = self._attempt_with_recovery(report)
        report.status = result.status
        self._commit(result.stdout, report, crash)
        self._tell("round", start, round=report.round, engine=report.engine,
                   attempts=report.attempts, committed=report.committed,
                   mode=report.mode)
        self.reports.append(report)
        self.round += 1
        return report

    def _attempt_with_recovery(self, report: RoundReport):
        """The retry + watchdog + degradation loop around one round."""
        shell = self._ensure_shell()
        policy = self.config.policy
        kernel = shell.kernel
        first_start = kernel.now
        retry_no = 0
        plan = shell.faults
        while True:
            mark = len(self._inc.events)
            fired_before = plan.fired if plan is not None else 0
            dog = (None if policy.timeout_s is None else
                   kernel.create_process(watchdog(policy.timeout_s),
                                         name="supervise-watchdog"))
            result = shell.run(self.config.script)
            if dog is not None:
                kernel.kill_process(dog)
            report.attempts += 1
            fired = (plan.fired - fired_before) if plan is not None else 0
            if result.status == 0 and fired == 0:
                report.engine = self.engine
                report.saved_bytes = sum(
                    e.saved_bytes for e in self._inc.events[mark:])
                return result
            if result.status == 0:
                # POSIX pipeline semantics can mask an upstream fault
                # death (the killed stage's status is not the pipeline's)
                # — a clean exit during which faults fired is suspect;
                # never commit it.  The storm budget bounds this loop.
                self._tell("suspect", round=report.round, fired=fired,
                           engine=self.engine)
            report.resealed += self._reseal()
            retry_no += 1
            delay = policy.next_delay(retry_no,
                                      elapsed_s=kernel.now - first_start)
            if delay is not None:
                self._tell("retry", round=report.round, retry=retry_no,
                           status=result.status, delay_s=delay,
                           engine=self.engine)
                self._sleep(delay)
                continue
            # budget exhausted at this rung: degrade and start over
            if self.ladder_level + 1 >= len(LADDER):
                raise SuperviseError(
                    f"round {report.round}: every engine "
                    f"({' -> '.join(LADDER)}) exhausted its retry budget "
                    f"(last status {result.status})")
            self.ladder_level += 1
            self._tell("degrade", round=report.round, engine=self.engine,
                       status=result.status)
            shell.optimizer = self._make_optimizer(self.engine)
            retry_no = 0
            first_start = kernel.now

    # -- durable commit -------------------------------------------------------------

    def _commit(self, output: bytes, report: RoundReport,
                crash: Optional[CrashPoint]) -> None:
        where = crash.where if crash and crash.round == report.round else None
        if where == "pre-commit":
            raise SimulatedCrash(f"round {report.round}: crash before commit")
        if output.startswith(self._committed) and self._committed:
            mode, seg = "delta", output[len(self._committed):]
        else:
            mode, seg = "full", output
        record = JournalRecord(
            round=report.round, input_offset=self._fed,
            output_len=len(output), output_sha=_sha(output),
            seg=self.journal.next_seg_name(), seg_len=len(seg),
            seg_sha="", mode=mode,
            script_sha=_sha(self.config.script.encode()),
            engine=report.engine)
        self.journal.append(record, seg,
                            crash_after_payload=(where == "post-payload"),
                            torn_record=(where == "torn-record"))
        save_cache(self.config.checkpoint_dir, self._inc.cache)
        save_manifest(self.config.checkpoint_dir, {
            "v": 1, "script_sha": record.script_sha,
            "records": len(self.journal.records),
            "restarts_without_progress": 0,
        })
        self._committed = output
        report.output_len = len(output)
        report.mode = mode
        report.committed = True
        now = self.shell.kernel.now if self.shell is not None else 0.0
        self._tell("commit", mode=mode, seg_bytes=len(seg),
                   age_s=now - self._last_commit_t,
                   lag_bytes=self._fed - self._last_commit_offset)
        self._last_commit_t = now
        self._last_commit_offset = self._fed
        if where == "post-commit":
            raise SimulatedCrash(f"round {report.round}: crash after commit")

    # -- recovery -------------------------------------------------------------------

    def resume(self) -> dict:
        """Restore from the checkpoint directory after a crash.

        Repairs the journal (torn tail, orphan segments), replays the
        committed input prefix into a fresh virtual machine, re-seeds
        the incremental cache from its snapshot, and applies crash-loop
        backoff when restarts are not making progress.  Returns the
        repair report; afterwards :meth:`run_round` continues from the
        last committed offset."""
        repairs = self.journal.recover()
        self._committed = self.journal.committed_output()
        self._fed = self.journal.input_offset
        self.round = (self.journal.records[-1].round + 1
                      if self.journal.records else 0)
        self.shell = None  # force a fresh machine seeded from the journal
        load_cache(self.config.checkpoint_dir, self._inc.cache)
        manifest = load_manifest(self.config.checkpoint_dir) or {}
        stuck = manifest.get("restarts_without_progress", 0)
        if manifest.get("records") == len(self.journal.records):
            stuck += 1
        else:
            stuck = 0
        save_manifest(self.config.checkpoint_dir, {
            "v": 1, "script_sha": _sha(self.config.script.encode()),
            "records": len(self.journal.records),
            "restarts_without_progress": stuck,
        })
        self._ensure_shell()
        self._tell("resume", records=repairs["records"],
                   torn_tail_bytes=repairs["torn_tail_bytes"],
                   orphan_segs=repairs["orphan_segs"], input_offset=self._fed)
        self.resume_backoff_s = 0.0
        if stuck >= CRASH_LOOP_THRESHOLD:
            backoff = CRASH_LOOP.delay(stuck - CRASH_LOOP_THRESHOLD + 1)
            self.resume_backoff_s = backoff
            self._tell("crash_loop", restarts=stuck, backoff_s=backoff)
            self._sleep(backoff)
        repairs["restarts_without_progress"] = stuck
        repairs["backoff_s"] = self.resume_backoff_s
        return repairs

    # -- results --------------------------------------------------------------------

    def committed_output(self) -> bytes:
        """The durably-committed pipeline output so far."""
        return self._committed

    def run_rounds(self, n: int, grow_bytes: int,
                   crashes: Optional[list[CrashPoint]] = None
                   ) -> list[RoundReport]:
        """Drive ``n`` rounds, growing the source before each one."""
        by_round = {c.round: c for c in (crashes or [])}
        out: list[RoundReport] = []
        for _ in range(n):
            self.source.grow(grow_bytes)
            out.append(self.run_round(crash=by_round.get(self.round)))
        return out
