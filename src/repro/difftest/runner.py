"""S17 §2: run a case in both shells and compare under normalization.

Backends
--------
* **virtual** — ``repro.shell.Shell`` on a free-IO machine spec, with the
  case's fixture files pre-seeded into the virtual filesystem at ``/``
  (the shell's cwd); the plain interpreter unless an ``engine``
  (``pash``/``jash``) installs its optimizer hook.
* **host** — ``/bin/sh -c script`` in a fresh temporary directory holding
  the same fixtures, with a pinned environment
  (``PATH=/usr/bin:/bin``, ``HOME=<tmpdir>``, ``LC_ALL=C``) so host
  locale/profile noise can't masquerade as a divergence.

Normalization policy (deliberately minimal — every rule hides a class of
real differences, so each one must pay rent):

1. **stdout is compared byte-exact.**  No whitespace trimming, no line
   reordering.
2. **exit status**: equal is equal; otherwise two *nonzero* statuses are
   equivalent (POSIX fixes "zero vs nonzero", not the specific code —
   e.g. grep says "exit >0" for errors, and shells differ on 1 vs 2).
3. **stderr is ignored.**  Diagnostic wording is unspecified by POSIX
   and differs between every implementation pair.

Nothing else is normalized.
"""

from __future__ import annotations

import shutil
import subprocess
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

from ..bench.runners import make_engine
from ..shell import Shell
from ..vos.devices import DiskSpec
from ..vos.machines import MachineSpec
from .grammar import Case

HOST_SH = shutil.which("sh")

HOST_TIMEOUT = 20.0


def fast_machine() -> MachineSpec:
    """Free-IO machine: conformance must not wait on the simulated clock."""
    return MachineSpec(
        name="difftest",
        cores=8,
        cpu_speed=1e6,
        disk=DiskSpec(name="ram", throughput_bps=1e12, base_iops=1e9,
                      burst_iops=1e9),
    )


@dataclass(frozen=True)
class Outcome:
    """Result of one backend run."""

    status: int
    stdout: bytes
    error: str | None = None  # interpreter crash / host timeout


@dataclass(frozen=True)
class Divergence:
    case: Case
    virtual: Outcome
    host: Outcome
    reason: str


@dataclass
class CampaignResult:
    total: int = 0
    agreed: int = 0
    divergences: list[Divergence] = field(default_factory=list)
    skipped: int = 0  # host shell unavailable

    @property
    def ok(self) -> bool:
        return not self.divergences


def run_virtual(script: str, files: dict[str, bytes],
                engine: str = "bash") -> Outcome:
    """``engine`` names the optimizer hook the virtual side runs under
    (:func:`repro.bench.make_engine`); "bash" is the plain interpreter."""
    shell = Shell(fast_machine(), optimizer=make_engine(engine))
    for name, data in files.items():
        shell.fs.write_bytes("/" + name, data)
    try:
        result = shell.run(script)
    except Exception as exc:  # interpreter crash is itself a divergence
        return Outcome(status=-1, stdout=b"",
                       error=f"{type(exc).__name__}: {exc}")
    return Outcome(status=result.status, stdout=result.stdout)


def run_host(script: str, files: dict[str, bytes],
             sh: str | None = None) -> Outcome:
    sh = sh or HOST_SH
    if sh is None:
        raise RuntimeError("no host /bin/sh available")
    with tempfile.TemporaryDirectory(prefix="difftest-") as tmp:
        root = Path(tmp)
        for name, data in files.items():
            target = root / name
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_bytes(data)
        try:
            proc = subprocess.run(
                [sh, "-c", script, "sh"],
                cwd=root, capture_output=True, timeout=HOST_TIMEOUT,
                env={"PATH": "/usr/bin:/bin", "HOME": str(root),
                     "LC_ALL": "C"},
            )
        except subprocess.TimeoutExpired:
            return Outcome(status=-1, stdout=b"", error="host timeout")
    return Outcome(status=proc.returncode, stdout=proc.stdout)


def statuses_equivalent(a: int, b: int) -> bool:
    return a == b or (a > 0 and b > 0)


def compare(virtual: Outcome, host: Outcome) -> str | None:
    """Return a divergence reason, or None when the outcomes agree."""
    if virtual.error:
        return f"virtual error: {virtual.error}"
    if host.error:
        return f"host error: {host.error}"
    if virtual.stdout != host.stdout:
        return "stdout differs"
    if not statuses_equivalent(virtual.status, host.status):
        return f"status differs: virtual={virtual.status} host={host.status}"
    return None


def run_case(case: Case, sh: str | None = None,
             engine: str = "bash") -> Divergence | None:
    virtual = run_virtual(case.script, case.files, engine)
    host = run_host(case.script, case.files, sh=sh)
    reason = compare(virtual, host)
    if reason is None:
        return None
    return Divergence(case=case, virtual=virtual, host=host, reason=reason)


def run_campaign(cases: list[Case], sh: str | None = None,
                 progress=None, engine: str = "bash") -> CampaignResult:
    result = CampaignResult()
    if (sh or HOST_SH) is None:
        result.skipped = len(cases)
        return result
    for case in cases:
        result.total += 1
        div = run_case(case, sh=sh, engine=engine)
        if div is None:
            result.agreed += 1
        else:
            result.divergences.append(div)
        if progress is not None:
            progress(case, div)
    return result
