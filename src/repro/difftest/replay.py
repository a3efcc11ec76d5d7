"""S17 §5: session-replay conformance (PR 9).

The grammar generates *synthetic* scripts; this module replays
*realistic* session traces — cowrie-honeypot-style interactive command
sequences (probe → redirect → background job → ``wait`` → cleanup),
command-substitution-heavy one-liners, awk-heavy reporting — through the
same virtual-vs-host comparison as the grammar campaigns.

A trace is a checked-in file under ``tests/corpus/sessions/`` holding a
structured comment header (same string-literal encoding as the
divergence corpus) followed by the session body split into *steps*:

    # jash-replay session
    # name: probe-and-cleanup
    # description: recon commands then a background fetch
    # file logs.txt: "a\\nb\\n"
    # expect-status: 0
    # expect-stdout: "..."
    --- step: probe
    echo $0
    --- step: fetch
    sort logs.txt > s.txt &
    wait

The step markers matter twice: they document the interactive structure,
and they are the reduction granularity — ddmin drops whole steps, never
individual lines, because slicing through a here-doc body or a loop
produces degenerate parse-error "divergences" instead of smaller real
ones.  ``expect-status``/``expect-stdout`` record the host's behaviour
when the trace was checked in, so replay also works host-less (CI boxes
without a POSIX shell still verify the virtual side against the
recording).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

from .corpus import _decode_bytes, _encode_bytes
from .grammar import Case
from .reduce import _Budget, _diverges, _shrink_files
from .runner import CampaignResult, Divergence, run_case, run_virtual

HEADER = "# jash-replay session"
STEP_MARKER = "--- step:"

SESSIONS_DIR = Path(__file__).resolve().parents[3] / "tests" / "corpus" / "sessions"


@dataclass(frozen=True)
class SessionStep:
    """One interactive exchange: a label plus the command text (which may
    span several lines, e.g. a here-doc or a loop)."""

    label: str
    text: str


@dataclass(frozen=True)
class SessionTrace:
    name: str
    description: str
    steps: tuple[SessionStep, ...]
    files: dict[str, bytes] = field(hash=False)
    expect_status: int | None = None
    expect_stdout: bytes | None = None

    @property
    def script(self) -> str:
        return "\n".join(step.text for step in self.steps)


def parse_session(text: str, *, name_hint: str = "?") -> SessionTrace:
    lines = text.splitlines()
    if not lines or lines[0].strip() != HEADER:
        raise ValueError(f"{name_hint}: missing {HEADER!r} header")
    meta: dict[str, str] = {}
    descriptions: list[str] = []
    files: dict[str, bytes] = {}
    i = 1
    while i < len(lines) and lines[i].startswith("#"):
        content = lines[i][1:].strip()
        key, _, value = content.partition(":")
        key = key.strip()
        value = value.strip()
        if key == "description":
            descriptions.append(value)
        elif key.startswith("file "):
            files[key[5:].strip()] = _decode_bytes(value)
        elif key in ("name", "expect-status", "expect-stdout"):
            meta[key] = value
        # unknown keys are ignored: forward compatibility
        i += 1
    steps: list[SessionStep] = []
    label: str | None = None
    body: list[str] = []
    for line in lines[i:]:
        if line.startswith(STEP_MARKER):
            if label is not None:
                steps.append(SessionStep(label, "\n".join(body)))
            label = line[len(STEP_MARKER):].strip()
            body = []
            continue
        if label is None:
            if line.strip():
                raise ValueError(
                    f"{name_hint}: command text before the first "
                    f"{STEP_MARKER!r} marker")
            continue
        body.append(line)
    if label is not None:
        steps.append(SessionStep(label, "\n".join(body)))
    if not steps:
        raise ValueError(f"{name_hint}: session has no steps")
    steps = [replace(s, text=s.text.strip("\n")) for s in steps]
    expect_status = meta.get("expect-status")
    expect_stdout = meta.get("expect-stdout")
    return SessionTrace(
        name=meta.get("name", name_hint),
        description=" ".join(descriptions),
        steps=tuple(steps),
        files=files,
        expect_status=int(expect_status) if expect_status is not None else None,
        expect_stdout=(_decode_bytes(expect_stdout)
                       if expect_stdout is not None else None),
    )


def render_session(trace: SessionTrace) -> str:
    lines = [HEADER, f"# name: {trace.name}"]
    for dline in trace.description.splitlines() or [""]:
        lines.append(f"# description: {dline}")
    for fname in sorted(trace.files):
        lines.append(f"# file {fname}: {_encode_bytes(trace.files[fname])}")
    if trace.expect_status is not None:
        lines.append(f"# expect-status: {trace.expect_status}")
    if trace.expect_stdout is not None:
        lines.append(f"# expect-stdout: {_encode_bytes(trace.expect_stdout)}")
    for step in trace.steps:
        lines.append(f"{STEP_MARKER} {step.label}")
        lines.append(step.text)
    return "\n".join(lines) + "\n"


def load_sessions(directory: Path | None = None) -> list[SessionTrace]:
    directory = Path(directory) if directory is not None else SESSIONS_DIR
    traces = []
    for path in sorted(directory.glob("*.session")):
        traces.append(parse_session(path.read_text(), name_hint=path.stem))
    return traces


def write_session(trace: SessionTrace, directory: Path | None = None) -> Path:
    directory = Path(directory) if directory is not None else SESSIONS_DIR
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{trace.name}.session"
    path.write_text(render_session(trace))
    return path


def session_case(trace: SessionTrace, index: int = 0) -> Case:
    """Adapt a trace to the Case shape the runner/reducer/baseline
    pipeline speaks."""
    return Case(ident=f"session-{trace.name}", profile="session", seed=0,
                index=index, script=trace.script, files=dict(trace.files))


def record_expectations(trace: SessionTrace,
                        sh: str | None = None) -> SessionTrace:
    """Stamp the host shell's current behaviour into the trace (used when
    authoring or refreshing a session file)."""
    from .runner import run_host

    outcome = run_host(trace.script, trace.files, sh=sh)
    if outcome.error:
        raise RuntimeError(f"{trace.name}: host run failed: {outcome.error}")
    return replace(trace, expect_status=outcome.status,
                   expect_stdout=outcome.stdout)


def verify_recorded(trace: SessionTrace) -> str | None:
    """Host-less replay: run the virtual shell and compare against the
    recorded expectations.  Returns a mismatch reason or None."""
    if trace.expect_stdout is None or trace.expect_status is None:
        return f"{trace.name}: no recorded expectations"
    outcome = run_virtual(trace.script, trace.files)
    if outcome.error:
        return f"virtual error: {outcome.error}"
    if outcome.stdout != trace.expect_stdout:
        return "stdout differs from recording"
    if outcome.status != trace.expect_status and not (
            outcome.status > 0 and trace.expect_status > 0):
        return (f"status differs from recording: virtual={outcome.status} "
                f"recorded={trace.expect_status}")
    return None


def run_replay(traces: list[SessionTrace], sh: str | None = None,
               progress=None, engine: str = "bash") -> CampaignResult:
    """Replay each session through the standard virtual-vs-host
    comparison."""
    result = CampaignResult()
    for index, trace in enumerate(traces):
        case = session_case(trace, index)
        result.total += 1
        div = run_case(case, sh=sh, engine=engine)
        if div is None:
            result.agreed += 1
        else:
            result.divergences.append(div)
        if progress is not None:
            progress(case, div)
    return result


def minimize_session(trace: SessionTrace, sh: str | None = None,
                     max_tests: int = 400,
                     engine: str = "bash") -> SessionTrace:
    """Step-granular ddmin: drop whole session steps while the divergence
    persists, then shrink fixtures.  Lines inside a step are never
    touched — a step is the smallest unit that keeps here-docs, loops and
    job-control sequences syntactically intact."""
    budget = _Budget(max_tests)
    files = dict(trace.files)
    if not _diverges(trace.script, files, budget, sh, engine):
        return trace  # flaky or already fixed; don't touch it

    steps = list(trace.steps)
    n = 2
    while len(steps) >= 2:
        chunk = max(1, len(steps) // n)
        shrunk = False
        for start in range(0, len(steps), chunk):
            candidate = steps[:start] + steps[start + chunk:]
            script = "\n".join(s.text for s in candidate)
            if candidate and _diverges(script, files, budget, sh, engine):
                steps = candidate
                n = max(n - 1, 2)
                shrunk = True
                break
        if not shrunk:
            if n >= len(steps):
                break
            n = min(len(steps), n * 2)
        if budget.remaining <= 0:
            break

    script = "\n".join(s.text for s in steps)
    files = _shrink_files(script, files, budget, sh, engine)
    return replace(trace, steps=tuple(steps), files=files)
