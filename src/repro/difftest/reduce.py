"""S17 §3: automatic divergence minimization (delta debugging).

Given a diverging case, shrink it while preserving *the fact that it
diverges* (any reason — the minimal script may diverge for a simpler
reason than the original, which is fine: the point is a small
reproducer).  Three passes, iterated to fixpoint under a bounded test
budget:

1. **line ddmin** — classic Zeller ddmin over script lines;
2. **pipeline-stage dropping** — for each line, try removing individual
   ``|``-separated stages (ddmin can't see inside a line);
3. **fixture shrinking** — drop unreferenced files, then halve each
   remaining file's line count while the divergence persists.

Every candidate costs one virtual (under the campaign's engine) + one
host execution, so the budget
(default 400 tests) keeps worst-case reduction time bounded.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .grammar import Case
from .runner import compare, run_host, run_virtual


@dataclass
class _Budget:
    remaining: int

    def spend(self) -> bool:
        if self.remaining <= 0:
            return False
        self.remaining -= 1
        return True


def _diverges(script: str, files: dict[str, bytes], budget: _Budget,
              sh: str | None, engine: str) -> bool:
    if not budget.spend():
        return False
    if not script.strip():
        return False
    return compare(run_virtual(script, files, engine),
                   run_host(script, files, sh=sh)) is not None


def _ddmin_lines(lines: list[str], files: dict[str, bytes],
                 budget: _Budget, sh: str | None,
                 engine: str) -> list[str]:
    n = 2
    while len(lines) >= 2:
        chunk = max(1, len(lines) // n)
        shrunk = False
        for start in range(0, len(lines), chunk):
            candidate = lines[:start] + lines[start + chunk:]
            if candidate and _diverges("\n".join(candidate), files,
                                       budget, sh, engine):
                lines = candidate
                n = max(n - 1, 2)
                shrunk = True
                break
        if not shrunk:
            if n >= len(lines):
                break
            n = min(len(lines), n * 2)
        if budget.remaining <= 0:
            break
    return lines


def _drop_stages(lines: list[str], files: dict[str, bytes],
                 budget: _Budget, sh: str | None,
                 engine: str) -> list[str]:
    changed = True
    while changed and budget.remaining > 0:
        changed = False
        for i, line in enumerate(lines):
            stages = [s.strip() for s in line.split(" | ")]
            if len(stages) < 2:
                continue
            for j in range(len(stages)):
                candidate_line = " | ".join(stages[:j] + stages[j + 1:])
                candidate = lines[:i] + [candidate_line] + lines[i + 1:]
                if _diverges("\n".join(candidate), files, budget, sh, engine):
                    lines = candidate
                    changed = True
                    break
            if changed:
                break
    return lines


def _shrink_files(script: str, files: dict[str, bytes],
                  budget: _Budget, sh: str | None,
                  engine: str) -> dict[str, bytes]:
    # drop files the script no longer mentions
    files = {name: data for name, data in files.items() if name in script}
    for name in list(files):
        data = files[name]
        while budget.remaining > 0:
            lines = data.splitlines(keepends=True)
            if len(lines) <= 1:
                break
            half = b"".join(lines[: len(lines) // 2])
            candidate = dict(files, **{name: half})
            if _diverges(script, candidate, budget, sh, engine):
                data = half
                files = candidate
            else:
                tail = b"".join(lines[len(lines) // 2:])
                candidate = dict(files, **{name: tail})
                if _diverges(script, candidate, budget, sh, engine):
                    data = tail
                    files = candidate
                else:
                    break
    return files


def minimize(case: Case, sh: str | None = None,
             max_tests: int = 400, engine: str = "bash") -> Case:
    """Shrink ``case`` to a smaller script/fixture set that still
    diverges.  Returns the (possibly unchanged) reduced case."""
    budget = _Budget(max_tests)
    if not _diverges(case.script, case.files, budget, sh, engine):
        return case  # flaky or already fixed; don't touch it
    lines = [ln for ln in case.script.split("\n") if ln.strip()]
    lines = _ddmin_lines(lines, case.files, budget, sh, engine)
    lines = _drop_stages(lines, case.files, budget, sh, engine)
    script = "\n".join(lines)
    files = _shrink_files(script, dict(case.files), budget, sh, engine)
    return replace(case, script=script, files=files)
