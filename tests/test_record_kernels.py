"""A deterministic per-record budget for the record kernels (DESIGN.md §11).

Host seconds are too noisy to gate in tier-1; Python function calls per
record are not.  Each script runs over a 3000-line access log under
``cProfile`` and ``total_calls / 3000`` — the shell's fixed start-up calls
included — must stay under a literal: the value measured when awk, sed
and cut were compiled once per program (PR 18), plus one.  The tree
walker, the per-line ``cmds`` loop and the per-line LIST walk they
replaced cost 38.8 / 37.6 / 20.0 / 13.2 / 13.4 / 12.9 / 9.4 calls per
record on the same scripts; a budget trips when per-record interpretation
creeps back in (a ``re.search(str, ...)`` per record, a generator per
output line, a kind dispatch per node).
"""

from __future__ import annotations

import cProfile
import pstats

import pytest

from repro.bench import access_log
from repro.shell import Shell
from repro.vos.machines import laptop

LINES = 3000

#: script -> (calls per record allowed, calls per record before PR 18)
BUDGETS = {
    "awk '{s+=$NF} END{print s}' access.log": (14.6, 38.8),
    "awk '$9 == 500 {print $1, $NF}' access.log": (18.7, 37.6),
    "sed -n 's/.*resource\\/\\([0-9]*\\) HTTP.*/\\1/p' access.log":
        (13.5, 20.0),
    "sed 's/GET/PUT/;s/HTTP/http/g' access.log": (12.5, 13.2),
    "cut -d' ' -f6 access.log": (4.5, 13.4),
    "cut -d' ' -f1,6-7 access.log": (6.5, 12.9),
    "cut -c1-20 access.log": (1.4, 9.4),
    # the run kernels: uniq and tr -s cost per run, not per line (before:
    # a line-at-a-time uniq -c, a split + groupby uniq, a regex squeeze
    # calling back into Python per run)
    "cut -d' ' -f6 access.log | sort | uniq -c": (4.2, 4.92),
    "sort access.log | uniq": (3.9, 4.75),  # all distinct: the fallback
    "tr -cs A-Za-z '\\n' < access.log": (0.5, 20.4),
}


def calls_per_record(script: str) -> float:
    shell = Shell(laptop(), jobs=1)
    shell.fs.write_bytes("/access.log", access_log(LINES, seed=3))
    profile = cProfile.Profile()
    profile.enable()
    result = shell.run(script)
    profile.disable()
    assert result.status == 0
    return pstats.Stats(profile).total_calls / LINES


@pytest.mark.parametrize("script", BUDGETS, ids=lambda s: s[:28])
def test_calls_per_record_within_budget(script):
    calls_per_record(script)  # warm caches: regex compiles, lru_caches
    budget, before = BUDGETS[script]
    assert calls_per_record(script) <= budget
    command = script.split()[0]
    # awk and cut at most 0.7 of the interpreter they replaced, sed and
    # the run kernels below it
    strict = command in ("awk", "cut") and "|" not in script
    assert budget <= before * (0.7 if strict else 1.0)
