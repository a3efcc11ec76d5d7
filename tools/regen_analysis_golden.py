#!/usr/bin/env python3
"""Regenerate the analyzer's golden files.

Default mode rewrites tests/corpus/analysis_golden.json:
``AnalysisResult.to_dict()`` of every ``examples/*.sh`` and every
``tests/corpus/sessions`` trace.  ``--absint`` rewrites
tests/corpus/absint_golden.json: what ``analyze_value_flow`` decides
(dead roots and reasons, findings with their context, ``nodes`` and
``widenings``) for grammar seed 0 × every profile × 40 scripts, every
``examples/*.sh`` and every ``tests/corpus/**/*.sh``.

The files pin what the analyzer reports, byte for byte, so a change to
*how* it computes (demand-driven sections, a smaller value domain) can
be told from a change to *what* it computes.  Run it only for the latter, on
purpose, and review the diff:

    PYTHONPATH=src python tools/regen_analysis_golden.py [--absint]
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro.analysis import analyze_program, analyze_value_flow
from repro.difftest import generate_cases, load_sessions, profiles
from repro.parser import parse
from repro.parser.unparse import unparse

GOLDEN = ROOT / "tests" / "corpus" / "analysis_golden.json"
ABSINT_GOLDEN = ROOT / "tests" / "corpus" / "absint_golden.json"


def golden_scripts() -> dict[str, str]:
    """name -> script text, in a fixed order."""
    scripts = {path.name: path.read_text()
               for path in sorted((ROOT / "examples").glob("*.sh"))}
    for trace in load_sessions():
        scripts[f"session-{trace.name}"] = trace.script
    return scripts


def absint_scripts() -> dict[str, str]:
    """name -> script text for the value-flow pin, in a fixed order."""
    scripts = {}
    for profile in profiles():
        for case in generate_cases(0, 40, profile):
            scripts[f"grammar-{case.ident}"] = case.script
    for path in sorted((ROOT / "examples").glob("*.sh")):
        scripts[f"examples/{path.name}"] = path.read_text()
    corpus = ROOT / "tests" / "corpus"
    for path in sorted(corpus.rglob("*.sh")):
        scripts[str(path.relative_to(corpus))] = path.read_text()
    return scripts


def absint_outcome(text: str) -> dict:
    """Everything value flow decides for one script."""
    result = analyze_value_flow(parse(text))
    return {
        "dead": [[unparse(d.node), d.reason] for d in result.dead_list],
        "findings": [[f.code, f.message, unparse(f.node), f.context]
                     for f in result.findings],
        "nodes": result.nodes,
        "widenings": result.widenings,
    }


def render() -> str:
    reports = {name: analyze_program(parse(text)).to_dict()
               for name, text in golden_scripts().items()}
    return json.dumps(reports, indent=1, sort_keys=True) + "\n"


def render_absint() -> str:
    outcomes = {name: absint_outcome(text)
                for name, text in absint_scripts().items()}
    return json.dumps(outcomes, indent=1, sort_keys=True) + "\n"


if __name__ == "__main__":
    target, text = ((ABSINT_GOLDEN, render_absint()) if "--absint" in sys.argv
                    else (GOLDEN, render()))
    target.write_text(text)
    print(f"wrote {target}")
