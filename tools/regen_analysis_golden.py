#!/usr/bin/env python3
"""Regenerate tests/corpus/analysis_golden.json: ``AnalysisResult.to_dict()``
of every ``examples/*.sh`` and every ``tests/corpus/sessions`` trace.

The file pins what the whole-script analyzer reports, byte for byte, so a
change to *how* it computes (PR 15 made every section demand-driven) can
be told from a change to *what* it computes.  Run it only for the
latter, on purpose, and review the diff:

    PYTHONPATH=src python tools/regen_analysis_golden.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro.analysis import analyze_program
from repro.difftest import load_sessions
from repro.parser import parse

GOLDEN = ROOT / "tests" / "corpus" / "analysis_golden.json"


def golden_scripts() -> dict[str, str]:
    """name -> script text, in a fixed order."""
    scripts = {path.name: path.read_text()
               for path in sorted((ROOT / "examples").glob("*.sh"))}
    for trace in load_sessions():
        scripts[f"session-{trace.name}"] = trace.script
    return scripts


def render() -> str:
    reports = {name: analyze_program(parse(text)).to_dict()
               for name, text in golden_scripts().items()}
    return json.dumps(reports, indent=1, sort_keys=True) + "\n"


if __name__ == "__main__":
    GOLDEN.write_text(render())
    print(f"wrote {GOLDEN}")
